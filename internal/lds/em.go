package lds

import (
	"errors"
	"fmt"
	"math"
)

// EMConfig controls Algorithm 2 (EM parameter learning).
type EMConfig struct {
	// MaxIter bounds the number of EM iterations. Defaults to 50.
	MaxIter int
	// Tol stops iteration when the largest absolute parameter change falls
	// below it. Defaults to 1e-6.
	Tol float64
	// VarFloor is the smallest variance EM will assign to gamma or eta,
	// keeping the model proper on degenerate histories. Defaults to 1e-6.
	VarFloor float64
}

func (c EMConfig) withDefaults() EMConfig {
	if c.MaxIter <= 0 {
		c.MaxIter = 50
	}
	if c.Tol <= 0 {
		c.Tol = 1e-6
	}
	if c.VarFloor <= 0 {
		c.VarFloor = 1e-6
	}
	return c
}

// EMResult reports the outcome of parameter learning.
type EMResult struct {
	Params     Params
	Iterations int
	// LogLikelihood is the final log marginal likelihood of the history.
	LogLikelihood float64
	// Converged indicates the tolerance was reached before MaxIter.
	Converged bool
}

// EM implements Algorithm 2: maximum-likelihood estimation of the worker's
// hyper-parameters theta = {a, gamma, eta} from the score history S_1..S_R
// via Expectation Maximization. init is the fixed platform prior over q_0
// (the paper presets N(mu0, sigma0) and does not re-estimate it). start is
// the initial guess theta^0.
//
// The E-step computes smoothed sufficient statistics E[q_t], E[q_t^2] and
// E[q_t q_{t-1}] with the RTS smoother. The M-step maximizes the expected
// complete-data log likelihood of Eq. (15) in closed form:
//
//	a     = sum_t E[q_t q_{t-1}] / sum_t E[q_{t-1}^2]
//	gamma = (1/R) sum_t ( E[q_t^2] - 2a E[q_t q_{t-1}] + a^2 E[q_{t-1}^2] )
//	eta   = sum_t sum_j ( (s_tj - E[q_t])^2 + Var[q_t] ) / sum_t N_t
//
// with sums over t = 1..R (transitions from the fixed q_0 included).
func EM(start Params, init State, history [][]float64, cfg EMConfig) (EMResult, error) {
	return new(Workspace).EM(start, init, history, cfg)
}

// EM is the buffer-reusing form of the package-level EM: repeated
// re-estimation through one workspace allocates nothing once its buffers
// have grown to the history length.
//
// Each run's score count and sum are computed once per call (rejecting
// non-finite scores there), the buffers are sized once, and every
// iteration's forward filter runs on those sums with the parameters
// validated once: an M-step only ever returns valid parameters. The
// filter's float expressions are Update's, evaluated in the same order, so
// the result is bit-identical to smoothing the raw history with Smooth on
// every iteration.
func (ws *Workspace) EM(start Params, init State, history [][]float64, cfg EMConfig) (EMResult, error) {
	cfg = cfg.withDefaults()
	if err := start.Validate(); err != nil {
		return EMResult{}, err
	}
	if err := init.Validate(); err != nil {
		return EMResult{}, err
	}
	if len(history) == 0 {
		return EMResult{}, errors.New("lds: cannot learn from an empty history")
	}
	totalScores := 0
	for _, s := range history {
		totalScores += len(s)
	}
	if totalScores == 0 {
		return EMResult{}, errors.New("lds: cannot learn from a history with no scores")
	}
	if err := ws.sumRuns(history); err != nil {
		return EMResult{}, err
	}
	ws.size(len(history))

	cur := start
	res := EMResult{Params: cur}
	for iter := 1; iter <= cfg.MaxIter; iter++ {
		if err := ws.filterSums(cur, init); err != nil {
			return EMResult{}, fmt.Errorf("EM iteration %d: %w", iter, err)
		}
		ws.backward(cur)
		next, err := mStep(&ws.sm, history, init, cfg.VarFloor)
		if err != nil {
			return EMResult{}, fmt.Errorf("EM iteration %d: %w", iter, err)
		}
		res.Iterations = iter
		delta := math.Max(math.Abs(next.A-cur.A),
			math.Max(math.Abs(next.Gamma-cur.Gamma), math.Abs(next.Eta-cur.Eta)))
		cur = next
		if delta < cfg.Tol {
			res.Converged = true
			break
		}
	}
	res.Params = cur
	ll, err := LogLikelihood(cur, init, history)
	if err != nil {
		return EMResult{}, err
	}
	res.LogLikelihood = ll
	return res, nil
}

// sumRuns records each run's score count and score sum, summed in order
// from zero exactly as Update sums them.
func (ws *Workspace) sumRuns(history [][]float64) error {
	if cap(ws.runs) < len(history) {
		ws.runs = make([]runSums, 0, len(history))
	}
	ws.runs = ws.runs[:0]
	for r, scores := range history {
		var sum float64
		for _, s := range scores {
			if math.IsNaN(s) || math.IsInf(s, 0) {
				return fmt.Errorf("run %d: lds: score %v is not finite", r+1, s)
			}
			sum += s
		}
		ws.runs = append(ws.runs, runSums{n: float64(len(scores)), sum: sum})
	}
	return nil
}

// filterSums is Smooth's forward pass over the per-run sums of sumRuns,
// with p already validated: each step is Update(p, filtered[t-1], S_t),
// including its check that the previous belief is proper.
func (ws *Workspace) filterSums(p Params, init State) error {
	filtered, predicted := ws.filtered, ws.predicted
	filtered[0] = init
	for t := 1; t < len(filtered); t++ {
		prev := filtered[t-1]
		// Update's prev.Validate(), inlined: a finite mean (m-m is NaN for
		// NaN and ±Inf) and a positive finite variance.
		if prev.Mean-prev.Mean != 0 || !(prev.Var > 0 && prev.Var <= math.MaxFloat64) {
			return fmt.Errorf("run %d: %w", t, prev.Validate())
		}
		k := p.A*p.A*prev.Var + p.Gamma // K = a^2*sigma_{r-1} + gamma
		predicted[t] = k
		run := ws.runs[t-1]
		if run.n == 0 {
			filtered[t] = State{Mean: p.A * prev.Mean, Var: k}
			continue
		}
		denom := run.n*k + p.Eta
		filtered[t] = State{
			Mean: (p.A*p.Eta*prev.Mean + k*run.sum) / denom, // Eq. (17)
			Var:  k * p.Eta / denom,                         // Eq. (18)
		}
	}
	return nil
}

// mStep computes the closed-form M-step from smoothed statistics.
func mStep(sm *Smoothed, history [][]float64, init State, varFloor float64) (Params, error) {
	n := sm.Runs()

	// Second moments: E[q_t^2] = Var + Mean^2, E[q_t q_{t-1}] = CrossCov +
	// Mean_t * Mean_{t-1}.
	var sumCross, sumPrevSq, sumCurSq float64
	for t := 1; t <= n; t++ {
		sumCross += sm.CrossCov[t] + sm.Mean[t]*sm.Mean[t-1]
		sumPrevSq += sm.Var[t-1] + sm.Mean[t-1]*sm.Mean[t-1]
		sumCurSq += sm.Var[t] + sm.Mean[t]*sm.Mean[t]
	}
	if sumPrevSq <= 0 {
		return Params{}, errors.New("lds: degenerate history (zero prior second moment)")
	}
	a := sumCross / sumPrevSq
	gamma := (sumCurSq - 2*a*sumCross + a*a*sumPrevSq) / float64(n)
	gamma = math.Max(gamma, varFloor)

	var sumSq float64
	var count float64
	for t := 1; t <= n; t++ {
		for _, s := range history[t-1] {
			d := s - sm.Mean[t]
			sumSq += d*d + sm.Var[t]
			count++
		}
	}
	eta := math.Max(sumSq/count, varFloor)

	p := Params{A: a, Gamma: gamma, Eta: eta}
	if err := p.Validate(); err != nil {
		return Params{}, err
	}
	_ = init // initial state is fixed by the platform and not re-estimated
	return p, nil
}
