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
// filter steps through filterStep, as Update does, so the result is
// bit-identical to smoothing the raw history with Smooth on every
// iteration. EMLanes runs up to Lanes such windows at once.
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
	count := float64(totalScores)
	for iter := 1; iter <= cfg.MaxIter; iter++ {
		if err := ws.filterSums(cur, init); err != nil {
			return EMResult{}, fmt.Errorf("EM iteration %d: %w", iter, err)
		}
		ws.backward(cur)
		next, err := mStep(&ws.sm, history, count, cfg.VarFloor)
		if err != nil {
			return EMResult{}, fmt.Errorf("EM iteration %d: %w", iter, err)
		}
		res.Iterations = iter
		delta := paramDelta(next, cur)
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

// paramDelta is the largest absolute change between two parameter sets,
// the quantity EM's tolerance bounds.
func paramDelta(next, cur Params) float64 {
	return math.Max(math.Abs(next.A-cur.A),
		math.Max(math.Abs(next.Gamma-cur.Gamma), math.Abs(next.Eta-cur.Eta)))
}

// sumRuns records each run's score count and score sum, summed in order
// from zero exactly as Update sums them.
func (ws *Workspace) sumRuns(history [][]float64) error {
	if cap(ws.runs) < len(history) {
		ws.runs = make([]runSums, 0, len(history))
	}
	ws.runs = ws.runs[:0]
	for r, scores := range history {
		run, err := sumRun(scores)
		if err != nil {
			return fmt.Errorf("run %d: %w", r+1, err)
		}
		ws.runs = append(ws.runs, run)
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
		if !proper(prev) {
			return fmt.Errorf("run %d: %w", t, prev.Validate())
		}
		filtered[t], predicted[t] = filterStep(p, prev, ws.runs[t-1])
	}
	return nil
}

// mStep is the closed-form M-step from smoothed statistics, given
// the number of scores in the history.
func mStep(sm *Smoothed, history [][]float64, count, varFloor float64) (Params, error) {
	n := sm.Runs()
	var m moments
	var sumSq float64
	for t := 1; t <= n; t++ {
		m = m.add(State{Mean: sm.Mean[t-1], Var: sm.Var[t-1]}, State{Mean: sm.Mean[t], Var: sm.Var[t]}, sm.CrossCov[t])
		for _, x := range history[t-1] {
			sumSq = residual(sumSq, x, State{Mean: sm.Mean[t], Var: sm.Var[t]})
		}
	}
	return m.params(n, sumSq, count, varFloor)
}

// moments are the M-step's running sums over t = 1..R of the smoothed
// second moments E[q_t q_{t-1}], E[q_{t-1}^2] and E[q_t^2].
type moments struct {
	cross, prevSq, curSq float64
}

// add folds in run t, given the smoothed beliefs at t-1 and t and their
// lag-one covariance: E[q_t^2] = Var + Mean^2, E[q_t q_{t-1}] = CrossCov +
// Mean_t * Mean_{t-1}. The M-steps of Workspace.EM and the EM lane kernel
// both sum through it.
func (m moments) add(prev, cur State, cross float64) moments {
	m.cross += cross + cur.Mean*prev.Mean
	m.prevSq += prev.Var + prev.Mean*prev.Mean
	m.curSq += cur.Var + cur.Mean*cur.Mean
	return m
}

// residual adds one score's term of eta's numerator to sumSq:
// (s_tj - E[q_t])^2 + Var[q_t], given the smoothed belief cur at its run.
func residual(sumSq, score float64, cur State) float64 {
	d := score - cur.Mean
	return sumSq + (d*d + cur.Var)
}

// params solves the M-step from the moment sums over n runs and eta's
// numerator sumSq over count scores.
func (m moments) params(n int, sumSq, count, varFloor float64) (Params, error) {
	if m.prevSq <= 0 {
		return Params{}, errors.New("lds: degenerate history (zero prior second moment)")
	}
	a := m.cross / m.prevSq
	gamma := (m.curSq - 2*a*m.cross + a*a*m.prevSq) / float64(n)
	gamma = math.Max(gamma, varFloor)
	eta := math.Max(sumSq/count, varFloor)

	p := Params{A: a, Gamma: gamma, Eta: eta}
	if err := p.Validate(); err != nil {
		return Params{}, err
	}
	return p, nil
}
