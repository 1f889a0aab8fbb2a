// Package lds implements the scalar-Gaussian Linear Dynamical System that
// MELODY uses to model a worker's long-term latent quality (Section 5 of the
// paper).
//
// The model, following Eq. (12)-(14):
//
//	q_r | q_{r-1} ~ N(a*q_{r-1}, gamma)          (transition)
//	s_{r,j} | q_r ~ N(q_r, eta), j = 1..N_r      (emission, i.i.d. per run)
//	q_0           ~ N(mu0, sigma0)               (initial state)
//
// where q_r is the latent quality in run r and S_r = {s_{r,1}, ..., s_{r,N_r}}
// is the set of scores the worker received in run r. A run in which the
// worker received no tasks contributes an empty score set and is handled as a
// pure prediction step.
//
// The package provides three operations:
//
//   - Filter: the forward (Kalman) recursion producing the posterior
//     alpha-hat(q_r) = N(mu_r, sigma_r) of Theorem 3, one step at a time or
//     over a whole history.
//   - Smoother: the backward RTS recursion producing p(q_r | S_1..S_R) with
//     lag-one cross covariances, required by EM.
//   - EM: Algorithm 2, maximum-likelihood estimation of theta = {a, gamma,
//     eta} from a score history.
package lds

import (
	"errors"
	"fmt"
	"math"
)

// Params are the per-worker hyper-parameters theta = {a, gamma, eta} of the
// LDS (transition coefficient, transition variance, emission variance).
type Params struct {
	A     float64 // transition coefficient a
	Gamma float64 // transition (process) variance, > 0
	Eta   float64 // emission (observation) variance, > 0
}

// Validate reports whether the parameters define a proper LDS.
func (p Params) Validate() error {
	switch {
	case math.IsNaN(p.A) || math.IsInf(p.A, 0):
		return errors.New("lds: transition coefficient is not finite")
	case !(p.Gamma > 0) || math.IsInf(p.Gamma, 0):
		return fmt.Errorf("lds: transition variance %v must be positive and finite", p.Gamma)
	case !(p.Eta > 0) || math.IsInf(p.Eta, 0):
		return fmt.Errorf("lds: emission variance %v must be positive and finite", p.Eta)
	default:
		return nil
	}
}

// State is a Gaussian belief N(Mean, Var) over the latent quality. It is
// used both for the prior alpha(q_r) and the posterior alpha-hat(q_r).
type State struct {
	Mean float64
	Var  float64
}

// Validate reports whether the state is a proper Gaussian belief.
func (s State) Validate() error {
	switch {
	case math.IsNaN(s.Mean) || math.IsInf(s.Mean, 0):
		return errors.New("lds: state mean is not finite")
	case !(s.Var > 0) || math.IsInf(s.Var, 0):
		return fmt.Errorf("lds: state variance %v must be positive and finite", s.Var)
	default:
		return nil
	}
}

// Predict propagates a posterior belief through the transition density,
// producing the prior for the next run: alpha(q_{r+1}) per Eq. (3) with the
// Gaussian forms of Eq. (12). The prior mean a*mu is exactly Eq. (19)'s
// estimated quality for the next run.
func Predict(p Params, posterior State) State {
	return State{
		Mean: p.A * posterior.Mean,
		Var:  p.A*p.A*posterior.Var + p.Gamma,
	}
}

// Update folds one run's observed score set into the belief, implementing
// Theorem 3 (Eq. 17-18). prev is the posterior of run r-1; scores is S_r.
// An empty score set yields the pure prediction (the worker was not observed
// this run, so the posterior equals the prior).
func Update(p Params, prev State, scores []float64) (State, error) {
	if err := p.Validate(); err != nil {
		return State{}, err
	}
	if err := prev.Validate(); err != nil {
		return State{}, err
	}
	var sum float64
	for _, s := range scores {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return State{}, fmt.Errorf("lds: score %v is not finite", s)
		}
		sum += s
	}
	next, _ := filterStep(p, prev, runSums{n: float64(len(scores)), sum: sum})
	return next, nil
}

// runSums is one run's score count and score sum, the only view of the
// run's scores the forward filter needs.
type runSums struct {
	n, sum float64
}

// sumRun sums a run's scores in order from zero, rejecting non-finite ones,
// as Update does; Update keeps its own loop so that the per-run hot path
// makes no call.
func sumRun(scores []float64) (runSums, error) {
	var sum float64
	for _, s := range scores {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return runSums{}, fmt.Errorf("lds: score %v is not finite", s)
		}
		sum += s
	}
	return runSums{n: float64(len(scores)), sum: sum}, nil
}

// filterStep is Theorem 3's update on a run's sums, with p and prev
// already validated: the posterior after the run and the prior variance K
// the smoother's gain divides by. Update, the EM filter and the EM lane
// kernel all step through it, so every path evaluates the same float
// expressions in the same order.
func filterStep(p Params, prev State, run runSums) (State, float64) {
	k := p.A*p.A*prev.Var + p.Gamma // K = a^2*sigma_{r-1} + gamma
	if run.n == 0 {
		return State{Mean: p.A * prev.Mean, Var: k}, k
	}
	denom := run.n*k + p.Eta
	return State{
		Mean: (p.A*p.Eta*prev.Mean + k*run.sum) / denom, // Eq. (17)
		Var:  k * p.Eta / denom,                         // Eq. (18)
	}, k
}

// proper is State.Validate as a predicate cheap enough for every filter
// step: a finite mean (m-m is NaN for NaN and ±Inf) and a positive finite
// variance.
func proper(s State) bool {
	return s.Mean-s.Mean == 0 && s.Var > 0 && s.Var <= math.MaxFloat64
}

// Filter runs the forward recursion over a full history. history[r] is the
// score set of run r+1 (empty slices allowed). It returns the filtered
// posterior after each run. init is the platform's initial belief
// N(mu0, sigma0).
func Filter(p Params, init State, history [][]float64) ([]State, error) {
	return FilterInto(nil, p, init, history)
}

// FilterInto is the buffer-reusing form of Filter: the filtered posteriors
// are appended into dst[:0] (growing it as needed) so a caller looping over
// histories can amortize the output allocation away.
func FilterInto(dst []State, p Params, init State, history [][]float64) ([]State, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := init.Validate(); err != nil {
		return nil, err
	}
	out := grow(dst, len(history))
	cur := init
	for r, scores := range history {
		next, err := Update(p, cur, scores)
		if err != nil {
			return nil, fmt.Errorf("run %d: %w", r+1, err)
		}
		out[r] = next
		cur = next
	}
	return out, nil
}

// LogLikelihood returns the log marginal likelihood log p(S_1..S_R) of the
// history under the model, computed from the one-step predictive densities.
// For a run with N scores, the predictive distribution of the scores given
// the past factorizes via the latent state; we compute it exactly using the
// joint Gaussian of (q_r, s_r1..s_rN | past).
func LogLikelihood(p Params, init State, history [][]float64) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if err := init.Validate(); err != nil {
		return 0, err
	}
	var ll float64
	cur := init
	for r, scores := range history {
		prior := Predict(p, cur)
		// Sequentially condition on each score within the run: each score
		// s ~ N(mean, var+eta) given the current within-run belief, then the
		// belief is updated conjugately. This yields the exact joint density.
		b := prior
		for _, s := range scores {
			predVar := b.Var + p.Eta
			diff := s - b.Mean
			ll += -0.5*math.Log(2*math.Pi*predVar) - diff*diff/(2*predVar)
			// Conjugate single-observation update.
			gain := b.Var / predVar
			b = State{Mean: b.Mean + gain*diff, Var: b.Var * p.Eta / predVar}
		}
		next, err := Update(p, cur, scores)
		if err != nil {
			return 0, fmt.Errorf("run %d: %w", r+1, err)
		}
		cur = next
	}
	return ll, nil
}
