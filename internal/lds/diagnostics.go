package lds

import (
	"fmt"
	"math"
)

// Innovation is a standardized one-step prediction residual: for a run
// with N observed scores, the predictive distribution of the score mean
// given all earlier runs is N(prior.Mean, prior.Var + eta/N), and the
// innovation is the observed mean's z-score under it. If the model fits,
// innovations are i.i.d. standard normal — persistent large values signal
// a mis-specified worker model (e.g. a level shift the transition cannot
// explain), which is how a platform can decide a worker's hyper-parameters
// need re-learning sooner than the fixed period T.
type Innovation struct {
	// Run is the 1-based run index within the history.
	Run int
	// Standardized is the z-scored prediction residual.
	Standardized float64
}

// Innovations computes the standardized residual of every non-empty run in
// the history. Runs without scores contribute no innovation (there is
// nothing to predict against).
func Innovations(p Params, init State, history [][]float64) ([]Innovation, error) {
	return InnovationsInto(nil, p, init, history)
}

// InnovationsInto is the buffer-reusing form of Innovations: residuals are
// appended into dst[:0] so repeated diagnostics (e.g. a misfit score
// read after every run) can run allocation-free.
func InnovationsInto(dst []Innovation, p Params, init State, history [][]float64) ([]Innovation, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := init.Validate(); err != nil {
		return nil, err
	}
	out := dst[:0]
	cur := init
	for r, scores := range history {
		prior := Predict(p, cur)
		if len(scores) > 0 {
			var sum float64
			for _, s := range scores {
				if math.IsNaN(s) || math.IsInf(s, 0) {
					return nil, fmt.Errorf("lds: run %d: score %v is not finite", r+1, s)
				}
				sum += s
			}
			n := float64(len(scores))
			mean := sum / n
			predVar := prior.Var + p.Eta/n
			out = append(out, Innovation{
				Run:          r + 1,
				Standardized: (mean - prior.Mean) / math.Sqrt(predVar),
			})
		}
		next, err := Update(p, cur, scores)
		if err != nil {
			return nil, fmt.Errorf("lds: run %d: %w", r+1, err)
		}
		cur = next
	}
	return out, nil
}

// MisfitScore summarizes innovations into a single scalar: the mean of
// squared standardized residuals. A well-specified model scores near 1;
// values far above 1 indicate the model underfits the worker's dynamics.
func MisfitScore(innovations []Innovation) (float64, error) {
	if len(innovations) == 0 {
		return 0, fmt.Errorf("lds: no innovations to score")
	}
	var sum float64
	for _, in := range innovations {
		sum += in.Standardized * in.Standardized
	}
	return sum / float64(len(innovations)), nil
}
