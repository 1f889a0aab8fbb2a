package verify

import (
	"fmt"
	"math"

	"melody/internal/quality"
)

// CheckEstimator drives a quality estimator through a deterministic
// observation schedule and verifies the conformance contract every
// estimator (MELODY's LDS tracker and the baselines alike) must honor:
//
//  1. unseen workers get a finite initial estimate,
//  2. after every Observe — including empty score sets (the worker won no
//     tasks that run) and all-missing observation runs — every estimate
//     stays finite,
//  3. a rejected observation (NaN or absurd score) returns an error and
//     does not poison state: the worker's estimate is unchanged.
//
// runs[r][i] holds the scores ids[i] earned in run r; an empty slice means
// the worker was unobserved that run, mirroring Estimator.Observe's
// contract that it is called every run for every worker the caller
// tracks.
func CheckEstimator(e quality.Estimator, ids []string, runs [][][]float64) error {
	if est := e.Estimate("verify-never-seen-worker"); !finite(est) {
		return fmt.Errorf("verify: %s: initial estimate %v for unseen worker is not finite", e.Name(), est)
	}
	for r, scores := range runs {
		if len(scores) != len(ids) {
			return fmt.Errorf("verify: run %d has %d score sets for %d workers", r+1, len(scores), len(ids))
		}
		for i, id := range ids {
			if err := e.Observe(id, scores[i]); err != nil {
				return fmt.Errorf("verify: %s: observe worker %q run %d: %w", e.Name(), id, r+1, err)
			}
			if est := e.Estimate(id); !finite(est) {
				return fmt.Errorf("verify: %s: estimate for %q is %v after run %d", e.Name(), id, est, r+1)
			}
		}
	}
	// Poison resistance: a bad score batch must fail cleanly and leave the
	// estimate where it was.
	for _, id := range ids {
		before := e.Estimate(id)
		if err := e.Observe(id, []float64{math.NaN()}); err == nil {
			return fmt.Errorf("verify: %s: NaN score accepted for worker %q", e.Name(), id)
		}
		if after := e.Estimate(id); after != before {
			return fmt.Errorf("verify: %s: rejected observation moved %q's estimate %v -> %v",
				e.Name(), id, before, after)
		}
	}
	return nil
}
