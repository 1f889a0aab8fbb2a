// Package quality implements the long-term worker-quality estimators the
// paper evaluates in Section 7.7: MELODY's LDS-based estimator (Algorithm 3,
// with periodic EM re-estimation per Algorithm 2) and the three baselines
// STATIC, ML-CR and ML-AR.
//
// An estimator consumes, run after run, the set of scores each worker earned
// (possibly empty when the worker won no tasks) and produces the estimated
// quality mu_i^{r+1} the platform uses for allocation in the next run.
package quality

import (
	"errors"
	"fmt"

	"melody/internal/lds"
)

// Estimator is the per-run quality estimation interface shared by MELODY and
// the baselines. Implementations are not safe for concurrent use; the market
// engine drives them from a single goroutine.
type Estimator interface {
	// Name identifies the estimator in reports and figures.
	Name() string
	// Estimate returns the estimated quality for the coming run. Workers
	// never seen before receive the estimator's initial estimate.
	Estimate(workerID string) float64
	// Observe records the scores the worker earned in the run that just
	// ended and updates the worker's estimate. Call it every run for every
	// worker the caller tracks, with an empty slice when the worker earned
	// no scores. A caller may start tracking a worker late, as a platform
	// does at the worker's first bid: it then first gives the worker, in
	// order, the empty observations of the runs it missed. Until then it
	// reads the worker's estimate as Estimate gives it for a worker never
	// seen, or, from an estimator whose estimate moves on runs without
	// scores (MELODY's prediction step scales the mean by a), with the
	// estimator's EstimateIdle.
	Observe(workerID string, scores []float64) error
}

// BatchObserver is implemented by estimators that can absorb one whole
// run's observations at once. ObserveBatch(ids, scores, nil) must produce
// exactly the state that calling Observe(ids[i], scores[i]) for every i in
// order would, but may batch the work of independent workers; the market
// engine and the platform prefer it over the serial Observe loop when
// available. Unlike the serial loop it processes every worker even when
// some fail, reporting each failure as a *WorkerError, joined in batch
// order.
//
// A successful batch returns the EM re-estimations it made, in batch
// order (nil for none), so a durable layer can log them. Given a log's
// re-estimations of the same batch (logged non-nil), it installs those
// instead of running EM and returns them: they must name exactly the
// workers the batch makes due, in batch order, or the batch fails with
// ErrReestimationMismatch after its posterior updates, and the estimator
// must be discarded. The logged θ are the values EM gave, so the state is
// the one EM would leave.
type BatchObserver interface {
	ObserveBatch(ids []string, scores [][]float64, logged []Reestimation) ([]Reestimation, error)
}

// Reestimation is one EM re-estimation a batch made: the worker and the
// hyper-parameters theta = {a, gamma, eta} EM gave it.
type Reestimation struct {
	Worker string
	Params lds.Params
}

// ErrReestimationMismatch is returned when logged re-estimations name
// other workers than the ones a batch makes due, as when the EM period
// differs from the one the log was written with.
var ErrReestimationMismatch = errors.New("quality: logged EM re-estimations do not match the batch")

// WorkerError is one worker's failed update in a batch. Its message is the
// update's own; Worker names the worker it belongs to.
type WorkerError struct {
	Worker string
	Err    error
}

// Error returns the failed update's own message.
func (e *WorkerError) Error() string { return e.Err.Error() }

// Unwrap returns the failed update's error.
func (e *WorkerError) Unwrap() error { return e.Err }

// CheckScore returns an error for a score no estimator accepts: NaN, or
// beyond ±1e18 (infinities included). A platform refuses such a score when
// it is submitted, before it can reach an estimator.
func CheckScore(s float64) error {
	if s != s { // NaN
		return fmt.Errorf("quality: NaN score")
	}
	if s > 1e18 || s < -1e18 {
		return fmt.Errorf("quality: score %v out of range", s)
	}
	return nil
}

// validateScores rejects non-finite scores early so estimator state can
// never be poisoned.
func validateScores(scores []float64) error {
	for _, s := range scores {
		if err := CheckScore(s); err != nil {
			return err
		}
	}
	return nil
}
