package market

import (
	"reflect"
	"testing"

	"melody/internal/quality"
)

// serialOnly hides the BatchObserver interface of the wrapped estimator so
// the engine is forced down the serial Observe loop.
type serialOnly struct {
	quality.Estimator
}

// TestEngineBatchObserveMatchesSerial runs two identically-seeded worlds —
// one where the engine sees *quality.Melody (batch path), one where the
// estimator is wrapped so only Observe is visible — and requires the full
// telemetry of every run to be deep-equal. This pins the batch observe
// path to the serial loop at the system level, not just per worker.
func TestEngineBatchObserveMatchesSerial(t *testing.T) {
	const seed, n, m, runs = 97, 40, 30, 25

	batchEst := melodyEstimator(t)
	if _, ok := quality.Estimator(batchEst).(quality.BatchObserver); !ok {
		t.Fatal("quality.Melody no longer implements BatchObserver; test is vacuous")
	}
	serialEst := serialOnly{melodyEstimator(t)}
	if _, ok := quality.Estimator(serialEst).(quality.BatchObserver); ok {
		t.Fatal("serialOnly wrapper leaks BatchObserver; test is vacuous")
	}

	batchEng := testEngine(t, seed, batchEst, n, m, runs)
	serialEng := testEngine(t, seed, serialEst, n, m, runs)

	batchRes, err := batchEng.Steps(runs)
	if err != nil {
		t.Fatal(err)
	}
	serialRes, err := serialEng.Steps(runs)
	if err != nil {
		t.Fatal(err)
	}
	for r := range serialRes {
		if !reflect.DeepEqual(batchRes[r], serialRes[r]) {
			t.Fatalf("run %d diverged:\nbatch:  %+v\nserial: %+v", r+1, batchRes[r], serialRes[r])
		}
	}
}

// TestRunReplicationsDefaultConcurrency: non-positive concurrency must run
// (defaulting to GOMAXPROCS) instead of deadlocking or erroring.
func TestRunReplicationsDefaultConcurrency(t *testing.T) {
	build := func(seed int64) (*Engine, error) {
		return testEngine(t, seed, melodyEstimator(t), 15, 10, 5), nil
	}
	reps, err := RunReplications(build, []int64{1, 2, 3, 4, 5}, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 5 {
		t.Fatalf("got %d replications, want 5", len(reps))
	}
	for i, rep := range reps {
		if rep.Seed != []int64{1, 2, 3, 4, 5}[i] {
			t.Fatalf("replication %d out of seed order: %+v", i, rep)
		}
		if len(rep.Results) != 5 {
			t.Fatalf("replication %d has %d runs, want 5", i, len(rep.Results))
		}
	}
}
