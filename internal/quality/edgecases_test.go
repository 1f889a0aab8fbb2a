package quality_test

// Edge-case conformance tests for every quality estimator, driven through
// verify.CheckEstimator: empty score histories, all-missing observation
// runs, single-worker pools, and poison observations must all leave every
// estimator with finite, uncorrupted estimates.

import (
	"math"
	"testing"

	"melody/internal/lds"
	"melody/internal/obs"
	"melody/internal/quality"
	"melody/internal/verify"
)

// freshEstimators builds one of each estimator with the paper's Table-4
// initial belief (mu^0 = 5.5).
func freshEstimators(t *testing.T) []quality.Estimator {
	t.Helper()
	static, err := quality.NewStatic(5.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	ewma, err := quality.NewEWMA(5.5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	tracker, err := quality.NewMelody(quality.MelodyConfig{
		Init:     lds.State{Mean: 5.5, Var: 2.25},
		Params:   lds.Params{A: 1, Gamma: 0.3, Eta: 9},
		EMPeriod: 4, EMWindow: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	return []quality.Estimator{
		static,
		ewma,
		quality.NewMLCurrentRun(5.5),
		quality.NewMLAllRuns(5.5),
		tracker,
	}
}

// TestEstimatorEmptyHistory: a worker that has never been observed — and a
// worker observed only with empty score sets — must have a finite estimate.
func TestEstimatorEmptyHistory(t *testing.T) {
	for _, e := range freshEstimators(t) {
		runs := [][][]float64{
			{{}, {}},
			{nil, nil},
			{{}, {}},
		}
		if err := verify.CheckEstimator(e, []string{"idle-1", "idle-2"}, runs); err != nil {
			t.Errorf("%s: %v", e.Name(), err)
		}
	}
}

// TestEstimatorAllMissingRuns: long stretches with no observations at all
// (workers won no tasks for many consecutive runs) must not drift any
// estimate to NaN/Inf, and a later real observation must still be absorbed.
func TestEstimatorAllMissingRuns(t *testing.T) {
	for _, e := range freshEstimators(t) {
		runs := make([][][]float64, 0, 32)
		for r := 0; r < 30; r++ {
			runs = append(runs, [][]float64{{}})
		}
		runs = append(runs, [][]float64{{7.5, 8.0}}) // finally observed
		runs = append(runs, [][]float64{{}})         // and missing again
		if err := verify.CheckEstimator(e, []string{"ghost"}, runs); err != nil {
			t.Errorf("%s: %v", e.Name(), err)
			continue
		}
		if est := e.Estimate("ghost"); !(est > 0) || math.IsInf(est, 0) {
			t.Errorf("%s: estimate %v after sparse history", e.Name(), est)
		}
	}
}

// TestEstimatorSingleWorkerPool: a pool of one worker exercises every
// estimator's per-worker state in isolation across mixed observed/missing
// runs, including the EM refit path of the LDS tracker (EMPeriod=4 fires
// twice inside 10 runs).
func TestEstimatorSingleWorkerPool(t *testing.T) {
	for _, e := range freshEstimators(t) {
		runs := [][][]float64{
			{{6.0}},
			{{6.5, 7.0}},
			{{}},
			{{5.0}},
			{{8.0, 7.5, 6.5}},
			{{}},
			{{}},
			{{7.0}},
			{{6.0, 6.0}},
			{{9.0}},
		}
		if err := verify.CheckEstimator(e, []string{"solo"}, runs); err != nil {
			t.Errorf("%s: %v", e.Name(), err)
		}
	}
}

// TestDivergedWorkerRestarts: with a > 1 and no scores, each run multiplies
// a worker's predicted variance by a^2 until it overflows to +Inf. For
// a = 1.036 the 10,009th update overflows, and every update from the
// 10,010th on used to fail. The worker must instead restart, at the update
// that overflowed, from the initial belief and theta^0 with an empty
// window — exactly the state of a worker first seen at that run — and the
// restart must be counted.
func TestDivergedWorkerRestarts(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := quality.MelodyConfig{
		Init:     lds.State{Mean: 5.5, Var: 2.25},
		Params:   lds.Params{A: 1.036, Gamma: 0.3, Eta: 9},
		EMPeriod: 10,
		EMWindow: 60,
		Metrics:  reg,
	}
	m, err := quality.NewMelody(cfg)
	if err != nil {
		t.Fatal(err)
	}
	restarts := reg.Counter(obs.MetricEstimatorRestartsTotal, "")
	const runs = 12000
	restartRun := 0
	for run := 1; run <= runs; run++ {
		if err := m.Observe("w", nil); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if restartRun == 0 && restarts.Value() > 0 {
			restartRun = run
		}
	}
	post, _ := m.Posterior("w")
	if err := post.Validate(); err != nil {
		t.Fatalf("posterior after %d empty runs: %v", runs, err)
	}
	if got := restarts.Value(); got != 1 {
		t.Fatalf("%d restarts counted, want 1", got)
	}
	if restartRun != 10009 {
		t.Errorf("restart at run %d, want 10009", restartRun)
	}

	cfg.Metrics = nil
	fresh, err := quality.NewMelody(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for run := restartRun; run <= runs; run++ {
		if err := fresh.Observe("w", nil); err != nil {
			t.Fatal(err)
		}
	}
	got, err := m.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("restarted worker differs from one first seen at run %d", restartRun)
	}
}
