package eventlog

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"melody"
)

// newScheduler builds a one-tenant-style scheduler with no ledger; replay
// requires writer and reader to be constructed identically.
func newScheduler(t *testing.T) *melody.RunScheduler {
	t.Helper()
	s, err := melody.NewRunScheduler(melody.SchedulerConfig{
		Auction: melody.AuctionConfig{QualityMin: 1, QualityMax: 10, CostMin: 1, CostMax: 2},
		NewEstimator: func(string) (melody.Estimator, error) {
			return melody.NewQualityTracker(melody.QualityTrackerConfig{
				InitialMean: 5.5, InitialVar: 2.25,
				Params:   melody.QualityParams{A: 1, Gamma: 0.3, Eta: 4},
				EMPeriod: 5, EMWindow: 40,
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewPersistentSchedulerValidation(t *testing.T) {
	if _, err := NewPersistentScheduler(nil, nil); err == nil {
		t.Error("nil inputs accepted")
	}
}

// driveRuns runs a deterministic workload of the default tenant's runs
// r1, r2, ... through a persistent scheduler.
func driveRuns(t *testing.T, ps *PersistentScheduler, runs int) {
	ctx := context.Background()
	t.Helper()
	workers := []string{"ada", "bob", "cyd", "dee"}
	for _, id := range workers {
		if err := ps.RegisterWorker(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	latent := map[string]float64{"ada": 8, "bob": 6, "cyd": 7, "dee": 4}
	for run := 1; run <= runs; run++ {
		runID := fmt.Sprintf("r%d", run)
		tasks := []melody.Task{
			{ID: fmt.Sprintf("r%d-a", run), Threshold: 11},
			{ID: fmt.Sprintf("r%d-b", run), Threshold: 11},
		}
		if err := ps.OpenRun(ctx, runID, "", tasks, 30); err != nil {
			t.Fatal(err)
		}
		for i, id := range workers {
			bid := melody.Bid{Cost: 1.0 + 0.2*float64(i), Frequency: 2}
			if err := ps.SubmitBid(ctx, runID, id, bid); err != nil {
				t.Fatal(err)
			}
		}
		out, err := ps.CloseAuction(ctx, runID)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range out.Assignments {
			// Deterministic "scores" derived from latent quality and run.
			score := latent[a.WorkerID] + 0.1*float64(run%3)
			if err := ps.SubmitScore(ctx, runID, a.WorkerID, a.TaskID, score); err != nil {
				t.Fatal(err)
			}
		}
		if err := ps.FinishRun(ctx, runID); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReplayReconstructsState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	log, err := Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	original := newScheduler(t)
	ps, err := NewPersistentScheduler(original, log)
	if err != nil {
		t.Fatal(err)
	}
	driveRuns(t, ps, 7)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	restored := newScheduler(t)
	if err := ReplayScheduler(path, restored); err != nil {
		t.Fatal(err)
	}
	if restored.CompletedRuns() != original.CompletedRuns() {
		t.Errorf("restored runs %d, original %d", restored.CompletedRuns(), original.CompletedRuns())
	}
	for _, id := range original.Workers() {
		qo, err := original.Quality("", id)
		if err != nil {
			t.Fatal(err)
		}
		qr, err := restored.Quality("", id)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(qo-qr) > 1e-12 {
			t.Errorf("worker %s: restored quality %v != original %v", id, qr, qo)
		}
	}
}

func TestReplayMidRunCrash(t *testing.T) {
	ctx := context.Background()
	// Crash after the auction closed but before the run finished: replay
	// must land in the same mid-run state and allow the run to complete.
	path := filepath.Join(t.TempDir(), "wal.log")
	log, err := Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := NewPersistentScheduler(newScheduler(t), log)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c"} {
		if err := ps.RegisterWorker(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if err := ps.OpenRun(ctx, "r1", "", []melody.Task{{ID: "t", Threshold: 10}}, 20); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c"} {
		if err := ps.SubmitBid(ctx, "r1", id, melody.Bid{Cost: 1.3, Frequency: 1}); err != nil {
			t.Fatal(err)
		}
	}
	out, err := ps.CloseAuction(ctx, "r1")
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil { // crash here
		t.Fatal(err)
	}

	restored := newScheduler(t)
	if err := ReplayScheduler(path, restored); err != nil {
		t.Fatal(err)
	}
	// The restored scheduler is mid-run: scores can be submitted and the
	// run finished.
	for _, a := range out.Assignments {
		if err := restored.SubmitScore(ctx, "r1", a.WorkerID, a.TaskID, 6.5); err != nil {
			t.Fatal(err)
		}
	}
	if err := restored.FinishRun(ctx, "r1"); err != nil {
		t.Fatal(err)
	}
	if restored.CompletedRuns() != 1 {
		t.Errorf("restored run counter = %d, want 1", restored.CompletedRuns())
	}
}

func TestRecorderDoesNotLogRejectedOps(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "wal.log")
	log, err := Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := NewPersistentScheduler(newScheduler(t), log)
	if err != nil {
		t.Fatal(err)
	}
	// Rejected: bid with no open run.
	if err := ps.SubmitBid(ctx, "r1", "ghost", melody.Bid{Cost: 1, Frequency: 1}); err == nil {
		t.Fatal("invalid bid accepted")
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Errorf("rejected operation was logged: %+v", events)
	}
}

func TestReplayNilPlatform(t *testing.T) {
	if err := ReplayScheduler("whatever", nil); err == nil {
		t.Error("nil scheduler accepted")
	}
	if err := ReplaySegments("whatever", nil); err == nil {
		t.Error("nil scheduler accepted by ReplaySegments")
	}
}
