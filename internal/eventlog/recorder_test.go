package eventlog

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"melody"
)

func newPlatform(t *testing.T) *melody.Platform {
	t.Helper()
	tracker, err := melody.NewQualityTracker(melody.QualityTrackerConfig{
		InitialMean: 5.5, InitialVar: 2.25,
		Params:   melody.QualityParams{A: 1, Gamma: 0.3, Eta: 4},
		EMPeriod: 5, EMWindow: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := melody.NewPlatform(melody.PlatformConfig{
		Auction:   melody.AuctionConfig{QualityMin: 1, QualityMax: 10, CostMin: 1, CostMax: 2},
		Estimator: tracker,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPersistentPlatformValidation(t *testing.T) {
	if _, err := NewPersistentPlatform(nil, nil); err == nil {
		t.Error("nil inputs accepted")
	}
}

// driveRuns runs a deterministic workload through a persistent platform.
func driveRuns(t *testing.T, rec *PersistentPlatform, runs int) {
	ctx := context.Background()
	t.Helper()
	workers := []string{"ada", "bob", "cyd", "dee"}
	for _, id := range workers {
		if err := rec.RegisterWorker(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	latent := map[string]float64{"ada": 8, "bob": 6, "cyd": 7, "dee": 4}
	for run := 1; run <= runs; run++ {
		tasks := []melody.Task{
			{ID: fmt.Sprintf("r%d-a", run), Threshold: 11},
			{ID: fmt.Sprintf("r%d-b", run), Threshold: 11},
		}
		if err := rec.OpenRun(ctx, tasks, 30); err != nil {
			t.Fatal(err)
		}
		for i, id := range workers {
			bid := melody.Bid{Cost: 1.0 + 0.2*float64(i), Frequency: 2}
			if err := rec.SubmitBid(ctx, id, bid); err != nil {
				t.Fatal(err)
			}
		}
		out, err := rec.CloseAuction(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range out.Assignments {
			// Deterministic "scores" derived from latent quality and run.
			score := latent[a.WorkerID] + 0.1*float64(run%3)
			if err := rec.SubmitScore(ctx, a.WorkerID, a.TaskID, score); err != nil {
				t.Fatal(err)
			}
		}
		if err := rec.FinishRun(ctx); err != nil {
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
	original := newPlatform(t)
	rec, err := NewPersistentPlatform(original, log)
	if err != nil {
		t.Fatal(err)
	}
	driveRuns(t, rec, 7)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	restored := newPlatform(t)
	if err := Replay(path, restored); err != nil {
		t.Fatal(err)
	}
	if restored.Run() != original.Run() {
		t.Errorf("restored runs %d, original %d", restored.Run(), original.Run())
	}
	for _, id := range original.Workers() {
		qo, err := original.Quality(id)
		if err != nil {
			t.Fatal(err)
		}
		qr, err := restored.Quality(id)
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
	rec, err := NewPersistentPlatform(newPlatform(t), log)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c"} {
		if err := rec.RegisterWorker(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.OpenRun(ctx, []melody.Task{{ID: "t", Threshold: 10}}, 20); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c"} {
		if err := rec.SubmitBid(ctx, id, melody.Bid{Cost: 1.3, Frequency: 1}); err != nil {
			t.Fatal(err)
		}
	}
	out, err := rec.CloseAuction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil { // crash here
		t.Fatal(err)
	}

	restored := newPlatform(t)
	if err := Replay(path, restored); err != nil {
		t.Fatal(err)
	}
	// The restored platform is mid-run: scores can be submitted and the
	// run finished.
	for _, a := range out.Assignments {
		if err := restored.SubmitScore(ctx, a.WorkerID, a.TaskID, 6.5); err != nil {
			t.Fatal(err)
		}
	}
	if err := restored.FinishRun(ctx); err != nil {
		t.Fatal(err)
	}
	if restored.Run() != 1 {
		t.Errorf("restored run counter = %d, want 1", restored.Run())
	}
}

func TestRecorderDoesNotLogRejectedOps(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "wal.log")
	log, err := Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewPersistentPlatform(newPlatform(t), log)
	if err != nil {
		t.Fatal(err)
	}
	// Rejected: bid with no open run.
	if err := rec.SubmitBid(ctx, "ghost", melody.Bid{Cost: 1, Frequency: 1}); err == nil {
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
	if err := Replay("whatever", nil); err == nil {
		t.Error("nil platform accepted")
	}
}
