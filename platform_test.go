package melody

import (
	"context"
	"errors"
	"sync"
	"testing"
)

func testPlatform(t *testing.T) *Platform {
	t.Helper()
	tracker, err := NewQualityTracker(QualityTrackerConfig{
		InitialMean: 5.5, InitialVar: 2.25,
		Params:   QualityParams{A: 1, Gamma: 0.3, Eta: 9},
		EMPeriod: 10, EMWindow: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlatform(PlatformConfig{
		Auction:   AuctionConfig{QualityMin: 1, QualityMax: 10, CostMin: 1, CostMax: 2},
		Estimator: tracker,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPlatformValidation(t *testing.T) {
	if _, err := NewPlatform(PlatformConfig{}); err == nil {
		t.Error("nil estimator accepted")
	}
	if _, err := NewPlatform(PlatformConfig{Estimator: NewMLAllRunsEstimator(EstimatorConfig{Initial: 5})}); err == nil {
		t.Error("zero auction config accepted")
	}
}

func TestPlatformLifecycle(t *testing.T) {
	ctx := context.Background()
	p := testPlatform(t)
	for _, id := range []string{"alice", "bob", "carol", "dave", "erin"} {
		if err := p.RegisterWorker(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Workers(); len(got) != 5 || got[0] != "alice" {
		t.Fatalf("Workers() = %v", got)
	}

	tasks := []Task{{ID: "label-1", Threshold: 10}, {ID: "label-2", Threshold: 10}}
	if err := p.OpenRun(ctx, tasks, 100); err != nil {
		t.Fatal(err)
	}
	// Re-opening the same run spec is an idempotent replay; a different
	// spec while a run is open is still rejected.
	if err := p.OpenRun(ctx, tasks, 100); err != nil {
		t.Errorf("replayed open = %v, want nil", err)
	}
	if err := p.OpenRun(ctx, tasks, 200); !errors.Is(err, ErrRunOpen) {
		t.Errorf("conflicting open = %v, want ErrRunOpen", err)
	}
	if err := p.OpenRun(ctx, []Task{{ID: "other", Threshold: 5}}, 100); !errors.Is(err, ErrRunOpen) {
		t.Errorf("different open = %v, want ErrRunOpen", err)
	}

	bids := map[string]Bid{
		"alice": {Cost: 1.0, Frequency: 2},
		"bob":   {Cost: 1.2, Frequency: 2},
		"carol": {Cost: 1.5, Frequency: 2},
		"dave":  {Cost: 1.8, Frequency: 2},
	}
	for id, b := range bids {
		if err := p.SubmitBid(ctx, id, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.SubmitBid(ctx, "mallory", Bid{Cost: 1, Frequency: 1}); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("unknown worker bid = %v", err)
	}
	if err := p.SubmitScore(ctx, "alice", "label-1", 8); !errors.Is(err, ErrAuctionOpen) {
		t.Errorf("early score = %v, want ErrAuctionOpen", err)
	}

	out, err := p.CloseAuction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if out.Utility() == 0 {
		t.Fatal("no tasks satisfied in a generous run")
	}
	// A retried close replays the same outcome instead of failing.
	out2, err := p.CloseAuction(ctx)
	if err != nil {
		t.Errorf("replayed close = %v, want nil", err)
	}
	if out2 != out {
		t.Error("replayed close returned a different outcome")
	}
	// Replaying the bid already on record is a no-op; a changed bid after
	// the close is still rejected.
	if err := p.SubmitBid(ctx, "alice", bids["alice"]); err != nil {
		t.Errorf("replayed bid = %v, want nil", err)
	}
	if err := p.SubmitBid(ctx, "alice", Bid{Cost: 1.1, Frequency: 2}); !errors.Is(err, ErrAuctionClosed) {
		t.Errorf("changed late bid = %v, want ErrAuctionClosed", err)
	}
	if err := p.SubmitBid(ctx, "erin", Bid{Cost: 1, Frequency: 1}); !errors.Is(err, ErrAuctionClosed) {
		t.Errorf("fresh late bid = %v, want ErrAuctionClosed", err)
	}

	// Score every assignment.
	for _, a := range out.Assignments {
		if err := p.SubmitScore(ctx, a.WorkerID, a.TaskID, 7.5); err != nil {
			t.Fatal(err)
		}
		// A retried score with the same value is a no-op; a different value
		// for the consumed slot is rejected.
		if err := p.SubmitScore(ctx, a.WorkerID, a.TaskID, 7.5); err != nil {
			t.Errorf("replayed score = %v, want nil", err)
		}
		if err := p.SubmitScore(ctx, a.WorkerID, a.TaskID, 3.0); !errors.Is(err, ErrNotAssigned) {
			t.Errorf("conflicting score = %v, want ErrNotAssigned", err)
		}
	}
	if err := p.SubmitScore(ctx, "alice", "label-99", 5); !errors.Is(err, ErrNotAssigned) {
		t.Errorf("unassigned score = %v, want ErrNotAssigned", err)
	}

	if err := p.FinishRun(ctx); err != nil {
		t.Fatal(err)
	}
	if p.Run() != 1 {
		t.Errorf("Run() = %d, want 1", p.Run())
	}
	// A scored worker's estimate moved toward the score.
	winner := out.Assignments[0].WorkerID
	q, err := p.Quality(winner)
	if err != nil {
		t.Fatal(err)
	}
	if q <= 5.5 {
		t.Errorf("winner quality %v did not move toward the 7.5 scores", q)
	}
	if _, err := p.Quality("mallory"); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("unknown quality = %v", err)
	}
}

func TestPlatformOpenRunValidation(t *testing.T) {
	ctx := context.Background()
	p := testPlatform(t)
	if err := p.OpenRun(ctx, nil, 10); err == nil {
		t.Error("empty task set accepted")
	}
	if err := p.OpenRun(ctx, []Task{{ID: "", Threshold: 1}}, 10); err == nil {
		t.Error("empty task ID accepted")
	}
	if err := p.OpenRun(ctx, []Task{{ID: "t", Threshold: 0}}, 10); err == nil {
		t.Error("zero threshold accepted")
	}
	if err := p.OpenRun(ctx, []Task{{ID: "t", Threshold: 1}, {ID: "t", Threshold: 1}}, 10); err == nil {
		t.Error("duplicate task accepted")
	}
	if err := p.OpenRun(ctx, []Task{{ID: "t", Threshold: 1}}, -1); err == nil {
		t.Error("negative budget accepted")
	}
}

func TestPlatformBidValidation(t *testing.T) {
	ctx := context.Background()
	p := testPlatform(t)
	if err := p.SubmitBid(ctx, "w", Bid{Cost: 1, Frequency: 1}); !errors.Is(err, ErrNoRunOpen) {
		t.Errorf("bid without run = %v", err)
	}
	if err := p.RegisterWorker(ctx, "w"); err != nil {
		t.Fatal(err)
	}
	if err := p.OpenRun(ctx, []Task{{ID: "t", Threshold: 5}}, 10); err != nil {
		t.Fatal(err)
	}
	if err := p.SubmitBid(ctx, "w", Bid{Cost: 0, Frequency: 1}); err == nil {
		t.Error("zero cost accepted")
	}
	if err := p.SubmitBid(ctx, "w", Bid{Cost: 1, Frequency: 0}); err == nil {
		t.Error("zero frequency accepted")
	}
}

func TestPlatformMultipleRuns(t *testing.T) {
	ctx := context.Background()
	p := testPlatform(t)
	for _, id := range []string{"a", "b", "c"} {
		if err := p.RegisterWorker(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	for run := 0; run < 5; run++ {
		if err := p.OpenRun(ctx, []Task{{ID: "t", Threshold: 8}}, 50); err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"a", "b", "c"} {
			if err := p.SubmitBid(ctx, id, Bid{Cost: 1.2, Frequency: 1}); err != nil {
				t.Fatal(err)
			}
		}
		out, err := p.CloseAuction(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range out.Assignments {
			if err := p.SubmitScore(ctx, a.WorkerID, a.TaskID, 6); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.FinishRun(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if p.Run() != 5 {
		t.Errorf("Run() = %d, want 5", p.Run())
	}
}

func TestPlatformConcurrentBids(t *testing.T) {
	ctx := context.Background()
	p := testPlatform(t)
	const n = 32
	for i := 0; i < n; i++ {
		if err := p.RegisterWorker(ctx, workerID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.OpenRun(ctx, []Task{{ID: "t", Threshold: 40}}, 1000); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := p.SubmitBid(ctx, workerID(i), Bid{Cost: 1.5, Frequency: 1}); err != nil {
				t.Errorf("bid %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	out, err := p.CloseAuction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if out == nil {
		t.Fatal("nil outcome")
	}
	if err := p.FinishRun(ctx); err != nil {
		t.Fatal(err)
	}
}

func workerID(i int) string { return string(rune('A'+i%26)) + string(rune('a'+i/26)) }

func TestPlatformForecast(t *testing.T) {
	ctx := context.Background()
	p := testPlatform(t)
	if _, err := p.Forecast("ghost", 1); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("unknown worker forecast = %v", err)
	}
	if err := p.RegisterWorker(ctx, "w"); err != nil {
		t.Fatal(err)
	}
	f, err := p.Forecast("w", 2)
	if err != nil {
		t.Fatal(err)
	}
	if f.Steps != 2 || f.Var <= 0 {
		t.Errorf("forecast = %+v", f)
	}
	lo, hi, err := f.Interval(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if lo >= f.Mean || hi <= f.Mean {
		t.Errorf("interval [%v, %v] does not bracket %v", lo, hi, f.Mean)
	}
}

func TestPlatformForecastUnsupported(t *testing.T) {
	ctx := context.Background()
	p, err := NewPlatform(PlatformConfig{
		Auction:   AuctionConfig{QualityMin: 1, QualityMax: 10, CostMin: 1, CostMax: 2},
		Estimator: NewMLAllRunsEstimator(EstimatorConfig{Initial: 5.5}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RegisterWorker(ctx, "w"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Forecast("w", 1); !errors.Is(err, ErrNoForecast) {
		t.Errorf("baseline forecast = %v, want ErrNoForecast", err)
	}
}

func TestPlatformFinishWithoutClose(t *testing.T) {
	ctx := context.Background()
	p := testPlatform(t)
	if err := p.FinishRun(ctx); !errors.Is(err, ErrNoRunOpen) {
		t.Errorf("finish without run = %v", err)
	}
	if err := p.RegisterWorker(ctx, "w"); err != nil {
		t.Fatal(err)
	}
	if err := p.OpenRun(ctx, []Task{{ID: "t", Threshold: 5}}, 10); err != nil {
		t.Fatal(err)
	}
	if err := p.FinishRun(ctx); !errors.Is(err, ErrAuctionOpen) {
		t.Errorf("finish before close = %v", err)
	}
}

// TestPlatformContextCancellation: a cancelled context rejects mutations up
// front, and batch submissions reject every item without applying any.
func TestPlatformContextCancellation(t *testing.T) {
	p := testPlatform(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.RegisterWorker(ctx, "alice"); !errors.Is(err, context.Canceled) {
		t.Fatalf("RegisterWorker with cancelled ctx = %v, want context.Canceled", err)
	}
	if got := p.Workers(); len(got) != 0 {
		t.Fatalf("cancelled RegisterWorker still registered: %v", got)
	}

	live := context.Background()
	if err := p.RegisterWorker(live, "alice"); err != nil {
		t.Fatal(err)
	}
	if err := p.OpenRun(live, []Task{{ID: "t1", Threshold: 10}}, 50); err != nil {
		t.Fatal(err)
	}
	res := p.SubmitBids(ctx, []WorkerBid{{WorkerID: "alice", Bid: Bid{Cost: 1.2, Frequency: 1}}})
	if res.OK() || res.FailedCount() != 1 {
		t.Fatalf("cancelled batch: OK=%v failed=%d, want all rejected", res.OK(), res.FailedCount())
	}
	if !errors.Is(res.ErrAt(0), context.Canceled) {
		t.Fatalf("cancelled batch item error = %v, want context.Canceled", res.ErrAt(0))
	}
	// The rejected bid must not have been applied: the auction closes empty.
	if _, err := p.CloseAuction(live); err != nil {
		t.Fatal(err)
	}
}
