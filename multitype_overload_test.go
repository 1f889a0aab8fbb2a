package melody_test

// Money conservation across concurrent multi-type runs under overload:
// each task type is a tenant of one RunScheduler (the paper's §3.1 runs
// the mechanism "for each individual type respectively"), every tenant
// settles on one funded ledger, and bid storms race the auction closes
// while invalid bids are refused and every season settles. Whatever the
// interleaving, the shared ledger must conserve money exactly and leave
// escrow empty — the invariant the HTTP-level overload scenarios
// (internal/loadgen) assert through the serving stack, checked here at
// the engine layer where the races are tightest. Run under -race.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"melody"
	"melody/internal/verify"
)

func TestMultiTypeConcurrentRunsConserveMoney(t *testing.T) {
	const (
		seasons    = 3
		workers    = 12
		goroutines = 8
		bidsPerG   = 40
		budget     = 150.0
	)
	types := []string{"labeling", "sensing", "transcribe"}

	money := melody.NewLedger()
	if _, err := money.Deposit(melody.RequesterAccount, budget*float64(len(types)*seasons), "campaign funding"); err != nil {
		t.Fatal(err)
	}
	sched, err := melody.NewRunScheduler(melody.SchedulerConfig{
		Auction: melody.AuctionConfig{QualityMin: 1, QualityMax: 10, CostMin: 1, CostMax: 2},
		NewEstimator: func(string) (melody.Estimator, error) {
			return melody.NewQualityTracker(melody.QualityTrackerConfig{
				InitialMean: 5.5, InitialVar: 2.25,
				Params:   melody.QualityParams{A: 1, Gamma: 0.3, Eta: 9},
				EMPeriod: 10, EMWindow: 50,
			})
		},
		Ledger: money,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ids := make([]string, workers)
	for i := range ids {
		ids[i] = fmt.Sprintf("w%02d", i)
		if err := sched.RegisterWorker(ctx, ids[i]); err != nil {
			t.Fatal(err)
		}
	}

	for season := 1; season <= seasons; season++ {
		runIDs := make(map[string]string, len(types))
		for _, taskType := range types {
			runIDs[taskType] = fmt.Sprintf("s%d-%s", season, taskType)
			tasks := make([]melody.Task, 2)
			for j := range tasks {
				tasks[j] = melody.Task{ID: fmt.Sprintf("s%d-%s-t%d", season, taskType, j), Threshold: 10}
			}
			if err := sched.OpenRun(ctx, runIDs[taskType], taskType, tasks, budget); err != nil {
				t.Fatal(err)
			}
		}

		// The storm: concurrent bidders across every type, a fraction of
		// them submitting disqualified costs (the engine-level analogue of
		// refused load), racing the closes that fire partway through. Every
		// bid must resolve to accepted or a clean refusal; nothing may
		// corrupt the shared ledger.
		var accepted, refused atomic.Int64
		var wg sync.WaitGroup
		closeReady := make(chan struct{})
		var once sync.Once
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < bidsPerG; i++ {
					if g == 0 && i == bidsPerG/2 {
						once.Do(func() { close(closeReady) })
					}
					taskType := types[(g+i)%len(types)]
					cost := 1.0 + 0.9*float64(i%10)/10
					if i%7 == 0 {
						cost = 5.0 // disqualified at auction time, accepted at ingest
					}
					err := sched.SubmitBid(ctx, runIDs[taskType], ids[(g*bidsPerG+i)%workers],
						melody.Bid{Cost: cost, Frequency: 1})
					switch {
					case err == nil:
						accepted.Add(1)
					case errors.Is(err, melody.ErrAuctionClosed),
						errors.Is(err, melody.ErrNoRunOpen):
						refused.Add(1)
					default:
						t.Errorf("season %d bid: %v", season, err)
					}
				}
			}(g)
		}
		// Close every type mid-storm, concurrently, so late bids race the
		// phase transitions.
		<-closeReady
		outcomes := make([]*melody.Outcome, len(types))
		closeErrs := make([]error, len(types))
		var closes sync.WaitGroup
		for k, taskType := range types {
			closes.Add(1)
			go func() {
				defer closes.Done()
				outcomes[k], closeErrs[k] = sched.CloseAuction(ctx, runIDs[taskType])
			}()
		}
		closes.Wait()
		for k, err := range closeErrs {
			if err != nil {
				t.Fatalf("season %d close %s: %v", season, types[k], err)
			}
		}
		wg.Wait()
		if got := accepted.Load() + refused.Load(); got != goroutines*bidsPerG {
			t.Errorf("season %d: %d bids accounted, want %d", season, got, goroutines*bidsPerG)
		}

		for k, out := range outcomes {
			runID := runIDs[types[k]]
			for _, a := range out.Assignments {
				if err := sched.SubmitScore(ctx, runID, a.WorkerID, a.TaskID, 6.5); err != nil {
					t.Fatalf("season %d score %s/%s: %v", season, runID, a.WorkerID, err)
				}
			}
			if err := sched.FinishRun(ctx, runID); err != nil {
				t.Fatalf("season %d finish %s: %v", season, runID, err)
			}
		}

		// The invariants hold between seasons too, not just at the end.
		if err := verify.CheckMoneyConservation(money); err != nil {
			t.Fatalf("season %d: %v", season, err)
		}
		if err := verify.CheckEscrowSettled(money); err != nil {
			t.Fatalf("season %d: %v", season, err)
		}
	}

	// Final books: conservation, settled escrow, and the requester spent no
	// more than the deposits (payments flowed to workers, the rest came
	// back).
	if err := verify.CheckMoneyConservation(money); err != nil {
		t.Error(err)
	}
	if err := verify.CheckEscrowSettled(money); err != nil {
		t.Error(err)
	}
	var workerTotal float64
	for _, ab := range money.Accounts() {
		if ab.Account != melody.RequesterAccount && string(ab.Account) != "escrow" {
			workerTotal += ab.Balance
		}
	}
	funding := budget * float64(len(types)*seasons)
	if requester := money.Balance(melody.RequesterAccount); requester+workerTotal > funding+1e-6 ||
		requester+workerTotal < funding-1e-6 {
		t.Errorf("requester %v + workers %v != funding %v", requester, workerTotal, funding)
	}
}
