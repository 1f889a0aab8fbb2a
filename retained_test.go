//go:build !race

package melody

// The race detector allocates shadow state of its own and slows the season
// tenfold, so the retained-bytes guard lives behind !race.

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"runtime"
	"testing"
)

// retainedPerRunMax bounds the live heap one finished lifecycle-shaped run
// adds. It sits between the 937 B measured while the journal kept 48-byte
// records and the 687 B measured with entries encoded in byte chunks.
const retainedPerRunMax = 800

// TestRetainedBytesPerRun runs a lifecycle-shaped season through the run
// scheduler with a ledger and epoch settlement every 8 runs: 2 tenants of
// 16 workers, one bid each per run at a cost drawn per run, 2 tasks of
// threshold 10, budget 40, every assignment scored. It measures the live
// heap per finished run between run 5,000 and run 15,000, where the
// estimators' windows are full and what grows is what each run leaves
// behind: its scheduler entry, its outcome and its journal records.
func TestRetainedBytesPerRun(t *testing.T) {
	ctx := context.Background()
	const tenants, workers, from, to = 2, 16, 5000, 15000
	money := NewLedger()
	if _, err := money.Deposit(RequesterAccount, 40*to, "season funding"); err != nil {
		t.Fatal(err)
	}
	s, err := NewRunScheduler(SchedulerConfig{
		Auction: AuctionConfig{QualityMin: 1, QualityMax: 10, CostMin: 1, CostMax: 2},
		NewEstimator: func(string) (Estimator, error) {
			return NewQualityTracker(QualityTrackerConfig{
				InitialMean: 5.5, InitialVar: 2.25,
				Params:   QualityParams{A: 1, Gamma: 0.3, Eta: 9},
				EMPeriod: 10, EMWindow: 60,
			})
		},
		Ledger:     money,
		EpochEvery: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	pools := make([][]string, tenants)
	for tn := range pools {
		for i := 0; i < workers; i++ {
			w := fmt.Sprintf("t%d-w%02d", tn, i)
			if err := s.RegisterWorker(ctx, w); err != nil {
				t.Fatal(err)
			}
			pools[tn] = append(pools[tn], w)
		}
	}
	rng := rand.New(rand.NewPCG(1, 2))
	run := func(n int) {
		tn := n % tenants
		id := fmt.Sprintf("t%d-r%06d", tn, n/tenants)
		tasks := []Task{{ID: id + "-k0", Threshold: 10}, {ID: id + "-k1", Threshold: 10}}
		if err := s.OpenRun(ctx, id, fmt.Sprintf("t%d", tn), tasks, 40); err != nil {
			t.Fatalf("open %s: %v", id, err)
		}
		bids := make([]WorkerBid, workers)
		for i, w := range pools[tn] {
			bids[i] = WorkerBid{WorkerID: w, Bid: Bid{Cost: 1 + rng.Float64(), Frequency: 1}}
		}
		if err := s.SubmitBids(ctx, id, bids).Err(); err != nil {
			t.Fatalf("bids %s: %v", id, err)
		}
		out, err := s.CloseAuction(ctx, id)
		if err != nil {
			t.Fatalf("close %s: %v", id, err)
		}
		scores := make([]TaskScore, len(out.Assignments))
		for i, a := range out.Assignments {
			scores[i] = TaskScore{WorkerID: a.WorkerID, TaskID: a.TaskID, Score: latentScore(id, a.WorkerID, a.TaskID)}
		}
		if err := s.SubmitScores(ctx, id, scores).Err(); err != nil {
			t.Fatalf("scores %s: %v", id, err)
		}
		if err := s.FinishRun(ctx, id); err != nil {
			t.Fatalf("finish %s: %v", id, err)
		}
	}
	n := 0
	for ; n < from; n++ {
		run(n)
	}
	before := liveHeap()
	for ; n < to; n++ {
		run(n)
	}
	perRun := float64(liveHeap()-before) / (to - from)
	t.Logf("live heap per finished run: %.0f B (bound %d B)", perRun, retainedPerRunMax)
	if perRun > retainedPerRunMax {
		t.Errorf("each finished run retains %.0f B, want at most %d B", perRun, retainedPerRunMax)
	}
	// The season must still be reachable when the second measurement runs.
	runtime.KeepAlive(s)
}

// latentScore scores an assignment as the worker's fixed latent quality in
// [4.5, 6.5] plus noise in [-2, 2], so the estimates settle and every run
// keeps about the same number of winners.
func latentScore(run, worker, task string) float64 {
	return 4.5 + 2*unitHash(worker) + 4*unitHash(run, worker, task) - 2
}

// unitHash maps strings to [0, 1).
func unitHash(parts ...string) float64 {
	h := fnv.New64a()
	for _, s := range parts {
		_, _ = h.Write([]byte(s))
		_, _ = h.Write([]byte{0})
	}
	return float64(h.Sum64()>>11) / (1 << 53)
}

// liveHeap returns the bytes of live heap objects after two collections,
// the second of which frees what the first's finalizers and sync.Pool
// victims released.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
