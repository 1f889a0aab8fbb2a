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
	"strconv"
	"testing"
)

// retainedPerRunMax bounds the live heap one finished lifecycle-shaped run
// adds. It sits between the 696 B measured while the scheduler kept each
// finished run's schedRun and outcome and the 297 B measured with finished
// runs folded into archive records.
const retainedPerRunMax = 450

// retainedPerAuctionRunMax bounds the live heap one finished auction-shaped
// run adds. It sits between the 21.0 KB measured while the scheduler kept
// each finished run's schedRun and outcome and the 10.3 KB measured with
// archive records. Most of the rest is the ledger journal: about 200
// payments a run and, every 8 runs, one payout per paid worker.
const retainedPerAuctionRunMax = 14000

// retainedPerPairMax bounds the live heap one (tenant, worker) pair holds
// on the auction shape once the estimator windows are full. It sits
// between the 1,102 B measured while each tenant platform mirrored its
// auction kernel's bidders and EM windows counted runs in int32 rings,
// and the 720 B measured with the kernel as the only bidder table and
// byte counts.
const retainedPerPairMax = 900

// TestRetainedBytesPerRun runs a lifecycle-shaped season through the run
// scheduler with a ledger and epoch settlement every 8 runs: 2 tenants of
// 16 workers, one bid each per run at a cost drawn per run, 2 tasks of
// threshold 10, budget 40, every assignment scored. It measures the live
// heap per finished run between run 5,000 and run 15,000, where the
// estimators' windows are full and what grows is what each run leaves
// behind: its archive record and its journal entries.
func TestRetainedBytesPerRun(t *testing.T) {
	perRun := retainedPerRun(t, retainedSeason{workers: 16, tasks: 2, budget: 40, from: 5000, to: 15000})
	t.Logf("live heap per finished run: %.0f B (bound %d B)", perRun, retainedPerRunMax)
	if perRun > retainedPerRunMax {
		t.Errorf("each finished run retains %.0f B, want at most %d B", perRun, retainedPerRunMax)
	}
}

// TestRetainedBytesPerAuctionRun is TestRetainedBytesPerRun on the
// auction_wal benchmark's shape: 2 tenants sharing 2,000 workers, 100 tasks
// of threshold 10 and budget 2,000, so about 200 winners a run. It measures
// runs 150 to 450, after both tenants' estimator windows have filled.
func TestRetainedBytesPerAuctionRun(t *testing.T) {
	perRun := retainedPerRun(t, retainedSeason{workers: 2000, shared: true, tasks: 100, budget: 2000, from: 150, to: 450})
	t.Logf("live heap per finished run: %.0f B (bound %d B)", perRun, retainedPerAuctionRunMax)
	if perRun > retainedPerAuctionRunMax {
		t.Errorf("each finished run retains %.0f B, want at most %d B", perRun, retainedPerAuctionRunMax)
	}
}

// TestRetainedBytesPerTrackedWorker measures the live heap per (tenant,
// worker) pair on the auction_wal benchmark's shape: 2 tenants sharing a
// pool, 100 tasks of threshold 10 and budget 2,000. After 130 runs, 65
// finishes per tenant, every worker's EM window of 60 runs is full, and
// the slope of the season's retained heap between a 1,000- and a
// 2,000-worker pool is what each pair costs: its auction kernel entry and
// ranking slots, its estimator state and its share of the registry. The
// runs' own records cancel, as both pools win about the same tasks.
func TestRetainedBytesPerTrackedWorker(t *testing.T) {
	const runs = 130
	held := func(workers int) float64 {
		base, _, end := seasonHeap(t, retainedSeason{workers: workers, shared: true, tasks: 100, budget: 2000, from: runs, to: runs})
		return float64(end) - float64(base)
	}
	small, large := held(1000), held(2000)
	perPair := (large - small) / (2 * 1000)
	t.Logf("live heap per (tenant, worker) pair: %.0f B (bound %d B; seasons hold %.2f and %.2f MB)",
		perPair, retainedPerPairMax, small/1e6, large/1e6)
	if perPair > retainedPerPairMax {
		t.Errorf("each (tenant, worker) pair retains %.0f B, want at most %d B", perPair, retainedPerPairMax)
	}
}

// retainedSeason is the shape of a retained-heap season: workers per
// tenant, or one pool both tenants share, and each run's tasks and budget.
// Runs from to to are measured.
type retainedSeason struct {
	workers  int
	shared   bool
	tasks    int
	budget   float64
	from, to int
}

// retainedPerRun returns the live heap per run finished between runs from
// and to of season.
func retainedPerRun(t *testing.T, season retainedSeason) float64 {
	_, from, to := seasonHeap(t, season)
	return float64(to-from) / float64(season.to-season.from)
}

// seasonHeap runs a season of 2 tenants through the run scheduler with a
// ledger and epoch settlement every 8 runs: every worker of the tenant's
// pool bids once per run at a cost drawn per run, every task has threshold
// 10 and every assignment is scored. It returns the live heap before the
// season's scheduler is built, after run from and after run to.
func seasonHeap(t *testing.T, season retainedSeason) (base, from, to uint64) {
	base = liveHeap()
	ctx := context.Background()
	const tenants = 2
	money := NewLedger()
	if _, err := money.Deposit(RequesterAccount, season.budget*float64(season.to), "season funding"); err != nil {
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
		if season.shared && tn > 0 {
			pools[tn] = pools[0]
			continue
		}
		for i := 0; i < season.workers; i++ {
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
		tasks := make([]Task, season.tasks)
		for k := range tasks {
			tasks[k] = Task{ID: id + "-k" + strconv.Itoa(k), Threshold: 10}
		}
		if err := s.OpenRun(ctx, id, fmt.Sprintf("t%d", tn), tasks, season.budget); err != nil {
			t.Fatalf("open %s: %v", id, err)
		}
		bids := make([]WorkerBid, len(pools[tn]))
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
	for ; n < season.from; n++ {
		run(n)
	}
	from = liveHeap()
	for ; n < season.to; n++ {
		run(n)
	}
	to = liveHeap()
	t.Logf("the archive holds %d runs in %d chunk bytes, %.0f B each", s.archive.n, s.archive.Size,
		float64(s.archive.Size)/float64(s.archive.n))
	// The season must still be reachable when the last measurement runs.
	runtime.KeepAlive(s)
	return base, from, to
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
