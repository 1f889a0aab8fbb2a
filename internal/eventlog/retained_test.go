//go:build !race

package eventlog

// The race detector allocates shadow state of its own and slows the season
// tenfold, so the retained-bytes guards live behind !race.

import (
	"bufio"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"melody"
	"melody/internal/obs"
)

// retainedPerDurableRunMax bounds the live heap one finished
// lifecycle-shaped run adds to a scheduler behind a write-ahead log. Its
// closed ledger-journal and run-archive chunks spill to the scratch file
// beside the WAL, so what stays is the archive's index of 8-byte slots,
// whose table doubles twice between runs 5,000 and 15,000, from 8,192 to
// 32,768 slots. It reads 20 B, against 41–45 B while the index was a Go
// map and 290 B while every chunk stayed in the heap.
const retainedPerDurableRunMax = 32

// retainedPerDurableAuctionRunMax bounds the live heap one finished
// auction-shaped run adds behind a write-ahead log. It sits between the
// 9.2 KB measured while every chunk stayed in the heap and the 0.4 KB
// measured with closed chunks spilled.
const retainedPerDurableAuctionRunMax = 2000

// TestRetainedBytesPerDurableRun is the root package's
// TestRetainedBytesPerRun through OpenPersistentScheduler: 2 tenants of 16
// workers, one bid each per run, 2 tasks of threshold 10, budget 40, every
// assignment scored, a ledger with epoch settlement every 8 runs. It
// measures the live heap per finished run between runs 5,000 and 15,000
// and logs the process's resident set at both ends.
func TestRetainedBytesPerDurableRun(t *testing.T) {
	perRun := retainedPerDurableRun(t, durableSeason{workers: 16, tasks: 2, budget: 40, from: 5000, to: 15000})
	t.Logf("live heap per finished run: %.0f B (bound %d B)", perRun, retainedPerDurableRunMax)
	if perRun > retainedPerDurableRunMax {
		t.Errorf("each finished run retains %.0f B, want at most %d B", perRun, retainedPerDurableRunMax)
	}
}

// TestRetainedBytesPerDurableAuctionRun is TestRetainedBytesPerDurableRun
// on the auction_wal benchmark's shape: 2 tenants sharing 2,000 workers,
// 100 tasks of threshold 10 and budget 2,000, runs 150 to 450.
func TestRetainedBytesPerDurableAuctionRun(t *testing.T) {
	perRun := retainedPerDurableRun(t, durableSeason{workers: 2000, shared: true, tasks: 100, budget: 2000, from: 150, to: 450})
	t.Logf("live heap per finished run: %.0f B (bound %d B)", perRun, retainedPerDurableAuctionRunMax)
	if perRun > retainedPerDurableAuctionRunMax {
		t.Errorf("each finished run retains %.0f B, want at most %d B", perRun, retainedPerDurableAuctionRunMax)
	}
}

// durableSeason is the shape of a retained-heap season: workers per
// tenant, or one pool both tenants share, and each run's tasks and budget.
// Runs from to to are measured.
type durableSeason struct {
	workers  int
	shared   bool
	tasks    int
	budget   float64
	from, to int
}

// retainedPerDurableRun runs a season of 2 tenants through a scheduler
// opened on a new WAL and returns the live heap per run finished between
// runs from and to.
func retainedPerDurableRun(t *testing.T, season durableSeason) float64 {
	ctx := context.Background()
	const tenants = 2
	reg := obs.NewRegistry()
	money := melody.NewLedger()
	if _, err := money.Deposit(melody.RequesterAccount, season.budget*float64(season.to), "season funding"); err != nil {
		t.Fatal(err)
	}
	s, err := melody.NewRunScheduler(melody.SchedulerConfig{
		Auction: melody.AuctionConfig{QualityMin: 1, QualityMax: 10, CostMin: 1, CostMax: 2},
		NewEstimator: func(string) (melody.Estimator, error) {
			return melody.NewQualityTracker(melody.QualityTrackerConfig{
				InitialMean: 5.5, InitialVar: 2.25,
				Params:   melody.QualityParams{A: 1, Gamma: 0.3, Eta: 9},
				EMPeriod: 10, EMWindow: 60,
			})
		},
		Ledger:     money,
		EpochEvery: 8,
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "season.wal")
	ps, log, err := OpenPersistentScheduler(path, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	pools := make([][]string, tenants)
	for tn := range pools {
		if season.shared && tn > 0 {
			pools[tn] = pools[0]
			continue
		}
		for i := 0; i < season.workers; i++ {
			w := fmt.Sprintf("t%d-w%02d", tn, i)
			if err := ps.RegisterWorker(ctx, w); err != nil {
				t.Fatal(err)
			}
			pools[tn] = append(pools[tn], w)
		}
	}
	rng := rand.New(rand.NewPCG(1, 2))
	run := func(n int) {
		tn := n % tenants
		id := fmt.Sprintf("t%d-r%06d", tn, n/tenants)
		tasks := make([]melody.Task, season.tasks)
		for k := range tasks {
			tasks[k] = melody.Task{ID: id + "-k" + strconv.Itoa(k), Threshold: 10}
		}
		if err := ps.OpenRun(ctx, id, fmt.Sprintf("t%d", tn), tasks, season.budget); err != nil {
			t.Fatalf("open %s: %v", id, err)
		}
		bids := make([]melody.WorkerBid, len(pools[tn]))
		for i, w := range pools[tn] {
			bids[i] = melody.WorkerBid{WorkerID: w, Bid: melody.Bid{Cost: 1 + rng.Float64(), Frequency: 1}}
		}
		if err := ps.SubmitBids(ctx, id, bids).Err(); err != nil {
			t.Fatalf("bids %s: %v", id, err)
		}
		out, err := ps.CloseAuction(ctx, id)
		if err != nil {
			t.Fatalf("close %s: %v", id, err)
		}
		scores := make([]melody.TaskScore, len(out.Assignments))
		for i, a := range out.Assignments {
			scores[i] = melody.TaskScore{WorkerID: a.WorkerID, TaskID: a.TaskID, Score: latentScore(id, a.WorkerID, a.TaskID)}
		}
		if err := ps.SubmitScores(ctx, id, scores).Err(); err != nil {
			t.Fatalf("scores %s: %v", id, err)
		}
		if err := ps.FinishRun(ctx, id); err != nil {
			t.Fatalf("finish %s: %v", id, err)
		}
	}
	n := 0
	for ; n < season.from; n++ {
		run(n)
	}
	before, rssBefore := liveHeap(), residentKB()
	for ; n < season.to; n++ {
		run(n)
	}
	after, rssAfter := liveHeap(), residentKB()
	t.Logf("live heap %.2f → %.2f MB; VmRSS after FreeOSMemory %d → %d kB (+%d kB) over runs %d–%d",
		float64(before)/1e6, float64(after)/1e6, rssBefore, rssAfter, rssAfter-rssBefore, season.from, season.to)
	// The WAL's last few KB are still buffered.
	if fi, err := os.Stat(path); err == nil {
		t.Logf("on disk per run: %.0f B spilled, %.0f B of WAL",
			reg.Gauge(obs.MetricSpillBytes, "").Value()/float64(season.to), float64(fi.Size())/float64(season.to))
	}
	// The season must still be reachable when the second measurement runs.
	runtime.KeepAlive(ps)
	return float64(after-before) / float64(season.to-season.from)
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

// residentKB returns the process's resident set in kB after returning
// freed memory to the operating system, or 0 where /proc is not there.
func residentKB() int64 {
	debug.FreeOSMemory()
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			var kb int64
			fmt.Sscan(rest, &kb)
			return kb
		}
	}
	return 0
}
