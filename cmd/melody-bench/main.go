// Command melody-bench is the repository's bench-regression harness: it runs
// the kernel benchmarks (allocator, inference, estimator, WAL append) through
// testing.Benchmark — plus the serve/ kernels, which drive the HTTP serving
// path through internal/loadgen — and writes a BENCH_<n>.json snapshot so the
// performance trajectory of the hot paths is tracked across PRs.
//
// Usage:
//
//	melody-bench                     # run all kernels, write BENCH_<next>.json
//	melody-bench -out BENCH_2.json   # explicit snapshot name
//	melody-bench -baseline BENCH_1.json
//	                                 # embed a prior snapshot and print speedups
//	melody-bench -filter alloc/      # run a subset
//	melody-bench -list               # list kernel names
//
// Snapshots are plain JSON (see Snapshot below); compare any two with the
// -baseline flag or a JSON diff.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"melody"
	"melody/internal/core"
	"melody/internal/eventlog"
	"melody/internal/experiments"
	"melody/internal/lds"
	"melody/internal/loadgen"
	"melody/internal/obs"
	"melody/internal/platform"
	"melody/internal/quality"
	"melody/internal/stats"
)

// Entry is one kernel's measurement.
type Entry struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Metrics carries kernel-specific measurements beyond the testing.B
	// trio; the serve/ kernels report sustained throughput and latency
	// percentiles here (bids_per_sec, latency_p50_ms, p95, p99, max).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Snapshot is the on-disk BENCH_<n>.json format.
type Snapshot struct {
	Schema     int     `json:"schema"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Note       string  `json:"note,omitempty"`
	Entries    []Entry `json:"entries"`
	// Baseline embeds the prior snapshot's entries when -baseline is given,
	// so a committed snapshot is self-contained before/after evidence.
	Baseline     []Entry `json:"baseline,omitempty"`
	BaselineNote string  `json:"baseline_note,omitempty"`
}

// kernel is one named benchmark: either a testing.Benchmark function or a
// direct kernel that produces its Entry itself (the serve/ load kernels,
// which manage their own server lifecycle and wall-clock accounting).
type kernel struct {
	name   string
	fn     func(b *testing.B)
	direct func() (Entry, error)
}

func benchInstance(n, m int, budget float64) core.Instance {
	r := stats.NewRNG(9)
	return experiments.PaperSRA().Instance(r, n, m, budget)
}

func melodyKernel(n, m int, budget float64) func(b *testing.B) {
	return func(b *testing.B) {
		in := benchInstance(n, m, budget)
		mech, err := core.NewMelody(experiments.PaperSRA().AuctionConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := mech.Run(in); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func randomKernel(n, m int, budget float64) func(b *testing.B) {
	return func(b *testing.B) {
		in := benchInstance(n, m, budget)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mech, err := core.NewRandom(experiments.PaperSRA().AuctionConfig(), stats.NewRNG(int64(i)))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := mech.Run(in); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// churnWorker derives a deterministic variant of a worker for the churn
// kernels: cost and quality are remapped inside the Table-3 supports (so the
// worker stays qualified) as a function of its index and the cycle phase,
// which reshuffles its position in the quality-per-cost ranking every apply.
func churnWorker(w core.Worker, i, phase int) core.Worker {
	frac := func(x float64) float64 { return x - math.Floor(x) }
	w.Bid.Cost = 1 + frac(float64(i)*0.6180339887+float64(phase)*0.37)
	w.Quality = 2 + 1.99*frac(float64(i)*0.7548776662+float64(phase)*0.53)
	return w
}

// churnDelta builds the phase's registry delta over the first
// churnPct percent of the instance's workers.
func churnDelta(workers []core.Worker, churnPct, phase int) core.WorkerDelta {
	c := len(workers) * churnPct / 100
	ups := make([]core.Worker, c)
	for i := 0; i < c; i++ {
		ups[i] = churnWorker(workers[i], i, phase)
	}
	return core.WorkerDelta{Upserts: ups}
}

// melodyIncKernel measures the steady-state cost of one long-term run on the
// incremental AuctionState: apply a churnPct% registry delta (alternating
// between two value phases so every apply genuinely re-ranks workers), then
// run the auction from the repaired cache. churnPct 0 pins the pure
// cached-run cost with no delta at all.
func melodyIncKernel(n, m int, budget float64, churnPct int) func(b *testing.B) {
	return func(b *testing.B) {
		in := benchInstance(n, m, budget)
		st, err := core.NewAuctionState(experiments.PaperSRA().AuctionConfig(),
			core.AuctionStateOptions{ReuseOutcome: true})
		if err != nil {
			b.Fatal(err)
		}
		if err := st.Apply(core.WorkerDelta{Upserts: in.Workers}); err != nil {
			b.Fatal(err)
		}
		deltas := [2]core.WorkerDelta{
			churnDelta(in.Workers, churnPct, 0),
			churnDelta(in.Workers, churnPct, 1),
		}
		// Warm one full cycle so the registry reaches its periodic regime and
		// every arena is sized before the timer starts.
		for k := 0; k < 2; k++ {
			if err := st.Apply(deltas[k]); err != nil {
				b.Fatal(err)
			}
			if _, err := st.RunMelody(in.Tasks, in.Budget); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := st.Apply(deltas[i%2]); err != nil {
				b.Fatal(err)
			}
			if _, err := st.RunMelody(in.Tasks, in.Budget); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// melodyScratchKernel is melodyIncKernel's from-scratch twin: the identical
// alternating registry states, each run executed by the stateless mechanism
// on a prebuilt instance. The inc/scratch ratio is the incremental cache's
// speedup on a churnPct% delta.
func melodyScratchKernel(n, m int, budget float64, churnPct int) func(b *testing.B) {
	return func(b *testing.B) {
		in := benchInstance(n, m, budget)
		mech, err := core.NewMelody(experiments.PaperSRA().AuctionConfig())
		if err != nil {
			b.Fatal(err)
		}
		var phases [2]core.Instance
		for k := range phases {
			workers := make([]core.Worker, len(in.Workers))
			copy(workers, in.Workers)
			// churnDelta upserts exactly the first c workers, in order.
			c := len(workers) * churnPct / 100
			for i := 0; i < c; i++ {
				workers[i] = churnWorker(workers[i], i, k)
			}
			phases[k] = core.Instance{Workers: workers, Tasks: in.Tasks, Budget: in.Budget}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := mech.Run(phases[i%2]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func optUBKernel(n, m int, budget float64) func(b *testing.B) {
	return func(b *testing.B) {
		in := benchInstance(n, m, budget)
		mech, err := core.NewOptUB(experiments.PaperSRA().AuctionConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := mech.Run(in); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func kalmanKernel(b *testing.B) {
	p := lds.Params{A: 1, Gamma: 0.3, Eta: 9}
	st := lds.State{Mean: 5.5, Var: 2.25}
	scores := []float64{6.0, 5.1, 7.2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next, err := lds.Update(p, st, scores)
		if err != nil {
			b.Fatal(err)
		}
		st = next
		if st.Var < 1e-9 {
			st = lds.State{Mean: 5.5, Var: 2.25}
		}
	}
}

func smootherKernel(b *testing.B) {
	r := stats.NewRNG(4)
	history := make([][]float64, 100)
	for t := range history {
		history[t] = []float64{r.Normal(5, 2), r.Normal(5, 2)}
	}
	p := lds.Params{A: 1, Gamma: 0.3, Eta: 9}
	init := lds.State{Mean: 5.5, Var: 2.25}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lds.Smooth(p, init, history); err != nil {
			b.Fatal(err)
		}
	}
}

func emKernel(b *testing.B) {
	r := stats.NewRNG(5)
	history := make([][]float64, 60)
	for t := range history {
		history[t] = []float64{r.Normal(5, 2)}
	}
	start := lds.Params{A: 1, Gamma: 0.3, Eta: 9}
	init := lds.State{Mean: 5.5, Var: 2.25}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lds.EM(start, init, history, lds.EMConfig{MaxIter: 12, Tol: 1e-300}); err != nil {
			b.Fatal(err)
		}
	}
}

// emLanesKernel measures one finish's worth of due re-estimations through
// the lane kernel: 16 windows of 60 runs, one score per run as in emKernel,
// run four at a time by lds.Workspace.EMLanes for 50 iterations each. One
// op is all 16 windows.
func emLanesKernel(b *testing.B) {
	r := stats.NewRNG(5)
	windows := make([][][]float64, 16)
	for w := range windows {
		windows[w] = make([][]float64, 60)
		for t := range windows[w] {
			windows[w][t] = []float64{r.Normal(5, 2)}
		}
	}
	start := lds.Params{A: 1, Gamma: 0.3, Eta: 9}
	init := lds.State{Mean: 5.5, Var: 2.25}
	cfg := lds.EMConfig{MaxIter: 50, Tol: 1e-300}
	var ws lds.Workspace
	lanes := make([]lds.EMLane, lds.Lanes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for g := 0; g < len(windows); g += lds.Lanes {
			for j := range lanes {
				lanes[j] = lds.EMLane{Start: start, Init: init, History: windows[g+j]}
			}
			ws.EMLanes(lanes, cfg)
			for j := range lanes {
				if lanes[j].Err != nil {
					b.Fatal(lanes[j].Err)
				}
			}
		}
	}
}

// observeKernel measures the estimator's steady-state per-run cost with the
// paper's EM period and window: every iteration is one Observe, every 10th
// carries an EM re-estimation over the 60-run window.
func observeKernel(b *testing.B) {
	est, err := quality.NewMelody(quality.MelodyConfig{
		Init:     lds.State{Mean: 5.5, Var: 2.25},
		Params:   lds.Params{A: 1, Gamma: 0.3, Eta: 9},
		EMPeriod: 10,
		EMWindow: 60,
		EM:       lds.EMConfig{MaxIter: 12},
	})
	if err != nil {
		b.Fatal(err)
	}
	r := stats.NewRNG(6)
	pool := make([][]float64, 97)
	for i := range pool {
		pool[i] = []float64{r.Normal(5, 2), r.Normal(5, 2), r.Normal(5, 2)}
	}
	// Warm past the window so every benchmarked Observe runs at capacity.
	for i := 0; i < 80; i++ {
		if err := est.Observe("w", pool[i%len(pool)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := est.Observe("w", pool[i%len(pool)]); err != nil {
			b.Fatal(err)
		}
	}
}

// obsPrimitivesKernel measures the per-event cost of the metric primitives
// themselves: one counter Inc plus one histogram Observe per iteration. The
// noop variant exercises the nil-handle path every uninstrumented caller
// takes, pinning the "disabled observability is free" contract.
func obsPrimitivesKernel(instrumented bool) func(b *testing.B) {
	return func(b *testing.B) {
		var (
			c *obs.Counter
			h *obs.Histogram
		)
		if instrumented {
			reg := obs.NewRegistry()
			c = reg.Counter("melody_bench_events_total", "Bench events.")
			h = reg.Histogram("melody_bench_seconds", "Bench latencies.", obs.TimeBuckets())
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Inc()
			h.Observe(0.001)
		}
	}
}

// obsCounterParallelKernel hammers one sharded counter from every proc, the
// contention profile of the serving path's request counters.
func obsCounterParallelKernel(b *testing.B) {
	reg := obs.NewRegistry()
	c := reg.Counter("melody_bench_parallel_total", "Bench events.")
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

// walAppendKernel measures concurrent durable appends against a real file:
// 32 goroutines per proc hammer Log.Append, which the group-commit pipeline
// coalesces into shared fsyncs. observed adds the obs registry + span ring,
// for the instrumented-vs-noop guard.
func walAppendKernel(observed bool) func(b *testing.B) {
	return func(b *testing.B) {
		dir, err := os.MkdirTemp("", "melody-bench-wal-*")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		opts := eventlog.Options{SyncEveryAppend: true}
		if observed {
			reg := obs.NewRegistry()
			obs.RegisterBaseline(reg)
			opts.Metrics = reg
			opts.Tracer = obs.NewTracer(1024)
		}
		log, err := eventlog.OpenOptions(filepath.Join(dir, "bench.wal"), opts)
		if err != nil {
			b.Fatal(err)
		}
		defer log.Close()
		b.SetParallelism(32)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			ev := eventlog.Event{Kind: eventlog.KindBids, Run: "r1", Bids: []eventlog.BidRecord{{Worker: "bench", Cost: 1.5, Frequency: 1}}}
			for pb.Next() {
				if _, err := log.Append(ev); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// recoveryScheduler builds the fresh one-tenant scheduler the recovery
// kernels recover into; the configuration matches the segmented-engine
// test workload.
func recoveryScheduler() (*melody.RunScheduler, error) {
	return melody.NewRunScheduler(melody.SchedulerConfig{
		Auction: melody.AuctionConfig{QualityMin: 1, QualityMax: 10, CostMin: 1, CostMax: 2},
		NewEstimator: func(string) (melody.Estimator, error) {
			return melody.NewQualityTracker(melody.QualityTrackerConfig{
				InitialMean: 5.5, InitialVar: 2.25,
				Params:   melody.QualityParams{A: 1, Gamma: 0.3, Eta: 4},
				EMPeriod: 5, EMWindow: 40,
			})
		},
	})
}

// buildRecoveryDir populates a segmented storage directory with the history
// of `runs` deterministic crowdsourcing runs (about ten records each), so
// the recovery kernels time OpenSegmentedScheduler against a realistic log.
func buildRecoveryDir(dir string, runs int, opts eventlog.SegmentedOptions) error {
	sched, err := recoveryScheduler()
	if err != nil {
		return err
	}
	ps, seg, err := eventlog.OpenSegmentedScheduler(dir, sched, opts)
	if err != nil {
		return err
	}
	defer seg.Close()
	ctx := context.Background()
	workers := []string{"ada", "bob", "cyd", "dee"}
	for _, id := range workers {
		if err := ps.RegisterWorker(ctx, id); err != nil {
			return err
		}
	}
	latent := map[string]float64{"ada": 8, "bob": 6, "cyd": 7, "dee": 4}
	for run := 1; run <= runs; run++ {
		tasks := []melody.Task{
			{ID: fmt.Sprintf("r%d-a", run), Threshold: 11},
			{ID: fmt.Sprintf("r%d-b", run), Threshold: 11},
		}
		id := fmt.Sprintf("r%d", run)
		if err := ps.OpenRun(ctx, id, "", tasks, 30); err != nil {
			return err
		}
		for i, w := range workers {
			if err := ps.SubmitBid(ctx, id, w, melody.Bid{Cost: 1.0 + 0.2*float64(i), Frequency: 2}); err != nil {
				return err
			}
		}
		out, err := ps.CloseAuction(ctx, id)
		if err != nil {
			return err
		}
		for _, a := range out.Assignments {
			score := latent[a.WorkerID] + 0.1*float64(run%3)
			if err := ps.SubmitScore(ctx, id, a.WorkerID, a.TaskID, score); err != nil {
				return err
			}
		}
		if err := ps.FinishRun(ctx, id); err != nil {
			return err
		}
	}
	return nil
}

// walRecoveryKernel measures cold-start recovery of the segmented storage
// engine: each iteration recovers a fresh scheduler from the same on-disk
// history. snapshotEvery 0 is the full from-scratch replay over every
// record; a positive value installs run-boundary snapshots while the
// history is built, so recovery loads the newest snapshot and replays only
// the tail — the measurement behind the bounded-recovery claim (snap/
// entries stay flat as runs grow, full/ entries grow linearly).
func walRecoveryKernel(runs, snapshotEvery int) func(b *testing.B) {
	return func(b *testing.B) {
		dir, err := os.MkdirTemp("", "melody-bench-recovery-*")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		opts := eventlog.SegmentedOptions{
			SegmentBytes:  64 << 10,
			SnapshotEvery: snapshotEvery,
		}
		if err := buildRecoveryDir(dir, runs, opts); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sched, err := recoveryScheduler()
			if err != nil {
				b.Fatal(err)
			}
			_, seg, err := eventlog.OpenSegmentedScheduler(dir, sched, opts)
			if err != nil {
				b.Fatal(err)
			}
			if sched.CompletedRuns() != runs {
				b.Fatalf("recovered %d runs, want %d", sched.CompletedRuns(), runs)
			}
			if err := seg.Close(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// serveKernel runs the end-to-end HTTP serving path through loadgen:
// NsPerOp is nanoseconds of bidding wall-clock per ingested bid, and the
// throughput/latency detail lands in Entry.Metrics.
func serveKernel(cfg loadgen.Config) func() (Entry, error) {
	return func() (Entry, error) {
		res, err := loadgen.Run(cfg)
		if err != nil {
			return Entry{}, err
		}
		return Entry{
			Iterations: res.Bids,
			NsPerOp:    res.BidPhaseSeconds * 1e9 / float64(res.Bids),
			Metrics: map[string]float64{
				"bids_per_sec":   res.BidsPerSec,
				"latency_p50_ms": res.Latency.P50,
				"latency_p95_ms": res.Latency.P95,
				"latency_p99_ms": res.Latency.P99,
				"latency_max_ms": res.Latency.Max,
			},
		}, nil
	}
}

// overloadKernel runs an open-loop overload scenario through loadgen:
// NsPerOp is goodput wall-clock per accepted bid, and the offered/goodput/
// shed detail lands in Entry.Metrics. Invariant violations fail the kernel.
func overloadKernel(cfg loadgen.OverloadConfig) func() (Entry, error) {
	return func() (Entry, error) {
		res, err := loadgen.RunOverload(cfg)
		if err != nil {
			return Entry{}, err
		}
		if len(res.Violations) > 0 {
			return Entry{}, fmt.Errorf("invariant violations: %s", strings.Join(res.Violations, "; "))
		}
		if res.Accepted == 0 {
			return Entry{}, fmt.Errorf("no bids accepted (%d offered, %d shed)", res.Offered, res.Shed)
		}
		return Entry{
			Iterations: res.Accepted,
			NsPerOp:    1e9 / res.GoodputPerSec,
			Metrics: map[string]float64{
				"offered_per_sec": res.OfferedPerSec,
				"bids_per_sec":    res.GoodputPerSec,
				"shed_rate":       res.ShedRate,
				"latency_p50_ms":  res.Latency.P50,
				"latency_p99_ms":  res.Latency.P99,
				"runs_completed":  float64(res.RunsCompleted),
			},
		}, nil
	}
}

// multirunKernel runs the mixed-tenant multi-run scenario through loadgen:
// the identical workload executes once with tenants serial and once with
// all tenants concurrent, against fresh run-scheduler stacks. NsPerOp is
// concurrent wall-clock per completed run; the serial/concurrent goodput
// and their ratio land in Entry.Metrics. The scenario itself asserts
// byte-identical per-run outcomes, exact money conservation, drained
// settlement and zero goroutine leaks — any violation fails the kernel.
func multirunKernel(cfg loadgen.MultiRunConfig) func() (Entry, error) {
	return func() (Entry, error) {
		res, err := loadgen.RunMultiRun(cfg)
		if err != nil {
			return Entry{}, err
		}
		match := 0.0
		if res.OutcomesMatch {
			match = 1
		}
		return Entry{
			Iterations: res.TotalRuns,
			NsPerOp:    res.ConcurrentSeconds * 1e9 / float64(res.TotalRuns),
			Metrics: map[string]float64{
				"serial_runs_per_sec":     res.SerialRunsPerSec,
				"concurrent_runs_per_sec": res.ConcurrentRunsPerSec,
				"speedup":                 res.Speedup,
				"outcomes_match":          match,
				"epochs":                  float64(res.Epochs),
				"bids":                    float64(res.Bids),
			},
		}, nil
	}
}

// fairnessKernel runs the weighted-fair close scheduling scenario through
// loadgen: 8 equal-weight tenants close in synchronized volleys through a
// fair gate, with lifetime budget quotas enforced at every open. NsPerOp
// is gated wall-clock per completed run; the fairness ratio (max/min
// per-tenant median close latency), quota refusal count and replay verdict
// land in Entry.Metrics. The scenario itself asserts the ratio bound,
// byte-identical outcomes, ledger-exact spend accounting and quota
// survival across WAL replay — any violation fails the kernel.
func fairnessKernel(cfg loadgen.FairnessConfig) func() (Entry, error) {
	return func() (Entry, error) {
		res, err := loadgen.RunFairness(cfg)
		if err != nil {
			return Entry{}, err
		}
		match, replay := 0.0, 0.0
		if res.OutcomesMatch {
			match = 1
		}
		if res.ReplayConsistent {
			replay = 1
		}
		return Entry{
			Iterations: res.TotalRuns,
			NsPerOp:    res.ConcurrentSeconds * 1e9 / float64(res.TotalRuns),
			Metrics: map[string]float64{
				"fairness_ratio":      res.FairnessRatio,
				"min_median_close_ms": res.MinMedianCloseMs,
				"max_median_close_ms": res.MaxMedianCloseMs,
				"quota_refusals":      float64(res.QuotaRefusals),
				"outcomes_match":      match,
				"replay_consistent":   replay,
			},
		}, nil
	}
}

// overloadLoad is the shared harness config for the serve/overload kernels:
// a 250 bids/sec per-tenant admission budget, single-attempt clients (one
// arrival, one verdict), and a funded ledger so the money invariants run.
func overloadLoad(seed int64) loadgen.Config {
	return loadgen.Config{
		Backend: loadgen.BackendMem, Workers: 16, Runs: 2, Tasks: 2, Seed: seed,
		Tenant: "bench",
		Retry:  &platform.RetryPolicy{MaxAttempts: 1},
		Admission: &platform.AdmissionConfig{
			TenantRatePerSec: 250, TenantBurst: 50, RetryAfter: 5 * time.Millisecond,
		},
	}
}

func kernels() []kernel {
	return []kernel{
		{name: "alloc/melody/n300_m500", fn: melodyKernel(300, 500, 2000)},
		{name: "alloc/melody/n1000_m5000", fn: melodyKernel(1000, 5000, 800)},
		{name: "alloc/melody/n3000_m5000", fn: melodyKernel(3000, 5000, 5000)},
		// Scale kernels: the million-worker auction and the incremental
		// AuctionState's steady-state churn path versus its from-scratch twin
		// (the inc/scratch ratio is the cache's speedup at that churn level).
		{name: "alloc/melody/n100000", fn: melodyKernel(100000, 5000, 20000)},
		{name: "alloc/melody/n1000000", fn: melodyKernel(1000000, 20000, 100000)},
		{name: "alloc/melody_state/n100000_churn0", fn: melodyIncKernel(100000, 5000, 20000, 0)},
		{name: "alloc/melody_inc/n100000_churn1", fn: melodyIncKernel(100000, 5000, 20000, 1)},
		{name: "alloc/melody_inc/n100000_churn10", fn: melodyIncKernel(100000, 5000, 20000, 10)},
		{name: "alloc/melody_scratch/n100000_churn10", fn: melodyScratchKernel(100000, 5000, 20000, 10)},
		{name: "alloc/random/n300_m500", fn: randomKernel(300, 500, 2000)},
		{name: "alloc/optub/n300_m500", fn: optUBKernel(300, 500, 2000)},
		{name: "lds/kalman_update", fn: kalmanKernel},
		{name: "lds/rts_smoother_r100", fn: smootherKernel},
		{name: "lds/em_w60_i12", fn: emKernel},
		{name: "lds/em_w60_x16", fn: emLanesKernel},
		{name: "quality/observe_t10_w60", fn: observeKernel},
		{name: "obs/primitives_noop", fn: obsPrimitivesKernel(false)},
		{name: "obs/primitives_instrumented", fn: obsPrimitivesKernel(true)},
		{name: "obs/counter_parallel", fn: obsCounterParallelKernel},
		{name: "wal/append_fsync_group", fn: walAppendKernel(false)},
		{name: "wal/append_fsync_group_obs", fn: walAppendKernel(true)},
		// Recovery kernels: cold-start time of the segmented engine vs log
		// length. full_ replays every record from scratch (no snapshots) and
		// grows linearly with history; snap_ recovers from run-boundary
		// snapshots (every 1000 records) plus the tail, and must stay flat as
		// the run count quadruples.
		{name: "wal/recovery/full_r500", fn: walRecoveryKernel(500, 0)},
		{name: "wal/recovery/full_r2000", fn: walRecoveryKernel(2000, 0)},
		{name: "wal/recovery/snap_r500", fn: walRecoveryKernel(500, 1000)},
		{name: "wal/recovery/snap_r2000", fn: walRecoveryKernel(2000, 1000)},
		// serve/ kernels measure the full HTTP serving path: batched bids
		// (batch=16) in memory and over the group-commit WAL.
		{name: "serve/bids_mem_w32_b16", direct: serveKernel(loadgen.Config{
			Backend: loadgen.BackendMem, Workers: 32, Runs: 3, BidsPerWorker: 32, Batch: 16, Seed: 11})},
		{name: "serve/bids_wal_group_w32_b16", direct: serveKernel(loadgen.Config{
			Backend: loadgen.BackendWAL, Workers: 32, Runs: 3, BidsPerWorker: 32, Batch: 16, Seed: 11})},
		// _obs variants run the identical workload with the full
		// observability stack on (registry + span ring + instrumented
		// server/client/WAL); the -guard flag compares each pair.
		{name: "serve/bids_mem_w32_b16_obs", direct: serveKernel(loadgen.Config{
			Backend: loadgen.BackendMem, Workers: 32, Runs: 3, BidsPerWorker: 32, Batch: 16, Seed: 11,
			Observe: true})},
		// serve/overload kernels drive the admission-controlled path
		// open-loop against a 250 bids/sec tenant budget: rated offers 200/s
		// (shed ~0), 3x offers 750/s (sheds roughly two thirds), flash
		// alternates 1500/s crowds with a 100/s background. Every variant
		// must settle all runs with exact money conservation.
		{name: "serve/overload_rated_r200", direct: overloadKernel(loadgen.OverloadConfig{
			Load: overloadLoad(11), Arrival: loadgen.ArrivalPoisson,
			Rate: 200, Duration: time.Second})},
		{name: "serve/overload_3x_r750", direct: overloadKernel(loadgen.OverloadConfig{
			Load: overloadLoad(12), Arrival: loadgen.ArrivalPoisson,
			Rate: 750, Duration: time.Second})},
		{name: "serve/overload_flash_r1500", direct: overloadKernel(loadgen.OverloadConfig{
			Load: overloadLoad(13), Arrival: loadgen.ArrivalBurst,
			Rate: 1500, BaseRate: 100, Duration: time.Second,
			BurstPeriod: 250 * time.Millisecond, BurstLen: 60 * time.Millisecond})},
		// serve/multirun kernels: 8 tenants drive 8 concurrent runs through
		// the run scheduler, measured against the identical workload with
		// tenants executed one at a time (the speedup metric is concurrent
		// over serial goodput; outcomes must stay byte-identical). sched_wal
		// drives the scheduler in-process over the group-commit WAL — the
		// fsync-bound case where overlapping runs amortize commits — while
		// the http_ variants pay the full serving path per request.
		{name: "serve/multirun_sched_wal_t8", direct: multirunKernel(loadgen.MultiRunConfig{
			Tenants: 8, RunsPerTenant: 2, WorkersPerTenant: 8, Tasks: 2,
			BidsPerWorker: 4, EpochEvery: 4, Seed: 11,
			Backend: loadgen.BackendWAL, Direct: true})},
		{name: "serve/multirun_sched_mem_t8", direct: multirunKernel(loadgen.MultiRunConfig{
			Tenants: 8, RunsPerTenant: 2, WorkersPerTenant: 8, Tasks: 2,
			BidsPerWorker: 4, EpochEvery: 4, Seed: 11, Direct: true})},
		{name: "serve/multirun_http_mem_t8", direct: multirunKernel(loadgen.MultiRunConfig{
			Tenants: 8, RunsPerTenant: 2, WorkersPerTenant: 8, Tasks: 2,
			BidsPerWorker: 4, EpochEvery: 4, Seed: 11})},
		{name: "serve/multirun_http_wal_t8", direct: multirunKernel(loadgen.MultiRunConfig{
			Tenants: 8, RunsPerTenant: 2, WorkersPerTenant: 8, Tasks: 2,
			BidsPerWorker: 4, EpochEvery: 4, Seed: 11,
			Backend: loadgen.BackendWAL})},
		// serve/fairness kernels: 8 quota-bounded tenants close in
		// synchronized volleys through the weighted-fair gate (capacity 1 =
		// fully serialized closes, capacity 2 = two at a time). Each kernel
		// asserts the max/min median close-latency ratio <= 2, quota
		// refusals, exact spend accounting and WAL-replay consistency.
		{name: "serve/fairness_gate1_t8", direct: fairnessKernel(loadgen.FairnessConfig{
			Tenants: 8, CloseConcurrency: 1, Seed: 11})},
		{name: "serve/fairness_gate2_t8", direct: fairnessKernel(loadgen.FairnessConfig{
			Tenants: 8, CloseConcurrency: 2, Seed: 11})},
	}
}

// guardPairs compares every <name>_obs entry against its uninstrumented
// twin and returns a violation line per pair whose instrumented NsPerOp
// exceeds the noop by more than tolPct percent.
func guardPairs(entries []Entry, tolPct float64) []string {
	byName := make(map[string]Entry, len(entries))
	for _, e := range entries {
		byName[e.Name] = e
	}
	var violations []string
	for _, e := range entries {
		base, ok := byName[strings.TrimSuffix(e.Name, "_obs")]
		if !ok || !strings.HasSuffix(e.Name, "_obs") || base.NsPerOp <= 0 {
			continue
		}
		overheadPct := (e.NsPerOp/base.NsPerOp - 1) * 100
		if overheadPct > tolPct {
			violations = append(violations, fmt.Sprintf(
				"%s: %.0f ns/op vs %s %.0f ns/op (+%.1f%% > %.1f%%)",
				e.Name, e.NsPerOp, base.Name, base.NsPerOp, overheadPct, tolPct))
		}
	}
	return violations
}

// nextSnapshotName returns BENCH_<n>.json for the smallest n not yet on disk.
func nextSnapshotName(dir string) string {
	for n := 1; ; n++ {
		name := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", n))
		if _, err := os.Stat(name); os.IsNotExist(err) {
			return name
		}
	}
}

func loadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func main() {
	out := flag.String("out", "", "snapshot path (default: next free BENCH_<n>.json)")
	baseline := flag.String("baseline", "", "prior snapshot to embed and compare against")
	filter := flag.String("filter", "", "regexp selecting kernels to run")
	note := flag.String("note", "", "free-form note stored in the snapshot")
	list := flag.Bool("list", false, "list kernel names and exit")
	guard := flag.Float64("guard", 0, "fail if any <kernel>_obs entry is more than this percent slower than its uninstrumented twin (0 disables)")
	smoke := flag.Bool("smoke", false, "run each kernel exactly once (correctness/CI smoke); skip the snapshot unless -out is given")
	testing.Init()
	flag.Parse()
	if *smoke {
		if err := flag.Set("test.benchtime", "1x"); err != nil {
			fmt.Fprintf(os.Stderr, "melody-bench: %v\n", err)
			os.Exit(1)
		}
	}

	ks := kernels()
	if *list {
		for _, k := range ks {
			fmt.Println(k.name)
		}
		return
	}
	var re *regexp.Regexp
	if *filter != "" {
		var err error
		re, err = regexp.Compile(*filter)
		if err != nil {
			fmt.Fprintf(os.Stderr, "melody-bench: bad -filter: %v\n", err)
			os.Exit(2)
		}
	}

	snap := &Snapshot{
		Schema:     1,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Note:       *note,
	}
	var base *Snapshot
	if *baseline != "" {
		var err error
		base, err = loadSnapshot(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "melody-bench: %v\n", err)
			os.Exit(1)
		}
		snap.Baseline = base.Entries
		snap.BaselineNote = base.Note
	}

	baseByName := map[string]Entry{}
	if base != nil {
		for _, e := range base.Entries {
			baseByName[e.Name] = e
		}
	}

	run := ks
	if re != nil {
		run = nil
		for _, k := range ks {
			if re.MatchString(k.name) {
				run = append(run, k)
			}
		}
		if len(run) == 0 {
			fmt.Fprintf(os.Stderr, "melody-bench: -filter %q matches no kernel (see -list)\n", *filter)
			os.Exit(2)
		}
	}

	for _, k := range run {
		var e Entry
		if k.direct != nil {
			var err error
			e, err = k.direct()
			if err != nil {
				fmt.Fprintf(os.Stderr, "melody-bench: %s: %v\n", k.name, err)
				os.Exit(1)
			}
			e.Name = k.name
		} else {
			res := testing.Benchmark(k.fn)
			e = Entry{
				Name:        k.name,
				Iterations:  res.N,
				NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
				BytesPerOp:  res.AllocedBytesPerOp(),
				AllocsPerOp: res.AllocsPerOp(),
			}
		}
		snap.Entries = append(snap.Entries, e)
		line := fmt.Sprintf("%-28s %12.0f ns/op %10d B/op %8d allocs/op",
			e.Name, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp)
		if b, ok := baseByName[e.Name]; ok && e.NsPerOp > 0 {
			line += fmt.Sprintf("   %5.2fx vs baseline", b.NsPerOp/e.NsPerOp)
		}
		if tput, ok := e.Metrics["bids_per_sec"]; ok {
			line += fmt.Sprintf("   %8.0f bids/sec p99=%.2fms", tput, e.Metrics["latency_p99_ms"])
		}
		fmt.Println(line)
	}
	sort.Slice(snap.Entries, func(i, j int) bool { return snap.Entries[i].Name < snap.Entries[j].Name })

	if *guard > 0 {
		if violations := guardPairs(snap.Entries, *guard); len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintln(os.Stderr, "melody-bench: guard:", v)
			}
			os.Exit(1)
		}
	}

	path := *out
	if path == "" {
		if *smoke {
			return // smoke runs don't record a snapshot unless asked
		}
		path = nextSnapshotName(".")
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "melody-bench: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "melody-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("snapshot written to %s\n", path)
}
