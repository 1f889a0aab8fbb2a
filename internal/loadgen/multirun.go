package loadgen

import (
	"context"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"melody"
	"melody/internal/eventlog"
	"melody/internal/platform"
	"melody/internal/stats"
	"melody/internal/verify"
)

// MultiRunConfig parameterizes the mixed-tenant multi-run scenario: N
// tenants, each driving its own sequence of runs against one run-scheduler
// server, with every tenant's traffic (open, bids, close, scores, finish)
// interleaving with every other's.
type MultiRunConfig struct {
	// Tenants is the number of concurrent tenants; each maps to one
	// estimator and one run sequence on the scheduler.
	Tenants int
	// RunsPerTenant is how many complete runs each tenant drives. Runs
	// within a tenant are sequential (the scheduler enforces it); runs
	// across tenants overlap freely.
	RunsPerTenant int
	// WorkersPerTenant is how many workers bid in each tenant's runs.
	// Worker IDs are disjoint across tenants ("t<i>w<j>"), so each
	// tenant's auction sees only its own bidders.
	WorkersPerTenant int
	// Tasks is the number of tasks per run.
	Tasks int
	// Budget is the per-run budget.
	Budget float64
	// BidsPerWorker is how many bids each worker submits per run
	// (resubmissions after the first, keeping ingest hot).
	BidsPerWorker int
	// Batch groups bids into batch round trips; <= 1 uses single bids.
	Batch int
	// Seed drives every random choice; both passes reuse the same draws,
	// so serial and concurrent executions see identical inputs.
	Seed int64
	// EpochEvery batches payouts into settlement epochs of this many
	// finished runs; 0 settles per run.
	EpochEvery int
	// CloseConcurrency bounds auction closes running at once through the
	// scheduler's weighted-fair gate; 0 leaves closes ungated.
	CloseConcurrency int
	// Backend is BackendMem (default) or BackendWAL. With BackendWAL every
	// mutation is appended to a durable event log before acknowledging, and
	// concurrent tenants amortize fsyncs through group commit — the goodput
	// gap between the serial and concurrent passes then measures how much
	// of the commit cost overlapping runs can share.
	Backend string
	// WALDir hosts the per-pass event logs; a temp dir when empty.
	WALDir string
	// Direct drives the scheduler backend in-process instead of over HTTP.
	// This isolates the scheduler's own concurrency (no shared phase lock,
	// striped registry, group-commit WAL) from HTTP serving overhead — on a
	// small machine the HTTP path's per-request CPU can mask most of what
	// overlapping runs buy.
	Direct bool
}

// withDefaults fills zero fields.
func (c MultiRunConfig) withDefaults() MultiRunConfig {
	if c.Tenants <= 0 {
		c.Tenants = 2
	}
	if c.RunsPerTenant <= 0 {
		c.RunsPerTenant = 4
	}
	if c.WorkersPerTenant <= 0 {
		c.WorkersPerTenant = 8
	}
	if c.Tasks <= 0 {
		c.Tasks = 3
	}
	if c.Budget <= 0 {
		c.Budget = 200
	}
	if c.BidsPerWorker <= 0 {
		c.BidsPerWorker = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.EpochEvery < 0 {
		c.EpochEvery = 0
	}
	if c.Backend == "" {
		c.Backend = BackendMem
	}
	return c
}

// MultiRunResult is what the multirun scenario measured. The scenario runs
// the identical workload twice against fresh schedulers — tenants one
// after another (serial), then all tenants at once (concurrent) — and
// compares wall-clock goodput and per-run outcomes between the passes.
type MultiRunResult struct {
	Tenants       int `json:"tenants"`
	RunsPerTenant int `json:"runs_per_tenant"`
	TotalRuns     int `json:"total_runs"`
	// Bids is the number of accepted bids per pass.
	Bids int `json:"bids"`
	// SerialSeconds and ConcurrentSeconds are each pass's wall time.
	SerialSeconds     float64 `json:"serial_seconds"`
	ConcurrentSeconds float64 `json:"concurrent_seconds"`
	// SerialRunsPerSec and ConcurrentRunsPerSec are goodput: completed
	// runs per second of wall time.
	SerialRunsPerSec     float64 `json:"serial_runs_per_sec"`
	ConcurrentRunsPerSec float64 `json:"concurrent_runs_per_sec"`
	// Speedup is concurrent goodput over serial goodput.
	Speedup float64 `json:"speedup"`
	// OutcomesMatch reports whether every run's outcome digest (the full
	// assignment list with %.17g payments) was byte-identical between the
	// serial and concurrent passes — the serial-equivalence property of
	// per-tenant mechanism isolation.
	OutcomesMatch bool `json:"outcomes_match"`
	// Epochs is how many payout epochs the concurrent pass settled.
	Epochs int `json:"epochs"`
}

// multiStack is one booted run-scheduler serving stack: the harness's
// scheduler, ledger and server, plus the backend the passes drive.
type multiStack struct {
	harness
	backend platform.MultiRunBackend
}

// startMultiStack boots a fresh scheduler (its own estimators, registry
// and funded ledger) behind an HTTP server on a loopback listener. With
// BackendWAL the scheduler is wrapped in a PersistentScheduler over a
// group-commit event log, so every mutation pays for durability before
// acknowledging.
func startMultiStack(cfg MultiRunConfig, pass string) (*multiStack, error) {
	money := melody.NewLedger()
	funding := cfg.Budget * float64(cfg.Tenants*cfg.RunsPerTenant)
	if _, err := money.Deposit(melody.RequesterAccount, funding, "multirun funding"); err != nil {
		return nil, err
	}
	def := platform.DefaultConfig()
	sched, err := melody.NewRunScheduler(melody.SchedulerConfig{
		Auction: def.Auction(),
		NewEstimator: func(string) (melody.Estimator, error) {
			return melody.NewQualityTracker(def.Tracker(nil))
		},
		Ledger:           money,
		EpochEvery:       cfg.EpochEvery,
		CloseConcurrency: cfg.CloseConcurrency,
	})
	if err != nil {
		return nil, err
	}
	// Every tenant gets a lifetime budget quota of exactly its season
	// (runs x budget): the workload fits, and the verify checker below can
	// hold the scheduler's spend accounting to a real bound.
	for i := 0; i < cfg.Tenants; i++ {
		policy := melody.UnlimitedTenantPolicy()
		policy.BudgetQuota = cfg.Budget * float64(cfg.RunsPerTenant)
		if err := sched.SetTenantPolicy(context.Background(), fmt.Sprintf("tenant%d", i), policy); err != nil {
			return nil, err
		}
	}
	st := &multiStack{harness: harness{sched: sched, money: money}, backend: sched}
	if cfg.Backend == BackendWAL {
		dir := cfg.WALDir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "melody-multirun-")
			if err != nil {
				return nil, err
			}
			st.cleanups = append(st.cleanups, func() { os.RemoveAll(tmp) })
			dir = tmp
		}
		wal, err := eventlog.OpenOptions(filepath.Join(dir, pass+".wal"), eventlog.Options{SyncEveryAppend: true})
		if err != nil {
			st.close()
			return nil, err
		}
		st.cleanups = append(st.cleanups, func() { wal.Close() })
		if st.backend, err = eventlog.NewPersistentScheduler(sched, wal); err != nil {
			st.close()
			return nil, err
		}
	}
	if cfg.Direct {
		return st, nil
	}
	srv, err := platform.NewMultiServer(st.backend, nil)
	if err == nil {
		err = st.serve(srv.Handler(), cfg.Tenants*4)
	}
	if err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// stop shuts the stack down gracefully, verifying Serve exited clean, and
// releases it.
func (st *multiStack) stop() error {
	if st.httpSrv != nil {
		if err := st.shutdown(); err != nil {
			return err
		}
	}
	st.close()
	return nil
}

// client builds a tenant-scoped client against the stack.
func (st *multiStack) client(tenant string) (*platform.Client, error) {
	return platform.NewClientOptions("http://"+st.addr, platform.ClientOptions{
		HTTPClient: &http.Client{Transport: st.transport, Timeout: 30 * time.Second},
		Tenant:     tenant,
	})
}

// detScore is the deterministic score for (tenant, run, worker, task):
// a hash mapped into the quality range [1, 10]. Determinism is what makes
// the serial and concurrent passes produce comparable quality
// trajectories — and therefore byte-identical outcomes.
func detScore(tenant, runID, worker, task string) float64 {
	h := fnv.New64a()
	for _, s := range []string{tenant, "\x00", runID, "\x00", worker, "\x00", task} {
		_, _ = h.Write([]byte(s))
	}
	return 1 + 9*float64(h.Sum64()%100000)/100000
}

// outcomeDigest flattens an outcome for cross-pass comparison. The
// platform emits assignments in deterministic order, so the digest is
// simply the full list with %.17g payments (exact float identity).
func outcomeDigest(out platform.OutcomeResponse) string {
	var b strings.Builder
	for _, a := range out.Assignments {
		fmt.Fprintf(&b, "%s/%s=%.17g;", a.TaskID, a.WorkerID, a.Payment)
	}
	fmt.Fprintf(&b, "total=%.17g", out.TotalPayment)
	return b.String()
}

// coreOutcomeDigest is outcomeDigest for the in-process outcome type.
func coreOutcomeDigest(out *melody.Outcome) string {
	var b strings.Builder
	for _, a := range out.Assignments {
		fmt.Fprintf(&b, "%s/%s=%.17g;", a.TaskID, a.WorkerID, a.Payment)
	}
	fmt.Fprintf(&b, "total=%.17g", out.TotalPayment)
	return b.String()
}

// tenantWorkload is one tenant's precomputed inputs, shared by both
// passes so they drive identical bids.
type tenantWorkload struct {
	tenant  string
	workers []string
	costs   []float64
}

// buildWorkloads draws every tenant's worker costs from a per-tenant RNG,
// so the inputs do not depend on scheduling order.
func buildWorkloads(cfg MultiRunConfig) []tenantWorkload {
	loads := make([]tenantWorkload, cfg.Tenants)
	for i := range loads {
		rng := stats.NewRNG(cfg.Seed + int64(i)*7919)
		wl := tenantWorkload{tenant: fmt.Sprintf("tenant%d", i)}
		for j := 0; j < cfg.WorkersPerTenant; j++ {
			wl.workers = append(wl.workers, fmt.Sprintf("t%dw%03d", i, j))
			wl.costs = append(wl.costs, rng.Uniform(1, 2))
		}
		loads[i] = wl
	}
	return loads
}

// driveTenant runs one tenant's full run sequence over HTTP and returns
// digest-per-runID plus the number of accepted bids.
func driveTenant(ctx context.Context, client *platform.Client, cfg MultiRunConfig, wl tenantWorkload, digests *sync.Map) (int, error) {
	bids := 0
	for runIdx := 1; runIdx <= cfg.RunsPerTenant; runIdx++ {
		runID := fmt.Sprintf("%s-r%d", wl.tenant, runIdx)
		tasks := make([]platform.TaskSpec, cfg.Tasks)
		for j := range tasks {
			tasks[j] = platform.TaskSpec{ID: fmt.Sprintf("%s-t%d", runID, j), Threshold: 10}
		}
		run, err := client.OpenRunID(ctx, runID, wl.tenant, tasks, cfg.Budget)
		if err != nil {
			return bids, fmt.Errorf("open %s: %w", runID, err)
		}
		// Bid phase: all of the tenant's workers bid, with resubmissions
		// keeping the ingest path hot.
		for k := 0; k < cfg.BidsPerWorker; k++ {
			if cfg.Batch > 1 {
				reqs := make([]platform.BidRequest, len(wl.workers))
				for i, w := range wl.workers {
					reqs[i] = platform.BidRequest{WorkerID: w, Cost: wl.costs[i], Frequency: 1}
				}
				for lo := 0; lo < len(reqs); lo += cfg.Batch {
					hi := lo + cfg.Batch
					if hi > len(reqs) {
						hi = len(reqs)
					}
					res, err := run.SubmitBids(ctx, reqs[lo:hi])
					if err != nil {
						return bids, fmt.Errorf("bids %s: %w", runID, err)
					}
					if err := res.Err(); err != nil {
						return bids, fmt.Errorf("bids %s: %w", runID, err)
					}
					bids += hi - lo
				}
			} else {
				for i, w := range wl.workers {
					if err := run.SubmitBid(ctx, w, wl.costs[i], 1); err != nil {
						return bids, fmt.Errorf("bid %s %s: %w", runID, w, err)
					}
					bids++
				}
			}
		}
		out, err := run.CloseAuction(ctx)
		if err != nil {
			return bids, fmt.Errorf("close %s: %w", runID, err)
		}
		digests.Store(runID, outcomeDigest(out))
		// Score every assignment deterministically, then finish.
		scores := make([]platform.ScoreRequest, 0, len(out.Assignments))
		for _, asg := range out.Assignments {
			scores = append(scores, platform.ScoreRequest{
				WorkerID: asg.WorkerID, TaskID: asg.TaskID,
				Score: detScore(wl.tenant, runID, asg.WorkerID, asg.TaskID),
			})
		}
		if len(scores) > 0 {
			res, err := run.SubmitScores(ctx, scores)
			if err != nil {
				return bids, fmt.Errorf("scores %s: %w", runID, err)
			}
			if err := res.Err(); err != nil {
				return bids, fmt.Errorf("scores %s: %w", runID, err)
			}
		}
		if err := run.FinishRun(ctx); err != nil {
			return bids, fmt.Errorf("finish %s: %w", runID, err)
		}
	}
	return bids, nil
}

// driveTenantDirect is driveTenant without the HTTP hop: one tenant's
// full run sequence issued straight against the scheduler backend.
func driveTenantDirect(ctx context.Context, be platform.MultiRunBackend, cfg MultiRunConfig, wl tenantWorkload, digests *sync.Map) (int, error) {
	bids := 0
	for runIdx := 1; runIdx <= cfg.RunsPerTenant; runIdx++ {
		runID := fmt.Sprintf("%s-r%d", wl.tenant, runIdx)
		tasks := make([]melody.Task, cfg.Tasks)
		for j := range tasks {
			tasks[j] = melody.Task{ID: fmt.Sprintf("%s-t%d", runID, j), Threshold: 10}
		}
		if err := be.OpenRun(ctx, runID, wl.tenant, tasks, cfg.Budget); err != nil {
			return bids, fmt.Errorf("open %s: %w", runID, err)
		}
		for k := 0; k < cfg.BidsPerWorker; k++ {
			if cfg.Batch > 1 {
				reqs := make([]melody.WorkerBid, len(wl.workers))
				for i, w := range wl.workers {
					reqs[i] = melody.WorkerBid{WorkerID: w, Bid: melody.Bid{Cost: wl.costs[i], Frequency: 1}}
				}
				for lo := 0; lo < len(reqs); lo += cfg.Batch {
					hi := lo + cfg.Batch
					if hi > len(reqs) {
						hi = len(reqs)
					}
					if err := be.SubmitBids(ctx, runID, reqs[lo:hi]).Err(); err != nil {
						return bids, fmt.Errorf("bids %s: %w", runID, err)
					}
					bids += hi - lo
				}
			} else {
				for i, w := range wl.workers {
					if err := be.SubmitBid(ctx, runID, w, melody.Bid{Cost: wl.costs[i], Frequency: 1}); err != nil {
						return bids, fmt.Errorf("bid %s %s: %w", runID, w, err)
					}
					bids++
				}
			}
		}
		out, err := be.CloseAuction(ctx, runID)
		if err != nil {
			return bids, fmt.Errorf("close %s: %w", runID, err)
		}
		digests.Store(runID, coreOutcomeDigest(out))
		scores := make([]melody.TaskScore, 0, len(out.Assignments))
		for _, asg := range out.Assignments {
			scores = append(scores, melody.TaskScore{
				WorkerID: asg.WorkerID, TaskID: asg.TaskID,
				Score: detScore(wl.tenant, runID, asg.WorkerID, asg.TaskID),
			})
		}
		if len(scores) > 0 {
			if err := be.SubmitScores(ctx, runID, scores).Err(); err != nil {
				return bids, fmt.Errorf("scores %s: %w", runID, err)
			}
		}
		if err := be.FinishRun(ctx, runID); err != nil {
			return bids, fmt.Errorf("finish %s: %w", runID, err)
		}
	}
	return bids, nil
}

// multiPass executes the whole workload once — serially (tenant after
// tenant) or concurrently (one goroutine per tenant) — against a fresh
// stack, verifies money conservation and settlement drain, and returns
// the per-run outcome digests, wall time, accepted bids and epoch count.
func multiPass(cfg MultiRunConfig, loads []tenantWorkload, concurrent bool) (map[string]string, float64, int, int, error) {
	pass := "serial"
	if concurrent {
		pass = "concurrent"
	}
	st, err := startMultiStack(cfg, pass)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	defer st.close()
	ctx := context.Background()
	var clients []*platform.Client
	if cfg.Direct {
		for _, wl := range loads {
			for _, w := range wl.workers {
				if err := st.backend.RegisterWorker(ctx, w); err != nil {
					return nil, 0, 0, 0, fmt.Errorf("loadgen: register %s: %w", w, err)
				}
			}
		}
	} else {
		control, err := st.client("")
		if err != nil {
			return nil, 0, 0, 0, err
		}
		for _, wl := range loads {
			for _, w := range wl.workers {
				if err := control.RegisterWorker(ctx, w); err != nil {
					return nil, 0, 0, 0, fmt.Errorf("loadgen: register %s: %w", w, err)
				}
			}
		}
		clients = make([]*platform.Client, len(loads))
		for i, wl := range loads {
			if clients[i], err = st.client(wl.tenant); err != nil {
				return nil, 0, 0, 0, err
			}
		}
	}
	drive := func(i int, wl tenantWorkload, digests *sync.Map) (int, error) {
		if cfg.Direct {
			return driveTenantDirect(ctx, st.backend, cfg, wl, digests)
		}
		return driveTenant(ctx, clients[i], cfg, wl, digests)
	}

	var digests sync.Map
	var bidsTotal int
	start := time.Now()
	if concurrent {
		var wg sync.WaitGroup
		errCh := make(chan error, len(loads))
		bidCh := make(chan int, len(loads))
		for i, wl := range loads {
			wg.Add(1)
			go func(i int, wl tenantWorkload) {
				defer wg.Done()
				n, err := drive(i, wl, &digests)
				if err != nil {
					errCh <- fmt.Errorf("loadgen: tenant %s: %w", wl.tenant, err)
				}
				bidCh <- n
			}(i, wl)
		}
		wg.Wait()
		close(bidCh)
		for n := range bidCh {
			bidsTotal += n
		}
		select {
		case err := <-errCh:
			return nil, 0, 0, 0, err
		default:
		}
	} else {
		for i, wl := range loads {
			n, err := drive(i, wl, &digests)
			bidsTotal += n
			if err != nil {
				return nil, 0, 0, 0, fmt.Errorf("loadgen: tenant %s: %w", wl.tenant, err)
			}
		}
	}
	elapsed := time.Since(start).Seconds()

	// Settle any mid-epoch remainder, then hold the ledger to account:
	// money conserved, nothing stranded in escrow or the epoch pool.
	if err := st.sched.Flush(); err != nil {
		return nil, 0, 0, 0, fmt.Errorf("loadgen: flush: %w", err)
	}
	if err := verify.CheckMoneyConservation(st.money); err != nil {
		return nil, 0, 0, 0, err
	}
	if err := verify.CheckSettlementDrained(st.money); err != nil {
		return nil, 0, 0, 0, err
	}
	if err := verify.CheckTenantQuotas(tenantUsages(st.sched.TenantStatuses())); err != nil {
		return nil, 0, 0, 0, err
	}
	epochs := 0
	if s := st.sched.Settler(); s != nil {
		epochs = s.Epochs()
	}

	if err := st.stop(); err != nil {
		return nil, 0, 0, 0, err
	}
	out := make(map[string]string)
	digests.Range(func(k, v any) bool {
		out[k.(string)] = v.(string)
		return true
	})
	return out, elapsed, bidsTotal, epochs, nil
}

// RunMultiRun executes the mixed-tenant multi-run scenario: the identical
// workload runs once serially and once with all tenants concurrent, each
// against a fresh scheduler stack. It reports the goodput speedup and
// whether per-run outcomes were byte-identical across the passes, and
// fails if money is not conserved, settlement leaves residue, or the
// serving stack leaks goroutines.
func RunMultiRun(cfg MultiRunConfig) (MultiRunResult, error) {
	cfg = cfg.withDefaults()
	loads := buildWorkloads(cfg)
	before := runtime.NumGoroutine()

	serial, sSecs, bids, _, err := multiPass(cfg, loads, false)
	if err != nil {
		return MultiRunResult{}, fmt.Errorf("loadgen: serial pass: %w", err)
	}
	conc, cSecs, _, epochs, err := multiPass(cfg, loads, true)
	if err != nil {
		return MultiRunResult{}, fmt.Errorf("loadgen: concurrent pass: %w", err)
	}

	res := MultiRunResult{
		Tenants:           cfg.Tenants,
		RunsPerTenant:     cfg.RunsPerTenant,
		TotalRuns:         cfg.Tenants * cfg.RunsPerTenant,
		Bids:              bids,
		SerialSeconds:     sSecs,
		ConcurrentSeconds: cSecs,
		Epochs:            epochs,
		OutcomesMatch:     true,
	}
	if sSecs > 0 {
		res.SerialRunsPerSec = float64(res.TotalRuns) / sSecs
	}
	if cSecs > 0 {
		res.ConcurrentRunsPerSec = float64(res.TotalRuns) / cSecs
	}
	if res.SerialRunsPerSec > 0 {
		res.Speedup = res.ConcurrentRunsPerSec / res.SerialRunsPerSec
	}
	if len(serial) != res.TotalRuns || len(conc) != res.TotalRuns {
		return res, fmt.Errorf("loadgen: digest count mismatch: serial %d, concurrent %d, want %d",
			len(serial), len(conc), res.TotalRuns)
	}
	for id, sd := range serial {
		if conc[id] != sd {
			res.OutcomesMatch = false
			return res, fmt.Errorf("loadgen: run %s outcome diverged between serial and concurrent passes", id)
		}
	}

	// Both stacks are down; every server, client and watchdog goroutine
	// must have drained. Allow the runtime a moment to reap them.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			return res, fmt.Errorf("loadgen: goroutine leak: %d before, %d after multirun",
				before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
	return res, nil
}
