// Package loadgen drives MELODY's run lifecycle (open, bid, close, score,
// finish) end to end under load: the measurement engine behind
// cmd/melody-load and the serve/ kernels in cmd/melody-bench.
//
// Every scenario runs on one harness: one function that builds every
// stack (start), one run lifecycle over the narrow backend interface, one
// books check and one leak check. The scenarios differ only in their
// traffic shape and in the checks they add: Run is the closed loop,
// RunOverload the open loop (its result gated by AssertSLO), RunMultiRun
// the closed loop of several tenants once serially and once concurrently,
// and RunFairness ends every round in a synchronized close volley through
// the weighted-fair gate.
package loadgen

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"melody"
	"melody/internal/eventlog"
	"melody/internal/obs"
	"melody/internal/platform"
	"melody/internal/stats"
	"melody/internal/verify"
)

// Backend selects what the server persists to: nothing (the ceiling of
// the serving path), or the group-commit write-ahead log of -wal.
const (
	BackendMem = "mem"
	BackendWAL = "wal"
)

// Scenario parameterizes every load scenario. Zero fields take the
// defaults of the scenario that runs it.
type Scenario struct {
	// Backend is BackendMem or BackendWAL; WALDir hosts each pass's log,
	// a fresh temporary directory when empty. Direct drives the scheduler
	// in process instead of over HTTP, isolating its own concurrency from
	// HTTP serving overhead.
	Backend string
	WALDir  string
	Direct  bool

	// Tenants each drive Runs runs one after another; runs of different
	// tenants overlap freely. Tenant i is "tenant<i>" and its Workers
	// workers are "t<i>w<j>", so each tenant's auction sees only its own
	// bidders. Each tenant's lifetime quota is its season, Runs x Budget.
	Tenants int
	Runs    int
	Workers int
	Tasks   int
	Budget  float64
	// BidsPerWorker is how many bids each worker submits per run in the
	// closed loop (resubmissions after the first keep the ingest path hot
	// without changing the auction), in round trips of Batch bids; <= 1
	// uses the single-bid endpoint.
	BidsPerWorker int
	Batch         int
	Seed          int64

	// EpochEvery batches payouts into epochs of this many finished runs (0
	// settles per run); CloseConcurrency bounds closes running at once
	// through the weighted-fair gate (0 leaves closes ungated).
	EpochEvery       int
	CloseConcurrency int

	// The open loop's arrival process: Rate is its peak offered bids/sec
	// (mean for Poisson, end for ramp, burst for burst), BaseRate the
	// ramp's start and the bursts' background, Duration each run's bidding
	// phase, BurstPeriod the spacing of flash crowds and BurstLen their
	// length.
	Arrival     Arrival
	Rate        float64
	BaseRate    float64
	Duration    time.Duration
	BurstPeriod time.Duration
	BurstLen    time.Duration

	// Observe instruments the whole stack with an obs registry and span
	// ring and attaches its /metrics scrape and span summary to the
	// Result. Admission arms server-side admission control (shed bids are
	// counted, not failures); Adaptive the load clients' AIMD window;
	// Retry overrides their retry policy (MaxAttempts 1 counts a shed
	// once). WrapHandler wraps the outermost HTTP handler, the hook the
	// chaos middleware uses.
	Observe     bool
	Admission   *platform.AdmissionConfig
	Adaptive    *platform.AdaptiveConfig
	Retry       *platform.RetryPolicy
	WrapHandler func(http.Handler) http.Handler
}

// withDefaults fills sc's zero sizes from the scenario's defaults def,
// falling back on 1 tenant, 4 tasks, 8 bids per worker, a budget of 200,
// seed 1 and BackendMem.
func (sc Scenario) withDefaults(def Scenario) Scenario {
	for _, f := range []struct{ v, d *int }{
		{&sc.Tenants, &def.Tenants}, {&sc.Runs, &def.Runs}, {&sc.Workers, &def.Workers},
		{&sc.Tasks, &def.Tasks}, {&sc.BidsPerWorker, &def.BidsPerWorker},
		{&sc.CloseConcurrency, &def.CloseConcurrency},
	} {
		if *f.v <= 0 {
			*f.v = *f.d
		}
	}
	sc.Tenants, sc.Tasks, sc.BidsPerWorker = max(sc.Tenants, 1), cmp.Or(sc.Tasks, 4), cmp.Or(sc.BidsPerWorker, 8)
	if sc.Budget <= 0 {
		sc.Budget = 200
	}
	sc.Seed, sc.Backend = cmp.Or(sc.Seed, 1), cmp.Or(sc.Backend, BackendMem)
	return sc
}

// Latency summarizes per-request latencies in milliseconds.
type Latency struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50_ms"`
	P95 float64 `json:"p95_ms"`
	P99 float64 `json:"p99_ms"`
	Max float64 `json:"max_ms"`
}

// Result is what a scenario measured and checked. A scenario with a serial
// baseline pass (multirun, fairness) reports its second pass.
type Result struct {
	Backend string  `json:"backend"`
	Arrival Arrival `json:"arrival,omitempty"`
	Tenants int     `json:"tenants"`
	// RunsCompleted counts runs that opened, closed, scored and finished.
	RunsCompleted int `json:"runs_completed"`
	// Accepted, Shed (429 from admission control) and Failed partition the
	// Offered bids; ShedRate is Shed / Offered.
	Offered  int     `json:"offered"`
	Accepted int     `json:"accepted"`
	Shed     int     `json:"shed"`
	Failed   int     `json:"failed"`
	ShedRate float64 `json:"shed_rate"`
	// OfferedPerSec and BidsPerSec are offered and accepted bids over the
	// wall-clock time spent in bidding phases.
	BidPhaseSeconds float64 `json:"bid_phase_seconds"`
	OfferedPerSec   float64 `json:"offered_per_sec"`
	BidsPerSec      float64 `json:"bids_per_sec"`
	// Latency summarizes the accepted bid round trips (one batch POST is
	// one sample); shed round trips are fast by design and would flatter
	// the tail.
	Latency Latency `json:"latency"`
	// Speedup is SerialSeconds, the serial pass, over ElapsedSeconds, the
	// (second) pass.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	SerialSeconds  float64 `json:"serial_seconds,omitempty"`
	Speedup        float64 `json:"speedup,omitempty"`
	// OutcomesMatch reports that every run's outcome digest (its
	// assignments with %.17g payments) was byte-identical in both passes.
	OutcomesMatch bool `json:"outcomes_match,omitempty"`
	// Epochs is how many payout epochs the (second) pass settled.
	Epochs int `json:"epochs,omitempty"`

	// FairnessRatio is the max/min ratio of the per-tenant median close
	// latency in the close volleys. Per tenant, the Tenant fields hold the
	// median close latency, the mean and median position (0 = first) at
	// which its close returned within its volley, and how many volleys it
	// returned in the back half (positions Tenants/2 and later). A median
	// latency follows the back-half count, which the mean position hides.
	MinMedianCloseMs     float64   `json:"min_median_close_ms,omitempty"`
	MaxMedianCloseMs     float64   `json:"max_median_close_ms,omitempty"`
	FairnessRatio        float64   `json:"fairness_ratio,omitempty"`
	TenantMedianCloseMs  []float64 `json:"tenant_median_close_ms,omitempty"`
	TenantMeanPosition   []float64 `json:"tenant_mean_position,omitempty"`
	TenantMedianPosition []float64 `json:"tenant_median_position,omitempty"`
	TenantBackHalf       []int     `json:"tenant_back_half,omitempty"`
	// QuotaRefusals counts over-quota opens refused after each tenant's
	// quota was lowered to its spend; SpentMatchesLedger, that tenant spend
	// sums to the requester's ledger outflow; ReplayConsistent, that a
	// reopened WAL reconstructed the tenant statuses and the refusal.
	QuotaRefusals      int  `json:"quota_refusals,omitempty"`
	SpentMatchesLedger bool `json:"spent_matches_ledger,omitempty"`
	ReplayConsistent   bool `json:"replay_consistent,omitempty"`

	// Violations lists every books or leak check that failed; a scenario
	// with violations returns an error naming them. GoroutineStart and
	// GoroutineEnd bracket the scenario.
	Violations     []string `json:"violations,omitempty"`
	GoroutineStart int      `json:"goroutine_start"`
	GoroutineEnd   int      `json:"goroutine_end"`
	// Metrics is the post-run GET /metrics scrape, TraceSummary the
	// retained spans by name, and ClientRetries the clients' transport
	// retries (Observe over HTTP only).
	Metrics       map[string]float64 `json:"metrics,omitempty"`
	TraceSummary  []obs.SpanStat     `json:"trace_summary,omitempty"`
	ClientRetries int64              `json:"client_retries,omitempty"`
}

// backend is what the run lifecycle drives. *melody.RunScheduler and
// *eventlog.PersistentScheduler satisfy it in process; httpBackend over
// HTTP.
type backend interface {
	RegisterWorker(ctx context.Context, workerID string) error
	OpenRun(ctx context.Context, runID, tenant string, tasks []melody.Task, budget float64) error
	SubmitBid(ctx context.Context, runID, workerID string, bid melody.Bid) error
	SubmitBids(ctx context.Context, runID string, bids []melody.WorkerBid) melody.BatchResult
	CloseAuction(ctx context.Context, runID string) (*melody.Outcome, error)
	SubmitScores(ctx context.Context, runID string, scores []melody.TaskScore) melody.BatchResult
	FinishRun(ctx context.Context, runID string) error
}

// httpBackend drives a stack over HTTP: bids through a tenant's load
// client (its tenant header, retry policy and adaptive window), everything
// else through the requester's control client, so control-plane traffic
// is never entangled with the load clients' budgets.
type httpBackend struct{ control, load *platform.Client }

func (b httpBackend) RegisterWorker(ctx context.Context, workerID string) error {
	return b.control.RegisterWorker(ctx, workerID)
}

func (b httpBackend) OpenRun(ctx context.Context, runID, tenant string, tasks []melody.Task, budget float64) error {
	specs := make([]platform.TaskSpec, len(tasks))
	for i, t := range tasks {
		specs[i] = platform.TaskSpec{ID: t.ID, Threshold: t.Threshold}
	}
	_, err := b.control.OpenRunID(ctx, runID, tenant, specs, budget)
	return err
}

func (b httpBackend) SubmitBid(ctx context.Context, runID, workerID string, bid melody.Bid) error {
	return b.load.Run(runID).SubmitBid(ctx, workerID, bid.Cost, bid.Frequency)
}

// SubmitBids fails every item with the call's error when the whole round
// trip failed (a 429 shed among them).
func (b httpBackend) SubmitBids(ctx context.Context, runID string, bids []melody.WorkerBid) melody.BatchResult {
	reqs := make([]platform.BidRequest, len(bids))
	for i, wb := range bids {
		reqs[i] = platform.BidRequest{WorkerID: wb.WorkerID, Cost: wb.Bid.Cost, Frequency: wb.Bid.Frequency}
	}
	res, err := b.load.Run(runID).SubmitBids(ctx, reqs)
	return batchOr(res, err, len(bids))
}

// CloseAuction converts the wire outcome back into the one the digest
// reads.
func (b httpBackend) CloseAuction(ctx context.Context, runID string) (*melody.Outcome, error) {
	resp, err := b.control.Run(runID).CloseAuction(ctx)
	if err != nil {
		return nil, err
	}
	out := &melody.Outcome{SelectedTasks: resp.SelectedTasks, TotalPayment: resp.TotalPayment}
	for _, a := range resp.Assignments {
		out.Assignments = append(out.Assignments, melody.Assignment{WorkerID: a.WorkerID, TaskID: a.TaskID, Payment: a.Payment})
	}
	return out, nil
}

func (b httpBackend) SubmitScores(ctx context.Context, runID string, scores []melody.TaskScore) melody.BatchResult {
	reqs := make([]platform.ScoreRequest, len(scores))
	for i, s := range scores {
		reqs[i] = platform.ScoreRequest{WorkerID: s.WorkerID, TaskID: s.TaskID, Score: s.Score}
	}
	res, err := b.control.Run(runID).SubmitScores(ctx, reqs)
	return batchOr(res, err, len(scores))
}

func (b httpBackend) FinishRun(ctx context.Context, runID string) error {
	return b.control.Run(runID).FinishRun(ctx)
}

// batchOr is res, or n items all failed with err when the call failed.
func batchOr(res melody.BatchResult, err error, n int) melody.BatchResult {
	if err == nil {
		return res
	}
	errs := make([]error, n)
	for i := range errs {
		errs[i] = err
	}
	return melody.NewBatchResult(errs)
}

// stack is one booted serving stack, built the same way for every
// scenario and pass.
type stack struct {
	sc       Scenario
	sched    *melody.RunScheduler
	local    platform.MultiRunBackend // sched, or its durable wrapper
	money    *melody.Ledger
	registry *obs.Registry
	tracer   *obs.Tracer

	// Over HTTP (not Direct): the server, its address, the shared client
	// transport and the requester's control client.
	addr      string
	httpSrv   *http.Server
	serveErr  chan error
	transport *http.Transport
	control   *platform.Client

	cleanups []func() // run LIFO by close
	closed   bool
}

// start boots sc's stack for one pass. The ledger is funded for every
// tenant's season, and each tenant's quota is exactly its season, installed
// as a boot policy before the log opens, as melody-platform installs its
// configured tenants: the workload fits, the books check holds spend to a
// real bound, and the log gains no record. With BackendWAL the log is
// <name>.wal in sc.WALDir, opened through eventlog.OpenPersistentScheduler
// with the spill file melody-platform -wal attaches. Callers must close
// the stack.
func start(sc Scenario, name string) (*stack, error) {
	st := &stack{sc: sc}
	if sc.Observe {
		st.registry = obs.NewRegistry()
		obs.RegisterBaseline(st.registry)
		st.tracer = obs.NewTracer(4096)
	}
	season := sc.Budget * float64(sc.Runs)
	st.money = melody.NewLedger()
	if _, err := st.money.Deposit(melody.RequesterAccount, season*float64(sc.Tenants), "loadgen funding"); err != nil {
		return nil, err
	}
	def := platform.DefaultConfig()
	sched, err := melody.NewRunScheduler(melody.SchedulerConfig{
		Auction: def.Auction(),
		NewEstimator: func(string) (melody.Estimator, error) {
			return melody.NewQualityTracker(def.Tracker(st.registry))
		},
		Ledger:           st.money,
		EpochEvery:       sc.EpochEvery,
		CloseConcurrency: sc.CloseConcurrency,
		Metrics:          st.registry,
		Tracer:           st.tracer,
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < sc.Tenants; i++ {
		policy := melody.UnlimitedTenantPolicy()
		policy.BudgetQuota, policy.Weight = season, 1
		if err := sched.SetTenantPolicy(context.Background(), fmt.Sprintf("tenant%d", i), policy); err != nil {
			return nil, err
		}
	}
	st.sched, st.local = sched, sched

	switch sc.Backend {
	case BackendMem:
	case BackendWAL:
		dir := sc.WALDir
		if dir == "" {
			if dir, err = os.MkdirTemp("", "melody-load-*"); err != nil {
				return nil, err
			}
			st.cleanups = append(st.cleanups, func() { os.RemoveAll(dir) })
		}
		opts := eventlog.Options{SyncEveryAppend: true, Metrics: st.registry, Tracer: st.tracer}
		ps, wal, err := eventlog.OpenPersistentScheduler(filepath.Join(dir, name+".wal"), sched, opts)
		if err != nil {
			st.close()
			return nil, err
		}
		st.cleanups = append(st.cleanups, func() { wal.Close() })
		st.local = ps
	default:
		return nil, fmt.Errorf("loadgen: unknown backend %q", sc.Backend)
	}
	if sc.Direct {
		return st, nil
	}
	if err := st.serve(); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// serve serves the stack on a real TCP listener, not httptest (loadgen
// also runs inside the non-test melody-load binary), and builds the client
// transport and the control client.
func (st *stack) serve() error {
	opts := []platform.ServerOption{platform.WithMetrics(st.registry), platform.WithTracer(st.tracer)}
	if st.sc.Admission != nil {
		opts = append(opts, platform.WithAdmission(*st.sc.Admission))
	}
	srv, err := platform.NewMultiServer(st.local, nil, opts...)
	if err != nil {
		return err
	}
	handler := http.Handler(srv.Handler())
	if st.sc.Observe {
		// The exposition endpoints share the API listener here: loadgen
		// scrapes its own server, the way the smoke test curls a platform.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.Handle("GET /metrics", obs.MetricsHandler(st.registry))
		mux.Handle("GET /debug/traces", obs.TracesHandler(st.tracer))
		handler = mux
	}
	if st.sc.WrapHandler != nil {
		handler = st.sc.WrapHandler(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	st.addr = ln.Addr().String()
	st.httpSrv = &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	st.serveErr = make(chan error, 1)
	go func() { st.serveErr <- st.httpSrv.Serve(ln) }()
	idle := 2 * st.sc.Tenants * st.sc.Workers
	st.transport = &http.Transport{MaxIdleConns: idle, MaxIdleConnsPerHost: idle}
	st.control, err = st.client(platform.ClientOptions{})
	return err
}

// client builds a platform client against the stack's server, wired to
// its observability.
func (st *stack) client(opts platform.ClientOptions) (*platform.Client, error) {
	opts.HTTPClient = &http.Client{Transport: st.transport, Timeout: 30 * time.Second}
	opts.Metrics, opts.Tracer = st.registry, st.tracer
	return platform.NewClientOptions("http://"+st.addr, opts)
}

// backendFor returns the backend tenant drives: the in-process scheduler with
// Direct, else HTTP with a load client that names the tenant, so
// per-tenant admission limits apply to its bids.
func (st *stack) backendFor(tenant string) (backend, error) {
	if st.sc.Direct {
		return st.local, nil
	}
	load, err := st.client(platform.ClientOptions{Tenant: tenant, Retry: st.sc.Retry, Adaptive: st.sc.Adaptive})
	if err != nil {
		return nil, err
	}
	return httpBackend{control: st.control, load: load}, nil
}

// close shuts the server down gracefully and releases everything the
// stack holds; it reports a server that did not come down clean. Calls
// after the first do nothing.
func (st *stack) close() error {
	if st.closed {
		return nil
	}
	st.closed = true
	var err error
	if st.httpSrv != nil {
		// Drop the client's keep-alive connections first: a speculatively
		// dialed conn that never carried a request sits in StateNew on the
		// server and would otherwise hold Shutdown until its read deadline.
		st.transport.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err = st.httpSrv.Shutdown(ctx); err != nil {
			err = fmt.Errorf("loadgen: shutdown: %w", err)
		}
		cancel()
		if serr := <-st.serveErr; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = fmt.Errorf("loadgen: serve: %w", serr)
		}
	}
	for i := len(st.cleanups) - 1; i >= 0; i-- {
		st.cleanups[i]()
	}
	return err
}

// checkBooks settles any mid-epoch remainder, then holds the stack's books
// to account: money conserved, escrow and the epoch pool drained, every
// tenant within its quota, and runs runs completed.
func (st *stack) checkBooks(runs int) []string {
	var failed []string
	for _, err := range []error{
		st.sched.Flush(),
		verify.CheckMoneyConservation(st.money),
		verify.CheckSettlementDrained(st.money),
		verify.CheckTenantQuotas(tenantUsages(st.sched.TenantStatuses())),
	} {
		if err != nil {
			failed = append(failed, err.Error())
		}
	}
	if got := st.sched.CompletedRuns(); got != runs {
		failed = append(failed, fmt.Sprintf("loadgen: platform completed %d runs, want %d", got, runs))
	}
	return failed
}

// observe attaches the stack's own GET /metrics scrape, span summary and
// client retries to res (Observe over HTTP only).
func (st *stack) observe(res *Result) error {
	if !st.sc.Observe || st.sc.Direct {
		return nil
	}
	resp, err := http.Get("http://" + st.addr + "/metrics")
	if err != nil {
		return fmt.Errorf("loadgen: scrape metrics: %w", err)
	}
	defer resp.Body.Close()
	if res.Metrics, err = obs.ParseText(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("loadgen: scrape metrics: HTTP %d: %v", resp.StatusCode, err)
	}
	res.TraceSummary = obs.Summarize(st.tracer.Spans())
	res.ClientRetries = st.registry.Counter(obs.MetricClientRetriesTotal, "").Value()
	return nil
}

// tenant is one tenant's precomputed inputs, shared by every pass so the
// passes drive identical bids, and the backend it drives in the current
// pass.
type tenant struct {
	name    string
	workers []string
	costs   []float64
	be      backend
}

// tenants draws every tenant's worker costs from a per-tenant RNG, so the
// inputs do not depend on scheduling order.
func tenants(sc Scenario) []tenant {
	ts := make([]tenant, sc.Tenants)
	for i := range ts {
		rng := stats.NewRNG(sc.Seed + int64(i)*7919)
		ts[i].name = fmt.Sprintf("tenant%d", i)
		for j := 0; j < sc.Workers; j++ {
			ts[i].workers = append(ts[i].workers, fmt.Sprintf("t%dw%03d", i, j))
			ts[i].costs = append(ts[i].costs, rng.Uniform(1, 2)) // within the qualification range [1, 2]
		}
	}
	return ts
}

// pass is one execution of a scenario's workload against a fresh stack.
type pass struct {
	sc      Scenario
	st      *stack
	tenants []tenant
	tally   tally
	phase   atomic.Int64 // nanoseconds spent in bid phases, summed over tenants
	mu      sync.Mutex
	digests map[string]string // run ID -> outcome digest
}

// shape is a traffic shape: the bids tenant t sends for run between its
// open and its close.
type shape func(p *pass, t *tenant, run string) error

// newPass boots a stack named name and registers every tenant's workers.
func newPass(sc Scenario, name string, ts []tenant) (*pass, error) {
	st, err := start(sc, name)
	if err != nil {
		return nil, err
	}
	p := &pass{sc: sc, st: st, tenants: append([]tenant(nil), ts...), digests: make(map[string]string)}
	ctx := context.Background()
	for i := range p.tenants {
		t := &p.tenants[i]
		if t.be, err = st.backendFor(t.name); err != nil {
			st.close()
			return nil, err
		}
		for _, w := range t.workers {
			if err := t.be.RegisterWorker(ctx, w); err != nil {
				st.close()
				return nil, fmt.Errorf("loadgen: register %s: %w", w, err)
			}
		}
	}
	return p, nil
}

// open opens tenant i's run n.
func (p *pass) open(ctx context.Context, i, n int) (string, error) {
	t := &p.tenants[i]
	run := fmt.Sprintf("%s-r%d", t.name, n)
	tasks := make([]melody.Task, p.sc.Tasks)
	for j := range tasks {
		tasks[j] = melody.Task{ID: fmt.Sprintf("%s-t%d", run, j), Threshold: 10}
	}
	if err := t.be.OpenRun(ctx, run, t.name, tasks, p.sc.Budget); err != nil {
		return run, fmt.Errorf("open %s: %w", run, err)
	}
	return run, nil
}

// bid runs tenant i's traffic for run, timed as bid phase.
func (p *pass) bid(i int, run string, bids shape) error {
	start := time.Now()
	err := bids(p, &p.tenants[i], run)
	p.phase.Add(int64(time.Since(start)))
	return err
}

// close closes tenant i's run and keeps its outcome digest.
func (p *pass) close(ctx context.Context, i int, run string) (*melody.Outcome, error) {
	out, err := p.tenants[i].be.CloseAuction(ctx, run)
	if err != nil {
		return nil, fmt.Errorf("close %s: %w", run, err)
	}
	p.mu.Lock()
	p.digests[run] = digest(out)
	p.mu.Unlock()
	return out, nil
}

// settle scores every assignment of tenant i's run deterministically and
// finishes the run.
func (p *pass) settle(ctx context.Context, i int, run string, out *melody.Outcome) error {
	t := &p.tenants[i]
	scores := make([]melody.TaskScore, 0, len(out.Assignments))
	for _, a := range out.Assignments {
		scores = append(scores, melody.TaskScore{
			WorkerID: a.WorkerID, TaskID: a.TaskID, Score: detScore(t.name, run, a.WorkerID, a.TaskID),
		})
	}
	if len(scores) > 0 {
		if err := t.be.SubmitScores(ctx, run, scores).Err(); err != nil {
			return fmt.Errorf("scores %s: %w", run, err)
		}
	}
	if err := t.be.FinishRun(ctx, run); err != nil {
		return fmt.Errorf("finish %s: %w", run, err)
	}
	return nil
}

// season drives tenant i's runs one after another through the whole
// lifecycle: open, bids, close, score and finish.
func (p *pass) season(ctx context.Context, i int, bids shape) error {
	for n := 1; n <= p.sc.Runs; n++ {
		run, err := p.open(ctx, i, n)
		if err == nil {
			err = p.bid(i, run, bids)
		}
		var out *melody.Outcome
		if err == nil {
			out, err = p.close(ctx, i, run)
		}
		if err == nil {
			err = p.settle(ctx, i, run, out)
		}
		if err != nil {
			return fmt.Errorf("loadgen: %s: %w", p.tenants[i].name, err)
		}
	}
	return nil
}

// runPass drives one pass of sc named name against a fresh stack, every
// tenant's season one after another (serial, ungated) or all at once,
// checks its books into res and returns its digests. res measures a
// concurrent pass; a serial pass is the baseline and only sets
// SerialSeconds.
func runPass(sc Scenario, name string, ts []tenant, concurrent bool, bids shape, res *Result) (map[string]string, error) {
	if !concurrent {
		sc.CloseConcurrency = 0
	}
	p, err := newPass(sc, name, ts)
	if err != nil {
		return nil, err
	}
	defer p.st.close()
	ctx := context.Background()
	start := time.Now()
	if concurrent {
		err = parallel(len(p.tenants), func(i int) error { return p.season(ctx, i, bids) })
	} else {
		for i := 0; i < len(p.tenants) && err == nil; i++ {
			err = p.season(ctx, i, bids)
		}
	}
	if err != nil {
		return nil, err
	}
	if !concurrent {
		res.SerialSeconds = time.Since(start).Seconds()
		return p.digests, p.end(res)
	}
	res.ElapsedSeconds = time.Since(start).Seconds()
	p.measure(res)
	if err := p.st.observe(res); err != nil {
		return nil, err
	}
	return p.digests, p.end(res)
}

// books checks the pass's books into res.
func (p *pass) books(res *Result) {
	res.Violations = append(res.Violations, p.st.checkBooks(p.sc.Tenants*p.sc.Runs)...)
	if s := p.st.sched.Settler(); s != nil {
		res.Epochs = s.Epochs()
	}
}

// end checks the pass's books into res and closes its stack.
func (p *pass) end(res *Result) error {
	p.books(res)
	return p.st.close()
}

// measure fills res's bid and run counts from the pass. The bid phase is
// the tenants' mean.
func (p *pass) measure(res *Result) {
	tl := &p.tally
	res.RunsCompleted = p.st.sched.CompletedRuns()
	res.Accepted, res.Shed, res.Failed = int(tl.accepted.Load()), int(tl.shed.Load()), int(tl.failed.Load())
	res.Offered = res.Accepted + res.Shed + res.Failed
	if res.Offered > 0 {
		res.ShedRate = float64(res.Shed) / float64(res.Offered)
	}
	if res.BidPhaseSeconds = time.Duration(p.phase.Load()).Seconds() / float64(len(p.tenants)); res.BidPhaseSeconds > 0 {
		res.OfferedPerSec = float64(res.Offered) / res.BidPhaseSeconds
		res.BidsPerSec = float64(res.Accepted) / res.BidPhaseSeconds
	}
	res.Latency = summarize(tl.ms)
}

// tally counts a pass's bid round trips.
type tally struct {
	accepted, shed, failed atomic.Int64
	mu                     sync.Mutex
	ms                     []float64 // accepted round trips' latency
}

// record counts one round trip's items and returns the first error that
// is not a shed.
func (tl *tally) record(res melody.BatchResult, d time.Duration) error {
	var first error
	for i := 0; i < res.Len(); i++ {
		switch err := res.ErrAt(i); {
		case err == nil:
			tl.accepted.Add(1)
		case errors.Is(err, melody.ErrOverloaded):
			tl.shed.Add(1)
		default:
			tl.failed.Add(1)
			if first == nil {
				first = err
			}
		}
	}
	if res.OK() {
		tl.mu.Lock()
		tl.ms = append(tl.ms, float64(d.Microseconds())/1000)
		tl.mu.Unlock()
	}
	return first
}

// bidPhase is the closed-loop traffic shape: every worker of t submits
// sc.BidsPerWorker bids for run at once, each waiting for its previous
// round trip, in round trips of sc.Batch bids. A 429 shed is part of the
// measurement; any other failure aborts the run.
func (p *pass) bidPhase(t *tenant, run string) error {
	ctx := context.Background()
	return parallel(len(t.workers), func(i int) error {
		bid := melody.Bid{Cost: t.costs[i], Frequency: 1}
		for done := 0; done < p.sc.BidsPerWorker; {
			t0 := time.Now()
			var res melody.BatchResult
			if p.sc.Batch > 1 {
				bids := make([]melody.WorkerBid, min(p.sc.Batch, p.sc.BidsPerWorker-done))
				for k := range bids {
					bids[k] = melody.WorkerBid{WorkerID: t.workers[i], Bid: bid}
				}
				res = t.be.SubmitBids(ctx, run, bids)
			} else {
				res = melody.NewBatchResult([]error{t.be.SubmitBid(ctx, run, t.workers[i], bid)})
			}
			if err := p.tally.record(res, time.Since(t0)); err != nil {
				return err
			}
			done += res.Len()
		}
		return nil
	})
}

// parallel runs f for 0..n-1 concurrently and returns the first error.
func parallel(n int, f func(i int) error) error {
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := f(i); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	return <-errs // nil when no f failed
}

// detScore is the deterministic score for (tenant, run, worker, task): a
// hash mapped into the quality range [1, 10]. Determinism is what makes
// passes produce comparable quality trajectories, and therefore
// byte-identical outcomes.
func detScore(tenant, runID, worker, task string) float64 {
	h := fnv.New64a()
	for _, s := range []string{tenant, "\x00", runID, "\x00", worker, "\x00", task} {
		_, _ = h.Write([]byte(s))
	}
	return 1 + 9*float64(h.Sum64()%100000)/100000
}

// digest flattens an outcome for cross-pass comparison. The platform
// emits assignments in deterministic order, so the digest is simply the
// full list with %.17g payments (exact float identity).
func digest(out *melody.Outcome) string {
	var b strings.Builder
	for _, a := range out.Assignments {
		fmt.Fprintf(&b, "%s/%s=%.17g;", a.TaskID, a.WorkerID, a.Payment)
	}
	fmt.Fprintf(&b, "total=%.17g", out.TotalPayment)
	return b.String()
}

// compareDigests checks that two passes produced the same runs with
// byte-identical outcomes.
func compareDigests(first, second map[string]string, want int, secondName string) error {
	if len(first) != want || len(second) != want {
		return fmt.Errorf("loadgen: digest count mismatch: serial %d, %s %d, want %d",
			len(first), secondName, len(second), want)
	}
	for id, d := range first {
		if second[id] != d {
			return fmt.Errorf("loadgen: run %s outcome diverged between serial and %s passes", id, secondName)
		}
	}
	return nil
}

// leakSlack is how many more goroutines than at its start a scenario may
// leave once its stacks are down.
const leakSlack = 2

// checkLeaks waits up to 5 s for every server, client and watchdog
// goroutine the scenario started to drain, records the end count, and
// reports a leak.
func checkLeaks(res *Result) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		res.GoroutineEnd = runtime.NumGoroutine()
		if res.GoroutineEnd <= res.GoroutineStart+leakSlack {
			return
		}
		if time.Now().After(deadline) {
			res.Violations = append(res.Violations, fmt.Sprintf("loadgen: goroutine leak: %d before, %d after",
				res.GoroutineStart, res.GoroutineEnd))
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// verdict checks for leaks and fails a result that has violations.
func verdict(res Result) (Result, error) {
	checkLeaks(&res)
	if len(res.Violations) > 0 {
		return res, fmt.Errorf("loadgen: %d invariant violations: %s", len(res.Violations), strings.Join(res.Violations, "; "))
	}
	return res, nil
}

// tenantUsages adapts scheduler tenant statuses to the neutral shape the
// verify package checks.
func tenantUsages(statuses []melody.TenantStatus) []verify.TenantUsage {
	usages := make([]verify.TenantUsage, len(statuses))
	for i, st := range statuses {
		usages[i] = verify.TenantUsage{Tenant: st.Tenant, Spent: st.Spent, Escrowed: st.Escrowed, RunsOpened: st.RunsOpened}
		if p := st.Policy; st.HasPolicy {
			usages[i].HasQuota, usages[i].Quota, usages[i].MaxRuns = p.BudgetQuota >= 0, p.BudgetQuota, p.MaxRuns
		}
	}
	return usages
}

// newResult starts sc's result, counting the goroutines running before it.
func newResult(sc Scenario) Result {
	return Result{Backend: sc.Backend, Arrival: sc.Arrival, Tenants: sc.Tenants, GoroutineStart: runtime.NumGoroutine()}
}

// Run executes the closed loop: each tenant's runs one after another, all
// tenants at once, every worker bidding in a closed loop. Defaults: 1
// tenant, 3 runs, 16 workers, 4 tasks, 8 bids per worker.
func Run(sc Scenario) (Result, error) {
	sc = sc.withDefaults(Scenario{Runs: 3, Workers: 16})
	res := newResult(sc)
	if _, err := runPass(sc, "load", tenants(sc), true, (*pass).bidPhase, &res); err != nil {
		return res, err
	}
	return verdict(res)
}

// summarize reduces round-trip latencies (ms) to percentiles; no samples
// summarize to zeros.
func summarize(ms []float64) Latency {
	l := Latency{N: len(ms)}
	if len(ms) == 0 {
		return l
	}
	for _, q := range []struct {
		q   float64
		dst *float64
	}{{0.50, &l.P50}, {0.95, &l.P95}, {0.99, &l.P99}, {1.0, &l.Max}} {
		*q.dst, _ = stats.Quantile(ms, q.q)
	}
	return l
}
