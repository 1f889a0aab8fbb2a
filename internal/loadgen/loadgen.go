// Package loadgen drives the HTTP serving path end to end under load: it
// boots a real platform server on a loopback listener, runs N concurrent
// worker clients through complete seasons (bid, close, score, finish), and
// reports sustained bid-ingest throughput with latency percentiles. It is
// the measurement engine behind cmd/melody-load and the serve/ kernels in
// cmd/melody-bench.
//
// Two drive modes share one harness: Run is the closed-loop mode (every
// worker waits for its previous request), RunOverload is the open-loop mode
// (arrivals fire on a schedule regardless of completions) used to push a
// server past its capacity and watch admission control shed. AssertSLO
// turns either result into a pass/fail service-level gate for CI.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"melody"
	"melody/internal/eventlog"
	"melody/internal/obs"
	"melody/internal/platform"
	"melody/internal/stats"
)

// Backend selects what the server persists to.
const (
	// BackendMem serves from the in-memory scheduler: no durability, the
	// ceiling of the serving path.
	BackendMem = "mem"
	// BackendWAL serves from the write-ahead-logged scheduler with the
	// group-commit pipeline (the production -wal configuration).
	BackendWAL = "wal"
)

// Config parameterizes a load run.
type Config struct {
	// Backend is BackendMem or BackendWAL.
	Backend string
	// WALDir is where WAL backends put their log file; empty means a fresh
	// temporary directory, removed when the run ends.
	WALDir string
	// Workers is the number of concurrent worker clients.
	Workers int
	// Runs is the number of complete runs (seasons of 1) to drive.
	Runs int
	// Tasks is the number of tasks per run.
	Tasks int
	// Budget is the per-run budget.
	Budget float64
	// BidsPerWorker is how many bids each worker submits per run; bids
	// after the first are resubmissions (the platform replaces them), which
	// keeps the ingest path hot without distorting the auction.
	BidsPerWorker int
	// Batch groups each worker's bids into batch round trips of this size;
	// values <= 1 use the single-bid endpoint.
	Batch int
	// Seed drives every random choice, so a run is reproducible.
	Seed int64
	// Observe instruments the whole stack (server, WAL, auction, client)
	// with an obs registry and span ring, scrapes GET /metrics over the real
	// listener after the run, and attaches the scrape plus a span summary to
	// the Result.
	Observe bool

	// Admission arms server-side admission control; nil serves ungated.
	// With a gate armed, shed bids are counted in Result.Shed instead of
	// failing the run.
	Admission *platform.AdmissionConfig
	// Adaptive arms the load clients' AIMD concurrency window; nil leaves
	// client concurrency fixed.
	Adaptive *platform.AdaptiveConfig
	// Retry overrides the load clients' retry policy; nil keeps the client
	// default. Overload measurements usually want MaxAttempts 1 so a shed
	// is counted once rather than retried into acceptance.
	Retry *platform.RetryPolicy
	// Tenant is sent as the X-Melody-Tenant header by the load clients,
	// engaging per-tenant rate limits when Admission configures them.
	Tenant string
	// Ledger attaches a funded double-entry ledger to the scheduler so every
	// run escrows, pays and refunds real money — the state the money
	// conservation invariants check after an overload run.
	Ledger bool
	// WrapHandler, when non-nil, wraps the outermost HTTP handler — the
	// hook the chaos middleware uses to combine fault injection with
	// overload.
	WrapHandler func(http.Handler) http.Handler
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Backend == "" {
		c.Backend = BackendMem
	}
	if c.Workers <= 0 {
		c.Workers = 16
	}
	if c.Runs <= 0 {
		c.Runs = 3
	}
	if c.Tasks <= 0 {
		c.Tasks = 4
	}
	if c.Budget <= 0 {
		c.Budget = 200
	}
	if c.BidsPerWorker <= 0 {
		c.BidsPerWorker = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Latency summarizes per-request latencies in milliseconds.
type Latency struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50_ms"`
	P95 float64 `json:"p95_ms"`
	P99 float64 `json:"p99_ms"`
	Max float64 `json:"max_ms"`
}

// Result is what a load run measured.
type Result struct {
	Backend string `json:"backend"`
	Workers int    `json:"workers"`
	Runs    int    `json:"runs"`
	// Bids is the total number of bids the platform accepted across all
	// runs. Without admission control every attempted bid is accepted.
	Bids int `json:"bids"`
	// Shed is the number of bids admission control refused with 429.
	Shed int `json:"shed,omitempty"`
	// BidPhaseSeconds is the wall-clock time spent in bidding phases.
	BidPhaseSeconds float64 `json:"bid_phase_seconds"`
	// BidsPerSec is sustained ingest throughput: Bids / BidPhaseSeconds.
	BidsPerSec float64 `json:"bids_per_sec"`
	// Latency summarizes the bid submission round trips (one batch POST is
	// one sample).
	Latency Latency `json:"latency"`
	// ElapsedSeconds is the whole run including scoring and finishing.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// Metrics is the post-run GET /metrics scrape parsed into series
	// (populated only with Config.Observe).
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// TraceSummary aggregates the retained spans by name (populated only
	// with Config.Observe).
	TraceSummary []obs.SpanStat `json:"trace_summary,omitempty"`
	// ClientRetries counts transport-level retries the load clients made
	// (populated only with Config.Observe).
	ClientRetries int64 `json:"client_retries,omitempty"`
}

// harness is one booted serving stack: a one-tenant run scheduler
// (optionally WAL-backed and ledger-funded), HTTP server on a real
// loopback listener, and a shared client transport. Both drive modes build
// on it.
type harness struct {
	cfg      Config
	registry *obs.Registry
	tracer   *obs.Tracer
	sched    *melody.RunScheduler
	money    *melody.Ledger // nil without Config.Ledger
	addr     string

	httpSrv   *http.Server
	serveErr  chan error
	transport *http.Transport
	cleanups  []func() // run LIFO by close()
	closed    bool
}

// startHarness boots the serving stack for cfg. Callers must call close()
// (idempotent); shutdown() first for a verified graceful stop.
func startHarness(cfg Config) (*harness, error) {
	h := &harness{cfg: cfg}
	if cfg.Observe {
		h.registry = obs.NewRegistry()
		obs.RegisterBaseline(h.registry)
		h.tracer = obs.NewTracer(4096)
	}

	if cfg.Ledger {
		h.money = melody.NewLedger()
		// Fund the requester for every run's escrow up front; finishes
		// refund what the auction did not spend.
		if _, err := h.money.Deposit(melody.RequesterAccount, cfg.Budget*float64(cfg.Runs), "loadgen funding"); err != nil {
			return nil, err
		}
	}
	var err error
	def := platform.DefaultConfig()
	h.sched, err = melody.NewRunScheduler(melody.SchedulerConfig{
		Auction: def.Auction(),
		NewEstimator: func(string) (melody.Estimator, error) {
			return melody.NewQualityTracker(def.Tracker(h.registry))
		},
		Ledger:  h.money,
		Metrics: h.registry,
		Tracer:  h.tracer,
	})
	if err != nil {
		return nil, err
	}

	var backend platform.MultiRunBackend = h.sched
	switch cfg.Backend {
	case BackendMem:
	case BackendWAL:
		dir := cfg.WALDir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "melody-load-*")
			if err != nil {
				return nil, err
			}
			h.cleanups = append(h.cleanups, func() { os.RemoveAll(tmp) })
			dir = tmp
		}
		opts := eventlog.Options{
			SyncEveryAppend: true,
			Metrics:         h.registry,
			Tracer:          h.tracer,
		}
		ps, wal, err := eventlog.OpenPersistentScheduler(filepath.Join(dir, "load.wal"), h.sched, opts)
		if err != nil {
			h.close()
			return nil, err
		}
		h.cleanups = append(h.cleanups, func() { wal.Close() })
		backend = ps
	default:
		h.close()
		return nil, fmt.Errorf("loadgen: unknown backend %q", cfg.Backend)
	}

	srvOpts := []platform.ServerOption{
		platform.WithMetrics(h.registry), platform.WithTracer(h.tracer),
	}
	if cfg.Admission != nil {
		srvOpts = append(srvOpts, platform.WithAdmission(*cfg.Admission))
	}
	srv, err := platform.NewMultiServer(backend, nil, srvOpts...)
	if err != nil {
		h.close()
		return nil, err
	}
	handler := http.Handler(srv.Handler())
	if cfg.Observe {
		// The exposition endpoints share the API listener here: loadgen
		// scrapes its own server, the way the smoke test curls a platform.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.Handle("GET /metrics", obs.MetricsHandler(h.registry))
		mux.Handle("GET /debug/traces", obs.TracesHandler(h.tracer))
		handler = mux
	}
	if cfg.WrapHandler != nil {
		handler = cfg.WrapHandler(handler)
	}
	if err := h.serve(handler, cfg.Workers*2); err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

// serve serves handler on a real TCP listener, not httptest (loadgen also
// runs inside the non-test melody-load binary), and builds the client
// transport, which keeps idleConns idle connections.
func (h *harness) serve(handler http.Handler, idleConns int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h.addr = ln.Addr().String()
	h.httpSrv = &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	h.serveErr = make(chan error, 1)
	go func() { h.serveErr <- h.httpSrv.Serve(ln) }()
	h.transport = &http.Transport{MaxIdleConns: idleConns, MaxIdleConnsPerHost: idleConns}
	return nil
}

// client builds a platform client against the harness server, wired to the
// harness observability and the Config's retry/adaptive/tenant knobs.
func (h *harness) client() (*platform.Client, error) {
	return platform.NewClientOptions("http://"+h.addr, platform.ClientOptions{
		HTTPClient: &http.Client{Transport: h.transport, Timeout: 30 * time.Second},
		Metrics:    h.registry,
		Tracer:     h.tracer,
		Retry:      h.cfg.Retry,
		Adaptive:   h.cfg.Adaptive,
		Tenant:     h.cfg.Tenant,
	})
}

// controlClient is the requester-side client: no tenant identity and no
// adaptive window, so control-plane traffic is never entangled with the
// load clients' budgets. (The server exempts the control plane anyway;
// this keeps the measurement honest too.)
func (h *harness) controlClient() (*platform.Client, error) {
	return platform.NewClientOptions("http://"+h.addr, platform.ClientOptions{
		HTTPClient: &http.Client{Transport: h.transport, Timeout: 30 * time.Second},
		Metrics:    h.registry,
		Tracer:     h.tracer,
	})
}

// shutdown stops the server gracefully and verifies Serve exited clean.
func (h *harness) shutdown() error {
	// Drop the client's keep-alive connections first — a speculatively
	// dialed conn that never carried a request sits in StateNew on the
	// server and would otherwise hold Shutdown until its read deadline.
	h.transport.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("loadgen: shutdown: %w", err)
	}
	if err := <-h.serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("loadgen: serve: %w", err)
	}
	h.serveErr = nil
	return nil
}

// close releases everything the harness holds; safe to call twice and
// after shutdown.
func (h *harness) close() {
	if h.closed {
		return
	}
	h.closed = true
	if h.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = h.httpSrv.Shutdown(ctx)
		cancel()
		if h.serveErr != nil {
			<-h.serveErr
		}
	}
	if h.transport != nil {
		h.transport.CloseIdleConnections()
	}
	for i := len(h.cleanups) - 1; i >= 0; i-- {
		h.cleanups[i]()
	}
	h.cleanups = nil
}

// scrape fetches the harness's own /metrics endpoint (Observe only).
func (h *harness) scrape() (map[string]float64, error) {
	return scrapeMetrics("http://" + h.addr + "/metrics")
}

// Run executes one closed-loop load run and returns its measurements.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	h, err := startHarness(cfg)
	if err != nil {
		return Result{}, err
	}
	defer h.close()

	client, err := h.client()
	if err != nil {
		return Result{}, err
	}
	control, err := h.controlClient()
	if err != nil {
		return Result{}, err
	}

	ctx := context.Background()
	rng := stats.NewRNG(cfg.Seed)
	workerIDs := make([]string, cfg.Workers)
	costs := make([]float64, cfg.Workers)
	for i := range workerIDs {
		workerIDs[i] = fmt.Sprintf("w%04d", i)
		costs[i] = rng.Uniform(1, 2) // within the qualification range [1, 2]
		if err := control.RegisterWorker(ctx, workerIDs[i]); err != nil {
			return Result{}, fmt.Errorf("loadgen: register %s: %w", workerIDs[i], err)
		}
	}

	res := Result{Backend: cfg.Backend, Workers: cfg.Workers, Runs: cfg.Runs}
	var latMu sync.Mutex
	var latencies []float64 // ms per submission round trip
	var accepted, shed atomic.Int64

	start := time.Now()
	for run := 1; run <= cfg.Runs; run++ {
		tasks := make([]platform.TaskSpec, cfg.Tasks)
		for j := range tasks {
			tasks[j] = platform.TaskSpec{ID: fmt.Sprintf("r%d-t%d", run, j), Threshold: 10}
		}
		ctl, err := control.OpenRunID(ctx, "", "", tasks, cfg.Budget)
		if err != nil {
			return Result{}, fmt.Errorf("loadgen: open run %d: %w", run, err)
		}
		bids := client.Run(ctl.ID())

		// Bid phase: every worker hammers the ingest path concurrently. A
		// 429 shed is part of the measurement, not a failure; anything else
		// aborts the run.
		bidStart := time.Now()
		var wg sync.WaitGroup
		errCh := make(chan error, cfg.Workers)
		for i := 0; i < cfg.Workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				id, cost := workerIDs[i], costs[i]
				local := make([]float64, 0, cfg.BidsPerWorker)
				if cfg.Batch > 1 {
					for done := 0; done < cfg.BidsPerWorker; {
						n := cfg.Batch
						if rem := cfg.BidsPerWorker - done; n > rem {
							n = rem
						}
						reqs := make([]platform.BidRequest, n)
						for k := range reqs {
							reqs[k] = platform.BidRequest{WorkerID: id, Cost: cost, Frequency: 1}
						}
						t0 := time.Now()
						res, err := bids.SubmitBids(ctx, reqs)
						switch {
						case err == nil:
							local = append(local, float64(time.Since(t0).Microseconds())/1000)
							if err := res.Err(); err != nil {
								errCh <- err
								return
							}
							accepted.Add(int64(n))
						case errors.Is(err, melody.ErrOverloaded):
							shed.Add(int64(n))
						default:
							errCh <- err
							return
						}
						done += n
					}
				} else {
					for k := 0; k < cfg.BidsPerWorker; k++ {
						t0 := time.Now()
						err := bids.SubmitBid(ctx, id, cost, 1)
						switch {
						case err == nil:
							local = append(local, float64(time.Since(t0).Microseconds())/1000)
							accepted.Add(1)
						case errors.Is(err, melody.ErrOverloaded):
							shed.Add(1)
						default:
							errCh <- err
							return
						}
					}
				}
				latMu.Lock()
				latencies = append(latencies, local...)
				latMu.Unlock()
			}(i)
		}
		wg.Wait()
		select {
		case err := <-errCh:
			return Result{}, fmt.Errorf("loadgen: bid phase run %d: %w", run, err)
		default:
		}
		res.BidPhaseSeconds += time.Since(bidStart).Seconds()

		out, err := ctl.CloseAuction(ctx)
		if err != nil {
			return Result{}, fmt.Errorf("loadgen: close run %d: %w", run, err)
		}
		scores := make([]platform.ScoreRequest, 0, len(out.Assignments))
		for _, asg := range out.Assignments {
			scores = append(scores, platform.ScoreRequest{
				WorkerID: asg.WorkerID, TaskID: asg.TaskID, Score: rng.Uniform(1, 10),
			})
		}
		if len(scores) > 0 {
			res, err := ctl.SubmitScores(ctx, scores)
			if err != nil {
				return Result{}, fmt.Errorf("loadgen: score run %d: %w", run, err)
			}
			if err := res.Err(); err != nil {
				return Result{}, fmt.Errorf("loadgen: score run %d: %w", run, err)
			}
		}
		if err := ctl.FinishRun(ctx); err != nil {
			return Result{}, fmt.Errorf("loadgen: finish run %d: %w", run, err)
		}
	}
	res.ElapsedSeconds = time.Since(start).Seconds()
	res.Bids = int(accepted.Load())
	res.Shed = int(shed.Load())
	if res.BidPhaseSeconds > 0 {
		res.BidsPerSec = float64(res.Bids) / res.BidPhaseSeconds
	}

	// A run where admission shed everything has no samples; that is a
	// measurement (melody-load turns it into a failing exit), not an error.
	if len(latencies) > 0 || res.Shed == 0 {
		res.Latency, err = summarize(latencies)
		if err != nil {
			return Result{}, err
		}
	}

	if cfg.Observe {
		series, err := h.scrape()
		if err != nil {
			return Result{}, err
		}
		res.Metrics = series
		res.TraceSummary = obs.Summarize(h.tracer.Spans())
		res.ClientRetries = h.registry.Counter(obs.MetricClientRetriesTotal, "").Value()
	}

	// The server must come down cleanly: Shutdown makes Serve return
	// ErrServerClosed, anything else is a failure worth surfacing.
	if err := h.shutdown(); err != nil {
		return Result{}, err
	}
	return res, nil
}

// scrapeMetrics fetches and parses a Prometheus text exposition.
func scrapeMetrics(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, fmt.Errorf("loadgen: scrape metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: scrape metrics: HTTP %d", resp.StatusCode)
	}
	series, err := obs.ParseText(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("loadgen: scrape metrics: %w", err)
	}
	return series, nil
}

// summarize reduces round-trip latencies (ms) to percentiles.
func summarize(ms []float64) (Latency, error) {
	if len(ms) == 0 {
		return Latency{}, errors.New("loadgen: no latency samples")
	}
	l := Latency{N: len(ms)}
	for _, q := range []struct {
		q   float64
		dst *float64
	}{{0.50, &l.P50}, {0.95, &l.P95}, {0.99, &l.P99}, {1.0, &l.Max}} {
		v, err := stats.Quantile(ms, q.q)
		if err != nil {
			return Latency{}, err
		}
		*q.dst = v
	}
	return l, nil
}
