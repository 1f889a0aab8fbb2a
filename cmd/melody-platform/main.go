// Command melody-platform serves the MELODY crowdsourcing platform over
// HTTP: worker registration, per-run reverse auctions (Algorithm 1), answer
// and score collection, and LDS-based quality tracking between runs
// (Algorithms 2-3). Pair it with cmd/melody-worker agents and a
// cmd/melody-requester driver.
//
// Configuration resolves in three layers: built-in defaults
// (platform.DefaultConfig), then a -config JSON file, then explicit
// command-line flags. The resolved configuration is logged at startup.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // profiling endpoints on the -pprof side listener
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"melody"
	"melody/internal/chaos"
	"melody/internal/eventlog"
	"melody/internal/obs"
	"melody/internal/platform"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "melody-platform:", err)
		os.Exit(1)
	}
}

// resolveConfig binds every flag with defaults from platform.DefaultConfig,
// loads the optional -config JSON file as the base layer, and then applies
// only the flags the user explicitly set on top of it.
func resolveConfig() (platform.Config, error) {
	def := platform.DefaultConfig()
	var (
		configPath  = flag.String("config", "", "JSON config file (see platform.Config); explicit flags override its values")
		addr        = flag.String("addr", def.Addr, "listen address")
		qualityMin  = flag.Float64("quality-min", def.QualityMin, "qualification quality floor (Theta_m)")
		qualityMax  = flag.Float64("quality-max", def.QualityMax, "qualification quality ceiling (Theta_M)")
		costMin     = flag.Float64("cost-min", def.CostMin, "qualification cost floor (C_m)")
		costMax     = flag.Float64("cost-max", def.CostMax, "qualification cost ceiling (C_M)")
		initMean    = flag.Float64("init-mean", def.InitMean, "initial quality belief mean (mu^0)")
		initVar     = flag.Float64("init-var", def.InitVar, "initial quality belief variance (sigma^0)")
		emPeriod    = flag.Int("em-period", def.EMPeriod, "EM re-estimation period T (0 disables)")
		walPath     = flag.String("wal", def.WAL, "single-file write-ahead log path; enables durable state and crash recovery")
		walDir      = flag.String("wal-dir", def.WALDir, "segmented storage engine directory; enables durable state, snapshots, bounded recovery and replication")
		segBytes    = flag.Int64("segment-bytes", def.SegmentBytes, "segment rotation threshold for -wal-dir")
		snapEvery   = flag.Int("snapshot-every", def.SnapshotEvery, "take a state snapshot once this many records accumulated since the last one (0 disables; requires -wal-dir)")
		noCompact   = flag.Bool("no-compaction", def.NoCompaction, "keep snapshot-covered segments on disk (requires -wal-dir)")
		replicaOf   = flag.String("replica-of", def.ReplicaOf, "run as a replica of the primary at this base URL, mirroring its -wal-dir files locally (requires -wal-dir)")
		replicaID   = flag.String("replica-id", def.ReplicaID, "replica name reported in acks (default: hostname)")
		promote     = flag.Bool("promote", def.Promote, "promote: boot as primary from a directory previously populated by -replica-of (requires -wal-dir)")
		maxInflight = flag.Int("max-inflight", def.MaxInFlight, "admission control: concurrent ingest requests before queuing/shedding (0 disables)")
		ansInflight = flag.Int("answer-inflight", def.AnswerInFlight, "admission control: separate concurrent-request budget for answer submission, so answer uploads cannot starve bid ingest (0 disables)")
		admitQueue  = flag.Int("admission-queue", def.AdmissionQueue, "admission control: ingest requests allowed to wait for a slot before shedding (with -max-inflight)")
		queueTO     = flag.Duration("queue-timeout", def.QueueTimeout.Std(), "admission control: longest a queued ingest request waits before it is shed (default 100ms)")
		tenantRate  = flag.Float64("tenant-rate", def.TenantRate, "admission control: per-tenant ingest budget in requests/sec via the X-Melody-Tenant header (0 disables)")
		tenantBurst = flag.Float64("tenant-burst", def.TenantBurst, "admission control: per-tenant token bucket capacity (default max(1, -tenant-rate))")
		retryAfter  = flag.Duration("retry-after", def.RetryAfter.Std(), "admission control: Retry-After hint attached to 429 sheds (default 250ms)")
		epochEvery  = flag.Int("epoch-every", def.EpochEvery, "settle worker payouts in epochs of this many finished runs instead of per run (requires -fund)")
		fund        = flag.Float64("fund", def.Fund, "deposit this much into the requester's ledger account at boot; enables double-entry settlement (budgets escrow on open, payouts on finish)")
		shards      = flag.Int("registry-shards", def.RegistryShards, "worker registry stripe count, fixed at boot and rounded up to a power of two (0 uses the default, 32)")
		closeConc   = flag.Int("close-concurrency", def.CloseConcurrency, "weighted-fair gate: auction closes allowed to run concurrently across tenants (0 disables the gate)")
		bidDL       = flag.Duration("bid-deadline", def.BidDeadline.Std(), "close a run's auction after this long in bidding (0 disables)")
		scoreDL     = flag.Duration("score-deadline", def.ScoreDeadline.Std(), "finish a run after this long in scoring, treating absent winners as missing (0 disables)")
		chaosSpec   = flag.String("chaos", def.Chaos, `inject deterministic faults in front of the API, e.g. "seed=42,drop=0.05,dup=0.1,err=0.02,lose=0.03,delay=1ms-20ms"`)
		pprofAddr   = flag.String("pprof", def.PprofAddr, "serve net/http/pprof (plus /metrics and /debug/traces) on this side address (e.g. 127.0.0.1:6060); empty disables")
		metricsAddr = flag.String("metrics", def.MetricsAddr, "serve /metrics and /debug/traces on this side address (e.g. 127.0.0.1:9090); empty disables")
		traceCap    = flag.Int("trace-capacity", def.TraceCapacity, "bounded span ring size for /debug/traces")
		logLevel    = flag.String("log-level", def.LogLevel, "log level: debug, info, warn, error")
	)
	flag.Parse()

	cfg := def
	if *configPath != "" {
		loaded, err := platform.LoadConfig(*configPath)
		if err != nil {
			return cfg, err
		}
		cfg = loaded
	}
	// A flag the user typed beats the file; a flag left at its default does
	// not clobber a file-provided value.
	overrides := map[string]func(){
		"addr":              func() { cfg.Addr = *addr },
		"quality-min":       func() { cfg.QualityMin = *qualityMin },
		"quality-max":       func() { cfg.QualityMax = *qualityMax },
		"cost-min":          func() { cfg.CostMin = *costMin },
		"cost-max":          func() { cfg.CostMax = *costMax },
		"init-mean":         func() { cfg.InitMean = *initMean },
		"init-var":          func() { cfg.InitVar = *initVar },
		"em-period":         func() { cfg.EMPeriod = *emPeriod },
		"wal":               func() { cfg.WAL = *walPath },
		"wal-dir":           func() { cfg.WALDir = *walDir },
		"segment-bytes":     func() { cfg.SegmentBytes = *segBytes },
		"snapshot-every":    func() { cfg.SnapshotEvery = *snapEvery },
		"no-compaction":     func() { cfg.NoCompaction = *noCompact },
		"replica-of":        func() { cfg.ReplicaOf = *replicaOf },
		"replica-id":        func() { cfg.ReplicaID = *replicaID },
		"promote":           func() { cfg.Promote = *promote },
		"max-inflight":      func() { cfg.MaxInFlight = *maxInflight },
		"answer-inflight":   func() { cfg.AnswerInFlight = *ansInflight },
		"admission-queue":   func() { cfg.AdmissionQueue = *admitQueue },
		"queue-timeout":     func() { cfg.QueueTimeout = platform.Duration(*queueTO) },
		"tenant-rate":       func() { cfg.TenantRate = *tenantRate },
		"tenant-burst":      func() { cfg.TenantBurst = *tenantBurst },
		"retry-after":       func() { cfg.RetryAfter = platform.Duration(*retryAfter) },
		"epoch-every":       func() { cfg.EpochEvery = *epochEvery },
		"fund":              func() { cfg.Fund = *fund },
		"registry-shards":   func() { cfg.RegistryShards = *shards },
		"close-concurrency": func() { cfg.CloseConcurrency = *closeConc },
		"bid-deadline":      func() { cfg.BidDeadline = platform.Duration(*bidDL) },
		"score-deadline":    func() { cfg.ScoreDeadline = platform.Duration(*scoreDL) },
		"chaos":             func() { cfg.Chaos = *chaosSpec },
		"pprof":             func() { cfg.PprofAddr = *pprofAddr },
		"metrics":           func() { cfg.MetricsAddr = *metricsAddr },
		"trace-capacity":    func() { cfg.TraceCapacity = *traceCap },
		"log-level":         func() { cfg.LogLevel = *logLevel },
	}
	flag.Visit(func(f *flag.Flag) {
		if apply, ok := overrides[f.Name]; ok {
			apply()
		}
	})
	return cfg, cfg.Validate()
}

func run() error {
	cfg, err := resolveConfig()
	if err != nil {
		return err
	}

	level, err := parseLogLevel(cfg.LogLevel)
	if err != nil {
		return err
	}
	logger := obs.NewLogger(os.Stderr, level).With("component", "melody-platform")
	logger.Info("resolved config", "config", cfg.String())

	// One registry and one span ring serve the whole process; every layer
	// (WAL, platform core, HTTP server, chaos) records into them.
	registry := obs.NewRegistry()
	obs.RegisterBaseline(registry)
	tracer := obs.NewTracer(cfg.TraceCapacity)

	if cfg.ReplicaOf != "" {
		return runReplica(logger, registry, tracer, cfg.ReplicaOf, cfg.WALDir, cfg.ReplicaID, cfg.MetricsAddr)
	}

	var money *melody.Ledger
	if cfg.Fund > 0 {
		money = melody.NewLedger()
		if _, err := money.Deposit(melody.RequesterAccount, cfg.Fund, "boot funding"); err != nil {
			return err
		}
		logger.Info("ledger funded", "requester_deposit", cfg.Fund)
	}
	serverOpts := []platform.ServerOption{
		platform.WithDeadlines(cfg.BidDeadline.Std(), cfg.ScoreDeadline.Std()),
		platform.WithMetrics(registry),
		platform.WithTracer(tracer),
	}
	admission := platform.AdmissionConfig{
		MaxInFlight:       cfg.MaxInFlight,
		AnswerMaxInFlight: cfg.AnswerInFlight,
		MaxQueue:          cfg.AdmissionQueue,
		QueueTimeout:      cfg.QueueTimeout.Std(),
		TenantRatePerSec:  cfg.TenantRate,
		TenantBurst:       cfg.TenantBurst,
		RetryAfter:        cfg.RetryAfter.Std(),
	}
	if cfg.MaxInFlight > 0 || cfg.TenantRate > 0 || cfg.AnswerInFlight > 0 {
		serverOpts = append(serverOpts, platform.WithAdmission(admission))
		logger.Info("admission control armed",
			"max_inflight", cfg.MaxInFlight, "answer_inflight", cfg.AnswerInFlight,
			"queue", cfg.AdmissionQueue, "tenant_rate", cfg.TenantRate)
	}

	// The run scheduler serves concurrent runs keyed by ID, one platform
	// (estimator + auction) per tenant, created on a tenant's first open.
	// A deployment with one tenant runs everything under the default one.
	sched, err := melody.NewRunScheduler(melody.SchedulerConfig{
		Auction: cfg.Auction(),
		NewEstimator: func(string) (melody.Estimator, error) {
			return melody.NewQualityTracker(cfg.Tracker(registry))
		},
		Ledger:           money,
		EpochEvery:       cfg.EpochEvery,
		RegistryShards:   cfg.RegistryShards,
		CloseConcurrency: cfg.CloseConcurrency,
		Metrics:          registry,
		Tracer:           tracer,
	})
	if err != nil {
		return err
	}
	// Boot-time tenant policies from the config file apply before WAL
	// recovery, so recovered runtime PUTs override them.
	names := make([]string, 0, len(cfg.Tenants))
	for name := range cfg.Tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := sched.SetTenantPolicy(context.Background(), name, cfg.Tenants[name].Policy()); err != nil {
			return fmt.Errorf("tenant %q boot policy: %w", name, err)
		}
		logger.Info("tenant policy provisioned", "tenant", name)
	}
	walOpts := eventlog.Options{SyncEveryAppend: true, Metrics: registry, Tracer: tracer}
	var backend platform.MultiRunBackend = sched
	switch {
	case cfg.WAL != "":
		persistent, wal, err := eventlog.OpenPersistentScheduler(cfg.WAL, sched, walOpts)
		if err != nil {
			return err
		}
		defer wal.Close()
		backend = persistent
		logger.Info("durable state recovered", "wal", cfg.WAL, "completed_runs", sched.CompletedRuns(),
			"open_runs", len(sched.OpenRuns()), "workers", len(sched.Workers()))
	case cfg.WALDir != "":
		// Promotion of a replica is nothing special: the replica's directory
		// holds a byte-identical copy of the primary's durable files, so the
		// standard recovery path reconstructs exactly the state the primary
		// had acknowledged.
		persistent, seg, err := eventlog.OpenSegmentedScheduler(cfg.WALDir, sched, eventlog.SegmentedOptions{
			Options:           walOpts,
			SegmentBytes:      cfg.SegmentBytes,
			SnapshotEvery:     cfg.SnapshotEvery,
			DisableCompaction: cfg.NoCompaction,
		})
		if err != nil {
			return err
		}
		defer seg.Close()
		backend = persistent
		serverOpts = append(serverOpts, platform.WithReplicationSource(seg))
		event := "durable state recovered"
		if cfg.Promote {
			event = "replica promoted to primary"
		}
		logger.Info(event, "wal_dir", cfg.WALDir, "completed_runs", sched.CompletedRuns(),
			"open_runs", len(sched.OpenRuns()), "workers", len(sched.Workers()),
			"snapshot_seq", seg.SnapshotSeq(), "seq", seg.Seq())
	}
	srv, err := platform.NewMultiServer(backend, logger, serverOpts...)
	if err != nil {
		return err
	}
	logger.Info("run scheduler serving", "epoch_every", cfg.EpochEvery,
		"registry_shards", cfg.RegistryShards, "close_concurrency", cfg.CloseConcurrency)
	handler := srv.Handler()
	if cfg.Chaos != "" {
		scenario, err := chaos.Parse(cfg.Chaos)
		if err != nil {
			return err
		}
		handler, err = chaos.Middleware(scenario, handler, chaos.WithMetrics(registry))
		if err != nil {
			return err
		}
		logger.Info("chaos injection active", "scenario", scenario.String())
	}

	// /metrics (Prometheus text) and /debug/traces (JSON span ring) mount on
	// http.DefaultServeMux so both side listeners serve them.
	http.Handle("GET /metrics", obs.MetricsHandler(registry))
	http.Handle("GET /debug/traces", obs.TracesHandler(tracer))

	// The profiler gets its own listener so it never shares a port (or an
	// accidental exposure) with the public API; the blank net/http/pprof
	// import registers its handlers on http.DefaultServeMux, next to
	// /metrics and /debug/traces above.
	sideAddrs := []struct{ name, addr string }{{"pprof", cfg.PprofAddr}}
	if cfg.MetricsAddr != "" && cfg.MetricsAddr != cfg.PprofAddr {
		sideAddrs = append(sideAddrs, struct{ name, addr string }{"metrics", cfg.MetricsAddr})
	}
	for _, side := range sideAddrs {
		if side.addr == "" {
			continue
		}
		side := side
		go func() {
			sideSrv := &http.Server{
				Addr:              side.addr,
				Handler:           http.DefaultServeMux,
				ReadHeaderTimeout: 5 * time.Second,
			}
			logger.Info("side listener up", "purpose", side.name, "addr", side.addr)
			if err := sideSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Warn("side listener failed", "purpose", side.name, "error", err)
			}
		}()
	}

	httpSrv := &http.Server{
		Addr:              cfg.Addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", cfg.Addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// runReplica follows a primary, mirroring its segmented storage engine into
// the local -wal-dir until interrupted. The process serves no platform API:
// its product is the directory, which a later `-wal-dir <dir> -promote`
// start turns into a primary.
func runReplica(logger *slog.Logger, registry *obs.Registry, tracer *obs.Tracer, primaryURL, dir, id, metricsAddr string) error {
	src, err := platform.NewReplicationClient(primaryURL, nil)
	if err != nil {
		return err
	}
	rep, err := eventlog.NewReplicator(eventlog.ReplicatorConfig{
		Dir:     dir,
		Source:  src,
		ID:      id,
		Metrics: registry,
		Tracer:  tracer,
	})
	if err != nil {
		return err
	}
	if metricsAddr != "" {
		http.Handle("GET /metrics", obs.MetricsHandler(registry))
		http.Handle("GET /debug/traces", obs.TracesHandler(tracer))
		go func() {
			sideSrv := &http.Server{
				Addr:              metricsAddr,
				Handler:           http.DefaultServeMux,
				ReadHeaderTimeout: 5 * time.Second,
			}
			logger.Info("side listener up", "purpose", "metrics", "addr", metricsAddr)
			if err := sideSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Warn("side listener failed", "purpose", "metrics", "error", err)
			}
		}()
	}
	logger.Info("replicating", "primary", primaryURL, "dir", dir)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = rep.Run(ctx)
	seg, off := rep.Position()
	logger.Info("replication stopped", "rounds", rep.Rounds(), "segment", seg, "offset", off)
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}

// parseLogLevel maps the -log-level flag onto a slog.Level.
func parseLogLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", s)
}
