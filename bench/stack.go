package main

// This is the only file that names the serving stack's constructors. It
// wires the stack the way cmd/melody-platform wires
// `-multi -wal PATH -fund F -epoch-every 8`, so the benchmark measures the
// deployed configuration: one obs registry and tracer, a RunScheduler with
// the default auction and tracker settings over a funded ledger, the
// PersistentScheduler over a group-commit JSONL log with SyncEveryAppend,
// and the multi-run HTTP server on a loopback listener.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"melody"
	"melody/internal/eventlog"
	"melody/internal/obs"
	"melody/internal/platform"
)

// epochEvery is cmd/melody-platform's -epoch-every as the benchmark runs it.
const epochEvery = 8

// auctionConfig is the qualification intervals of platform.DefaultConfig.
func auctionConfig() melody.AuctionConfig {
	def := platform.DefaultConfig()
	return melody.AuctionConfig{
		QualityMin: def.QualityMin, QualityMax: def.QualityMax,
		CostMin: def.CostMin, CostMax: def.CostMax,
	}
}

// newTracker builds one tenant's quality tracker with the settings
// cmd/melody-platform uses.
func newTracker(reg *obs.Registry) (melody.Estimator, error) {
	def := platform.DefaultConfig()
	return melody.NewQualityTracker(melody.QualityTrackerConfig{
		InitialMean: def.InitMean,
		InitialVar:  def.InitVar,
		Params:      melody.QualityParams{A: 1, Gamma: 0.3, Eta: 9},
		EMPeriod:    def.EMPeriod,
		EMWindow:    60,
		Metrics:     reg,
	})
}

// newScheduler builds a scheduler over a ledger funded with fund. reg and
// obsTracer may be nil; wrap, when non-nil, decorates each tenant's
// estimator.
func newScheduler(fund float64, reg *obs.Registry, obsTracer *obs.Tracer, wrap func(melody.Estimator) melody.Estimator) (*melody.RunScheduler, *melody.Ledger, error) {
	money := melody.NewLedger()
	if _, err := money.Deposit(melody.RequesterAccount, fund, "boot funding"); err != nil {
		return nil, nil, err
	}
	def := platform.DefaultConfig()
	sched, err := melody.NewRunScheduler(melody.SchedulerConfig{
		Auction: auctionConfig(),
		NewEstimator: func(string) (melody.Estimator, error) {
			est, err := newTracker(reg)
			if err != nil || wrap == nil {
				return est, err
			}
			return wrap(est), nil
		},
		Ledger:           money,
		EpochEvery:       epochEvery,
		RegistryShards:   def.RegistryShards,
		CloseConcurrency: def.CloseConcurrency,
		Metrics:          reg,
		Tracer:           obsTracer,
	})
	if err != nil {
		return nil, nil, err
	}
	return sched, money, nil
}

// newReference builds the serial reference: a fresh scheduler with the
// same mechanism and estimator settings and no ledger, log or server.
// Outcomes do not depend on money, so the reference needs none.
func newReference() (*melody.RunScheduler, error) {
	return melody.NewRunScheduler(melody.SchedulerConfig{
		Auction:      auctionConfig(),
		NewEstimator: func(string) (melody.Estimator, error) { return newTracker(nil) },
	})
}

// writeHistory writes a history to the log at path through
// eventlog.PersistentScheduler with SyncEveryAppend off: the records are
// byte-identical to durable ones, only the fsyncs are skipped. drive issues
// the history's operations against the persistent backend.
func writeHistory(path string, fund float64, drive func(platform.MultiRunBackend) error) error {
	sched, _, err := newScheduler(fund, nil, nil, nil)
	if err != nil {
		return err
	}
	log, err := eventlog.OpenOptions(path, eventlog.Options{})
	if err != nil {
		return err
	}
	ps, err := eventlog.NewPersistentScheduler(sched, log)
	if err != nil {
		log.Close()
		return err
	}
	if err := drive(ps); err != nil {
		log.Close()
		return err
	}
	return log.Close()
}

// decodeHistory times eventlog.ReadAll over the log at path: the decode
// half of a replay, without applying anything.
func decodeHistory(path string) (time.Duration, error) {
	start := time.Now()
	_, err := eventlog.ReadAll(path)
	return time.Since(start), err
}

// stack is one booted serving stack.
type stack struct {
	sched    *melody.RunScheduler
	money    *melody.Ledger
	metrics  *obs.Registry
	wal      *eventlog.Log
	baseURL  string
	httpSrv  *http.Server
	serveErr chan error
}

// bootStack builds the stack on the log at walPath, recovering whatever
// history it holds, serves it on a loopback listener and returns once
// GET /v1/status has answered 200 through hc. The returned duration is the
// set-up time: from building the scheduler to that first 200. tr, when
// non-nil, decorates the estimator, backend and handler for the traced
// pass.
func bootStack(walPath string, fund float64, hc *http.Client, tr *tracer) (*stack, time.Duration, error) {
	start := time.Now()
	reg := obs.NewRegistry()
	obs.RegisterBaseline(reg)
	obsTracer := obs.NewTracer(platform.DefaultConfig().TraceCapacity)
	var wrap func(melody.Estimator) melody.Estimator
	if tr != nil {
		wrap = tr.wrapEstimator
	}
	sched, money, err := newScheduler(fund, reg, obsTracer, wrap)
	if err != nil {
		return nil, 0, err
	}
	ps, wal, err := eventlog.OpenPersistentScheduler(walPath, sched, eventlog.Options{
		SyncEveryAppend: true,
		Metrics:         reg,
		Tracer:          obsTracer,
	})
	if err != nil {
		return nil, 0, err
	}
	var backend platform.MultiRunBackend = ps
	if tr != nil {
		backend = tr.wrapBackend(ps)
	}
	srv, err := platform.NewMultiServer(backend, nil,
		platform.WithMetrics(reg),
		platform.WithTracer(obsTracer))
	if err != nil {
		wal.Close()
		return nil, 0, err
	}
	handler := srv.Handler()
	if tr != nil {
		handler = tr.wrapHandler(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		wal.Close()
		return nil, 0, err
	}
	st := &stack{
		sched: sched, money: money, metrics: reg, wal: wal,
		baseURL:  "http://" + ln.Addr().String(),
		httpSrv:  &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second},
		serveErr: make(chan error, 1),
	}
	go func() { st.serveErr <- st.httpSrv.Serve(ln) }()
	probe, err := newClient(st.baseURL, hc)
	if err == nil {
		_, err = probe.Status(context.Background())
	}
	if err != nil {
		return nil, 0, errors.Join(fmt.Errorf("bench: first status request: %w", err), st.stop())
	}
	return st, time.Since(start), nil
}

// newClient builds a platform client with retries disabled: a failed
// request counts as failed, it is never retried away.
func newClient(baseURL string, hc *http.Client) (*platform.Client, error) {
	return platform.NewClientOptions(baseURL, platform.ClientOptions{
		HTTPClient: hc,
		Retry:      &platform.RetryPolicy{MaxAttempts: 1},
	})
}

// stop shuts the server down, waits for Serve to return and closes the log.
func (st *stack) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	if err := st.httpSrv.Shutdown(ctx); err != nil {
		errs = append(errs, fmt.Errorf("bench: shutdown: %w", err))
	}
	if err := <-st.serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, fmt.Errorf("bench: serve: %w", err))
	}
	if err := st.wal.Close(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
