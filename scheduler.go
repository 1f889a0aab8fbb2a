package melody

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"

	"melody/internal/chunk"
	"melody/internal/obs"
	"melody/internal/quality"
)

// Scheduler errors, matchable with errors.Is.
var (
	// ErrUnknownRun is returned for operations on a run ID the scheduler
	// has never opened.
	ErrUnknownRun = errors.New("melody: unknown run")
	// ErrUnknownTenant is returned when a tenant-scoped query cannot be
	// routed to a tenant platform.
	ErrUnknownTenant = errors.New("melody: unknown tenant")
)

// DefaultTenant owns the runs opened without a tenant, so a deployment
// with a single tenant never has to name it.
const DefaultTenant = "default"

// tenantOrDefault maps the empty tenant name onto DefaultTenant.
func tenantOrDefault(tenant string) string {
	if tenant == "" {
		return DefaultTenant
	}
	return tenant
}

// SchedulerConfig assembles a RunScheduler.
type SchedulerConfig struct {
	// Auction holds the qualification intervals shared by every tenant's
	// mechanism.
	Auction AuctionConfig
	// NewEstimator builds the quality estimator for a tenant the first
	// time it opens a run. Each tenant owns its estimator, so its
	// long-term quality trajectory — and therefore its auction outcomes —
	// are independent of how other tenants' runs interleave.
	NewEstimator func(tenant string) (Estimator, error)
	// Ledger optionally settles money across every tenant on one shared
	// double-entry ledger. Nil disables settlement.
	Ledger *Ledger
	// EpochEvery batches payouts: every EpochEvery finished runs, the
	// accrued escrow payments are drained from the epoch pool into one
	// aggregated payout batch per worker. 0 keeps direct per-run payouts.
	EpochEvery int
	// RegistryShards sets the shared worker registry's stripe count
	// (rounded up to a power of two), fixed for the scheduler's lifetime;
	// <= 0 selects the default.
	RegistryShards int
	// CloseConcurrency bounds how many auction closes may execute at
	// once, admitted in weighted-fair order across tenants (see
	// TenantPolicy.Weight); <= 0 leaves closes ungated, today's behavior.
	CloseConcurrency int
	// Metrics optionally instruments every tenant platform. Nil disables.
	Metrics *obs.Registry
	// Tracer optionally records auction spans. Nil disables tracing.
	Tracer *obs.Tracer
}

// RunInfo describes one scheduler run.
type RunInfo struct {
	// ID is the run's scheduler-wide unique identifier.
	ID string
	// Tenant owns the run.
	Tenant string
	// Num is the run's 1-based number in open order across all tenants.
	// It is part of the run's durable state, so replay and snapshot
	// restore give every run the number it had.
	Num int
	// AuctionClosed reports whether the run's auction has closed.
	AuctionClosed bool
	// Finished reports whether the run has completed settlement.
	Finished bool
	// Outcome is the allocation; non-nil once AuctionClosed. For a
	// finished run it is a fresh copy decoded from the scheduler's archive
	// at each call.
	Outcome *Outcome
}

// RunScheduler multiplexes many concurrent runs from many tenants over a
// shared striped worker registry and (optionally) a shared ledger. Each
// tenant maps to one Platform — its own estimator and incremental auction
// kernel — so a tenant's run outcomes are byte-identical to executing its
// runs serially, while different tenants' runs proceed through
// bidding→scoring→finish with no shared phase lock: the only cross-tenant
// contention points are the registry stripes and the ledger/settler
// mutexes, both of which are held for single operations only.
//
// Within a tenant runs stay sequential (the long-term quality estimator is
// a per-run recurrence, so overlapping a tenant's own runs would make its
// posteriors order-dependent); opening a second run for a tenant whose
// previous run has not finished returns ErrRunOpen.
//
// Lock order: schedRun.mu → (Platform.mu → estMu) and schedRun.mu →
// RunScheduler.mu; registry stripes and ledger/settler mutexes innermost.
// RunScheduler.mu is held across a Platform call only by SnapshotState and
// RestoreSnapshot, which run while no run is open, so no holder of a run
// lock waits on it.
//
// Only open runs keep a schedRun. A finish folds the run into the archive
// of finished runs, and every read of a finished run decodes it into a
// transient schedRun marked done, so retries of finished runs take the
// same paths either way.
type RunScheduler struct {
	cfg      SchedulerConfig
	registry *workerRegistry
	settler  *EpochSettler
	gate     *fairGate // weighted-fair close admission; nil when ungated
	// ledgerEntries and journalBytes report the ledger's journal; nil
	// without metrics or a ledger. archiveBytes reports the archive; nil
	// without metrics.
	ledgerEntries, journalBytes, archiveBytes *obs.Gauge

	mu         sync.RWMutex
	tenants    map[string]*Platform
	tenantOpen map[string]string    // tenant -> its open run ID
	runs       map[string]*schedRun // the open runs
	archive    runArchive           // the finished runs
	order      []string             // open run IDs in open order
	opened     int                  // number of the newest run
	completed  int
	tstates    map[string]*tenantState // tenant -> policy + spend ledger
}

// schedRun is one run's scheduling state. All mutations of the run
// (bid/close/score/finish) serialize on mu, which is what makes the
// done/outcome checks race-free against a retried finish: a mutation can
// never land on the tenant platform's *next* run, because opening that
// next run requires this run's finish to have completed first.
type schedRun struct {
	id     string
	tenant string
	p      *Platform

	mu      sync.Mutex
	tasks   []Task
	budget  float64
	outcome *Outcome
	// num is fixed at open. As an int32 beside done it fills padding the
	// struct already has, so a retained run costs no extra bytes.
	num  int32
	done bool
}

// NewRunScheduler constructs a RunScheduler.
func NewRunScheduler(cfg SchedulerConfig) (*RunScheduler, error) {
	if cfg.NewEstimator == nil {
		return nil, errors.New("melody: scheduler needs an estimator factory")
	}
	if cfg.EpochEvery > 0 && cfg.Ledger == nil {
		return nil, errors.New("melody: epoch settlement needs a ledger")
	}
	s := &RunScheduler{
		cfg:        cfg,
		registry:   newWorkerRegistry(cfg.RegistryShards),
		gate:       newFairGate(cfg.CloseConcurrency),
		tenants:    make(map[string]*Platform),
		tenantOpen: make(map[string]string),
		runs:       make(map[string]*schedRun),
		archive:    newRunArchive(hash64),
		tstates:    make(map[string]*tenantState),
	}
	if cfg.EpochEvery > 0 {
		s.settler = NewEpochSettler(cfg.Ledger, cfg.EpochEvery)
	}
	if cfg.Ledger != nil {
		s.ledgerEntries = cfg.Metrics.Gauge(obs.MetricLedgerEntries, "Entries in the ledger's journal.")
		s.journalBytes = cfg.Metrics.Gauge(obs.MetricLedgerJournalBytes, "Bytes the ledger's journal chunks take.")
	}
	s.archiveBytes = cfg.Metrics.Gauge(obs.MetricRunArchiveBytes, "Bytes the finished-run archive's chunks take.")
	return s, nil
}

// observeLedger sets the ledger gauges from the journal's size.
func (s *RunScheduler) observeLedger() {
	if s.ledgerEntries == nil {
		return
	}
	entries, bytes := s.cfg.Ledger.JournalSize()
	s.ledgerEntries.Set(float64(entries))
	s.journalBytes.Set(float64(bytes))
}

// SpillTo moves the closed chunks of the finished-run archive and of the
// ledger's journal out of the heap into f as they close, keeping only
// where each went. f is scratch space the scheduler owns from then on:
// reads of old runs and entries (Run, retries, SnapshotState, Entries) take
// their chunk back from it, and nothing else reads it, so a durable layer
// can hand it a file no boot will read. The chunks' bytes are their heap
// bytes verbatim. A failed write keeps the chunk in the heap and counts
// melody_spill_write_errors_total; a failed read panics with a
// *chunk.ReadError and fails the request that made it, holding no lock.
// Call SpillTo before the scheduler serves or replays anything; a second
// call, or one on a ledger that already spills, is ignored.
func (s *RunScheduler) SpillTo(f interface {
	io.ReaderAt
	io.WriterAt
}) {
	sink := chunk.NewSink(f, s.cfg.Metrics)
	s.mu.Lock()
	s.archive.SpillTo(sink, archiveName)
	s.mu.Unlock()
	if s.cfg.Ledger != nil {
		s.cfg.Ledger.SpillTo(sink)
	}
}

// Settler returns the epoch settler, nil when EpochEvery was 0.
func (s *RunScheduler) Settler() *EpochSettler { return s.settler }

// Ledger returns the shared ledger, nil when settlement is disabled.
func (s *RunScheduler) Ledger() *Ledger { return s.cfg.Ledger }

// RegisterWorker adds a worker to the shared registry; workers are
// visible to every tenant. Registering an existing worker is a no-op.
func (s *RunScheduler) RegisterWorker(ctx context.Context, workerID string) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	if workerID == "" {
		return errors.New("melody: empty worker ID")
	}
	s.registry.Register(workerID)
	return nil
}

// Workers returns the registered worker IDs in sorted order.
func (s *RunScheduler) Workers() []string { return s.registry.All() }

// CompletedRuns returns the number of finished runs across all tenants.
func (s *RunScheduler) CompletedRuns() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.completed
}

// Tenants returns the tenants that have opened at least one run, sorted.
func (s *RunScheduler) Tenants() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ts := make([]string, 0, len(s.tenants))
	for t := range s.tenants {
		ts = append(ts, t)
	}
	sort.Strings(ts)
	return ts
}

// OpenRuns returns every not-yet-finished run in open order.
func (s *RunScheduler) OpenRuns() []RunInfo {
	s.mu.RLock()
	open := make([]*schedRun, len(s.order))
	for i, id := range s.order {
		open[i] = s.runs[id]
	}
	s.mu.RUnlock()
	out := make([]RunInfo, 0, len(open))
	for _, r := range open {
		r.mu.Lock()
		info := r.infoLocked()
		r.mu.Unlock()
		if !info.Finished { // a finish marks the run done before dropping it
			out = append(out, info)
		}
	}
	return out
}

// Run returns one run's info, or ErrUnknownRun.
func (s *RunScheduler) Run(runID string) (RunInfo, error) {
	r, err := s.resolve(runID)
	if err != nil {
		return RunInfo{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.infoLocked(), nil
}

// infoLocked describes the run; callers hold r.mu.
func (r *schedRun) infoLocked() RunInfo {
	return RunInfo{ID: r.id, Tenant: r.tenant, Num: int(r.num), AuctionClosed: r.outcome != nil,
		Finished: r.done, Outcome: r.outcome}
}

// TenantPlatform returns the platform owning a tenant's runs, or
// ErrUnknownTenant for a tenant that never opened a run. The empty tenant
// names no tenant in particular: it resolves to the only tenant when
// exactly one exists, and before any tenant exists to a fresh platform
// holding DefaultTenant's prior, which is not kept.
func (s *RunScheduler) TenantPlatform(tenant string) (*Platform, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if tenant == "" {
		switch len(s.tenants) {
		case 0:
			return s.newTenantPlatform(DefaultTenant)
		case 1:
			for _, p := range s.tenants {
				return p, nil
			}
		}
		return nil, fmt.Errorf("%w: %d tenants exist, specify one", ErrUnknownTenant, len(s.tenants))
	}
	p := s.tenants[tenant]
	if p == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownTenant, tenant)
	}
	return p, nil
}

// Quality returns a tenant's current quality estimate for a worker.
func (s *RunScheduler) Quality(tenant, workerID string) (float64, error) {
	p, err := s.TenantPlatform(tenant)
	if err != nil {
		return 0, err
	}
	return p.Quality(workerID)
}

// Forecast returns a tenant's k-step-ahead quality forecast for a worker.
func (s *RunScheduler) Forecast(tenant, workerID string, steps int) (QualityForecast, error) {
	p, err := s.TenantPlatform(tenant)
	if err != nil {
		return QualityForecast{}, err
	}
	return p.Forecast(workerID, steps)
}

// platformFor returns (creating on first use) a tenant's platform;
// callers hold s.mu.
func (s *RunScheduler) platformFor(tenant string) (*Platform, error) {
	if p := s.tenants[tenant]; p != nil {
		return p, nil
	}
	p, err := s.newTenantPlatform(tenant)
	if err != nil {
		return nil, err
	}
	s.tenants[tenant] = p
	return p, nil
}

// newTenantPlatform builds a platform for a tenant on the shared
// registry, ledger and settler, with its estimator at the prior.
func (s *RunScheduler) newTenantPlatform(tenant string) (*Platform, error) {
	est, err := s.cfg.NewEstimator(tenant)
	if err != nil {
		return nil, fmt.Errorf("melody: estimator for tenant %q: %w", tenant, err)
	}
	return newPlatform(PlatformConfig{
		Auction:   s.cfg.Auction,
		Estimator: est,
		Ledger:    s.cfg.Ledger,
		Settler:   s.settler,
		Metrics:   s.cfg.Metrics,
		Tracer:    s.cfg.Tracer,
	}, s.registry)
}

// resolve maps a run ID to its scheduling state. A failed read of a
// spilled archive chunk panics out of it with s.mu released.
func (s *RunScheduler) resolve(runID string) (*schedRun, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if r := s.lookupLocked(runID); r != nil {
		return r, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrUnknownRun, runID)
}

// RunState reports whether a run's auction has closed and whether the run
// has finished, or ErrUnknownRun. Unlike Run it decodes no outcome: of a
// finished run it reads only its archive record's flags byte and ID.
func (s *RunScheduler) RunState(runID string) (closed, finished bool, err error) {
	r, flags, archived := s.state(runID)
	switch {
	case r != nil:
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.outcome != nil, r.done, nil
	case archived:
		return flags&archOutcome != 0, true, nil
	}
	return false, false, fmt.Errorf("%w: %s", ErrUnknownRun, runID)
}

// state returns an open run's schedRun, or a finished run's archive flags
// and true.
func (s *RunScheduler) state(runID string) (*schedRun, byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if r := s.runs[runID]; r != nil {
		return r, 0, false
	}
	flags, ok := s.archive.flags(runID)
	return nil, flags, ok
}

// lookupLocked returns an open run's schedRun, or a finished run decoded
// from the archive into a transient one marked done, or nil. Callers hold
// s.mu.
func (s *RunScheduler) lookupLocked(runID string) *schedRun {
	if r := s.runs[runID]; r != nil {
		return r
	}
	rs, ok := s.archive.run(runID)
	if !ok {
		return nil
	}
	return &schedRun{id: rs.ID, tenant: rs.Tenant, num: int32(rs.Num), p: s.tenants[rs.Tenant],
		tasks: rs.Tasks, budget: rs.Budget, outcome: rs.Outcome, done: true}
}

// OpenRun opens a run under a scheduler-wide unique ID for a tenant; an
// empty tenant opens it for DefaultTenant. The run gets the next number in
// open order.
//
// OpenRun is idempotent on the run ID: re-opening a known ID with the
// identical spec is a no-op success whether the run is still in flight or
// already finished, so a client that lost the acknowledgment can retry
// blindly. A known ID with a different spec or tenant is an error, and a
// new ID for a tenant whose previous run has not finished is ErrRunOpen.
func (s *RunScheduler) OpenRun(ctx context.Context, runID, tenant string, tasks []Task, budget float64) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	if runID == "" {
		return errors.New("melody: empty run ID")
	}
	tenant = tenantOrDefault(tenant)
	r, known, err := s.claimRun(runID, tenant, tasks, budget)
	switch {
	case known:
		return s.reopen(ctx, r, tenant, tasks, budget)
	case err != nil:
		return err
	}
	if err := r.p.OpenRun(ctx, tasks, budget); err != nil {
		// The platform rejected the spec: roll the claim back.
		s.mu.Lock()
		delete(s.runs, runID)
		delete(s.tenantOpen, tenant)
		s.dropOpenLocked(runID)
		s.releaseRunLocked(tenant)
		if int(r.num) == s.opened { // a concurrent open may have taken the next number
			s.opened--
		}
		s.mu.Unlock()
		return err
	}
	return nil
}

// claimRun returns the known run runID and true, or claims a new run for
// the tenant: it admits the run under the tenant's policy (budget quota
// against settled spend, run-count cap), committing the budget to the
// tenant's spend until the run finishes, and takes the next number. The
// claim comes before the (escrowing) platform call so that a concurrent
// OpenRun for the same tenant conflicts instead of double-opening.
func (s *RunScheduler) claimRun(runID, tenant string, tasks []Task, budget float64) (*schedRun, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.lookupLocked(runID); r != nil {
		return r, true, nil
	}
	if openID, busy := s.tenantOpen[tenant]; busy {
		return nil, false, fmt.Errorf("%w: tenant %q run %q", ErrRunOpen, tenant, openID)
	}
	if err := s.admitRunLocked(tenant, budget); err != nil {
		return nil, false, err
	}
	p, err := s.platformFor(tenant)
	if err != nil {
		s.releaseRunLocked(tenant)
		return nil, false, err
	}
	s.opened++
	r := &schedRun{id: runID, tenant: tenant, num: int32(s.opened), p: p,
		tasks: append([]Task(nil), tasks...), budget: budget}
	s.runs[runID] = r
	s.tenantOpen[tenant] = runID
	s.order = append(s.order, runID)
	return r, false, nil
}

// dropOpenLocked removes a run from the open order. Callers hold s.mu.
func (s *RunScheduler) dropOpenLocked(runID string) {
	if i := slices.Index(s.order, runID); i >= 0 {
		s.order = slices.Delete(s.order, i, i+1)
	}
}

// reopen handles OpenRun on an already-known run ID: the retry path.
func (s *RunScheduler) reopen(ctx context.Context, r *schedRun, tenant string, tasks []Task, budget float64) error {
	if r.tenant != tenant {
		return fmt.Errorf("melody: run %q belongs to tenant %q", r.id, r.tenant)
	}
	r.mu.Lock()
	same := r.budget == budget && sameTasks(r.tasks, tasks)
	done := r.done
	r.mu.Unlock()
	if !same {
		return fmt.Errorf("%w: run %q already open with a different spec", ErrRunOpen, r.id)
	}
	if done {
		return nil // retried open of a run that already completed
	}
	// The run is still in flight: the platform's own idempotent open
	// confirms (or re-establishes, if the first call raced) the spec.
	return r.p.OpenRun(ctx, tasks, budget)
}

// mutate runs fn against a run's platform with the run's mutation lock
// held, after rejecting runs that already finished.
func (s *RunScheduler) mutate(runID string, fn func(r *schedRun) error) error {
	r, err := s.resolve(runID)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return fmt.Errorf("%w: run %s finished", ErrNoRunOpen, runID)
	}
	return fn(r)
}

// SubmitBid records a worker's bid for a run, with Platform.SubmitBid's
// idempotent-replay semantics.
func (s *RunScheduler) SubmitBid(ctx context.Context, runID, workerID string, bid Bid) error {
	return s.mutate(runID, func(r *schedRun) error {
		return r.p.SubmitBid(ctx, workerID, bid)
	})
}

// SubmitBids submits a batch of bids for a run.
func (s *RunScheduler) SubmitBids(ctx context.Context, runID string, bids []WorkerBid) BatchResult {
	r, err := s.resolve(runID)
	if err == nil {
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.done {
			err = fmt.Errorf("%w: run %s finished", ErrNoRunOpen, runID)
		} else {
			return r.p.SubmitBids(ctx, bids)
		}
	}
	return failedBatch(len(bids), err)
}

// CloseAuction ends a run's bidding phase and returns the outcome.
// Closing an already-closed run replays the original outcome — even after
// the run finished, so late retries stay safe.
func (s *RunScheduler) CloseAuction(ctx context.Context, runID string) (*Outcome, error) {
	r, err := s.resolve(runID)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.outcome != nil {
		return r.outcome, nil
	}
	if r.done {
		// Finished without a recorded outcome: only possible for runs
		// resurrected by replay tools; treat like the single-run platform.
		return nil, fmt.Errorf("%w: run %s finished", ErrNoRunOpen, runID)
	}
	// Under a close-concurrency bound, admission is weighted-fair across
	// tenants so a heavy tenant cannot monopolize kernel time. The gate
	// reorders only when closes start, never their inputs, so outcomes
	// stay byte-identical to serial execution.
	if s.gate != nil {
		if err := s.gate.acquire(ctx, r.tenant, s.closeWeight(r.tenant)); err != nil {
			return nil, err
		}
		defer s.gate.release()
	}
	out, err := r.p.CloseAuction(ctx)
	if err != nil {
		return nil, err
	}
	r.outcome = out
	return out, nil
}

// SubmitScore records the requester's score for an assigned (worker,
// task) pair of a run.
func (s *RunScheduler) SubmitScore(ctx context.Context, runID, workerID, taskID string, score float64) error {
	return s.mutate(runID, func(r *schedRun) error {
		return r.p.SubmitScore(ctx, workerID, taskID, score)
	})
}

// SubmitScores submits a batch of scores for a run.
func (s *RunScheduler) SubmitScores(ctx context.Context, runID string, scores []TaskScore) BatchResult {
	r, err := s.resolve(runID)
	if err == nil {
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.done {
			err = fmt.Errorf("%w: run %s finished", ErrNoRunOpen, runID)
		} else {
			return r.p.SubmitScores(ctx, scores)
		}
	}
	return failedBatch(len(scores), err)
}

// FinishRun completes a run: quality estimates update from the collected
// scores, unspent escrow refunds, and — when epoch settlement is on — the
// epoch counter advances, draining the payout pool at epoch boundaries.
// Finishing an already-finished run is a no-op success.
func (s *RunScheduler) FinishRun(ctx context.Context, runID string) error {
	_, err := s.FinishRunEM(ctx, runID, nil)
	return err
}

// FinishRunEM is FinishRun for a durable layer that logs the EM
// re-estimations each finish makes (Algorithm 3's theta update every
// EMPeriod runs). It returns them in the tenant estimator's batch order:
// a non-nil empty list when the estimator reports re-estimations and no
// worker was due; nil when the estimator does not report them (it does
// not implement quality.BatchObserver) or the run had already finished.
//
// Given the re-estimations a log recorded for this finish (logged
// non-nil), it installs their theta instead of running EM, which leaves
// the state EM would. They must name exactly the workers the finish makes
// due, or the finish fails with quality.ErrReestimationMismatch and the
// scheduler must be discarded. An estimator that does not report
// re-estimations runs its EMs whatever was logged.
func (s *RunScheduler) FinishRunEM(ctx context.Context, runID string, logged []Reestimation) ([]Reestimation, error) {
	r, err := s.resolve(runID)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		if len(logged) > 0 {
			return nil, fmt.Errorf("%w: run %s already finished, but the log lists re-estimations of worker %s and %d more",
				quality.ErrReestimationMismatch, runID, logged[0].Worker, len(logged)-1)
		}
		return nil, nil // retried finish
	}
	made, err := r.p.finishRun(ctx, logged)
	if err != nil {
		return nil, err
	}
	r.done = true
	// The run's committed budget settles into actual spend: every
	// finished run closed its auction first (or never will), so the
	// recorded outcome's total payment is the tenant's realized cost.
	spend := 0.0
	if r.outcome != nil {
		spend = r.outcome.TotalPayment
	}
	// The run leaves the open runs for the archive in one critical
	// section, so a lookup finds it in exactly one of them. Holders of r
	// still see its fields, with done set.
	s.mu.Lock()
	delete(s.tenantOpen, r.tenant)
	s.dropOpenLocked(r.id)
	delete(s.runs, r.id)
	s.archive.add(RunSnapshot{ID: r.id, Tenant: r.tenant, Num: int(r.num), Tasks: r.tasks,
		Budget: r.budget, Outcome: r.outcome})
	s.archiveBytes.Set(float64(s.archive.Size))
	s.completed++
	s.settleRunLocked(r.tenant, spend)
	s.mu.Unlock()
	defer s.observeLedger()
	if s.settler != nil {
		settled, err := s.settler.RunFinished()
		if err != nil {
			return nil, fmt.Errorf("melody: epoch settlement: %w", err)
		}
		if settled {
			s.resetEpochSpend()
		}
	}
	return made, nil
}

// Flush force-settles any payments still parked in the epoch pool — the
// shutdown path for mid-epoch stops. A no-op without epoch settlement.
func (s *RunScheduler) Flush() error {
	if s.settler == nil {
		return nil
	}
	return s.settler.Flush()
}
