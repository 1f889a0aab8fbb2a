package melody

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"melody/internal/core"
	"melody/internal/ledger"
	"melody/internal/obs"
	"melody/internal/quality"
)

// Money-handling re-exports: an optional double-entry ledger can be
// attached to a Platform so every run's budget is escrowed and every
// payment settles to a worker balance.
type (
	// Ledger is the double-entry ledger type.
	Ledger = ledger.Ledger
	// LedgerAccount identifies a ledger account.
	LedgerAccount = ledger.Account
	// EpochSettler batches per-run payments into periodic payout epochs on
	// a shared ledger (see ledger.NewEpochSettler).
	EpochSettler = ledger.EpochSettler
)

// NewEpochSettler returns an epoch settler that drains the payout pool
// every `every` finished runs on the given ledger.
func NewEpochSettler(l *Ledger, every int) *EpochSettler {
	return ledger.NewEpochSettler(l, every)
}

// NewLedger returns an empty ledger. Fund the requester with
// Deposit(RequesterAccount, ...) before opening runs on a ledger-backed
// platform.
func NewLedger() *Ledger { return ledger.New() }

// RequesterAccount is the requester's funding account.
const RequesterAccount = ledger.Requester

// Platform state errors, matchable with errors.Is.
var (
	// ErrRunOpen is returned when an operation requires no open run.
	ErrRunOpen = errors.New("melody: a run is already open")
	// ErrNoRunOpen is returned when an operation requires an open run.
	ErrNoRunOpen = errors.New("melody: no run is open")
	// ErrAuctionClosed is returned when bids arrive after the auction
	// closed.
	ErrAuctionClosed = errors.New("melody: auction already closed")
	// ErrAuctionOpen is returned when scores arrive before the auction
	// closed.
	ErrAuctionOpen = errors.New("melody: auction not closed yet")
	// ErrUnknownWorker is returned for operations on unregistered workers.
	ErrUnknownWorker = errors.New("melody: unknown worker")
	// ErrNotAssigned is returned when a score targets a pair that was never
	// allocated.
	ErrNotAssigned = errors.New("melody: task not assigned to worker")
	// ErrNoForecast is returned when the platform's estimator cannot
	// produce predictive distributions (only the LDS tracker can).
	ErrNoForecast = errors.New("melody: estimator does not support forecasting")
	// ErrOverloaded is returned when the serving front-end sheds a request
	// under admission control: the platform itself never saw it, so the
	// request had no effect and may be retried after the advertised
	// Retry-After delay.
	ErrOverloaded = errors.New("melody: server overloaded")
)

// Forecaster is the optional estimator capability of producing k-step-ahead
// predictive distributions; the LDS QualityTracker implements it.
type Forecaster interface {
	Forecast(workerID string, steps int) (QualityForecast, error)
}

// PlatformConfig assembles a Platform.
type PlatformConfig struct {
	// Auction holds the qualification intervals of the mechanism.
	Auction AuctionConfig
	// Estimator tracks workers' long-term quality. Usually the tracker from
	// NewQualityTracker; any Estimator works.
	Estimator Estimator
	// Ledger optionally settles money for real: OpenRun escrows the budget
	// from the requester account (which must be funded), CloseAuction pays
	// winners from escrow, FinishRun refunds the remainder. Nil disables
	// settlement.
	Ledger *Ledger
	// Settler optionally routes this platform's payments through a shared
	// epoch pool instead of paying workers directly at each auction close;
	// the RunScheduler drains the pool into aggregated payout batches at
	// epoch boundaries. Requires Ledger; nil keeps direct per-run payouts.
	Settler *EpochSettler
	// Metrics optionally receives the platform's mechanism metrics (auction
	// duration, winners, spent budget, completed runs). Nil disables
	// instrumentation at zero overhead.
	Metrics *obs.Registry
	// Tracer optionally records auction spans. Nil disables tracing.
	Tracer *obs.Tracer
}

// Platform is the paper's crowdsourcing platform: it owns the worker
// registry, runs the per-run reverse auction, collects answer scores and
// updates every worker's quality estimate between runs (the Fig. 2
// workflow). Platform is safe for concurrent use; read-only queries
// (Workers, Run, Quality, Forecast) share a read lock, so status
// polls never queue behind bid ingest.
type Platform struct {
	mu      sync.RWMutex
	auction *core.AuctionState
	est     Estimator
	money   *Ledger
	settler *EpochSettler
	run     int
	open    *openRun

	// registry holds the universal worker set behind striped locks, so
	// registration and membership checks never queue behind p.mu (and a
	// RunScheduler shares one registry across every tenant platform).
	registry *workerRegistry

	// estMu guards the estimator separately from the run state: Quality
	// and Forecast take only estMu.RLock, so posterior lookups never
	// contend with bid ingest (which holds p.mu but leaves the estimator
	// alone). Lock order: p.mu before estMu; registry stripes innermost.
	estMu sync.RWMutex

	// bidders mirrors the worker set last applied to the auction state, so
	// each CloseAuction feeds the kernel only the run-over-run delta
	// (changed bids or estimates, joins, leaves) instead of the full
	// registry.
	bidders map[string]Worker

	runsCompleted *obs.Counter // nil-safe; nil when PlatformConfig.Metrics is nil
	tracer        *obs.Tracer
}

// openRun is the mutable state of the currently open run.
type openRun struct {
	tasks      []Task
	budget     float64
	bids       map[string]Bid
	outcome    *Outcome
	assigned   map[string]map[string]bool    // worker -> task -> assigned
	scores     map[string][]float64          // worker -> scores this run
	recorded   map[string]map[string]float64 // worker -> task -> accepted score
	settlement *ledger.RunSettlement         // nil when no ledger is attached
}

// NewPlatform constructs a Platform with a private worker registry.
func NewPlatform(cfg PlatformConfig) (*Platform, error) {
	return newPlatform(cfg, newWorkerRegistry(0))
}

// newPlatform constructs a Platform on the given worker registry.
func newPlatform(cfg PlatformConfig, reg *workerRegistry) (*Platform, error) {
	if cfg.Estimator == nil {
		return nil, errors.New("melody: platform needs an estimator")
	}
	// The platform runs MELODY through the persistent incremental kernel:
	// outcomes are byte-identical to the stateless Auction, but consecutive
	// runs repair the cached worker ranking from the bid delta instead of
	// re-sorting the registry. Outcomes stay independently owned (no arena
	// reuse) because they are stored on the open run and replayed to
	// retried CloseAuction calls.
	state, err := core.NewAuctionState(cfg.Auction, core.AuctionStateOptions{
		Metrics: cfg.Metrics,
		Tracer:  cfg.Tracer,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Settler != nil && cfg.Ledger == nil {
		return nil, errors.New("melody: epoch settlement needs a ledger")
	}
	return &Platform{
		auction:       state,
		est:           cfg.Estimator,
		money:         cfg.Ledger,
		settler:       cfg.Settler,
		registry:      reg,
		bidders:       make(map[string]Worker),
		runsCompleted: cfg.Metrics.Counter(obs.MetricRunsCompletedTotal, "Completed platform runs."),
		tracer:        cfg.Tracer,
	}, nil
}

// ctxErr reports whether the call should be abandoned before touching
// platform state: a cancelled or expired context fails fast, a nil context
// (tolerated for robustness, like net/http) never does.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// RegisterWorker adds a worker to the universal worker set. Registering an
// existing worker is a no-op.
func (p *Platform) RegisterWorker(ctx context.Context, workerID string) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	if workerID == "" {
		return errors.New("melody: empty worker ID")
	}
	p.registry.Register(workerID)
	return nil
}

// Workers returns the registered worker IDs in sorted order.
func (p *Platform) Workers() []string {
	return slices.Clone(p.registry.All())
}

// Run returns the number of completed runs.
func (p *Platform) Run() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.run
}

// Quality returns the platform's current quality estimate for the worker.
// The estimator is only read (never advanced), so concurrent Quality calls
// share the estimator's read lock — never p.mu, so a quality poll cannot
// queue behind bid ingest.
func (p *Platform) Quality(workerID string) (float64, error) {
	if !p.registry.Has(workerID) {
		return 0, fmt.Errorf("%w: %s", ErrUnknownWorker, workerID)
	}
	p.estMu.RLock()
	defer p.estMu.RUnlock()
	return p.est.Estimate(workerID), nil
}

// Forecast returns the k-step-ahead predictive distribution of a worker's
// quality, when the platform's estimator supports it (the LDS tracker
// does); otherwise ErrNoForecast.
func (p *Platform) Forecast(workerID string, steps int) (QualityForecast, error) {
	if !p.registry.Has(workerID) {
		return QualityForecast{}, fmt.Errorf("%w: %s", ErrUnknownWorker, workerID)
	}
	f, ok := p.est.(Forecaster)
	if !ok {
		return QualityForecast{}, ErrNoForecast
	}
	p.estMu.RLock()
	defer p.estMu.RUnlock()
	return f.Forecast(workerID, steps)
}

// OpenRun starts a new run: the requester publishes a task set and a
// budget. Bids are accepted until CloseAuction.
//
// OpenRun is idempotent on the run's natural key (the task set plus
// budget): re-opening the currently open run with an identical spec is a
// no-op success, so a client that lost the acknowledgment can safely
// retry. Opening a different spec while a run is open remains ErrRunOpen.
// Distinct runs should therefore use distinct task IDs (the bundled
// requester generates "run<r>-task<j>").
//
// A cancelled or expired ctx fails fast before any state changes; the
// in-memory platform does not block, so ctx otherwise only matters to
// durable backends layered on top (their WAL waits honour the deadline).
func (p *Platform) OpenRun(ctx context.Context, tasks []Task, budget float64) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.open != nil {
		if p.open.budget == budget && sameTasks(p.open.tasks, tasks) {
			return nil // retried open of the same run
		}
		return ErrRunOpen
	}
	if len(tasks) == 0 {
		return errors.New("melody: a run needs at least one task")
	}
	if budget < 0 {
		return fmt.Errorf("melody: negative budget %v", budget)
	}
	seen := make(map[string]bool, len(tasks))
	copied := make([]Task, len(tasks))
	for i, t := range tasks {
		if t.ID == "" {
			return errors.New("melody: task with empty ID")
		}
		if seen[t.ID] {
			return fmt.Errorf("melody: duplicate task ID %q", t.ID)
		}
		if !(t.Threshold > 0) {
			return fmt.Errorf("melody: task %q threshold %v must be positive", t.ID, t.Threshold)
		}
		seen[t.ID] = true
		copied[i] = t
	}
	run := &openRun{
		tasks:  copied,
		budget: budget,
		bids:   make(map[string]Bid),
		scores: make(map[string][]float64),
	}
	if p.money != nil && budget > 0 {
		var settlement *ledger.RunSettlement
		var err error
		if p.settler != nil {
			settlement, err = p.money.OpenRunEpoch(p.run+1, budget, p.settler)
		} else {
			settlement, err = p.money.OpenRun(p.run+1, budget)
		}
		if err != nil {
			return fmt.Errorf("melody: escrow run budget: %w", err)
		}
		run.settlement = settlement
	}
	p.open = run
	return nil
}

// sameTasks reports whether two task lists are identical (same IDs and
// thresholds in the same order).
func sameTasks(a, b []Task) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SubmitBid records a worker's bid for the open run. Re-submitting replaces
// the previous bid; only the final bid before CloseAuction counts.
//
// SubmitBid is idempotent on (worker, run): re-submitting the bid already
// on record after the auction closed is a no-op success (the retry of a
// bid whose acknowledgment was lost), while a new or changed bid after the
// close remains ErrAuctionClosed.
func (p *Platform) SubmitBid(ctx context.Context, workerID string, bid Bid) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.submitBidLocked(workerID, bid)
}

// WorkerBid pairs a worker with a bid, for batch submission.
type WorkerBid struct {
	WorkerID string
	Bid      Bid
}

// SubmitBids submits a whole batch of bids under one lock acquisition,
// reporting each item's outcome in the BatchResult. Item semantics are
// exactly SubmitBid's, including the idempotent-replay rules; a rejected
// item does not affect its neighbours. A cancelled ctx rejects every item
// with the context error before any is applied — batches are all-or-nothing
// with respect to cancellation.
func (p *Platform) SubmitBids(ctx context.Context, bids []WorkerBid) BatchResult {
	errs := make([]error, len(bids))
	if err := ctxErr(ctx); err != nil {
		for i := range errs {
			errs[i] = err
		}
		return NewBatchResult(errs)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, b := range bids {
		errs[i] = p.submitBidLocked(b.WorkerID, b.Bid)
	}
	return NewBatchResult(errs)
}

// submitBidLocked is SubmitBid's body; callers hold p.mu.
func (p *Platform) submitBidLocked(workerID string, bid Bid) error {
	if p.open == nil {
		return ErrNoRunOpen
	}
	if !p.registry.Has(workerID) {
		return fmt.Errorf("%w: %s", ErrUnknownWorker, workerID)
	}
	if !(bid.Cost > 0) {
		return fmt.Errorf("melody: bid cost %v must be positive", bid.Cost)
	}
	if bid.Frequency < 1 {
		return fmt.Errorf("melody: bid frequency %d must be at least 1", bid.Frequency)
	}
	if p.open.outcome != nil {
		if prev, ok := p.open.bids[workerID]; ok && prev == bid {
			return nil // retried delivery of the bid that already counted
		}
		return ErrAuctionClosed
	}
	p.open.bids[workerID] = bid
	return nil
}

// CloseAuction ends the bidding phase, runs the mechanism and returns the
// allocation and payment schemes. Workers who did not bid are excluded.
//
// CloseAuction is idempotent: closing an already-closed auction returns
// the original outcome again without re-running the mechanism or settling
// any payment twice, so a retried close after a lost response is safe.
func (p *Platform) CloseAuction(ctx context.Context) (*Outcome, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.open == nil {
		return nil, ErrNoRunOpen
	}
	if p.open.outcome != nil {
		return p.open.outcome, nil // retried close: replay the outcome
	}
	// Feed the incremental kernel this run's bidder delta: new and changed
	// (bid, estimate) pairs re-enter the cached ranking, absent bidders
	// leave it. Delta order does not matter — the kernel's sorted structures
	// are a pure function of the worker multiset.
	var delta core.WorkerDelta
	p.estMu.RLock()
	for id, bid := range p.open.bids {
		w := Worker{ID: id, Bid: bid, Quality: p.est.Estimate(id)}
		if prev, ok := p.bidders[id]; !ok || prev != w {
			delta.Upserts = append(delta.Upserts, w)
		}
	}
	p.estMu.RUnlock()
	for id := range p.bidders {
		if _, ok := p.open.bids[id]; !ok {
			delta.Removes = append(delta.Removes, id)
		}
	}
	if err := p.auction.Apply(delta); err != nil {
		return nil, err
	}
	for _, w := range delta.Upserts {
		p.bidders[w.ID] = w
	}
	for _, id := range delta.Removes {
		delete(p.bidders, id)
	}
	out, err := p.auction.RunMelody(p.open.tasks, p.open.budget)
	if err != nil {
		return nil, err
	}
	if p.open.settlement != nil {
		// Settle every payment from escrow. The mechanism is budget
		// feasible, so this cannot overdraw; an error here indicates a
		// programming bug and aborts the close before state changes.
		for _, a := range out.Assignments {
			if err := p.open.settlement.Pay(LedgerAccount(a.WorkerID), a.Payment, a.TaskID); err != nil {
				return nil, fmt.Errorf("melody: settle payment: %w", err)
			}
		}
	}
	p.open.outcome = out
	p.open.recorded = make(map[string]map[string]float64)
	p.open.assigned = make(map[string]map[string]bool)
	for _, a := range out.Assignments {
		if p.open.assigned[a.WorkerID] == nil {
			p.open.assigned[a.WorkerID] = make(map[string]bool)
		}
		p.open.assigned[a.WorkerID][a.TaskID] = true
	}
	return out, nil
}

// SubmitScore records the requester's score for a worker's answer to an
// assigned task. Each assigned (worker, task) pair takes at most one score.
// A score the estimators would refuse (NaN, or beyond ±1e18) is refused
// here, so it can never make a later FinishRun fail.
//
// SubmitScore is idempotent on (worker, task, run): re-submitting the
// score already on record for the pair is a no-op success (a retried
// delivery), while a different value for an already-scored pair — or a
// pair that was never allocated — is ErrNotAssigned.
func (p *Platform) SubmitScore(ctx context.Context, workerID, taskID string, score float64) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.submitScoreLocked(workerID, taskID, score)
}

// TaskScore is one scored assignment, for batch submission.
type TaskScore struct {
	WorkerID string
	TaskID   string
	Score    float64
}

// SubmitScores submits a whole batch of scores under one lock acquisition,
// reporting each item's outcome in the BatchResult. Item semantics are
// exactly SubmitScore's, including the idempotent-replay rules; a rejected
// item does not affect its neighbours. A cancelled ctx rejects every item
// with the context error before any is applied.
func (p *Platform) SubmitScores(ctx context.Context, scores []TaskScore) BatchResult {
	errs := make([]error, len(scores))
	if err := ctxErr(ctx); err != nil {
		for i := range errs {
			errs[i] = err
		}
		return NewBatchResult(errs)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, s := range scores {
		errs[i] = p.submitScoreLocked(s.WorkerID, s.TaskID, s.Score)
	}
	return NewBatchResult(errs)
}

// submitScoreLocked is SubmitScore's body; callers hold p.mu.
func (p *Platform) submitScoreLocked(workerID, taskID string, score float64) error {
	if err := quality.CheckScore(score); err != nil {
		return fmt.Errorf("melody: worker %s task %s: %w", workerID, taskID, err)
	}
	if p.open == nil {
		return ErrNoRunOpen
	}
	if p.open.outcome == nil {
		return ErrAuctionOpen
	}
	if !p.open.assigned[workerID][taskID] {
		if prev, ok := p.open.recorded[workerID][taskID]; ok {
			if prev == score {
				return nil // retried delivery of the score that already counted
			}
			return fmt.Errorf("%w: worker %s task %s already scored %v (got %v)",
				ErrNotAssigned, workerID, taskID, prev, score)
		}
		return fmt.Errorf("%w: worker %s task %s", ErrNotAssigned, workerID, taskID)
	}
	p.open.assigned[workerID][taskID] = false // consume the slot
	if p.open.recorded[workerID] == nil {
		p.open.recorded[workerID] = make(map[string]float64)
	}
	p.open.recorded[workerID][taskID] = score
	p.open.scores[workerID] = append(p.open.scores[workerID], score)
	return nil
}

// FinishRun ends the run: every registered worker's quality is updated from
// the scores collected this run (an empty set for workers who won nothing),
// and the platform becomes ready for the next OpenRun.
func (p *Platform) FinishRun(ctx context.Context) error {
	_, err := p.finishRun(ctx, nil)
	return err
}

// finishRun is FinishRun with RunScheduler.FinishRunEM's logged
// re-estimations: it installs logged instead of running EM, and returns
// the re-estimations the finish made.
func (p *Platform) finishRun(ctx context.Context, logged []Reestimation) ([]Reestimation, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	sp := p.tracer.Start("run.finish")
	defer sp.End()
	p.mu.Lock()
	defer p.mu.Unlock()
	sp.SetRun(p.run + 1)
	if p.open == nil {
		return nil, ErrNoRunOpen
	}
	if p.open.outcome == nil {
		return nil, ErrAuctionOpen
	}
	p.estMu.Lock()
	made, err := p.observeRun(p.registry.All(), logged)
	p.estMu.Unlock()
	if err != nil {
		return nil, err
	}
	if p.open.settlement != nil {
		if err := p.open.settlement.Close(); err != nil {
			return nil, fmt.Errorf("melody: refund escrow: %w", err)
		}
	}
	p.run++
	p.open = nil
	p.runsCompleted.Inc()
	return made, nil
}

// observeRun updates the estimator with the open run's scores of every
// worker in ids. An estimator that absorbs a whole run at once
// (quality.BatchObserver) gets one batch, with the logged re-estimations,
// and reports the ones it made; any other gets one Observe per worker, up
// to the first failure, runs its own EMs whatever was logged, and reports
// none. Either way the error names a worker that failed. Callers hold
// p.mu and estMu.
func (p *Platform) observeRun(ids []string, logged []Reestimation) ([]Reestimation, error) {
	batch, ok := p.est.(quality.BatchObserver)
	if !ok {
		for _, id := range ids {
			if err := p.est.Observe(id, p.open.scores[id]); err != nil {
				return nil, fmt.Errorf("melody: update %s: %w", id, err)
			}
		}
		return nil, nil
	}
	scores := make([][]float64, len(ids))
	for i, id := range ids {
		scores[i] = p.open.scores[id]
	}
	made, err := batch.ObserveBatch(ids, scores, logged)
	var we *quality.WorkerError
	switch {
	case errors.As(err, &we):
		return nil, fmt.Errorf("melody: update %s: %w", we.Worker, err)
	case err != nil:
		return nil, fmt.Errorf("melody: update: %w", err)
	}
	return made, nil
}
