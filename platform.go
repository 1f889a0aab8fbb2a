package melody

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
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

// replayKey marks a context whose calls replay logged requests.
type replayKey struct{}

// ReplayContext returns a context for replaying logged requests. A call
// made with it changes state exactly as the live request did, but records
// no tracing span, so a boot neither pays for spans of past runs nor fills
// the trace ring with them.
func ReplayContext(ctx context.Context) context.Context {
	return context.WithValue(ctx, replayKey{}, true)
}

// tracerFor returns the tracer a call made with ctx records its spans
// with: none for a replay.
func (p *Platform) tracerFor(ctx context.Context) *obs.Tracer {
	if ctx != nil && ctx.Value(replayKey{}) != nil {
		return nil
	}
	return p.tracer
}

// Platform is the paper's crowdsourcing platform: it owns the worker
// registry, runs the per-run reverse auction, collects answer scores and
// updates the quality estimate of every worker it tracks between runs
// (the Fig. 2 workflow). Platform is safe for concurrent use; read-only
// queries (Workers, Run, Quality, Forecast) share a read lock, so status
// polls never queue behind bid ingest.
type Platform struct {
	mu      sync.RWMutex
	auction *core.AuctionState
	est     Estimator
	money   *Ledger
	settler *EpochSettler
	run     int
	open    *openRun
	// spare holds the finished run's tables, emptied, for the next run.
	spare runTables

	// registry holds the universal worker set behind striped locks, so
	// registration and membership checks never queue behind p.mu (and a
	// RunScheduler shares one registry across every tenant platform).
	registry *workerRegistry

	// estMu guards the estimator separately from the run state: Quality
	// and Forecast take only estMu.RLock, so posterior lookups never
	// contend with bid ingest (which holds p.mu but leaves the estimator
	// alone). Lock order: p.mu before estMu; registry stripes innermost.
	estMu sync.RWMutex

	// tracked lists, sorted by ID, the workers whose bids have reached one
	// of this platform's closes: the workers each finish observes, as
	// Algorithm 3 keeps an LDS per worker the requester observes. A
	// worker joins at its first such close, after catching up on what the
	// finishes since it registered would have given it (see track).
	// finishes is the number of the latest finish that reached the
	// estimator, and marks records when the finishes saw the registry grow
	// (see owed). All three are written under p.mu and estMu, so either
	// lock reads them.
	tracked  []string
	finishes int
	marks    []registryMark
	// batchScores is the finish's score batch, reused under p.mu and
	// dropped past maxKeptEntries like the run tables.
	batchScores [][]float64

	runsCompleted *obs.Counter // nil-safe; nil when PlatformConfig.Metrics is nil
	tracer        *obs.Tracer
}

// openRun is the mutable state of the currently open run.
type openRun struct {
	tasks      []Task
	budget     float64
	outcome    *Outcome
	settlement *ledger.RunSettlement // nil when no ledger is attached
	runTables
}

// runTables are the open run's per-item tables. A platform hands them on
// from each run to the next, emptied when the run finishes, so a run
// refills its tables instead of growing new ones from nothing. A table
// that grew past maxKeptEntries is dropped instead, so one large run does
// not leave the platform holding its size.
type runTables struct {
	bids map[string]Bid // worker -> the bid that counts
	// slots holds each assigned (worker, task) pair once the auction has
	// closed, with its score once one is accepted.
	slots  map[slotKey]slot
	scores map[string][]float64 // worker -> accepted scores, in order
}

// slotKey is an assigned (worker, task) pair.
type slotKey struct{ worker, task string }

// slot is an assignment's scoring state.
type slot struct {
	scored bool
	score  float64
}

// maxKeptEntries bounds the tables and buffers a platform keeps for its
// next run.
const maxKeptEntries = 64

// registryMark records that finish number finish was the first of a
// platform's finishes to see regs workers registered; every later finish
// saw at least as many.
type registryMark struct{ regs, finish int }

// take returns t with every table it lacks made, for a new run.
func (t runTables) take() runTables {
	if t.bids == nil {
		t.bids = make(map[string]Bid)
	}
	if t.slots == nil {
		t.slots = make(map[slotKey]slot)
	}
	if t.scores == nil {
		t.scores = make(map[string][]float64)
	}
	return t
}

// keep returns t's tables emptied for the next run, without any that grew
// past maxKeptEntries.
func (t runTables) keep() runTables {
	return runTables{bids: emptied(t.bids), slots: emptied(t.slots), scores: emptied(t.scores)}
}

// emptied returns m cleared, or nil when it holds more than
// maxKeptEntries entries.
func emptied[K comparable, V any](m map[K]V) map[K]V {
	if len(m) > maxKeptEntries {
		return nil
	}
	clear(m)
	return m
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
	return p.registry.All()
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
// queue behind bid ingest. A worker the platform does not track yet gets
// the estimate of the prior advanced by the finishes since it registered
// (idleEstimator), the one it will catch up to at its first close.
func (p *Platform) Quality(workerID string) (float64, error) {
	e, ok := p.registry.entry(workerID)
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownWorker, workerID)
	}
	p.estMu.RLock()
	defer p.estMu.RUnlock()
	if idle, ok := p.est.(idleEstimator); ok && !p.isTracked(e.id) {
		return idle.EstimateIdle(p.owed(e.seq)), nil
	}
	return p.est.Estimate(workerID), nil
}

// idleEstimator is the capability of an estimator whose estimate of a
// worker moves on runs without scores, as the LDS tracker's does: it reads
// a worker observed only runs times, each with no scores, without storing
// anything for it. An estimator without it must leave a never-scored
// worker at the estimate it gives a worker it has never seen (see
// Estimator.Observe).
type idleEstimator interface {
	EstimateIdle(runs int) float64
	ForecastIdle(runs, steps int) (QualityForecast, error)
}

var _ idleEstimator = (*quality.Melody)(nil)

// Forecast returns the k-step-ahead predictive distribution of a worker's
// quality, when the platform's estimator supports it (the LDS tracker
// does); otherwise ErrNoForecast. A worker the platform does not track yet
// is forecast as Quality estimates it.
func (p *Platform) Forecast(workerID string, steps int) (QualityForecast, error) {
	e, ok := p.registry.entry(workerID)
	if !ok {
		return QualityForecast{}, fmt.Errorf("%w: %s", ErrUnknownWorker, workerID)
	}
	f, ok := p.est.(Forecaster)
	if !ok {
		return QualityForecast{}, ErrNoForecast
	}
	p.estMu.RLock()
	defer p.estMu.RUnlock()
	if idle, ok := p.est.(idleEstimator); ok && !p.isTracked(e.id) {
		return idle.ForecastIdle(p.owed(e.seq), steps)
	}
	return f.Forecast(workerID, steps)
}

// isTracked reports whether the platform tracks the worker. Callers hold
// p.mu or estMu.
func (p *Platform) isTracked(id string) bool {
	_, ok := slices.BinarySearch(p.tracked, id)
	return ok
}

// owed returns how many of the platform's finishes came after the worker
// numbered seq registered: the empty observations an untracked worker
// would have had if every finish observed every registered worker.
// Callers hold p.mu or estMu.
func (p *Platform) owed(seq int) int {
	j := sort.Search(len(p.marks), func(j int) bool { return p.marks[j].regs > seq })
	if j == len(p.marks) {
		return 0
	}
	return p.finishes - p.marks[j].finish + 1
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
	run := &openRun{tasks: copied, budget: budget, runTables: p.spare.take()}
	p.spare = runTables{}
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
	if err := ctxErr(ctx); err != nil {
		return failedBatch(len(bids), err)
	}
	res := BatchResult{n: len(bids)}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, b := range bids {
		res.set(i, p.submitBidLocked(b.WorkerID, b.Bid))
	}
	return res
}

// submitBidLocked is SubmitBid's body; callers hold p.mu.
func (p *Platform) submitBidLocked(workerID string, bid Bid) error {
	if p.open == nil {
		return ErrNoRunOpen
	}
	// Keep the registry's copy of the ID: the bid's key becomes the
	// outcome's WorkerID, so every retained outcome shares one string per
	// worker instead of holding the one each request decoded.
	id, ok := p.registry.Lookup(workerID)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownWorker, workerID)
	}
	if !(bid.Cost > 0) {
		return fmt.Errorf("melody: bid cost %v must be positive", bid.Cost)
	}
	if bid.Frequency < 1 {
		return fmt.Errorf("melody: bid frequency %d must be at least 1", bid.Frequency)
	}
	if p.open.outcome != nil {
		if prev, ok := p.open.bids[id]; ok && prev == bid {
			return nil // retried delivery of the bid that already counted
		}
		return ErrAuctionClosed
	}
	p.open.bids[id] = bid
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
	// Sync the incremental kernel to this run's bidders: the kernel diffs
	// them against the set it last ran, so new and changed (bid, estimate)
	// pairs re-enter the cached ranking and absent bidders leave it. Order
	// does not matter — the kernel's sorted structures are a pure function
	// of the worker multiset. A bidder the kernel does not hold and the
	// platform does not track yet joins the tracked set before its
	// estimate is read.
	workers := make([]Worker, 0, len(p.open.bids))
	var joining []string
	p.estMu.RLock()
	for id, bid := range p.open.bids {
		if _, ok := p.auction.Lookup(id); !ok && !p.isTracked(id) {
			joining = append(joining, id)
			continue
		}
		workers = append(workers, Worker{ID: id, Bid: bid, Quality: p.est.Estimate(id)})
	}
	p.estMu.RUnlock()
	if joining != nil {
		p.estMu.Lock()
		err := p.track(joining)
		for _, id := range joining {
			workers = append(workers, Worker{ID: id, Bid: p.open.bids[id], Quality: p.est.Estimate(id)})
		}
		p.estMu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	p.auction.SetTracer(p.tracerFor(ctx))
	if err := p.auction.Sync(workers); err != nil {
		return nil, err
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
	for _, a := range out.Assignments {
		p.open.slots[slotKey{a.WorkerID, a.TaskID}] = slot{}
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
	if err := ctxErr(ctx); err != nil {
		return failedBatch(len(scores), err)
	}
	res := BatchResult{n: len(scores)}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, s := range scores {
		res.set(i, p.submitScoreLocked(s.WorkerID, s.TaskID, s.Score))
	}
	return res
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
	key := slotKey{workerID, taskID}
	prev, ok := p.open.slots[key]
	switch {
	case !ok:
		return fmt.Errorf("%w: worker %s task %s", ErrNotAssigned, workerID, taskID)
	case prev.scored && prev.score == score:
		return nil // retried delivery of the score that already counted
	case prev.scored:
		return fmt.Errorf("%w: worker %s task %s already scored %v (got %v)",
			ErrNotAssigned, workerID, taskID, prev.score, score)
	}
	p.open.slots[key] = slot{scored: true, score: score}
	p.open.scores[workerID] = append(p.open.scores[workerID], score)
	return nil
}

// FinishRun ends the run: the quality of every worker the platform tracks
// (every worker whose bid reached one of its closes) is updated from the
// scores collected this run, an empty set for workers who won nothing, and
// the platform becomes ready for the next OpenRun. A registered worker who
// has never bid here is not updated; its first close catches it up on
// these finishes first.
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
	sp := p.tracerFor(ctx).Start("run.finish")
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
	// The finish reads only the registration count: the workers it does
	// not observe are owed its empty observation from it (see owed).
	p.finishes = p.run + 1
	if n := p.registry.Count(); len(p.marks) == 0 || p.marks[len(p.marks)-1].regs < n {
		if k := len(p.marks) - 1; k >= 0 && p.marks[k].finish == p.finishes {
			p.marks[k].regs = n // a retried finish
		} else if n > 0 {
			p.marks = append(p.marks, registryMark{regs: n, finish: p.finishes})
		}
	}
	made, err := p.observe(p.tracked, p.open.scores, logged)
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
	p.spare = p.open.keep()
	p.open = nil
	p.runsCompleted.Inc()
	return made, nil
}

// track starts tracking the workers in joining, whose bids reach one of
// the platform's closes for the first time. Each first catches up on the
// finishes since it registered: the empty observations they would have
// given it, in the batches they would have given them, oldest first, so
// the estimator reaches the state it would hold had every finish observed
// every registered worker. A window with no scores makes no EM due, so no
// batch re-estimates anything. The workers join the tracked set even when
// the catch-up fails, so that a retried close does not repeat it. Callers
// hold p.mu and estMu.
func (p *Platform) track(joining []string) error {
	slices.Sort(joining)
	owed := make([]int, len(joining))
	most := 0
	for i, id := range joining {
		e, _ := p.registry.entry(id)
		owed[i] = p.owed(e.seq)
		most = max(most, owed[i])
	}
	var err error
	if most > 0 {
		batch := make([]string, 0, len(joining))
		for k := most; k > 0 && err == nil; k-- {
			batch = batch[:0]
			for i, id := range joining {
				if owed[i] >= k {
					batch = append(batch, id)
				}
			}
			_, err = p.observe(batch, nil, nil)
		}
	}
	p.tracked = mergeSorted(p.tracked, joining)
	return err
}

// mergeSorted merges the sorted, disjoint b into the sorted a, in place
// when a has the room.
func mergeSorted(a, b []string) []string {
	i, j := len(a)-1, len(b)-1
	a = slices.Grow(a, len(b))[:len(a)+len(b)]
	for k := len(a) - 1; j >= 0; k-- {
		if i >= 0 && a[i] > b[j] {
			a[k], i = a[i], i-1
		} else {
			a[k], j = b[j], j-1
		}
	}
	return a
}

// observe gives the estimator one finish's batch: the scores of every
// worker in ids, in that order, nil for a worker scores does not list. An
// estimator that absorbs a whole run at once (quality.BatchObserver) gets
// one batch, with the logged re-estimations, and reports the ones it made,
// a non-nil empty list for none; any other gets one Observe per worker, up
// to the first failure, runs its own EMs whatever was logged, and reports
// nil. Either way the error names a worker that failed. Callers hold p.mu
// and estMu.
func (p *Platform) observe(ids []string, scores map[string][]float64, logged []Reestimation) ([]Reestimation, error) {
	batch, ok := p.est.(quality.BatchObserver)
	if !ok {
		for _, id := range ids {
			if err := p.est.Observe(id, scores[id]); err != nil {
				return nil, fmt.Errorf("melody: update %s: %w", id, err)
			}
		}
		return nil, nil
	}
	buf := slices.Grow(p.batchScores[:0], len(ids))
	for _, id := range ids {
		buf = append(buf, scores[id])
	}
	made, err := batch.ObserveBatch(ids, buf, logged)
	clear(buf)
	if cap(buf) > maxKeptEntries {
		buf = nil
	}
	p.batchScores = buf[:0]
	var we *quality.WorkerError
	switch {
	case errors.As(err, &we):
		return nil, fmt.Errorf("melody: update %s: %w", we.Worker, err)
	case err != nil:
		return nil, fmt.Errorf("melody: update: %w", err)
	case made == nil:
		made = []Reestimation{}
	}
	return made, nil
}
