package eventlog

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"melody"
)

// PersistentScheduler wraps a melody.RunScheduler so that every successful
// state-changing operation is appended to a durable event log, tagged with
// its run ID. A scheduler rebuilt with ReplayScheduler from the same log
// reaches the identical state: events from interleaved concurrent runs
// route back to their runs by ID, and each tenant's per-run sequence is a
// deterministic mechanism given its own events.
//
// Like the single-run PersistentPlatform, operations apply to the scheduler
// first and are logged only on success, and the ordering mutex covers only
// "apply + enqueue" — the fsync wait happens outside it, riding the log's
// group-commit pipeline. The mutex pins one total order across all runs,
// which replay then reproduces; that total order is what keeps the shared
// state (worker registry, ledger escrow, epoch settlement boundaries)
// byte-stable across a crash, at the cost of serializing the apply step.
// The applies themselves are short (the fsync dominates), so concurrent
// runs still overlap on the wait.
type PersistentScheduler struct {
	mu  sync.Mutex
	s   *melody.RunScheduler
	log *Log
}

// NewPersistentScheduler wraps scheduler with the log.
func NewPersistentScheduler(s *melody.RunScheduler, log *Log) (*PersistentScheduler, error) {
	if s == nil || log == nil {
		return nil, errors.New("eventlog: persistent scheduler needs a scheduler and a log")
	}
	return &PersistentScheduler{s: s, log: log}, nil
}

// OpenPersistentScheduler opens (or creates) the write-ahead log at path,
// replays any existing multi-run events into the given freshly constructed
// scheduler, and returns the combined handle plus the log (which the
// caller must Close on shutdown). It is the scheduler counterpart of
// OpenPersistentOptions, and the backend cmd/melody-platform uses for
// -multi -wal.
func OpenPersistentScheduler(path string, s *melody.RunScheduler, opts Options) (*PersistentScheduler, *Log, error) {
	if s == nil {
		return nil, nil, errors.New("eventlog: recover needs a scheduler")
	}
	// One pass over the file both replays it and finds the end appends
	// resume from; a missing log file is a first boot.
	log, err := openLog(path, opts, replayIntoScheduler(s))
	if err != nil {
		return nil, nil, fmt.Errorf("eventlog: recover from %s: %w", path, err)
	}
	ps, err := NewPersistentScheduler(s, log)
	if err != nil {
		log.Close()
		return nil, nil, err
	}
	return ps, log, nil
}

// Scheduler exposes the wrapped scheduler for read-only queries.
func (ps *PersistentScheduler) Scheduler() *melody.RunScheduler { return ps.s }

// record applies op and enqueues ev under the ordering lock, waiting for
// durability outside it.
func (ps *PersistentScheduler) record(ctx context.Context, op func() error, ev Event) error {
	ps.mu.Lock()
	if err := op(); err != nil {
		ps.mu.Unlock()
		return err
	}
	_, wait, err := ps.log.AppendAsync(ev)
	ps.mu.Unlock()
	if err != nil {
		return err
	}
	return wait(ctx)
}

// RegisterWorker registers and records a worker.
func (ps *PersistentScheduler) RegisterWorker(ctx context.Context, workerID string) error {
	return ps.record(ctx,
		func() error { return ps.s.RegisterWorker(ctx, workerID) },
		Event{Kind: KindRegister, Worker: workerID})
}

// OpenRun opens and records a run under its ID and tenant.
func (ps *PersistentScheduler) OpenRun(ctx context.Context, runID, tenant string, tasks []melody.Task, budget float64) error {
	records := make([]TaskRecord, len(tasks))
	for i, t := range tasks {
		records[i] = TaskRecord{ID: t.ID, Threshold: t.Threshold}
	}
	return ps.record(ctx,
		func() error { return ps.s.OpenRun(ctx, runID, tenant, tasks, budget) },
		Event{Kind: KindOpenRun, Run: runID, Tenant: tenant, Tasks: records, Budget: budget})
}

// SubmitBid submits and records a bid against a run.
func (ps *PersistentScheduler) SubmitBid(ctx context.Context, runID, workerID string, bid melody.Bid) error {
	return ps.record(ctx,
		func() error { return ps.s.SubmitBid(ctx, runID, workerID, bid) },
		Event{Kind: KindBid, Run: runID, Worker: workerID, Cost: bid.Cost, Frequency: bid.Frequency})
}

// SubmitBids applies and records a whole batch of bids against a run, with
// the PersistentPlatform batch contract: one lock acquisition, one group
// commit.
func (ps *PersistentScheduler) SubmitBids(ctx context.Context, runID string, bids []melody.WorkerBid) melody.BatchResult {
	errs := make([]error, len(bids))
	ps.mu.Lock()
	applied := ps.s.SubmitBids(ctx, runID, bids)
	var wait func(context.Context) error
	for i, b := range bids {
		if err := applied.ErrAt(i); err != nil {
			errs[i] = err
			continue
		}
		_, w, err := ps.log.AppendAsync(Event{
			Kind: KindBid, Run: runID, Worker: b.WorkerID,
			Cost: b.Bid.Cost, Frequency: b.Bid.Frequency,
		})
		if err != nil {
			errs[i] = err
			continue
		}
		wait = w // durability is monotone: the last record covers the batch
	}
	ps.mu.Unlock()
	if wait != nil {
		if werr := wait(ctx); werr != nil {
			for i := range errs {
				if errs[i] == nil {
					errs[i] = werr
				}
			}
		}
	}
	return melody.NewBatchResult(errs)
}

// SubmitScores applies and records a whole batch of scores against a run.
func (ps *PersistentScheduler) SubmitScores(ctx context.Context, runID string, scores []melody.TaskScore) melody.BatchResult {
	errs := make([]error, len(scores))
	ps.mu.Lock()
	applied := ps.s.SubmitScores(ctx, runID, scores)
	var wait func(context.Context) error
	for i, sc := range scores {
		if err := applied.ErrAt(i); err != nil {
			errs[i] = err
			continue
		}
		_, w, err := ps.log.AppendAsync(Event{
			Kind: KindScore, Run: runID, Worker: sc.WorkerID, Task: sc.TaskID, Score: sc.Score,
		})
		if err != nil {
			errs[i] = err
			continue
		}
		wait = w
	}
	ps.mu.Unlock()
	if wait != nil {
		if werr := wait(ctx); werr != nil {
			for i := range errs {
				if errs[i] == nil {
					errs[i] = werr
				}
			}
		}
	}
	return melody.NewBatchResult(errs)
}

// CloseAuction closes a run's auction and records the closure; the outcome
// is recomputed exactly on replay.
func (ps *PersistentScheduler) CloseAuction(ctx context.Context, runID string) (*melody.Outcome, error) {
	ps.mu.Lock()
	out, err := ps.s.CloseAuction(ctx, runID)
	if err != nil {
		ps.mu.Unlock()
		return nil, err
	}
	_, wait, err := ps.log.AppendAsync(Event{Kind: KindClose, Run: runID})
	ps.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := wait(ctx); err != nil {
		return nil, err
	}
	return out, nil
}

// SubmitScore submits and records a score against a run.
func (ps *PersistentScheduler) SubmitScore(ctx context.Context, runID, workerID, taskID string, score float64) error {
	return ps.record(ctx,
		func() error { return ps.s.SubmitScore(ctx, runID, workerID, taskID, score) },
		Event{Kind: KindScore, Run: runID, Worker: workerID, Task: taskID, Score: score})
}

// FinishRun finishes and records a run. Finish order across runs is part
// of the logged total order, so epoch settlement boundaries (every N
// finished runs) replay identically.
func (ps *PersistentScheduler) FinishRun(ctx context.Context, runID string) error {
	return ps.record(ctx,
		func() error { return ps.s.FinishRun(ctx, runID) },
		Event{Kind: KindFinish, Run: runID})
}

// SetTenantPolicy installs and records a tenant policy. Policy events
// ride the same total order as run events, so replay reconstructs the
// quota in force at every point of the log — an open refused for quota
// before a crash is refused again on replay.
func (ps *PersistentScheduler) SetTenantPolicy(ctx context.Context, tenant string, p melody.TenantPolicy) error {
	return ps.record(ctx,
		func() error { return ps.s.SetTenantPolicy(ctx, tenant, p) },
		Event{Kind: KindTenantPolicy, Tenant: tenant, Policy: &PolicyRecord{
			BudgetQuota:      p.BudgetQuota,
			EpochBudgetQuota: p.EpochBudgetQuota,
			MaxRuns:          p.MaxRuns,
			Weight:           p.Weight,
		}})
}

// TenantPolicy delegates to the scheduler.
func (ps *PersistentScheduler) TenantPolicy(tenant string) (melody.TenantPolicy, bool) {
	return ps.s.TenantPolicy(tenant)
}

// TenantStatus delegates to the scheduler.
func (ps *PersistentScheduler) TenantStatus(tenant string) (melody.TenantStatus, error) {
	return ps.s.TenantStatus(tenant)
}

// TenantStatuses delegates to the scheduler.
func (ps *PersistentScheduler) TenantStatuses() []melody.TenantStatus {
	return ps.s.TenantStatuses()
}

// ResizeRegistry delegates to the scheduler. Registry placement is
// derived state (replay re-registers every worker), so resizes are not
// logged.
func (ps *PersistentScheduler) ResizeRegistry(ctx context.Context, n int) (melody.RegistryInfo, error) {
	return ps.s.ResizeRegistry(ctx, n)
}

// Workers delegates to the scheduler.
func (ps *PersistentScheduler) Workers() []string { return ps.s.Workers() }

// CompletedRuns delegates to the scheduler.
func (ps *PersistentScheduler) CompletedRuns() int { return ps.s.CompletedRuns() }

// OpenRuns delegates to the scheduler.
func (ps *PersistentScheduler) OpenRuns() []melody.RunInfo { return ps.s.OpenRuns() }

// Run delegates to the scheduler.
func (ps *PersistentScheduler) Run(runID string) (melody.RunInfo, error) { return ps.s.Run(runID) }

// Quality delegates to the scheduler.
func (ps *PersistentScheduler) Quality(tenant, workerID string) (float64, error) {
	return ps.s.Quality(tenant, workerID)
}

// Forecast delegates to the scheduler.
func (ps *PersistentScheduler) Forecast(tenant, workerID string, steps int) (melody.QualityForecast, error) {
	return ps.s.Forecast(tenant, workerID, steps)
}

// ReplayScheduler applies every event from the log at path to a fresh
// scheduler, routing each event to its run by ID. The scheduler must have
// been constructed with the same configuration (auction intervals,
// estimator factory, epoch cadence) as the one that wrote the log. Events
// without a run ID are rejected for the kinds that need one — a single-run
// log replays into a Platform via Replay, not here. The log is read once,
// decoding ahead of the replay; on error the scheduler holds a replayed
// prefix and must be discarded.
func ReplayScheduler(path string, s *melody.RunScheduler) error {
	if s == nil {
		return errors.New("eventlog: replay needs a scheduler")
	}
	return scanFile(path, replayIntoScheduler(s))
}

// replayIntoScheduler returns the replay callback that applies each event
// to s.
func replayIntoScheduler(s *melody.RunScheduler) func(Event) error {
	return func(e Event) error {
		if err := applyScheduler(s, e); err != nil {
			return fmt.Errorf("eventlog: replay seq %d (%s): %w", e.Seq, e.Kind, err)
		}
		return nil
	}
}

func applyScheduler(s *melody.RunScheduler, e Event) error {
	ctx := context.Background()
	if e.Kind != KindRegister && e.Kind != KindTenantPolicy && e.Run == "" {
		return errors.New("eventlog: scheduler event without run ID (single-run log?)")
	}
	switch e.Kind {
	case KindRegister:
		return s.RegisterWorker(ctx, e.Worker)
	case KindTenantPolicy:
		return s.SetTenantPolicy(ctx, e.Tenant, melody.TenantPolicy{
			BudgetQuota:      e.Policy.BudgetQuota,
			EpochBudgetQuota: e.Policy.EpochBudgetQuota,
			MaxRuns:          e.Policy.MaxRuns,
			Weight:           e.Policy.Weight,
		})
	case KindOpenRun:
		tasks := make([]melody.Task, len(e.Tasks))
		for i, t := range e.Tasks {
			tasks[i] = melody.Task{ID: t.ID, Threshold: t.Threshold}
		}
		return s.OpenRun(ctx, e.Run, e.Tenant, tasks, e.Budget)
	case KindBid:
		return s.SubmitBid(ctx, e.Run, e.Worker, melody.Bid{Cost: e.Cost, Frequency: e.Frequency})
	case KindClose:
		_, err := s.CloseAuction(ctx, e.Run)
		return err
	case KindScore:
		return s.SubmitScore(ctx, e.Run, e.Worker, e.Task, e.Score)
	case KindFinish:
		return s.FinishRun(ctx, e.Run)
	default:
		return fmt.Errorf("eventlog: unknown event kind %q", e.Kind)
	}
}
