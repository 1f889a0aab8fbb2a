package eventlog

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"melody"
)

// PersistentScheduler wraps a melody.RunScheduler so that every successful
// state-changing operation is appended to a durable event log, tagged with
// its run ID. A scheduler rebuilt from the same log reaches the identical
// state: events from interleaved concurrent runs route back to their runs
// by ID, and each tenant's per-run sequence is a deterministic mechanism
// given its own events. It is the backend cmd/melody-platform serves in
// every durable mode.
//
// Operations apply to the scheduler first and are logged only on success,
// so the log never contains rejected operations, and the ordering mutex
// covers only "apply + enqueue" — the fsync wait happens outside it,
// riding the log's group-commit pipeline. The mutex pins one total order
// across all runs, which replay then reproduces; that total order is what
// keeps the shared state (worker registry, ledger escrow, epoch settlement
// boundaries) byte-stable across a crash, at the cost of serializing the
// apply step. The applies themselves are short (the fsync dominates), so
// concurrent runs still overlap on the wait.
type PersistentScheduler struct {
	mu  sync.Mutex
	s   *melody.RunScheduler
	log *Log

	// seg, when non-nil, is the segmented engine owning the log: FinishRun
	// then takes periodic state snapshots at moments when no run is open
	// (the only points where the scheduler can export a snapshot).
	seg *SegmentedLog
	// snapErr records the most recent snapshot failure. Snapshots are a
	// recovery-time optimization, so a failure never fails the run that
	// triggered it; it is surfaced here for operators and tests instead.
	snapErr error
	// logged names the tenants whose policy some tenant_policy record (or
	// a snapshot of them) set. Boot-time policies are installed outside
	// the log, so a snapshot carries only these: the next boot installs
	// its own boot policies, and the logged ones override them.
	logged map[string]bool
}

// NewPersistentScheduler wraps scheduler with the log.
func NewPersistentScheduler(s *melody.RunScheduler, log *Log) (*PersistentScheduler, error) {
	if s == nil || log == nil {
		return nil, errors.New("eventlog: persistent scheduler needs a scheduler and a log")
	}
	return &PersistentScheduler{s: s, log: log, logged: make(map[string]bool)}, nil
}

// OpenPersistentScheduler opens (or creates) the single-file write-ahead
// log at path, replays any existing events into the given freshly
// constructed scheduler, and returns the combined handle plus the log
// (which the caller must Close on shutdown). It is the backend
// cmd/melody-platform uses for -wal.
func OpenPersistentScheduler(path string, s *melody.RunScheduler, opts Options) (*PersistentScheduler, *Log, error) {
	if s == nil {
		return nil, nil, errors.New("eventlog: recover needs a scheduler")
	}
	if err := spillBeside(filepath.Dir(path), s); err != nil {
		return nil, nil, err
	}
	ps := &PersistentScheduler{s: s, logged: make(map[string]bool)}
	// One pass over the file both replays it and finds the end appends
	// resume from; a missing log file is a first boot.
	log, err := openLog(path, opts, ps.replayer())
	if err != nil {
		return nil, nil, fmt.Errorf("eventlog: recover from %s: %w", path, err)
	}
	ps.log = log
	return ps, log, nil
}

// OpenSegmentedScheduler opens (or creates) the segmented storage engine
// in dir, recovers the given freshly constructed scheduler from the newest
// valid snapshot plus the log tail, and returns the combined handle plus
// the segmented log (which the caller must Close on shutdown). Recovery is
// bounded: segments the snapshot covers are never read. Tenant policies
// the caller installs before the call are boot policies; logged policies
// override them, as in a full replay.
//
// Promotion of a replica is this same call on the replica's data directory:
// the replica's files are byte-identical to the primary's durable prefix,
// so recovery reconstructs exactly the state the primary had acknowledged.
func OpenSegmentedScheduler(dir string, s *melody.RunScheduler, opts SegmentedOptions) (*PersistentScheduler, *SegmentedLog, error) {
	if s == nil {
		return nil, nil, errors.New("eventlog: recover needs a scheduler")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("eventlog: create %s: %w", dir, err)
	}
	if err := spillBeside(dir, s); err != nil {
		return nil, nil, err
	}
	ps := &PersistentScheduler{s: s, logged: make(map[string]bool)}
	seg, _, err := recoverSegmented(dir, opts, ps.restore, ps.replayer())
	if err != nil {
		return nil, nil, err
	}
	ps.log, ps.seg = seg.Log, seg
	return ps, seg, nil
}

// spillBeside gives s a scratch file in dir, the WAL's directory, for the
// closed chunks of its run archive and ledger journal
// (melody.RunScheduler.SpillTo). Replay and snapshot restore rebuild what
// the file holds, so no boot reads it, and it is unlinked as soon as it is
// made: no directory scan sees it, two schedulers on one path do not meet,
// and its space returns when the scheduler is collected and the file's
// descriptor closed. A crash before the unlink leaves a *.tmp file, which
// the segmented engine sweeps at its next boot.
func spillBeside(dir string, s *melody.RunScheduler) error {
	f, err := os.CreateTemp(dir, "spill-*.tmp")
	if err != nil {
		return fmt.Errorf("eventlog: create spill file: %w", err)
	}
	// Another boot in dir may have swept the file first.
	if err := os.Remove(f.Name()); err != nil && !errors.Is(err, os.ErrNotExist) {
		f.Close()
		return fmt.Errorf("eventlog: unlink spill file: %w", err)
	}
	s.SpillTo(f)
	return nil
}

// restore installs a snapshot's scheduler state.
func (ps *PersistentScheduler) restore(snap *Snapshot) error {
	var state melody.SchedulerSnapshot
	if err := json.Unmarshal(snap.State, &state); err != nil {
		return fmt.Errorf("eventlog: decode scheduler snapshot at seq %d: %w", snap.Seq, err)
	}
	if err := ps.s.RestoreSnapshot(&state); err != nil {
		return fmt.Errorf("eventlog: restore snapshot at seq %d: %w", snap.Seq, err)
	}
	for tenant := range state.Policies {
		ps.logged[tenant] = true
	}
	return nil
}

// replayer returns the callback that applies each recovered event to the
// scheduler. It converts every bids or scores record into one buffer of
// each kind, reused from record to record: the scheduler copies what it
// keeps of a batch.
func (ps *PersistentScheduler) replayer() func(Event) error {
	var buf replayBuffers
	return func(e Event) error {
		if err := applyScheduler(ps.s, e, &buf); err != nil {
			return fmt.Errorf("eventlog: replay seq %d (%s): %w", e.Seq, e.Kind, err)
		}
		if e.Kind == KindTenantPolicy {
			ps.logged[e.Tenant] = true
		}
		return nil
	}
}

// replayBuffers are the batches replay hands the scheduler.
type replayBuffers struct {
	bids   []melody.WorkerBid
	scores []melody.TaskScore
}

// Scheduler exposes the wrapped scheduler for read-only queries.
func (ps *PersistentScheduler) Scheduler() *melody.RunScheduler { return ps.s }

// record applies op and enqueues ev under the ordering lock, waiting for
// durability outside it.
func (ps *PersistentScheduler) record(ctx context.Context, op func() error, ev Event) error {
	wait, err := ps.apply(op, ev)
	if err != nil {
		return err
	}
	return wait(ctx)
}

// apply applies op and enqueues ev under the ordering lock, and returns
// the wait for ev's durability.
//
// Every section under the ordering lock releases it with defer: a read of
// a finished run or old ledger entry whose spilled chunk fails to read
// back panics (melody.RunScheduler.SpillTo), and the panic must fail only
// its own request.
func (ps *PersistentScheduler) apply(op func() error, ev Event) (func(context.Context) error, error) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if err := op(); err != nil {
		return nil, err
	}
	_, wait, err := ps.log.AppendAsync(ev)
	return wait, err
}

// RegisterWorker registers and records a worker.
func (ps *PersistentScheduler) RegisterWorker(ctx context.Context, workerID string) error {
	return ps.record(ctx,
		func() error { return ps.s.RegisterWorker(ctx, workerID) },
		Event{Kind: KindRegister, Worker: workerID})
}

// OpenRun opens and records a run under its ID and tenant. A retried open
// of a run the scheduler knows is already in the log: it appends nothing
// and waits for the records before it to be durable.
func (ps *PersistentScheduler) OpenRun(ctx context.Context, runID, tenant string, tasks []melody.Task, budget float64) error {
	records := make([]TaskRecord, len(tasks))
	for i, t := range tasks {
		records[i] = TaskRecord{ID: t.ID, Threshold: t.Threshold}
	}
	wait, err := ps.openLocked(ctx, runID, tenant, tasks, budget, records)
	if err != nil {
		return err
	}
	return ps.await(ctx, wait)
}

// await calls wait, or when wait is nil, the wait of a retry, which is
// already in the log: for the records before it to be durable.
func (ps *PersistentScheduler) await(ctx context.Context, wait func(context.Context) error) error {
	if wait == nil {
		return ps.log.waitTail(ctx)
	}
	return wait(ctx)
}

// openLocked is OpenRun's section under the ordering lock; its wait is nil
// for a retry.
func (ps *PersistentScheduler) openLocked(ctx context.Context, runID, tenant string, tasks []melody.Task, budget float64, records []TaskRecord) (func(context.Context) error, error) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	_, _, err := ps.s.RunState(runID)
	known := err == nil
	if err := ps.s.OpenRun(ctx, runID, tenant, tasks, budget); err != nil {
		return nil, err
	}
	if known {
		return nil, nil
	}
	_, wait, err := ps.log.AppendAsync(Event{Kind: KindOpenRun, Run: runID, Tenant: tenant, Tasks: records, Budget: budget})
	return wait, err
}

// SubmitBid submits and records a bid against a run, as a batch of one.
func (ps *PersistentScheduler) SubmitBid(ctx context.Context, runID, workerID string, bid melody.Bid) error {
	return ps.SubmitBids(ctx, runID, []melody.WorkerBid{{WorkerID: workerID, Bid: bid}}).ErrAt(0)
}

// SubmitBids applies and records a whole batch of bids against a run,
// reporting per-item outcomes in the BatchResult. The bids it applied are
// one record, so its durability cost is one append and one fsync
// regardless of size, and a crash keeps all of them or none.
func (ps *PersistentScheduler) SubmitBids(ctx context.Context, runID string, bids []melody.WorkerBid) melody.BatchResult {
	return ps.recordBatch(ctx, func() (melody.BatchResult, Event) {
		applied := ps.s.SubmitBids(ctx, runID, bids)
		ev := Event{Kind: KindBids, Run: runID}
		if n := applied.Len() - applied.FailedCount(); n > 0 {
			ev.Bids = make([]BidRecord, 0, n)
			for i, b := range bids {
				if applied.ErrAt(i) == nil {
					ev.Bids = append(ev.Bids, BidRecord{Worker: b.WorkerID, Cost: b.Bid.Cost, Frequency: b.Bid.Frequency})
				}
			}
		}
		return applied, ev
	})
}

// SubmitScore submits and records a score against a run, as a batch of
// one.
func (ps *PersistentScheduler) SubmitScore(ctx context.Context, runID, workerID, taskID string, score float64) error {
	return ps.SubmitScores(ctx, runID, []melody.TaskScore{{WorkerID: workerID, TaskID: taskID, Score: score}}).ErrAt(0)
}

// SubmitScores applies and records a whole batch of scores against a run,
// with SubmitBids' batch contract.
func (ps *PersistentScheduler) SubmitScores(ctx context.Context, runID string, scores []melody.TaskScore) melody.BatchResult {
	return ps.recordBatch(ctx, func() (melody.BatchResult, Event) {
		applied := ps.s.SubmitScores(ctx, runID, scores)
		ev := Event{Kind: KindScores, Run: runID}
		if n := applied.Len() - applied.FailedCount(); n > 0 {
			ev.Scores = make([]ScoreRecord, 0, n)
			for i, sc := range scores {
				if applied.ErrAt(i) == nil {
					ev.Scores = append(ev.Scores, ScoreRecord{Worker: sc.WorkerID, Task: sc.TaskID, Score: sc.Score})
				}
			}
		}
		return applied, ev
	})
}

// recordBatch applies a batch with apply under the ordering lock, which
// returns what it applied and ev, the record of the items it applied;
// enqueues ev unless it applied none; and waits for the record to be
// durable outside the lock. A failed append or wait fails every applied
// item.
func (ps *PersistentScheduler) recordBatch(ctx context.Context, apply func() (melody.BatchResult, Event)) melody.BatchResult {
	applied, wait, err := ps.enqueueBatch(apply)
	if err == nil && wait != nil {
		err = wait(ctx)
	}
	if err == nil {
		return applied
	}
	errs := make([]error, applied.Len())
	for i := range errs {
		if errs[i] = applied.ErrAt(i); errs[i] == nil {
			errs[i] = err
		}
	}
	return melody.NewBatchResult(errs)
}

// enqueueBatch is recordBatch's section under the ordering lock; its wait
// is nil when the batch applied nothing.
func (ps *PersistentScheduler) enqueueBatch(apply func() (melody.BatchResult, Event)) (melody.BatchResult, func(context.Context) error, error) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	applied, ev := apply()
	if ev.Bids == nil && ev.Scores == nil {
		return applied, nil, nil
	}
	_, wait, err := ps.log.AppendAsync(ev)
	return applied, wait, err
}

// CloseAuction closes a run's auction and records the closure; the outcome
// is recomputed exactly on replay. A retried close of an auction that has
// closed is already in the log: it appends nothing and waits for the
// records before it to be durable.
func (ps *PersistentScheduler) CloseAuction(ctx context.Context, runID string) (*melody.Outcome, error) {
	out, wait, err := ps.closeLocked(ctx, runID)
	if err != nil {
		return nil, err
	}
	if err := ps.await(ctx, wait); err != nil {
		return nil, err
	}
	return out, nil
}

// closeLocked is CloseAuction's section under the ordering lock; its wait
// is nil for a retry.
func (ps *PersistentScheduler) closeLocked(ctx context.Context, runID string) (*melody.Outcome, func(context.Context) error, error) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	closed, _, _ := ps.s.RunState(runID)
	out, err := ps.s.CloseAuction(ctx, runID)
	if err != nil {
		return nil, nil, err
	}
	if closed {
		return out, nil, nil
	}
	_, wait, err := ps.log.AppendAsync(Event{Kind: KindClose, Run: runID})
	return out, wait, err
}

// FinishRun finishes and records a run. Finish order across runs is part
// of the logged total order, so epoch settlement boundaries (every N
// finished runs) replay identically. The record carries the EM
// re-estimations the finish made, an empty list for none, which replay
// installs instead of running EM again. A retried finish of a run that
// has finished is already in the log: it appends nothing and waits for
// the records before it to be durable.
//
// On a segmented log that is due for a snapshot, the scheduler's state is
// captured under the ordering lock — so it reflects exactly the log prefix
// ending at the finish record — and written out only after that record is
// durable, keeping the snapshot's covered sequence at or below the durable
// tail (a snapshot may never claim records a crash could still tear away).
// While another run is open there is no state to capture; the next finish
// tries again.
func (ps *PersistentScheduler) FinishRun(ctx context.Context, runID string) error {
	seq, wait, snap, err := ps.finishLocked(ctx, runID)
	if err != nil {
		return err
	}
	if err := ps.await(ctx, wait); err != nil {
		return err
	}
	if snap != nil {
		ps.writeSnapshot(seq, snap)
	}
	return nil
}

// finishLocked is FinishRun's section under the ordering lock. It returns
// the finish record's sequence, the wait for its durability (nil for a
// retry) and the snapshot to write once it is durable, if one is due.
func (ps *PersistentScheduler) finishLocked(ctx context.Context, runID string) (int64, func(context.Context) error, *melody.SchedulerSnapshot, error) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if _, finished, _ := ps.s.RunState(runID); finished {
		return 0, nil, nil, nil
	}
	made, err := ps.s.FinishRunEM(ctx, runID, nil)
	if err != nil {
		return 0, nil, nil, err
	}
	seq, wait, err := ps.log.AppendAsync(Event{Kind: KindFinish, Run: runID, EM: emRecord(made)})
	if err != nil {
		return 0, nil, nil, err
	}
	var snap *melody.SchedulerSnapshot
	if ps.seg != nil && ps.seg.ShouldSnapshot() {
		snap = ps.snapshotLocked()
	}
	return seq, wait, snap, nil
}

// snapshotLocked captures the scheduler's state for a snapshot, or returns
// nil when there is none to take. Callers hold ps.mu.
func (ps *PersistentScheduler) snapshotLocked() *melody.SchedulerSnapshot {
	snap, err := ps.s.SnapshotState()
	if errors.Is(err, melody.ErrSnapshotMidRun) {
		return nil
	}
	if err != nil {
		// The estimator may not support snapshots (ErrNoSnapshot);
		// recovery then falls back to full replay.
		ps.snapErr = err
		return nil
	}
	for tenant := range snap.Policies {
		if !ps.logged[tenant] {
			delete(snap.Policies, tenant)
		}
	}
	return snap
}

// writeSnapshot encodes and installs a scheduler snapshot, recording rather
// than returning failures: the run that triggered the snapshot has already
// committed. Two quiescent finishes whose durable waits complete out of
// order capture overlapping snapshots; the older one, which the installed
// snapshot already covers, is skipped without being encoded and leaves
// SnapshotErr as it was.
func (ps *PersistentScheduler) writeSnapshot(seq int64, snap *melody.SchedulerSnapshot) {
	if ps.seg.SnapshotSeq() >= seq {
		return
	}
	state, err := json.Marshal(snap)
	if err == nil {
		err = ps.seg.WriteSnapshot(seq, len(snap.Runs), state)
	}
	if errors.Is(err, errStaleSnapshot) {
		return // a newer snapshot was installed while this one was encoded
	}
	ps.mu.Lock()
	ps.snapErr = err
	ps.mu.Unlock()
}

// SnapshotErr returns the most recent snapshot failure (nil after a
// successful snapshot or when none was attempted, so always nil on a
// single-file log).
func (ps *PersistentScheduler) SnapshotErr() error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.snapErr
}

// SetTenantPolicy installs and records a tenant policy. Policy events
// ride the same total order as run events, so replay reconstructs the
// quota in force at every point of the log — an open refused for quota
// before a crash is refused again on replay.
func (ps *PersistentScheduler) SetTenantPolicy(ctx context.Context, tenant string, p melody.TenantPolicy) error {
	return ps.record(ctx,
		func() error {
			if err := ps.s.SetTenantPolicy(ctx, tenant, p); err != nil {
				return err
			}
			ps.logged[tenant] = true
			return nil
		},
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
// without a run ID are rejected for the kinds that need one, so a history
// written by the retired single-run platform fails here. The log is read
// once, decoding ahead of the replay; on error the scheduler holds a
// replayed prefix and must be discarded.
func ReplayScheduler(path string, s *melody.RunScheduler) error {
	if s == nil {
		return errors.New("eventlog: replay needs a scheduler")
	}
	return scanFile(path, replayer(s))
}

// ReplaySegments applies every event from every segment in dir to a fresh
// scheduler, ignoring snapshots entirely — the full from-scratch replay. It
// exists as the differential oracle for bounded recovery: on a directory
// whose history was never compacted, OpenSegmentedScheduler (snapshot +
// tail) and ReplaySegments must land on bit-identical scheduler state.
func ReplaySegments(dir string, s *melody.RunScheduler) error {
	if s == nil {
		return errors.New("eventlog: replay needs a scheduler")
	}
	segs, err := scanSegmentDir(dir)
	if err != nil {
		return err
	}
	replay := replayer(s)
	var prev scanEnd
	for i, seg := range segs {
		_, end, err := scanSegment(filepath.Join(dir, seg.name), func(h SegmentHeader) error {
			if i > 0 && h.Base != prev.last+1 {
				return fmt.Errorf("eventlog: segment chain gap: %s starts at %d, want %d", seg.name, h.Base, prev.last+1)
			}
			return nil
		}, replay)
		if err != nil {
			return err
		}
		prev = end
	}
	return nil
}

// replayer returns the callback that replays each event into s.
func replayer(s *melody.RunScheduler) func(Event) error {
	ps := &PersistentScheduler{s: s, logged: make(map[string]bool)}
	return ps.replayer()
}

// replayCtx is the context every replayed request runs under: replay
// records no tracing span.
var replayCtx = melody.ReplayContext(context.Background())

func applyScheduler(s *melody.RunScheduler, e Event, buf *replayBuffers) error {
	ctx := replayCtx
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
	case KindBids:
		buf.bids = buf.bids[:0]
		for _, b := range e.Bids {
			buf.bids = append(buf.bids, melody.WorkerBid{WorkerID: b.Worker, Bid: melody.Bid{Cost: b.Cost, Frequency: b.Frequency}})
		}
		return s.SubmitBids(ctx, e.Run, buf.bids).Err()
	case KindClose:
		_, err := s.CloseAuction(ctx, e.Run)
		return err
	case KindScores:
		buf.scores = buf.scores[:0]
		for _, sc := range e.Scores {
			buf.scores = append(buf.scores, melody.TaskScore{WorkerID: sc.Worker, TaskID: sc.Task, Score: sc.Score})
		}
		return s.SubmitScores(ctx, e.Run, buf.scores).Err()
	case KindBid:
		return s.SubmitBid(ctx, e.Run, e.Worker, melody.Bid{Cost: e.Cost, Frequency: e.Frequency})
	case KindScore:
		return s.SubmitScore(ctx, e.Run, e.Worker, e.Task, e.Score)
	case KindFinish:
		_, err := s.FinishRunEM(ctx, e.Run, e.EM.reestimations())
		return err
	default:
		return fmt.Errorf("eventlog: unknown event kind %q", e.Kind)
	}
}

// emRecord returns the log form of a finish's re-estimations: nil when
// the estimator does not report them, the empty record when it made none.
func emRecord(made []melody.Reestimation) *EMRecord {
	switch {
	case made == nil:
		return nil
	case len(made) == 0:
		return &EMRecord{}
	}
	r := &EMRecord{Workers: make([]string, len(made)), Params: make([][3]float64, len(made))}
	for i, m := range made {
		r.Workers[i] = m.Worker
		r.Params[i] = [3]float64{m.Params.A, m.Params.Gamma, m.Params.Eta}
	}
	return r
}

// reestimations returns the re-estimations r lists: nil for a nil record,
// an empty list for the empty one.
func (r *EMRecord) reestimations() []melody.Reestimation {
	if r == nil {
		return nil
	}
	out := make([]melody.Reestimation, len(r.Workers))
	for i, id := range r.Workers {
		p := r.Params[i]
		out[i] = melody.Reestimation{Worker: id, Params: melody.QualityParams{A: p[0], Gamma: p[1], Eta: p[2]}}
	}
	return out
}
