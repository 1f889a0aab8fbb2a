package eventlog

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"melody"
)

// Recorder wraps a melody.Platform so that every successful state-changing
// operation is appended to a durable event log. A platform rebuilt with
// Replay from the same log reaches the identical state (same quality
// estimates, same run counter), because the platform is deterministic.
//
// Operations are applied to the platform first and logged only on success,
// so the log never contains rejected operations; a crash between apply and
// append loses at most the operation whose acknowledgment was never
// written.
//
// The recorder's mutex covers only "apply + enqueue", which pins the log's
// record order to the platform's application order; the wait for the fsync
// happens outside it. Concurrent mutations therefore stack up behind a
// microsecond-scale critical section instead of a millisecond-scale fsync,
// and their records ride shared group commits (see Log.AppendAsync).
type Recorder struct {
	mu  sync.Mutex
	p   *melody.Platform
	log *Log

	// seg, when non-nil, is the segmented engine owning the log: FinishRun
	// then takes periodic state snapshots at run boundaries (the only
	// points where the platform can export a consistent snapshot).
	seg *SegmentedLog
	// snapErr records the most recent snapshot failure. Snapshots are a
	// recovery-time optimization, so a failure never fails the run that
	// triggered it; it is surfaced here for operators and tests instead.
	snapErr error
}

// NewRecorder wraps platform with the log.
func NewRecorder(p *melody.Platform, log *Log) (*Recorder, error) {
	if p == nil || log == nil {
		return nil, errors.New("eventlog: recorder needs a platform and a log")
	}
	return &Recorder{p: p, log: log}, nil
}

// Platform exposes the wrapped platform for read-only queries (Quality,
// Workers, Run).
func (r *Recorder) Platform() *melody.Platform { return r.p }

// record applies op to the platform and enqueues ev under the recorder's
// ordering lock, then waits for durability outside it. The ctx deadline
// applies to the durability wait only: once applied + enqueued, the
// operation will reach disk even if the caller stops waiting (see
// Log.AppendAsync).
func (r *Recorder) record(ctx context.Context, op func() error, ev Event) error {
	r.mu.Lock()
	if err := op(); err != nil {
		r.mu.Unlock()
		return err
	}
	_, wait, err := r.log.AppendAsync(ev)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return wait(ctx)
}

// RegisterWorker registers and records a worker.
func (r *Recorder) RegisterWorker(ctx context.Context, workerID string) error {
	return r.record(ctx,
		func() error { return r.p.RegisterWorker(ctx, workerID) },
		Event{Kind: KindRegister, Worker: workerID})
}

// OpenRun opens and records a run.
func (r *Recorder) OpenRun(ctx context.Context, tasks []melody.Task, budget float64) error {
	records := make([]TaskRecord, len(tasks))
	for i, t := range tasks {
		records[i] = TaskRecord{ID: t.ID, Threshold: t.Threshold}
	}
	return r.record(ctx,
		func() error { return r.p.OpenRun(ctx, tasks, budget) },
		Event{Kind: KindOpenRun, Tasks: records, Budget: budget})
}

// SubmitBid submits and records a bid.
func (r *Recorder) SubmitBid(ctx context.Context, workerID string, bid melody.Bid) error {
	return r.record(ctx,
		func() error { return r.p.SubmitBid(ctx, workerID, bid) },
		Event{Kind: KindBid, Worker: workerID, Cost: bid.Cost, Frequency: bid.Frequency})
}

// SubmitBids applies and records a whole batch of bids, reporting per-item
// outcomes in the BatchResult. The batch is applied and enqueued under one
// acquisition of the ordering lock and waits on a single group commit, so
// its durability cost is one fsync regardless of size.
func (r *Recorder) SubmitBids(ctx context.Context, bids []melody.WorkerBid) melody.BatchResult {
	errs := make([]error, len(bids))
	r.mu.Lock()
	applied := r.p.SubmitBids(ctx, bids)
	var wait func(context.Context) error
	for i, b := range bids {
		if err := applied.ErrAt(i); err != nil {
			errs[i] = err
			continue
		}
		_, w, err := r.log.AppendAsync(Event{
			Kind: KindBid, Worker: b.WorkerID, Cost: b.Bid.Cost, Frequency: b.Bid.Frequency,
		})
		if err != nil {
			errs[i] = err
			continue
		}
		wait = w // durability is monotone: the last record covers the batch
	}
	r.mu.Unlock()
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

// SubmitScores applies and records a whole batch of scores, reporting
// per-item outcomes in the BatchResult; like SubmitBids it costs one lock
// acquisition and one group commit.
func (r *Recorder) SubmitScores(ctx context.Context, scores []melody.TaskScore) melody.BatchResult {
	errs := make([]error, len(scores))
	r.mu.Lock()
	applied := r.p.SubmitScores(ctx, scores)
	var wait func(context.Context) error
	for i, s := range scores {
		if err := applied.ErrAt(i); err != nil {
			errs[i] = err
			continue
		}
		_, w, err := r.log.AppendAsync(Event{
			Kind: KindScore, Worker: s.WorkerID, Task: s.TaskID, Score: s.Score,
		})
		if err != nil {
			errs[i] = err
			continue
		}
		wait = w
	}
	r.mu.Unlock()
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

// CloseAuction closes the auction and records the closure. The outcome
// itself is not logged: replaying the close recomputes it exactly.
func (r *Recorder) CloseAuction(ctx context.Context) (*melody.Outcome, error) {
	r.mu.Lock()
	out, err := r.p.CloseAuction(ctx)
	if err != nil {
		r.mu.Unlock()
		return nil, err
	}
	_, wait, err := r.log.AppendAsync(Event{Kind: KindClose})
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := wait(ctx); err != nil {
		return nil, err
	}
	return out, nil
}

// SubmitScore submits and records a score.
func (r *Recorder) SubmitScore(ctx context.Context, workerID, taskID string, score float64) error {
	return r.record(ctx,
		func() error { return r.p.SubmitScore(ctx, workerID, taskID, score) },
		Event{Kind: KindScore, Worker: workerID, Task: taskID, Score: score})
}

// FinishRun finishes and records the run. On a segmented log that is due
// for a snapshot, the platform's state is captured under the ordering lock
// — so it reflects exactly the log prefix ending at the finish record — and
// written out only after that record is durable, keeping the snapshot's
// covered sequence at or below the durable tail (a snapshot may never claim
// records a crash could still tear away).
func (r *Recorder) FinishRun(ctx context.Context) error {
	if r.seg == nil {
		return r.record(ctx,
			func() error { return r.p.FinishRun(ctx) },
			Event{Kind: KindFinish})
	}
	r.mu.Lock()
	if err := r.p.FinishRun(ctx); err != nil {
		r.mu.Unlock()
		return err
	}
	seq, wait, err := r.log.AppendAsync(Event{Kind: KindFinish})
	var snap *melody.PlatformSnapshot
	var runs int
	if err == nil && r.seg.ShouldSnapshot() {
		runs = r.p.Run()
		var serr error
		if snap, serr = r.p.SnapshotState(); serr != nil {
			// The estimator may not support snapshots (ErrNoSnapshot);
			// recovery then falls back to full replay.
			r.snapErr = serr
			snap = nil
		}
	}
	r.mu.Unlock()
	if err != nil {
		return err
	}
	if werr := wait(ctx); werr != nil {
		return werr
	}
	if snap != nil {
		r.writeSnapshot(seq, runs, snap)
	}
	return nil
}

// writeSnapshot encodes and installs a platform snapshot, recording rather
// than returning failures: the run that triggered the snapshot has already
// committed.
func (r *Recorder) writeSnapshot(seq int64, runs int, snap *melody.PlatformSnapshot) {
	state, err := json.Marshal(snap)
	if err == nil {
		err = r.seg.WriteSnapshot(seq, runs, state)
	}
	r.mu.Lock()
	r.snapErr = err
	r.mu.Unlock()
}

// SnapshotErr returns the most recent snapshot failure (nil after a
// successful snapshot or when none was attempted).
func (r *Recorder) SnapshotErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapErr
}

// Replay applies every event from the log at path to a fresh platform,
// rebuilding its state after a crash or restart. The platform must have
// been constructed with the same configuration (auction intervals and
// estimator parameters) as the one that wrote the log. The log is read
// once, decoding ahead of the replay; on error the platform holds a
// replayed prefix and must be discarded.
func Replay(path string, p *melody.Platform) error {
	if p == nil {
		return errors.New("eventlog: replay needs a platform")
	}
	return scanFile(path, replayInto(p))
}

// replayInto returns the replay callback that applies each event to p.
func replayInto(p *melody.Platform) func(Event) error {
	return func(e Event) error {
		if err := apply(p, e); err != nil {
			return fmt.Errorf("eventlog: replay seq %d (%s): %w", e.Seq, e.Kind, err)
		}
		return nil
	}
}

func apply(p *melody.Platform, e Event) error {
	ctx := context.Background()
	switch e.Kind {
	case KindRegister:
		return p.RegisterWorker(ctx, e.Worker)
	case KindOpenRun:
		tasks := make([]melody.Task, len(e.Tasks))
		for i, t := range e.Tasks {
			tasks[i] = melody.Task{ID: t.ID, Threshold: t.Threshold}
		}
		return p.OpenRun(ctx, tasks, e.Budget)
	case KindBid:
		return p.SubmitBid(ctx, e.Worker, melody.Bid{Cost: e.Cost, Frequency: e.Frequency})
	case KindClose:
		_, err := p.CloseAuction(ctx)
		return err
	case KindScore:
		return p.SubmitScore(ctx, e.Worker, e.Task, e.Score)
	case KindFinish:
		return p.FinishRun(ctx)
	default:
		return fmt.Errorf("eventlog: unknown event kind %q", e.Kind)
	}
}
