package eventlog

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"melody"
)

// PersistentPlatform wraps a melody.Platform so that every successful
// state-changing operation is appended to a durable write-ahead event log,
// while read-only queries go straight to the platform. A platform rebuilt
// with Replay from the same log reaches the identical state (same quality
// estimates, same run counter), because the platform is deterministic. It
// is the backend cmd/melody-platform uses when started with -wal.
//
// Operations are applied to the platform first and logged only on success,
// so the log never contains rejected operations; a crash between apply and
// append loses at most the operation whose acknowledgment was never
// written.
//
// The ordering mutex covers only "apply + enqueue", which pins the log's
// record order to the platform's application order; the wait for the fsync
// happens outside it. Concurrent mutations therefore stack up behind a
// microsecond-scale critical section instead of a millisecond-scale fsync,
// and their records ride shared group commits (see Log.AppendAsync).
type PersistentPlatform struct {
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

// NewPersistentPlatform wraps platform with the log.
func NewPersistentPlatform(p *melody.Platform, log *Log) (*PersistentPlatform, error) {
	if p == nil || log == nil {
		return nil, errors.New("eventlog: persistent platform needs a platform and a log")
	}
	return &PersistentPlatform{p: p, log: log}, nil
}

// Platform exposes the wrapped platform for read-only queries.
func (pp *PersistentPlatform) Platform() *melody.Platform { return pp.p }

// record applies op to the platform and enqueues ev under the ordering
// lock, then waits for durability outside it. The ctx deadline applies to
// the durability wait only: once applied + enqueued, the operation will
// reach disk even if the caller stops waiting (see Log.AppendAsync).
func (pp *PersistentPlatform) record(ctx context.Context, op func() error, ev Event) error {
	pp.mu.Lock()
	if err := op(); err != nil {
		pp.mu.Unlock()
		return err
	}
	_, wait, err := pp.log.AppendAsync(ev)
	pp.mu.Unlock()
	if err != nil {
		return err
	}
	return wait(ctx)
}

// RegisterWorker registers and records a worker.
func (pp *PersistentPlatform) RegisterWorker(ctx context.Context, workerID string) error {
	return pp.record(ctx,
		func() error { return pp.p.RegisterWorker(ctx, workerID) },
		Event{Kind: KindRegister, Worker: workerID})
}

// OpenRun opens and records a run.
func (pp *PersistentPlatform) OpenRun(ctx context.Context, tasks []melody.Task, budget float64) error {
	records := make([]TaskRecord, len(tasks))
	for i, t := range tasks {
		records[i] = TaskRecord{ID: t.ID, Threshold: t.Threshold}
	}
	return pp.record(ctx,
		func() error { return pp.p.OpenRun(ctx, tasks, budget) },
		Event{Kind: KindOpenRun, Tasks: records, Budget: budget})
}

// SubmitBid submits and records a bid.
func (pp *PersistentPlatform) SubmitBid(ctx context.Context, workerID string, bid melody.Bid) error {
	return pp.record(ctx,
		func() error { return pp.p.SubmitBid(ctx, workerID, bid) },
		Event{Kind: KindBid, Worker: workerID, Cost: bid.Cost, Frequency: bid.Frequency})
}

// SubmitBids applies and records a whole batch of bids, reporting per-item
// outcomes in the BatchResult. The batch is applied and enqueued under one
// acquisition of the ordering lock and waits on a single group commit, so
// its durability cost is one fsync regardless of size.
func (pp *PersistentPlatform) SubmitBids(ctx context.Context, bids []melody.WorkerBid) melody.BatchResult {
	errs := make([]error, len(bids))
	pp.mu.Lock()
	applied := pp.p.SubmitBids(ctx, bids)
	var wait func(context.Context) error
	for i, b := range bids {
		if err := applied.ErrAt(i); err != nil {
			errs[i] = err
			continue
		}
		_, w, err := pp.log.AppendAsync(Event{
			Kind: KindBid, Worker: b.WorkerID, Cost: b.Bid.Cost, Frequency: b.Bid.Frequency,
		})
		if err != nil {
			errs[i] = err
			continue
		}
		wait = w // durability is monotone: the last record covers the batch
	}
	pp.mu.Unlock()
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
func (pp *PersistentPlatform) SubmitScores(ctx context.Context, scores []melody.TaskScore) melody.BatchResult {
	errs := make([]error, len(scores))
	pp.mu.Lock()
	applied := pp.p.SubmitScores(ctx, scores)
	var wait func(context.Context) error
	for i, s := range scores {
		if err := applied.ErrAt(i); err != nil {
			errs[i] = err
			continue
		}
		_, w, err := pp.log.AppendAsync(Event{
			Kind: KindScore, Worker: s.WorkerID, Task: s.TaskID, Score: s.Score,
		})
		if err != nil {
			errs[i] = err
			continue
		}
		wait = w
	}
	pp.mu.Unlock()
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
func (pp *PersistentPlatform) CloseAuction(ctx context.Context) (*melody.Outcome, error) {
	pp.mu.Lock()
	out, err := pp.p.CloseAuction(ctx)
	if err != nil {
		pp.mu.Unlock()
		return nil, err
	}
	_, wait, err := pp.log.AppendAsync(Event{Kind: KindClose})
	pp.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := wait(ctx); err != nil {
		return nil, err
	}
	return out, nil
}

// SubmitScore submits and records a score.
func (pp *PersistentPlatform) SubmitScore(ctx context.Context, workerID, taskID string, score float64) error {
	return pp.record(ctx,
		func() error { return pp.p.SubmitScore(ctx, workerID, taskID, score) },
		Event{Kind: KindScore, Worker: workerID, Task: taskID, Score: score})
}

// FinishRun finishes and records the run. On a segmented log that is due
// for a snapshot, the platform's state is captured under the ordering lock
// — so it reflects exactly the log prefix ending at the finish record — and
// written out only after that record is durable, keeping the snapshot's
// covered sequence at or below the durable tail (a snapshot may never claim
// records a crash could still tear away).
func (pp *PersistentPlatform) FinishRun(ctx context.Context) error {
	if pp.seg == nil {
		return pp.record(ctx,
			func() error { return pp.p.FinishRun(ctx) },
			Event{Kind: KindFinish})
	}
	pp.mu.Lock()
	if err := pp.p.FinishRun(ctx); err != nil {
		pp.mu.Unlock()
		return err
	}
	seq, wait, err := pp.log.AppendAsync(Event{Kind: KindFinish})
	var snap *melody.PlatformSnapshot
	var runs int
	if err == nil && pp.seg.ShouldSnapshot() {
		runs = pp.p.Run()
		var serr error
		if snap, serr = pp.p.SnapshotState(); serr != nil {
			// The estimator may not support snapshots (ErrNoSnapshot);
			// recovery then falls back to full replay.
			pp.snapErr = serr
			snap = nil
		}
	}
	pp.mu.Unlock()
	if err != nil {
		return err
	}
	if werr := wait(ctx); werr != nil {
		return werr
	}
	if snap != nil {
		pp.writeSnapshot(seq, runs, snap)
	}
	return nil
}

// writeSnapshot encodes and installs a platform snapshot, recording rather
// than returning failures: the run that triggered the snapshot has already
// committed.
func (pp *PersistentPlatform) writeSnapshot(seq int64, runs int, snap *melody.PlatformSnapshot) {
	state, err := json.Marshal(snap)
	if err == nil {
		err = pp.seg.WriteSnapshot(seq, runs, state)
	}
	pp.mu.Lock()
	pp.snapErr = err
	pp.mu.Unlock()
}

// SnapshotErr returns the most recent snapshot failure (nil after a
// successful snapshot or when none was attempted, so always nil on a
// single-file log).
func (pp *PersistentPlatform) SnapshotErr() error {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	return pp.snapErr
}

// Workers returns the registered worker IDs (read-only, not logged).
func (pp *PersistentPlatform) Workers() []string { return pp.p.Workers() }

// State returns the platform's lifecycle snapshot (read-only, not logged).
// Front-ends use it to resume mid-run after a crash recovery.
func (pp *PersistentPlatform) State() melody.RunState { return pp.p.State() }

// Run returns the number of completed runs (read-only, not logged).
func (pp *PersistentPlatform) Run() int { return pp.p.Run() }

// Quality returns a worker's quality estimate (read-only, not logged).
func (pp *PersistentPlatform) Quality(workerID string) (float64, error) {
	return pp.p.Quality(workerID)
}

// Forecast returns a worker's quality forecast (read-only, not logged).
func (pp *PersistentPlatform) Forecast(workerID string, steps int) (melody.QualityForecast, error) {
	return pp.p.Forecast(workerID, steps)
}

// OpenPersistent opens (or creates) the write-ahead log at path, replays
// any existing events into the given freshly constructed platform, and
// returns the combined handle plus the log (which the caller must Close on
// shutdown).
func OpenPersistent(path string, p *melody.Platform) (*PersistentPlatform, *Log, error) {
	return OpenPersistentOptions(path, p, Options{SyncEveryAppend: true})
}

// OpenPersistentOptions is OpenPersistent with explicit log Options —
// cmd/melody-load uses it to benchmark the serial-commit baseline against
// the group-commit pipeline.
func OpenPersistentOptions(path string, p *melody.Platform, opts Options) (*PersistentPlatform, *Log, error) {
	if p == nil {
		return nil, nil, errors.New("eventlog: recover needs a platform")
	}
	log, err := openLog(path, opts, replayInto(p))
	if err != nil {
		return nil, nil, fmt.Errorf("eventlog: recover from %s: %w", path, err)
	}
	pp, err := NewPersistentPlatform(p, log)
	if err != nil {
		log.Close()
		return nil, nil, err
	}
	return pp, log, nil
}

// OpenPersistentSegmented opens (or creates) the segmented storage engine
// in dir, recovers the given freshly constructed platform from the newest
// valid snapshot plus the log tail, and returns the combined handle plus
// the segmented log (which the caller must Close on shutdown). Recovery is
// bounded: segments the snapshot covers are never read.
//
// Promotion of a replica is this same call on the replica's data directory:
// the replica's files are byte-identical to the primary's durable prefix,
// so recovery reconstructs exactly the state the primary had acknowledged.
func OpenPersistentSegmented(dir string, p *melody.Platform, opts SegmentedOptions) (*PersistentPlatform, *SegmentedLog, error) {
	if p == nil {
		return nil, nil, errors.New("eventlog: recover needs a platform")
	}
	slog, _, err := recoverSegmented(dir, opts, func(snap *Snapshot) error {
		var ps melody.PlatformSnapshot
		if err := json.Unmarshal(snap.State, &ps); err != nil {
			return fmt.Errorf("eventlog: decode platform snapshot at seq %d: %w", snap.Seq, err)
		}
		if err := p.RestoreSnapshot(&ps); err != nil {
			return fmt.Errorf("eventlog: restore snapshot at seq %d: %w", snap.Seq, err)
		}
		return nil
	}, replayInto(p))
	if err != nil {
		return nil, nil, err
	}
	pp, err := NewPersistentPlatform(p, slog.Log)
	if err != nil {
		slog.Close()
		return nil, nil, err
	}
	pp.seg = slog
	return pp, slog, nil
}

// ReplaySegments applies every event from every segment in dir to a fresh
// platform, ignoring snapshots entirely — the full from-scratch replay. It
// exists as the differential oracle for bounded recovery: on a directory
// whose history was never compacted, OpenPersistentSegmented (snapshot +
// tail) and ReplaySegments must land on bit-identical platform state.
func ReplaySegments(dir string, p *melody.Platform) error {
	if p == nil {
		return errors.New("eventlog: replay needs a platform")
	}
	segs, err := scanSegmentDir(dir)
	if err != nil {
		return err
	}
	replay := replayInto(p)
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
