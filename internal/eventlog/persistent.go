package eventlog

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"

	"melody"
)

// PersistentPlatform combines a platform with a write-ahead event log into
// a single handle exposing the full platform API: mutations go through the
// Recorder (and thus the log), reads delegate to the platform. It is the
// backend cmd/melody-platform uses when started with -wal.
type PersistentPlatform struct {
	rec *Recorder
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
	rec, err := NewRecorder(p, log)
	if err != nil {
		log.Close()
		return nil, nil, err
	}
	return &PersistentPlatform{rec: rec}, log, nil
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
	rec, err := NewRecorder(p, slog.Log)
	if err != nil {
		slog.Close()
		return nil, nil, err
	}
	rec.seg = slog
	return &PersistentPlatform{rec: rec}, slog, nil
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

// SnapshotErr exposes the most recent snapshot failure (see
// Recorder.SnapshotErr); always nil on a single-file backend.
func (pp *PersistentPlatform) SnapshotErr() error { return pp.rec.SnapshotErr() }

// RegisterWorker implements the platform API.
func (pp *PersistentPlatform) RegisterWorker(ctx context.Context, workerID string) error {
	return pp.rec.RegisterWorker(ctx, workerID)
}

// OpenRun implements the platform API.
func (pp *PersistentPlatform) OpenRun(ctx context.Context, tasks []melody.Task, budget float64) error {
	return pp.rec.OpenRun(ctx, tasks, budget)
}

// SubmitBid implements the platform API.
func (pp *PersistentPlatform) SubmitBid(ctx context.Context, workerID string, bid melody.Bid) error {
	return pp.rec.SubmitBid(ctx, workerID, bid)
}

// SubmitBids implements the batch platform API: the whole batch is applied
// and made durable with a single group commit.
func (pp *PersistentPlatform) SubmitBids(ctx context.Context, bids []melody.WorkerBid) melody.BatchResult {
	return pp.rec.SubmitBids(ctx, bids)
}

// SubmitScores implements the batch platform API.
func (pp *PersistentPlatform) SubmitScores(ctx context.Context, scores []melody.TaskScore) melody.BatchResult {
	return pp.rec.SubmitScores(ctx, scores)
}

// CloseAuction implements the platform API.
func (pp *PersistentPlatform) CloseAuction(ctx context.Context) (*melody.Outcome, error) {
	return pp.rec.CloseAuction(ctx)
}

// SubmitScore implements the platform API.
func (pp *PersistentPlatform) SubmitScore(ctx context.Context, workerID, taskID string, score float64) error {
	return pp.rec.SubmitScore(ctx, workerID, taskID, score)
}

// FinishRun implements the platform API.
func (pp *PersistentPlatform) FinishRun(ctx context.Context) error {
	return pp.rec.FinishRun(ctx)
}

// Workers implements the platform API (read-only, not logged).
func (pp *PersistentPlatform) Workers() []string { return pp.rec.Platform().Workers() }

// State implements the platform API (read-only, not logged). Front-ends
// use it to resume mid-run after a crash recovery.
func (pp *PersistentPlatform) State() melody.RunState { return pp.rec.Platform().State() }

// Run implements the platform API (read-only, not logged).
func (pp *PersistentPlatform) Run() int { return pp.rec.Platform().Run() }

// Quality implements the platform API (read-only, not logged).
func (pp *PersistentPlatform) Quality(workerID string) (float64, error) {
	return pp.rec.Platform().Quality(workerID)
}

// Forecast implements the platform API (read-only, not logged).
func (pp *PersistentPlatform) Forecast(workerID string, steps int) (melody.QualityForecast, error) {
	return pp.rec.Platform().Forecast(workerID, steps)
}
