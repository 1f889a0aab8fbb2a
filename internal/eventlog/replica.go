package eventlog

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"melody/internal/obs"
)

// ReplicaSource is the replica's view of a primary: a manifest of durable
// files, byte-range reads of them, and an ack channel reporting how far the
// replica has durably copied. internal/platform implements it over the
// platform server's /v1/replication endpoints; tests implement it directly
// over a primary SegmentedLog.
type ReplicaSource interface {
	Manifest(ctx context.Context) (Manifest, error)
	// Chunk returns up to maxLen durable bytes of the named file at off,
	// and whether those bytes reach the durable end of the file.
	Chunk(ctx context.Context, name string, off int64, maxLen int) ([]byte, bool, error)
	// Ack reports the replica's durable position: the highest-base segment
	// it holds and how many bytes of it are fsynced locally.
	Ack(ctx context.Context, replicaID, segment string, off int64) error
}

// ReplicatorConfig configures a Replicator.
type ReplicatorConfig struct {
	// Dir is the replica's local data directory; after promotion it is
	// opened with OpenSegmentedScheduler exactly like a primary's.
	Dir string
	// Source is the primary being followed.
	Source ReplicaSource
	// ID names this replica in acks; empty defaults to the hostname.
	ID string
	// Interval is the poll period between sync rounds in Run; zero means
	// 500ms.
	Interval time.Duration
	// ChunkBytes bounds each fetched chunk; zero means 1 MiB.
	ChunkBytes int
	// Metrics optionally receives replication progress metrics.
	Metrics *obs.Registry
	// Tracer optionally records a "replica.stream" span per sync round.
	Tracer *obs.Tracer
}

// Progress summarizes one replication round.
type Progress struct {
	// BytesCopied is how many file bytes this round fetched and fsynced.
	BytesCopied int64
	// SnapshotFetched reports that a new snapshot file was installed.
	SnapshotFetched bool
	// Segment and Offset are the replica's durable position after the
	// round: the highest-base local segment and its local size.
	Segment string
	Offset  int64
	// LagBytes is how many durable bytes the primary held (per its
	// manifest) that the replica had not yet copied when the round ended.
	LagBytes int64
}

// Replicator follows a primary's segmented log, mirroring its durable
// bytes into a local directory so the replica can be promoted: because
// segment files are copied verbatim at record granularity, promotion is
// nothing more than running the standard recovery path over the local
// directory. Pull-based streaming keeps the primary's commit path free of
// replication stalls — a slow or dead replica never blocks an append.
type Replicator struct {
	cfg ReplicatorConfig

	mu       sync.Mutex
	segment  string
	offset   int64
	rounds   int64
	snapshot string // newest locally installed snapshot name

	bytesTotal *obs.Counter
	lagBytes   *obs.Gauge
	tracer     *obs.Tracer
}

// NewReplicator validates the configuration and prepares the local
// directory.
func NewReplicator(cfg ReplicatorConfig) (*Replicator, error) {
	if cfg.Dir == "" || cfg.Source == nil {
		return nil, errors.New("eventlog: replicator needs a directory and a source")
	}
	if cfg.ID == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "replica"
		}
		cfg.ID = host
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	if cfg.ChunkBytes <= 0 {
		cfg.ChunkBytes = 1 << 20
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("eventlog: create %s: %w", cfg.Dir, err)
	}
	if _, err := removeTempDebris(cfg.Dir); err != nil {
		return nil, err
	}
	return &Replicator{
		cfg:        cfg,
		bytesTotal: cfg.Metrics.Counter(obs.MetricReplicaBytesTotal, "Bytes streamed to this replica from its primary."),
		lagBytes:   cfg.Metrics.Gauge(obs.MetricReplicaLagBytes, "Durable bytes the primary holds that this replica has not yet acked."),
		tracer:     cfg.Tracer,
	}, nil
}

// Position returns the replica's durable position: its highest-base local
// segment and that file's local size.
func (r *Replicator) Position() (segment string, offset int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.segment, r.offset
}

// Sync performs one replication round: fetch the manifest, install any new
// snapshot, extend local segment files to the primary's durable sizes
// (fsyncing each extension), prune files the primary compacted away, and
// ack the new position.
func (r *Replicator) Sync(ctx context.Context) (Progress, error) {
	sp := r.tracer.Start("replica.stream")
	defer sp.End()
	var prog Progress
	m, err := r.cfg.Source.Manifest(ctx)
	if err != nil {
		return prog, err
	}

	if m.Snapshot != nil {
		installed, err := r.fetchSnapshot(ctx, *m.Snapshot)
		if err != nil {
			return prog, err
		}
		prog.SnapshotFetched = installed
	}

	for _, seg := range m.Segments {
		if _, ok := parseSegmentName(seg.Name); !ok {
			return prog, fmt.Errorf("eventlog: primary offered invalid segment name %q", seg.Name)
		}
		local := filepath.Join(r.cfg.Dir, seg.Name)
		var size int64
		if info, err := os.Stat(local); err == nil {
			size = info.Size()
		} else if !errors.Is(err, os.ErrNotExist) {
			return prog, fmt.Errorf("eventlog: stat %s: %w", local, err)
		}
		if size > seg.Size {
			// The local file is longer than the primary's durable prefix:
			// the histories have diverged (e.g. this directory was promoted
			// and wrote its own records). Refuse to silently truncate.
			return prog, fmt.Errorf("eventlog: local segment %s is %d bytes but the primary offers %d: diverged history",
				seg.Name, size, seg.Size)
		}
		copied, err := r.fetchRange(ctx, seg.Name, size, seg.Size)
		prog.BytesCopied += copied
		if err != nil {
			return prog, err
		}
		prog.Segment = seg.Name
		prog.Offset = size + copied
		if copied < seg.Size-size {
			prog.LagBytes += seg.Size - size - copied
		}
	}

	if err := r.prune(m); err != nil {
		return prog, err
	}

	r.mu.Lock()
	r.segment = prog.Segment
	r.offset = prog.Offset
	r.rounds++
	r.mu.Unlock()
	r.lagBytes.Set(float64(prog.LagBytes))
	sp.SetAttrInt("bytes", prog.BytesCopied)
	sp.SetAttrInt("lag_bytes", prog.LagBytes)

	if prog.Segment != "" {
		if err := r.cfg.Source.Ack(ctx, r.cfg.ID, prog.Segment, prog.Offset); err != nil {
			return prog, err
		}
	}
	return prog, nil
}

// fetchSnapshot installs the primary's snapshot locally (temp + verify +
// rename + dir fsync) unless it is already present; reports whether a new
// file was installed.
func (r *Replicator) fetchSnapshot(ctx context.Context, info SnapshotInfo) (bool, error) {
	if _, ok := parseSnapshotName(info.Name); !ok {
		return false, fmt.Errorf("eventlog: primary offered invalid snapshot name %q", info.Name)
	}
	local := filepath.Join(r.cfg.Dir, info.Name)
	if st, err := os.Stat(local); err == nil && st.Size() == info.Size {
		r.mu.Lock()
		r.snapshot = info.Name
		r.mu.Unlock()
		return false, nil
	}
	var data []byte
	off := int64(0)
	for off < info.Size {
		chunk, _, err := r.cfg.Source.Chunk(ctx, info.Name, off, r.cfg.ChunkBytes)
		if err != nil {
			return false, err
		}
		if len(chunk) == 0 {
			return false, fmt.Errorf("eventlog: snapshot %s truncated at %d/%d", info.Name, off, info.Size)
		}
		data = append(data, chunk...)
		off += int64(len(chunk))
	}
	snap, err := DecodeSnapshot(data)
	if err != nil {
		return false, fmt.Errorf("eventlog: fetched snapshot %s: %w", info.Name, err)
	}
	if snap.Seq != info.Seq {
		return false, fmt.Errorf("eventlog: fetched snapshot %s covers seq %d, manifest says %d", info.Name, snap.Seq, info.Seq)
	}
	tmp := local + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return false, fmt.Errorf("eventlog: stage snapshot %s: %w", info.Name, err)
	}
	tf, err := os.OpenFile(tmp, os.O_WRONLY, 0)
	if err != nil {
		return false, fmt.Errorf("eventlog: reopen staged snapshot %s: %w", tmp, err)
	}
	serr := tf.Sync()
	tf.Close()
	if serr != nil {
		return false, fmt.Errorf("eventlog: fsync staged snapshot %s: %w", tmp, serr)
	}
	if err := os.Rename(tmp, local); err != nil {
		return false, fmt.Errorf("eventlog: install snapshot %s: %w", info.Name, err)
	}
	if err := syncDir(r.cfg.Dir); err != nil {
		return false, err
	}
	r.bytesTotal.Add(int64(len(data)))
	r.mu.Lock()
	r.snapshot = info.Name
	r.mu.Unlock()
	return true, nil
}

// fetchRange extends the local copy of name from off to target, appending
// and fsyncing chunk by chunk. Chunks end on record boundaries (the primary
// cuts at newlines), so every fsynced extension is a valid record prefix.
func (r *Replicator) fetchRange(ctx context.Context, name string, off, target int64) (int64, error) {
	if off >= target {
		return 0, nil
	}
	local := filepath.Join(r.cfg.Dir, name)
	created := false
	if _, err := os.Stat(local); errors.Is(err, os.ErrNotExist) {
		created = true
	}
	f, err := os.OpenFile(local, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, fmt.Errorf("eventlog: open %s: %w", local, err)
	}
	defer f.Close()
	if created {
		if err := syncDir(r.cfg.Dir); err != nil {
			return 0, err
		}
	}
	var copied int64
	for off+copied < target {
		chunk, _, err := r.cfg.Source.Chunk(ctx, name, off+copied, r.cfg.ChunkBytes)
		if err != nil {
			return copied, err
		}
		if len(chunk) == 0 {
			// The primary's durable size can regress only by compaction
			// (file deleted), never by truncation; an empty chunk here just
			// means the manifest raced ahead of a rotation. Stop the round.
			return copied, nil
		}
		if _, err := f.Write(chunk); err != nil {
			return copied, fmt.Errorf("eventlog: append %s: %w", local, err)
		}
		if err := f.Sync(); err != nil {
			return copied, fmt.Errorf("eventlog: fsync %s: %w", local, err)
		}
		copied += int64(len(chunk))
		r.bytesTotal.Add(int64(len(chunk)))
	}
	return copied, nil
}

// prune mirrors the primary's compaction: local segments older than every
// manifest segment — and local snapshots older than the manifest's — are
// covered by the local snapshot and can go.
func (r *Replicator) prune(m Manifest) error {
	keep := make(map[string]bool, len(m.Segments)+1)
	for _, seg := range m.Segments {
		keep[seg.Name] = true
	}
	if m.Snapshot != nil {
		keep[m.Snapshot.Name] = true
	}
	entries, err := os.ReadDir(r.cfg.Dir)
	if err != nil {
		return fmt.Errorf("eventlog: scan %s: %w", r.cfg.Dir, err)
	}
	var lowest int64 = -1
	for _, seg := range m.Segments {
		if lowest < 0 || seg.Base < lowest {
			lowest = seg.Base
		}
	}
	removed := 0
	for _, ent := range entries {
		if ent.IsDir() || keep[ent.Name()] {
			continue
		}
		if base, ok := parseSegmentName(ent.Name()); ok && lowest >= 0 && base < lowest {
			if err := os.Remove(filepath.Join(r.cfg.Dir, ent.Name())); err != nil && !errors.Is(err, os.ErrNotExist) {
				return fmt.Errorf("eventlog: prune %s: %w", ent.Name(), err)
			}
			removed++
			continue
		}
		if seq, ok := parseSnapshotName(ent.Name()); ok && m.Snapshot != nil && seq < m.Snapshot.Seq {
			if err := os.Remove(filepath.Join(r.cfg.Dir, ent.Name())); err != nil && !errors.Is(err, os.ErrNotExist) {
				return fmt.Errorf("eventlog: prune %s: %w", ent.Name(), err)
			}
			removed++
		}
	}
	if removed > 0 {
		return syncDir(r.cfg.Dir)
	}
	return nil
}

// Run polls Sync until ctx is cancelled, returning ctx.Err. Transient
// source errors (a primary restarting, a dropped connection) do not stop
// the loop; the replica simply retries at the next tick.
func (r *Replicator) Run(ctx context.Context) error {
	ticker := time.NewTicker(r.cfg.Interval)
	defer ticker.Stop()
	for {
		if _, err := r.Sync(ctx); err != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
	}
}

// Rounds returns how many sync rounds have completed.
func (r *Replicator) Rounds() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rounds
}
