package eventlog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"melody/internal/obs"
)

// DefaultSegmentBytes is the rotation threshold when SegmentBytes is zero.
const DefaultSegmentBytes = 4 << 20

// SegmentedOptions configures a segmented log beyond the base Options.
type SegmentedOptions struct {
	Options
	// SegmentBytes is the size at which the active segment is sealed and a
	// new one started; zero means DefaultSegmentBytes.
	SegmentBytes int64
	// SnapshotEvery arms ShouldSnapshot once this many records have been
	// appended since the last snapshot; the owner (a PersistentScheduler)
	// then takes a state snapshot at the next finish that leaves no run
	// open. Zero disables snapshots.
	SnapshotEvery int
	// DisableCompaction keeps every sealed segment on disk even when a
	// snapshot fully covers it. Differential tests use it to retain the
	// full history for from-scratch replay oracles.
	DisableCompaction bool
	// Failpoint is the chaos kill-point hook (see FailpointSegmentAppend
	// and friends); nil disables injection.
	Failpoint func(string) error
}

// RecoveredState is what OpenSegmented reconstructed: the newest valid
// snapshot (nil on a fresh or snapshot-less log) and the tail events with
// sequences above it, in order. The caller restores the snapshot into its
// scheduler and replays the events.
type RecoveredState struct {
	Snapshot *Snapshot
	Events   []Event
	// SkippedSegments counts sealed segments recovery did not read because
	// the snapshot covers them — the measure of bounded recovery.
	SkippedSegments int
}

// SegmentedLog is the segmented storage engine: an event Log whose records
// land in size-bounded segment files, plus state snapshots that bound
// recovery to the tail and compaction that bounds disk to the tail. It
// embeds *Log, so the append pipeline (group commit, torn-tail semantics,
// failure poisoning) is exactly the single-file engine's.
type SegmentedLog struct {
	*Log
	sw   *segmentWriter
	dir  string
	opts SegmentedOptions

	snapMu   sync.Mutex
	snapSeq  int64 // sequence covered by the newest valid snapshot
	snapName string
	snapTime time.Time

	snapshots *obs.Counter
	compacted *obs.Counter
	snapAge   *obs.Gauge
	replayed  *obs.Gauge
	tracer    *obs.Tracer
}

// Dir returns the storage directory.
func (s *SegmentedLog) Dir() string { return s.dir }

// OpenSegmented opens (creating if needed) the segmented log in dir and
// recovers its state: sweep temp debris, load the newest valid snapshot,
// scan only the segments the snapshot does not cover (truncating a torn
// tail on the last one), verify the header chain across the segments read,
// and resume appending to the last segment. The returned RecoveredState
// carries the snapshot and tail events the caller replays.
func OpenSegmented(dir string, opts SegmentedOptions) (*SegmentedLog, *RecoveredState, error) {
	rec := &RecoveredState{}
	s, skipped, err := recoverSegmented(dir, opts,
		func(snap *Snapshot) error {
			rec.Snapshot = snap
			return nil
		},
		func(e Event) error {
			rec.Events = append(rec.Events, e)
			return nil
		})
	if err != nil {
		return nil, nil, err
	}
	rec.SkippedSegments = skipped
	return s, rec, nil
}

// recoverSegmented is OpenSegmented streaming its recovery into the caller:
// restore receives the newest valid snapshot (not called when there is
// none) before any record, and replay receives each tail record above the
// snapshot in order, while later records are still being decoded. Each
// segment is read once, and the log is opened for appending — torn tail
// truncated — only after every record has replayed. It returns the number
// of sealed segments the snapshot let recovery skip.
func recoverSegmented(dir string, opts SegmentedOptions, restore func(*Snapshot) error, replay func(Event) error) (*SegmentedLog, int, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, fmt.Errorf("eventlog: create %s: %w", dir, err)
	}
	sp := opts.Tracer.Start("wal.recover")
	defer sp.End()
	if _, err := removeTempDebris(dir); err != nil {
		return nil, 0, err
	}
	snap, snapName, err := newestSnapshot(dir)
	if err != nil {
		return nil, 0, err
	}
	var snapSeq int64
	if snap != nil {
		snapSeq = snap.Seq
		if err := restore(snap); err != nil {
			return nil, 0, err
		}
	}

	segs, err := scanSegmentDir(dir)
	if err != nil {
		return nil, 0, err
	}

	var skipped, replayed int
	tail := func(e Event) error {
		if e.Seq <= snapSeq {
			return nil
		}
		if replayed == 0 && e.Seq != snapSeq+1 {
			return fmt.Errorf("eventlog: recovery gap: snapshot covers %d but the tail starts at %d", snapSeq, e.Seq)
		}
		replayed++
		return replay(e)
	}
	seq := snapSeq
	var active *segmentWriter
	switch {
	case len(segs) == 0:
		// Fresh directory (or everything compacted away then crashed before
		// the next segment was created): start the chain at the next record.
		f, hdrLen, hdrCRC, err := createSegment(dir, SegmentHeader{
			Magic: SegmentMagic, Version: segmentVersion, Base: snapSeq + 1,
		}, nil)
		if err != nil {
			return nil, 0, err
		}
		active = &segmentWriter{
			dir: dir, f: f, base: snapSeq + 1, last: snapSeq,
			size: hdrLen, committed: hdrLen, crc: hdrCRC,
		}
	default:
		// Bounded recovery: skip sealed segments the snapshot fully covers.
		// A sealed segment's records end where the next segment begins, so
		// coverage is decidable from the name chain alone, without IO.
		for i := 0; i < len(segs)-1; i++ {
			segs[i].last = segs[i+1].base - 1
		}
		firstRead := 0
		for i := 0; i < len(segs)-1; i++ {
			if segs[i+1].base-1 <= snapSeq {
				firstRead = i + 1
			}
		}
		skipped = firstRead
		var prev *sealedSegment
		var lastHeader SegmentHeader
		var lastValid int64
		var lastCRC uint32
		for i := firstRead; i < len(segs); i++ {
			header, end, err := scanSegment(filepath.Join(dir, segs[i].name), func(header SegmentHeader) error {
				if header.Base != segs[i].base {
					return fmt.Errorf("eventlog: segment %s header base %d does not match its name", segs[i].name, header.Base)
				}
				if prev != nil {
					if header.Base != prev.last+1 {
						return fmt.Errorf("eventlog: segment chain gap: %s starts at %d after %d", segs[i].name, header.Base, prev.last)
					}
					if header.PrevCRC != prev.crc {
						return fmt.Errorf("eventlog: segment chain broken: %s prev checksum mismatch", segs[i].name)
					}
				}
				return nil
			}, tail)
			if err != nil {
				return nil, 0, err
			}
			last := end.last
			if i < len(segs)-1 {
				if end.valid != segs[i].size {
					return nil, 0, fmt.Errorf("eventlog: sealed segment %s has a torn tail", segs[i].name)
				}
				if last != segs[i].last {
					return nil, 0, fmt.Errorf("eventlog: segment %s ends at seq %d but the next segment expects %d",
						segs[i].name, last, segs[i].last)
				}
				segs[i].crc = end.crc
				prev = &segs[i]
			} else {
				lastHeader = header
				lastValid = end.valid
				lastCRC = end.crc
			}
			if last > seq {
				seq = last
			}
		}
		if snapSeq > seq {
			return nil, 0, fmt.Errorf("eventlog: snapshot covers seq %d but the log ends at %d", snapSeq, seq)
		}

		lastPath := filepath.Join(dir, segs[len(segs)-1].name)
		if info, statErr := os.Stat(lastPath); statErr == nil && info.Size() > lastValid {
			if err := os.Truncate(lastPath, lastValid); err != nil {
				return nil, 0, fmt.Errorf("eventlog: truncate torn tail of %s: %w", lastPath, err)
			}
		}
		f, err := os.OpenFile(lastPath, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, 0, fmt.Errorf("eventlog: open %s: %w", lastPath, err)
		}
		active = &segmentWriter{
			dir: dir, f: f, base: lastHeader.Base, last: seq,
			size: lastValid, committed: lastValid, crc: lastCRC,
			sealed: segs[:len(segs)-1],
		}
	}

	active.limit = opts.SegmentBytes
	active.failpoint = opts.Failpoint
	active.tracer = opts.Tracer
	active.segments = opts.Metrics.Counter(obs.MetricWALSegmentsTotal, "WAL segments created (including the first of each boot).")
	active.activeBytes = opts.Metrics.Gauge(obs.MetricWALActiveSegmentBytes, "Bytes written to the active WAL segment.")
	active.segments.Inc()
	active.activeBytes.Set(float64(active.size))

	l := newLog(active, seq, opts.Options)
	l.mu.Lock()
	l.seg = active
	l.mu.Unlock()
	s := &SegmentedLog{
		Log:       l,
		sw:        active,
		dir:       dir,
		opts:      opts,
		snapSeq:   snapSeq,
		snapName:  snapName,
		snapTime:  time.Now(),
		snapshots: opts.Metrics.Counter(obs.MetricWALSnapshotsTotal, "State snapshots written."),
		compacted: opts.Metrics.Counter(obs.MetricWALCompactedSegmentsTotal, "WAL segments dropped by compaction."),
		snapAge:   opts.Metrics.Gauge(obs.MetricWALSnapshotAgeSeconds, "Seconds since the newest state snapshot, updated on storage-engine activity."),
		replayed:  opts.Metrics.Gauge(obs.MetricWALRecoveryReplayedRecords, "Records replayed by the most recent recovery."),
		tracer:    opts.Tracer,
	}
	s.replayed.Set(float64(replayed))
	sp.SetAttrInt("replayed_records", int64(replayed))
	sp.SetAttrInt("skipped_segments", int64(skipped))
	sp.SetAttrInt("snapshot_seq", snapSeq)
	return s, skipped, nil
}

// ShouldSnapshot reports whether enough records have accumulated since the
// last snapshot that the owner should take one at its next chance.
func (s *SegmentedLog) ShouldSnapshot() bool {
	if s.opts.SnapshotEvery <= 0 {
		return false
	}
	s.snapMu.Lock()
	snapSeq := s.snapSeq
	s.snapMu.Unlock()
	s.observeSnapshotAge()
	return s.Seq()-snapSeq >= int64(s.opts.SnapshotEvery)
}

// SnapshotSeq returns the sequence covered by the newest installed
// snapshot (zero when none exists).
func (s *SegmentedLog) SnapshotSeq() int64 {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return s.snapSeq
}

// observeSnapshotAge refreshes the snapshot-age gauge. The obs registry has
// no callback gauges, so the age is updated on storage-engine activity
// (snapshot checks, snapshot writes, manifests) rather than at scrape time.
func (s *SegmentedLog) observeSnapshotAge() {
	s.snapMu.Lock()
	age := time.Since(s.snapTime).Seconds()
	s.snapMu.Unlock()
	s.snapAge.Set(age)
}

// WriteSnapshot atomically installs a state snapshot covering every record
// up to and including seq (which must already be durable — the
// PersistentScheduler waits for the FinishRun record's fsync first), then
// compacts away the sealed segments the snapshot covers. runs is the
// completed-run count at the snapshot; state is the scheduler's payload.
//
// A failed snapshot write never poisons the log: the previous snapshot
// stays authoritative and appends continue, so snapshotting is a liveness
// optimization, not a correctness dependency.
func (s *SegmentedLog) WriteSnapshot(seq int64, runs int, state []byte) error {
	sp := s.tracer.Start("wal.snapshot")
	defer sp.End()
	sp.SetAttrInt("seq", seq)
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if seq <= s.snapSeq {
		return fmt.Errorf("%w: snapshot at seq %d not beyond the installed one at %d", errStaleSnapshot, seq, s.snapSeq)
	}
	name, err := writeSnapshotFile(s.dir, Snapshot{
		Format:  SnapshotFormat,
		Version: snapshotFileVersion,
		Seq:     seq,
		Runs:    runs,
		State:   state,
	}, s.opts.Failpoint)
	if err != nil {
		return err
	}
	prevName := s.snapName
	s.snapSeq = seq
	s.snapName = name
	s.snapTime = time.Now()
	s.snapshots.Inc()
	s.snapAge.Set(0)
	if !s.opts.DisableCompaction {
		dropped, err := s.compactLocked(prevName)
		sp.SetAttrInt("compacted_segments", int64(dropped))
		if err != nil {
			return err
		}
	}
	return nil
}

// errStaleSnapshot is WriteSnapshot's error for a snapshot the installed
// one already covers.
var errStaleSnapshot = errors.New("eventlog: stale snapshot")

// SegmentInfo describes one segment file in a replication manifest. Size is
// the durable byte count: the full file for sealed segments, the fsynced
// prefix for the active one — a replica may copy exactly these bytes and
// never sees unacknowledged data.
type SegmentInfo struct {
	Name   string `json:"name"`
	Base   int64  `json:"base"`
	Size   int64  `json:"size"`
	Sealed bool   `json:"sealed"`
}

// SnapshotInfo describes the installed snapshot in a replication manifest.
type SnapshotInfo struct {
	Name string `json:"name"`
	Seq  int64  `json:"seq"`
	Size int64  `json:"size"`
}

// Manifest is the primary's replication offer: the durable sequence, the
// installed snapshot (if any) and every segment with its durable size.
type Manifest struct {
	Seq      int64         `json:"seq"`
	Snapshot *SnapshotInfo `json:"snapshot,omitempty"`
	Segments []SegmentInfo `json:"segments"`
}

// Manifest reports the log's current durable file set for replication.
func (s *SegmentedLog) Manifest() (Manifest, error) {
	s.observeSnapshotAge()
	var m Manifest
	s.Log.mu.Lock()
	m.Seq = s.Log.durable
	s.Log.mu.Unlock()

	s.snapMu.Lock()
	snapName := s.snapName
	snapSeq := s.snapSeq
	s.snapMu.Unlock()
	if snapName != "" {
		info, err := os.Stat(filepath.Join(s.dir, snapName))
		if err != nil {
			return Manifest{}, fmt.Errorf("eventlog: manifest: %w", err)
		}
		m.Snapshot = &SnapshotInfo{Name: snapName, Seq: snapSeq, Size: info.Size()}
	}

	s.sw.mu.Lock()
	for _, seg := range s.sw.sealed {
		m.Segments = append(m.Segments, SegmentInfo{Name: seg.name, Base: seg.base, Size: seg.size, Sealed: true})
	}
	m.Segments = append(m.Segments, SegmentInfo{
		Name: segmentName(s.sw.base), Base: s.sw.base, Size: s.sw.committed,
	})
	s.sw.mu.Unlock()
	return m, nil
}

// ErrUnknownFile is returned by ReadFileRange for names outside the log's
// current file set.
var ErrUnknownFile = errors.New("eventlog: unknown replication file")

// ReadFileRange serves up to maxLen durable bytes of the named segment or
// snapshot file starting at off, for replication streaming. Only names from
// the current Manifest resolve (no path traversal), reads are clamped to
// the durable prefix, and a partial window is cut at the last record
// boundary (newline) so replica acks land on whole frames. done reports
// that the returned bytes reach the durable end of the file.
func (s *SegmentedLog) ReadFileRange(name string, off int64, maxLen int) (data []byte, done bool, err error) {
	if maxLen <= 0 {
		maxLen = 1 << 20
	}
	var limit int64 = -1
	if base, ok := parseSegmentName(name); ok {
		s.sw.mu.Lock()
		if base == s.sw.base {
			limit = s.sw.committed
		} else {
			for _, seg := range s.sw.sealed {
				if seg.name == name {
					limit = seg.size
					break
				}
			}
		}
		s.sw.mu.Unlock()
	} else if _, ok := parseSnapshotName(name); ok {
		s.snapMu.Lock()
		if name == s.snapName {
			if info, serr := os.Stat(filepath.Join(s.dir, name)); serr == nil {
				limit = info.Size()
			}
		}
		s.snapMu.Unlock()
	}
	if limit < 0 {
		return nil, false, fmt.Errorf("%w: %s", ErrUnknownFile, name)
	}
	if off < 0 || off > limit {
		return nil, false, fmt.Errorf("eventlog: offset %d outside durable range [0, %d] of %s", off, limit, name)
	}
	if off == limit {
		return nil, true, nil
	}
	n := limit - off
	if n > int64(maxLen) {
		n = int64(maxLen)
	}
	f, err := os.Open(filepath.Join(s.dir, name))
	if err != nil {
		return nil, false, fmt.Errorf("eventlog: read %s: %w", name, err)
	}
	defer f.Close()
	buf := make([]byte, n)
	if _, err := f.ReadAt(buf, off); err != nil {
		return nil, false, fmt.Errorf("eventlog: read %s at %d: %w", name, off, err)
	}
	if off+n < limit {
		// Partial window: end on a frame boundary when one exists, so the
		// replica's ack offsets always name a whole-record prefix.
		if cut := lastNewline(buf); cut >= 0 {
			buf = buf[:cut+1]
		}
	}
	return buf, off+int64(len(buf)) >= limit, nil
}

// lastNewline returns the index of the final '\n' in p, or -1.
func lastNewline(p []byte) int {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '\n' {
			return i
		}
	}
	return -1
}
