package eventlog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"melody/internal/obs"
)

// Failpoint names the storage engine consults (via SegmentedOptions.
// Failpoint) so chaos tests can kill the process at the exact moments crash
// recovery must survive. See internal/chaos.Failpoints.
const (
	// FailpointSegmentAppend fires halfway through a segment batch write,
	// leaving a genuine torn tail on disk.
	FailpointSegmentAppend = "wal.segment.append"
	// FailpointRotateRename fires after the new segment's header is staged
	// in a temp file but before the rename installs it.
	FailpointRotateRename = "wal.rotate.rename"
	// FailpointSnapshotWrite fires halfway through staging a snapshot temp
	// file, before the rename installs it.
	FailpointSnapshotWrite = "wal.snapshot.write"
)

// SegmentMagic identifies a segment header line.
const SegmentMagic = "melodyseg"

// segmentVersion guards the segment header encoding.
const segmentVersion = 1

// SegmentHeader is the first line of every segment file: a CRC-framed JSON
// record naming the format, the sequence number of the first event record
// the segment holds, and the checksum of the previous segment at seal time
// (zero for the head of the chain), chaining segments together so a replaced
// or reordered file is detected at recovery.
type SegmentHeader struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`
	Base    int64  `json:"base"`
	// PrevCRC is the IEEE CRC-32 of the entire previous segment file at the
	// moment this segment was created; zero for the first segment.
	PrevCRC uint32 `json:"prev_crc,omitempty"`
	// CRC is the IEEE CRC-32 of the header's canonical encoding (the JSON
	// with CRC itself zeroed).
	CRC uint32 `json:"crc"`
}

// checksum computes the header's CRC over its canonical encoding.
func (h SegmentHeader) checksum() (uint32, error) {
	h.CRC = 0
	buf, err := json.Marshal(h)
	if err != nil {
		return 0, fmt.Errorf("eventlog: encode segment header: %w", err)
	}
	return crc32.ChecksumIEEE(buf), nil
}

// EncodeSegmentHeader renders the header as its on-disk line (JSON plus a
// trailing newline) with the CRC populated.
func EncodeSegmentHeader(h SegmentHeader) ([]byte, error) {
	if h.Magic == "" {
		h.Magic = SegmentMagic
	}
	if h.Version == 0 {
		h.Version = segmentVersion
	}
	crc, err := h.checksum()
	if err != nil {
		return nil, err
	}
	h.CRC = crc
	buf, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("eventlog: encode segment header: %w", err)
	}
	return append(buf, '\n'), nil
}

// DecodeSegmentHeader parses and verifies one segment header line (with or
// without its trailing newline). It never panics on malformed input.
func DecodeSegmentHeader(line []byte) (SegmentHeader, error) {
	var h SegmentHeader
	line = bytes.TrimSuffix(line, []byte("\n"))
	if err := json.Unmarshal(line, &h); err != nil {
		return SegmentHeader{}, fmt.Errorf("eventlog: corrupt segment header: %w", err)
	}
	if h.Magic != SegmentMagic {
		return SegmentHeader{}, fmt.Errorf("eventlog: segment magic %q (want %q)", h.Magic, SegmentMagic)
	}
	if h.Version != segmentVersion {
		return SegmentHeader{}, fmt.Errorf("eventlog: segment version %d (want %d)", h.Version, segmentVersion)
	}
	if h.Base < 1 {
		return SegmentHeader{}, fmt.Errorf("eventlog: segment base %d must be positive", h.Base)
	}
	want := h.CRC
	got, err := h.checksum()
	if err != nil {
		return SegmentHeader{}, err
	}
	if got != want {
		return SegmentHeader{}, errors.New("eventlog: segment header checksum mismatch")
	}
	return h, nil
}

// segmentName renders the canonical file name of the segment whose first
// record is seq.
func segmentName(seq int64) string { return fmt.Sprintf("seg-%016d.wal", seq) }

// parseSegmentName extracts the base sequence from a segment file name.
func parseSegmentName(name string) (int64, bool) {
	rest, ok := strings.CutPrefix(name, "seg-")
	if !ok {
		return 0, false
	}
	digits, ok := strings.CutSuffix(rest, ".wal")
	if !ok || len(digits) != 16 {
		return 0, false
	}
	base, err := strconv.ParseInt(digits, 10, 64)
	if err != nil || base < 1 {
		return 0, false
	}
	return base, true
}

// dirSyncs counts directory fsyncs, so the crash-durability regression
// tests can assert that every creation and rename path syncs the directory
// entry (the fix for the gap where a crash right after rename could lose
// the file name even though its bytes were durable).
var dirSyncs atomic.Int64

// syncDir fsyncs the directory itself, making a just-created or
// just-renamed directory entry durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("eventlog: open dir %s: %w", dir, err)
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return fmt.Errorf("eventlog: fsync dir %s: %w", dir, serr)
	}
	if cerr != nil {
		return fmt.Errorf("eventlog: close dir %s: %w", dir, cerr)
	}
	dirSyncs.Add(1)
	return nil
}

// sealedSegment is the bookkeeping for an immutable (rotated-out) segment.
type sealedSegment struct {
	name string
	base int64
	last int64 // sequence of the final record
	size int64
	crc  uint32 // CRC of the whole file; zero when recovery skipped reading it
}

// segmentWriter is the rotation-aware commit target backing a SegmentedLog:
// it appends record batches to the active segment file, seals the segment
// and starts a new one when the configured size is exceeded, and tracks the
// durable (fsynced) byte count replication streams from. Batches never
// split across segments — rotation happens between batches — so each
// segment is independently recoverable with the single-file torn-tail scan.
//
// The commit paths call writeBatch/Sync from one goroutine at a time (the
// committer, or the appender under the log lock in buffered mode);
// the mutex exists for Manifest and ReadFileRange, which run on replication
// goroutines.
type segmentWriter struct {
	mu        sync.Mutex
	dir       string
	limit     int64
	failpoint func(string) error

	f         *os.File
	base      int64 // active segment's first record sequence
	last      int64 // last sequence written to the active segment
	size      int64 // bytes written to the active segment (header included)
	committed int64 // bytes of the active segment known fsynced
	crc       uint32
	sealed    []sealedSegment

	segments    *obs.Counter
	activeBytes *obs.Gauge
	tracer      *obs.Tracer
}

// hit consults the armed failpoints; nil hook means none.
func (sw *segmentWriter) hit(name string) error {
	if sw.failpoint == nil {
		return nil
	}
	return sw.failpoint(name)
}

// createSegment stages a new segment file with a durable header and
// installs it atomically: temp file, fsync, rename, directory fsync. A
// crash at any point leaves either no new segment or a complete one.
func createSegment(dir string, h SegmentHeader, hook func(string) error) (*os.File, int64, uint32, error) {
	line, err := EncodeSegmentHeader(h)
	if err != nil {
		return nil, 0, 0, err
	}
	final := filepath.Join(dir, segmentName(h.Base))
	tmp := final + ".tmp"
	if err := os.WriteFile(tmp, line, 0o644); err != nil {
		return nil, 0, 0, fmt.Errorf("eventlog: stage segment %s: %w", final, err)
	}
	if tf, err := os.OpenFile(tmp, os.O_WRONLY, 0); err == nil {
		serr := tf.Sync()
		tf.Close()
		if serr != nil {
			return nil, 0, 0, fmt.Errorf("eventlog: fsync staged segment %s: %w", tmp, serr)
		}
	} else {
		return nil, 0, 0, fmt.Errorf("eventlog: reopen staged segment %s: %w", tmp, err)
	}
	if hook != nil {
		if err := hook(FailpointRotateRename); err != nil {
			// Simulated crash between staging and rename: the temp file is
			// left behind, exactly the debris recovery must sweep.
			return nil, 0, 0, err
		}
	}
	if err := os.Rename(tmp, final); err != nil {
		return nil, 0, 0, fmt.Errorf("eventlog: install segment %s: %w", final, err)
	}
	if err := syncDir(dir); err != nil {
		return nil, 0, 0, err
	}
	f, err := os.OpenFile(final, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("eventlog: open segment %s: %w", final, err)
	}
	return f, int64(len(line)), crc32.ChecksumIEEE(line), nil
}

// writeBatch appends one encoded record batch covering sequences [lo, hi],
// rotating to a fresh segment first when the active one is full.
func (sw *segmentWriter) writeBatch(p []byte, lo, hi int64) error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.limit > 0 && sw.last >= sw.base && sw.size+int64(len(p)) > sw.limit {
		// The active segment holds at least one record and this batch would
		// overflow it: seal and rotate. An oversized batch landing on an
		// empty segment grows it past the limit instead — batches are never
		// split across segment boundaries.
		if err := sw.rotateLocked(lo); err != nil {
			return err
		}
	}
	if err := sw.hit(FailpointSegmentAppend); err != nil {
		// Simulated crash mid-write: half the batch reaches the file, the
		// torn tail recovery truncates.
		half := p[:len(p)/2]
		if _, werr := sw.f.Write(half); werr == nil {
			sw.size += int64(len(half))
		}
		return err
	}
	if _, err := sw.f.Write(p); err != nil {
		return err
	}
	sw.size += int64(len(p))
	sw.crc = crc32.Update(sw.crc, crc32.IEEETable, p)
	sw.last = hi
	sw.activeBytes.Set(float64(sw.size))
	return nil
}

// rotateLocked seals the active segment (fsync, record its chain CRC) and
// installs a fresh one whose base is the next record's sequence.
func (sw *segmentWriter) rotateLocked(nextSeq int64) error {
	sp := sw.tracer.Start("wal.rotate")
	defer sp.End()
	sp.SetAttrInt("sealed_bytes", sw.size)
	sp.SetAttrInt("next_base", nextSeq)
	if err := sw.f.Sync(); err != nil {
		return fmt.Errorf("eventlog: seal segment %s: %w", segmentName(sw.base), err)
	}
	sw.committed = sw.size
	f, hdrLen, hdrCRC, err := createSegment(sw.dir, SegmentHeader{
		Magic:   SegmentMagic,
		Version: segmentVersion,
		Base:    nextSeq,
		PrevCRC: sw.crc,
	}, sw.failpoint)
	if err != nil {
		return err
	}
	if cerr := sw.f.Close(); cerr != nil {
		f.Close()
		return fmt.Errorf("eventlog: close sealed segment: %w", cerr)
	}
	sw.sealed = append(sw.sealed, sealedSegment{
		name: segmentName(sw.base),
		base: sw.base,
		last: sw.last,
		size: sw.size,
		crc:  sw.crc,
	})
	sw.f = f
	sw.base = nextSeq
	sw.last = nextSeq - 1
	sw.size = hdrLen
	sw.committed = hdrLen
	sw.crc = hdrCRC
	sw.segments.Inc()
	sw.activeBytes.Set(float64(sw.size))
	return nil
}

// Write satisfies commitTarget; the segmented commit paths go through
// writeBatch instead, so this plain append exists only for interface
// completeness (no rotation, no sequence tracking).
func (sw *segmentWriter) Write(p []byte) (int, error) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	n, err := sw.f.Write(p)
	sw.size += int64(n)
	sw.crc = crc32.Update(sw.crc, crc32.IEEETable, p[:n])
	return n, err
}

// Sync fsyncs the active segment and advances the durable byte mark.
func (sw *segmentWriter) Sync() error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if err := sw.f.Sync(); err != nil {
		return err
	}
	sw.committed = sw.size
	return nil
}

// Close closes the active segment file.
func (sw *segmentWriter) Close() error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.f.Close()
}

// scanSegment scans one segment file: header first, then event records
// with the single-file scan's integrity rules (contiguous sequences from the
// header's base, per-record CRCs), each handed to fn in order. check, when
// non-nil, vets the header before any record reaches fn. The returned
// position is the end of the last complete record (the torn-tail truncation
// point) and the CRC of the valid prefix, header included (the chain value
// the next segment's header must carry).
func scanSegment(path string, check func(SegmentHeader) error, fn func(Event) error) (SegmentHeader, scanEnd, error) {
	f, err := os.Open(path)
	if err != nil {
		return SegmentHeader{}, scanEnd{}, err
	}
	defer f.Close()

	reader := bufio.NewReader(f)
	headerLine, err := reader.ReadBytes('\n')
	if err != nil {
		// A segment is installed only after its header is durable, so a
		// torn or missing header is corruption, not a crash artifact.
		return SegmentHeader{}, scanEnd{}, fmt.Errorf("eventlog: segment %s: unreadable header: %w", path, err)
	}
	header, err := DecodeSegmentHeader(headerLine)
	if err != nil {
		return SegmentHeader{}, scanEnd{}, fmt.Errorf("eventlog: segment %s: %w", path, err)
	}
	if check != nil {
		if err := check(header); err != nil {
			return header, scanEnd{}, err
		}
	}
	// A partial final line is a torn write; the caller decides whether that
	// is tolerable (active segment) or fatal (sealed).
	end, err := scanRecords(reader, scanEnd{
		valid: int64(len(headerLine)),
		last:  header.Base - 1,
		crc:   crc32.ChecksumIEEE(headerLine),
	}, fn)
	if err != nil {
		return header, end, fmt.Errorf("%w (segment %s)", err, path)
	}
	return header, end, nil
}

// scanSegmentDir lists the segment files in dir sorted by base sequence,
// failing on duplicate or malformed bases.
func scanSegmentDir(dir string) ([]sealedSegment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("eventlog: scan %s: %w", dir, err)
	}
	var segs []sealedSegment
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		base, ok := parseSegmentName(ent.Name())
		if !ok {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			return nil, fmt.Errorf("eventlog: stat %s: %w", ent.Name(), err)
		}
		segs = append(segs, sealedSegment{name: ent.Name(), base: base, size: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })
	for i := 1; i < len(segs); i++ {
		if segs[i].base == segs[i-1].base {
			return nil, fmt.Errorf("eventlog: duplicate segment base %d", segs[i].base)
		}
	}
	return segs, nil
}

// removeTempDebris sweeps *.tmp files a crash mid-install left behind.
func removeTempDebris(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("eventlog: scan %s: %w", dir, err)
	}
	removed := 0
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".tmp") {
			continue
		}
		if err := os.Remove(filepath.Join(dir, ent.Name())); err != nil {
			return removed, fmt.Errorf("eventlog: sweep %s: %w", ent.Name(), err)
		}
		removed++
	}
	if removed > 0 {
		if err := syncDir(dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}
