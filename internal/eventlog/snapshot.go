package eventlog

import (
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
)

// SnapshotFormat identifies a state snapshot file.
const SnapshotFormat = "melody-snapshot"

// snapshotFileVersion guards the snapshot file encoding.
const snapshotFileVersion = 1

// Snapshot is the storage engine's state-snapshot envelope: the scheduler
// state (an opaque payload the scheduler encodes) pinned to the log
// sequence it reflects. Recovery loads the newest valid snapshot and
// replays only records with higher sequence numbers, bounding restart time
// by the tail length instead of the log length.
type Snapshot struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	// Seq is the last log sequence the state reflects; every record at or
	// below it is subsumed by State.
	Seq int64 `json:"seq"`
	// Runs is the number of completed (and therefore settled) runs at the
	// snapshot: snapshots are taken only while no run is open, which is
	// what makes compaction of covered segments safe.
	Runs int `json:"runs"`
	// State is the scheduler's payload (melody.SchedulerSnapshot JSON).
	State json.RawMessage `json:"state,omitempty"`
	// CRC is the IEEE CRC-32 of the canonical encoding (CRC zeroed).
	CRC uint32 `json:"crc,omitempty"`
}

// checksum computes the snapshot's CRC over its canonical encoding.
func (s Snapshot) checksum() (uint32, error) {
	s.CRC = 0
	buf, err := json.Marshal(s)
	if err != nil {
		return 0, fmt.Errorf("eventlog: encode snapshot: %w", err)
	}
	return crc32.ChecksumIEEE(buf), nil
}

// EncodeSnapshot renders the snapshot as its on-disk form (one JSON line)
// with the CRC populated.
func EncodeSnapshot(s Snapshot) ([]byte, error) {
	if s.Format == "" {
		s.Format = SnapshotFormat
	}
	if s.Version == 0 {
		s.Version = snapshotFileVersion
	}
	if len(s.State) > 0 && !json.Valid(s.State) {
		return nil, errors.New("eventlog: snapshot state is not valid JSON")
	}
	if len(s.State) > 0 {
		// Canonicalize the payload so the CRC is computed over exactly the
		// bytes that land on disk.
		var compact bytes.Buffer
		if err := json.Compact(&compact, s.State); err != nil {
			return nil, fmt.Errorf("eventlog: compact snapshot state: %w", err)
		}
		s.State = json.RawMessage(compact.Bytes())
	}
	crc, err := s.checksum()
	if err != nil {
		return nil, err
	}
	s.CRC = crc
	buf, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("eventlog: encode snapshot: %w", err)
	}
	return append(buf, '\n'), nil
}

// DecodeSnapshot parses and verifies a snapshot file's contents. It never
// panics on malformed input; a CRC of zero (legacy or hand-written
// snapshots) skips checksum verification like unchecksummed event records.
func DecodeSnapshot(data []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(bytes.TrimSuffix(data, []byte("\n")), &s); err != nil {
		return Snapshot{}, fmt.Errorf("eventlog: corrupt snapshot: %w", err)
	}
	if s.Format != SnapshotFormat {
		return Snapshot{}, fmt.Errorf("eventlog: snapshot format %q (want %q)", s.Format, SnapshotFormat)
	}
	if s.Version != snapshotFileVersion {
		return Snapshot{}, fmt.Errorf("eventlog: snapshot version %d (want %d)", s.Version, snapshotFileVersion)
	}
	if s.Seq < 0 || s.Runs < 0 {
		return Snapshot{}, fmt.Errorf("eventlog: snapshot seq %d / runs %d negative", s.Seq, s.Runs)
	}
	if s.CRC != 0 {
		want := s.CRC
		got, err := s.checksum()
		if err != nil {
			return Snapshot{}, err
		}
		if got != want {
			return Snapshot{}, errors.New("eventlog: snapshot checksum mismatch")
		}
	}
	return s, nil
}

// snapshotFileName renders the canonical file name of the snapshot covering
// sequences up to seq.
func snapshotFileName(seq int64) string { return fmt.Sprintf("snap-%016d.json", seq) }

// parseSnapshotName extracts the covered sequence from a snapshot file name.
func parseSnapshotName(name string) (int64, bool) {
	rest, ok := strings.CutPrefix(name, "snap-")
	if !ok {
		return 0, false
	}
	digits, ok := strings.CutSuffix(rest, ".json")
	if !ok || len(digits) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseInt(digits, 10, 64)
	if err != nil || seq < 0 {
		return 0, false
	}
	return seq, true
}

// newestSnapshot scans dir for snapshot files and loads the newest one that
// decodes and verifies; invalid candidates are skipped (an interrupted or
// corrupted snapshot must never block recovery — older snapshots and the
// log tail still reconstruct the state).
func newestSnapshot(dir string) (*Snapshot, string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, "", fmt.Errorf("eventlog: scan %s: %w", dir, err)
	}
	type candidate struct {
		name string
		seq  int64
	}
	var candidates []candidate
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		if seq, ok := parseSnapshotName(ent.Name()); ok {
			candidates = append(candidates, candidate{ent.Name(), seq})
		}
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].seq > candidates[j].seq })
	for _, c := range candidates {
		data, err := os.ReadFile(filepath.Join(dir, c.name))
		if err != nil {
			continue
		}
		snap, err := DecodeSnapshot(data)
		if err != nil || snap.Seq != c.seq {
			continue
		}
		return &snap, c.name, nil
	}
	return nil, "", nil
}

// writeSnapshotFile stages and atomically installs a snapshot: temp file,
// fsync, rename, directory fsync. hook is the failpoint hook (may be nil).
func writeSnapshotFile(dir string, s Snapshot, hook func(string) error) (string, error) {
	line, err := EncodeSnapshot(s)
	if err != nil {
		return "", err
	}
	name := snapshotFileName(s.Seq)
	final := filepath.Join(dir, name)
	tmp := final + ".tmp"
	if hook != nil {
		if err := hook(FailpointSnapshotWrite); err != nil {
			// Simulated crash mid-stage: half the snapshot reaches the temp
			// file, which recovery sweeps; the previous snapshot stays
			// authoritative.
			_ = os.WriteFile(tmp, line[:len(line)/2], 0o644)
			return "", err
		}
	}
	if err := os.WriteFile(tmp, line, 0o644); err != nil {
		return "", fmt.Errorf("eventlog: stage snapshot %s: %w", name, err)
	}
	tf, err := os.OpenFile(tmp, os.O_WRONLY, 0)
	if err != nil {
		return "", fmt.Errorf("eventlog: reopen staged snapshot %s: %w", tmp, err)
	}
	serr := tf.Sync()
	tf.Close()
	if serr != nil {
		return "", fmt.Errorf("eventlog: fsync staged snapshot %s: %w", tmp, serr)
	}
	if err := os.Rename(tmp, final); err != nil {
		return "", fmt.Errorf("eventlog: install snapshot %s: %w", name, err)
	}
	if err := syncDir(dir); err != nil {
		return "", err
	}
	return name, nil
}
