package eventlog

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"melody"
)

// localSource adapts a live SegmentedLog into a ReplicaSource, standing in
// for the HTTP transport internal/platform provides.
type localSource struct {
	s    *SegmentedLog
	acks int
}

func (ls *localSource) Manifest(context.Context) (Manifest, error) { return ls.s.Manifest() }

func (ls *localSource) Chunk(_ context.Context, name string, off int64, maxLen int) ([]byte, bool, error) {
	return ls.s.ReadFileRange(name, off, maxLen)
}

func (ls *localSource) Ack(context.Context, string, string, int64) error {
	ls.acks++
	return nil
}

// assertMirrored checks every file the manifest offers exists in the replica
// directory with byte-identical content over the durable prefix.
func assertMirrored(t *testing.T, primary *SegmentedLog, replicaDir string) {
	t.Helper()
	m, err := primary.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, size int64) {
		want, err := os.ReadFile(filepath.Join(primary.Dir(), name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(replicaDir, name))
		if err != nil {
			t.Fatalf("replica missing %s: %v", name, err)
		}
		if !bytes.Equal(got, want[:size]) {
			t.Errorf("replica copy of %s differs from primary durable prefix", name)
		}
	}
	for _, seg := range m.Segments {
		check(seg.Name, seg.Size)
	}
	if m.Snapshot != nil {
		check(m.Snapshot.Name, m.Snapshot.Size)
	}
}

func TestReplicatorMirrorsAndPromotes(t *testing.T) {
	primaryDir := t.TempDir()
	replicaDir := t.TempDir()
	opts := SegmentedOptions{SegmentBytes: 256, DisableCompaction: true}
	primary, _ := openSegmented(t, primaryDir, opts)
	appendN(t, primary.Log, 25)

	src := &localSource{s: primary}
	rep, err := NewReplicator(ReplicatorConfig{Dir: replicaDir, Source: src, ID: "r1", ChunkBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	prog, err := rep.Sync(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if prog.BytesCopied == 0 {
		t.Fatal("first sync copied nothing")
	}
	if src.acks == 0 {
		t.Error("sync never acked")
	}
	assertMirrored(t, primary, replicaDir)

	// The primary moves on: more records, a snapshot. The next rounds catch
	// the replica up incrementally.
	if err := primary.WriteSnapshot(20, 2, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	appendN(t, primary.Log, 15)
	if _, err := rep.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if prog, err = rep.Sync(ctx); err != nil {
		t.Fatal(err)
	} else if prog.BytesCopied != 0 {
		t.Errorf("steady-state sync still copied %d bytes", prog.BytesCopied)
	}
	if prog.LagBytes != 0 {
		t.Errorf("steady-state lag = %d bytes", prog.LagBytes)
	}
	assertMirrored(t, primary, replicaDir)
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}

	// Failover: promote the replica directory through the standard recovery
	// path and check it reconstructs the full primary history.
	promoted, rec := openSegmented(t, replicaDir, opts)
	defer promoted.Close()
	if rec.Snapshot == nil || rec.Snapshot.Seq != 20 {
		t.Fatalf("promoted snapshot = %+v, want seq 20", rec.Snapshot)
	}
	if len(rec.Events) != 20 || rec.Events[0].Seq != 21 {
		t.Fatalf("promoted tail = %d events from %d, want 20 from 21", len(rec.Events), rec.Events[0].Seq)
	}
	if promoted.Seq() != 40 {
		t.Errorf("promoted Seq = %d, want 40", promoted.Seq())
	}
	// The promoted node is writable: the season continues.
	if seq := appendN(t, promoted.Log, 3); seq != 43 {
		t.Errorf("post-promotion append seq = %d, want 43", seq)
	}
}

func TestReplicatorMirrorsCompaction(t *testing.T) {
	primaryDir := t.TempDir()
	replicaDir := t.TempDir()
	opts := SegmentedOptions{SegmentBytes: 256}
	primary, _ := openSegmented(t, primaryDir, opts)
	defer primary.Close()
	appendN(t, primary.Log, 30)

	src := &localSource{s: primary}
	rep, err := NewReplicator(ReplicatorConfig{Dir: replicaDir, Source: src, ID: "r1"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := rep.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadDir(replicaDir)
	if err != nil {
		t.Fatal(err)
	}

	// Compaction on the primary (triggered by the snapshot) must propagate:
	// the replica prunes the covered segments it had copied.
	if err := primary.WriteSnapshot(25, 2, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadDir(replicaDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) >= len(before) {
		t.Errorf("replica kept %d files after primary compaction (had %d)", len(after), len(before))
	}
	assertMirrored(t, primary, replicaDir)

	// The pruned replica still promotes cleanly.
	promoted, rec := openSegmented(t, replicaDir, opts)
	defer promoted.Close()
	if rec.Snapshot == nil || rec.Snapshot.Seq != 25 {
		t.Fatalf("promoted snapshot = %+v", rec.Snapshot)
	}
	if promoted.Seq() != 30 {
		t.Errorf("promoted Seq = %d, want 30", promoted.Seq())
	}
}

func TestReplicatorRefusesDivergedHistory(t *testing.T) {
	primaryDir := t.TempDir()
	replicaDir := t.TempDir()
	opts := SegmentedOptions{SegmentBytes: 1 << 20}
	primary, _ := openSegmented(t, primaryDir, opts)
	defer primary.Close()
	appendN(t, primary.Log, 5)

	rep, err := NewReplicator(ReplicatorConfig{Dir: replicaDir, Source: &localSource{s: primary}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := rep.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	// The replica is promoted behind the primary's back and writes its own
	// records; following the old primary again must fail loudly, not
	// silently truncate the local history.
	promoted, _ := openSegmented(t, replicaDir, opts)
	appendN(t, promoted.Log, 3)
	if err := promoted.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Sync(ctx); err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("sync on diverged history = %v, want diverged error", err)
	}
}

// TestPromotedPlatformMatchesFullReplay is the end-to-end failover oracle:
// a season runs on a snapshot-taking primary, a replica mirrors every
// durable file, and the promoted replica (recovered from snapshot + tail)
// must land on exactly the state the primary acknowledged and a full
// from-scratch replay of the same files produces.
func TestPromotedPlatformMatchesFullReplay(t *testing.T) {
	primaryDir := t.TempDir()
	replicaDir := t.TempDir()
	opts := SegmentedOptions{
		Options:           Options{SyncEveryAppend: true},
		SegmentBytes:      2048,
		SnapshotEvery:     25,
		DisableCompaction: true, // keep the full history for the replay oracle
	}
	primary := newScheduler(t)
	ps, seg, err := OpenSegmentedScheduler(primaryDir, primary, opts)
	if err != nil {
		t.Fatal(err)
	}
	driveRuns(t, ps, 8)
	if err := ps.SnapshotErr(); err != nil {
		t.Fatalf("snapshotting failed during the season: %v", err)
	}
	if seg.SnapshotSeq() == 0 {
		t.Fatal("season never took a snapshot; oracle would not exercise the bounded path")
	}

	rep, err := NewReplicator(ReplicatorConfig{Dir: replicaDir, Source: &localSource{s: seg}, ID: "r1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertMirrored(t, seg, replicaDir)
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}

	// Promote: snapshot + tail over the replica's files.
	promoted := newScheduler(t)
	pps, pseg, err := OpenSegmentedScheduler(replicaDir, promoted, opts)
	if err != nil {
		t.Fatalf("promotion: %v", err)
	}
	defer pseg.Close()
	// Full-replay oracle: every event from every replica segment, applied
	// from scratch with no snapshot shortcut.
	oracle := newScheduler(t)
	if err := ReplaySegments(replicaDir, oracle); err != nil {
		t.Fatal(err)
	}
	// Bit-identical, not approximately equal: recovery must be exactly the
	// state the primary acknowledged.
	want := encodeState(t, primary)
	for name, s := range map[string]*melody.RunScheduler{"promoted": promoted, "oracle": oracle} {
		if got := encodeState(t, s); !bytes.Equal(got, want) {
			t.Errorf("%s state differs from the primary:\n got %s\nwant %s", name, got, want)
		}
	}

	// The promoted scheduler keeps serving: one more full run.
	runID := fmt.Sprintf("r%d", promoted.CompletedRuns()+1)
	if err := pps.OpenRun(context.Background(), runID, "", []melody.Task{{ID: runID + "-a", Threshold: 11}}, 30); err != nil {
		t.Fatal(err)
	}
	if _, err := pps.CloseAuction(context.Background(), runID); err != nil {
		t.Fatal(err)
	}
	if err := pps.FinishRun(context.Background(), runID); err != nil {
		t.Fatal(err)
	}
	if promoted.CompletedRuns() != primary.CompletedRuns()+1 {
		t.Errorf("post-promotion runs = %d, want %d", promoted.CompletedRuns(), primary.CompletedRuns()+1)
	}
}

// encodeState renders a quiescent scheduler's full state as its snapshot
// encoding, the form the differential oracles compare byte for byte.
func encodeState(t *testing.T, s *melody.RunScheduler) []byte {
	t.Helper()
	snap, err := s.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
