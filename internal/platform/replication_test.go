package platform

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"melody/internal/eventlog"
)

// startReplServer boots a platform server with replication mounted over a
// small segmented log.
func startReplServer(t *testing.T) (*httptest.Server, *eventlog.SegmentedLog) {
	t.Helper()
	sched, _ := newTestScheduler(t, 1000, 0)
	backend, seg, err := eventlog.OpenSegmentedScheduler(t.TempDir(), sched, eventlog.SegmentedOptions{
		Options:      eventlog.Options{SyncEveryAppend: true},
		SegmentBytes: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.Close() })
	srv, err := NewMultiServer(backend, nil, WithReplicationSource(seg))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Put some records in the log through the public API.
	ctx := context.Background()
	for _, id := range []string{"r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7"} {
		if err := backend.RegisterWorker(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	return ts, seg
}

func TestReplicationEndpoints(t *testing.T) {
	ts, seg := startReplServer(t)
	rc, err := NewReplicationClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	m, err := rc.Manifest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Seq != seg.Seq() {
		t.Errorf("wire manifest seq = %d, want %d", m.Seq, seg.Seq())
	}
	if len(m.Segments) == 0 {
		t.Fatal("wire manifest offers no segments")
	}

	// Chunks round-trip the durable bytes exactly.
	first := m.Segments[0]
	var got []byte
	var off int64
	for {
		chunk, done, err := rc.Chunk(ctx, first.Name, off, 64)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, chunk...)
		off += int64(len(chunk))
		if done || len(chunk) == 0 {
			break
		}
	}
	want, _, err := seg.ReadFileRange(first.Name, 0, int(first.Size))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("wire chunks differ from direct ReadFileRange")
	}

	// Unknown files are 404, mapped distinctly from bad parameters.
	_, _, err = rc.Chunk(ctx, "seg-9999999999999999.wal", 0, 64)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Errorf("unknown file err = %v, want 404 APIError", err)
	}

	// Acks surface in the status endpoint.
	if err := rc.Ack(ctx, "replica-a", first.Name, first.Size); err != nil {
		t.Fatal(err)
	}
	status, err := rc.ReplicationStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(status.Replicas) != 1 || status.Replicas[0].ID != "replica-a" ||
		status.Replicas[0].Offset != first.Size {
		t.Errorf("status = %+v, want replica-a at %d", status.Replicas, first.Size)
	}
	if status.Seq != seg.Seq() {
		t.Errorf("status seq = %d, want %d", status.Seq, seg.Seq())
	}
}

func TestReplicationNotMountedWithoutSource(t *testing.T) {
	sched, _ := newTestScheduler(t, 1000, 0)
	srv, err := NewMultiServer(sched, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/replication/manifest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("replication endpoint answered %d on a server with no source", resp.StatusCode)
	}
}
