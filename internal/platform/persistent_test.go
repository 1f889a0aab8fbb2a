package platform

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"melody/internal/eventlog"
)

// The write-ahead-logged scheduler must satisfy the server's backend
// contract.
var _ MultiRunBackend = (*eventlog.PersistentScheduler)(nil)

// TestPersistentServerSurvivesRestart drives runs over HTTP against a
// WAL-backed server, "crashes" it, boots a replacement from the same log,
// and checks the state carried over.
func TestPersistentServerSurvivesRestart(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "platform.wal")
	ctx := context.Background()

	boot := func() (*httptest.Server, *Client, *eventlog.Log) {
		backend, wal, err := eventlog.OpenPersistentScheduler(walPath, newTestBackend(t), eventlog.Options{SyncEveryAppend: true})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewMultiServer(backend, nil)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		client, err := NewClient(ts.URL, ts.Client())
		if err != nil {
			t.Fatal(err)
		}
		return ts, client, wal
	}

	// First life: register workers and complete two runs.
	ts, c, wal := boot()
	for _, id := range []string{"w1", "w2", "w3"} {
		if err := c.RegisterWorker(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	var lastQuality float64
	for run := 1; run <= 2; run++ {
		h, err := c.OpenRunID(ctx, "", "", []TaskSpec{{ID: taskID(run), Threshold: 9}}, 50)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"w1", "w2", "w3"} {
			if err := h.SubmitBid(ctx, id, 1.2, 1); err != nil {
				t.Fatal(err)
			}
		}
		out, err := h.CloseAuction(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range out.Assignments {
			if err := h.SubmitScore(ctx, a.WorkerID, a.TaskID, 8); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.FinishRun(ctx); err != nil {
			t.Fatal(err)
		}
	}
	q, err := c.Quality(ctx, "w1")
	if err != nil {
		t.Fatal(err)
	}
	lastQuality = q
	// Crash: close the server and the log.
	ts.Close()
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: same log, fresh scheduler.
	ts2, c2, wal2 := boot()
	defer ts2.Close()
	defer wal2.Close()

	st, err := c2.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 3 {
		t.Errorf("restored workers = %d, want 3", st.Workers)
	}
	q2, err := c2.Quality(ctx, "w1")
	if err != nil {
		t.Fatal(err)
	}
	if q2 != lastQuality {
		t.Errorf("restored quality %v != pre-crash %v", q2, lastQuality)
	}
	// A finish retried after the restart finds r2 finished, not unknown.
	if err := c2.Run("r2").FinishRun(ctx); err != nil {
		t.Errorf("finish of r2 after restart = %v, want success", err)
	}
	// The restored scheduler accepts the next run.
	h, err := c2.OpenRunID(ctx, "", "", []TaskSpec{{ID: "after-restart", Threshold: 9}}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if h.ID() != "r3" {
		t.Errorf("run after restart named %q, want r3", h.ID())
	}
	for _, id := range []string{"w1", "w2", "w3"} {
		if err := h.SubmitBid(ctx, id, 1.2, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.CloseAuction(ctx); err != nil {
		t.Fatal(err)
	}
}

func taskID(run int) string { return "task-" + string(rune('0'+run)) }
