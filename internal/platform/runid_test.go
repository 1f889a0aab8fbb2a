package platform

// Run addressing: every run-scoped route takes the ID POST /v1/runs
// returned, on both server kinds. A run the server no longer tracks still
// answers late retries as a finished run, and a single-run server only
// accepts the name its log can bring back after a restart.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"melody"
	"melody/internal/eventlog"
)

// wantAPIError fails unless err is an APIError with the status and the
// sentinel's wire code.
func wantAPIError(t *testing.T, what string, err error, status int, sentinel error) {
	t.Helper()
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != status || !errors.Is(err, sentinel) {
		t.Errorf("%s = %v, want HTTP %d %s", what, err, status, melody.ErrorCodeFor(sentinel))
	}
}

// TestCurrentAliasRetired: "current" is no run's name on either server
// kind, even while a run is in flight with an outcome to return.
func TestCurrentAliasRetired(t *testing.T) {
	ctx := context.Background()
	sched, _ := newTestScheduler(t, 1000, 0)
	_, single := newTestServer(t)
	for kind, c := range map[string]*Client{
		"multi":  tenantClient(t, newMultiTestServer(t, sched), "a"),
		"single": single,
	} {
		id := "a-1"
		if kind == "single" {
			id = "" // a single-run server names the run itself
		}
		run, err := c.OpenRunID(ctx, id, "a", []TaskSpec{{ID: "t1", Threshold: 10}}, 100)
		if err != nil {
			t.Fatalf("%s: open: %v", kind, err)
		}
		if _, err := run.CloseAuction(ctx); err != nil {
			t.Fatalf("%s: close: %v", kind, err)
		}
		alias := c.Run("current")
		_, err = alias.CloseAuction(ctx)
		wantAPIError(t, kind+" close current", err, http.StatusNotFound, melody.ErrUnknownRun)
		_, err = alias.Outcome(ctx)
		wantAPIError(t, kind+" outcome current", err, http.StatusNotFound, melody.ErrUnknownRun)
		err = alias.FinishRun(ctx)
		wantAPIError(t, kind+" finish current", err, http.StatusNotFound, melody.ErrUnknownRun)

		st, err := c.Status(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Phase != PhaseScoring || st.RunID != run.ID() {
			t.Errorf("%s: status after the alias calls = %+v, want %s still scoring", kind, st, run.ID())
		}
	}
}

// TestStatusNamesNewestInFlightRun: status follows the open order, so
// finishing the newest run hands status back to the older run still in
// flight, by name.
func TestStatusNamesNewestInFlightRun(t *testing.T) {
	ctx := context.Background()
	sched, _ := newTestScheduler(t, 1000, 0)
	ts := newMultiTestServer(t, sched)
	a, b := tenantClient(t, ts, "a"), tenantClient(t, ts, "b")
	tasks := []TaskSpec{{ID: "t1", Threshold: 10}}
	if _, err := a.OpenRunID(ctx, "A", "a", tasks, 100); err != nil {
		t.Fatal(err)
	}
	runB, err := b.OpenRunID(ctx, "B", "b", tasks, 100)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string, want StatusResponse) {
		t.Helper()
		st, err := a.Status(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st != want {
			t.Errorf("status %s = %+v, want %+v", when, st, want)
		}
	}
	check("with A and B open", StatusResponse{Run: 2, RunID: "B", Phase: PhaseBidding, OpenRuns: 2})
	if _, err := runB.CloseAuction(ctx); err != nil {
		t.Fatal(err)
	}
	if err := runB.FinishRun(ctx); err != nil {
		t.Fatal(err)
	}
	check("after B finished", StatusResponse{Run: 1, RunID: "A", Phase: PhaseBidding, OpenRuns: 1})
}

// bootPersistentScheduler opens the scheduler WAL at path into a fresh
// funded scheduler and serves it.
func bootPersistentScheduler(t *testing.T, path string) (*httptest.Server, *Client, func()) {
	t.Helper()
	sched, _ := newTestScheduler(t, 1000, 0)
	ps, wal, err := eventlog.OpenPersistentScheduler(path, sched, eventlog.Options{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewMultiServer(ps, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	return ts, tenantClient(t, ts, "a"), func() {
		ts.Close()
		if err := wal.Close(); err != nil {
			t.Error(err)
		}
	}
}

// walRecords counts the records in the log at path.
func walRecords(t *testing.T, path string) int {
	t.Helper()
	events, err := eventlog.ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	return len(events)
}

// TestFinishedRunRetriedAfterRestart: after a restart the multi-run server
// tracks no finished runs, but the backend does. A late finish is a no-op
// success that writes nothing, close and outcome replay the outcome
// byte for byte, and bids, answers and scores find no open run.
func TestFinishedRunRetriedAfterRestart(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "sched.wal")
	ts, c, stop := bootPersistentScheduler(t, path)
	for i := 0; i < 4; i++ {
		if err := c.RegisterWorker(ctx, fmt.Sprintf("a-w%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := driveRunHTTP(ctx, c, "r1", "a", 4); err != nil {
		t.Fatal(err)
	}
	bodies := func(ts *httptest.Server) [][]byte {
		t.Helper()
		var out [][]byte
		for _, req := range []struct{ method, suffix string }{
			{http.MethodPost, "/close"}, {http.MethodGet, "/outcome"},
		} {
			body, err := rawBody(ts, req.method, "/v1/runs/r1"+req.suffix)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, body)
		}
		return out
	}
	before := bodies(ts)
	stop()

	ts, c, stop = bootPersistentScheduler(t, path)
	defer stop()
	records := walRecords(t, path)
	run := c.Run("r1")
	if err := run.FinishRun(ctx); err != nil {
		t.Errorf("finish of r1 after restart = %v, want success", err)
	}
	if got := walRecords(t, path); got != records {
		t.Errorf("retried finish appended to the WAL: %d -> %d records", records, got)
	}
	for i, body := range bodies(ts) {
		if string(body) != string(before[i]) {
			t.Errorf("body %d after restart = %q, want %q", i, body, before[i])
		}
	}
	wantAPIError(t, "bid on finished r1", run.SubmitBid(ctx, "a-w0", 1.2, 1),
		http.StatusConflict, melody.ErrNoRunOpen)
	wantAPIError(t, "answer on finished r1", run.SubmitAnswer(ctx, "a-w0", "r1-t1", AnswerPayload(7)),
		http.StatusConflict, melody.ErrNoRunOpen)
	wantAPIError(t, "score on finished r1", run.SubmitScore(ctx, "a-w0", "r1-t1", 7),
		http.StatusConflict, melody.ErrNoRunOpen)
	err := c.Run("r2").FinishRun(ctx)
	wantAPIError(t, "finish of a never-opened run", err, http.StatusNotFound, melody.ErrUnknownRun)
}

// bootPersistentPlatform opens the single-run WAL at path into a fresh
// platform and serves it with the given scoring deadline.
func bootPersistentPlatform(t *testing.T, path string, scoreDeadline time.Duration) (*Client, *eventlog.PersistentPlatform, func()) {
	t.Helper()
	pp, wal, err := eventlog.OpenPersistent(path, buildPlatform(t))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(pp, nil, WithDeadlines(0, scoreDeadline))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	c, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	return c, pp, func() {
		ts.Close()
		if err := wal.Close(); err != nil {
			t.Error(err)
		}
	}
}

// openAndClose registers w1..w4, opens a run under id, bids and closes.
func openAndClose(t *testing.T, c *Client, id string, tasks []TaskSpec) (*RunAPI, OutcomeResponse) {
	t.Helper()
	ctx := context.Background()
	run, err := c.OpenRunID(ctx, id, "", tasks, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		w := fmt.Sprintf("w%d", i)
		if err := c.RegisterWorker(ctx, w); err != nil {
			t.Fatal(err)
		}
		if err := run.SubmitBid(ctx, w, 1+0.1*float64(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	out, err := run.CloseAuction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return run, out
}

// TestSingleRunRefusesClientRunName: the single-run log cannot record a
// client's run name, so an open under any name but the server's is
// refused before it reaches the log.
func TestSingleRunRefusesClientRunName(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "platform.wal")
	c, pp, stop := bootPersistentPlatform(t, path, 0)
	defer stop()
	records := walRecords(t, path)
	_, err := c.OpenRunID(ctx, "job-1", "", []TaskSpec{{ID: "t1", Threshold: 9}}, 100)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("open of job-1 = %v, want HTTP 400", err)
	}
	if got := walRecords(t, path); got != records {
		t.Errorf("refused open appended to the WAL: %d -> %d records", records, got)
	}
	if pp.State().Open {
		t.Error("refused open opened a run")
	}
	if runs, err := c.Runs(ctx); err != nil || len(runs) != 0 {
		t.Errorf("runs after a refused open = %v, %v; want none", runs, err)
	}
}

// TestSingleRunRestartRedrivesClosedRun: a run closed before a restart is
// re-driven by its server name. The retried open finds the resumed run
// instead of starting a second one, and once it finishes, its scoring
// deadline can no longer finish the next run.
func TestSingleRunRestartRedrivesClosedRun(t *testing.T) {
	const scoreDeadline = 600 * time.Millisecond
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "platform.wal")
	tasks1 := []TaskSpec{{ID: "t1", Threshold: 9}}
	c, _, stop := bootPersistentPlatform(t, path, 0)
	openAndClose(t, c, "", tasks1)
	stop()

	c, pp, stop := bootPersistentPlatform(t, path, scoreDeadline)
	defer stop()
	resumed := time.Now() // r1's scoring deadline was armed before this
	for _, id := range []string{"r1", ""} {
		run, err := c.OpenRunID(ctx, id, "", tasks1, 100)
		if err != nil {
			t.Fatalf("retried open %q: %v", id, err)
		}
		if run.ID() != "r1" {
			t.Fatalf("retried open %q named %q, want r1", id, run.ID())
		}
	}
	runs, err := c.Runs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].RunID != "r1" || runs[0].Phase != PhaseScoring {
		t.Fatalf("runs after the retried opens = %+v, want r1 alone, scoring", runs)
	}
	if err := c.Run("r1").FinishRun(ctx); err != nil {
		t.Fatal(err)
	}
	if runs, err := c.Runs(ctx); err != nil || len(runs) != 0 {
		t.Fatalf("runs after finishing r1 = %+v, %v; want none", runs, err)
	}

	// Close r2 late enough that its own deadline falls well after r1's.
	time.Sleep(scoreDeadline / 2)
	run2, out := openAndClose(t, c, "", []TaskSpec{{ID: "t2", Threshold: 9}})
	if run2.ID() != "r2" {
		t.Fatalf("next run named %q, want r2", run2.ID())
	}
	time.Sleep(time.Until(resumed.Add(scoreDeadline + scoreDeadline/4)))
	if got := pp.Run(); got != 1 {
		t.Fatalf("completed runs = %d once r1's deadline passed, want 1 (r2 finished early)", got)
	}
	for _, a := range out.Assignments {
		if err := run2.SubmitScore(ctx, a.WorkerID, a.TaskID, 7); err != nil {
			t.Fatalf("score r2: %v", err)
		}
	}
	if err := run2.FinishRun(ctx); err != nil {
		t.Fatal(err)
	}
	if got := pp.Run(); got != 2 {
		t.Errorf("completed runs = %d, want 2", got)
	}
}
