package platform

// Run addressing: every run-scoped route takes the ID POST /v1/runs
// returned, whether the client or the server named the run. A run the
// server no longer tracks still answers late retries as a finished run,
// and run names and numbers survive a restart.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"melody"
	"melody/internal/eventlog"
	"melody/internal/stats"
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

// TestCurrentAliasRetired: "current" is no run's name, whether the client
// or the server named the run in flight, even while it has an outcome to
// return.
func TestCurrentAliasRetired(t *testing.T) {
	ctx := context.Background()
	for kind, id := range map[string]string{"client-named": "a-1", "server-named": ""} {
		sched, _ := newTestScheduler(t, 1000, 0)
		c := tenantClient(t, newMultiTestServer(t, sched), "a")
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

// TestFinishedRunRetriedAfterRestart: after a restart the server tracks no
// finished runs, but the backend does. A late open or finish is a no-op
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
	spec := []TaskSpec{{ID: "r1-t1", Threshold: 10}, {ID: "r1-t2", Threshold: 10}}
	if _, err := c.OpenRunID(ctx, "r1", "a", spec, 100); err != nil {
		t.Errorf("open of r1 after restart = %v, want success", err)
	}
	run := c.Run("r1")
	if err := run.FinishRun(ctx); err != nil {
		t.Errorf("finish of r1 after restart = %v, want success", err)
	}
	if got := walRecords(t, path); got != records {
		t.Errorf("retried open and finish appended to the WAL: %d -> %d records", records, got)
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

// TestServerKeepsOnlyRunsInFlight: after k finishes the server's run map
// holds only the run still in flight, and a run finished a moment ago
// answers late retries as TestFinishedRunRetriedAfterRestart's run does
// after a restart: open and finish succeed and log nothing, close and
// outcome return the bodies they returned before the finish, and bids,
// answers and scores find no open run.
func TestServerKeepsOnlyRunsInFlight(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "sched.wal")
	sched, _ := newTestScheduler(t, 1000, 0)
	ps, wal, err := eventlog.OpenPersistentScheduler(path, sched, eventlog.Options{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	srv, err := NewMultiServer(ps, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := tenantClient(t, ts, "a")
	for i := 0; i < 4; i++ {
		if err := c.RegisterWorker(ctx, fmt.Sprintf("a-w%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	const k = 3
	for i := 1; i < k; i++ {
		if err := driveRunHTTP(ctx, c, fmt.Sprintf("r%d", i), "a", 4); err != nil {
			t.Fatal(err)
		}
	}
	spec := []TaskSpec{{ID: "r3-t1", Threshold: 10}, {ID: "r3-t2", Threshold: 10}}
	run, err := c.OpenRunID(ctx, "r3", "a", spec, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := run.SubmitBid(ctx, fmt.Sprintf("a-w%d", i), 1+0.1*float64(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := run.CloseAuction(ctx); err != nil {
		t.Fatal(err)
	}
	bodies := func() [][]byte {
		t.Helper()
		var out [][]byte
		for _, req := range []struct{ method, suffix string }{
			{http.MethodPost, "/close"}, {http.MethodGet, "/outcome"},
		} {
			body, err := rawBody(ts, req.method, "/v1/runs/r3"+req.suffix)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, body)
		}
		return out
	}
	before := bodies()
	if err := run.FinishRun(ctx); err != nil {
		t.Fatal(err)
	}
	inFlight, err := tenantClient(t, ts, "b").OpenRunID(ctx, "b1", "b", spec[:1], 50)
	if err != nil {
		t.Fatal(err)
	}
	srv.mu.RLock()
	tracked := len(srv.runs)
	_, trackedB1 := srv.runs[inFlight.ID()]
	srv.mu.RUnlock()
	if tracked != 1 || !trackedB1 {
		t.Fatalf("after %d finishes the server tracks %d runs, want only the in-flight b1", k, tracked)
	}

	records := walRecords(t, path)
	if _, err := c.OpenRunID(ctx, "r3", "a", spec, 100); err != nil {
		t.Errorf("open of finished r3 = %v, want success", err)
	}
	if err := run.FinishRun(ctx); err != nil {
		t.Errorf("finish of finished r3 = %v, want success", err)
	}
	for i, body := range bodies() {
		if string(body) != string(before[i]) {
			t.Errorf("body %d after the finish = %q, want %q", i, body, before[i])
		}
	}
	wantAPIError(t, "bid on finished r3", run.SubmitBid(ctx, "a-w0", 1.2, 1),
		http.StatusConflict, melody.ErrNoRunOpen)
	wantAPIError(t, "answer on finished r3", run.SubmitAnswer(ctx, "a-w0", "r3-t1", AnswerPayload(7)),
		http.StatusConflict, melody.ErrNoRunOpen)
	wantAPIError(t, "score on finished r3", run.SubmitScore(ctx, "a-w0", "r3-t1", 7),
		http.StatusConflict, melody.ErrNoRunOpen)
	if got := walRecords(t, path); got != records {
		t.Errorf("late retries on finished r3 appended to the WAL: %d -> %d records", records, got)
	}
	srv.mu.RLock()
	tracked = len(srv.runs)
	srv.mu.RUnlock()
	if tracked != 1 {
		t.Errorf("late retries left the server tracking %d runs, want 1", tracked)
	}
}

// bootOneTenant opens the WAL at path into a fresh unfunded scheduler and
// serves it with the given scoring deadline to a client that names no
// tenant.
func bootOneTenant(t *testing.T, path string, scoreDeadline time.Duration) (*Client, *melody.RunScheduler, func()) {
	t.Helper()
	sched := newTestBackend(t)
	ps, wal, err := eventlog.OpenPersistentScheduler(path, sched, eventlog.Options{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewMultiServer(ps, nil, WithDeadlines(0, scoreDeadline))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	c, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	return c, sched, func() {
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

// TestSingleRunRestartRedrivesClosedRun: on a one-tenant server, a run
// closed before a restart is re-driven by its server name or by an open
// that names no run. The retried open finds the resumed run
// instead of starting a second one, and once it finishes, its scoring
// deadline can no longer finish the next run.
func TestSingleRunRestartRedrivesClosedRun(t *testing.T) {
	const scoreDeadline = 600 * time.Millisecond
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "platform.wal")
	tasks1 := []TaskSpec{{ID: "t1", Threshold: 9}}
	c, _, stop := bootOneTenant(t, path, 0)
	openAndClose(t, c, "", tasks1)
	stop()

	c, sched, stop := bootOneTenant(t, path, scoreDeadline)
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
	if got := sched.CompletedRuns(); got != 1 {
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
	if got := sched.CompletedRuns(); got != 2 {
		t.Errorf("completed runs = %d, want 2", got)
	}
}

// TestAgentsBidInFirstRunAfterRestart: worker agents that outlive a
// server restart bid in the first run opened after it. They follow runs by
// ID, and the run's number comes from the backend, so it does not restart
// at 1 with the process.
func TestAgentsBidInFirstRunAfterRestart(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "sched.wal")
	// One listener for both lives, so the agents reach the rebooted server
	// at the address they already poll.
	var handler atomic.Pointer[http.Handler]
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*handler.Load()).ServeHTTP(w, r)
	}))
	defer ts.Close()
	boot := func() func() {
		ps, wal, err := eventlog.OpenPersistentScheduler(path, newTestBackend(t), eventlog.Options{SyncEveryAppend: true})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewMultiServer(ps, nil)
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		handler.Store(&h)
		return func() {
			if err := wal.Close(); err != nil {
				t.Error(err)
			}
		}
	}
	stop := boot()
	client, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		agent, err := NewWorkerAgent(ctx, WorkerAgentConfig{
			Client: client, WorkerID: fmt.Sprintf("w%d", i),
			Cost: 1.1 + 0.2*float64(i), Frequency: 2,
			LatentQuality: func(int) float64 { return 7 },
			ScoreSigma:    0.1,
			PollInterval:  5 * time.Millisecond,
			RNG:           stats.NewRNG(int64(i + 1)),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer agent.Stop()
	}
	season := func(id string, wantNum int) {
		t.Helper()
		run, err := client.OpenRunID(ctx, id, "", []TaskSpec{{ID: id + "-t", Threshold: 9}}, 30)
		if err != nil {
			t.Fatal(err)
		}
		st, err := client.Status(ctx)
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(300 * time.Millisecond) // the agents' bidding window
		out, err := run.CloseAuction(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := run.FinishRun(ctx); err != nil {
			t.Fatal(err)
		}
		if st.Run != wantNum || len(out.Assignments) == 0 {
			t.Errorf("run %s: status run %d with %d assignments, want run %d with some", id, st.Run, len(out.Assignments), wantNum)
		}
	}
	season("a", 1)
	stop()
	stop = boot()
	defer func() { stop() }()
	season("b", 2)
	season("c", 3)
}

// TestUnnamedOpenNaming: an open that names no run is named r<n> for the
// number the backend gives it, skipping a name a client already took, and
// while the tenant's run is in flight it retries that run: the same spec
// gets its ID again, another spec 409. An open that names no tenant runs
// under the default tenant.
func TestUnnamedOpenNaming(t *testing.T) {
	ctx := context.Background()
	sched, _ := newTestScheduler(t, 1000, 0)
	ts := newMultiTestServer(t, sched)
	a, b := tenantClient(t, ts, "a"), tenantClient(t, ts, "b")
	if _, err := a.OpenRunID(ctx, "r2", "a", []TaskSpec{{ID: "ta", Threshold: 10}}, 100); err != nil {
		t.Fatal(err)
	}
	spec := []TaskSpec{{ID: "tb", Threshold: 10}}
	for i := 0; i < 2; i++ {
		run, err := b.OpenRunID(ctx, "", "", spec, 100)
		if err != nil || run.ID() != "r3" {
			t.Fatalf("unnamed open %d = %v, %v; want r3", i, run, err)
		}
	}
	if info, err := sched.Run("r3"); err != nil || info.Num != 2 || info.Tenant != "b" {
		t.Errorf("r3 = %+v, %v; want tenant b's run number 2", info, err)
	}
	_, err := b.OpenRunID(ctx, "", "", []TaskSpec{{ID: "other", Threshold: 10}}, 100)
	wantAPIError(t, "unnamed open with another spec", err, http.StatusConflict, melody.ErrRunOpen)

	anon := tenantClient(t, ts, "")
	if run, err := anon.OpenRunID(ctx, "", "", spec, 100); err != nil || run.ID() != "r4" {
		t.Fatalf("tenant-less open = %v, %v; want r4", run, err)
	}
	if info, err := sched.Run("r4"); err != nil || info.Tenant != melody.DefaultTenant {
		t.Errorf("r4 = %+v, %v; want the default tenant's run", info, err)
	}
}
