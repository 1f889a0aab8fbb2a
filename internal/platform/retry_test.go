package platform

// Retry-layer tests: backoff shape, error classification, the retry loop
// against a failing server, and the server-side idempotency that makes
// retrying mutations safe.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync/atomic"
	"testing"
	"time"

	"melody"
)

func TestBackoffDelay(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond}
	// With u=1 the jitter term is maximal, so the delay equals the full
	// step: 10, 20, 40, then capped at 40.
	for i, want := range []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond, 40 * time.Millisecond,
	} {
		if got := backoffDelay(p, i, 1); got != want {
			t.Errorf("attempt %d: delay(u=1) = %v, want %v", i, got, want)
		}
	}
	// With u=0 only the deterministic half remains.
	if got := backoffDelay(p, 0, 0); got != 5*time.Millisecond {
		t.Errorf("delay(u=0) = %v, want 5ms", got)
	}
	if got := backoffDelay(RetryPolicy{}, 3, 0.5); got != 0 {
		t.Errorf("zero policy delay = %v, want 0", got)
	}
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{&url.Error{Op: "Post", URL: "http://x", Err: errors.New("connection refused")}, true},
		{&APIError{Status: http.StatusInternalServerError}, true},
		{&APIError{Status: http.StatusServiceUnavailable}, true},
		{&APIError{Status: http.StatusRequestTimeout}, true},
		{&APIError{Status: http.StatusTooManyRequests}, true},
		{&APIError{Status: http.StatusBadRequest}, false},
		{&APIError{Status: http.StatusNotFound}, false},
		{&APIError{Status: http.StatusConflict}, false},
		{errors.New("not a transport error"), false},
	}
	for _, c := range cases {
		if got := retryable(c.err); got != c.want {
			t.Errorf("retryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestAPIErrorIsSentinel(t *testing.T) {
	err := &APIError{Status: http.StatusConflict, Message: "closed", Code: CodeAuctionClosed}
	if !errors.Is(err, melody.ErrAuctionClosed) {
		t.Error("auction_closed APIError does not match melody.ErrAuctionClosed")
	}
	if errors.Is(err, melody.ErrNoRunOpen) {
		t.Error("auction_closed APIError matches the wrong sentinel")
	}
	if errors.Is(&APIError{Status: 400}, melody.ErrRunOpen) {
		t.Error("code-less APIError matches a sentinel")
	}
}

func TestClientRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		writeJSON(w, http.StatusOK, StatusResponse{Phase: PhaseIdle})
	}))
	defer ts.Close()
	client, err := NewClientWithPolicy(ts.URL, ts.Client(),
		RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Status(context.Background()); err != nil {
		t.Fatalf("two 503s then 200 should succeed, got %v", err)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("server saw %d attempts, want 3", n)
	}
}

func TestClientDoesNotRetryClientErrors(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeError(w, melody.ErrUnknownWorker)
	}))
	defer ts.Close()
	client, err := NewClientWithPolicy(ts.URL, ts.Client(),
		RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.Quality(context.Background(), "ghost")
	if !errors.Is(err, melody.ErrUnknownWorker) {
		t.Fatalf("err = %v, want ErrUnknownWorker", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("4xx was retried: server saw %d attempts, want 1", n)
	}
}

func TestClientRetryStopsOnContextCancel(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	client, err := NewClientWithPolicy(ts.URL, ts.Client(),
		RetryPolicy{MaxAttempts: 1000, BaseDelay: 50 * time.Millisecond, MaxDelay: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := client.Status(ctx); err == nil {
		t.Fatal("expected an error against an always-503 server")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("retry loop ignored context cancellation, ran %v", elapsed)
	}
}

// TestMutationReplaysAreNoOps drives one run over HTTP, replaying every
// mutation as a retry-after-lost-response would, and checks the replays
// succeed without disturbing the run.
func TestMutationReplaysAreNoOps(t *testing.T) {
	_, client := newTestServer(t)
	ctx := context.Background()
	for _, id := range []string{"w1", "w2"} {
		if err := client.RegisterWorker(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	tasks := []TaskSpec{{ID: "t1", Threshold: 10}}
	run, err := client.OpenRunID(ctx, "", "", tasks, 100)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := client.OpenRunID(ctx, "", "", tasks, 100); err != nil || again.ID() != run.ID() {
		t.Errorf("replayed OpenRun: %v (run %q, first %q)", err, again.ID(), run.ID())
	}
	if err := run.SubmitBid(ctx, "w1", 1.2, 2); err != nil {
		t.Fatal(err)
	}
	if err := run.SubmitBid(ctx, "w1", 1.2, 2); err != nil {
		t.Errorf("replayed SubmitBid: %v", err)
	}
	if err := run.SubmitBid(ctx, "w2", 1.5, 2); err != nil {
		t.Fatal(err)
	}
	out, err := run.CloseAuction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := run.CloseAuction(ctx)
	if err != nil {
		t.Errorf("replayed CloseAuction: %v", err)
	}
	if out2.TotalPayment != out.TotalPayment || len(out2.Assignments) != len(out.Assignments) {
		t.Errorf("replayed close returned a different outcome: %+v vs %+v", out2, out)
	}
	for _, a := range out.Assignments {
		if err := run.SubmitAnswer(ctx, a.WorkerID, a.TaskID, AnswerPayload(7)); err != nil {
			t.Fatal(err)
		}
		if err := run.SubmitAnswer(ctx, a.WorkerID, a.TaskID, AnswerPayload(7)); err != nil {
			t.Errorf("replayed SubmitAnswer: %v", err)
		}
	}
	answers, err := run.Answers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != len(out.Assignments) {
		t.Errorf("duplicate answers recorded: %d answers for %d assignments",
			len(answers), len(out.Assignments))
	}
	for _, a := range out.Assignments {
		if err := run.SubmitScore(ctx, a.WorkerID, a.TaskID, 7); err != nil {
			t.Fatal(err)
		}
		if err := run.SubmitScore(ctx, a.WorkerID, a.TaskID, 7); err != nil {
			t.Errorf("replayed SubmitScore: %v", err)
		}
	}
	if err := run.FinishRun(ctx); err != nil {
		t.Fatal(err)
	}
	if err := run.FinishRun(ctx); err != nil {
		t.Errorf("replayed FinishRun: %v", err)
	}
	status, err := client.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if status.Phase != PhaseIdle || status.Run != 1 {
		t.Errorf("after replays: phase %s run %d, want idle run 1", status.Phase, status.Run)
	}
}

// TestRunDeadlines arms the watchdog and drives a run where neither the
// close nor the finish ever arrives: the deadlines must move the run along
// on their own.
func TestRunDeadlines(t *testing.T) {
	p := newTestBackend(t)
	srv, err := NewMultiServer(p, nil, WithDeadlines(100*time.Millisecond, 100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	if err := client.RegisterWorker(ctx, "slow"); err != nil {
		t.Fatal(err)
	}
	run, err := client.OpenRunID(ctx, "", "", []TaskSpec{{ID: "t1", Threshold: 10}}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := run.SubmitBid(ctx, "slow", 1.2, 2); err != nil {
		t.Fatal(err)
	}
	// Nobody closes the auction: the bidding deadline must.
	waitForPhase(t, client, PhaseScoring)
	// Nobody answers or scores: the scoring deadline must finish the run,
	// observing the winner as missing.
	waitForPhase(t, client, PhaseIdle)
	if p.CompletedRuns() != 1 {
		t.Errorf("completed runs = %d, want 1", p.CompletedRuns())
	}
}

// waitForPhase polls status until the platform reaches the phase or 5s
// elapse.
func waitForPhase(t *testing.T, client *Client, want Phase) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		status, err := client.Status(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if status.Phase == want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("platform never reached phase %s", want)
}
