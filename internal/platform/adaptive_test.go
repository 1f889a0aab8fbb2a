package platform

// Tests for the client-side overload response: the AIMD limiter's window
// arithmetic and blocking behaviour, the Retry-After floor under backoff,
// and retried-after-shed idempotency (run with -race by make ci).

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"melody"
)

func TestAdaptiveLimiterWindowMoves(t *testing.T) {
	l := newAdaptiveLimiter(AdaptiveConfig{MinWindow: 1, MaxWindow: 8, InitialWindow: 8}, nil)
	if got := l.Window(); got != 8 {
		t.Fatalf("initial window = %d, want 8", got)
	}
	// Multiplicative decrease: 8 -> 4 -> 2 -> 1, floored at MinWindow.
	for _, want := range []int{4, 2, 1, 1} {
		l.onOverload()
		if got := l.Window(); got != want {
			t.Errorf("window after overload = %d, want %d", got, want)
		}
	}
	// Additive increase: from 1, one success adds a whole slot; growth then
	// slows to ~1 per window of successes and caps at MaxWindow.
	l.onSuccess()
	if got := l.Window(); got != 2 {
		t.Errorf("window after success at floor = %d, want 2", got)
	}
	for i := 0; i < 1000; i++ {
		l.onSuccess()
	}
	if got := l.Window(); got != 8 {
		t.Errorf("window after sustained success = %d, want cap 8", got)
	}
}

func TestAdaptiveLimiterBlocksAtWindow(t *testing.T) {
	l := newAdaptiveLimiter(AdaptiveConfig{MinWindow: 1, MaxWindow: 4, InitialWindow: 1}, nil)
	if err := l.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Window 1, one in flight: the next acquire must block until release.
	acquired := make(chan struct{})
	go func() {
		if err := l.acquire(context.Background()); err == nil {
			close(acquired)
		}
	}()
	select {
	case <-acquired:
		t.Fatal("second acquire did not block at window 1")
	case <-time.After(30 * time.Millisecond):
	}
	l.release()
	select {
	case <-acquired:
	case <-time.After(time.Second):
		t.Fatal("release did not unblock the waiting acquire")
	}
	l.release()
}

func TestAdaptiveLimiterAcquireHonorsContext(t *testing.T) {
	l := newAdaptiveLimiter(AdaptiveConfig{MinWindow: 1, MaxWindow: 1, InitialWindow: 1}, nil)
	if err := l.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- l.acquire(ctx) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("blocked acquire returned %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled acquire never returned")
	}
	// The slot was never granted to the cancelled waiter.
	l.release()
	if err := l.acquire(context.Background()); err != nil {
		t.Fatalf("slot leaked to a cancelled waiter: %v", err)
	}
	l.release()
}

// TestClientWindowShrinksOnShed drives a Client with the AIMD limiter
// against a server that sheds everything, and checks the window collapses
// to the floor while recovery grows it back.
func TestClientWindowShrinksOnShed(t *testing.T) {
	var shedding atomic.Bool
	shedding.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if shedding.Load() {
			writeShed(w, 5*time.Millisecond)
			return
		}
		writeJSON(w, http.StatusOK, StatusResponse{Phase: PhaseIdle})
	}))
	defer ts.Close()
	client, err := NewClientOptions(ts.URL, ClientOptions{
		HTTPClient: ts.Client(),
		Retry:      &noRetry,
		Adaptive:   &AdaptiveConfig{MinWindow: 1, MaxWindow: 64, InitialWindow: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if _, err := client.Status(ctx); !errors.Is(err, melody.ErrOverloaded) {
			t.Fatalf("call %d: err = %v, want ErrOverloaded", i, err)
		}
	}
	if got := client.ConcurrencyWindow(); got != 1 {
		t.Errorf("window after sustained shed = %d, want floor 1", got)
	}
	shedding.Store(false)
	for i := 0; i < 3; i++ {
		if _, err := client.Status(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if got := client.ConcurrencyWindow(); got < 2 {
		t.Errorf("window after recovery = %d, want growth above the floor", got)
	}
}

// TestClientHonorsRetryAfter checks the retry loop waits at least the
// server's Retry-After hint even when the backoff policy alone would retry
// sooner.
func TestClientHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	const hint = 150 * time.Millisecond
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", retryAfterValue(hint))
			writeJSON(w, http.StatusTooManyRequests, ErrorResponse{
				Error: "overloaded", Code: string(melody.CodeOverloaded),
			})
			return
		}
		writeJSON(w, http.StatusOK, StatusResponse{Phase: PhaseIdle})
	}))
	defer ts.Close()
	client, err := NewClientOptions(ts.URL, ClientOptions{
		HTTPClient: ts.Client(),
		Retry:      &RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := client.Status(context.Background()); err != nil {
		t.Fatalf("shed-then-ok should succeed, got %v", err)
	}
	if elapsed := time.Since(start); elapsed < hint {
		t.Errorf("retry waited %v, want at least the Retry-After hint %v", elapsed, hint)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("server saw %d attempts, want 2", n)
	}
}

// shedFirstAttempts wraps a server handler and sheds the first N attempts
// of every distinct mutation (method+path+attempt counting), modelling an
// overloaded server that recovers while the client retries. Used to prove
// the retry-after-shed path composes with server-side idempotency.
type shedFirstAttempts struct {
	next  http.Handler
	sheds int32 // sheds this many attempts per key

	mu   sync.Mutex
	seen map[string]int32
}

func (s *shedFirstAttempts) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	key := r.Method + " " + r.URL.Path
	s.mu.Lock()
	if s.seen == nil {
		s.seen = make(map[string]int32)
	}
	s.seen[key]++
	n := s.seen[key]
	s.mu.Unlock()
	if r.Method == http.MethodPost && n <= s.sheds {
		writeShed(w, 2*time.Millisecond)
		return
	}
	s.next.ServeHTTP(w, r)
}

// TestRetryAfterShedReplaysAreNoOps is the satellite-2 property test: a
// mutation that was shed with 429 and then retried — possibly interleaved
// with a duplicate of an already-applied mutation — lands exactly once.
// Every POST is shed on its first attempt, so every applied mutation is a
// retry; replaying it again afterwards must still be a no-op success.
func TestRetryAfterShedReplaysAreNoOps(t *testing.T) {
	srv, err := NewMultiServer(newTestBackend(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	shedder := &shedFirstAttempts{next: srv.Handler(), sheds: 1}
	ts := httptest.NewServer(shedder)
	defer ts.Close()
	client, err := NewClientOptions(ts.URL, ClientOptions{
		HTTPClient: ts.Client(),
		Retry:      &RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, id := range []string{"w1", "w2"} {
		if err := client.RegisterWorker(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	run, err := client.OpenRunID(ctx, "", "", []TaskSpec{{ID: "t1", Threshold: 10}}, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Shed-then-retried bid, then an explicit duplicate: still one bid.
	if err := run.SubmitBid(ctx, "w1", 1.2, 2); err != nil {
		t.Fatal(err)
	}
	if err := run.SubmitBid(ctx, "w1", 1.2, 2); err != nil {
		t.Errorf("replay after shed-retry: %v", err)
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
		t.Errorf("replayed CloseAuction after sheds: %v", err)
	}
	if out2.TotalPayment != out.TotalPayment || len(out2.Assignments) != len(out.Assignments) {
		t.Errorf("replayed close diverged: %+v vs %+v", out2, out)
	}
	for _, a := range out.Assignments {
		if err := run.SubmitScore(ctx, a.WorkerID, a.TaskID, 7); err != nil {
			t.Fatal(err)
		}
		if err := run.SubmitScore(ctx, a.WorkerID, a.TaskID, 7); err != nil {
			t.Errorf("replayed SubmitScore after sheds: %v", err)
		}
	}
	if err := run.FinishRun(ctx); err != nil {
		t.Fatal(err)
	}
	if err := run.FinishRun(ctx); err != nil {
		t.Errorf("replayed FinishRun after sheds: %v", err)
	}
	status, err := client.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if status.Phase != PhaseIdle || status.Run != 1 {
		t.Errorf("after shed/replay run: phase %s run %d, want idle run 1", status.Phase, status.Run)
	}
}
