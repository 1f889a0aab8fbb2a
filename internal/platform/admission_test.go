package platform

// Admission-control tests: the concurrency gate and per-tenant rate
// limits, the 429 + Retry-After contract, control-plane exemption, the
// regression that a shed request never reaches the WAL or the ledger, and
// race-exercising concurrent-ingest paths (run under -race in make ci).

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
	"melody/internal/eventlog"
	"melody/internal/obs"
)

// noRetry is the policy the shed tests use so a 429 surfaces instead of
// being retried away.
var noRetry = RetryPolicy{MaxAttempts: 1}

// blockingBackend wraps a backend and parks SubmitBid until released, so a
// test can pin the admission gate's in-flight slots deterministically.
type blockingBackend struct {
	MultiRunBackend
	entered chan struct{} // one send per SubmitBid that starts
	release chan struct{} // closed to let them finish
}

func (b *blockingBackend) SubmitBid(ctx context.Context, runID, workerID string, bid melody.Bid) error {
	b.entered <- struct{}{}
	<-b.release
	return b.MultiRunBackend.SubmitBid(ctx, runID, workerID, bid)
}

func TestAdmissionConcurrencyGateSheds(t *testing.T) {
	bb := &blockingBackend{
		MultiRunBackend: newTestBackend(t),
		entered:         make(chan struct{}, 8),
		release:         make(chan struct{}),
	}
	srv, err := NewMultiServer(bb, nil, WithAdmission(AdmissionConfig{
		MaxInFlight: 1, MaxQueue: 0, QueueTimeout: 20 * time.Millisecond,
		RetryAfter: 50 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client, err := NewClientOptions(ts.URL, ClientOptions{HTTPClient: ts.Client(), Retry: &noRetry})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := client.RegisterWorker(ctx, "w1"); err != nil {
		t.Fatal(err)
	}
	run, err := client.OpenRunID(ctx, "", "", []TaskSpec{{ID: "t1", Threshold: 10}}, 100)
	if err != nil {
		t.Fatal(err)
	}

	// Pin the single slot with a bid that blocks inside the backend.
	pinned := make(chan error, 1)
	go func() { pinned <- run.SubmitBid(ctx, "w1", 1.2, 2) }()
	<-bb.entered

	// A second bid finds no slot and no waiting room: shed with 429, a
	// Retry-After hint, and the overloaded sentinel.
	err = run.SubmitBid(ctx, "w1", 1.3, 2)
	if !errors.Is(err, melody.ErrOverloaded) {
		t.Fatalf("second bid err = %v, want ErrOverloaded", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("second bid err = %T, want *APIError", err)
	}
	if apiErr.Status != http.StatusTooManyRequests {
		t.Errorf("shed status = %d, want 429", apiErr.Status)
	}
	if apiErr.RetryAfter != 50*time.Millisecond {
		t.Errorf("shed Retry-After = %v, want 50ms", apiErr.RetryAfter)
	}

	// The control plane is exempt: closing the auction works even while
	// ingest is saturated.
	if _, err := run.CloseAuction(ctx); err != nil {
		t.Errorf("close while ingest saturated: %v", err)
	}
	close(bb.release)
	// The pinned bid reaches the platform after the close; it loses the
	// race and reports auction-closed — admission must not mask that.
	if err := <-pinned; err != nil && !errors.Is(err, melody.ErrAuctionClosed) {
		t.Errorf("pinned bid err = %v, want nil or ErrAuctionClosed", err)
	}
	if rs, err := srv.lookupRun(run.ID()); err != nil {
		t.Errorf("resolve run: %v", err)
	} else if err := srv.finishRun(ctx, rs); err != nil {
		t.Errorf("finish after shed: %v", err)
	}
}

func TestAdmissionQueueAdmitsWhenSlotFrees(t *testing.T) {
	bb := &blockingBackend{
		MultiRunBackend: newTestBackend(t),
		entered:         make(chan struct{}, 8),
		release:         make(chan struct{}),
	}
	srv, err := NewMultiServer(bb, nil, WithAdmission(AdmissionConfig{
		MaxInFlight: 1, MaxQueue: 4, QueueTimeout: 2 * time.Second,
	}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client, err := NewClientOptions(ts.URL, ClientOptions{HTTPClient: ts.Client(), Retry: &noRetry})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := client.RegisterWorker(ctx, "w1"); err != nil {
		t.Fatal(err)
	}
	run, err := client.OpenRunID(ctx, "", "", []TaskSpec{{ID: "t1", Threshold: 10}}, 100)
	if err != nil {
		t.Fatal(err)
	}
	first := make(chan error, 1)
	go func() { first <- run.SubmitBid(ctx, "w1", 1.2, 2) }()
	<-bb.entered
	// The second bid queues behind the pinned slot instead of shedding,
	// and is admitted once the first completes.
	second := make(chan error, 1)
	go func() { second <- run.SubmitBid(ctx, "w1", 1.4, 2) }()
	time.Sleep(20 * time.Millisecond) // let it reach the queue
	close(bb.release)
	<-bb.entered // the queued bid enters the backend
	if err := <-first; err != nil {
		t.Errorf("pinned bid: %v", err)
	}
	if err := <-second; err != nil {
		t.Errorf("queued bid: %v", err)
	}
}

func TestAdmissionTenantRateLimit(t *testing.T) {
	srv, err := NewMultiServer(newTestBackend(t), nil, WithAdmission(AdmissionConfig{
		TenantRatePerSec: 0.001, TenantBurst: 2,
	}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// The anonymous setup client is not rate-limited (no tenant header).
	setup, err := NewClientOptions(ts.URL, ClientOptions{HTTPClient: ts.Client(), Retry: &noRetry})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := setup.RegisterWorker(ctx, "w1"); err != nil {
		t.Fatal(err)
	}
	run, err := setup.OpenRunID(ctx, "", "", []TaskSpec{{ID: "t1", Threshold: 10}}, 100)
	if err != nil {
		t.Fatal(err)
	}
	tenant, err := NewClientOptions(ts.URL, ClientOptions{
		HTTPClient: ts.Client(), Retry: &noRetry, Tenant: "acme",
	})
	if err != nil {
		t.Fatal(err)
	}
	// Burst of 2: two bids pass, the third is rate-limited.
	if err := tenant.Run(run.ID()).SubmitBid(ctx, "w1", 1.2, 2); err != nil {
		t.Fatalf("bid 1: %v", err)
	}
	if err := tenant.Run(run.ID()).SubmitBid(ctx, "w1", 1.3, 2); err != nil {
		t.Fatalf("bid 2: %v", err)
	}
	if err := tenant.Run(run.ID()).SubmitBid(ctx, "w1", 1.4, 2); !errors.Is(err, melody.ErrOverloaded) {
		t.Fatalf("bid 3 err = %v, want ErrOverloaded", err)
	}
	// A different tenant has its own bucket.
	other, err := NewClientOptions(ts.URL, ClientOptions{
		HTTPClient: ts.Client(), Retry: &noRetry, Tenant: "globex",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Run(run.ID()).SubmitBid(ctx, "w1", 1.5, 2); err != nil {
		t.Errorf("other tenant's first bid: %v", err)
	}
	// The anonymous client is untouched by tenant budgets.
	if err := run.SubmitBid(ctx, "w1", 1.6, 2); err != nil {
		t.Errorf("anonymous bid: %v", err)
	}
}

// TestShedBidNeverPersisted is the regression test that a 429-shed bid
// leaves no trace: no WAL append, no ledger entry, no scheduler state.
func TestShedBidNeverPersisted(t *testing.T) {
	reg := obs.NewRegistry()
	money := melody.NewLedger()
	if _, err := money.Deposit(melody.RequesterAccount, 1000, "funding"); err != nil {
		t.Fatal(err)
	}
	sched, err := melody.NewRunScheduler(melody.SchedulerConfig{
		Auction: melody.AuctionConfig{QualityMin: 1, QualityMax: 10, CostMin: 1, CostMax: 2},
		NewEstimator: func(string) (melody.Estimator, error) {
			return melody.NewQualityTracker(testTrackerConfig)
		},
		Ledger: money,
	})
	if err != nil {
		t.Fatal(err)
	}
	pp, wal, err := eventlog.OpenPersistentScheduler(t.TempDir()+"/shed.wal", sched, eventlog.Options{
		SyncEveryAppend: true,
		Metrics:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	srv, err := NewMultiServer(pp, nil, WithAdmission(AdmissionConfig{
		TenantRatePerSec: 0.001, TenantBurst: 1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	setup, err := NewClientOptions(ts.URL, ClientOptions{HTTPClient: ts.Client(), Retry: &noRetry})
	if err != nil {
		t.Fatal(err)
	}
	tenant, err := NewClientOptions(ts.URL, ClientOptions{
		HTTPClient: ts.Client(), Retry: &noRetry, Tenant: "acme",
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := setup.RegisterWorker(ctx, "w1"); err != nil {
		t.Fatal(err)
	}
	run, err := setup.OpenRunID(ctx, "", "", []TaskSpec{{ID: "t1", Threshold: 10}}, 100)
	if err != nil {
		t.Fatal(err)
	}
	// One accepted bid spends the tenant's only token.
	if err := tenant.Run(run.ID()).SubmitBid(ctx, "w1", 1.2, 2); err != nil {
		t.Fatal(err)
	}
	appends := reg.Counter(obs.MetricWALAppendsTotal, "").Value()
	entries := len(money.Entries())

	if err := tenant.Run(run.ID()).SubmitBid(ctx, "w1", 1.9, 1); !errors.Is(err, melody.ErrOverloaded) {
		t.Fatalf("shed bid err = %v, want ErrOverloaded", err)
	}
	if got := reg.Counter(obs.MetricWALAppendsTotal, "").Value(); got != appends {
		t.Errorf("shed bid was WAL-appended: appends %d -> %d", appends, got)
	}
	if got := len(money.Entries()); got != entries {
		t.Errorf("shed bid touched the ledger: entries %d -> %d", entries, got)
	}
	// The run settles on the accepted bid alone, and the shed bid's values
	// never appear in the outcome.
	out, err := run.CloseAuction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range out.Assignments {
		if a.Payment <= 0 {
			t.Errorf("assignment %+v has non-positive payment", a)
		}
	}
	for _, a := range out.Assignments {
		if err := run.SubmitScore(ctx, a.WorkerID, a.TaskID, 6); err != nil {
			t.Fatal(err)
		}
	}
	if err := run.FinishRun(ctx); err != nil {
		t.Fatal(err)
	}
	if err := checkConservation(money); err != nil {
		t.Error(err)
	}
}

// checkConservation is a local money-conservation check (sum of balances
// equals deposits); the full invariant library lives in internal/verify,
// which this package cannot import without a cycle in the verify
// integration tests' direction.
func checkConservation(l *melody.Ledger) error {
	var deposits, total float64
	for _, e := range l.Entries() {
		if e.Kind == "deposit" {
			deposits += e.Amount
		}
	}
	for _, ab := range l.Accounts() {
		total += ab.Balance
	}
	if diff := total - deposits; diff > 1e-6 || diff < -1e-6 {
		return errors.New("money not conserved after shed run")
	}
	return nil
}

// TestAdmissionConcurrentStorm hammers a bounded gate from many goroutines
// and checks the books balance: every request is either accepted or shed,
// and the gate's slots all return. Run under -race by make ci.
func TestAdmissionConcurrentStorm(t *testing.T) {
	srv, err := NewMultiServer(newTestBackend(t), nil, WithAdmission(AdmissionConfig{
		MaxInFlight: 4, MaxQueue: 8, QueueTimeout: 50 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := context.Background()
	setup, err := NewClientOptions(ts.URL, ClientOptions{HTTPClient: ts.Client(), Retry: &noRetry})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"w1", "w2", "w3", "w4"} {
		if err := setup.RegisterWorker(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	run, err := setup.OpenRunID(ctx, "", "", []TaskSpec{{ID: "t1", Threshold: 10}}, 100)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 16, 25
	var accepted, shed, failed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids := []string{"w1", "w2", "w3", "w4"}
			for i := 0; i < perG; i++ {
				err := run.SubmitBid(ctx, ids[(g+i)%4], 1.0+0.001*float64(g*perG+i), 1)
				switch {
				case err == nil:
					accepted.Add(1)
				case errors.Is(err, melody.ErrOverloaded):
					shed.Add(1)
				default:
					failed.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := accepted.Load() + shed.Load() + failed.Load(); got != goroutines*perG {
		t.Errorf("requests accounted = %d, want %d", got, goroutines*perG)
	}
	if failed.Load() != 0 {
		t.Errorf("%d requests failed with non-overload errors", failed.Load())
	}
	if accepted.Load() == 0 {
		t.Error("storm starved completely: zero accepted bids")
	}
	// The gate must be fully drained: a final bid cannot be blocked by
	// leaked slots.
	if err := run.SubmitBid(ctx, "w1", 1.5, 1); err != nil && !errors.Is(err, melody.ErrOverloaded) {
		t.Errorf("post-storm bid: %v", err)
	}
	if _, err := run.CloseAuction(ctx); err != nil {
		t.Fatal(err)
	}
	if rs, err := srv.lookupRun(run.ID()); err != nil {
		t.Fatal(err)
	} else if err := srv.finishRun(ctx, rs); err != nil {
		t.Fatal(err)
	}
}

func TestRetryAfterValueFormat(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{time.Second, "1"},
		{3 * time.Second, "3"},
		{250 * time.Millisecond, "0.250"},
		{1500 * time.Millisecond, "1.500"},
	}
	for _, c := range cases {
		if got := retryAfterValue(c.d); got != c.want {
			t.Errorf("retryAfterValue(%v) = %q, want %q", c.d, got, c.want)
		}
	}
	for _, v := range []string{"1", "0.250", "3"} {
		if got := parseRetryAfter(v); got <= 0 {
			t.Errorf("parseRetryAfter(%q) = %v, want > 0", v, got)
		}
	}
	if got := parseRetryAfter("Wed, 21 Oct 2015 07:28:00 GMT"); got != 0 {
		t.Errorf("HTTP-date Retry-After parsed to %v, want 0", got)
	}
}
