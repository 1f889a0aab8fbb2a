package platform

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"melody"
)

// newTestScheduler builds a run scheduler over a funded shared ledger with
// the reference tracker/auction configuration.
func newTestScheduler(t *testing.T, funded float64, epochEvery int) (*melody.RunScheduler, *melody.Ledger) {
	t.Helper()
	money := melody.NewLedger()
	if _, err := money.Deposit(melody.RequesterAccount, funded, "test funding"); err != nil {
		t.Fatal(err)
	}
	s, err := melody.NewRunScheduler(melody.SchedulerConfig{
		Auction: melody.AuctionConfig{QualityMin: 1, QualityMax: 10, CostMin: 1, CostMax: 2},
		NewEstimator: func(string) (melody.Estimator, error) {
			return melody.NewQualityTracker(melody.QualityTrackerConfig{
				InitialMean: 5.5, InitialVar: 2.25,
				Params:   melody.QualityParams{A: 1, Gamma: 0.3, Eta: 9},
				EMPeriod: 10, EMWindow: 50,
			})
		},
		Ledger:     money,
		EpochEvery: epochEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, money
}

func newMultiTestServer(t *testing.T, backend MultiRunBackend) *httptest.Server {
	t.Helper()
	srv, err := NewMultiServer(backend, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func tenantClient(t *testing.T, ts *httptest.Server, tenant string) *Client {
	t.Helper()
	c, err := NewClientOptions(ts.URL, ClientOptions{HTTPClient: ts.Client(), Tenant: tenant})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// driveRunHTTP pushes one run through bidding, close, scoring and finish
// entirely over the wire.
func driveRunHTTP(ctx context.Context, c *Client, runID string, tenant string, workers int) error {
	run, err := c.OpenRunID(ctx, runID, tenant, []TaskSpec{
		{ID: runID + "-t1", Threshold: 10},
		{ID: runID + "-t2", Threshold: 10},
	}, 100)
	if err != nil {
		return fmt.Errorf("open %s: %w", runID, err)
	}
	for i := 0; i < workers; i++ {
		w := fmt.Sprintf("%s-w%d", tenant, i)
		if err := run.SubmitBid(ctx, w, 1+0.1*float64(i), 1); err != nil {
			return fmt.Errorf("bid %s: %w", w, err)
		}
	}
	out, err := run.CloseAuction(ctx)
	if err != nil {
		return fmt.Errorf("close %s: %w", runID, err)
	}
	for _, a := range out.Assignments {
		if err := run.SubmitScore(ctx, a.WorkerID, a.TaskID, 7); err != nil {
			return fmt.Errorf("score %s: %w", runID, err)
		}
	}
	if err := run.FinishRun(ctx); err != nil {
		return fmt.Errorf("finish %s: %w", runID, err)
	}
	return nil
}

// TestMultiServerConcurrentTenants serves three tenants' overlapping run
// sequences from one server and checks completion, the /v1/runs
// listing, and exact money conservation on the shared ledger.
func TestMultiServerConcurrentTenants(t *testing.T) {
	ctx := context.Background()
	const tenants, runs, workers = 3, 2, 5
	sched, money := newTestScheduler(t, float64(tenants*runs)*100, 2)
	ts := newMultiTestServer(t, sched)

	for ti := 0; ti < tenants; ti++ {
		c := tenantClient(t, ts, fmt.Sprintf("t%d", ti))
		for i := 0; i < workers; i++ {
			if err := c.RegisterWorker(ctx, fmt.Sprintf("t%d-w%d", ti, i)); err != nil {
				t.Fatal(err)
			}
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, tenants)
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			c := tenantClient(t, ts, tenant)
			for r := 1; r <= runs; r++ {
				if err := driveRunHTTP(ctx, c, fmt.Sprintf("%s-r%d", tenant, r), tenant, workers); err != nil {
					errCh <- err
					return
				}
			}
		}(fmt.Sprintf("t%d", ti))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	if got := sched.CompletedRuns(); got != tenants*runs {
		t.Errorf("completed runs = %d, want %d", got, tenants*runs)
	}
	c := tenantClient(t, ts, "t0")
	if rs, err := c.Runs(ctx); err != nil || len(rs) != 0 {
		t.Errorf("Runs() after completion = %v, %v; want empty", rs, err)
	}
	if err := sched.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, acct := range []melody.LedgerAccount{"escrow", "epoch_pool"} {
		if b := money.Balance(acct); b > 1e-9 || b < -1e-9 {
			t.Errorf("%s holds %v after flush, want 0", acct, b)
		}
	}
}

// TestMultiServerRunsListing opens two tenants' runs without closing them
// and checks both appear, with tenants, in GET /v1/runs.
func TestMultiServerRunsListing(t *testing.T) {
	ctx := context.Background()
	sched, _ := newTestScheduler(t, 400, 0)
	ts := newMultiTestServer(t, sched)
	tasks := []TaskSpec{{ID: "t1", Threshold: 10}}

	ca := tenantClient(t, ts, "a")
	cb := tenantClient(t, ts, "b")
	if _, err := ca.OpenRunID(ctx, "a-r1", "a", tasks, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := cb.OpenRunID(ctx, "b-r1", "b", tasks, 100); err != nil {
		t.Fatal(err)
	}
	rs, err := ca.Runs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{}
	for _, r := range rs {
		seen[r.RunID] = r.Tenant
	}
	if seen["a-r1"] != "a" || seen["b-r1"] != "b" {
		t.Errorf("Runs() = %v, want a-r1@a and b-r1@b", rs)
	}
}

// TestMultiServerIdempotentRetries replays open, close and finish over the
// wire — the at-least-once client contract against run-ID-keyed state.
func TestMultiServerIdempotentRetries(t *testing.T) {
	ctx := context.Background()
	sched, money := newTestScheduler(t, 100, 0)
	ts := newMultiTestServer(t, sched)
	c := tenantClient(t, ts, "a")
	for i := 0; i < 3; i++ {
		if err := c.RegisterWorker(ctx, fmt.Sprintf("a-w%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	tasks := []TaskSpec{{ID: "r1-t1", Threshold: 10}}
	run, err := c.OpenRunID(ctx, "r1", "a", tasks, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.OpenRunID(ctx, "r1", "a", tasks, 100); err != nil {
		t.Errorf("replayed open = %v, want success", err)
	}
	if got := money.Balance("escrow"); got != 100 {
		t.Errorf("escrow after replayed open = %v, want 100", got)
	}
	if err := run.SubmitBid(ctx, "a-w0", 1.2, 1); err != nil {
		t.Fatal(err)
	}
	out1, err := run.CloseAuction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := run.CloseAuction(ctx)
	if err != nil {
		t.Fatalf("replayed close = %v, want outcome", err)
	}
	if fmt.Sprintf("%+v", out1) != fmt.Sprintf("%+v", out2) {
		t.Errorf("replayed close diverged:\n%+v\n%+v", out1, out2)
	}
	for _, a := range out1.Assignments {
		if err := run.SubmitScore(ctx, a.WorkerID, a.TaskID, 8); err != nil {
			t.Fatal(err)
		}
	}
	if err := run.FinishRun(ctx); err != nil {
		t.Fatal(err)
	}
	before := money.Balance(melody.RequesterAccount)
	if err := run.FinishRun(ctx); err != nil {
		t.Errorf("replayed finish = %v, want success", err)
	}
	if got := money.Balance(melody.RequesterAccount); got != before {
		t.Errorf("replayed finish moved money: %v -> %v", before, got)
	}
}
