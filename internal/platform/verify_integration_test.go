package platform

// End-to-end mechanism verification over the wire: a full Fig. 2 run is
// driven through the HTTP API and the outcome that comes back is checked
// against the same invariants (Theorems 5/6, budget feasibility, critical
// payments) the unit suites enforce, plus money conservation on the
// attached ledger. This catches wire-layer bugs — dropped assignments,
// re-ordered payments, float truncation — that in-process tests cannot see.

import (
	"context"
	"net/http/httptest"
	"testing"

	"melody"
	"melody/internal/core"
	"melody/internal/ledger"
	"melody/internal/stats"
	"melody/internal/verify"
)

func TestWireOutcomeSatisfiesMechanismInvariants(t *testing.T) {
	money := ledger.New()
	if _, err := money.Deposit(ledger.Requester, 1_000, "funding"); err != nil {
		t.Fatal(err)
	}
	cfg := melody.AuctionConfig{QualityMin: 1, QualityMax: 10, CostMin: 1, CostMax: 2}
	sched, err := melody.NewRunScheduler(melody.SchedulerConfig{
		Auction: cfg,
		NewEstimator: func(string) (melody.Estimator, error) {
			return melody.NewQualityTracker(testTrackerConfig)
		},
		Ledger: money,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewMultiServer(sched, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	r := stats.NewRNG(2024)
	ids := []string{"wa", "wb", "wc", "wd", "we", "wf", "wg", "wh"}
	for _, id := range ids {
		if err := c.RegisterWorker(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	for run := 0; run < 3; run++ {
		tasks := []TaskSpec{
			{ID: "t1", Threshold: r.Uniform(6, 12)},
			{ID: "t2", Threshold: r.Uniform(6, 12)},
			{ID: "t3", Threshold: r.Uniform(6, 12)},
		}
		budget := r.Uniform(30, 120)
		h, err := c.OpenRunID(ctx, "", "", tasks, budget)
		if err != nil {
			t.Fatal(err)
		}
		// Reconstruct the instance the auction will see: the quality each
		// worker carries into the run is the tracker's current estimate,
		// readable over the same API.
		in := core.Instance{Budget: budget}
		for _, id := range ids {
			cost := r.Uniform(1, 2)
			freq := r.UniformInt(1, 4)
			if err := h.SubmitBid(ctx, id, cost, freq); err != nil {
				t.Fatal(err)
			}
			q, err := c.Quality(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			in.Workers = append(in.Workers, core.Worker{
				ID: id, Bid: core.Bid{Cost: cost, Frequency: freq}, Quality: q,
			})
		}
		for _, task := range tasks {
			in.Tasks = append(in.Tasks, core.Task{ID: task.ID, Threshold: task.Threshold})
		}

		wire, err := h.CloseAuction(ctx)
		if err != nil {
			t.Fatal(err)
		}
		// The wire format carries no per-task payments; rebuild them from
		// the assignments before running the structural checks.
		out := &core.Outcome{
			SelectedTasks: wire.SelectedTasks,
			TotalPayment:  wire.TotalPayment,
			TaskPayments:  make([]float64, len(wire.SelectedTasks)),
		}
		slot := make(map[string]int, len(wire.SelectedTasks))
		for i, id := range wire.SelectedTasks {
			slot[id] = i
		}
		for _, a := range wire.Assignments {
			out.Assignments = append(out.Assignments, core.Assignment{
				WorkerID: a.WorkerID, TaskID: a.TaskID, Payment: a.Payment,
			})
			if i, ok := slot[a.TaskID]; ok {
				out.TaskPayments[i] += a.Payment
			}
		}
		if err := verify.CheckAuctionOutcome(in, out, verify.MelodyChecks()); err != nil {
			t.Fatalf("run %d: %v", run+1, err)
		}
		// And the wire outcome must match running MELODY locally on the
		// reconstructed instance: the API may not distort the allocation.
		if err := verify.CheckAgainstReference(cfg, in); err != nil {
			t.Fatalf("run %d: %v", run+1, err)
		}

		for _, a := range wire.Assignments {
			if err := h.SubmitScore(ctx, a.WorkerID, a.TaskID, r.Uniform(3, 9)); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.FinishRun(ctx); err != nil {
			t.Fatal(err)
		}
		if err := verify.CheckMoneyConservation(money); err != nil {
			t.Fatalf("run %d: %v", run+1, err)
		}
		if err := verify.CheckEscrowSettled(money); err != nil {
			t.Fatalf("run %d: %v", run+1, err)
		}
	}
}
