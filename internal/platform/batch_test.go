package platform

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"

	"melody"
)

// openTestRun registers workers w0..w{n-1} and opens a run with the given
// tasks, failing the test on any error.
func openTestRun(t *testing.T, c *Client, n int, tasks []TaskSpec, budget float64) *RunAPI {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		if err := c.RegisterWorker(ctx, fmt.Sprintf("w%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	run, err := c.OpenRunID(ctx, "", "", tasks, budget)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestBidBatchHappyPath(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()
	run := openTestRun(t, c, 4, []TaskSpec{{ID: "t1", Threshold: 10}}, 100)

	bids := make([]BidRequest, 4)
	for i := range bids {
		bids[i] = BidRequest{WorkerID: fmt.Sprintf("w%d", i), Cost: 1.5, Frequency: 1}
	}
	res, err := run.SubmitBids(ctx, bids)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Errorf("bids rejected: %v", err)
	}
	out, err := run.CloseAuction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Assignments) == 0 {
		t.Error("batched bids produced no assignments")
	}
}

// TestBidBatchPerItemErrors pins the per-item contract: a rejected item
// carries the same sentinel-mappable error the single-bid endpoint would
// have produced, and does not abort its neighbours.
func TestBidBatchPerItemErrors(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()
	run := openTestRun(t, c, 2, []TaskSpec{{ID: "t1", Threshold: 10}}, 100)

	res, err := run.SubmitBids(ctx, []BidRequest{
		{WorkerID: "w0", Cost: 1.5, Frequency: 1},
		{WorkerID: "ghost", Cost: 1.5, Frequency: 1},
		{WorkerID: "w1", Cost: 1.2, Frequency: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrAt(0) != nil || res.ErrAt(2) != nil {
		t.Errorf("valid bids rejected: %v, %v", res.ErrAt(0), res.ErrAt(2))
	}
	if !errors.Is(res.ErrAt(1), melody.ErrUnknownWorker) {
		t.Errorf("unknown-worker bid error = %v, want ErrUnknownWorker", res.ErrAt(1))
	}
	if res.FailedCount() != 1 || res.OK() {
		t.Errorf("FailedCount = %d, OK = %v; want 1, false", res.FailedCount(), res.OK())
	}
	if !errors.Is(res.Err(), melody.ErrUnknownWorker) {
		t.Errorf("rolled-up Err = %v, want to match ErrUnknownWorker", res.Err())
	}
}

func TestScoreBatchPerItemErrors(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()
	run := openTestRun(t, c, 4, []TaskSpec{{ID: "t1", Threshold: 10}}, 100)
	if _, err := run.SubmitBids(ctx, []BidRequest{
		{WorkerID: "w0", Cost: 1.2, Frequency: 1},
		{WorkerID: "w1", Cost: 1.4, Frequency: 1},
		{WorkerID: "w2", Cost: 1.3, Frequency: 1},
		{WorkerID: "w3", Cost: 1.6, Frequency: 1},
	}); err != nil {
		t.Fatal(err)
	}
	out, err := run.CloseAuction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Assignments) == 0 {
		t.Fatal("no assignments")
	}
	scores := []ScoreRequest{
		{WorkerID: out.Assignments[0].WorkerID, TaskID: out.Assignments[0].TaskID, Score: 7},
		{WorkerID: "w1", TaskID: "no-such-task", Score: 5},
	}
	res, err := run.SubmitScores(ctx, scores)
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrAt(0) != nil {
		t.Errorf("assigned score rejected: %v", res.ErrAt(0))
	}
	if !errors.Is(res.ErrAt(1), melody.ErrNotAssigned) {
		t.Errorf("unassigned score error = %v, want ErrNotAssigned", res.ErrAt(1))
	}
	if err := run.FinishRun(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestOutOfRangeScoreRefused: over the multi-tenant stack, a score no
// estimator accepts is a 400 on the single-score endpoint and refuses only
// its own item in a batch. 1e19 is a valid JSON number, so it reaches the
// server; refused at submit, it cannot fail the finish or wedge the
// tenant, which opens its next run.
func TestOutOfRangeScoreRefused(t *testing.T) {
	ctx := context.Background()
	sched, _ := newTestScheduler(t, 1000, 0)
	c := tenantClient(t, newMultiTestServer(t, sched), "a")
	for i := 0; i < 4; i++ {
		if err := c.RegisterWorker(ctx, fmt.Sprintf("a-w%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	run, err := c.OpenRunID(ctx, "r1", "a", []TaskSpec{{ID: "t1", Threshold: 10}}, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := run.SubmitBid(ctx, fmt.Sprintf("a-w%d", i), 1+0.1*float64(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	out, err := run.CloseAuction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Assignments) < 2 {
		t.Fatalf("%d assignments, want at least 2", len(out.Assignments))
	}
	a, b := out.Assignments[0], out.Assignments[1]
	var apiErr *APIError
	err = run.SubmitScore(ctx, a.WorkerID, a.TaskID, 1e19)
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Errorf("score 1e19: %v, want a 400", err)
	}
	res, err := run.SubmitScores(ctx, []ScoreRequest{
		{WorkerID: a.WorkerID, TaskID: a.TaskID, Score: 1e19},
		{WorkerID: b.WorkerID, TaskID: b.TaskID, Score: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.As(res.ErrAt(0), &apiErr) || apiErr.Status != http.StatusBadRequest || res.FailedCount() != 1 {
		t.Errorf("batch with one bad score: errors %v, want only item 0 refused with a 400", res.Failed())
	}
	for i, x := range out.Assignments {
		if i == 1 {
			continue // scored in the batch
		}
		if err := run.SubmitScore(ctx, x.WorkerID, x.TaskID, 7); err != nil {
			t.Fatal(err)
		}
	}
	if err := run.FinishRun(ctx); err != nil {
		t.Fatalf("finish after refused scores: %v", err)
	}
	if _, err := c.OpenRunID(ctx, "r2", "a", []TaskSpec{{ID: "t2", Threshold: 10}}, 100); err != nil {
		t.Fatalf("tenant's next run: %v", err)
	}
}

// TestBidBatchIdempotentReplay pins batch-level retry safety: replaying a
// whole batch (lost-response retry) is a per-item no-op success.
func TestBidBatchIdempotentReplay(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()
	run := openTestRun(t, c, 3, []TaskSpec{{ID: "t1", Threshold: 10}}, 100)

	bids := []BidRequest{
		{WorkerID: "w0", Cost: 1.5, Frequency: 1},
		{WorkerID: "w1", Cost: 1.2, Frequency: 2},
		{WorkerID: "w2", Cost: 1.8, Frequency: 1},
	}
	for round := 0; round < 2; round++ {
		res, err := run.SubmitBids(ctx, bids)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := res.Err(); err != nil {
			t.Errorf("round %d: %v", round, err)
		}
	}
}

func TestBatchValidation(t *testing.T) {
	ts, c := newTestServer(t)
	ctx := context.Background()

	if _, err := c.Run("r1").SubmitBids(ctx, nil); err == nil {
		t.Error("empty batch accepted")
	} else {
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
			t.Errorf("empty batch error = %v, want 400 APIError", err)
		}
	}

	over := make([]BidRequest, MaxBatchItems+1)
	for i := range over {
		over[i] = BidRequest{WorkerID: "w", Cost: 1, Frequency: 1}
	}
	if _, err := c.Run("r1").SubmitBids(ctx, over); err == nil {
		t.Error("oversized batch accepted")
	} else {
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
			t.Errorf("oversized batch error = %v, want 400 APIError", err)
		}
	}
	_ = ts
}
