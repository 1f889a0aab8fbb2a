package platform

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"melody"
)

// TestConcurrentServingMatchesSerial drives full runs with many goroutines
// submitting bids and scores concurrently while others hammer the read-only
// endpoints, then compares every observable outcome — allocations,
// payments, per-worker quality estimates — against a serial reference
// platform fed the same inputs one at a time. With Frequency-1 bids each
// worker holds at most one assignment, so results must be bit-identical to
// the serial order-equivalence class regardless of interleaving. Run under
// -race (make race does) this also exercises the split stateMu/ansMu server
// locking and the platform's RWMutex read paths.
func TestConcurrentServingMatchesSerial(t *testing.T) {
	const nWorkers, nRuns = 12, 3
	ctx := context.Background()

	_, c := newTestServer(t)
	ref := newTestBackend(t)

	workerID := func(i int) string { return fmt.Sprintf("w%02d", i) }
	cost := func(i int) float64 { return 1 + float64(i%10)/10 }            // within [1, 2]
	score := func(i, run int) float64 { return 1 + float64((3*i+run)%10) } // within [1, 10]

	for i := 0; i < nWorkers; i++ {
		if err := c.RegisterWorker(ctx, workerID(i)); err != nil {
			t.Fatal(err)
		}
		if err := ref.RegisterWorker(ctx, workerID(i)); err != nil {
			t.Fatal(err)
		}
	}

	// Read-only pollers run for the whole test, poking every read endpoint
	// concurrently with the mutations.
	pollCtx, stopPolling := context.WithCancel(ctx)
	var pollers sync.WaitGroup
	var pollErrs atomic.Int64
	for g := 0; g < 4; g++ {
		pollers.Add(1)
		go func(g int) {
			defer pollers.Done()
			for i := 0; pollCtx.Err() == nil; i++ {
				switch i % 3 {
				case 0:
					if _, err := c.Status(pollCtx); err != nil && pollCtx.Err() == nil {
						pollErrs.Add(1)
					}
				case 1:
					if _, err := c.Workers(pollCtx); err != nil && pollCtx.Err() == nil {
						pollErrs.Add(1)
					}
				case 2:
					id := workerID((g + i) % nWorkers)
					if _, err := c.Quality(pollCtx, id); err != nil && pollCtx.Err() == nil {
						pollErrs.Add(1)
					}
				}
			}
		}(g)
	}
	defer pollers.Wait()
	defer stopPolling()

	for run := 1; run <= nRuns; run++ {
		tasks := []TaskSpec{
			{ID: fmt.Sprintf("r%d-t1", run), Threshold: 10},
			{ID: fmt.Sprintf("r%d-t2", run), Threshold: 10},
			{ID: fmt.Sprintf("r%d-t3", run), Threshold: 10},
		}
		h, err := c.OpenRunID(ctx, "", "", tasks, 100)
		if err != nil {
			t.Fatal(err)
		}
		refTasks := make([]melody.Task, len(tasks))
		for i, ts := range tasks {
			refTasks[i] = melody.Task{ID: ts.ID, Threshold: ts.Threshold}
		}
		if err := ref.OpenRun(ctx, h.ID(), "", refTasks, 100); err != nil {
			t.Fatal(err)
		}

		// Concurrent bids against the server; serial bids into the reference.
		var wg sync.WaitGroup
		for i := 0; i < nWorkers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if err := h.SubmitBid(ctx, workerID(i), cost(i), 1); err != nil {
					t.Errorf("run %d bid %d: %v", run, i, err)
				}
			}(i)
		}
		wg.Wait()
		for i := 0; i < nWorkers; i++ {
			if err := ref.SubmitBid(ctx, h.ID(), workerID(i), melody.Bid{Cost: cost(i), Frequency: 1}); err != nil {
				t.Fatalf("ref bid %d: %v", i, err)
			}
		}

		out, err := h.CloseAuction(ctx)
		if err != nil {
			t.Fatal(err)
		}
		refOut, err := ref.CloseAuction(ctx, h.ID())
		if err != nil {
			t.Fatal(err)
		}
		if out.TotalPayment != refOut.TotalPayment {
			t.Errorf("run %d: concurrent payment %v != serial %v", run, out.TotalPayment, refOut.TotalPayment)
		}
		if len(out.Assignments) != len(refOut.Assignments) {
			t.Fatalf("run %d: %d assignments vs serial %d", run, len(out.Assignments), len(refOut.Assignments))
		}

		// Concurrent scores for every assignment; the reference gets the same
		// scores serially. Frequency-1 bids mean one score per worker, so
		// submission order cannot matter.
		for _, asg := range out.Assignments {
			wg.Add(1)
			go func(asg AssignmentSpec) {
				defer wg.Done()
				i := workerIndex(asg.WorkerID)
				err := h.SubmitScore(ctx, asg.WorkerID, asg.TaskID, score(i, run))
				if err != nil && !errors.Is(err, melody.ErrNotAssigned) {
					t.Errorf("run %d score %s: %v", run, asg.WorkerID, err)
				}
			}(asg)
		}
		wg.Wait()
		for _, asg := range refOut.Assignments {
			i := workerIndex(asg.WorkerID)
			if err := ref.SubmitScore(ctx, h.ID(), asg.WorkerID, asg.TaskID, score(i, run)); err != nil {
				t.Fatalf("ref score %s: %v", asg.WorkerID, err)
			}
		}

		if err := h.FinishRun(ctx); err != nil {
			t.Fatal(err)
		}
		if err := ref.FinishRun(ctx, h.ID()); err != nil {
			t.Fatal(err)
		}
	}
	stopPolling()
	pollers.Wait()
	if n := pollErrs.Load(); n != 0 {
		t.Errorf("%d read-only polls failed during concurrent serving", n)
	}

	// Every worker's quality estimate must match the serial reference
	// exactly — same floats, not approximately.
	for i := 0; i < nWorkers; i++ {
		id := workerID(i)
		got, err := c.Quality(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Quality("", id)
		if err != nil {
			t.Fatal(err)
		}
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("worker %s: concurrent quality %v != serial %v", id, got, want)
		}
	}
}

// workerIndex recovers i from the "w%02d" IDs above.
func workerIndex(id string) int {
	var i int
	fmt.Sscanf(id, "w%02d", &i)
	return i
}
