package eventlog

import (
	"context"
	"errors"
	"path/filepath"
	"slices"
	"testing"

	"melody"
)

// TestRecorderBatchReplayEquivalence drives a season through the batch
// submission path (SubmitBids/SubmitScores: one lock acquisition, one
// record per batch) and verifies a fresh scheduler replayed from the log
// reaches identical state, and that each batch's record lists exactly the
// items it applied, in order.
func TestRecorderBatchReplayEquivalence(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "batch.wal")
	p := newScheduler(t)
	log, err := Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewPersistentScheduler(p, log)
	if err != nil {
		t.Fatal(err)
	}

	workers := []string{"ada", "bob", "cyd", "dee"}
	for _, id := range workers {
		if err := rec.RegisterWorker(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.OpenRun(ctx, "r1", "", []melody.Task{{ID: "t1", Threshold: 11}}, 30); err != nil {
		t.Fatal(err)
	}
	// One invalid item in the middle: it must fail alone, not poison the
	// batch, and must not be logged.
	bids := []melody.WorkerBid{
		{WorkerID: "ada", Bid: melody.Bid{Cost: 1.2, Frequency: 2}},
		{WorkerID: "ghost", Bid: melody.Bid{Cost: 1.2, Frequency: 2}},
		{WorkerID: "bob", Bid: melody.Bid{Cost: 1.4, Frequency: 2}},
		{WorkerID: "cyd", Bid: melody.Bid{Cost: 1.1, Frequency: 2}},
		{WorkerID: "dee", Bid: melody.Bid{Cost: 1.6, Frequency: 2}},
	}
	res := rec.SubmitBids(ctx, "r1", bids)
	for i := range res.Len() {
		e := res.ErrAt(i)
		if i == 1 {
			if !errors.Is(e, melody.ErrUnknownWorker) {
				t.Fatalf("ghost bid error = %v, want ErrUnknownWorker", e)
			}
			continue
		}
		if e != nil {
			t.Fatalf("bid %d: %v", i, e)
		}
	}
	out, err := rec.CloseAuction(ctx, "r1")
	if err != nil {
		t.Fatal(err)
	}
	scores := make([]melody.TaskScore, 0, len(out.Assignments))
	for i, a := range out.Assignments {
		scores = append(scores, melody.TaskScore{
			WorkerID: a.WorkerID, TaskID: a.TaskID, Score: 4 + float64(i),
		})
	}
	if err := rec.SubmitScores(ctx, "r1", scores).Err(); err != nil {
		t.Fatal(err)
	}
	if err := rec.FinishRun(ctx, "r1"); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	replayed := newScheduler(t)
	if err := ReplayScheduler(path, replayed); err != nil {
		t.Fatal(err)
	}
	if replayed.CompletedRuns() != p.CompletedRuns() {
		t.Errorf("replayed run counter %d != live %d", replayed.CompletedRuns(), p.CompletedRuns())
	}
	for _, id := range workers {
		want, err := p.Quality("", id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := replayed.Quality("", id)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("worker %s: replayed quality %v != live %v", id, got, want)
		}
	}
	// Each batch is one record of the items it applied: the rejected bid
	// is absent.
	events, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	var logged []string
	batches := map[Kind]int{}
	for _, e := range events {
		batches[e.Kind]++
		for _, b := range e.Bids {
			logged = append(logged, b.Worker)
		}
		if e.Kind == KindScores && len(e.Scores) != len(scores) {
			t.Errorf("the scores record lists %d scores, want %d", len(e.Scores), len(scores))
		}
	}
	if batches[KindBids] != 1 || batches[KindScores] != 1 || batches[KindBid]+batches[KindScore] != 0 {
		t.Errorf("records by kind %v, want one bids and one scores record", batches)
	}
	if want := []string{"ada", "bob", "cyd", "dee"}; !slices.Equal(logged, want) {
		t.Errorf("the bids record lists %q, want %q", logged, want)
	}
}
