package melody

import (
	"context"
	"math"
	"testing"
)

// badScores are scores every estimator refuses: finite values beyond
// ±1e18, the infinities and NaN. 1e19 is a valid JSON number, so a client
// can send it over the wire.
var badScores = []float64{1e19, -1e19, math.Inf(1), math.Inf(-1), math.NaN()}

// scoreRun opens a two-task run on p for workers a–d, closes it and scores
// every assignment 7. With bad set, each bad score is first tried on the
// first assignment, alone and inside a batch, and must be refused there;
// the run must then finish, and the next run must open.
func scoreRun(t *testing.T, p *Platform, bad bool) {
	t.Helper()
	ctx := context.Background()
	workers := []string{"a", "b", "c", "d"}
	for _, id := range workers {
		if err := p.RegisterWorker(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.OpenRun(ctx, []Task{{ID: "t1", Threshold: 10}, {ID: "t2", Threshold: 10}}, 100); err != nil {
		t.Fatal(err)
	}
	for i, id := range workers {
		if err := p.SubmitBid(ctx, id, Bid{Cost: 1 + 0.2*float64(i), Frequency: 2}); err != nil {
			t.Fatal(err)
		}
	}
	out, err := p.CloseAuction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Assignments) < 2 {
		t.Fatalf("%d assignments, want at least 2", len(out.Assignments))
	}
	first, second := out.Assignments[0], out.Assignments[1]
	if bad {
		for _, s := range badScores {
			if err := p.SubmitScore(ctx, first.WorkerID, first.TaskID, s); err == nil || ErrorCodeFor(err) != "" {
				t.Errorf("score %v: SubmitScore = %v, want a validation error with no wire code", s, err)
			}
		}
		res := p.SubmitScores(ctx, []TaskScore{
			{WorkerID: second.WorkerID, TaskID: second.TaskID, Score: 7},
			{WorkerID: first.WorkerID, TaskID: first.TaskID, Score: 1e19},
		})
		if res.ErrAt(0) != nil || res.ErrAt(1) == nil || res.FailedCount() != 1 {
			t.Errorf("batch with one bad score: errors %v, want only item 1 refused", res.Failed())
		}
	}
	for _, a := range out.Assignments {
		if err := p.SubmitScore(ctx, a.WorkerID, a.TaskID, 7); err != nil {
			t.Fatalf("score %s/%s: %v", a.WorkerID, a.TaskID, err)
		}
	}
	if err := p.FinishRun(ctx); err != nil {
		t.Fatalf("finish after refused scores: %v", err)
	}
	if err := p.OpenRun(ctx, []Task{{ID: "t3", Threshold: 10}}, 100); err != nil {
		t.Fatalf("next run: %v", err)
	}
}

// TestPlatformRefusesOutOfRangeScore: a score no estimator accepts is
// refused at submit. It consumes no slot and reaches no estimator: the run
// finishes with the valid scores, and every estimate equals that of a twin
// platform that never saw a bad score.
func TestPlatformRefusesOutOfRangeScore(t *testing.T) {
	p, twin := testPlatform(t), testPlatform(t)
	scoreRun(t, p, true)
	scoreRun(t, twin, false)
	for _, id := range p.Workers() {
		got, err := p.Quality(id)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := twin.Quality(id); got != want {
			t.Errorf("worker %s: estimate %v after refused scores, want %v", id, got, want)
		}
	}
}

// TestSchedulerRefusesOutOfRangeScore: through the run scheduler, a bad
// score is refused alone and inside a batch, the run finishes, and its
// tenant opens the next run.
func TestSchedulerRefusesOutOfRangeScore(t *testing.T) {
	ctx := context.Background()
	s, _ := testScheduler(t, 1000, 2)
	workers := []string{"a-w0", "a-w1", "a-w2", "a-w3"}
	for _, id := range workers {
		if err := s.RegisterWorker(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.OpenRun(ctx, "r1", "a", []Task{{ID: "r1-t1", Threshold: 10}, {ID: "r1-t2", Threshold: 10}}, 100); err != nil {
		t.Fatal(err)
	}
	for i, id := range workers {
		if err := s.SubmitBid(ctx, "r1", id, Bid{Cost: 1 + 0.1*float64(i), Frequency: 2}); err != nil {
			t.Fatal(err)
		}
	}
	out, err := s.CloseAuction(ctx, "r1")
	if err != nil {
		t.Fatal(err)
	}
	a := out.Assignments[0]
	for _, bad := range badScores {
		if err := s.SubmitScore(ctx, "r1", a.WorkerID, a.TaskID, bad); err == nil {
			t.Errorf("score %v accepted", bad)
		}
	}
	scores := make([]TaskScore, 0, len(out.Assignments)+1)
	scores = append(scores, TaskScore{WorkerID: a.WorkerID, TaskID: a.TaskID, Score: 1e19})
	for _, a := range out.Assignments {
		scores = append(scores, TaskScore{WorkerID: a.WorkerID, TaskID: a.TaskID, Score: 7})
	}
	res := s.SubmitScores(ctx, "r1", scores)
	if res.ErrAt(0) == nil || res.FailedCount() != 1 {
		t.Errorf("batch with one bad score: errors %v, want only item 0 refused", res.Failed())
	}
	if err := s.FinishRun(ctx, "r1"); err != nil {
		t.Fatalf("finish after refused scores: %v", err)
	}
	if err := s.OpenRun(ctx, "r2", "a", []Task{{ID: "r2-t1", Threshold: 10}}, 100); err != nil {
		t.Fatalf("tenant's next run: %v", err)
	}
}
