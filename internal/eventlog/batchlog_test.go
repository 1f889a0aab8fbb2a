package eventlog

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"melody"
)

// driveLifecycleSeason runs runs lifecycle-shaped runs per tenant through
// ps, two tenants taking turns: 16 workers each, one batch of 16 bids,
// two tasks, a batch of scores. Every fifth run also sends one bid and
// one score on their own, a batch with a bid from an unregistered worker,
// a worker's re-bid inside the batch and a retried bid after the close,
// so the log holds every kind of item a batch record can.
func driveLifecycleSeason(t testing.TB, ps *PersistentScheduler, runs int) {
	t.Helper()
	ctx := context.Background()
	tenants := []string{"t0", "t1"}
	worker := func(tenant string, i int) string { return fmt.Sprintf("%s-w%04d", tenant, i) }
	for _, tenant := range tenants {
		for i := 0; i < 16; i++ {
			if err := ps.RegisterWorker(ctx, worker(tenant, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for r := 1; r <= runs; r++ {
		for ti, tenant := range tenants {
			run := fmt.Sprintf("%s-r%06d", tenant, r)
			tasks := []melody.Task{{ID: run + "-k0", Threshold: 5 + float64(r%3)}, {ID: run + "-k1", Threshold: 6}}
			if err := ps.OpenRun(ctx, run, tenant, tasks, 40); err != nil {
				t.Fatal(err)
			}
			bids := make([]melody.WorkerBid, 16)
			for i := range bids {
				bids[i] = melody.WorkerBid{WorkerID: worker(tenant, i),
					Bid: melody.Bid{Cost: 1 + float64((i*7+r*3+ti)%10)/10, Frequency: 1 + (i+r)%3}}
			}
			odd := r%5 == 0
			if odd {
				bids[3].WorkerID = "ghost"
				bids = append(bids, melody.WorkerBid{WorkerID: worker(tenant, 5), Bid: melody.Bid{Cost: 1.05, Frequency: 2}})
			}
			res := ps.SubmitBids(ctx, run, bids)
			if odd && res.FailedCount() != 1 || !odd && !res.OK() {
				t.Fatalf("run %s: bids: %v", run, res.Err())
			}
			if odd {
				if err := ps.SubmitBid(ctx, run, worker(tenant, 3), melody.Bid{Cost: 1.5, Frequency: 1}); err != nil {
					t.Fatal(err)
				}
			}
			out, err := ps.CloseAuction(ctx, run)
			if err != nil {
				t.Fatal(err)
			}
			if odd {
				if err := ps.SubmitBid(ctx, run, worker(tenant, 3), melody.Bid{Cost: 1.5, Frequency: 1}); err != nil {
					t.Fatalf("retried bid after the close: %v", err)
				}
			}
			scores := make([]melody.TaskScore, len(out.Assignments))
			for k, a := range out.Assignments {
				scores[k] = melody.TaskScore{WorkerID: a.WorkerID, TaskID: a.TaskID,
					Score: 3 + float64((len(a.WorkerID)*7+r*5+k*3)%13)/2}
			}
			if odd && len(scores) > 1 {
				last := scores[len(scores)-1]
				scores = scores[:len(scores)-1]
				if err := ps.SubmitScores(ctx, run, scores).Err(); err != nil {
					t.Fatal(err)
				}
				if err := ps.SubmitScore(ctx, run, last.WorkerID, last.TaskID, last.Score); err != nil {
					t.Fatal(err)
				}
			} else if len(scores) > 0 {
				if err := ps.SubmitScores(ctx, run, scores).Err(); err != nil {
					t.Fatal(err)
				}
			}
			if err := ps.FinishRun(ctx, run); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// writeLifecycleSeason writes a season of runs runs per tenant to a new
// log in dir, and returns the log's path and the live scheduler's state.
func writeLifecycleSeason(t testing.TB, dir string, runs int) (string, []byte) {
	t.Helper()
	path := filepath.Join(dir, "season.wal")
	live := newEMScheduler(t, 10, nil)
	ps, log, err := OpenPersistentScheduler(path, live, Options{})
	if err != nil {
		t.Fatal(err)
	}
	driveLifecycleSeason(t, ps, runs)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	return path, schedulerState(t, live)
}

// perItem rewrites events into the form a log written before batch
// records has: a bid or score record per item, and no em member on a
// finish that made no re-estimation.
func perItem(events []Event) []Event {
	var out []Event
	for _, e := range events {
		switch {
		case e.Kind == KindBids:
			for _, b := range e.Bids {
				out = append(out, Event{Kind: KindBid, Run: e.Run, Worker: b.Worker, Cost: b.Cost, Frequency: b.Frequency})
			}
		case e.Kind == KindScores:
			for _, sc := range e.Scores {
				out = append(out, Event{Kind: KindScore, Run: e.Run, Worker: sc.Worker, Task: sc.Task, Score: sc.Score})
			}
		default:
			if e.EM != nil && len(e.EM.Workers) == 0 {
				e.EM = nil
			}
			e.Seq = 0
			out = append(out, e)
		}
	}
	return out
}

// TestOldFormatReplaysAsBatches: a season logged with a bid or score
// record per item, as logs were written before batch records, replays to
// the state the same season logged with batch records does, which is the
// live one. The batch log holds one record per submission.
func TestOldFormatReplaysAsBatches(t *testing.T) {
	dir := t.TempDir()
	path, want := writeLifecycleSeason(t, dir, 20)
	events, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[Kind]int{}
	for _, e := range events {
		kinds[e.Kind]++
	}
	// A bids record per run, and every fifth run's lone bids before and
	// after the close; no per-item record.
	if runs, odd := 2*20, 2*4; kinds[KindBids] != runs+2*odd || kinds[KindScores] == 0 || kinds[KindBid]+kinds[KindScore] != 0 {
		t.Fatalf("records by kind %v", kinds)
	}

	old := perItem(events)
	oldPath := filepath.Join(dir, "per-item.wal")
	if err := os.WriteFile(oldPath, encodeRecords(t, 0, old...), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]string{"batch": path, "per-item": oldPath} {
		s := newEMScheduler(t, 10, nil)
		if err := ReplayScheduler(p, s); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if string(schedulerState(t, s)) != string(want) {
			t.Errorf("the %s log replays to another state than the live one", name)
		}
	}
}

// TestReplayFailsOnRejectedItem: replay applies each batch record, a
// one-item one too, as one batch, and a record with an item the
// scheduler rejects fails recovery, naming the record's seq.
func TestReplayFailsOnRejectedItem(t *testing.T) {
	dir := t.TempDir()
	path, _ := writeLifecycleSeason(t, dir, 3)
	events, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	badBid := BidRecord{Worker: "ghost", Cost: 1.2, Frequency: 1}
	for _, tc := range []struct {
		name string
		kind Kind
		edit func(e *Event)
	}{
		{"bid added", KindBids, func(e *Event) { e.Bids = append(append([]BidRecord(nil), e.Bids...), badBid) }},
		{"lone bid", KindBids, func(e *Event) { e.Bids = []BidRecord{badBid} }},
		{"score added", KindScores, func(e *Event) {
			e.Scores = append(append([]ScoreRecord(nil), e.Scores...), ScoreRecord{Worker: e.Scores[0].Worker, Task: "no-such-task", Score: 5})
		}},
		{"lone score", KindScores, func(e *Event) {
			e.Scores = []ScoreRecord{{Worker: e.Scores[0].Worker, Task: "no-such-task", Score: 5}}
		}},
	} {
		cut := make([]Event, len(events))
		copy(cut, events)
		var seq int64
		for i, e := range cut {
			if e.Kind == tc.kind {
				tc.edit(&e)
				cut[i], seq = e, e.Seq
				break
			}
		}
		p := filepath.Join(dir, "cut.wal")
		writeEvents(t, p, cut)
		_, log, err := OpenPersistentScheduler(p, newEMScheduler(t, 10, nil), Options{})
		if err == nil {
			log.Close()
			t.Fatalf("%s: recovery accepted a record with a rejected item", tc.name)
		}
		if want := fmt.Sprintf("replay seq %d (%s)", seq, tc.kind); !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, want)
		}
	}
}
