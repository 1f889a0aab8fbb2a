package eventlog

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"melody"
)

// newSchedulerForLog builds a run scheduler with the reference
// configuration and a funded ledger; replay requires writer and reader to
// be constructed identically.
func newSchedulerForLog(t testing.TB, funded float64, epochEvery int) (*melody.RunScheduler, *melody.Ledger) {
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

// ledgerBalances flattens a ledger into a comparable map.
func ledgerBalances(l *melody.Ledger) map[melody.LedgerAccount]float64 {
	out := map[melody.LedgerAccount]float64{}
	for _, ab := range l.Accounts() {
		out[ab.Account] = ab.Balance
	}
	return out
}

// TestPersistentSchedulerReplay interleaves two tenants' runs through a
// persistent scheduler, then replays the log into a fresh scheduler and
// checks the rebuilt state — completed runs, worker registry, per-run
// outcomes, and every ledger balance — matches the original byte for byte.
func TestPersistentSchedulerReplay(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "sched.wal")
	const tenants, runs, workers = 2, 2, 4

	orig, origMoney := newSchedulerForLog(t, float64(tenants*runs)*100, 2)
	ps, log, err := OpenPersistentScheduler(path, orig, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < tenants; ti++ {
		for i := 0; i < workers; i++ {
			if err := ps.RegisterWorker(ctx, fmt.Sprintf("t%d-w%d", ti, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Interleave the tenants' runs concurrently so the log carries a mixed
	// total order that replay must route back per run ID.
	var wg sync.WaitGroup
	errCh := make(chan error, tenants)
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for r := 1; r <= runs; r++ {
				runID := fmt.Sprintf("%s-r%d", tenant, r)
				tasks := []melody.Task{{ID: runID + "-t1", Threshold: 10}}
				if err := ps.OpenRun(ctx, runID, tenant, tasks, 100); err != nil {
					errCh <- err
					return
				}
				bids := make([]melody.WorkerBid, workers)
				for i := range bids {
					bids[i] = melody.WorkerBid{
						WorkerID: fmt.Sprintf("%s-w%d", tenant, i),
						Bid:      melody.Bid{Cost: 1 + 0.1*float64(i), Frequency: 1},
					}
				}
				if res := ps.SubmitBids(ctx, runID, bids); res.Err() != nil {
					errCh <- res.Err()
					return
				}
				out, err := ps.CloseAuction(ctx, runID)
				if err != nil {
					errCh <- err
					return
				}
				scores := make([]melody.TaskScore, 0, len(out.Assignments))
				for _, a := range out.Assignments {
					scores = append(scores, melody.TaskScore{WorkerID: a.WorkerID, TaskID: a.TaskID, Score: 7})
				}
				if res := ps.SubmitScores(ctx, runID, scores); res.Err() != nil {
					errCh <- res.Err()
					return
				}
				if err := ps.FinishRun(ctx, runID); err != nil {
					errCh <- err
					return
				}
			}
		}(fmt.Sprintf("t%d", ti))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	rebuilt, rebuiltMoney := newSchedulerForLog(t, float64(tenants*runs)*100, 2)
	if err := ReplayScheduler(path, rebuilt); err != nil {
		t.Fatalf("replay: %v", err)
	}

	if o, r := orig.CompletedRuns(), rebuilt.CompletedRuns(); o != r {
		t.Errorf("completed runs: orig %d, rebuilt %d", o, r)
	}
	ow, rw := orig.Workers(), rebuilt.Workers()
	if fmt.Sprint(ow) != fmt.Sprint(rw) {
		t.Errorf("workers diverged:\n%v\n%v", ow, rw)
	}
	for ti := 0; ti < tenants; ti++ {
		for r := 1; r <= runs; r++ {
			runID := fmt.Sprintf("t%d-r%d", ti, r)
			oi, err := orig.Run(runID)
			if err != nil {
				t.Fatal(err)
			}
			ri, err := rebuilt.Run(runID)
			if err != nil {
				t.Fatalf("rebuilt missing run %s: %v", runID, err)
			}
			if !ri.Finished {
				t.Errorf("run %s not finished after replay", runID)
			}
			if fmt.Sprintf("%+v", oi.Outcome) != fmt.Sprintf("%+v", ri.Outcome) {
				t.Errorf("run %s outcome diverged:\n%+v\n%+v", runID, oi.Outcome, ri.Outcome)
			}
		}
	}
	ob, rb := ledgerBalances(origMoney), ledgerBalances(rebuiltMoney)
	if fmt.Sprint(ob) != fmt.Sprint(rb) {
		t.Errorf("ledger balances diverged:\norig    %v\nrebuilt %v", ob, rb)
	}
	if o, r := orig.Settler().Epochs(), rebuilt.Settler().Epochs(); o != r {
		t.Errorf("epochs: orig %d, rebuilt %d", o, r)
	}
}

// TestOpenPersistentSchedulerResume reopens a log mid-run: the second boot
// must recover the open run and carry it to completion, and a third boot
// sees the finished state.
func TestOpenPersistentSchedulerResume(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "resume.wal")

	s1, _ := newSchedulerForLog(t, 100, 0)
	ps1, log1, err := OpenPersistentScheduler(path, s1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ps1.RegisterWorker(ctx, "w0"); err != nil {
		t.Fatal(err)
	}
	if err := ps1.OpenRun(ctx, "r1", "a", []melody.Task{{ID: "t1", Threshold: 10}}, 100); err != nil {
		t.Fatal(err)
	}
	if err := ps1.SubmitBid(ctx, "r1", "w0", melody.Bid{Cost: 1.5, Frequency: 1}); err != nil {
		t.Fatal(err)
	}
	if err := log1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, _ := newSchedulerForLog(t, 100, 0)
	ps2, log2, err := OpenPersistentScheduler(path, s2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	open := s2.OpenRuns()
	if len(open) != 1 || open[0].ID != "r1" {
		t.Fatalf("after reopen, open runs = %+v, want [r1]", open)
	}
	out, err := ps2.CloseAuction(ctx, "r1")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range out.Assignments {
		if err := ps2.SubmitScore(ctx, "r1", a.WorkerID, a.TaskID, 8); err != nil {
			t.Fatal(err)
		}
	}
	if err := ps2.FinishRun(ctx, "r1"); err != nil {
		t.Fatal(err)
	}
	if err := log2.Close(); err != nil {
		t.Fatal(err)
	}

	s3, _ := newSchedulerForLog(t, 100, 0)
	if err := ReplayScheduler(path, s3); err != nil {
		t.Fatal(err)
	}
	info, err := s3.Run("r1")
	if err != nil || !info.Finished {
		t.Errorf("third boot: Run(r1) = %+v, %v; want finished", info, err)
	}
}

// TestPersistentSchedulerRefusesOutOfRangeScore: a score no estimator
// accepts (1e19 is valid JSON) is refused before it is logged, alone or
// inside a batch. The run finishes, and a reboot replays the log cleanly
// to the same run state and estimates.
func TestPersistentSchedulerRefusesOutOfRangeScore(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "scores.wal")
	s1, _ := newSchedulerForLog(t, 100, 0)
	ps, log, err := OpenPersistentScheduler(path, s1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	workers := []string{"w0", "w1", "w2"}
	for _, w := range workers {
		if err := ps.RegisterWorker(ctx, w); err != nil {
			t.Fatal(err)
		}
	}
	if err := ps.OpenRun(ctx, "r1", "a", []melody.Task{{ID: "t1", Threshold: 10}}, 100); err != nil {
		t.Fatal(err)
	}
	for i, w := range workers {
		if err := ps.SubmitBid(ctx, "r1", w, melody.Bid{Cost: 1 + 0.2*float64(i), Frequency: 1}); err != nil {
			t.Fatal(err)
		}
	}
	out, err := ps.CloseAuction(ctx, "r1")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Assignments) < 2 {
		t.Fatalf("%d assignments, want at least 2", len(out.Assignments))
	}
	logged := log.Seq()
	a, b := out.Assignments[0], out.Assignments[1]
	if err := ps.SubmitScore(ctx, "r1", a.WorkerID, a.TaskID, 1e19); err == nil {
		t.Error("score 1e19 accepted")
	}
	if seq := log.Seq(); seq != logged {
		t.Errorf("refused score logged: sequence %d -> %d", logged, seq)
	}
	res := ps.SubmitScores(ctx, "r1", []melody.TaskScore{
		{WorkerID: a.WorkerID, TaskID: a.TaskID, Score: -1e19},
		{WorkerID: b.WorkerID, TaskID: b.TaskID, Score: 7},
	})
	if res.ErrAt(0) == nil || res.ErrAt(1) != nil {
		t.Errorf("batch with one bad score: errors %v, want only item 0 refused", res.Failed())
	}
	for _, x := range out.Assignments[2:] {
		if err := ps.SubmitScore(ctx, "r1", x.WorkerID, x.TaskID, 7); err != nil {
			t.Fatal(err)
		}
	}
	if err := ps.SubmitScore(ctx, "r1", a.WorkerID, a.TaskID, 8); err != nil {
		t.Fatalf("valid score after refused ones: %v", err)
	}
	if err := ps.FinishRun(ctx, "r1"); err != nil {
		t.Fatalf("finish after refused scores: %v", err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if e.Kind == KindScore && (e.Score > 1e18 || e.Score < -1e18) {
			t.Errorf("log holds refused score %v at seq %d", e.Score, e.Seq)
		}
	}

	s2, _ := newSchedulerForLog(t, 100, 0)
	_, log2, err := OpenPersistentScheduler(path, s2, Options{})
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}
	defer log2.Close()
	if info, err := s2.Run("r1"); err != nil || !info.Finished {
		t.Errorf("reboot: Run(r1) = %+v, %v; want finished", info, err)
	}
	for _, w := range workers {
		want, _ := s1.Quality("a", w)
		if got, err := s2.Quality("a", w); err != nil || got != want {
			t.Errorf("reboot: worker %s estimate %v, %v; want %v", w, got, err, want)
		}
	}
}

// TestOpenRunsListsOnlyOpenRuns drives two tenants' runs interleaved, with
// finishes in both orders, and leaves one run per tenant open. Both live
// and after ReplayScheduler, OpenRuns lists exactly the open runs in open
// order, and the scheduler's open-order slice holds nothing else: a
// finished run leaves it, so boot-time OpenRuns calls stay proportional
// to the open runs, not to the history.
func TestOpenRunsListsOnlyOpenRuns(t *testing.T) {
	ctx := context.Background()
	const rounds = 5
	path := filepath.Join(t.TempDir(), "open.wal")
	live, _ := newSchedulerForLog(t, 100*(2*rounds+2), 0)
	ps, log, err := OpenPersistentScheduler(path, live, Options{})
	if err != nil {
		t.Fatal(err)
	}
	open := func(runID string) {
		t.Helper()
		if err := ps.OpenRun(ctx, runID, runID[:1], []melody.Task{{ID: runID + "-k0", Threshold: 10}}, 100); err != nil {
			t.Fatal(err)
		}
	}
	finish := func(runID string) {
		t.Helper()
		if err := ps.SubmitBid(ctx, runID, runID[:1]+"-w0", melody.Bid{Cost: 1.5, Frequency: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := ps.CloseAuction(ctx, runID); err != nil {
			t.Fatal(err)
		}
		if err := ps.FinishRun(ctx, runID); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range []string{"a-w0", "b-w0"} {
		if err := ps.RegisterWorker(ctx, w); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < rounds; r++ {
		a, b := fmt.Sprintf("a-r%d", r), fmt.Sprintf("b-r%d", r)
		open(a)
		open(b)
		if r%2 == 0 {
			a, b = b, a
		}
		finish(a)
		finish(b)
	}
	open("b-last")
	open("a-last")
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	replayed, _ := newSchedulerForLog(t, 100*(2*rounds+2), 0)
	if err := ReplayScheduler(path, replayed); err != nil {
		t.Fatal(err)
	}
	want := []string{"b-last", "a-last"}
	for name, s := range map[string]*melody.RunScheduler{"live": live, "replayed": replayed} {
		var got []string
		for _, info := range s.OpenRuns() {
			got = append(got, info.ID)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: OpenRuns = %v, want %v", name, got, want)
		}
		if n := reflect.ValueOf(s).Elem().FieldByName("order").Len(); n != len(want) {
			t.Errorf("%s: open order holds %d runs, want the %d open ones", name, n, len(want))
		}
		if s.CompletedRuns() != 2*rounds {
			t.Errorf("%s: %d completed runs, want %d", name, s.CompletedRuns(), 2*rounds)
		}
	}
}

// TestReplaySchedulerRejectsRunlessEvents checks a single-run log (events
// without run IDs) cannot be replayed into a scheduler by mistake.
func TestReplaySchedulerRejectsRunlessEvents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "single.wal")
	log, err := Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(Event{Kind: KindBid, Worker: "w0", Cost: 1, Frequency: 1}); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	s, _ := newSchedulerForLog(t, 100, 0)
	if err := ReplayScheduler(path, s); err == nil {
		t.Error("replaying a run-less event into a scheduler succeeded")
	}
}
