package platform

// Chaos soak: a full 20-run season driven through the chaos middleware —
// injected latency, 503s, dropped connections, duplicated deliveries and
// lost responses — over a WAL-backed, ledger-backed scheduler, with a hard
// kill and recovery in the middle of run 11. The retry layer and the
// idempotent mutation protocol must absorb every fault: the season
// completes, money is conserved, no run overspends its budget, and
// replaying the WAL reproduces the live scheduler exactly.

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"melody"
	"melody/internal/chaos"
	"melody/internal/eventlog"
	"melody/internal/stats"
)

const (
	soakRuns    = 20
	soakBudget  = 50.0
	soakDeposit = 2000.0
)

func soakTasks(run int) []TaskSpec {
	return []TaskSpec{
		{ID: fmt.Sprintf("soak-r%d-a", run), Threshold: 10},
		{ID: fmt.Sprintf("soak-r%d-b", run), Threshold: 10},
	}
}

// soakWorld is one "life" of the platform: a WAL-backed server behind the
// chaos middleware, a fleet of worker agents, and a requester — all talking
// through retrying clients.
type soakWorld struct {
	sched     *melody.RunScheduler
	ledger    *melody.Ledger
	ts        *httptest.Server
	wal       *eventlog.Log
	agents    []*WorkerAgent
	requester *Requester
}

func startSoakWorld(t *testing.T, ctx context.Context, walPath string, scenario chaos.Scenario, rng *stats.RNG) *soakWorld {
	t.Helper()
	sched, ledger := newTestScheduler(t, soakDeposit, 0)
	backend, wal, err := eventlog.OpenPersistentScheduler(walPath, sched, eventlog.Options{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewMultiServer(backend, nil, WithDeadlines(10*time.Second, 10*time.Second))
	if err != nil {
		wal.Close()
		t.Fatal(err)
	}
	handler, err := chaos.Middleware(scenario, srv.Handler())
	if err != nil {
		wal.Close()
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)

	policy := RetryPolicy{MaxAttempts: 8, BaseDelay: 2 * time.Millisecond, MaxDelay: 50 * time.Millisecond}
	newRetryingClient := func() *Client {
		c, err := NewClientWithPolicy(ts.URL, ts.Client(), policy)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	w := &soakWorld{sched: sched, ledger: ledger, ts: ts, wal: wal}
	for i := 0; i < 4; i++ {
		latent := 4 + float64(i)*1.5
		agent, err := NewWorkerAgent(ctx, WorkerAgentConfig{
			Client:        newRetryingClient(),
			WorkerID:      fmt.Sprintf("soak-%d", i),
			Cost:          1.1 + 0.2*float64(i),
			Frequency:     2,
			LatentQuality: func(int) float64 { return latent },
			ScoreSigma:    0.4,
			PollInterval:  10 * time.Millisecond,
			RNG:           rng.Split(),
		})
		if err != nil {
			t.Fatalf("agent %d: %v", i, err)
		}
		w.agents = append(w.agents, agent)
	}
	w.requester, err = NewRequester(RequesterConfig{
		Client:        newRetryingClient(),
		Tasks:         soakTasks,
		Budget:        soakBudget,
		BidWait:       250 * time.Millisecond,
		AnswerTimeout: 5 * time.Second,
		ScoreLo:       1, ScoreHi: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// kill tears the world down abruptly: agents stopped, server gone, log
// closed. State survives only through the WAL.
func (w *soakWorld) kill(t *testing.T) {
	t.Helper()
	for _, a := range w.agents {
		if err := a.Stop(); err != nil {
			t.Errorf("agent stop: %v", err)
		}
	}
	w.ts.Close()
	if err := w.wal.Close(); err != nil {
		t.Errorf("wal close: %v", err)
	}
}

func TestChaosSoakSeason(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is a long test")
	}
	walPath := filepath.Join(t.TempDir(), "soak.wal")
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	scenario := chaos.Scenario{
		Seed: 42, Drop: 0.03, Dup: 0.05, Err: 0.05, Lose: 0.03,
		DelayMax: 2 * time.Millisecond,
	}
	rng := stats.NewRNG(99)

	// First life: runs 1–10 complete, run 11 gets as far as a closed
	// auction before the hard kill.
	w1 := startSoakWorld(t, ctx, walPath, scenario, rng)
	var outcomes []OutcomeResponse
	for run := 1; run <= 10; run++ {
		out, err := w1.requester.RunOnce(ctx, run)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		outcomes = append(outcomes, out)
	}
	run11, err := w1.requester.cfg.Client.OpenRunID(ctx, "", "", soakTasks(11), soakBudget)
	if err != nil {
		t.Fatalf("open run 11: %v", err)
	}
	time.Sleep(300 * time.Millisecond) // let the agents bid
	if _, err := run11.CloseAuction(ctx); err != nil {
		t.Fatalf("close run 11: %v", err)
	}
	w1.kill(t)

	// Second life: recover from the WAL mid-run. The requester re-drives
	// run 11 from the top — every mutation it replays (open, close) is a
	// no-op against the recovered state — then the season runs to 20.
	scenario.Seed = 43
	w2 := startSoakWorld(t, ctx, walPath, scenario, rng)
	defer w2.kill(t)
	for run := 11; run <= soakRuns; run++ {
		out, err := w2.requester.RunOnce(ctx, run)
		if err != nil {
			t.Fatalf("run %d (after recovery): %v", run, err)
		}
		outcomes = append(outcomes, out)
	}

	// Season-level invariants.
	if got := w2.sched.CompletedRuns(); got != soakRuns {
		t.Errorf("completed runs = %d, want %d", got, soakRuns)
	}
	totalPaid := 0.0
	assigned := 0
	for i, out := range outcomes {
		if out.TotalPayment > soakBudget+1e-9 {
			t.Errorf("run %d overspent: paid %.3f of budget %.1f", i+1, out.TotalPayment, soakBudget)
		}
		totalPaid += out.TotalPayment
		assigned += len(out.Assignments)
	}
	if assigned == 0 {
		t.Fatal("no tasks were ever assigned across the season")
	}

	// Ledger invariants: double-entry conservation (balances sum to the
	// deposit), an empty escrow once the season is idle, and the requester
	// out exactly what the auctions paid.
	sum := 0.0
	for _, acc := range w2.ledger.Accounts() {
		if acc.Balance < -1e-9 {
			t.Errorf("account %s has negative balance %.6f", acc.Account, acc.Balance)
		}
		sum += acc.Balance
	}
	if math.Abs(sum-soakDeposit) > 1e-6 {
		t.Errorf("ledger lost money: balances sum to %.6f, deposits were %.1f", sum, soakDeposit)
	}
	if esc := w2.ledger.Balance("escrow"); math.Abs(esc) > 1e-9 {
		t.Errorf("escrow not empty after season: %.6f", esc)
	}
	reqBal := w2.ledger.Balance(melody.RequesterAccount)
	if math.Abs(reqBal-(soakDeposit-totalPaid)) > 1e-6 {
		t.Errorf("requester balance %.6f, want %.6f (deposit %.1f - paid %.6f)",
			reqBal, soakDeposit-totalPaid, soakDeposit, totalPaid)
	}

	// Replay determinism: a cold replay of the WAL must land on exactly
	// the live scheduler's state — same runs, same workers, same quality
	// estimates, same money.
	replayed, replayLedger := newTestScheduler(t, soakDeposit, 0)
	if err := eventlog.ReplayScheduler(walPath, replayed); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if replayed.CompletedRuns() != w2.sched.CompletedRuns() {
		t.Errorf("replayed runs = %d, live = %d", replayed.CompletedRuns(), w2.sched.CompletedRuns())
	}
	liveWorkers := w2.sched.Workers()
	replayWorkers := replayed.Workers()
	if len(replayWorkers) != len(liveWorkers) {
		t.Fatalf("replayed workers = %v, live = %v", replayWorkers, liveWorkers)
	}
	for i, id := range liveWorkers {
		if replayWorkers[i] != id {
			t.Fatalf("replayed workers = %v, live = %v", replayWorkers, liveWorkers)
		}
		lq, err := w2.sched.Quality("", id)
		if err != nil {
			t.Fatal(err)
		}
		rq, err := replayed.Quality("", id)
		if err != nil {
			t.Fatal(err)
		}
		if lq != rq {
			t.Errorf("worker %s: replayed quality %v != live %v", id, rq, lq)
		}
	}
	for _, acc := range w2.ledger.Accounts() {
		if got := replayLedger.Balance(acc.Account); math.Abs(got-acc.Balance) > 1e-9 {
			t.Errorf("account %s: replayed balance %.6f != live %.6f", acc.Account, got, acc.Balance)
		}
	}
}
