package platform

// Segmented-engine chaos soaks: seasons driven over the segmented storage
// engine (rotation, snapshots, compaction) through the chaos middleware,
// with deterministic kill points — mid-segment append, mid-rotation rename,
// mid-snapshot write — armed mid-season, plus a primary-kill /
// replica-promotion soak. Two tenants take turns opening runs on one run
// scheduler, so every finish leaves no run open and may snapshot. After
// every life the recovered (or promoted) scheduler must be bit-identical
// to the state the previous life acknowledged, money must be conserved,
// and no run may overspend.

import (
	"context"
	"encoding/json"
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

// soakTenants take turns: run n belongs to soakTenants[n%2].
var soakTenants = [2]string{"acme", "zeta"}

// segWorld is one life of the platform on the segmented engine.
type segWorld struct {
	sched      *melody.RunScheduler
	ledger     *melody.Ledger
	backend    *eventlog.PersistentScheduler
	seg        *eventlog.SegmentedLog
	ts         *httptest.Server
	agents     []*WorkerAgent
	requesters [2]*Requester
}

// runOnce drives season run n as its tenant's requester.
func (w *segWorld) runOnce(ctx context.Context, n int) (OutcomeResponse, error) {
	return w.requesters[n%2].RunOnce(ctx, n)
}

// newSoakAgents starts the season's four worker agents against baseURL.
func newSoakAgents(t *testing.T, ctx context.Context, prefix string, newClient func(tenant string) *Client, rng *stats.RNG) []*WorkerAgent {
	t.Helper()
	var agents []*WorkerAgent
	for i := 0; i < 4; i++ {
		latent := 4 + float64(i)*1.5
		agent, err := NewWorkerAgent(ctx, WorkerAgentConfig{
			Client:        newClient(""),
			WorkerID:      fmt.Sprintf("%s-%d", prefix, i),
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
		agents = append(agents, agent)
	}
	return agents
}

// newSoakRequesters builds one requester per soak tenant.
func newSoakRequesters(t *testing.T, newClient func(tenant string) *Client) [2]*Requester {
	t.Helper()
	var out [2]*Requester
	for i, tenant := range soakTenants {
		r, err := NewRequester(RequesterConfig{
			Client:        newClient(tenant),
			Tasks:         soakTasks,
			Budget:        soakBudget,
			BidWait:       150 * time.Millisecond,
			AnswerTimeout: 5 * time.Second,
			ScoreLo:       1, ScoreHi: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = r
	}
	return out
}

// soakClients returns a factory of retrying clients for ts, one tenant
// each ("" for none).
func soakClients(t *testing.T, ts *httptest.Server) func(tenant string) *Client {
	policy := RetryPolicy{MaxAttempts: 8, BaseDelay: 2 * time.Millisecond, MaxDelay: 50 * time.Millisecond}
	return func(tenant string) *Client {
		c, err := NewClientOptions(ts.URL, ClientOptions{HTTPClient: ts.Client(), Retry: &policy, Tenant: tenant})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
}

// schedulerState renders a scheduler's full state as its snapshot
// encoding, the form the recovery oracles compare byte for byte. The
// scheduler must have no run open.
func schedulerState(t *testing.T, s *melody.RunScheduler) []byte {
	t.Helper()
	snap, err := s.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func segSoakOptions(fp *chaos.Failpoints) eventlog.SegmentedOptions {
	return eventlog.SegmentedOptions{
		Options:       eventlog.Options{SyncEveryAppend: true},
		SegmentBytes:  1024, // a run's records span segments, forcing rotations
		SnapshotEvery: 30,   // a snapshot lands roughly every few runs
		Failpoint:     fp.Hook(),
	}
}

func startSegWorld(t *testing.T, ctx context.Context, dir string, fp *chaos.Failpoints, scenario chaos.Scenario, rng *stats.RNG) *segWorld {
	t.Helper()
	sched, ledger := newTestScheduler(t, soakDeposit, 0)
	backend, seg, err := eventlog.OpenSegmentedScheduler(dir, sched, segSoakOptions(fp))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewMultiServer(backend, nil,
		WithDeadlines(10*time.Second, 10*time.Second),
		WithReplicationSource(seg))
	if err != nil {
		seg.Close()
		t.Fatal(err)
	}
	handler, err := chaos.Middleware(scenario, srv.Handler())
	if err != nil {
		seg.Close()
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)
	clients := soakClients(t, ts)
	return &segWorld{
		sched: sched, ledger: ledger, backend: backend, seg: seg, ts: ts,
		agents:     newSoakAgents(t, ctx, "seg", clients, rng),
		requesters: newSoakRequesters(t, clients),
	}
}

// kill tears the world down abruptly; state survives only on disk.
func (w *segWorld) kill(t *testing.T) {
	t.Helper()
	for _, a := range w.agents {
		if err := a.Stop(); err != nil {
			t.Errorf("agent stop: %v", err)
		}
	}
	w.ts.Close()
	w.seg.Close() // a poisoned log's close error is the simulated crash itself
}

// assertRecoveredMatchesLive boots a throwaway recovery from dir and
// demands the live scheduler's exact state: runs, workers, quality floats,
// ledger, settler and tenant records.
func assertRecoveredMatchesLive(t *testing.T, dir string, live *melody.RunScheduler) {
	t.Helper()
	sched, _ := newTestScheduler(t, soakDeposit, 0)
	_, seg, err := eventlog.OpenSegmentedScheduler(dir, sched, eventlog.SegmentedOptions{
		Options: eventlog.Options{SyncEveryAppend: true},
	})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer seg.Close()
	if got, want := schedulerState(t, sched), schedulerState(t, live); string(got) != string(want) {
		t.Errorf("recovered state differs from live:\n got %s\nwant %s", got, want)
	}
}

// assertMoneyConserved checks the ledger invariants at season end.
func assertMoneyConserved(t *testing.T, ledger *melody.Ledger, outcomes []OutcomeResponse) {
	t.Helper()
	totalPaid := 0.0
	for i, out := range outcomes {
		if out.TotalPayment > soakBudget+1e-9 {
			t.Errorf("run %d overspent: paid %.3f of budget %.1f", i+1, out.TotalPayment, soakBudget)
		}
		totalPaid += out.TotalPayment
	}
	sum := 0.0
	for _, acc := range ledger.Accounts() {
		if acc.Balance < -1e-9 {
			t.Errorf("account %s has negative balance %.6f", acc.Account, acc.Balance)
		}
		sum += acc.Balance
	}
	if math.Abs(sum-soakDeposit) > 1e-6 {
		t.Errorf("ledger lost money: balances sum to %.6f, deposits were %.1f", sum, soakDeposit)
	}
	if esc := ledger.Balance("escrow"); math.Abs(esc) > 1e-9 {
		t.Errorf("escrow not empty after season: %.6f", esc)
	}
	reqBal := ledger.Balance(melody.RequesterAccount)
	if math.Abs(reqBal-(soakDeposit-totalPaid)) > 1e-6 {
		t.Errorf("requester balance %.6f, want %.6f", reqBal, soakDeposit-totalPaid)
	}
}

// TestSegmentedChaosSoakSeason runs a 14-run, two-tenant season on the
// segmented engine through chaos middleware, with three armed kills:
// mid-segment append, mid-rotation rename, and mid-snapshot write. Each
// kill is followed by a recovery whose state must match what the dead life
// had acknowledged.
func TestSegmentedChaosSoakSeason(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is a long test")
	}
	dir := filepath.Join(t.TempDir(), "segwal")
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	scenario := chaos.Scenario{
		Seed: 42, Drop: 0.02, Dup: 0.04, Err: 0.04, Lose: 0.02,
		DelayMax: 2 * time.Millisecond,
	}
	rng := stats.NewRNG(99)
	var outcomes []OutcomeResponse
	const totalRuns = 14

	// Each life arms one kill point after a couple of healthy runs, drives
	// until the poisoned log surfaces the crash, and dies.
	kills := []string{eventlog.FailpointSegmentAppend, eventlog.FailpointRotateRename}
	run := 1
	for life, kp := range kills {
		fp := chaos.NewFailpoints()
		scenario.Seed = int64(42 + life)
		w := startSegWorld(t, ctx, dir, fp, scenario, rng)
		healthy := run + 2
		for ; run <= healthy && run <= totalRuns; run++ {
			out, err := w.runOnce(ctx, run)
			if err != nil {
				t.Fatalf("life %d run %d: %v", life, run, err)
			}
			outcomes = append(outcomes, out)
		}
		// Arm the kill: the next append that crosses the point poisons the
		// log, so some run soon fails mid-flight.
		fp.Arm(kp, 1)
		liveRuns := w.sched.CompletedRuns()
		for ; run <= totalRuns; run++ {
			out, err := w.runOnce(ctx, run)
			if err != nil {
				break
			}
			liveRuns = w.sched.CompletedRuns()
			outcomes = append(outcomes, out)
		}
		if fp.Fired(kp) == 0 {
			t.Fatalf("life %d: kill point %s never fired", life, kp)
		}
		w.kill(t)

		// Recovery must reach at least the acknowledged completed runs and
		// reproduce the quality state for fully settled history.
		s2, _ := newTestScheduler(t, soakDeposit, 0)
		_, seg2, err := eventlog.OpenSegmentedScheduler(dir, s2, eventlog.SegmentedOptions{
			Options: eventlog.Options{SyncEveryAppend: true},
		})
		if err != nil {
			t.Fatalf("life %d recovery: %v", life, err)
		}
		if s2.CompletedRuns() < liveRuns {
			t.Errorf("life %d: recovered %d runs, acknowledged %d", life, s2.CompletedRuns(), liveRuns)
		}
		seg2.Close()
		// The failed run is re-driven from the top next life by its
		// tenant's unnamed open, which retries the run the tenant still has
		// in flight, so rewind the loop to it.
		run = s2.CompletedRuns() + 1
	}

	// Final life: no kills on the write path, but arm the snapshot point —
	// a snapshot failure must NOT fail any run, only surface on SnapshotErr.
	fp := chaos.NewFailpoints()
	scenario.Seed = 77
	w := startSegWorld(t, ctx, dir, fp, scenario, rng)
	fp.Arm(eventlog.FailpointSnapshotWrite, 1)
	snapKillSeen := false
	for ; run <= totalRuns; run++ {
		out, err := w.runOnce(ctx, run)
		if err != nil {
			t.Fatalf("final life run %d: %v", run, err)
		}
		outcomes = append(outcomes, out)
		// The snapshot failure must surface on SnapshotErr without failing
		// the run; check right after the firing run, before a later
		// successful snapshot clears the error again.
		if !snapKillSeen && fp.Fired(eventlog.FailpointSnapshotWrite) > 0 {
			snapKillSeen = true
			if err := w.backend.SnapshotErr(); err == nil {
				t.Error("snapshot kill fired but SnapshotErr is nil")
			}
		}
	}
	if !snapKillSeen {
		t.Error("the mid-snapshot kill point never fired")
	}
	if err := w.backend.SnapshotErr(); err != nil {
		t.Errorf("the season ended on a failed snapshot: %v", err)
	}
	if w.seg.SnapshotSeq() == 0 {
		t.Error("the season ended without an installed snapshot")
	}
	if w.sched.CompletedRuns() != totalRuns {
		t.Errorf("completed runs = %d, want %d", w.sched.CompletedRuns(), totalRuns)
	}
	assertMoneyConserved(t, w.ledger, outcomes)

	// The finished season recovers bit-identically.
	w.kill(t)
	assertRecoveredMatchesLive(t, dir, w.sched)
}

// TestReplicaPromotionSoak kills a primary mid-season and promotes a
// replica that had been streaming its segments over the wire (through the
// same chaos middleware as the client traffic). The promoted scheduler
// must be bit-identical both to the primary's acknowledged state and to a
// full from-scratch replay of the replica's files, must conserve money,
// and must keep serving both tenants' runs.
func TestReplicaPromotionSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is a long test")
	}
	primaryDir := filepath.Join(t.TempDir(), "primary")
	replicaDir := filepath.Join(t.TempDir(), "replica")
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	rng := stats.NewRNG(7)
	scenario := chaos.Scenario{
		Seed: 11, Drop: 0.02, Dup: 0.03, Err: 0.03, Lose: 0.02,
		DelayMax: time.Millisecond,
	}

	primary, _ := newTestScheduler(t, soakDeposit, 0)
	// Compaction stays off on the primary so the replica mirrors the whole
	// chain and a full from-scratch replay oracle is possible.
	backend, seg, err := eventlog.OpenSegmentedScheduler(primaryDir, primary, eventlog.SegmentedOptions{
		Options:           eventlog.Options{SyncEveryAppend: true},
		SegmentBytes:      1024,
		SnapshotEvery:     30,
		DisableCompaction: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewMultiServer(backend, nil,
		WithDeadlines(10*time.Second, 10*time.Second),
		WithReplicationSource(seg))
	if err != nil {
		t.Fatal(err)
	}
	handler, err := chaos.Middleware(scenario, srv.Handler())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)
	clients := soakClients(t, ts)
	agents := newSoakAgents(t, ctx, "rep", clients, rng)
	requesters := newSoakRequesters(t, clients)
	policy := RetryPolicy{MaxAttempts: 8, BaseDelay: 2 * time.Millisecond, MaxDelay: 50 * time.Millisecond}

	// The replica streams over the same chaotic wire the clients use.
	replSrcClient, err := NewClientWithPolicy(ts.URL, ts.Client(), policy)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eventlog.NewReplicator(eventlog.ReplicatorConfig{
		Dir:    replicaDir,
		Source: &ReplicationClient{c: replSrcClient},
		ID:     "soak-replica",
	})
	if err != nil {
		t.Fatal(err)
	}

	var outcomes []OutcomeResponse
	const runs = 10
	for run := 1; run <= runs; run++ {
		out, err := requesters[run%2].RunOnce(ctx, run)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		outcomes = append(outcomes, out)
		if _, err := rep.Sync(ctx); err != nil {
			t.Fatalf("replica sync after run %d: %v", run, err)
		}
	}
	// Drain to the durable tail, then kill the primary abruptly.
	for {
		prog, err := rep.Sync(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if prog.BytesCopied == 0 && prog.LagBytes == 0 {
			break
		}
	}
	if seg.SnapshotSeq() == 0 {
		t.Fatal("primary never snapshotted; promotion would not exercise the bounded path")
	}
	for _, a := range agents {
		_ = a.Stop()
	}
	ts.Close()
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}

	// Promote the replica: standard recovery over its mirrored files.
	promotedSched, pledger := newTestScheduler(t, soakDeposit, 0)
	promoted, pseg, err := eventlog.OpenSegmentedScheduler(replicaDir, promotedSched, eventlog.SegmentedOptions{
		Options:      eventlog.Options{SyncEveryAppend: true},
		SegmentBytes: 1024, SnapshotEvery: 30, DisableCompaction: true,
	})
	if err != nil {
		t.Fatalf("promotion: %v", err)
	}
	defer pseg.Close()

	// Oracle 1: bit-identical to the primary's acknowledged state. Oracle
	// 2: bit-identical to a full from-scratch replay of the replica's own
	// files (no snapshot shortcut).
	replayed, _ := newTestScheduler(t, soakDeposit, 0)
	if err := eventlog.ReplaySegments(replicaDir, replayed); err != nil {
		t.Fatalf("full replay of replica files: %v", err)
	}
	state := schedulerState(t, promotedSched)
	if want := schedulerState(t, primary); string(state) != string(want) {
		t.Errorf("promoted state differs from the primary's:\n got %s\nwant %s", state, want)
	}
	if want := schedulerState(t, replayed); string(state) != string(want) {
		t.Errorf("promoted state differs from a full replay:\n got %s\nwant %s", state, want)
	}

	// Money conservation on the promoted node.
	assertMoneyConserved(t, pledger, outcomes)

	// The promoted node keeps serving: one more run per tenant through a
	// fresh server.
	srv2, err := NewMultiServer(promoted, nil,
		WithDeadlines(10*time.Second, 10*time.Second),
		WithReplicationSource(pseg))
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	clients2 := soakClients(t, ts2)
	agents2 := newSoakAgents(t, ctx, "rep", clients2, rng)
	defer func() {
		for _, a := range agents2 {
			_ = a.Stop()
		}
	}()
	requesters2 := newSoakRequesters(t, clients2)
	for run := runs + 1; run <= runs+2; run++ {
		if _, err := requesters2[run%2].RunOnce(ctx, run); err != nil {
			t.Fatalf("post-promotion run %d: %v", run, err)
		}
	}
	if promotedSched.CompletedRuns() != runs+2 {
		t.Errorf("post-promotion completed runs = %d, want %d", promotedSched.CompletedRuns(), runs+2)
	}
}
