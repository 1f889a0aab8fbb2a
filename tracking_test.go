package melody_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"melody"
	"melody/internal/eventlog"
)

// joinBackend is what the join season drives: the in-memory scheduler or
// a durable one.
type joinBackend interface {
	RegisterWorker(ctx context.Context, workerID string) error
	OpenRun(ctx context.Context, runID, tenant string, tasks []melody.Task, budget float64) error
	SubmitBids(ctx context.Context, runID string, bids []melody.WorkerBid) melody.BatchResult
	CloseAuction(ctx context.Context, runID string) (*melody.Outcome, error)
	SubmitScores(ctx context.Context, runID string, scores []melody.TaskScore) melody.BatchResult
	FinishRun(ctx context.Context, runID string) error
	Quality(tenant, workerID string) (float64, error)
	Forecast(tenant, workerID string, steps int) (melody.QualityForecast, error)
}

// joinOp is one step of the join season: workers registering, or one run
// of a tenant, with workers registering between its close and its finish.
type joinOp struct {
	register []string
	tenant   string
	run      string
	bidders  []string
	mid      []string
}

// joinScript is a three-tenant season whose workers register at every
// point a tenant's finishes can see: before a tenant's first run (a0…,
// b0…, and c0 and x0 before tenant c exists), between a tenant's close and
// its finish (a3), after other tenants' finishes (b3, x0, c0, late), and
// never bidding at all (n0). s0 bids for b from round 2 and for a only
// from round 5, so a catches it up on four finishes at once; tenant c is
// created in round 4, after all of those registrations.
func joinScript() []joinOp {
	ops := []joinOp{{register: []string{"a0", "a1", "a2", "b0", "b1", "b2", "s0", "n0"}}}
	run := func(tenant string, r int, bidders []string, mid ...string) {
		ops = append(ops, joinOp{tenant: tenant, run: fmt.Sprintf("%s-r%d", tenant, r), bidders: bidders, mid: mid})
	}
	for r := 1; r <= 8; r++ {
		a := []string{"a0", "a1", "a2"}
		if r >= 3 {
			a = append(a, "a3")
		}
		if r >= 5 {
			a = append(a, "s0")
		}
		if r == 8 {
			a = append(a, "late")
		}
		if r == 2 {
			run("a", r, a, "a3")
		} else {
			run("a", r, a)
		}
		b := []string{"b0", "b1", "b2"}
		if r >= 2 {
			b = append(b, "s0")
		}
		if r >= 4 {
			b = append(b, "b3")
		}
		run("b", r, b)
		if r == 3 {
			ops = append(ops, joinOp{register: []string{"b3", "x0", "c0"}})
		}
		if r >= 4 {
			c := []string{"a0", "b0", "c0", "x0"}
			if r >= 6 {
				c = append(c, "a3")
			}
			run("c", r, c)
		}
		if r == 6 {
			ops = append(ops, joinOp{register: []string{"late"}})
		}
	}
	return ops
}

// newJoinScheduler builds the season's scheduler. θ⁰'s a is not 1, so each
// empty observation a worker is owed moves its estimate; EM runs every
// three runs over a four-run window, so windows slide and EM falls due.
func newJoinScheduler(t testing.TB) *melody.RunScheduler {
	t.Helper()
	s, err := melody.NewRunScheduler(melody.SchedulerConfig{
		Auction: melody.AuctionConfig{QualityMin: 1, QualityMax: 10, CostMin: 1, CostMax: 2},
		NewEstimator: func(string) (melody.Estimator, error) {
			return melody.NewQualityTracker(melody.QualityTrackerConfig{
				InitialMean: 5.5, InitialVar: 2.25,
				Params:   melody.QualityParams{A: 0.96, Gamma: 0.3, Eta: 9},
				EMPeriod: 3, EMWindow: 4,
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// joinScore is a deterministic score in [2, 10).
func joinScore(worker, task string) float64 {
	h := fnv.New64a()
	h.Write([]byte(worker + "/" + task))
	return 2 + float64(h.Sum64()%80)/10
}

// joinRecorder drives the join season and records what a client sees:
// every outcome, and after every finish each started tenant's quality
// estimate and two-step forecast of every registered worker.
type joinRecorder struct {
	t       testing.TB
	workers []string // in registration order
	tenants []string // in order of their first run
	lines   []string
}

// drive runs ops[from:] through be. recover, when non-nil, is called
// after the ops it names and after the close of the runs it names, and
// returns the backend to go on with.
func (jr *joinRecorder) drive(be joinBackend, ops []joinOp, from int, recover func(at string) joinBackend) joinBackend {
	t := jr.t
	ctx := context.Background()
	for i, op := range ops[from:] {
		for _, id := range op.register {
			if err := be.RegisterWorker(ctx, id); err != nil {
				t.Fatal(err)
			}
			jr.workers = append(jr.workers, id)
		}
		if op.tenant != "" {
			if !slices.Contains(jr.tenants, op.tenant) {
				jr.tenants = append(jr.tenants, op.tenant)
			}
			be = jr.runOp(be, op, recover)
		}
		if recover != nil {
			if next := recover(fmt.Sprintf("op%d", from+i)); next != nil {
				be = next
			}
		}
	}
	return be
}

func (jr *joinRecorder) runOp(be joinBackend, op joinOp, recover func(string) joinBackend) joinBackend {
	t := jr.t
	ctx := context.Background()
	tasks := []melody.Task{{ID: op.run + "-t1", Threshold: 10}, {ID: op.run + "-t2", Threshold: 10}}
	if err := be.OpenRun(ctx, op.run, op.tenant, tasks, 100); err != nil {
		t.Fatal(err)
	}
	bids := make([]melody.WorkerBid, len(op.bidders))
	for i, id := range op.bidders {
		bids[i] = melody.WorkerBid{WorkerID: id, Bid: melody.Bid{Cost: 1 + 0.15*float64(i%5), Frequency: 2}}
	}
	if err := be.SubmitBids(ctx, op.run, bids).Err(); err != nil {
		t.Fatal(err)
	}
	out, err := be.CloseAuction(ctx, op.run)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	jr.lines = append(jr.lines, op.run+" "+string(body))
	for _, id := range op.mid {
		if err := be.RegisterWorker(ctx, id); err != nil {
			t.Fatal(err)
		}
		jr.workers = append(jr.workers, id)
	}
	if recover != nil {
		if next := recover(op.run + "/closed"); next != nil {
			be = next
		}
	}
	scores := make([]melody.TaskScore, len(out.Assignments))
	for k, a := range out.Assignments {
		scores[k] = melody.TaskScore{WorkerID: a.WorkerID, TaskID: a.TaskID, Score: joinScore(a.WorkerID, a.TaskID)}
	}
	if len(scores) > 0 {
		if err := be.SubmitScores(ctx, op.run, scores).Err(); err != nil {
			t.Fatal(err)
		}
	}
	if err := be.FinishRun(ctx, op.run); err != nil {
		t.Fatal(err)
	}
	jr.lines = append(jr.lines, jr.estimates(be)...)
	return be
}

// estimates lists each started tenant's estimate and two-step forecast
// of every registered worker, bit for bit.
func (jr *joinRecorder) estimates(be joinBackend) []string {
	var lines []string
	for _, tenant := range jr.tenants {
		for _, id := range jr.workers {
			q, err := be.Quality(tenant, id)
			if err != nil {
				jr.t.Fatal(err)
			}
			f, err := be.Forecast(tenant, id, 2)
			if err != nil {
				jr.t.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("%s %s %016x %016x %016x", tenant, id,
				math.Float64bits(q), math.Float64bits(f.Mean), math.Float64bits(f.Var)))
		}
	}
	return lines
}

func (jr *joinRecorder) digest() string {
	h := sha256.New()
	for _, l := range jr.lines {
		h.Write([]byte(l + "\n"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// joinSeasonDigest is the join season's digest as recorded by the
// implementation in which every finish observed every registered worker.
const joinSeasonDigest = "9493bec81d25f1402749a797808844d6e350dae89f89f2088694d23c3cfa4762"

// TestJoinSeasonPinned: tracking workers from their first bid, with the
// empty observations they are owed applied at that close, changes no
// outcome and no estimate a client can read, wherever workers register.
// The season runs in memory, and on both engines with every record
// fsynced before it is acknowledged and a kill after every fourth step
// and after two closes: the scheduler is dropped with its log, and a new
// one recovers from the files (the single-file log by replay; the
// segmented log, which snapshots at every finish that leaves no run open,
// from a snapshot and its tail). Every run matches the digest recorded
// when every finish observed every registered worker.
func TestJoinSeasonPinned(t *testing.T) {
	ops := joinScript()
	mem := &joinRecorder{t: t}
	live := newJoinScheduler(t)
	mem.drive(live, ops, 0, nil)
	if got := mem.digest(); got != joinSeasonDigest {
		t.Errorf("in memory: digest %s, want %s", got, joinSeasonDigest)
	}

	kills := func(at string) bool {
		var n int
		if _, err := fmt.Sscanf(at, "op%d", &n); err == nil {
			return n%4 == 3
		}
		return at == "c-r5/closed" || at == "a-r2/closed"
	}
	t.Run("wal", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "season.wal")
		var log *eventlog.Log
		open := func() joinBackend {
			ps, l, err := eventlog.OpenPersistentScheduler(path, newJoinScheduler(t), eventlog.Options{SyncEveryAppend: true})
			if err != nil {
				t.Fatal(err)
			}
			log = l
			return ps
		}
		jr := &joinRecorder{t: t}
		jr.drive(open(), ops, 0, func(at string) joinBackend {
			if !kills(at) {
				return nil
			}
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}
			return open()
		})
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		if got := jr.digest(); got != joinSeasonDigest {
			t.Errorf("digest %s, want %s", got, joinSeasonDigest)
		}
	})
	t.Run("segmented", func(t *testing.T) {
		dir := t.TempDir()
		var log *eventlog.SegmentedLog
		var sched *melody.RunScheduler
		open := func() joinBackend {
			sched = newJoinScheduler(t)
			ps, l, err := eventlog.OpenSegmentedScheduler(dir, sched, eventlog.SegmentedOptions{
				Options: eventlog.Options{SyncEveryAppend: true}, SnapshotEvery: 1})
			if err != nil {
				t.Fatal(err)
			}
			log = l
			return ps
		}
		jr := &joinRecorder{t: t}
		jr.drive(open(), ops, 0, func(at string) joinBackend {
			if !kills(at) {
				return nil
			}
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}
			return open()
		})
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		if got := jr.digest(); got != joinSeasonDigest {
			t.Errorf("digest %s, want %s", got, joinSeasonDigest)
		}
		if got, want := snapshotJSON(t, sched), snapshotJSON(t, live); got != want {
			t.Errorf("recovered state differs from the live one:\n got %s\nwant %s", got, want)
		}
	})
}

// snapshotJSON encodes a scheduler's snapshot.
func snapshotJSON(t testing.TB, s *melody.RunScheduler) string {
	t.Helper()
	snap, err := s.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestTenantTracksOnlyItsBidders: after a two-tenant season with disjoint
// pools of W workers, each tenant's estimator holds its own W workers, not
// all 2W registered ones.
func TestTenantTracksOnlyItsBidders(t *testing.T) {
	const w = 8
	ctx := context.Background()
	s := newJoinScheduler(t)
	for _, tenant := range []string{"a", "b"} {
		for i := range w {
			if err := s.RegisterWorker(ctx, fmt.Sprintf("%s%d", tenant, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	jr := &joinRecorder{t: t}
	for r := 1; r <= 4; r++ {
		for _, tenant := range []string{"a", "b"} {
			op := joinOp{tenant: tenant, run: fmt.Sprintf("%s-r%d", tenant, r)}
			for i := range w {
				op.bidders = append(op.bidders, fmt.Sprintf("%s%d", tenant, i))
			}
			jr.runOp(s, op, nil)
		}
	}
	snap, err := s.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range snap.Tenants {
		var est struct {
			Workers []struct {
				ID string `json:"id"`
			} `json:"workers"`
		}
		if err := json.Unmarshal(ts.Estimator, &est); err != nil {
			t.Fatal(err)
		}
		if len(est.Workers) != w {
			t.Errorf("tenant %s's estimator holds %d workers, want its own %d", ts.Tenant, len(est.Workers), w)
		}
		for _, ws := range est.Workers {
			if ws.ID[:1] != ts.Tenant {
				t.Errorf("tenant %s's estimator holds worker %s, who never bid for it", ts.Tenant, ws.ID)
			}
		}
	}
}

// joinSnapshotAt is the number of steps after which
// testdata/join_season_v2.json was taken: the end of round 6, with every
// tenant started, no run open, and late registered but not yet bidding.
const joinSnapshotAt = 18

// TestOlderWriterFilesRecover boots the join season from files written by the
// implementation in which every finish observed every registered worker:
//
//   - testdata/join_season.wal, the whole season on the single-file log,
//     replays with every logged em member matching, to the live season's
//     outcomes and estimates;
//   - testdata/join_season_v2.json, a version-2 snapshot taken after
//     joinSnapshotAt steps, restores with every worker it lists tracked by
//     every tenant it lists, and the rest of the season then runs as it
//     does live.
func TestOlderWriterFilesRecover(t *testing.T) {
	ops := joinScript()
	live := &joinRecorder{t: t}
	s := newJoinScheduler(t)
	live.drive(s, ops, 0, nil)

	t.Run("wal", func(t *testing.T) {
		replayed := newJoinScheduler(t)
		if err := eventlog.ReplayScheduler(filepath.Join("testdata", "join_season.wal"), replayed); err != nil {
			t.Fatal(err)
		}
		var got, want []string
		for _, op := range ops {
			if op.tenant == "" {
				continue
			}
			for _, sc := range []*melody.RunScheduler{replayed, s} {
				info, err := sc.Run(op.run)
				if err != nil {
					t.Fatal(err)
				}
				body, _ := json.Marshal(info.Outcome)
				if sc == s {
					want = append(want, string(body))
				} else {
					got = append(got, string(body))
				}
			}
		}
		if !slices.Equal(got, want) {
			t.Error("replayed outcomes differ from the live season's")
		}
		jr := &joinRecorder{t: t, workers: live.workers, tenants: live.tenants}
		if got, want := jr.estimates(replayed), jr.estimates(s); !slices.Equal(got, want) {
			t.Errorf("replayed estimates differ from the live season's:\n got %v\nwant %v", got, want)
		}
	})
	t.Run("snapshot-v2", func(t *testing.T) {
		data, err := os.ReadFile(filepath.Join("testdata", "join_season_v2.json"))
		if err != nil {
			t.Fatal(err)
		}
		var snap melody.SchedulerSnapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatal(err)
		}
		if snap.Version != 2 {
			t.Fatalf("fixture has version %d, want 2", snap.Version)
		}
		restored := newJoinScheduler(t)
		if err := restored.RestoreSnapshot(&snap); err != nil {
			t.Fatal(err)
		}
		now, err := restored.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		everyone := slices.Clone(snap.Workers)
		slices.Sort(everyone)
		for _, ts := range now.Tenants {
			if !slices.Equal(ts.Tracked, everyone) {
				t.Errorf("tenant %s tracks %v after a version-2 restore, want every listed worker %v", ts.Tenant, ts.Tracked, everyone)
			}
		}
		// Replay the prefix to learn the registration and tenant order the
		// recorder reports in, then drive the rest on the restored state.
		jr := &joinRecorder{t: t}
		jr.drive(newJoinScheduler(t), ops[:joinSnapshotAt], 0, nil)
		prefix := len(jr.lines)
		jr.drive(restored, ops, joinSnapshotAt, nil)
		if !slices.Equal(jr.lines[prefix:], live.lines[prefix:]) {
			t.Error("the season after a version-2 restore differs from the live season")
		}
	})
}

// TestQualityReadsRaceJoins polls Quality and Forecast of every worker,
// tracked or not, while a tenant's closes add a joining worker each run
// and its finishes advance the tracked ones. Run it under -race.
func TestQualityReadsRaceJoins(t *testing.T) {
	ctx := context.Background()
	s := newJoinScheduler(t)
	ids := make([]string, 12)
	for i := range ids {
		ids[i] = fmt.Sprintf("w%02d", i)
		if err := s.RegisterWorker(ctx, ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	jr := &joinRecorder{t: t}
	jr.runOp(s, joinOp{tenant: "a", run: "a-r1", bidders: ids[:2]}, nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, id := range ids {
				if _, err := s.Quality("a", id); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Forecast("a", id, 2); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for r := 2; r <= len(ids); r++ {
		jr.runOp(s, joinOp{tenant: "a", run: fmt.Sprintf("a-r%d", r), bidders: ids[:r]}, nil)
	}
	close(stop)
	wg.Wait()
}
