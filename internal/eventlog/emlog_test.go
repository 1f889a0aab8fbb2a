package eventlog

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"melody"
	"melody/internal/obs"
	"melody/internal/quality"
)

// newEMScheduler builds a two-tenant-ready scheduler whose trackers re-run
// EM every emPeriod runs over a 50-run window, counting EMs in reg.
func newEMScheduler(t testing.TB, emPeriod int, reg *obs.Registry) *melody.RunScheduler {
	t.Helper()
	money := melody.NewLedger()
	if _, err := money.Deposit(melody.RequesterAccount, 1e6, "test funding"); err != nil {
		t.Fatal(err)
	}
	s, err := melody.NewRunScheduler(melody.SchedulerConfig{
		Auction: melody.AuctionConfig{QualityMin: 1, QualityMax: 10, CostMin: 1, CostMax: 2},
		NewEstimator: func(string) (melody.Estimator, error) {
			return melody.NewQualityTracker(melody.QualityTrackerConfig{
				InitialMean: 5.5, InitialVar: 2.25,
				Params:   melody.QualityParams{A: 1, Gamma: 0.3, Eta: 9},
				EMPeriod: emPeriod, EMWindow: 50,
				Metrics: reg,
			})
		},
		Ledger:     money,
		EpochEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// driveEMSeason runs a season of two tenants taking turns, 25 runs each,
// through be. Each tenant's six workers bid every run and score by worker
// and run, so every scored worker's EM falls due every 10 of its tenant's
// runs.
func driveEMSeason(t testing.TB, be interface {
	RegisterWorker(context.Context, string) error
	OpenRun(context.Context, string, string, []melody.Task, float64) error
	SubmitBids(context.Context, string, []melody.WorkerBid) melody.BatchResult
	CloseAuction(context.Context, string) (*melody.Outcome, error)
	SubmitScores(context.Context, string, []melody.TaskScore) melody.BatchResult
	FinishRun(context.Context, string) error
}) {
	t.Helper()
	ctx := context.Background()
	tenants := []string{"a", "b"}
	for _, tenant := range tenants {
		for i := 0; i < 6; i++ {
			if err := be.RegisterWorker(ctx, fmt.Sprintf("%s-w%d", tenant, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for r := 1; r <= 25; r++ {
		for _, tenant := range tenants {
			run := fmt.Sprintf("%s-r%02d", tenant, r)
			tasks := []melody.Task{{ID: run + "-t1", Threshold: 10}, {ID: run + "-t2", Threshold: 10}}
			if err := be.OpenRun(ctx, run, tenant, tasks, 100); err != nil {
				t.Fatal(err)
			}
			bids := make([]melody.WorkerBid, 6)
			for i := range bids {
				bids[i] = melody.WorkerBid{WorkerID: fmt.Sprintf("%s-w%d", tenant, i),
					Bid: melody.Bid{Cost: 1 + 0.1*float64(i), Frequency: 2}}
			}
			if res := be.SubmitBids(ctx, run, bids); res.Err() != nil {
				t.Fatal(res.Err())
			}
			out, err := be.CloseAuction(ctx, run)
			if err != nil {
				t.Fatal(err)
			}
			scores := make([]melody.TaskScore, len(out.Assignments))
			for k, a := range out.Assignments {
				scores[k] = melody.TaskScore{WorkerID: a.WorkerID, TaskID: a.TaskID,
					Score: 3 + float64((len(a.WorkerID)*7+r*5+k*3)%13)/2}
			}
			if res := be.SubmitScores(ctx, run, scores); res.Err() != nil {
				t.Fatal(res.Err())
			}
			if err := be.FinishRun(ctx, run); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// schedulerState encodes a scheduler's full state for comparison.
func schedulerState(t testing.TB, s *melody.RunScheduler) []byte {
	t.Helper()
	snap, err := s.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// emRuns reads melody_em_runs_total from reg.
func emRuns(reg *obs.Registry) int64 {
	return reg.Counter(obs.MetricEMRunsTotal, "").Value()
}

// writeEvents writes events as records without a CRC, the form a log
// written before checksumming has.
func writeEvents(t testing.TB, path string, events []Event) {
	t.Helper()
	var buf []byte
	for _, e := range events {
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(append(buf, line...), '\n')
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryInstallsLoggedEM writes a two-tenant season with T = 10
// through the persistent scheduler and recovers it four ways:
//
//   - as written: the state equals the live one and the boot computes no
//     EM, because every finish that re-estimated logged its theta;
//   - with every em member stripped (and so every CRC, which the member is
//     under): replay recomputes the EMs and reaches the live state again,
//     as it does for a log written before finishes logged their theta;
//   - with one theta removed from a finish: recovery fails, naming the
//     record's seq and the worker that differs;
//   - with another EM period: recovery fails on the first finish whose due
//     workers differ from the logged ones.
func TestRecoveryInstallsLoggedEM(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "season.wal")
	liveReg := obs.NewRegistry()
	live := newEMScheduler(t, 10, liveReg)
	ps, log, err := OpenPersistentScheduler(path, live, Options{})
	if err != nil {
		t.Fatal(err)
	}
	driveEMSeason(t, ps)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	want := schedulerState(t, live)
	liveEMs := emRuns(liveReg)

	events, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	logged, first := 0, -1
	for i, e := range events {
		if e.EM != nil {
			logged += len(e.EM.Workers)
			if first < 0 && len(e.EM.Workers) > 1 {
				first = i
			}
		}
	}
	if liveEMs == 0 || int64(logged) != liveEMs || first < 0 {
		t.Fatalf("the season ran %d EMs and logged %d re-estimations (first multi-worker finish %d); want them equal and nonzero", liveEMs, logged, first)
	}

	recover := func(t *testing.T, path string, emPeriod int) ([]byte, int64, error) {
		reg := obs.NewRegistry()
		s := newEMScheduler(t, emPeriod, reg)
		_, log, err := OpenPersistentScheduler(path, s, Options{})
		if err != nil {
			return nil, 0, err
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		return schedulerState(t, s), emRuns(reg), nil
	}

	t.Run("as written", func(t *testing.T) {
		got, ems, err := recover(t, path, 10)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatal("recovered state differs from the live state")
		}
		if ems != 0 {
			t.Fatalf("recovery computed %d EMs, want 0: every finish logged its theta", ems)
		}
		// The full-replay oracle takes the same path.
		reg := obs.NewRegistry()
		s := newEMScheduler(t, 10, reg)
		if err := ReplayScheduler(path, s); err != nil {
			t.Fatal(err)
		}
		if string(schedulerState(t, s)) != string(want) || emRuns(reg) != 0 {
			t.Fatalf("ReplayScheduler: state equal %v, %d EMs computed", string(schedulerState(t, s)) == string(want), emRuns(reg))
		}
	})

	t.Run("members stripped", func(t *testing.T) {
		stripped := make([]Event, len(events))
		for i, e := range events {
			e.EM = nil
			stripped[i] = e
		}
		p := filepath.Join(t.TempDir(), "stripped.wal")
		writeEvents(t, p, stripped)
		got, ems, err := recover(t, p, 10)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatal("state recovered with EM recomputed differs from the live state")
		}
		if ems != liveEMs {
			t.Fatalf("recovery computed %d EMs, want the live %d", ems, liveEMs)
		}
	})

	t.Run("theta removed", func(t *testing.T) {
		cut := make([]Event, len(events))
		copy(cut, events)
		e := cut[first]
		n := len(e.EM.Workers) - 1
		dropped := e.EM.Workers[n]
		e.EM = &EMRecord{Workers: e.EM.Workers[:n], Params: e.EM.Params[:n]}
		cut[first] = e
		p := filepath.Join(t.TempDir(), "cut.wal")
		writeEvents(t, p, cut)
		_, _, err := recover(t, p, 10)
		if !errors.Is(err, quality.ErrReestimationMismatch) {
			t.Fatalf("recovery with a theta removed = %v, want ErrReestimationMismatch", err)
		}
		for _, s := range []string{fmt.Sprintf("replay seq %d ", e.Seq), dropped} {
			if !strings.Contains(err.Error(), s) {
				t.Errorf("error %q does not name %q", err, s)
			}
		}
	})

	t.Run("period changed", func(t *testing.T) {
		_, _, err := recover(t, path, 20)
		if !errors.Is(err, quality.ErrReestimationMismatch) {
			t.Fatalf("recovery with EMPeriod 20 = %v, want ErrReestimationMismatch", err)
		}
	})
}

// TestSegmentedRecoveryInstallsLoggedEM: the segmented engine's recovery,
// from a snapshot plus its tail, also installs the logged theta, and its
// full-replay oracle agrees.
func TestSegmentedRecoveryInstallsLoggedEM(t *testing.T) {
	dir := t.TempDir()
	live := newEMScheduler(t, 10, nil)
	opts := SegmentedOptions{SegmentBytes: 16 << 10, SnapshotEvery: 200, DisableCompaction: true}
	ps, seg, err := OpenSegmentedScheduler(dir, live, opts)
	if err != nil {
		t.Fatal(err)
	}
	driveEMSeason(t, ps)
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ps.SnapshotErr(); err != nil {
		t.Fatal(err)
	}
	want := schedulerState(t, live)

	reg := obs.NewRegistry()
	s := newEMScheduler(t, 10, reg)
	_, seg, err = OpenSegmentedScheduler(dir, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	if string(schedulerState(t, s)) != string(want) || emRuns(reg) != 0 {
		t.Fatalf("snapshot plus tail: state equal %v, %d EMs computed", string(schedulerState(t, s)) == string(want), emRuns(reg))
	}
	reg = obs.NewRegistry()
	s = newEMScheduler(t, 10, reg)
	if err := ReplaySegments(dir, s); err != nil {
		t.Fatal(err)
	}
	if string(schedulerState(t, s)) != string(want) || emRuns(reg) != 0 {
		t.Fatalf("ReplaySegments: state equal %v, %d EMs computed", string(schedulerState(t, s)) == string(want), emRuns(reg))
	}
}

// gatedTarget is an in-memory commitTarget whose fsyncs wait while hold
// is locked.
type gatedTarget struct {
	countingTarget
	hold sync.Mutex
}

func (t *gatedTarget) Sync() error {
	t.hold.Lock()
	t.hold.Unlock()
	return t.countingTarget.Sync()
}

// TestRetriedCloseAndFinishAppendNothing: a retried close or finish is
// answered from the scheduler's state and appends no record, but, like a
// retried open, returns only once every record before it is durable.
func TestRetriedCloseAndFinishAppendNothing(t *testing.T) {
	ctx := context.Background()
	target := &gatedTarget{}
	log := newLog(target, 0, Options{SyncEveryAppend: true})
	defer log.Close()
	ps, err := NewPersistentScheduler(newEMScheduler(t, 10, nil), log)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := ps.RegisterWorker(ctx, fmt.Sprintf("w%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ps.OpenRun(ctx, "r1", "", []melody.Task{{ID: "t1", Threshold: 10}}, 100); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := ps.SubmitBid(ctx, "r1", fmt.Sprintf("w%d", i), melody.Bid{Cost: 1.5, Frequency: 1}); err != nil {
			t.Fatal(err)
		}
	}
	first, err := ps.CloseAuction(ctx, "r1")
	if err != nil {
		t.Fatal(err)
	}

	// retry holds the log's fsyncs while a registration waits on one, then
	// requires op to append nothing and to return only after the release.
	retry := func(name string, op func() error) {
		t.Helper()
		target.hold.Lock()
		before := log.Seq()
		registered := make(chan error, 1)
		go func() { registered <- ps.RegisterWorker(ctx, "late-"+name) }()
		for log.Seq() == before {
			time.Sleep(time.Millisecond) // until the registration is enqueued
		}
		before = log.Seq()
		done := make(chan error, 1)
		go func() { done <- op() }()
		select {
		case err := <-done:
			target.hold.Unlock()
			t.Fatalf("retried %s returned (%v) before the record before it was durable", name, err)
		case <-time.After(50 * time.Millisecond):
		}
		target.hold.Unlock()
		if err := <-done; err != nil {
			t.Fatalf("retried %s: %v", name, err)
		}
		if err := <-registered; err != nil {
			t.Fatal(err)
		}
		if got := log.Seq(); got != before {
			t.Fatalf("retried %s appended %d records", name, got-before)
		}
	}
	retry("close", func() error {
		out, err := ps.CloseAuction(ctx, "r1")
		if err == nil && out != first {
			err = errors.New("retried close returned another outcome")
		}
		return err
	})
	if err := ps.FinishRun(ctx, "r1"); err != nil {
		t.Fatal(err)
	}
	retry("finish", func() error { return ps.FinishRun(ctx, "r1") })
}

// TestLogDropsOversizedBuffers: a record larger than maxKeptBuffer (a
// finish that logs a 2,000-worker pool's theta) does not leave the log
// holding buffers of its size, on the buffered path or the group-commit
// one, and the scratch event keeps none of its slices reachable.
func TestLogDropsOversizedBuffers(t *testing.T) {
	em := &EMRecord{}
	for i := 0; i < 2000; i++ {
		em.Workers = append(em.Workers, fmt.Sprintf("t0-w%04d", i))
		em.Params = append(em.Params, [3]float64{1 + float64(i)/3e4, 1.7234567890123456e-05, 3.2101234567890123})
	}
	big := Event{Kind: KindFinish, Run: "r1", EM: em}
	for _, durable := range []bool{false, true} {
		log := newLog(&countingTarget{}, 0, Options{SyncEveryAppend: durable})
		for _, e := range []Event{big, {Kind: KindRegister, Worker: "w"}} {
			if _, err := log.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		caps := []int{log.encBuf.Cap(), log.pending.Cap()}
		if log.spare != nil {
			caps = append(caps, log.spare.Cap())
		}
		for _, c := range caps {
			if c > maxKeptBuffer {
				t.Errorf("durable=%v: the log keeps a %d-byte buffer after a large record", durable, c)
			}
		}
		if log.scratch.EM != nil || log.scratch.Kind != "" {
			t.Errorf("durable=%v: the scratch event still holds %+v", durable, log.scratch)
		}
	}
}
