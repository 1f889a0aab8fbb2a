package eventlog

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"melody"
	"melody/internal/chunk"
	"melody/internal/chunk/chunktest"
	"melody/internal/obs"
)

// newMeteredScheduler is newSchedulerForLog with direct payouts, reporting
// on reg.
func newMeteredScheduler(t testing.TB, reg *obs.Registry) *melody.RunScheduler {
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
				EMPeriod: 10, EMWindow: 50,
			})
		},
		Ledger:  money,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// requireSpilledArchive fails unless the archive's first chunk has closed
// and every spill so far was written: the first finished runs are then
// read back from the spill.
func requireSpilledArchive(t *testing.T, reg *obs.Registry) {
	t.Helper()
	archive := reg.Gauge(obs.MetricRunArchiveBytes, "").Value()
	spilled := reg.Gauge(obs.MetricSpillBytes, "").Value()
	failed := reg.Counter(obs.MetricSpillWriteErrorsTotal, "").Value()
	if archive <= chunk.Full || spilled <= 0 || failed != 0 {
		t.Fatalf("archive %v bytes, %v spilled, %d failed spills; the test wants the first archive chunk spilled",
			archive, spilled, failed)
	}
}

// TestSpillFileIsUnlinked: both durable openers give the scheduler a
// scratch file in the WAL's directory and unlink it at once, so the
// directory holds only the engine's own files while the scheduler spills.
func TestSpillFileIsUnlinked(t *testing.T) {
	for _, segmented := range []bool{false, true} {
		dir := t.TempDir()
		reg := obs.NewRegistry()
		s := newMeteredScheduler(t, reg)
		var ps *PersistentScheduler
		var closer func() error
		if segmented {
			p, seg, err := OpenSegmentedScheduler(filepath.Join(dir, "wal"), s, SegmentedOptions{})
			if err != nil {
				t.Fatal(err)
			}
			ps, closer, dir = p, seg.Close, filepath.Join(dir, "wal")
		} else {
			p, log, err := OpenPersistentScheduler(filepath.Join(dir, "w.wal"), s, Options{})
			if err != nil {
				t.Fatal(err)
			}
			ps, closer = p, log.Close
		}
		driveLifecycleSeason(t, ps, 250)
		requireSpilledArchive(t, reg)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if filepath.Ext(e.Name()) == ".tmp" {
				t.Errorf("segmented %v: %s is in the WAL directory", segmented, e.Name())
			}
		}
		if err := closer(); err != nil {
			t.Fatal(err)
		}
		// The file outlives the WAL: reads of spilled runs still work.
		if info, err := ps.Run("t0-r000001"); err != nil || !info.Finished {
			t.Errorf("segmented %v: Run of a spilled run after Close = %+v, %v", segmented, info, err)
		}
	}
}

// TestSpillReadFailureFailsOnlyItsRequest: when spilled chunks cannot be
// read back, each request that needs one fails (here, panics as it would
// into net/http's recovery), and no lock stays held: a run opened
// afterwards goes through its whole life, and once reads work again the
// failed requests succeed. On the segmented engine the snapshot a finish
// takes reads the spill too.
func TestSpillReadFailureFailsOnlyItsRequest(t *testing.T) {
	ctx := context.Background()
	for _, segmented := range []bool{false, true} {
		// A season on a first boot, and a second boot that replays it into
		// a scheduler spilling to f, snapshotting at every finish on the
		// segmented engine.
		dir := t.TempDir()
		boot := func(s *melody.RunScheduler, snapEvery int) (*PersistentScheduler, func() error) {
			if segmented {
				ps, seg, err := OpenSegmentedScheduler(dir, s, SegmentedOptions{SnapshotEvery: snapEvery})
				if err != nil {
					t.Fatal(err)
				}
				return ps, seg.Close
			}
			ps, log, err := OpenPersistentScheduler(filepath.Join(dir, "w.wal"), s, Options{})
			if err != nil {
				t.Fatal(err)
			}
			return ps, log.Close
		}
		ps, stop := boot(newMeteredScheduler(t, nil), 0)
		driveLifecycleSeason(t, ps, 250)
		if err := stop(); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		s := newMeteredScheduler(t, reg)
		var f chunktest.File
		// The opener's own spill file is ignored: a scheduler spills to the
		// first file it is given.
		s.SpillTo(&f)
		ps, stop = boot(s, 1)
		defer stop()
		requireSpilledArchive(t, reg)
		if f.Len() == 0 {
			t.Fatal("the scheduler spilled to the opener's file, not the first one it was given")
		}

		const id = "t0-r000001"
		tasks := []melody.Task{{ID: id + "-k0", Threshold: 6}, {ID: id + "-k1", Threshold: 6}}
		f.FailReads.Store(true)
		for what, req := range map[string]func(){
			"open":    func() { _ = ps.OpenRun(ctx, id, "t0", tasks, 40) },
			"close":   func() { _, _ = ps.CloseAuction(ctx, id) },
			"finish":  func() { _ = ps.FinishRun(ctx, id) },
			"bid":     func() { _ = ps.SubmitBid(ctx, id, "t0-w0000", melody.Bid{Cost: 1, Frequency: 1}) },
			"run":     func() { _, _ = ps.Run(id) },
			"entries": func() { _ = s.Ledger().Entries() },
		} {
			if err := readPanic(req); err == nil {
				t.Errorf("segmented %v: %s of a spilled run with failing reads did not fail", segmented, what)
			}
		}
		// A new run's whole life needs no spilled chunk, except the
		// segmented engine's snapshot at its finish, which fails the
		// finish after it is logged.
		run := fmt.Sprintf("t0-r%06d", 900)
		life := make(chan error, 1)
		go func() {
			if err := ps.OpenRun(ctx, run, "t0", []melody.Task{{ID: run + "-k0", Threshold: 6}}, 40); err != nil {
				life <- fmt.Errorf("open: %w", err)
			} else if err := ps.SubmitBid(ctx, run, "t0-w0000", melody.Bid{Cost: 1.1, Frequency: 1}); err != nil {
				life <- fmt.Errorf("bid: %w", err)
			} else if _, err := ps.CloseAuction(ctx, run); err != nil {
				life <- fmt.Errorf("close: %w", err)
			}
			close(life)
		}()
		select {
		case err := <-life:
			if err != nil {
				t.Fatalf("segmented %v: %v after failed reads", segmented, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("segmented %v: a new run is blocked 10 s after failed reads: a lock stayed held", segmented)
		}
		finish := readPanic(func() {
			if err := ps.FinishRun(ctx, run); err != nil {
				t.Fatalf("segmented %v: finish after failed reads: %v", segmented, err)
			}
		})
		if (finish != nil) != segmented {
			t.Errorf("segmented %v: finish after failed reads panicked with %v", segmented, finish)
		}
		f.FailReads.Store(false)
		if err := ps.FinishRun(ctx, run); err != nil {
			t.Errorf("segmented %v: retried finish: %v", segmented, err)
		}
		if info, err := ps.Run(id); err != nil || !info.Finished || info.Outcome == nil {
			t.Errorf("segmented %v: Run(%s) once reads work = %+v, %v", segmented, id, info, err)
		}
		if err := ps.OpenRun(ctx, id, "t0", tasks, 40); err != nil {
			t.Errorf("segmented %v: retried open once reads work: %v", segmented, err)
		}
	}
}

// readPanic runs req and returns the *chunk.ReadError it panicked with,
// or nil.
func readPanic(req func()) (err error) {
	defer func() {
		if v := recover(); v != nil {
			var re *chunk.ReadError
			if e, ok := v.(error); !ok || !errors.As(e, &re) {
				panic(v)
			}
			err = re
		}
	}()
	req()
	return nil
}
