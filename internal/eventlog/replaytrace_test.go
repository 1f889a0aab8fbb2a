package eventlog

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"melody"
	"melody/internal/obs"
)

// TestReplayRecordsNoSpans boots a two-tenant history on a scheduler and a
// log sharing one tracer: replay records no auction or finish span, so the
// trace ring holds none of the history's runs before the first live
// request, and a live run then records its spans as before.
func TestReplayRecordsNoSpans(t *testing.T) {
	path := filepath.Join(t.TempDir(), "season.wal")
	ps, log, err := OpenPersistentScheduler(path, newEMScheduler(t, 10, nil), Options{})
	if err != nil {
		t.Fatal(err)
	}
	driveEMSeason(t, ps)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	tr := obs.NewTracer(4096)
	s := newEMScheduler(t, 10, nil)
	traced, err := melody.NewRunScheduler(melody.SchedulerConfig{
		Auction: melody.AuctionConfig{QualityMin: 1, QualityMax: 10, CostMin: 1, CostMax: 2},
		NewEstimator: func(string) (melody.Estimator, error) {
			return melody.NewQualityTracker(melody.QualityTrackerConfig{
				InitialMean: 5.5, InitialVar: 2.25,
				Params:   melody.QualityParams{A: 1, Gamma: 0.3, Eta: 9},
				EMPeriod: 10, EMWindow: 50,
			})
		},
		Ledger:     s.Ledger(),
		EpochEvery: 4,
		Tracer:     tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	ps, log, err = OpenPersistentScheduler(path, traced, Options{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if got := traced.CompletedRuns(); got != 50 {
		t.Fatalf("boot replayed %d runs, want 50", got)
	}
	count := func() map[string]int {
		n := map[string]int{}
		for _, sp := range tr.Spans() {
			n[sp.Name]++
		}
		return n
	}
	for _, name := range []string{"auction.run", "auction.incremental", "run.finish", "em.reestimate"} {
		if n := count()[name]; n != 0 {
			t.Errorf("the boot recorded %d %s spans, want none", n, name)
		}
	}

	ctx := context.Background()
	if err := ps.OpenRun(ctx, "a-live", "a", []melody.Task{{ID: "live-t1", Threshold: 10}}, 100); err != nil {
		t.Fatal(err)
	}
	if err := ps.SubmitBid(ctx, "a-live", "a-w0", melody.Bid{Cost: 1, Frequency: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := ps.CloseAuction(ctx, "a-live"); err != nil {
		t.Fatal(err)
	}
	if err := ps.FinishRun(ctx, "a-live"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"auction.run", "run.finish"} {
		if n := count()[name]; n != 1 {
			t.Errorf("the live run recorded %d %s spans, want 1", n, name)
		}
	}
}

// TestStaleSnapshotSkipped: a snapshot the installed one already covers,
// as the older of two quiescent finishes whose durable waits complete out
// of order captures, is skipped without changing SnapshotErr or the
// installed snapshot.
func TestStaleSnapshotSkipped(t *testing.T) {
	dir := t.TempDir()
	ps, seg, err := OpenSegmentedScheduler(dir, newEMScheduler(t, 10, nil), SegmentedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	driveEMSeason(t, ps)
	ps.mu.Lock()
	snap := ps.snapshotLocked()
	ps.mu.Unlock()
	if snap == nil {
		t.Fatal("no snapshot to take")
	}
	n := seg.Seq()
	ps.writeSnapshot(n, snap)
	if err := ps.SnapshotErr(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int64{0, 3} {
		ps.writeSnapshot(n-k, snap)
		if err := ps.SnapshotErr(); err != nil {
			t.Errorf("writing the snapshot at seq %d after the one at %d: SnapshotErr = %v, want nil", n-k, n, err)
		}
		if got := seg.SnapshotSeq(); got != n {
			t.Errorf("installed snapshot covers seq %d, want %d", got, n)
		}
	}
	if err := seg.WriteSnapshot(n-1, len(snap.Runs), []byte("{}")); !errors.Is(err, errStaleSnapshot) {
		t.Errorf("WriteSnapshot of a covered seq: %v, want errStaleSnapshot", err)
	}
}
