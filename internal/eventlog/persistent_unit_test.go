package eventlog

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"melody"
)

func TestOpenPersistentFreshBoot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fresh.wal")
	ps, wal, err := OpenPersistentScheduler(path, newScheduler(t), Options{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	if ps.CompletedRuns() != 0 || len(ps.Workers()) != 0 {
		t.Errorf("fresh boot has state: runs=%d workers=%v", ps.CompletedRuns(), ps.Workers())
	}
}

func TestPersistentSchedulerFullCycle(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "cycle.wal")
	ps, wal, err := OpenPersistentScheduler(path, newScheduler(t), Options{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c"} {
		if err := ps.RegisterWorker(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if err := ps.OpenRun(ctx, "r1", "", []melody.Task{{ID: "t", Threshold: 10}}, 40); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c"} {
		if err := ps.SubmitBid(ctx, "r1", id, melody.Bid{Cost: 1.3, Frequency: 1}); err != nil {
			t.Fatal(err)
		}
	}
	out, err := ps.CloseAuction(ctx, "r1")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range out.Assignments {
		if err := ps.SubmitScore(ctx, "r1", a.WorkerID, a.TaskID, 7); err != nil {
			t.Fatal(err)
		}
	}
	if err := ps.FinishRun(ctx, "r1"); err != nil {
		t.Fatal(err)
	}
	if ps.CompletedRuns() != 1 {
		t.Errorf("CompletedRuns = %d, want 1", ps.CompletedRuns())
	}
	if len(ps.Workers()) != 3 {
		t.Errorf("Workers = %v", ps.Workers())
	}
	q, err := ps.Quality("", out.Assignments[0].WorkerID)
	if err != nil {
		t.Fatal(err)
	}
	if q <= 5.5 {
		t.Errorf("quality %v did not rise after scoring", q)
	}
	f, err := ps.Forecast("", out.Assignments[0].WorkerID, 2)
	if err != nil {
		t.Fatal(err)
	}
	if f.Steps != 2 || f.Var <= 0 {
		t.Errorf("forecast = %+v", f)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	// Reboot and verify the state round-trips.
	ps2, wal2, err := OpenPersistentScheduler(path, newScheduler(t), Options{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if ps2.CompletedRuns() != 1 || len(ps2.Workers()) != 3 {
		t.Errorf("rebooted state: runs=%d workers=%v", ps2.CompletedRuns(), ps2.Workers())
	}
	q2, err := ps2.Quality("", out.Assignments[0].WorkerID)
	if err != nil {
		t.Fatal(err)
	}
	if q2 != q {
		t.Errorf("rebooted quality %v != original %v", q2, q)
	}
}

func TestOpenPersistentRejectsCorruptLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.wal")
	content := "NOT JSON AT ALL\n" + `{"seq":2,"kind":"register","worker":"w"}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenPersistentScheduler(path, newScheduler(t), Options{SyncEveryAppend: true}); err == nil {
		t.Error("corrupt log accepted")
	}
}

func TestRecorderPlatformAccessor(t *testing.T) {
	path := filepath.Join(t.TempDir(), "acc.wal")
	log, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	s := newScheduler(t)
	ps, err := NewPersistentScheduler(s, log)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Scheduler() != s {
		t.Error("Scheduler() returned a different instance")
	}
}
