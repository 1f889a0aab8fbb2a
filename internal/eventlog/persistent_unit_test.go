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
	pp, wal, err := OpenPersistent(path, newPlatform(t))
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	if pp.Run() != 0 || len(pp.Workers()) != 0 {
		t.Errorf("fresh boot has state: run=%d workers=%v", pp.Run(), pp.Workers())
	}
}

func TestPersistentPlatformFullCycle(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "cycle.wal")
	pp, wal, err := OpenPersistent(path, newPlatform(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c"} {
		if err := pp.RegisterWorker(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if err := pp.OpenRun(ctx, []melody.Task{{ID: "t", Threshold: 10}}, 40); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c"} {
		if err := pp.SubmitBid(ctx, id, melody.Bid{Cost: 1.3, Frequency: 1}); err != nil {
			t.Fatal(err)
		}
	}
	out, err := pp.CloseAuction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range out.Assignments {
		if err := pp.SubmitScore(ctx, a.WorkerID, a.TaskID, 7); err != nil {
			t.Fatal(err)
		}
	}
	if err := pp.FinishRun(ctx); err != nil {
		t.Fatal(err)
	}
	if pp.Run() != 1 {
		t.Errorf("Run = %d, want 1", pp.Run())
	}
	if len(pp.Workers()) != 3 {
		t.Errorf("Workers = %v", pp.Workers())
	}
	q, err := pp.Quality(out.Assignments[0].WorkerID)
	if err != nil {
		t.Fatal(err)
	}
	if q <= 5.5 {
		t.Errorf("quality %v did not rise after scoring", q)
	}
	f, err := pp.Forecast(out.Assignments[0].WorkerID, 2)
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
	pp2, wal2, err := OpenPersistent(path, newPlatform(t))
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if pp2.Run() != 1 || len(pp2.Workers()) != 3 {
		t.Errorf("rebooted state: run=%d workers=%v", pp2.Run(), pp2.Workers())
	}
	q2, err := pp2.Quality(out.Assignments[0].WorkerID)
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
	if _, _, err := OpenPersistent(path, newPlatform(t)); err == nil {
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
	p := newPlatform(t)
	rec, err := NewPersistentPlatform(p, log)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Platform() != p {
		t.Error("Platform() returned a different instance")
	}
}
