package melody_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"melody"
	"melody/internal/obs"
)

func snapshotScheduler(t *testing.T) (*melody.RunScheduler, *melody.Ledger) {
	t.Helper()
	ledger := melody.NewLedger()
	if _, err := ledger.Deposit(melody.RequesterAccount, 1000, "season funding"); err != nil {
		t.Fatal(err)
	}
	s, err := melody.NewRunScheduler(melody.SchedulerConfig{
		Auction: melody.AuctionConfig{QualityMin: 1, QualityMax: 10, CostMin: 1, CostMax: 2},
		NewEstimator: func(string) (melody.Estimator, error) {
			return melody.NewQualityTracker(melody.QualityTrackerConfig{
				InitialMean: 5.5, InitialVar: 2.25,
				Params:   melody.QualityParams{A: 1, Gamma: 0.3, Eta: 4},
				EMPeriod: 3, EMWindow: 20,
			})
		},
		Ledger:     ledger,
		EpochEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, ledger
}

// driveSeason runs `runs` rounds in which every tenant opens, bids, closes,
// scores and finishes one run; run IDs continue from the scheduler's
// completed-run count, so a season can resume after a restore.
func driveSeason(t *testing.T, s *melody.RunScheduler, runs int, tenants ...string) {
	t.Helper()
	ctx := context.Background()
	workers := []string{"ada", "bob", "cyd"}
	for _, id := range workers {
		if err := s.RegisterWorker(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	latent := map[string]float64{"ada": 8, "bob": 6, "cyd": 4}
	for run := 1; run <= runs; run++ {
		for _, tenant := range tenants {
			id := fmt.Sprintf("%s-%d", tenant, s.CompletedRuns()+1)
			tasks := []melody.Task{{ID: id + "-a", Threshold: 11}, {ID: id + "-b", Threshold: 11}}
			if err := s.OpenRun(ctx, id, tenant, tasks, 30); err != nil {
				t.Fatal(err)
			}
			for i, w := range workers {
				if err := s.SubmitBid(ctx, id, w, melody.Bid{Cost: 1.0 + 0.2*float64(i), Frequency: 2}); err != nil {
					t.Fatal(err)
				}
			}
			out, err := s.CloseAuction(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range out.Assignments {
				if err := s.SubmitScore(ctx, id, a.WorkerID, a.TaskID, latent[a.WorkerID]+0.1*float64(run%3)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.FinishRun(ctx, id); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// encodeSnapshot renders a scheduler's snapshot the way the storage engine
// stores it.
func encodeSnapshot(t *testing.T, s *melody.RunScheduler) []byte {
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

// TestSchedulerSnapshotRoundTrip is the heart of the storage engine's
// snapshot feature: export a two-tenant scheduler mid-epoch, restore it
// into a fresh one, and demand bit-identical state — the re-exported
// snapshot, exact quality floats, exact ledger balances — plus identical
// behavior on the next runs, including the epoch payout the restored
// settler completes.
func TestSchedulerSnapshotRoundTrip(t *testing.T) {
	s, ledger := snapshotScheduler(t)
	driveSeason(t, s, 3, "acme", "zeta")
	if s.Settler().Epochs() != 1 || s.Settler().Pending() == 0 {
		t.Fatalf("season is not mid-epoch: %d epochs, %v pending", s.Settler().Epochs(), s.Settler().Pending())
	}

	// The snapshot crosses the storage engine as JSON; round-trip it the
	// same way so the test covers the real encoding path (float64 survives
	// JSON exactly via shortest-representation encoding).
	raw := encodeSnapshot(t, s)
	var decoded melody.SchedulerSnapshot
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	restored, restoredLedger := snapshotScheduler(t)
	if err := restored.RestoreSnapshot(&decoded); err != nil {
		t.Fatal(err)
	}
	if again := encodeSnapshot(t, restored); !bytes.Equal(again, raw) {
		t.Fatalf("restored snapshot differs:\n got %s\nwant %s", again, raw)
	}
	for _, tenant := range []string{"acme", "zeta"} {
		for _, id := range s.Workers() {
			lq, err := s.Quality(tenant, id)
			if err != nil {
				t.Fatal(err)
			}
			rq, err := restored.Quality(tenant, id)
			if err != nil {
				t.Fatal(err)
			}
			if lq != rq {
				t.Errorf("%s/%s: restored quality %v != live %v", tenant, id, rq, lq)
			}
		}
	}
	info, err := restored.Run("acme-5")
	if err != nil || !info.Finished || info.Num != 5 || info.Outcome == nil {
		t.Errorf("restored run acme-5 = %+v, %v; want finished run 5 with its outcome", info, err)
	}

	// Behavioral equivalence: the next runs produce the same state on both
	// schedulers (same auction inputs, same posteriors, same settler).
	driveSeason(t, s, 2, "acme", "zeta")
	driveSeason(t, restored, 2, "acme", "zeta")
	if a, b := encodeSnapshot(t, s), encodeSnapshot(t, restored); !bytes.Equal(a, b) {
		t.Errorf("post-restore runs diverged:\n got %s\nwant %s", b, a)
	}
	for _, acc := range ledger.Accounts() {
		if got := restoredLedger.Balance(acc.Account); got != acc.Balance {
			t.Errorf("account %s: restored balance %v != live %v", acc.Account, got, acc.Balance)
		}
	}
}

func TestSnapshotStateRejectsMidRun(t *testing.T) {
	s, _ := snapshotScheduler(t)
	ctx := context.Background()
	if err := s.RegisterWorker(ctx, "ada"); err != nil {
		t.Fatal(err)
	}
	if err := s.OpenRun(ctx, "r1", "", []melody.Task{{ID: "t", Threshold: 5}}, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SnapshotState(); !errors.Is(err, melody.ErrSnapshotMidRun) {
		t.Errorf("mid-run snapshot err = %v, want ErrSnapshotMidRun", err)
	}
}

func TestRestoreSnapshotRequiresFreshPlatform(t *testing.T) {
	s, _ := snapshotScheduler(t)
	driveSeason(t, s, 1, "acme")
	snap, err := s.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	used, _ := snapshotScheduler(t)
	driveSeason(t, used, 1, "acme")
	if err := used.RestoreSnapshot(snap); err == nil {
		t.Error("restore into a used scheduler accepted")
	}
	fresh, _ := snapshotScheduler(t)
	wrong := *snap
	wrong.Version = 99
	if err := fresh.RestoreSnapshot(&wrong); err == nil {
		t.Error("restore of unknown snapshot version accepted")
	}
	// A payload the retired single-run platform wrote is version 1.
	var old melody.SchedulerSnapshot
	if err := json.Unmarshal([]byte(`{"version":1,"completed_runs":3,"workers":["ada"]}`), &old); err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreSnapshot(&old); err == nil {
		t.Error("restore of a single-run platform snapshot accepted")
	}
}

// TestLedgerGauges: the scheduler reports the ledger journal's entries and
// bytes after every finish and after a snapshot restore.
func TestLedgerGauges(t *testing.T) {
	gauged := func() (*melody.RunScheduler, *melody.Ledger, *obs.Registry) {
		reg := obs.NewRegistry()
		ledger := melody.NewLedger()
		if _, err := ledger.Deposit(melody.RequesterAccount, 1000, "season funding"); err != nil {
			t.Fatal(err)
		}
		s, err := melody.NewRunScheduler(melody.SchedulerConfig{
			Auction: melody.AuctionConfig{QualityMin: 1, QualityMax: 10, CostMin: 1, CostMax: 2},
			NewEstimator: func(string) (melody.Estimator, error) {
				return melody.NewQualityTracker(melody.QualityTrackerConfig{
					InitialMean: 5.5, InitialVar: 2.25, Params: melody.QualityParams{A: 1, Gamma: 0.3, Eta: 4},
				})
			},
			Ledger:     ledger,
			EpochEvery: 2,
			Metrics:    reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s, ledger, reg
	}
	check := func(what string, ledger *melody.Ledger, reg *obs.Registry) {
		t.Helper()
		entries, bytes := ledger.JournalSize()
		got := [2]float64{reg.Gauge(obs.MetricLedgerEntries, "").Value(), reg.Gauge(obs.MetricLedgerJournalBytes, "").Value()}
		if entries < 2 || got != [2]float64{float64(entries), float64(bytes)} {
			t.Errorf("%s: gauges read %v, the journal holds %d entries in %d bytes", what, got, entries, bytes)
		}
	}
	s, ledger, reg := gauged()
	driveSeason(t, s, 1, "acme")
	check("after a finish", ledger, reg)
	driveSeason(t, s, 2, "acme", "zeta")
	check("after an epoch", ledger, reg)

	snap, err := s.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	restored, restoredLedger, restoredReg := gauged()
	if err := restored.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	check("after a restore", restoredLedger, restoredReg)
}
