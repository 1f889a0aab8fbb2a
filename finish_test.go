package melody_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"melody"
	"melody/internal/obs"
	"melody/internal/quality"
	"melody/internal/stats"
)

// observeOnly hides the tracker's quality.BatchObserver, so FinishRun
// takes the serial Observe loop; the snapshot capability stays visible.
type observeOnly struct {
	snapshotEstimator
}

type snapshotEstimator interface {
	melody.Estimator
	melody.EstimatorSnapshotter
}

// TestFinishRunBatchMatchesSerial pins FinishRun's two branches to each
// other: one seeded two-tenant season, long enough for every worker's EM
// to run several times, through a scheduler whose trackers take each run
// as a batch (the lane kernel) and through one whose trackers see only
// Observe. Workers join in three waves, so windows of unequal length fall
// due together. Every auction outcome, the ledger entries and the
// scheduler snapshot must be equal.
func TestFinishRunBatchMatchesSerial(t *testing.T) {
	if _, ok := melody.Estimator(observeOnly{}).(quality.BatchObserver); ok {
		t.Fatal("observeOnly leaks BatchObserver; the test is vacuous")
	}
	var outcomes [2][]*melody.Outcome
	var ledgers [2]*melody.Ledger
	var snaps [2][]byte
	var emRuns [2]int64
	for k, batch := range []bool{true, false} {
		ledger := melody.NewLedger()
		if _, err := ledger.Deposit(melody.RequesterAccount, 1e6, "season funding"); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		s, err := melody.NewRunScheduler(melody.SchedulerConfig{
			Auction: melody.AuctionConfig{QualityMin: 1, QualityMax: 10, CostMin: 1, CostMax: 2},
			NewEstimator: func(string) (melody.Estimator, error) {
				est, err := melody.NewQualityTracker(melody.QualityTrackerConfig{
					InitialMean: 5.5, InitialVar: 2.25,
					Params:   melody.QualityParams{A: 1, Gamma: 0.3, Eta: 9},
					EMPeriod: 10, EMWindow: 60,
					Metrics: reg,
				})
				if err != nil || batch {
					return est, err
				}
				return observeOnly{est}, nil
			},
			Ledger:     ledger,
			EpochEvery: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		outcomes[k] = finishSeason(t, s)
		ledgers[k] = ledger
		snaps[k] = encodeSnapshot(t, s)
		emRuns[k] = reg.Counter(obs.MetricEMRunsTotal, "").Value()
	}
	if emRuns[0] == 0 || emRuns[0] != emRuns[1] {
		t.Fatalf("EM re-estimations: batch %d, serial %d; want equal and nonzero", emRuns[0], emRuns[1])
	}
	for i := range outcomes[0] {
		if !reflect.DeepEqual(outcomes[0][i], outcomes[1][i]) {
			t.Fatalf("run %d: batch outcome %+v, serial %+v", i+1, outcomes[0][i], outcomes[1][i])
		}
	}
	if !reflect.DeepEqual(ledgers[0].Entries(), ledgers[1].Entries()) {
		t.Fatal("ledger entries differ between the batch and the serial finish")
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Fatal("scheduler snapshots differ between the batch and the serial finish")
	}
}

// finishSeason runs 45 rounds in which tenants t0 and t1 each open, bid,
// close, score and finish one run over 18 workers, six of whom register
// at the start, six at round 8 and six at round 21. It returns every
// outcome in order.
func finishSeason(t *testing.T, s *melody.RunScheduler) []*melody.Outcome {
	t.Helper()
	ctx := context.Background()
	r := stats.NewRNG(2017)
	var workers []string
	latent := map[string]float64{}
	var outcomes []*melody.Outcome
	for round := 1; round <= 45; round++ {
		if round == 1 || round == 8 || round == 21 {
			for i := 0; i < 6; i++ {
				id := fmt.Sprintf("w%02d", len(workers))
				if err := s.RegisterWorker(ctx, id); err != nil {
					t.Fatal(err)
				}
				workers = append(workers, id)
				latent[id] = r.Uniform(3, 9)
			}
		}
		for _, tenant := range []string{"t0", "t1"} {
			id := fmt.Sprintf("%s-%d", tenant, round)
			tasks := []melody.Task{{ID: id + "-a", Threshold: 12}, {ID: id + "-b", Threshold: 12}, {ID: id + "-c", Threshold: 9}}
			if err := s.OpenRun(ctx, id, tenant, tasks, 40); err != nil {
				t.Fatal(err)
			}
			for _, w := range workers {
				if err := s.SubmitBid(ctx, id, w, melody.Bid{Cost: r.Uniform(1, 2), Frequency: 1 + r.Intn(2)}); err != nil {
					t.Fatal(err)
				}
			}
			out, err := s.CloseAuction(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range out.Assignments {
				if err := s.SubmitScore(ctx, id, a.WorkerID, a.TaskID, latent[a.WorkerID]+r.Normal(0, 1.5)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.FinishRun(ctx, id); err != nil {
				t.Fatal(err)
			}
			outcomes = append(outcomes, out)
		}
	}
	return outcomes
}

// failingBatch fails one worker's update in every batch, as ObserveBatch
// reports it.
type failingBatch struct {
	melody.Estimator
	worker string
}

var errUpdate = errors.New("quality: update refused")

func (f failingBatch) ObserveBatch(ids []string, scores [][]float64, logged []quality.Reestimation) ([]quality.Reestimation, error) {
	return nil, errors.Join(&quality.WorkerError{Worker: f.worker, Err: errUpdate})
}

// TestFinishRunBatchErrorNamesWorker: a failed batch update fails the
// finish with an error that names the worker and wraps the cause, and
// leaves the run open.
func TestFinishRunBatchErrorNamesWorker(t *testing.T) {
	ctx := context.Background()
	tracker, err := melody.NewQualityTracker(melody.QualityTrackerConfig{
		InitialMean: 5.5, InitialVar: 2.25, Params: melody.QualityParams{A: 1, Gamma: 0.3, Eta: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := melody.NewPlatform(melody.PlatformConfig{
		Auction:   melody.AuctionConfig{QualityMin: 1, QualityMax: 10, CostMin: 1, CostMax: 2},
		Estimator: failingBatch{Estimator: tracker, worker: "bob"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"ada", "bob", "cyd"} {
		if err := p.RegisterWorker(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.OpenRun(ctx, []melody.Task{{ID: "t1", Threshold: 11}}, 30); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"ada", "bob", "cyd"} {
		if err := p.SubmitBid(ctx, id, melody.Bid{Cost: 1.2, Frequency: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.CloseAuction(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		err := p.FinishRun(ctx)
		if !errors.Is(err, errUpdate) || !strings.Contains(err.Error(), "update bob") {
			t.Fatalf("finish %d: error %v, want the update failure naming bob", i+1, err)
		}
	}
	if p.Run() != 0 {
		t.Fatalf("a failed finish completed the run: %d runs done", p.Run())
	}
}
