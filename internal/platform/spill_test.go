package platform

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"melody"
	"melody/internal/chunk"
	"melody/internal/eventlog"
	"melody/internal/ledger"
	"melody/internal/obs"
)

// spillSeasonRuns is the season TestSpilledSeasonEqualsResident drives,
// stopping and recovering the durable schedulers after half of it.
const spillSeasonRuns = 1000

// spillBackend is what a spill season drives: the run scheduler itself, or
// a durable scheduler over it.
type spillBackend interface {
	RegisterWorker(ctx context.Context, workerID string) error
	OpenRun(ctx context.Context, runID, tenant string, tasks []melody.Task, budget float64) error
	SubmitBids(ctx context.Context, runID string, bids []melody.WorkerBid) melody.BatchResult
	CloseAuction(ctx context.Context, runID string) (*melody.Outcome, error)
	SubmitScores(ctx context.Context, runID string, scores []melody.TaskScore) melody.BatchResult
	FinishRun(ctx context.Context, runID string) error
}

// newSpillScheduler returns a scheduler with a funded ledger settling in
// epochs of 8 runs, reporting on its own registry.
func newSpillScheduler(t *testing.T) (*melody.RunScheduler, *melody.Ledger, *obs.Registry) {
	t.Helper()
	money := melody.NewLedger()
	if _, err := money.Deposit(melody.RequesterAccount, 40*spillSeasonRuns, "season funding"); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s, err := melody.NewRunScheduler(melody.SchedulerConfig{
		Auction: melody.AuctionConfig{QualityMin: 1, QualityMax: 10, CostMin: 1, CostMax: 2},
		NewEstimator: func(string) (melody.Estimator, error) {
			return melody.NewQualityTracker(melody.QualityTrackerConfig{
				InitialMean: 5.5, InitialVar: 2.25,
				Params:   melody.QualityParams{A: 1, Gamma: 0.3, Eta: 9},
				EMPeriod: 10, EMWindow: 60,
			})
		},
		Ledger:     money,
		EpochEvery: 8,
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, money, reg
}

// spillRunID names run n of a spill season: tenants t0 and t1 take turns.
func spillRunID(n int) string { return fmt.Sprintf("t%d-r%05d", n%2, n/2) }

// driveSpillSeason drives runs from to to of a lifecycle-shaped season:
// 2 tenants of 16 workers, one bid each per run, 2 tasks of threshold 10,
// budget 40, every assignment scored. Run 0 registers the workers.
func driveSpillSeason(t *testing.T, be spillBackend, from, to int) {
	t.Helper()
	ctx := context.Background()
	worker := func(tenant, i int) string { return fmt.Sprintf("t%d-w%02d", tenant, i) }
	if from == 0 {
		for tn := 0; tn < 2; tn++ {
			for i := 0; i < 16; i++ {
				if err := be.RegisterWorker(ctx, worker(tn, i)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for n := from; n < to; n++ {
		id, tn := spillRunID(n), n%2
		tasks := []melody.Task{{ID: id + "-k0", Threshold: 10}, {ID: id + "-k1", Threshold: 10}}
		if err := be.OpenRun(ctx, id, fmt.Sprintf("t%d", tn), tasks, 40); err != nil {
			t.Fatalf("open %s: %v", id, err)
		}
		bids := make([]melody.WorkerBid, 16)
		for i := range bids {
			bids[i] = melody.WorkerBid{WorkerID: worker(tn, i), Bid: melody.Bid{Cost: 1 + float64((n*7+i*3)%10)/10, Frequency: 1}}
		}
		if err := be.SubmitBids(ctx, id, bids).Err(); err != nil {
			t.Fatalf("bids %s: %v", id, err)
		}
		out, err := be.CloseAuction(ctx, id)
		if err != nil {
			t.Fatalf("close %s: %v", id, err)
		}
		scores := make([]melody.TaskScore, len(out.Assignments))
		for i, a := range out.Assignments {
			scores[i] = melody.TaskScore{WorkerID: a.WorkerID, TaskID: a.TaskID, Score: 3 + float64((len(a.WorkerID)*7+n*5+i*3)%13)/2}
		}
		if err := be.SubmitScores(ctx, id, scores).Err(); err != nil {
			t.Fatalf("scores %s: %v", id, err)
		}
		if err := be.FinishRun(ctx, id); err != nil {
			t.Fatalf("finish %s: %v", id, err)
		}
	}
}

// TestSpilledSeasonEqualsResident drives a lifecycle-shaped season through
// each durable engine, stopping the scheduler halfway and recovering a new
// one from the engine's files, and compares it with an in-memory scheduler
// that fed the same season and spilled nothing. The durable ones spill
// their closed archive and journal chunks to a scratch file beside the
// WAL, so the first finished runs and ledger entries are read back from
// it: the ledger's entries, snapshot and amounts, every run's info, the
// scheduler snapshot, and a retried open, close and finish, a late bid and
// the outcome of the first run over HTTP must all equal the in-memory
// scheduler's. No file is left beside the WAL.
func TestSpilledSeasonEqualsResident(t *testing.T) {
	ctx := context.Background()
	want, wantMoney, wantReg := newSpillScheduler(t)
	driveSpillSeason(t, want, 0, spillSeasonRuns)
	if got := wantReg.Gauge(obs.MetricSpillBytes, "").Value(); got != 0 {
		t.Fatalf("the in-memory scheduler spilled %v bytes", got)
	}
	wantSnap := schedulerSnapshotJSON(t, want)
	wantTS := newMultiTestServer(t, want)
	defer wantTS.Close()

	engines := []struct {
		name string
		open func(dir string, s *melody.RunScheduler) (*eventlog.PersistentScheduler, func() error, error)
	}{
		{"wal", func(dir string, s *melody.RunScheduler) (*eventlog.PersistentScheduler, func() error, error) {
			ps, log, err := eventlog.OpenPersistentScheduler(filepath.Join(dir, "season.wal"), s, eventlog.Options{})
			if err != nil {
				return nil, nil, err
			}
			return ps, log.Close, nil
		}},
		{"wal-dir", func(dir string, s *melody.RunScheduler) (*eventlog.PersistentScheduler, func() error, error) {
			ps, seg, err := eventlog.OpenSegmentedScheduler(dir, s, eventlog.SegmentedOptions{
				SegmentBytes: 256 << 10, SnapshotEvery: 2000})
			if err != nil {
				return nil, nil, err
			}
			return ps, seg.Close, nil
		}},
	}
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			dir := t.TempDir()
			first, _, _ := newSpillScheduler(t)
			ps, stop, err := eng.open(dir, first)
			if err != nil {
				t.Fatal(err)
			}
			driveSpillSeason(t, ps, 0, spillSeasonRuns/2)
			if err := stop(); err != nil {
				t.Fatal(err)
			}
			s, money, reg := newSpillScheduler(t)
			ps, stop, err = eng.open(dir, s)
			if err != nil {
				t.Fatal(err)
			}
			defer stop()
			driveSpillSeason(t, ps, spillSeasonRuns/2, spillSeasonRuns)

			// The archive's first chunk closed, and every closed chunk
			// spilled.
			if got := reg.Gauge(obs.MetricRunArchiveBytes, "").Value(); got <= chunk.Full {
				t.Fatalf("the archive takes %v bytes; the test wants its first chunk closed", got)
			}
			if got := reg.Gauge(obs.MetricSpillBytes, "").Value(); got < chunk.Full {
				t.Errorf("%s = %v, want at least a chunk", obs.MetricSpillBytes, got)
			}
			if got := reg.Counter(obs.MetricSpillWriteErrorsTotal, "").Value(); got != 0 {
				t.Errorf("%s = %d, want 0", obs.MetricSpillWriteErrorsTotal, got)
			}

			if !slices.Equal(money.Entries(), wantMoney.Entries()) {
				t.Error("the ledger's entries differ from the in-memory scheduler's")
			}
			if got, want := ledgerJSON(t, money), ledgerJSON(t, wantMoney); got != want {
				t.Error("the ledger's snapshot differs from the in-memory scheduler's")
			}
			if got, want := amounts(money), amounts(wantMoney); !slices.Equal(got, want) {
				t.Error("the ledger's amounts differ from the in-memory scheduler's")
			}
			for n := 0; n < spillSeasonRuns; n++ {
				id := spillRunID(n)
				got, err := s.Run(id)
				wantInfo, wantErr := want.Run(id)
				if err != nil || wantErr != nil || !reflect.DeepEqual(got, wantInfo) {
					t.Fatalf("Run(%s) = %+v, %v; in memory %+v, %v", id, got, err, wantInfo, wantErr)
				}
			}
			if got := schedulerSnapshotJSON(t, s); got != wantSnap {
				t.Error("the scheduler snapshot differs from the in-memory scheduler's")
			}

			ts := newMultiTestServer(t, ps)
			defer ts.Close()
			id := spillRunID(0)
			c := tenantClient(t, ts, "t0")
			spec := []TaskSpec{{ID: id + "-k0", Threshold: 10}, {ID: id + "-k1", Threshold: 10}}
			if _, err := c.OpenRunID(ctx, id, "t0", spec, 40); err != nil {
				t.Errorf("retried open of %s = %v", id, err)
			}
			for _, req := range []struct{ method, suffix string }{
				{http.MethodPost, "/close"}, {http.MethodGet, "/outcome"},
			} {
				got, err := rawBody(ts, req.method, "/v1/runs/"+id+req.suffix)
				if err != nil {
					t.Fatal(err)
				}
				wantBody, err := rawBody(wantTS, req.method, "/v1/runs/"+id+req.suffix)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(wantBody) {
					t.Errorf("%s %s = %s, in memory %s", req.method, req.suffix, got, wantBody)
				}
			}
			run := c.Run(id)
			if err := run.FinishRun(ctx); err != nil {
				t.Errorf("retried finish of %s = %v", id, err)
			}
			wantAPIError(t, "late bid on "+id, run.SubmitBid(ctx, "t0-w00", 1.2, 1), http.StatusConflict, melody.ErrNoRunOpen)

			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if strings.Contains(e.Name(), "spill") || strings.HasSuffix(e.Name(), ".tmp") {
					t.Errorf("%s is left in the WAL directory", e.Name())
				}
			}
		})
	}
}

// schedulerSnapshotJSON encodes s's state snapshot.
func schedulerSnapshotJSON(t *testing.T, s *melody.RunScheduler) string {
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

// ledgerJSON encodes l's snapshot.
func ledgerJSON(t *testing.T, l *melody.Ledger) string {
	t.Helper()
	b, err := json.Marshal(l.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// amount is one entry as Ledger.EachAmount yields it.
type amount struct {
	seq    int64
	kind   ledger.EntryKind
	amount float64
}

// amounts lists l's entries as EachAmount yields them.
func amounts(l *melody.Ledger) []amount {
	var out []amount
	l.EachAmount(func(seq int64, kind ledger.EntryKind, a float64) bool {
		out = append(out, amount{seq, kind, a})
		return true
	})
	return out
}
