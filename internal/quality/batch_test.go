package quality

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"melody/internal/lds"
	"melody/internal/obs"
	"melody/internal/stats"
)

func batchTestConfig() MelodyConfig {
	return MelodyConfig{
		Init:     lds.State{Mean: 5.5, Var: 2.25},
		Params:   lds.Params{A: 1, Gamma: 0.3, Eta: 9},
		EMPeriod: 5,
		EMWindow: 12,
		EM:       lds.EMConfig{MaxIter: 8},
	}
}

// TestObserveBatchMatchesSerial drives three identical estimators through
// the same multi-run trace — one via per-worker Observe calls, one via
// ObserveBatch, and one via ObserveBatch given the re-estimations the
// second reported, as recovery replays a log — and requires bit-identical
// state for every worker after every run, the same EM counts and
// log-likelihood gauge for the first two, no EM run by the third, and
// byte-identical snapshots at the end. The cases cover a full-history window (EM over
// the whole, growing history), workers who join mid-season (so windows
// of unequal length fall due in one batch and run in separate lane
// groups), and due sets of 1, 4 and 5 workers: a group of one, one full
// group, and a full group plus one.
func TestObserveBatchMatchesSerial(t *testing.T) {
	fullHistory := MelodyConfig{Init: lds.State{Mean: 5.5, Var: 2.25}, Params: lds.Params{A: 0.98, Gamma: 0.3, Eta: 4},
		EMPeriod: 3, EMWindow: 0, EM: lds.EMConfig{MaxIter: 6}}
	for _, tc := range []struct {
		name    string
		cfg     MelodyConfig
		workers int
		joins   func(worker int) int // the run a worker is first observed in
	}{
		{name: "period", cfg: batchTestConfig(), workers: 64},
		{name: "full history", cfg: fullHistory, workers: 64},
		{name: "mid-season joins", cfg: batchTestConfig(), workers: 64, joins: func(i int) int { return i % 9 * 2 }},
		{name: "due 1", cfg: batchTestConfig(), workers: 1},
		{name: "due 4", cfg: batchTestConfig(), workers: 4},
		{name: "due 5", cfg: batchTestConfig(), workers: 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var est [3]*Melody
			var reg [3]*obs.Registry
			for k := range est {
				cfg := tc.cfg
				reg[k] = obs.NewRegistry()
				cfg.Metrics = reg[k]
				var err error
				if est[k], err = NewMelody(cfg); err != nil {
					t.Fatal(err)
				}
			}
			serial, batched, installed := est[0], est[1], est[2]
			r := stats.NewRNG(42)
			all := make([]string, tc.workers)
			for i := range all {
				all[i] = fmt.Sprintf("w%02d", i)
			}
			for run := 0; run < 30; run++ {
				var ids []string
				var scores [][]float64
				for i, id := range all {
					join := 0
					if tc.joins != nil {
						join = tc.joins(i)
					}
					if join > run {
						continue
					}
					// Mix of empty, short and long score sets; every worker
					// scores in its first run, so each one's EM falls due.
					n := r.Intn(4)
					if run == join {
						n = max(n, 1)
					}
					var set []float64
					for k := 0; k < n; k++ {
						set = append(set, r.Normal(5, 2))
					}
					ids, scores = append(ids, id), append(scores, set)
				}
				for i := range ids {
					if err := serial.Observe(ids[i], scores[i]); err != nil {
						t.Fatal(err)
					}
				}
				made, err := batched.ObserveBatch(ids, scores, nil)
				if err != nil {
					t.Fatal(err)
				}
				for k, r := range made {
					if k > 0 && slices.Index(ids, made[k-1].Worker) >= slices.Index(ids, r.Worker) {
						t.Fatalf("run %d: re-estimations not in batch order: %v", run, made)
					}
					if r.Params != batched.Params(r.Worker) {
						t.Fatalf("run %d worker %s: reported theta %+v, installed %+v", run, r.Worker, r.Params, batched.Params(r.Worker))
					}
				}
				if got, err := installed.ObserveBatch(ids, scores, made); err != nil || !slices.Equal(got, made) {
					t.Fatalf("run %d: installing the reported re-estimations = %v, %v", run, got, err)
				}
				for _, id := range ids {
					if batched.Params(id) != installed.Params(id) || batched.Estimate(id) != installed.Estimate(id) {
						t.Fatalf("run %d worker %s: installed theta diverged from computed", run, id)
					}
					se, be := serial.Estimate(id), batched.Estimate(id)
					if se != be {
						t.Fatalf("run %d worker %s: serial estimate %v != batch estimate %v", run, id, se, be)
					}
					sp, _ := serial.Posterior(id)
					bp, _ := batched.Posterior(id)
					if sp != bp {
						t.Fatalf("run %d worker %s: posterior %+v != %+v", run, id, sp, bp)
					}
					if serial.Params(id) != batched.Params(id) {
						t.Fatalf("run %d worker %s: params diverged", run, id)
					}
				}
				for _, c := range []string{obs.MetricEMRunsTotal, obs.MetricEMUnconvergedTotal} {
					if s, b := reg[0].Counter(c, "").Value(), reg[1].Counter(c, "").Value(); s != b {
						t.Fatalf("run %d: %s serial %d, batch %d", run, c, s, b)
					}
				}
				if s, b := reg[0].Gauge(obs.MetricEMLogLikelihood, "").Value(), reg[1].Gauge(obs.MetricEMLogLikelihood, "").Value(); s != b {
					t.Fatalf("run %d: log-likelihood gauge serial %v, batch %v", run, s, b)
				}
			}
			if reg[0].Counter(obs.MetricEMRunsTotal, "").Value() == 0 {
				t.Fatal("no EM ran; the case is vacuous")
			}
			if n := reg[2].Counter(obs.MetricEMRunsTotal, "").Value(); n != 0 {
				t.Fatalf("installing logged re-estimations ran %d EMs", n)
			}
			sb, err := serial.SnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			bb, err := batched.SnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sb, bb) {
				t.Fatal("batch snapshot differs from the serial one")
			}
			ib, err := installed.SnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ib, bb) {
				t.Fatal("the snapshot after installing logged re-estimations differs from the computed one")
			}
		})
	}
}

// TestObserveBatchDuplicateIDs: duplicate worker IDs inside one batch must
// degrade to the serial order, not race on shared state.
func TestObserveBatchDuplicateIDs(t *testing.T) {
	serial, err := NewMelody(batchTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	batched, err := NewMelody(batchTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, 24)
	scores := make([][]float64, 0, 24)
	for i := 0; i < 24; i++ {
		ids = append(ids, fmt.Sprintf("w%d", i%3)) // heavy duplication
		scores = append(scores, []float64{float64(i%7) + 1})
	}
	for i := range ids {
		if err := serial.Observe(ids[i], scores[i]); err != nil {
			t.Fatal(err)
		}
	}
	made, err := batched.ObserveBatch(ids, scores, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(made) == 0 {
		t.Fatal("no EM fell due; the case is vacuous")
	}
	installed, err := NewMelody(batchTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := installed.ObserveBatch(ids, scores, made); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"w0", "w1", "w2"} {
		if serial.Estimate(id) != batched.Estimate(id) {
			t.Errorf("worker %s: duplicate-ID batch diverged from serial", id)
		}
		if installed.Params(id) != batched.Params(id) || installed.Estimate(id) != batched.Estimate(id) {
			t.Errorf("worker %s: installed re-estimations diverged from computed", id)
		}
	}
}

// TestObserveBatchLoggedMismatch: logged re-estimations that name other
// workers than the batch makes due fail the batch, naming the first
// worker that differs, on the lane path and on the serial one.
func TestObserveBatchLoggedMismatch(t *testing.T) {
	cfg := batchTestConfig()
	cfg.EMPeriod = 1
	theta := lds.Params{A: 1, Gamma: 0.3, Eta: 9}
	for _, tc := range []struct {
		name   string
		ids    []string
		logged []Reestimation
		names  string
	}{
		{"missing", []string{"a", "b"}, []Reestimation{{"a", theta}}, "b"},
		{"extra", []string{"a"}, []Reestimation{{"a", theta}, {"b", theta}}, "b"},
		{"other", []string{"a", "b"}, []Reestimation{{"a", theta}, {"c", theta}}, "c"},
		{"order", []string{"a", "b"}, []Reestimation{{"b", theta}, {"a", theta}}, "b"},
		{"serial missing", []string{"a", "a"}, []Reestimation{{"a", theta}}, "a"},
		{"serial extra", []string{"a", "a"}, []Reestimation{{"a", theta}, {"a", theta}, {"b", theta}}, "b"},
		{"none due", nil, []Reestimation{{"a", theta}}, "a"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewMelody(cfg)
			if err != nil {
				t.Fatal(err)
			}
			scores := make([][]float64, len(tc.ids))
			for i := range scores {
				scores[i] = []float64{6}
			}
			_, err = m.ObserveBatch(tc.ids, scores, tc.logged)
			if !errors.Is(err, ErrReestimationMismatch) || !strings.Contains(err.Error(), "worker "+tc.names) {
				t.Fatalf("ObserveBatch = %v, want ErrReestimationMismatch naming worker %s", err, tc.names)
			}
		})
	}
}

// TestObserveBatchReportsAllErrors: a batch with several poisoned workers
// reports every failure, not just the first.
func TestObserveBatchReportsAllErrors(t *testing.T) {
	m, err := NewMelody(batchTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 16)
	scores := make([][]float64, 16)
	for i := range ids {
		ids[i] = fmt.Sprintf("w%02d", i)
		scores[i] = []float64{5}
	}
	scores[2] = []float64{math.NaN()}
	scores[11] = []float64{math.NaN()}
	_, err = m.ObserveBatch(ids, scores, nil)
	if err == nil {
		t.Fatal("poisoned batch accepted")
	}
	if !strings.Contains(err.Error(), "NaN") {
		t.Errorf("error does not identify the NaN scores: %v", err)
	}
	// Healthy workers must still have been observed.
	if _, ok := m.Posterior("w00"); !ok {
		t.Error("healthy worker skipped by failing batch")
	}
	// Both failures joined.
	if got := strings.Count(err.Error(), "NaN"); got != 2 {
		t.Errorf("joined error mentions %d failures, want 2", got)
	}
}

// TestObserveBatchSizeMismatch rejects ragged input.
func TestObserveBatchSizeMismatch(t *testing.T) {
	m, err := NewMelody(batchTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ObserveBatch([]string{"a", "b"}, [][]float64{{1}}, nil); err == nil {
		t.Fatal("ragged batch accepted")
	}
}

// TestWindowMemoryBounded guards the window's memory: after far more runs
// than the window, it must hold exactly window runs, keep its score slice
// within a small multiple of the live scores, and push without allocating
// (evicted space is compacted and reused).
func TestWindowMemoryBounded(t *testing.T) {
	cfg := batchTestConfig()
	cfg.EMWindow = 10
	m, err := NewMelody(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 500; run++ {
		if err := m.Observe("w", []float64{5, 6}); err != nil {
			t.Fatal(err)
		}
	}
	w := m.workers["w"]
	if got := len(w.hist.counts); got != cfg.EMWindow {
		t.Errorf("count ring holds %d slots, want %d", got, cfg.EMWindow)
	}
	if got := w.hist.runs; got != cfg.EMWindow {
		t.Errorf("window holds %d runs, want %d", got, cfg.EMWindow)
	}
	if view := w.hist.view(nil); len(view) != cfg.EMWindow {
		t.Errorf("view length %d, want %d", len(view), cfg.EMWindow)
	}
	if live, c := len(w.hist.vals)-w.hist.lo, cap(w.hist.vals); live != 2*cfg.EMWindow || c > 4*live {
		t.Errorf("score slice holds %d live scores in capacity %d", live, c)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := m.Observe("w", []float64{5, 6}); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("steady-state Observe allocates %v times per run", allocs)
	}
}

// TestScoreHistoryRingOrder checks chronological ordering across the ring's
// wrap and the score slice's in-place compaction, with runs of varying
// length (empty ones included), and that every evicted run is returned
// intact before its space is reused. After a few wraps of short runs come
// runs of 254, 0, 255 and 300 scores: the ring keeps one byte per run,
// allocated at the window's length, until the 255-score run widens it in
// mid-wrap.
func TestScoreHistoryRingOrder(t *testing.T) {
	const window = 3
	length := func(i int) int {
		if i > 20 {
			return []int{254, 0, 255, 300, 1}[(i-21)%5]
		}
		return i % 4
	}
	var h scoreWindow
	var pushed [][]float64
	wide := false
	for i := 1; i <= 40; i++ {
		ev, ok := h.evict(window)
		if ok != (i > window) {
			t.Fatalf("push %d: unexpected eviction state %v", i, ok)
		}
		if ok {
			if want := pushed[i-window-1]; fmt.Sprint(ev) != fmt.Sprint(want) {
				t.Fatalf("push %d: evicted %v, want %v", i, ev, want)
			}
		}
		run := make([]float64, length(i))
		for k := range run {
			run[k] = float64(i) + float64(k)/10
		}
		pushed = append(pushed, run)
		h.push(window, run)
		wide = wide || len(run) >= 255
		switch {
		case wide && (h.wide == nil || h.counts != nil):
			t.Fatalf("push %d: a %d-score run left the ring narrow", i, len(run))
		case !wide && (h.wide != nil || cap(h.counts) != window):
			t.Fatalf("push %d: narrow ring is wide or holds %d byte slots, want %d", i, cap(h.counts), window)
		}

		view := h.view(nil)
		want := pushed[max(0, len(pushed)-window):]
		if fmt.Sprint(view) != fmt.Sprint(want) {
			t.Fatalf("push %d: view = %v, want runs %v", i, view, want)
		}
	}
}
