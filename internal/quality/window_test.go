package quality

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"melody/internal/lds"
	"melody/internal/obs"
	"melody/internal/stats"
)

// TestWindowedEMAnchorsAtFilteredPosterior guards the sliding-window fix:
// EM over a trimmed history must use the filtered posterior at the window
// start, not the global prior. For a worker whose level sits persistently
// below the prior mu0=5.5, re-anchoring every window at 5.5 would keep
// re-learning a phantom decline (a well below 1) forever; with the correct
// anchor, once the window no longer contains the initial transient, the
// learned transition coefficient stays near 1.
func TestWindowedEMAnchorsAtFilteredPosterior(t *testing.T) {
	cfg := MelodyConfig{
		Init:     lds.State{Mean: 5.5, Var: 2.25},
		Params:   lds.Params{A: 1, Gamma: 0.3, Eta: 1},
		EMPeriod: 10,
		EMWindow: 15,
		EM:       lds.EMConfig{MaxIter: 30},
	}
	m, err := NewMelody(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 80 runs at a constant level of 3.0 — far below the prior.
	for run := 0; run < 80; run++ {
		if err := m.Observe("w", []float64{3.0, 3.0}); err != nil {
			t.Fatal(err)
		}
	}
	p := m.Params("w")
	if p.A < 0.9 {
		t.Errorf("learned a = %v; window re-anchoring regression (phantom decline)", p.A)
	}
	if est := m.Estimate("w"); est < 2.2 || est > 3.8 {
		t.Errorf("estimate = %v, want near the true level 3.0", est)
	}
}

// TestUnboundedHistoryStillWorks: EMWindow = 0 keeps the full history and
// the original prior anchor.
func TestUnboundedHistoryStillWorks(t *testing.T) {
	cfg := MelodyConfig{
		Init:     lds.State{Mean: 5.5, Var: 2.25},
		Params:   lds.Params{A: 1, Gamma: 0.3, Eta: 1},
		EMPeriod: 10,
		EMWindow: 0,
		EM:       lds.EMConfig{MaxIter: 20},
	}
	m, err := NewMelody(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 40; run++ {
		if err := m.Observe("w", []float64{6.0}); err != nil {
			t.Fatal(err)
		}
	}
	if est := m.Estimate("w"); est < 5.0 || est > 7.0 {
		t.Errorf("estimate = %v, want near 6.0", est)
	}
}

// wideLen is how many scores worker i brings to run: runs of 0, 254, 255
// and 300 scores for worker 0, a 300-score run now and then for worker 1,
// and a few scores for worker 2.
func wideLen(i, run int) int {
	switch i {
	case 0:
		return []int{300, 0, 254, 2, 255, 1, 0}[run%7]
	case 1:
		if run%9 == 4 {
			return 300
		}
		return run % 2
	default:
		return 1 + run%3
	}
}

// wideScores returns worker i's scores for run, a pure function of both so
// that a season can resume at any run.
func wideScores(i, run int) []float64 {
	r := stats.NewRNG(int64(1000*run + i))
	scores := make([]float64, wideLen(i, run))
	for k := range scores {
		scores[k] = 4 + float64(i) + r.Normal(0, 1.5)
	}
	return scores
}

// wideSeason feeds runs [from, to) of three workers to m, by Observe or by
// ObserveBatch, and returns a line per EM re-estimation ObserveBatch made.
func wideSeason(t *testing.T, m *Melody, from, to int, batch bool) []string {
	t.Helper()
	ids := []string{"big", "mid", "small"}
	var ems []string
	for run := from; run < to; run++ {
		scores := make([][]float64, len(ids))
		for i := range ids {
			scores[i] = wideScores(i, run)
		}
		if !batch {
			for i, id := range ids {
				if err := m.Observe(id, scores[i]); err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
			}
			continue
		}
		made, err := m.ObserveBatch(ids, scores, nil)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		for _, re := range made {
			ems = append(ems, fmt.Sprintf("%d %s %v", run, re.Worker, re.Params))
		}
	}
	return ems
}

// wideDigest hashes the estimator's snapshot with each worker's posterior
// and θ as the read paths report them.
func wideDigest(t *testing.T, m *Melody, extra ...string) string {
	t.Helper()
	blob, err := m.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(blob)
	for _, id := range []string{"big", "mid", "small", "w"} {
		post, ok := m.Posterior(id)
		fmt.Fprintf(h, "%s %v %v %v %v\n", id, post, ok, m.Params(id), m.Estimate(id))
	}
	for _, line := range extra {
		fmt.Fprintln(h, line)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestWideRunPinned runs windows that hold runs of 255 and more scores
// (and of 0 and 254) through Observe, ObserveBatch, a RestoreState round
// trip mid-season and a diverged worker's restart, and pins the posteriors,
// θ, EM re-estimations and snapshot to hashes recorded while every run
// count took four bytes.
func TestWideRunPinned(t *testing.T) {
	cfg := MelodyConfig{
		Init:     lds.State{Mean: 5.5, Var: 2.25},
		Params:   lds.Params{A: 1, Gamma: 0.3, Eta: 9},
		EMPeriod: 4,
		EMWindow: 6,
		EM:       lds.EMConfig{MaxIter: 20},
	}
	const runs = 40
	serial, err := NewMelody(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wideSeason(t, serial, 0, runs, false)
	batch, err := NewMelody(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ems := wideSeason(t, batch, 0, runs, true)
	if len(ems) == 0 {
		t.Fatal("the season re-estimated nobody")
	}
	first, err := NewMelody(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wideSeason(t, first, 0, runs/2+1, true)
	blob, err := first.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := NewMelody(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	wideSeason(t, resumed, runs/2+1, runs, false)

	want := wideDigest(t, serial)
	for name, m := range map[string]*Melody{"batch": batch, "resumed": resumed} {
		if got := wideDigest(t, m); got != want {
			t.Errorf("%s state differs from the serial Observe state", name)
		}
	}
	if fusesMultiplyAdd() {
		t.Logf("multiply-adds are fused on this build; hashes not compared")
		return
	}
	if got, pin := wideDigest(t, batch, ems...), "dcffc2161d624963da4d03350eb5020c457b1eb9d32e7b1b8c431906d838eba3"; got != pin {
		t.Errorf("season hash %s, want %s", got, pin)
	}

	// A transition coefficient of 1e40 overflows the belief a few empty
	// runs after a 300-score run, restarting the worker with that run still
	// in its window.
	reg := obs.NewRegistry()
	rcfg := MelodyConfig{
		Init:     cfg.Init,
		Params:   lds.Params{A: 1e40, Gamma: 0.3, Eta: 9},
		EMWindow: 6,
		Metrics:  reg,
	}
	restarts := reg.Counter(obs.MetricEstimatorRestartsTotal, "")
	m, err := NewMelody(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	restartRun := -1
	for run := 0; run < 16; run++ {
		scores := wideScores(0, 7*(run/6)) // 300 scores every sixth run
		if run%6 != 0 {
			scores = nil
		}
		if err := m.Observe("w", scores); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if restartRun < 0 && restarts.Value() > 0 {
			restartRun = run
		}
	}
	if restartRun < 0 {
		t.Fatal("the worker never restarted")
	}
	if got, pin := wideDigest(t, m, fmt.Sprint(restartRun, restarts.Value())), "6babc0e3248efba1316bba80f6362ab93e619c53db04f7c2363fd9e6136cc56a"; got != pin {
		t.Errorf("restart hash %s, want %s (first restart at run %d)", got, pin, restartRun)
	}
}
