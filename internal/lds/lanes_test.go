package lds

import (
	"math"
	"testing"

	"melody/internal/stats"
)

// laneWindow draws a window of n runs around a drifting level, each run
// scored with probability density, with one to three scores.
func laneWindow(r *stats.RNG, n int, density float64) [][]float64 {
	h := make([][]float64, n)
	level := r.Uniform(2, 9)
	for t := range h {
		level += r.Normal(0, 0.2)
		if r.Float64() < density {
			for k := 1 + r.Intn(3); k > 0; k-- {
				h[t] = append(h[t], level+r.Normal(0, 1.5))
			}
		}
	}
	return h
}

// laneStart draws an initial guess and belief for a lane, so the lanes of
// a group start apart and converge at different iterations.
func laneStart(r *stats.RNG) (Params, State) {
	return Params{A: r.Uniform(0.5, 1.1), Gamma: r.Uniform(0.05, 2), Eta: r.Uniform(0.2, 10)},
		State{Mean: r.Uniform(0, 10), Var: r.Uniform(0.1, 4)}
}

// checkLanes runs lanes through a workspace last used on a group of other,
// longer windows, so stale buffers would show, and requires every lane to
// equal emReference on its window alone: both fail, or both succeed with
// sameEM results. A failed lane must carry Workspace.EM's error text, which
// differs from the reference's for a non-finite score (checked once per
// call there, once per iteration in the reference).
func checkLanes(t *testing.T, r *stats.RNG, lanes []EMLane, cfg EMConfig) {
	t.Helper()
	want := make([]EMLane, len(lanes))
	for i, l := range lanes {
		want[i].Result, want[i].Err = new(Workspace).emReference(l.Start, l.Init, l.History, cfg)
		if want[i].Err != nil {
			_, want[i].Err = new(Workspace).EM(l.Start, l.Init, l.History, cfg)
		}
	}
	var ws Workspace
	stale := make([]EMLane, Lanes)
	for i := range stale {
		start, init := laneStart(r)
		stale[i] = EMLane{Start: start, Init: init, History: laneWindow(r, len(lanes[0].History)+7, 0.5)}
	}
	ws.EMLanes(stale, EMConfig{MaxIter: 3})
	ws.EMLanes(lanes, cfg)
	for i, l := range lanes {
		w := want[i]
		switch {
		case (w.Err == nil) != (l.Err == nil):
			t.Fatalf("lane %d of %d: reference err %v, EMLanes err %v", i, len(lanes), w.Err, l.Err)
		case w.Err != nil && w.Err.Error() != l.Err.Error():
			t.Fatalf("lane %d of %d: Workspace.EM err %q, EMLanes err %q", i, len(lanes), w.Err, l.Err)
		case w.Err == nil && !sameEM(w.Result, l.Result):
			t.Fatalf("lane %d of %d: EMLanes %+v, reference %+v", i, len(lanes), l.Result, w.Result)
		case w.Err != nil && l.Result != (EMResult{}):
			t.Fatalf("lane %d of %d failed with a result %+v", i, len(lanes), l.Result)
		}
	}
}

// FuzzEMLanes is the differential check of the lane kernel: every lane of a
// fuzzer-built group of one to four windows must equal emReference on its
// window alone. Lane 0 starts from the fuzzer's parameters and belief, the
// others from seed-drawn ones, so lanes converge at different iterations
// (the fuzzer also picks the tolerance and the iteration cap). defect picks
// a lane and breaks it: an invalid theta, a window without scores, or a
// fuzzer-chosen extra score (NaN, ±Inf and 1e308 reach the finiteness
// check and overflowing sums). Extreme parameters (a = 40 over empty runs)
// make a lane's filter overflow mid-iteration while the others run on.
//
// Explore with `go test ./internal/lds -run '^$' -fuzz FuzzEMLanes`.
func FuzzEMLanes(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(60), uint8(50), 1e-6, 1.0, 0.3, 9.0, 5.5, 2.25, 0.3, uint8(0), 5.0)
	f.Add(int64(2), uint8(3), uint8(60), uint8(50), 1e-4, 1.0, 0.3, 9.0, 5.5, 2.25, 0.9, uint8(0), 5.0)
	f.Add(int64(3), uint8(1), uint8(12), uint8(40), 1e-3, 0.9, 0.5, 1.0, 0.0, 1.0, 0.5, uint8(1*Lanes+1), 5.0)
	f.Add(int64(4), uint8(2), uint8(30), uint8(30), 1e-4, 1.0, 0.3, 9.0, 5.5, 2.25, 0.2, uint8(2*Lanes+2), 5.0)
	f.Add(int64(5), uint8(3), uint8(20), uint8(20), 0.0, 1.0, 0.3, 9.0, 5.5, 2.25, 0.4, uint8(3*Lanes+3), math.NaN())
	f.Add(int64(6), uint8(3), uint8(20), uint8(20), 0.0, 1.0, 0.3, 9.0, 5.5, 2.25, 0.4, uint8(3*Lanes), 1e308)
	f.Add(int64(7), uint8(3), uint8(90), uint8(50), 1e-6, 40.0, 1e-3, 1e-3, 5.5, 1e-3, 0.02, uint8(0), 5.0)
	f.Add(int64(8), uint8(0), uint8(60), uint8(50), 1e-6, 1.0, 0.3, 9.0, 5.5, 2.25, 0.3, uint8(0), 5.0)
	f.Add(int64(9), uint8(2), uint8(0), uint8(5), 1e-6, 1.0, 0.3, 9.0, 5.5, 2.25, 0.3, uint8(0), 5.0)
	f.Add(int64(10), uint8(3), uint8(1), uint8(5), 1e-6, math.Inf(1), 0.3, 9.0, 5.5, 2.25, 1.0, uint8(0), 5.0)

	f.Fuzz(func(t *testing.T, seed int64, n, runs, iters uint8, tol, a, gamma, eta, m0, v0, density float64,
		defect uint8, extra float64) {
		r := stats.NewRNG(seed)
		length := int(runs % 100)
		cfg := EMConfig{MaxIter: 1 + int(iters%60), Tol: tol}
		lanes := make([]EMLane, 1+int(n)%Lanes)
		for i := range lanes {
			start, init := Params{A: a, Gamma: gamma, Eta: eta}, State{Mean: m0, Var: v0}
			if i > 0 {
				start, init = laneStart(r)
			}
			lanes[i] = EMLane{Start: start, Init: init, History: laneWindow(r, length, density)}
		}
		broken := &lanes[int(defect)%len(lanes)]
		switch defect / Lanes % 4 {
		case 1:
			broken.Start.Eta = 0
		case 2:
			broken.History = make([][]float64, length)
		case 3:
			if length > 0 {
				k := r.Intn(length)
				broken.History[k] = append(broken.History[k], extra)
			}
		}
		checkLanes(t, r, lanes, cfg)
	})
}

// TestEMLanesMatchesReference pins the kernel against the oracle without
// the fuzzer: groups of one to four full windows, sparse and dense, with
// lanes that converge early, a lane whose filter overflows mid-iteration,
// and lanes that fail their checks.
func TestEMLanesMatchesReference(t *testing.T) {
	r := stats.NewRNG(20)
	for _, tc := range []struct {
		name    string
		lanes   int
		length  int
		density float64
		cfg     EMConfig
		breakAt func(lanes []EMLane)
	}{
		{name: "sparse", lanes: 4, length: 60, density: 0.25},
		{name: "dense", lanes: 4, length: 60, density: 1},
		{name: "early convergence", lanes: 4, length: 40, density: 0.6, cfg: EMConfig{Tol: 1e-3}},
		{name: "two lanes", lanes: 2, length: 60, density: 0.3},
		{name: "three lanes", lanes: 3, length: 25, density: 0.5},
		{name: "one lane", lanes: 1, length: 60, density: 0.3},
		{name: "overflow", lanes: 4, length: 200, density: 0.05, breakAt: func(l []EMLane) {
			l[1].Start = Params{A: 40, Gamma: 1e-3, Eta: 1e-3}
			l[1].Init = State{Mean: 5.5, Var: 1e-3}
			l[1].History = make([][]float64, len(l[1].History))
			l[1].History[0] = []float64{5}
		}},
		{name: "failed checks", lanes: 4, length: 30, density: 0.4, breakAt: func(l []EMLane) {
			l[0].Init.Var = -1
			l[2].History[3] = append(l[2].History[3], math.Inf(-1))
		}},
		{name: "one valid lane", lanes: 3, length: 30, density: 0.4, breakAt: func(l []EMLane) {
			l[0].Start.Gamma = 0
			l[1].History = make([][]float64, len(l[1].History))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lanes := make([]EMLane, tc.lanes)
			for i := range lanes {
				start, init := laneStart(r)
				lanes[i] = EMLane{Start: start, Init: init, History: laneWindow(r, tc.length, tc.density)}
			}
			if tc.breakAt != nil {
				tc.breakAt(lanes)
			}
			checkLanes(t, r, lanes, tc.cfg)
		})
	}
}

// TestEMLanesReusesBuffers: a workspace that has run a group of full
// windows runs the next group without allocating.
func TestEMLanesReusesBuffers(t *testing.T) {
	r := stats.NewRNG(21)
	lanes := make([]EMLane, Lanes)
	for i := range lanes {
		start, init := laneStart(r)
		lanes[i] = EMLane{Start: start, Init: init, History: laneWindow(r, 60, 0.3)}
	}
	var ws Workspace
	ws.EMLanes(lanes, EMConfig{})
	if allocs := testing.AllocsPerRun(20, func() { ws.EMLanes(lanes, EMConfig{}) }); allocs != 0 {
		t.Errorf("EMLanes allocates %v times per group once its buffers have grown", allocs)
	}
}

// TestEMLanesRejectsBadGroups: more than Lanes windows, or windows of
// different lengths, are a caller's bug.
func TestEMLanesRejectsBadGroups(t *testing.T) {
	for name, lanes := range map[string][]EMLane{
		"too many": make([]EMLane, Lanes+1),
		"lengths":  {{History: make([][]float64, 3)}, {History: make([][]float64, 4)}},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("EMLanes accepted the group")
				}
			}()
			new(Workspace).EMLanes(lanes, EMConfig{})
		})
	}
}
