package lds

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"melody/internal/stats"
)

// emReference is Workspace.EM as it was before the loop ran on per-run
// sums: every iteration smooths the full score history with Smooth, whose
// forward pass re-validates the parameters and re-sums every run's scores
// through Update. It is kept verbatim as the oracle FuzzEMStats and the EM
// unit tests compare the production loop against bit for bit.
func (ws *Workspace) emReference(start Params, init State, history [][]float64, cfg EMConfig) (EMResult, error) {
	cfg = cfg.withDefaults()
	if err := start.Validate(); err != nil {
		return EMResult{}, err
	}
	if err := init.Validate(); err != nil {
		return EMResult{}, err
	}
	if len(history) == 0 {
		return EMResult{}, errors.New("lds: cannot learn from an empty history")
	}
	totalScores := 0
	for _, s := range history {
		totalScores += len(s)
	}
	if totalScores == 0 {
		return EMResult{}, errors.New("lds: cannot learn from a history with no scores")
	}

	cur := start
	res := EMResult{Params: cur}
	for iter := 1; iter <= cfg.MaxIter; iter++ {
		sm, err := ws.Smooth(cur, init, history)
		if err != nil {
			return EMResult{}, fmt.Errorf("EM iteration %d: %w", iter, err)
		}
		next, err := mStepReference(sm, history, cfg.VarFloor)
		if err != nil {
			return EMResult{}, fmt.Errorf("EM iteration %d: %w", iter, err)
		}
		res.Iterations = iter
		delta := math.Max(math.Abs(next.A-cur.A),
			math.Max(math.Abs(next.Gamma-cur.Gamma), math.Abs(next.Eta-cur.Eta)))
		cur = next
		if delta < cfg.Tol {
			res.Converged = true
			break
		}
	}
	res.Params = cur
	ll, err := LogLikelihood(cur, init, history)
	if err != nil {
		return EMResult{}, err
	}
	res.LogLikelihood = ll
	return res, nil
}

// mStepReference is the closed-form M-step as it was before its sums moved
// into the helpers Workspace.EM and EMLanes share, kept verbatim so the
// oracle shares none of them.
func mStepReference(sm *Smoothed, history [][]float64, varFloor float64) (Params, error) {
	n := sm.Runs()

	// Second moments: E[q_t^2] = Var + Mean^2, E[q_t q_{t-1}] = CrossCov +
	// Mean_t * Mean_{t-1}.
	var sumCross, sumPrevSq, sumCurSq float64
	for t := 1; t <= n; t++ {
		sumCross += sm.CrossCov[t] + sm.Mean[t]*sm.Mean[t-1]
		sumPrevSq += sm.Var[t-1] + sm.Mean[t-1]*sm.Mean[t-1]
		sumCurSq += sm.Var[t] + sm.Mean[t]*sm.Mean[t]
	}
	if sumPrevSq <= 0 {
		return Params{}, errors.New("lds: degenerate history (zero prior second moment)")
	}
	a := sumCross / sumPrevSq
	gamma := (sumCurSq - 2*a*sumCross + a*a*sumPrevSq) / float64(n)
	gamma = math.Max(gamma, varFloor)

	var sumSq float64
	var count float64
	for t := 1; t <= n; t++ {
		for _, s := range history[t-1] {
			d := s - sm.Mean[t]
			sumSq += d*d + sm.Var[t]
			count++
		}
	}
	eta := math.Max(sumSq/count, varFloor)

	p := Params{A: a, Gamma: gamma, Eta: eta}
	if err := p.Validate(); err != nil {
		return Params{}, err
	}
	return p, nil
}

// sameEM reports whether two EM results are identical bit for bit (NaN
// log-likelihoods compare equal to each other).
func sameEM(a, b EMResult) bool {
	ll := a.LogLikelihood == b.LogLikelihood || (math.IsNaN(a.LogLikelihood) && math.IsNaN(b.LogLikelihood))
	return a.Params == b.Params && a.Iterations == b.Iterations && a.Converged == b.Converged && ll
}

// FuzzEMStats is the differential check of Workspace.EM against the
// pre-sums loop (emReference) over fuzzer-chosen parameters, initial
// beliefs, EM settings and seed-derived histories with empty runs, plus one
// fuzzer-chosen extra score (NaN, ±Inf and 1e308 reach the finiteness check
// and overflowing sums). Both must fail together or agree on Params,
// Iterations, LogLikelihood and Converged with ==. The production loop
// runs in a workspace already used on a different history of the same
// length, so stale buffers would show.
//
// Explore with `go test ./internal/lds -run '^$' -fuzz FuzzEMStats`.
func FuzzEMStats(f *testing.F) {
	f.Add(1.0, 0.3, 9.0, 5.5, 2.25, int64(1), uint8(60), uint8(3), uint8(0x5a), uint8(12), 0.0, 0.0, 5.0, uint8(0))
	f.Add(1.036, 0.3, 9.0, 5.5, 2.25, int64(2), uint8(200), uint8(0), uint8(0xff), uint8(50), 1e-6, 1e-6, 6.0, uint8(199))
	f.Add(0.5, 2.0, 0.3, 0.0, 1.0, int64(3), uint8(15), uint8(4), uint8(0), uint8(1), 1e-300, 0.0, 4.0, uint8(3))
	f.Add(1.0, 1e-6, 1e3, -999.0, 1e-6, int64(4), uint8(7), uint8(2), uint8(0x81), uint8(30), 0.0, 1e3, 1e308, uint8(2))
	f.Add(1.0, 0.3, 9.0, 5.5, 2.25, int64(5), uint8(9), uint8(1), uint8(0), uint8(5), 0.0, 0.0, math.NaN(), uint8(4))
	f.Add(math.Inf(1), 0.3, 9.0, 5.5, 2.25, int64(6), uint8(9), uint8(1), uint8(0), uint8(5), 0.0, 0.0, 5.0, uint8(0))
	f.Add(40.0, 1e-3, 1e-3, 5.5, 1e-3, int64(7), uint8(90), uint8(1), uint8(0xfe), uint8(40), 0.0, 0.0, 5.0, uint8(0))

	f.Fuzz(func(t *testing.T, a, gamma, eta, m0, v0 float64, seed int64, runs, obs, missing, iters uint8,
		tol, floor, extra float64, extraRun uint8) {
		start := Params{A: a, Gamma: gamma, Eta: eta}
		init := State{Mean: m0, Var: v0}
		cfg := EMConfig{MaxIter: 1 + int(iters%40), Tol: tol, VarFloor: floor}

		r := stats.NewRNG(seed)
		n := int(runs)
		history := make([][]float64, n)
		other := make([][]float64, n)
		for i := 0; i < n; i++ {
			if missing&(1<<(uint(i)%8)) != 0 {
				continue
			}
			for k := r.Intn(int(obs%5) + 1); k > 0; k-- {
				history[i] = append(history[i], r.Uniform(-5, 15))
				other[i] = append(other[i], r.Uniform(-5, 15))
			}
		}
		if n > 0 {
			i := int(extraRun) % n
			history[i] = append(history[i], extra)
		}

		want, wantErr := new(Workspace).emReference(start, init, history, cfg)
		var ws Workspace
		_, _ = ws.EM(Params{A: 1, Gamma: 1, Eta: 1}, State{Mean: 5, Var: 1}, other, EMConfig{MaxIter: 3})
		got, gotErr := ws.EM(start, init, history, cfg)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("reference err %v, EM err %v", wantErr, gotErr)
		}
		if wantErr == nil && !sameEM(want, got) {
			t.Fatalf("EM %+v, reference %+v", got, want)
		}
	})
}

// TestEMMatchesReference runs the differential check on the histories the
// EM unit tests learn from, through one reused workspace, so the common
// regimes are pinned without the fuzzer.
func TestEMMatchesReference(t *testing.T) {
	r := stats.NewRNG(9)
	init := State{Mean: 5.5, Var: 2.25}
	var ws Workspace
	for _, tc := range []struct {
		truth, start Params
		runs         int
		perRun       func(int) int
		cfg          EMConfig
	}{
		{Params{A: 0.98, Gamma: 0.3, Eta: 2.5}, Params{A: 1.2, Gamma: 1.5, Eta: 0.5}, 120, func(int) int { return 3 }, EMConfig{MaxIter: 40}},
		{Params{A: 0.95, Gamma: 0.5, Eta: 1.5}, Params{A: 0.5, Gamma: 2, Eta: 0.3}, 60, func(t int) int { return 1 + t%3 }, EMConfig{MaxIter: 1, Tol: 1e-300}},
		{Params{A: 1, Gamma: 0.4, Eta: 2}, Params{A: 1, Gamma: 1, Eta: 1}, 200, func(t int) int { return 2 * (t % 4 / 3) }, EMConfig{MaxIter: 30}},
		{Params{A: 1, Gamma: 0.3, Eta: 9}, Params{A: 1, Gamma: 0.3, Eta: 9}, 60, func(t int) int { return t % 7 / 6 }, EMConfig{}},
		{Params{A: 0.9, Gamma: 0.5, Eta: 1}, Params{A: 0.9, Gamma: 0.5, Eta: 1}, 10, func(int) int { return 2 }, EMConfig{MaxIter: 100, Tol: 1e-4}},
	} {
		history := synthHistory(r, tc.truth, init, tc.runs, tc.perRun)
		want, err := new(Workspace).emReference(tc.start, init, history, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ws.EM(tc.start, init, history, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !sameEM(want, got) {
			t.Errorf("%d runs: EM %+v, reference %+v", tc.runs, got, want)
		}
	}
}
