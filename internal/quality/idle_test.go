package quality

import (
	"math"
	"testing"

	"melody/internal/lds"
	"melody/internal/obs"
)

// TestIdleMatchesEmptyObservations: EstimateIdle and ForecastIdle of k
// runs equal, bit for bit, Estimate and Forecast of a worker given k empty
// observations, with and without a window, and for a > 1, where the
// belief diverges and restarts; the idle reads store nothing.
func TestIdleMatchesEmptyObservations(t *testing.T) {
	for _, tc := range []struct {
		a      float64
		window int
	}{{0.96, 0}, {0.96, 5}, {1.6, 0}, {1.6, 5}} {
		reg := obs.NewRegistry()
		cfg := MelodyConfig{
			Init:     lds.State{Mean: 5.5, Var: 2.25},
			Params:   lds.Params{A: tc.a, Gamma: 0.3, Eta: 9},
			EMPeriod: 3, EMWindow: tc.window,
		}
		idle, err := NewMelody(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Metrics = reg
		observed, err := NewMelody(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k <= 1600; k++ {
			if k > 0 {
				if err := observed.Observe("w", nil); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := idle.EstimateIdle(k), observed.Estimate("w"); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("a=%v window=%d: EstimateIdle(%d) = %v, want %v", tc.a, tc.window, k, got, want)
			}
			got, err := idle.ForecastIdle(k, 3)
			if err != nil {
				t.Fatal(err)
			}
			want, err := observed.Forecast("w", 3)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("a=%v window=%d: ForecastIdle(%d) = %+v, want %+v", tc.a, tc.window, k, got, want)
			}
		}
		restarts := reg.Counter(obs.MetricEstimatorRestartsTotal, "").Value()
		if tc.a > 1 && restarts == 0 {
			t.Errorf("a=%v window=%d: the belief never restarted; the case is vacuous", tc.a, tc.window)
		}
		if len(idle.workers) != 0 {
			t.Errorf("idle reads stored %d workers", len(idle.workers))
		}
	}
}
