package quality

import (
	"testing"

	"melody/internal/lds"
)

func TestMelodyForecastUnknownWorker(t *testing.T) {
	m, _ := NewMelody(testMelodyConfig())
	f, err := m.Forecast("nobody", 1)
	if err != nil {
		t.Fatal(err)
	}
	// One step from the initial belief with a=1: mean mu0, var sigma0+gamma.
	cfg := testMelodyConfig()
	if !almostEqual(f.Mean, cfg.Init.Mean, 1e-12) {
		t.Errorf("mean = %v, want %v", f.Mean, cfg.Init.Mean)
	}
	if !almostEqual(f.Var, cfg.Init.Var+cfg.Params.Gamma, 1e-12) {
		t.Errorf("var = %v, want %v", f.Var, cfg.Init.Var+cfg.Params.Gamma)
	}
}

func TestMelodyForecastTracksPosterior(t *testing.T) {
	cfg := testMelodyConfig()
	cfg.EMPeriod = 0
	m, _ := NewMelody(cfg)
	if err := m.Observe("w", []float64{8, 8, 8}); err != nil {
		t.Fatal(err)
	}
	f1, err := m.Forecast("w", 1)
	if err != nil {
		t.Fatal(err)
	}
	post, _ := m.Posterior("w")
	want := lds.Predict(cfg.Params, post)
	if !almostEqual(f1.Mean, want.Mean, 1e-12) || !almostEqual(f1.Var, want.Var, 1e-12) {
		t.Errorf("forecast = %+v, want %+v", f1, want)
	}
	// One-step forecast mean equals Estimate (Eq. 19).
	if !almostEqual(f1.Mean, m.Estimate("w"), 1e-12) {
		t.Errorf("forecast mean %v != estimate %v", f1.Mean, m.Estimate("w"))
	}
	// Longer horizons are more uncertain.
	f5, err := m.Forecast("w", 5)
	if err != nil {
		t.Fatal(err)
	}
	if f5.Var <= f1.Var {
		t.Errorf("5-step var %v not above 1-step var %v", f5.Var, f1.Var)
	}
}

func TestMelodyForecastValidation(t *testing.T) {
	m, _ := NewMelody(testMelodyConfig())
	if _, err := m.Forecast("w", 0); err == nil {
		t.Error("zero horizon accepted")
	}
}

func TestMelodyMisfit(t *testing.T) {
	cfg := testMelodyConfig()
	cfg.EMPeriod = 0
	cfg.Params = lds.Params{A: 1, Gamma: 0.05, Eta: 1}
	m, _ := NewMelody(cfg)

	// Unknown worker or no scored history: not available.
	if _, ok, err := m.Misfit("nobody"); err != nil || ok {
		t.Errorf("misfit for unknown worker = ok=%v err=%v", ok, err)
	}
	if err := m.Observe("w", nil); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := m.Misfit("w"); err != nil || ok {
		t.Errorf("misfit without scores = ok=%v err=%v", ok, err)
	}

	// Smooth data near the prior: misfit around 1.
	for i := 0; i < 40; i++ {
		if err := m.Observe("w", []float64{5.5}); err != nil {
			t.Fatal(err)
		}
	}
	smoothScore, ok, err := m.Misfit("w")
	if err != nil || !ok {
		t.Fatalf("misfit = ok=%v err=%v", ok, err)
	}
	// A worker with a violent level shift: misfit far above the smooth one.
	for i := 0; i < 20; i++ {
		level := 2.0
		if i%2 == 0 {
			level = 9.0
		}
		if err := m.Observe("jumper", []float64{level}); err != nil {
			t.Fatal(err)
		}
	}
	jumpScore, ok, err := m.Misfit("jumper")
	if err != nil || !ok {
		t.Fatalf("jumper misfit = ok=%v err=%v", ok, err)
	}
	if jumpScore <= smoothScore*2 {
		t.Errorf("jumper misfit %v not well above smooth %v", jumpScore, smoothScore)
	}
}
