package loadgen

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"melody/internal/chaos"
	"melody/internal/platform"
	"melody/internal/stats"
)

// tightAdmission is a gate small enough that modest open-loop rates
// overload it deterministically in a fast test.
func tightAdmission() *platform.AdmissionConfig {
	return &platform.AdmissionConfig{
		MaxInFlight: 2, MaxQueue: 2, QueueTimeout: 2 * time.Millisecond,
		RetryAfter: 5 * time.Millisecond,
	}
}

// noRetry keeps overload accounting honest: one arrival, one verdict.
var noRetry = platform.RetryPolicy{MaxAttempts: 1}

func TestScheduleShapes(t *testing.T) {
	base := Scenario{Rate: 2000, BaseRate: 200, Duration: time.Second,
		BurstPeriod: 250 * time.Millisecond, BurstLen: 50 * time.Millisecond}
	counts := map[Arrival]int{}
	for _, a := range []Arrival{ArrivalPoisson, ArrivalRamp, ArrivalBurst} {
		cfg := base
		cfg.Arrival = a
		arrivals := cfg.schedule(stats.NewRNG(42))
		counts[a] = len(arrivals)
		last := time.Duration(-1)
		for _, at := range arrivals {
			if at <= last || at >= cfg.Duration {
				t.Fatalf("%s: arrival %v out of order or past the phase", a, at)
			}
			last = at
		}
	}
	// Poisson fires at the full rate the whole second; the ramp averages
	// (base+peak)/2; bursts run at peak only 1/5 of the time. With rate
	// 2000 the law of large numbers makes the ordering robust.
	if !(counts[ArrivalPoisson] > counts[ArrivalRamp] && counts[ArrivalRamp] > counts[ArrivalBurst]) {
		t.Errorf("schedule densities out of order: poisson=%d ramp=%d burst=%d",
			counts[ArrivalPoisson], counts[ArrivalRamp], counts[ArrivalBurst])
	}
	if p := counts[ArrivalPoisson]; p < 1600 || p > 2400 {
		t.Errorf("poisson arrivals = %d, want ~2000", p)
	}
}

// TestRunOverloadSheds drives a Poisson overload into a rate-limited
// server and checks the full contract: arrivals partition exactly into
// accepted/shed/failed, shedding really happened, every run settled, and
// the money invariants hold.
func TestRunOverloadSheds(t *testing.T) {
	res, err := RunOverload(Scenario{
		Workers: 8, Runs: 2, Tasks: 2, Seed: 11,
		Admission: &platform.AdmissionConfig{TenantRatePerSec: 40, TenantBurst: 5,
			RetryAfter: 5 * time.Millisecond},
		Retry:    &noRetry,
		Arrival:  ArrivalPoisson,
		Rate:     300,
		Duration: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Accepted + res.Shed + res.Failed; got != res.Offered {
		t.Errorf("partition broken: %d+%d+%d != offered %d", res.Accepted, res.Shed, res.Failed, res.Offered)
	}
	if res.Failed != 0 {
		t.Errorf("%d non-shed failures under pure overload", res.Failed)
	}
	if res.Shed == 0 {
		t.Error("300/s against a 40/s budget shed nothing")
	}
	if res.Accepted == 0 {
		t.Error("rate limit starved the bid path completely")
	}
	if res.RunsCompleted != 2 {
		t.Errorf("runs completed = %d, want 2 (settlement must survive overload)", res.RunsCompleted)
	}
	if len(res.Violations) != 0 {
		t.Errorf("invariant violations under overload: %v", res.Violations)
	}
	if err := AssertSLO(res, SLO{
		MaxShedRate: 0.99, MinShedRate: 0.2, MinAccepted: 1,
		MinRunsCompleted: 2, MaxGoroutineGrowth: 40,
	}); err != nil {
		t.Errorf("SLO that matches the measurement failed: %v", err)
	}
}

// TestRunOverloadBurstWithConcurrencyGate exercises the flash-crowd
// arrival process against the in-flight gate (the other shedding path).
func TestRunOverloadBurstWithConcurrencyGate(t *testing.T) {
	res, err := RunOverload(Scenario{
		Workers: 8, Runs: 1, Tasks: 2, Seed: 13,
		Admission:   tightAdmission(),
		Retry:       &noRetry,
		Arrival:     ArrivalBurst,
		Rate:        2500,
		BaseRate:    50,
		Duration:    400 * time.Millisecond,
		BurstPeriod: 100 * time.Millisecond,
		BurstLen:    40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Accepted + res.Shed + res.Failed; got != res.Offered {
		t.Errorf("partition broken: %d+%d+%d != offered %d", res.Accepted, res.Shed, res.Failed, res.Offered)
	}
	if res.Failed != 0 {
		t.Errorf("%d non-shed failures under burst", res.Failed)
	}
	if res.RunsCompleted != 1 || len(res.Violations) != 0 {
		t.Errorf("burst broke settlement: runs=%d violations=%v", res.RunsCompleted, res.Violations)
	}
}

// TestRunOverloadWithChaos is the combo soak: fault injection (errors,
// lost replies, latency) layered over admission control, with retrying
// clients. Settlement and the money invariants must hold through both.
func TestRunOverloadWithChaos(t *testing.T) {
	scenario := chaos.Scenario{Seed: 7, Err: 0.05, Lose: 0.02,
		DelayMin: 0, DelayMax: 2 * time.Millisecond}
	retry := platform.RetryPolicy{MaxAttempts: 6, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond}
	res, err := RunOverload(Scenario{
		Workers: 8, Runs: 2, Tasks: 2, Seed: 17,
		Admission: &platform.AdmissionConfig{TenantRatePerSec: 60, TenantBurst: 10,
			RetryAfter: 2 * time.Millisecond},
		Retry: &retry,
		WrapHandler: func(next http.Handler) http.Handler {
			h, err := chaos.Middleware(scenario, next)
			if err != nil {
				t.Fatal(err)
				return next
			}
			return h
		},
		Arrival:  ArrivalPoisson,
		Rate:     250,
		Duration: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RunsCompleted != 2 {
		t.Errorf("chaos+overload broke settlement: runs completed = %d, want 2", res.RunsCompleted)
	}
	if len(res.Violations) != 0 {
		t.Errorf("invariant violations under chaos+overload: %v", res.Violations)
	}
	if res.Accepted == 0 {
		t.Error("no bid survived chaos+overload; the retry layer should carry some through")
	}
}

func TestRunOverloadRejectsBadConfig(t *testing.T) {
	if _, err := RunOverload(Scenario{Rate: 0}); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := RunOverload(Scenario{Rate: 10, Arrival: "tsunami"}); err == nil {
		t.Error("unknown arrival process accepted")
	}
}

func TestAssertSLO(t *testing.T) {
	healthy := Result{
		Offered: 1000, Accepted: 700, Shed: 300, ShedRate: 0.3,
		RunsCompleted:  3,
		Latency:        Latency{N: 700, P50: 2, P99: 10},
		GoroutineStart: 10, GoroutineEnd: 12,
	}
	slo := SLO{
		MaxShedRate: 0.5, MinShedRate: 0.1, MinAccepted: 100,
		MinRunsCompleted: 3, MaxP99OverP50: 20, MaxGoroutineGrowth: 10,
	}
	if err := AssertSLO(healthy, slo); err != nil {
		t.Fatalf("healthy result failed: %v", err)
	}
	for name, breakIt := range map[string]func(*Result, *SLO){
		"violations":    func(r *Result, _ *SLO) { r.Violations = []string{"money leaked"} },
		"failures":      func(r *Result, _ *SLO) { r.Failed = 1 },
		"shed too high": func(_ *Result, s *SLO) { s.MaxShedRate = 0.1 },
		"shed too low":  func(_ *Result, s *SLO) { s.MinShedRate = 0.9 },
		"goodput":       func(_ *Result, s *SLO) { s.MinAccepted = 10000 },
		"settlement":    func(_ *Result, s *SLO) { s.MinRunsCompleted = 4 },
		"tail ratio":    func(r *Result, _ *SLO) { r.Latency.P99 = 100 },
		"absolute p99":  func(_ *Result, s *SLO) { s.MaxP99Ms = 5 },
		"goroutines":    func(r *Result, _ *SLO) { r.GoroutineEnd = 100 },
	} {
		r, s := healthy, slo
		breakIt(&r, &s)
		err := AssertSLO(r, s)
		if err == nil {
			t.Errorf("%s: violation not caught", name)
			continue
		}
		if !strings.Contains(err.Error(), "SLO violated") {
			t.Errorf("%s: error %q lacks the verdict prefix", name, err)
		}
	}
	// MaxShedRate < 0 disables the upper bound.
	r := healthy
	r.ShedRate = 1
	if err := AssertSLO(r, SLO{MaxShedRate: -1, MinRunsCompleted: 3}); err != nil {
		t.Errorf("disabled shed bound still enforced: %v", err)
	}
}

func TestCalibrateRate(t *testing.T) {
	rate, err := CalibrateRate(Scenario{Workers: 4, Runs: 1, Tasks: 2, BidsPerWorker: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rate <= 0 {
		t.Errorf("calibrated rate = %v, want > 0", rate)
	}
}
