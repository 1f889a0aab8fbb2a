package loadgen

// The open loop: arrivals fire on a schedule regardless of how fast the
// server answers, which is what actually happens when a flash crowd hits a
// crowdsourcing platform. The closed loop (Run) can never exceed the
// server's capacity, since every client politely waits, so it can never
// show what admission control does. RunOverload can.

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"melody"
	"melody/internal/stats"
)

// Arrival selects the open-loop arrival process.
type Arrival string

const (
	// ArrivalPoisson fires arrivals with exponential inter-arrival times at
	// a constant mean rate: the steady-overload scenario.
	ArrivalPoisson Arrival = "poisson"
	// ArrivalRamp grows the arrival rate linearly from BaseRate to Rate
	// over the phase: the scenario where load crosses capacity mid-run.
	ArrivalRamp Arrival = "ramp"
	// ArrivalBurst alternates BaseRate background traffic with Rate bursts
	// every BurstPeriod: the flash-crowd scenario.
	ArrivalBurst Arrival = "burst"
)

// rateAt is the instantaneous offered rate t seconds into the phase.
func (sc Scenario) rateAt(t float64) float64 {
	switch sc.Arrival {
	case ArrivalRamp:
		frac := t / sc.Duration.Seconds()
		if frac > 1 {
			frac = 1
		}
		return sc.BaseRate + (sc.Rate-sc.BaseRate)*frac
	case ArrivalBurst:
		period, burst := sc.BurstPeriod.Seconds(), sc.BurstLen.Seconds()
		if math.Mod(t, period) < burst {
			return sc.Rate
		}
		return sc.BaseRate
	default:
		return sc.Rate
	}
}

// schedule draws one phase's arrival offsets from the seeded stream: a
// non-homogeneous Poisson process via per-step exponential inter-arrivals
// at the instantaneous rate.
func (sc Scenario) schedule(rng *stats.RNG) []time.Duration {
	var ts []time.Duration
	d := sc.Duration.Seconds()
	for t := 0.0; ; {
		r := sc.rateAt(t)
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		t += -math.Log(u) / r
		if t >= d {
			return ts
		}
		ts = append(ts, time.Duration(t*float64(time.Second)))
	}
}

// arrive is the open-loop traffic shape: one bid for run at each instant
// of the schedule, round robin over t's workers, never waiting for the
// previous request. Falling behind the schedule fires immediately, which
// only makes a burst harsher. Every verdict lands in the tally.
func (p *pass) arrive(t *tenant, run string, at []time.Duration) {
	ctx := context.Background()
	start := time.Now()
	var wg sync.WaitGroup
	for i, a := range at {
		if d := time.Until(start.Add(a)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t0 := time.Now()
			err := t.be.SubmitBid(ctx, run, t.workers[w], melody.Bid{Cost: t.costs[w], Frequency: 1})
			_ = p.tally.record(melody.NewBatchResult([]error{err}), time.Since(t0))
		}(i % len(t.workers))
	}
	wg.Wait()
}

// RunOverload executes the open loop: for each run it opens the auction,
// fires bids on the arrival schedule without waiting for completions, then
// closes, scores and finishes through the exempt control plane, which must
// work however hard the bid path was shed. Admission should normally be
// set: an ungated server under sustained overload just accumulates
// latency. Rate is required; defaults are Run's plus ArrivalPoisson, a
// 2 s phase, BaseRate Rate/4, BurstPeriod Duration/4 and BurstLen
// BurstPeriod/4.
func RunOverload(sc Scenario) (Result, error) {
	sc = sc.withDefaults(Scenario{Runs: 3, Workers: 16})
	switch sc.Arrival = cmp.Or(sc.Arrival, ArrivalPoisson); sc.Arrival {
	case ArrivalPoisson, ArrivalRamp, ArrivalBurst:
	default:
		return Result{}, fmt.Errorf("loadgen: unknown arrival process %q", sc.Arrival)
	}
	if sc.Rate <= 0 {
		return Result{}, fmt.Errorf("loadgen: overload rate %v, want > 0", sc.Rate)
	}
	if sc.BaseRate <= 0 {
		sc.BaseRate = sc.Rate / 4
	}
	if sc.Duration <= 0 {
		sc.Duration = 2 * time.Second
	}
	if sc.BurstPeriod <= 0 {
		sc.BurstPeriod = sc.Duration / 4
	}
	if sc.BurstLen <= 0 {
		sc.BurstLen = sc.BurstPeriod / 4
	}
	var mu sync.Mutex
	rng := stats.NewRNG(sc.Seed)
	arrive := func(p *pass, t *tenant, run string) error {
		mu.Lock()
		at := sc.schedule(rng)
		mu.Unlock()
		p.arrive(t, run, at)
		return nil
	}
	res := newResult(sc)
	if _, err := runPass(sc, "load", tenants(sc), true, arrive, &res); err != nil {
		return res, err
	}
	return verdict(res)
}
