package loadgen

// Open-loop overload scenarios: arrivals fire on a schedule regardless of
// how fast the server answers, which is what actually happens when a flash
// crowd hits a crowdsourcing platform. Closed-loop load (Run) can never
// exceed the server's capacity — every client politely waits — so it can
// never show what admission control does. RunOverload can.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"melody"
	"melody/internal/platform"
	"melody/internal/stats"
	"melody/internal/verify"
)

// Arrival selects the open-loop arrival process.
type Arrival string

const (
	// ArrivalPoisson fires arrivals with exponential inter-arrival times at
	// a constant mean rate — the steady-overload scenario.
	ArrivalPoisson Arrival = "poisson"
	// ArrivalRamp grows the arrival rate linearly from BaseRate to Rate
	// over the phase — the scenario where load crosses capacity mid-run.
	ArrivalRamp Arrival = "ramp"
	// ArrivalBurst alternates BaseRate background traffic with Rate bursts
	// every BurstPeriod — the flash-crowd scenario.
	ArrivalBurst Arrival = "burst"
)

// OverloadConfig parameterizes an open-loop overload run.
type OverloadConfig struct {
	// Load is the harness configuration. Admission should normally be set —
	// an ungated server under sustained overload just accumulates latency.
	// Ledger is forced on: the money invariants are the point.
	Load Config
	// Arrival is the arrival process; default ArrivalPoisson.
	Arrival Arrival
	// Rate is the peak offered load in bids/sec (mean rate for Poisson, end
	// rate for ramp, burst rate for burst). Required.
	Rate float64
	// BaseRate is the ramp's start rate / the burst scenario's background
	// rate; default Rate/4. Ignored by ArrivalPoisson.
	BaseRate float64
	// Duration is each run's bidding phase length; default 2s.
	Duration time.Duration
	// BurstPeriod spaces flash crowds; default Duration/4.
	BurstPeriod time.Duration
	// BurstLen is each flash crowd's length; default BurstPeriod/4.
	BurstLen time.Duration
}

func (c OverloadConfig) withDefaults() (OverloadConfig, error) {
	c.Load = c.Load.withDefaults()
	c.Load.Ledger = true
	if c.Arrival == "" {
		c.Arrival = ArrivalPoisson
	}
	switch c.Arrival {
	case ArrivalPoisson, ArrivalRamp, ArrivalBurst:
	default:
		return c, fmt.Errorf("loadgen: unknown arrival process %q", c.Arrival)
	}
	if c.Rate <= 0 {
		return c, fmt.Errorf("loadgen: overload rate %v, want > 0", c.Rate)
	}
	if c.BaseRate <= 0 {
		c.BaseRate = c.Rate / 4
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.BurstPeriod <= 0 {
		c.BurstPeriod = c.Duration / 4
	}
	if c.BurstLen <= 0 {
		c.BurstLen = c.BurstPeriod / 4
	}
	return c, nil
}

// rateAt is the instantaneous offered rate t seconds into the phase.
func (c OverloadConfig) rateAt(t float64) float64 {
	switch c.Arrival {
	case ArrivalRamp:
		frac := t / c.Duration.Seconds()
		if frac > 1 {
			frac = 1
		}
		return c.BaseRate + (c.Rate-c.BaseRate)*frac
	case ArrivalBurst:
		period, burst := c.BurstPeriod.Seconds(), c.BurstLen.Seconds()
		if math.Mod(t, period) < burst {
			return c.Rate
		}
		return c.BaseRate
	default:
		return c.Rate
	}
}

// schedule draws one phase's arrival offsets from the seeded stream: a
// non-homogeneous Poisson process via per-step exponential inter-arrivals
// at the instantaneous rate.
func (c OverloadConfig) schedule(rng *stats.RNG) []time.Duration {
	var ts []time.Duration
	d := c.Duration.Seconds()
	for t := 0.0; ; {
		r := c.rateAt(t)
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

// OverloadResult is what an open-loop overload run measured.
type OverloadResult struct {
	Arrival Arrival `json:"arrival"`
	Backend string  `json:"backend"`
	// Offered is the number of arrivals the schedule fired.
	Offered int `json:"offered"`
	// Accepted, Shed, Failed partition Offered: platform took the bid,
	// admission refused it with 429, or something else went wrong.
	Accepted int `json:"accepted"`
	Shed     int `json:"shed"`
	Failed   int `json:"failed"`
	// ShedRate is Shed / Offered.
	ShedRate float64 `json:"shed_rate"`
	// OfferedPerSec and GoodputPerSec are offered and accepted throughput
	// over the bidding phases.
	OfferedPerSec float64 `json:"offered_per_sec"`
	GoodputPerSec float64 `json:"goodput_per_sec"`
	// Latency summarizes accepted bids only — shed round trips are the
	// fast path by design and would flatter the tail.
	Latency Latency `json:"latency"`
	// RunsCompleted counts runs that opened, closed, scored and finished.
	// Overload must never stop a run from settling: this equals Load.Runs
	// on a healthy server no matter how hard the bid path was shed.
	RunsCompleted int `json:"runs_completed"`
	// Violations lists every invariant the post-run verification found
	// broken (money conservation, escrow settlement). Empty on a healthy
	// run.
	Violations []string `json:"violations,omitempty"`
	// GoroutineStart/End bracket the run; a large delta after shutdown
	// means the overload leaked goroutines.
	GoroutineStart int `json:"goroutine_start"`
	GoroutineEnd   int `json:"goroutine_end"`
	// ElapsedSeconds is the whole scenario.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// Metrics is the post-run scrape (Load.Observe only), taken before
	// shutdown so gauges still carry their final values.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// RunOverload executes one open-loop overload scenario: for each run it
// opens the auction, fires bids on the arrival schedule without waiting
// for completions, then closes, scores and finishes through the exempt
// control plane. After the last run it verifies the money invariants and
// checks the process drained.
func RunOverload(cfg OverloadConfig) (OverloadResult, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return OverloadResult{}, err
	}
	res := OverloadResult{
		Arrival: cfg.Arrival, Backend: cfg.Load.Backend,
		GoroutineStart: runtime.NumGoroutine(),
	}

	h, err := startHarness(cfg.Load)
	if err != nil {
		return OverloadResult{}, err
	}
	defer h.close()

	bidClient, err := h.client()
	if err != nil {
		return OverloadResult{}, err
	}
	control, err := h.controlClient()
	if err != nil {
		return OverloadResult{}, err
	}

	ctx := context.Background()
	rng := stats.NewRNG(cfg.Load.Seed)
	workerIDs := make([]string, cfg.Load.Workers)
	costs := make([]float64, cfg.Load.Workers)
	for i := range workerIDs {
		workerIDs[i] = fmt.Sprintf("w%04d", i)
		costs[i] = rng.Uniform(1, 2)
		if err := control.RegisterWorker(ctx, workerIDs[i]); err != nil {
			return OverloadResult{}, fmt.Errorf("loadgen: register %s: %w", workerIDs[i], err)
		}
	}

	var accepted, shed, failed atomic.Int64
	var latMu sync.Mutex
	var latencies []float64
	var phaseSeconds float64

	start := time.Now()
	for run := 1; run <= cfg.Load.Runs; run++ {
		tasks := make([]platform.TaskSpec, cfg.Load.Tasks)
		for j := range tasks {
			tasks[j] = platform.TaskSpec{ID: fmt.Sprintf("r%d-t%d", run, j), Threshold: 10}
		}
		ctl, err := control.OpenRunID(ctx, "", "", tasks, cfg.Load.Budget)
		if err != nil {
			return res, fmt.Errorf("loadgen: open run %d: %w", run, err)
		}
		bids := bidClient.Run(ctl.ID())

		arrivals := cfg.schedule(rng)
		res.Offered += len(arrivals)
		phaseStart := time.Now()
		var wg sync.WaitGroup
		for i, at := range arrivals {
			// Open loop: wait for the arrival instant, never for the
			// previous request. Falling behind the schedule fires
			// immediately, which only makes the burst harsher.
			if d := time.Until(phaseStart.Add(at)); d > 0 {
				time.Sleep(d)
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				w := i % len(workerIDs)
				t0 := time.Now()
				err := bids.SubmitBid(ctx, workerIDs[w], costs[w], 1)
				switch {
				case err == nil:
					ms := float64(time.Since(t0).Microseconds()) / 1000
					latMu.Lock()
					latencies = append(latencies, ms)
					latMu.Unlock()
					accepted.Add(1)
				case overloadedErr(err):
					shed.Add(1)
				default:
					failed.Add(1)
				}
			}(i)
		}
		wg.Wait()
		phaseSeconds += time.Since(phaseStart).Seconds()

		// Settlement through the exempt control plane: this must work no
		// matter how hard the bid path was shed.
		out, err := ctl.CloseAuction(ctx)
		if err != nil {
			return res, fmt.Errorf("loadgen: close run %d: %w", run, err)
		}
		scores := make([]platform.ScoreRequest, 0, len(out.Assignments))
		for _, asg := range out.Assignments {
			scores = append(scores, platform.ScoreRequest{
				WorkerID: asg.WorkerID, TaskID: asg.TaskID, Score: rng.Uniform(1, 10),
			})
		}
		if len(scores) > 0 {
			sres, err := ctl.SubmitScores(ctx, scores)
			if err != nil {
				return res, fmt.Errorf("loadgen: score run %d: %w", run, err)
			}
			if err := sres.Err(); err != nil {
				return res, fmt.Errorf("loadgen: score run %d: %w", run, err)
			}
		}
		if err := ctl.FinishRun(ctx); err != nil {
			return res, fmt.Errorf("loadgen: finish run %d: %w", run, err)
		}
		res.RunsCompleted++
	}
	res.ElapsedSeconds = time.Since(start).Seconds()
	res.Accepted = int(accepted.Load())
	res.Shed = int(shed.Load())
	res.Failed = int(failed.Load())
	if res.Offered > 0 {
		res.ShedRate = float64(res.Shed) / float64(res.Offered)
	}
	if phaseSeconds > 0 {
		res.OfferedPerSec = float64(res.Offered) / phaseSeconds
		res.GoodputPerSec = float64(res.Accepted) / phaseSeconds
	}
	if len(latencies) > 0 {
		res.Latency, err = summarize(latencies)
		if err != nil {
			return res, err
		}
	}

	// The money invariants hold exactly however much was shed: every run's
	// escrow was paid out or refunded, and not a unit was minted or lost.
	if h.money != nil {
		if err := verify.CheckMoneyConservation(h.money); err != nil {
			res.Violations = append(res.Violations, err.Error())
		}
		if err := verify.CheckEscrowSettled(h.money); err != nil {
			res.Violations = append(res.Violations, err.Error())
		}
	}
	if got := h.sched.CompletedRuns(); got != cfg.Load.Runs {
		res.Violations = append(res.Violations,
			fmt.Sprintf("loadgen: platform completed %d runs, want %d", got, cfg.Load.Runs))
	}

	if cfg.Load.Observe {
		series, err := h.scrape()
		if err != nil {
			return res, err
		}
		res.Metrics = series
	}

	if err := h.shutdown(); err != nil {
		return res, err
	}
	// Give transient goroutines (HTTP conns, timers) a moment to drain
	// before reading the end count, so the growth check measures leaks,
	// not scheduling.
	deadline := time.Now().Add(2 * time.Second)
	for {
		res.GoroutineEnd = runtime.NumGoroutine()
		if res.GoroutineEnd <= res.GoroutineStart || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	return res, nil
}

// overloadedErr reports whether err is an admission shed.
func overloadedErr(err error) bool {
	return errors.Is(err, melody.ErrOverloaded)
}
