// Command melody-load is the serving-path load generator: it boots a real
// platform server (in memory, or WAL-backed the way melody-platform -wal
// builds it), drives every tenant's runs through it, and reports what the
// scenario measured. Each -scenario has its own defaults; a flag
// overrides one only when set:
//
//	closed    (default) every worker waits for its previous request
//	poisson   open-loop constant-rate arrivals at -rate (default 500/s)
//	ramp      open-loop rate ramp from -base-rate to -rate
//	burst     open-loop flash crowds: -rate bursts over -base-rate background
//	slo-smoke calibrate this machine's capacity, then assert the SLO gate
//	          at rated load and at 3x overload (CI entry point)
//	multirun  -tenants tenants' closed loops, serially then concurrently
//	          (-epoch-every 2); outcomes must match
//	fairness  -tenants tenants close every round through the fair gate, in
//	          process; asserts the close-latency ratio and tenant quotas
//
// Every scenario checks the books and goroutine leaks, and every random
// choice derives from -seed. The exit status is the verdict: refused
// everything, failed invariants or a missed SLO all exit nonzero.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"melody/internal/loadgen"
	"melody/internal/platform"
)

// scenarios maps each scenario name to what runs it and its defaults; the
// loadgen entry point fills the sizes left zero.
var scenarios = map[string]struct {
	run func(loadgen.Scenario) (loadgen.Result, error)
	def loadgen.Scenario
}{
	"closed":    {loadgen.Run, loadgen.Scenario{}},
	"poisson":   {loadgen.RunOverload, loadgen.Scenario{Arrival: loadgen.ArrivalPoisson, Rate: 500}},
	"ramp":      {loadgen.RunOverload, loadgen.Scenario{Arrival: loadgen.ArrivalRamp, Rate: 500}},
	"burst":     {loadgen.RunOverload, loadgen.Scenario{Arrival: loadgen.ArrivalBurst, Rate: 500}},
	"slo-smoke": {nil, loadgen.Scenario{}},
	"multirun":  {loadgen.RunMultiRun, loadgen.Scenario{EpochEvery: 2}},
	"fairness":  {loadgen.RunFairness, loadgen.Scenario{Direct: true}},
}

func main() {
	var sc loadgen.Scenario
	flag.StringVar(&sc.Backend, "backend", "", "backend: mem (default) or wal (group commit)")
	flag.StringVar(&sc.WALDir, "wal-dir", "", "directory for the WAL files (default: fresh temp dir)")
	flag.BoolVar(&sc.Direct, "direct", false, "drive the scheduler in process instead of over HTTP")
	flag.IntVar(&sc.Tenants, "tenants", 0, "concurrent tenants")
	flag.IntVar(&sc.Runs, "runs", 0, "runs per tenant")
	flag.IntVar(&sc.Workers, "workers", 0, "workers bidding in each tenant's runs")
	flag.IntVar(&sc.Tasks, "tasks", 0, "tasks per run")
	flag.Float64Var(&sc.Budget, "budget", 0, "budget per run")
	flag.IntVar(&sc.BidsPerWorker, "bids-per-worker", 0, "bids each worker submits per run (resubmissions after the first; closed loop)")
	flag.IntVar(&sc.Batch, "batch", 0, "bids per batch round trip (<=1 uses the single-bid endpoint; closed loop)")
	flag.Int64Var(&sc.Seed, "seed", 0, "RNG seed (0 means 1)")
	flag.IntVar(&sc.EpochEvery, "epoch-every", 0, "settle payouts every N finished runs (0 = per run)")
	flag.IntVar(&sc.CloseConcurrency, "close-concurrency", 0, "auction closes admitted at once through the weighted-fair gate (0: ungated, fairness 1)")
	flag.Float64Var(&sc.Rate, "rate", 0, "open loop: peak offered bids/sec")
	flag.Float64Var(&sc.BaseRate, "base-rate", 0, "open loop: ramp start / burst background rate (default rate/4)")
	flag.DurationVar(&sc.Duration, "duration", 0, "open loop: bidding phase length per run (default 2s)")
	flag.DurationVar(&sc.BurstPeriod, "burst-period", 0, "burst arrivals: flash crowd spacing (default duration/4)")
	flag.DurationVar(&sc.BurstLen, "burst-len", 0, "burst arrivals: flash crowd length (default period/4)")
	flag.BoolVar(&sc.Observe, "observe", false, "instrument the stack with metrics and trace spans; print a summary after the run")

	var adm platform.AdmissionConfig
	flag.IntVar(&adm.MaxInFlight, "max-inflight", 0, "server admission: concurrent ingest requests before queuing/shedding (0 disables)")
	flag.IntVar(&adm.MaxQueue, "admission-queue", 0, "server admission: ingest queue beyond -max-inflight")
	flag.DurationVar(&adm.QueueTimeout, "queue-timeout", 0, "server admission: longest a queued request waits (default 100ms)")
	flag.Float64Var(&adm.TenantRatePerSec, "tenant-rate", 0, "server admission: per-tenant ingest budget in requests/sec (0 disables)")
	flag.Float64Var(&adm.TenantBurst, "tenant-burst", 0, "server admission: per-tenant token bucket capacity")
	flag.DurationVar(&adm.RetryAfter, "retry-after", 0, "server admission: Retry-After hint on 429 sheds (default 250ms)")
	adaptive := flag.Bool("adaptive", false, "client: AIMD adaptive concurrency window, halved on 429")
	noRetry := flag.Bool("no-retry", false, "client: single attempt per request (honest overload accounting)")

	ratedFraction := flag.Float64("rated-fraction", 0.5, "slo-smoke: rated load as a fraction of calibrated capacity")
	overloadFactor := flag.Float64("overload-factor", 3, "slo-smoke: overload as a multiple of rated load")

	name := flag.String("scenario", "closed", "closed, poisson, ramp, burst, slo-smoke, multirun or fairness")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex contention profile to this file")
	blockProfile := flag.String("blockprofile", "", "write a blocking profile to this file")
	asJSON := flag.Bool("json", false, "emit the result as JSON")
	check := flag.Bool("check", false, "exit nonzero unless throughput is positive and runs completed (smoke-test mode)")
	flag.Parse()

	entry, ok := scenarios[*name]
	if !ok {
		fail(fmt.Errorf("unknown scenario %q", *name))
	}
	// Start from the scenario's defaults, then apply again every flag the
	// user set: the flags stay bound to sc's fields.
	set := map[string]string{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = f.Value.String() })
	sc = entry.def
	for name, v := range set {
		if err := flag.Set(name, v); err != nil {
			fail(err)
		}
	}
	if adm.MaxInFlight > 0 || adm.TenantRatePerSec > 0 {
		sc.Admission = &adm
	}
	if *adaptive {
		sc.Adaptive = &platform.AdaptiveConfig{}
	}
	if *noRetry {
		sc.Retry = &platform.RetryPolicy{MaxAttempts: 1}
	}
	if *mutexProfile != "" {
		runtime.SetMutexProfileFraction(1)
	}
	if *blockProfile != "" {
		runtime.SetBlockProfileRate(1)
	}

	var err error
	if entry.run == nil {
		err = sloSmoke(sc, *ratedFraction, *overloadFactor, *asJSON)
	} else {
		res, rerr := entry.run(sc)
		switch err = rerr; {
		case err != nil:
		case res.Accepted == 0:
			err = fmt.Errorf("server accepted nothing: %d shed, %d failed of %d offered: the run did no work",
				res.Shed, res.Failed, res.Offered)
		case *check && (res.BidsPerSec <= 0 || res.RunsCompleted == 0):
			err = fmt.Errorf("check failed: %.0f bids/sec sustained, %d runs completed", res.BidsPerSec, res.RunsCompleted)
		}
		if rerr == nil && *asJSON {
			err = errors.Join(err, printJSON(res))
		} else if rerr == nil {
			printResult(res)
		}
	}
	// The contention profiles cover the scenario just driven; write them
	// even when the scenario failed (a hung or contended run is exactly
	// when the profile matters).
	for _, p := range []struct{ name, path string }{{"mutex", *mutexProfile}, {"block", *blockProfile}} {
		if perr := writeProfile(p.name, p.path); perr != nil && err == nil {
			err = perr
		}
	}
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "melody-load:", err)
	os.Exit(1)
}

// writeProfile dumps one named runtime profile (pprof format) to path,
// if one is given.
func writeProfile(name, path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		return fmt.Errorf("write %s profile: %w", name, err)
	}
	fmt.Printf("%s profile written to %s\n", name, path)
	return nil
}

// printResult prints what a scenario measured, section by section.
func printResult(res loadgen.Result) {
	fmt.Printf("backend=%s arrival=%s tenants=%d: %d runs completed in %.3fs\n",
		res.Backend, res.Arrival, res.Tenants, res.RunsCompleted, res.ElapsedSeconds)
	fmt.Printf("bids: %d offered -> %d accepted, %d shed (429, %.1f%%), %d failed",
		res.Offered, res.Accepted, res.Shed, 100*res.ShedRate, res.Failed)
	if res.BidPhaseSeconds > 0 {
		fmt.Printf(" in %.3fs of bidding -> %.0f offered/sec, %.0f bids/sec sustained",
			res.BidPhaseSeconds, res.OfferedPerSec, res.BidsPerSec)
	}
	fmt.Println()
	if l := res.Latency; l.N > 0 {
		fmt.Printf("accepted latency (per round trip, n=%d): p50=%.3fms p95=%.3fms p99=%.3fms max=%.3fms\n",
			l.N, l.P50, l.P95, l.P99, l.Max)
	}
	if res.SerialSeconds > 0 {
		fmt.Printf("serial pass: %.3fs (%.1f runs/sec); second pass %.1f runs/sec -> %.2fx; outcomes byte-identical: %v; payout epochs: %d\n",
			res.SerialSeconds, float64(res.RunsCompleted)/res.SerialSeconds,
			float64(res.RunsCompleted)/res.ElapsedSeconds, res.Speedup, res.OutcomesMatch, res.Epochs)
	}
	if res.FairnessRatio > 0 {
		fmt.Printf("median close latency across tenants: %.3f..%.3f ms -> fairness ratio %.2f\n",
			res.MinMedianCloseMs, res.MaxMedianCloseMs, res.FairnessRatio)
		fmt.Printf("per tenant: median close ms %.3f, mean volley position %.2f, median volley position %.1f, back-half volleys %d\n",
			res.TenantMedianCloseMs, res.TenantMeanPosition, res.TenantMedianPosition, res.TenantBackHalf)
		fmt.Printf("quota: %d/%d over-quota opens refused; spend matches ledger: %v; WAL replay consistent: %v\n",
			res.QuotaRefusals, res.Tenants, res.SpentMatchesLedger, res.ReplayConsistent)
	}
	fmt.Printf("goroutines %d -> %d\n", res.GoroutineStart, res.GoroutineEnd)
	if res.Metrics != nil {
		fmt.Printf("client retries: %d\nspans (name count mean max):\n", res.ClientRetries)
		for _, st := range res.TraceSummary {
			fmt.Printf("  %-18s %6d  %8.1fus  %8dus\n", st.Name, st.Count, st.MeanUS, st.MaxUS)
		}
		fmt.Println("key series:")
		for _, name := range []string{`melody_http_requests_total{endpoint="bid"}`, `melody_http_requests_total{endpoint="bid_batch"}`,
			`melody_admission_shed_total{endpoint="bid"}`, "melody_wal_commits_total", "melody_runs_completed_total"} {
			if v, ok := res.Metrics[name]; ok {
				fmt.Printf("  %s = %g\n", name, v)
			}
		}
	}
}

// sloSmoke is the CI gate: calibrate this machine's closed-loop capacity,
// then assert the SLO at a rated fraction of it and under a deliberate
// overload multiple. Every target is relative to the calibration (rates)
// or to the run's own measurements (tail ratio, shed fractions), so the
// gate is machine-scaled rather than a hard-coded latency that flakes on
// loaded CI hardware.
func sloSmoke(sc loadgen.Scenario, ratedFraction, overloadFactor float64, asJSON bool) error {
	if ratedFraction <= 0 || ratedFraction > 1 || overloadFactor <= 1 {
		return fmt.Errorf("rated fraction %v outside (0, 1] or overload factor %v not above 1", ratedFraction, overloadFactor)
	}
	cal := sc
	cal.Workers, cal.Runs, cal.Tasks, cal.BidsPerWorker, cal.Batch = 8, 1, 2, 60, 0
	cal.Adaptive = nil
	capacity, err := loadgen.CalibrateRate(cal)
	if err != nil {
		return err
	}
	// Open-loop arrivals each take a goroutine; cap the rate so the smoke
	// stays cheap even on machines that calibrate very fast.
	rated := min(ratedFraction*capacity, 1000)
	overload := overloadFactor * rated
	fmt.Printf("calibrated capacity: %.0f bids/sec closed-loop; rated=%.0f/sec, overload=%.0f/sec\n",
		capacity, rated, overload)

	// The gate the smoke runs against: a per-tenant budget a little above
	// rated, so rated traffic passes and the overload multiple must shed.
	smoke := sc
	smoke.Runs, smoke.Arrival = 2, loadgen.ArrivalPoisson
	smoke.Retry = &platform.RetryPolicy{MaxAttempts: 1}
	smoke.Admission = &platform.AdmissionConfig{
		TenantRatePerSec: rated * 1.25,
		TenantBurst:      rated / 2,
		RetryAfter:       20 * time.Millisecond,
	}
	results := map[string]any{"capacity_bids_per_sec": capacity}
	var failed []error
	for _, step := range []struct {
		name string
		rate float64
		slo  loadgen.SLO
	}{
		// Poisson bursts above a freshly drained token bucket can shed a
		// little even at rated load; more than 10% means the gate is
		// mis-sized for the machine.
		{"rated", rated, loadgen.SLO{MaxShedRate: 0.10, MinAccepted: 1, MinRunsCompleted: smoke.Runs,
			MaxP99OverP50: 100, MaxGoroutineGrowth: 50}},
		// At F times the budget the shed floor is (F-1)/F minus bucket
		// slack; assert half of that so the bound is robust, and require
		// real goodput plus full settlement with clean books.
		{"overload", overload, loadgen.SLO{MaxShedRate: 0.999, MinShedRate: 0.5 * (overloadFactor - 1) / overloadFactor,
			MinAccepted: 1, MinRunsCompleted: smoke.Runs, MaxGoroutineGrowth: 50}},
	} {
		smoke.Rate = step.rate
		res, err := loadgen.RunOverload(smoke)
		if err != nil {
			return fmt.Errorf("%s run: %w", step.name, err)
		}
		fmt.Printf("-- %s load --\n", step.name)
		printResult(res)
		results[step.name] = res
		if err := loadgen.AssertSLO(res, step.slo); err != nil {
			failed = append(failed, fmt.Errorf("%s: %w", step.name, err))
		}
	}
	if asJSON {
		if err := printJSON(results); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%v", failed)
	}
	fmt.Println("SLO gate: PASS")
	return nil
}

func printJSON(v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
