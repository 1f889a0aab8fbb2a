// Command melody-load is the serving-path load generator: it boots a real
// platform server (in-memory or WAL-backed), drives worker clients against
// it, and reports throughput with p50/p95/p99 latency.
//
// Scenarios:
//
//	closed    (default) every worker waits for its previous request — the
//	          throughput/latency measurement behind the serve/ kernels
//	poisson   open-loop constant-rate arrivals (use with -rate)
//	ramp      open-loop rate ramp from -base-rate to -rate
//	burst     open-loop flash crowds: -rate bursts over -base-rate background
//	slo-smoke calibrate this machine's capacity, then run rated load and a
//	          3x overload and assert the SLO gate (CI entry point)
//	multirun  mixed-tenant concurrency: -tenants tenants each drive -runs
//	          overlapping runs through the run scheduler, once serially and
//	          once concurrently; asserts identical outcomes, money
//	          conservation, tenant quota invariants and zero goroutine leaks
//	fairness  weighted-fair close scheduling: -tenants tenants close every
//	          round through a -close-concurrency gate; asserts the max/min
//	          median close-latency ratio, quota refusals, ledger-exact
//	          spend accounting and quota survival across WAL replay
//
// Usage:
//
//	melody-load                               # closed loop, in-memory, defaults
//	melody-load -backend wal -workers 64      # group-commit WAL under load
//	melody-load -scenario poisson -rate 500 -max-inflight 8 -admission-queue 16
//	melody-load -scenario slo-smoke           # machine-scaled CI gate
//	melody-load -scenario multirun -tenants 2 -runs 4 -check
//	melody-load -json                         # machine-readable result
//	melody-load -check                        # exit nonzero unless real work happened
//	melody-load -mutexprofile mutex.pprof -blockprofile block.pprof
//	                                          # write contention profiles
//
// Every random choice derives from -seed, so runs are reproducible. The
// exit status is the verdict: refused-everything, failed invariants or a
// missed SLO all exit nonzero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"melody/internal/loadgen"
	"melody/internal/platform"
)

func main() {
	var cfg loadgen.Config
	flag.StringVar(&cfg.Backend, "backend", loadgen.BackendMem,
		"backend: mem or wal (group commit)")
	flag.StringVar(&cfg.WALDir, "wal-dir", "", "directory for the WAL file (default: fresh temp dir)")
	flag.IntVar(&cfg.Workers, "workers", 16, "concurrent worker clients")
	flag.IntVar(&cfg.Runs, "runs", 3, "complete runs to drive")
	flag.IntVar(&cfg.Tasks, "tasks", 4, "tasks per run")
	flag.Float64Var(&cfg.Budget, "budget", 200, "budget per run")
	flag.IntVar(&cfg.BidsPerWorker, "bids-per-worker", 8, "bids each worker submits per run (resubmissions after the first; closed loop only)")
	flag.IntVar(&cfg.Batch, "batch", 1, "bids per batch round trip (<=1 uses the single-bid endpoint; closed loop only)")
	flag.Int64Var(&cfg.Seed, "seed", 1, "RNG seed")
	flag.StringVar(&cfg.Tenant, "tenant", "", "X-Melody-Tenant header sent by the load clients")
	flag.BoolVar(&cfg.Observe, "observe", false, "instrument the stack with metrics and trace spans; print a summary after the run")

	scenario := flag.String("scenario", "closed", "closed, poisson, ramp, burst, slo-smoke, multirun or fairness")
	rate := flag.Float64("rate", 500, "open loop: peak offered bids/sec")
	baseRate := flag.Float64("base-rate", 0, "open loop: ramp start / burst background rate (default rate/4)")
	duration := flag.Duration("duration", 2*time.Second, "open loop: bidding phase length per run")
	burstPeriod := flag.Duration("burst-period", 0, "burst arrivals: flash crowd spacing (default duration/4)")
	burstLen := flag.Duration("burst-len", 0, "burst arrivals: flash crowd length (default period/4)")

	maxInflight := flag.Int("max-inflight", 0, "server admission: concurrent ingest requests before queuing/shedding (0 disables)")
	admitQueue := flag.Int("admission-queue", 0, "server admission: ingest queue beyond -max-inflight")
	queueTO := flag.Duration("queue-timeout", 0, "server admission: longest a queued request waits (default 100ms)")
	tenantRate := flag.Float64("tenant-rate", 0, "server admission: per-tenant ingest budget in requests/sec (0 disables)")
	tenantBurst := flag.Float64("tenant-burst", 0, "server admission: per-tenant token bucket capacity")
	retryAfter := flag.Duration("retry-after", 0, "server admission: Retry-After hint on 429 sheds (default 250ms)")
	adaptive := flag.Bool("adaptive", false, "client: AIMD adaptive concurrency window, halved on 429")
	noRetryFlag := flag.Bool("no-retry", false, "client: single attempt per request (honest overload accounting)")

	ratedFraction := flag.Float64("rated-fraction", 0.5, "slo-smoke: rated load as a fraction of calibrated capacity")
	overloadFactor := flag.Float64("overload-factor", 3, "slo-smoke: overload as a multiple of rated load")

	tenants := flag.Int("tenants", 2, "multirun/fairness: concurrent tenants")
	workersPerTenant := flag.Int("workers-per-tenant", 8, "multirun/fairness: workers bidding in each tenant's runs")
	epochEvery := flag.Int("epoch-every", 2, "multirun: settle payouts every N finished runs (0 = per run)")
	direct := flag.Bool("direct", false, "multirun: drive the scheduler in-process instead of over HTTP")
	closeConc := flag.Int("close-concurrency", 0, "auction closes admitted at once through the weighted-fair gate (0: multirun ungated, fairness serialized)")
	maxRatio := flag.Float64("max-ratio", 2, "fairness: acceptance bound on max/min median close latency across tenants")

	mutexProfile := flag.String("mutexprofile", "", "write a mutex contention profile to this file")
	blockProfile := flag.String("blockprofile", "", "write a blocking profile to this file")

	asJSON := flag.Bool("json", false, "emit the result as JSON")
	check := flag.Bool("check", false, "exit nonzero unless throughput is positive (smoke-test mode)")
	flag.Parse()

	if *mutexProfile != "" {
		runtime.SetMutexProfileFraction(1)
	}
	if *blockProfile != "" {
		runtime.SetBlockProfileRate(1)
	}

	if *maxInflight > 0 || *tenantRate > 0 {
		cfg.Admission = &platform.AdmissionConfig{
			MaxInFlight: *maxInflight, MaxQueue: *admitQueue, QueueTimeout: *queueTO,
			TenantRatePerSec: *tenantRate, TenantBurst: *tenantBurst, RetryAfter: *retryAfter,
		}
	}
	if *adaptive {
		cfg.Adaptive = &platform.AdaptiveConfig{}
	}
	if *noRetryFlag {
		cfg.Retry = &platform.RetryPolicy{MaxAttempts: 1}
	}

	var err error
	switch *scenario {
	case "closed":
		err = runClosed(cfg, *asJSON, *check)
	case "poisson", "ramp", "burst":
		err = runOverload(loadgen.OverloadConfig{
			Load: cfg, Arrival: loadgen.Arrival(*scenario),
			Rate: *rate, BaseRate: *baseRate, Duration: *duration,
			BurstPeriod: *burstPeriod, BurstLen: *burstLen,
		}, *asJSON)
	case "slo-smoke":
		err = runSLOSmoke(cfg, *ratedFraction, *overloadFactor, *duration, *asJSON)
	case "multirun":
		err = runMultiRun(loadgen.MultiRunConfig{
			Tenants: *tenants, RunsPerTenant: cfg.Runs, WorkersPerTenant: *workersPerTenant,
			Tasks: cfg.Tasks, Budget: cfg.Budget, BidsPerWorker: cfg.BidsPerWorker,
			Batch: cfg.Batch, Seed: cfg.Seed, EpochEvery: *epochEvery,
			Backend: cfg.Backend, WALDir: cfg.WALDir, Direct: *direct,
			CloseConcurrency: *closeConc,
		}, *asJSON, *check)
	case "fairness":
		// The generic flags carry non-zero defaults sized for other
		// scenarios; forward only the ones the user actually set, so the
		// fairness scenario's own (heavier) defaults apply otherwise.
		fcfg := loadgen.FairnessConfig{Seed: cfg.Seed, CloseConcurrency: *closeConc, MaxRatio: *maxRatio}
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "tenants":
				fcfg.Tenants = *tenants
			case "runs":
				fcfg.Rounds = cfg.Runs
			case "workers-per-tenant":
				fcfg.WorkersPerTenant = *workersPerTenant
			case "tasks":
				fcfg.Tasks = cfg.Tasks
			case "budget":
				fcfg.Budget = cfg.Budget
			}
		})
		err = runFairness(fcfg, *asJSON, *check)
	default:
		err = fmt.Errorf("unknown scenario %q", *scenario)
	}
	// The contention profiles cover the scenario just driven; write them
	// even when the scenario failed (a hung or contended run is exactly
	// when the profile matters).
	if *mutexProfile != "" {
		if perr := writeProfile("mutex", *mutexProfile); perr != nil && err == nil {
			err = perr
		}
	}
	if *blockProfile != "" {
		if perr := writeProfile("block", *blockProfile); perr != nil && err == nil {
			err = perr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "melody-load:", err)
		os.Exit(1)
	}
}

// writeProfile dumps one named runtime profile (pprof format).
func writeProfile(name, path string) error {
	p := pprof.Lookup(name)
	if p == nil {
		return fmt.Errorf("no %s profile", name)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := p.WriteTo(f, 0); err != nil {
		return fmt.Errorf("write %s profile: %w", name, err)
	}
	fmt.Printf("%s profile written to %s\n", name, path)
	return nil
}

// runMultiRun drives the mixed-tenant scenario and prints the serial vs
// concurrent comparison. Outcome divergence, conservation failures and
// goroutine leaks surface as errors from loadgen.
func runMultiRun(cfg loadgen.MultiRunConfig, asJSON, check bool) error {
	res, err := loadgen.RunMultiRun(cfg)
	if err != nil {
		return err
	}
	if asJSON {
		return printJSON(res)
	}
	fmt.Printf("tenants=%d runs-per-tenant=%d (%d total), %d bids per pass\n",
		res.Tenants, res.RunsPerTenant, res.TotalRuns, res.Bids)
	fmt.Printf("serial:     %.3fs (%.1f runs/sec)\n", res.SerialSeconds, res.SerialRunsPerSec)
	fmt.Printf("concurrent: %.3fs (%.1f runs/sec) -> %.2fx goodput\n",
		res.ConcurrentSeconds, res.ConcurrentRunsPerSec, res.Speedup)
	fmt.Printf("outcomes byte-identical across passes: %v; payout epochs: %d\n",
		res.OutcomesMatch, res.Epochs)
	if check && res.ConcurrentRunsPerSec <= 0 {
		return fmt.Errorf("check failed: no sustained multirun throughput")
	}
	return nil
}

// runFairness drives the weighted-fair close scheduling scenario and
// prints the fairness and quota verdicts. A ratio breach, outcome
// divergence, missed quota refusal or replay inconsistency surfaces as an
// error from loadgen.
func runFairness(cfg loadgen.FairnessConfig, asJSON, check bool) error {
	res, err := loadgen.RunFairness(cfg)
	if err != nil {
		return err
	}
	if asJSON {
		return printJSON(res)
	}
	fmt.Printf("tenants=%d rounds=%d (%d total runs), close-concurrency=%d\n",
		res.Tenants, res.Rounds, res.TotalRuns, res.CloseConcurrency)
	fmt.Printf("median close latency across tenants: %.3f..%.3f ms -> fairness ratio %.2f\n",
		res.MinMedianCloseMs, res.MaxMedianCloseMs, res.FairnessRatio)
	fmt.Printf("per tenant: median close ms %.3f, mean volley position %.2f, median volley position %.1f, back-half volleys %d of %d\n",
		res.TenantMedianCloseMs, res.TenantMeanPosition, res.TenantMedianPosition, res.TenantBackHalf, res.Rounds)
	fmt.Printf("outcomes byte-identical across passes: %v\n", res.OutcomesMatch)
	fmt.Printf("quota: %d/%d over-quota opens refused; spend matches ledger: %v; WAL replay consistent: %v\n",
		res.QuotaRefusals, res.Tenants, res.SpentMatchesLedger, res.ReplayConsistent)
	fmt.Printf("serial: %.3fs, concurrent: %.3fs\n", res.SerialSeconds, res.ConcurrentSeconds)
	if check && res.QuotaRefusals != res.Tenants {
		return fmt.Errorf("check failed: %d quota refusals, want %d", res.QuotaRefusals, res.Tenants)
	}
	return nil
}

// runClosed is the classic closed-loop measurement. A server that refuses
// every request is a failing run: accepted work, not attempted work, is
// the product.
func runClosed(cfg loadgen.Config, asJSON, check bool) error {
	res, err := loadgen.Run(cfg)
	if err != nil {
		return err
	}
	if asJSON {
		return printJSON(res)
	}
	fmt.Printf("backend=%s workers=%d runs=%d\n", res.Backend, res.Workers, res.Runs)
	fmt.Printf("bids: %d accepted", res.Bids)
	if res.Shed > 0 {
		fmt.Printf(", %d shed (429)", res.Shed)
	}
	fmt.Printf(" in %.3fs of bidding -> %.0f bids/sec sustained\n",
		res.BidPhaseSeconds, res.BidsPerSec)
	fmt.Printf("latency (per submission round trip, n=%d): p50=%.3fms p95=%.3fms p99=%.3fms max=%.3fms\n",
		res.Latency.N, res.Latency.P50, res.Latency.P95, res.Latency.P99, res.Latency.Max)
	fmt.Printf("total elapsed: %.3fs\n", res.ElapsedSeconds)
	if cfg.Observe {
		fmt.Printf("client retries: %d\n", res.ClientRetries)
		fmt.Println("spans (name count mean max):")
		for _, st := range res.TraceSummary {
			fmt.Printf("  %-18s %6d  %8.1fus  %8dus\n", st.Name, st.Count, st.MeanUS, st.MaxUS)
		}
		fmt.Println("key series:")
		for _, name := range []string{
			"melody_http_requests_total{endpoint=\"bid\"}",
			"melody_http_requests_total{endpoint=\"bid_batch\"}",
			"melody_admission_shed_total{endpoint=\"bid\"}",
			"melody_wal_commits_total",
			"melody_runs_completed_total",
		} {
			if v, ok := res.Metrics[name]; ok {
				fmt.Printf("  %s = %g\n", name, v)
			}
		}
	}
	if res.Bids == 0 {
		return fmt.Errorf("server accepted nothing: 0 accepted, %d shed — the run did no work", res.Shed)
	}
	if check && res.BidsPerSec <= 0 {
		return fmt.Errorf("check failed: no sustained throughput")
	}
	return nil
}

// runOverload drives one open-loop scenario and reports the breakdown;
// invariant violations exit nonzero.
func runOverload(cfg loadgen.OverloadConfig, asJSON bool) error {
	res, err := loadgen.RunOverload(cfg)
	if err != nil {
		return err
	}
	if asJSON {
		if err := printJSON(res); err != nil {
			return err
		}
	} else {
		printOverload(res)
	}
	if res.Accepted == 0 {
		return fmt.Errorf("server accepted nothing: 0 accepted, %d shed, %d failed of %d offered",
			res.Shed, res.Failed, res.Offered)
	}
	if len(res.Violations) > 0 {
		return fmt.Errorf("%d invariant violations (see output)", len(res.Violations))
	}
	return nil
}

func printOverload(res loadgen.OverloadResult) {
	fmt.Printf("scenario=%s backend=%s\n", res.Arrival, res.Backend)
	fmt.Printf("offered: %d (%.0f/sec) -> accepted %d (%.0f/sec goodput), shed %d (%.1f%%), failed %d\n",
		res.Offered, res.OfferedPerSec, res.Accepted, res.GoodputPerSec,
		res.Shed, 100*res.ShedRate, res.Failed)
	if res.Latency.N > 0 {
		fmt.Printf("accepted latency (n=%d): p50=%.3fms p95=%.3fms p99=%.3fms max=%.3fms\n",
			res.Latency.N, res.Latency.P50, res.Latency.P95, res.Latency.P99, res.Latency.Max)
	}
	fmt.Printf("runs completed: %d; goroutines %d -> %d; elapsed %.3fs\n",
		res.RunsCompleted, res.GoroutineStart, res.GoroutineEnd, res.ElapsedSeconds)
	for _, v := range res.Violations {
		fmt.Printf("VIOLATION: %s\n", v)
	}
}

// runSLOSmoke is the CI gate: calibrate this machine's closed-loop
// capacity, then assert the SLO at a rated fraction of it and under a
// deliberate overload multiple. Every target is relative to the
// calibration (rates) or to the run's own measurements (tail ratio, shed
// fractions), so the gate is machine-scaled rather than a hard-coded
// latency that flakes on loaded CI hardware.
func runSLOSmoke(cfg loadgen.Config, ratedFraction, overloadFactor float64, duration time.Duration, asJSON bool) error {
	if ratedFraction <= 0 || ratedFraction > 1 {
		return fmt.Errorf("rated fraction %v outside (0, 1]", ratedFraction)
	}
	if overloadFactor <= 1 {
		return fmt.Errorf("overload factor %v, want > 1", overloadFactor)
	}

	calCfg := cfg
	calCfg.Workers, calCfg.Runs, calCfg.Tasks, calCfg.BidsPerWorker, calCfg.Batch = 8, 1, 2, 60, 0
	calCfg.Admission, calCfg.Adaptive, calCfg.Tenant = nil, nil, ""
	capacity, err := loadgen.CalibrateRate(calCfg)
	if err != nil {
		return err
	}
	rated := ratedFraction * capacity
	// Open-loop arrivals each take a goroutine; cap the rate so the smoke
	// stays cheap even on machines that calibrate very fast.
	const maxRated = 1000.0
	if rated > maxRated {
		rated = maxRated
	}
	overload := overloadFactor * rated
	fmt.Printf("calibrated capacity: %.0f bids/sec closed-loop; rated=%.0f/sec, overload=%.0f/sec\n",
		capacity, rated, overload)

	// The gate the smoke runs against: a per-tenant budget a little above
	// rated, so rated traffic passes and the overload multiple must shed.
	smoke := cfg
	smoke.Runs = 2
	smoke.Tenant = "slo-smoke"
	smoke.Retry = &platform.RetryPolicy{MaxAttempts: 1}
	smoke.Admission = &platform.AdmissionConfig{
		TenantRatePerSec: rated * 1.25,
		TenantBurst:      rated / 2,
		RetryAfter:       20 * time.Millisecond,
	}

	ratedRes, err := loadgen.RunOverload(loadgen.OverloadConfig{
		Load: smoke, Arrival: loadgen.ArrivalPoisson, Rate: rated, Duration: duration,
	})
	if err != nil {
		return fmt.Errorf("rated run: %w", err)
	}
	fmt.Println("-- rated load --")
	printOverload(ratedRes)
	ratedErr := loadgen.AssertSLO(ratedRes, loadgen.SLO{
		// Poisson bursts above a freshly-drained token bucket can shed a
		// little even at rated load; more than 10% means the gate is
		// mis-sized for the machine.
		MaxShedRate:        0.10,
		MinAccepted:        1,
		MinRunsCompleted:   smoke.Runs,
		MaxP99OverP50:      100,
		MaxGoroutineGrowth: 50,
	})

	overloadRes, err := loadgen.RunOverload(loadgen.OverloadConfig{
		Load: smoke, Arrival: loadgen.ArrivalPoisson, Rate: overload, Duration: duration,
	})
	if err != nil {
		return fmt.Errorf("overload run: %w", err)
	}
	fmt.Println("-- overload --")
	printOverload(overloadRes)
	// At F times the budget the shed floor is (F-1)/F minus bucket slack;
	// assert half of that so the bound is robust, and require real goodput
	// plus full settlement with clean books.
	overloadErr := loadgen.AssertSLO(overloadRes, loadgen.SLO{
		MaxShedRate:        0.999,
		MinShedRate:        0.5 * (overloadFactor - 1) / overloadFactor,
		MinAccepted:        1,
		MinRunsCompleted:   smoke.Runs,
		MaxGoroutineGrowth: 50,
	})

	if asJSON {
		if err := printJSON(map[string]any{
			"capacity_bids_per_sec": capacity,
			"rated":                 ratedRes,
			"overload":              overloadRes,
		}); err != nil {
			return err
		}
	}
	switch {
	case ratedErr != nil && overloadErr != nil:
		return fmt.Errorf("rated: %v; overload: %v", ratedErr, overloadErr)
	case ratedErr != nil:
		return fmt.Errorf("rated: %w", ratedErr)
	case overloadErr != nil:
		return fmt.Errorf("overload: %w", overloadErr)
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
