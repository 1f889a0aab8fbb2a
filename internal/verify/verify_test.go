package verify

import (
	"errors"
	"strings"
	"testing"

	"melody/internal/core"
	"melody/internal/lds"
	"melody/internal/ledger"
	"melody/internal/stats"
)

// run constructs a deterministic MELODY RunFunc under the paper config.
func melodyRun(t *testing.T) RunFunc {
	t.Helper()
	mel, err := core.NewMelody(PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	return mel.Run
}

// TestCheckersPassOnMechanismOutcomes: the full invariant sets hold on real
// outcomes from all four mechanisms across randomized instances.
func TestCheckersPassOnMechanismOutcomes(t *testing.T) {
	r := stats.NewRNG(42)
	cfg := PaperConfig()
	mel, _ := core.NewMelody(cfg)
	ub, _ := core.NewOptUB(cfg)
	for trial := 0; trial < 60; trial++ {
		in := RandomInstance(r.Split(), 1+r.Intn(60), 1+r.Intn(40), r.Uniform(0, 800))

		out, err := mel.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckAuctionOutcome(in, out, MelodyChecks()); err != nil {
			t.Fatalf("MELODY trial %d: %v", trial, err)
		}

		dual, err := core.NewMelodyDual(cfg, 1+r.Intn(7))
		if err != nil {
			t.Fatal(err)
		}
		dout, err := dual.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckAuctionOutcome(in, dout, DualChecks()); err != nil {
			t.Fatalf("MELODY-DUAL trial %d: %v", trial, err)
		}

		rnd, err := core.NewRandom(cfg, r.Split())
		if err != nil {
			t.Fatal(err)
		}
		rout, err := rnd.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckAuctionOutcome(in, rout, RandomChecks()); err != nil {
			t.Fatalf("RANDOM trial %d: %v", trial, err)
		}

		uout, err := ub.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckAuctionOutcome(in, uout, OptUBChecks()); err != nil {
			t.Fatalf("OPT-UB trial %d: %v", trial, err)
		}
	}
}

// TestCheckersCatchViolations: each checker rejects a hand-broken outcome.
func TestCheckersCatchViolations(t *testing.T) {
	in := core.Instance{
		Budget: 100,
		Workers: []core.Worker{
			{ID: "a", Bid: core.Bid{Cost: 1, Frequency: 1}, Quality: 3},
			{ID: "b", Bid: core.Bid{Cost: 1.5, Frequency: 2}, Quality: 3},
		},
		Tasks: []core.Task{{ID: "t", Threshold: 5}},
	}
	good := &core.Outcome{
		Assignments: []core.Assignment{
			{WorkerID: "a", TaskID: "t", Payment: 3},
			{WorkerID: "b", TaskID: "t", Payment: 3},
		},
		SelectedTasks: []string{"t"},
		TaskPayments:  []float64{6},
		TotalPayment:  6,
	}
	if err := CheckAuctionOutcome(in, good, MelodyChecks()); err != nil {
		t.Fatalf("well-formed outcome rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(o *core.Outcome)
		want   string
	}{
		{"unknown worker", func(o *core.Outcome) { o.Assignments[0].WorkerID = "ghost" }, "unknown worker"},
		{"unknown task", func(o *core.Outcome) { o.Assignments[0].TaskID = "ghost" }, "unknown task"},
		{"duplicate pair", func(o *core.Outcome) { o.Assignments[1] = o.Assignments[0] }, "assigned twice"},
		{"unselected task", func(o *core.Outcome) { o.SelectedTasks = nil; o.TaskPayments = nil }, "unselected"},
		{"negative payment", func(o *core.Outcome) { o.Assignments[0].Payment = -1 }, "non-positive payment"},
		{"total mismatch", func(o *core.Outcome) { o.TotalPayment = 99 }, "!= TotalPayment"},
		{"task payment mismatch", func(o *core.Outcome) { o.TaskPayments[0] = 1 }, "TaskPayments[0]"},
		{"task payment missing", func(o *core.Outcome) { o.TaskPayments = nil }, "0 task payments for 1 selected"},
		{"task payment extra", func(o *core.Outcome) { o.TaskPayments = append(o.TaskPayments, 0) }, "2 task payments for 1 selected"},
		{"threshold uncovered", func(o *core.Outcome) {
			o.Assignments = o.Assignments[:1]
			o.TaskPayments[0] = 3
			o.TotalPayment = 3
		}, "below threshold"},
		{"budget exceeded", func(o *core.Outcome) {
			o.Assignments[0].Payment = 200
			o.TaskPayments[0] = 203
			o.TotalPayment = 203
		}, "exceeds budget"},
	}
	for _, tc := range cases {
		o := &core.Outcome{
			Assignments:   append([]core.Assignment(nil), good.Assignments...),
			SelectedTasks: append([]string(nil), good.SelectedTasks...),
			TaskPayments:  append([]float64(nil), good.TaskPayments...),
			TotalPayment:  good.TotalPayment,
		}
		tc.mutate(o)
		err := CheckAuctionOutcome(in, o, MelodyChecks())
		if err == nil {
			t.Errorf("%s: violation not caught", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestCheckIndividualRationalityCatches: payment below declared cost.
func TestCheckIndividualRationalityCatches(t *testing.T) {
	in := core.Instance{
		Budget:  10,
		Workers: []core.Worker{{ID: "a", Bid: core.Bid{Cost: 2, Frequency: 1}, Quality: 3}},
		Tasks:   []core.Task{{ID: "t", Threshold: 2}},
	}
	out := &core.Outcome{
		Assignments:   []core.Assignment{{WorkerID: "a", TaskID: "t", Payment: 1}},
		SelectedTasks: []string{"t"},
		TaskPayments:  []float64{1},
		TotalPayment:  1,
	}
	if err := CheckIndividualRationality(in, out); err == nil {
		t.Fatal("underpayment not caught")
	}
}

// TestCheckCriticalPaymentsCatches: bid-dependent (unequal per-quality)
// prices within one task.
func TestCheckCriticalPaymentsCatches(t *testing.T) {
	in := core.Instance{
		Budget: 100,
		Workers: []core.Worker{
			{ID: "a", Bid: core.Bid{Cost: 1, Frequency: 1}, Quality: 2},
			{ID: "b", Bid: core.Bid{Cost: 1, Frequency: 1}, Quality: 2},
		},
		Tasks: []core.Task{{ID: "t", Threshold: 3}},
	}
	out := &core.Outcome{
		Assignments: []core.Assignment{
			{WorkerID: "a", TaskID: "t", Payment: 2},
			{WorkerID: "b", TaskID: "t", Payment: 3},
		},
		SelectedTasks: []string{"t"},
		TaskPayments:  []float64{5},
		TotalPayment:  5,
	}
	if err := CheckCriticalPayments(in, out); err == nil {
		t.Fatal("unequal per-quality prices not caught")
	}
}

// TestTruthfulnessProbeFixedCoverRegime is the strict Theorem 5 regression
// gate: across well over 200 randomized single-task instances in the
// fixed-cover-size regime (homogeneous quality, where a deviation can never
// change the winner count k — the granularity at which the paper's
// fixed-k-and-pivot proof binds), no sampled cost or frequency deviation
// may strictly improve a worker's utility, binding budgets included.
func TestTruthfulnessProbeFixedCoverRegime(t *testing.T) {
	mel, err := core.NewMelody(PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(9001)
	const instances = 240
	gens := make([]core.Instance, instances)
	for i := range gens {
		gens[i] = EqualQualityInstance(r.Split(), 6+r.Intn(30), 1, r.Uniform(5, 50))
	}
	ce, err := ProbeInstances(
		func(int) RunFunc { return mel.Run },
		func(probe int) core.Instance { return gens[probe] },
		instances, 12,
	)
	if err != nil {
		t.Fatal(err)
	}
	if ce != nil {
		t.Fatalf("MELODY rewarded a misreport in the fixed-k regime: %s", ce)
	}
}

// TestTruthfulnessStatisticalGeneralRegime probes general Table-3 instances
// (heterogeneous quality, single- and multi-task), where cover-size shifts
// make individual deviations occasionally profitable: the suite bounds the
// expected gain (must be negative) and the gain frequency instead of
// requiring zero.
func TestTruthfulnessStatisticalGeneralRegime(t *testing.T) {
	mel, err := core.NewMelody(PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(9002)
	var agg DeviationStats
	for probe := 0; probe < 120; probe++ {
		m := 1
		if probe%2 == 1 {
			m = 5 + r.Intn(20)
		}
		in := RandomInstance(r.Split(), 8+r.Intn(30), m, r.Uniform(20, 400))
		w := r.Intn(len(in.Workers))
		lies := CostGrid(in.Workers[w].Bid, 0.5, 2.5, 8)
		lies = append(lies, FrequencyGrid(in.Workers[w].Bid, 6)...)
		if err := MeasureDeviations(mel.Run, in, w, lies, &agg); err != nil {
			t.Fatal(err)
		}
	}
	if agg.MeanGain() > 0 {
		t.Errorf("misreporting pays on average: mean gain %v over %d probes (worst: %s)",
			agg.MeanGain(), agg.Probes, agg.Worst)
	}
	if agg.GainRate() > 0.10 {
		t.Errorf("misreporting paid in %.1f%% of %d probes; expected rare (worst: %s)",
			100*agg.GainRate(), agg.Probes, agg.Worst)
	}
}

// TestKnownCoverShiftCounterexample pins the known strict-truthfulness
// violation the probes discovered on heterogeneous instances: w3
// underbidding (1.31775 -> 1.04545) inserts itself into the cover prefix,
// GROWING the winner set from {w1,w4} to {w1,w3,w4} and pushing the pivot
// from w3 (density 0.628) to the costlier w5 (density 0.920), so w3 is paid
// above its critical bid. The probe must find it and the shrinker must keep
// it reproducible — if a future allocator change makes this instance
// truthful, this test documents the behavior shift.
func TestKnownCoverShiftCounterexample(t *testing.T) {
	in := core.Instance{
		Budget: 26.36901,
		Workers: []core.Worker{
			{ID: "w1", Bid: core.Bid{Cost: 1.33129, Frequency: 2}, Quality: 3.87836},
			{ID: "w3", Bid: core.Bid{Cost: 1.31775, Frequency: 1}, Quality: 2.09788},
			{ID: "w4", Bid: core.Bid{Cost: 1.43089, Frequency: 4}, Quality: 2.61506},
			{ID: "w5", Bid: core.Bid{Cost: 1.87443, Frequency: 3}, Quality: 2.03822},
		},
		Tasks: []core.Task{{ID: "t0", Threshold: 6.10186}},
	}
	run := melodyRun(t)
	ce, err := ProbeWorker(run, in, 1, []core.Bid{{Cost: 1.04545, Frequency: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if ce == nil {
		t.Fatal("known cover-shift counterexample no longer reproduces; " +
			"if the payment rule changed, update TESTING.md's truthfulness caveat")
	}
	shrunk := Shrink(run, ce)
	if len(shrunk.Instance.Tasks) != 1 || len(shrunk.Instance.Workers) > 4 {
		t.Errorf("shrinker left N=%d, M=%d; want N<=4, M=1",
			len(shrunk.Instance.Workers), len(shrunk.Instance.Tasks))
	}
	if v := reverify(run, shrunk.Instance, shrunk.Worker, shrunk.Lie); v == nil {
		t.Error("shrunk counterexample does not reproduce")
	}
}

// TestTruthfulnessProbeRandomMechanism couples seeds across the truthful
// and deviating replays of RANDOM and asserts the Appendix-D payment rule
// holds on single-task instances on average; strict per-draw gains are
// possible (pool stopping points shift), so this probes a smaller grid and
// tolerates nothing only in expectation — mirroring the seed suite. Here we
// assert the probe machinery itself: it must complete without error and
// any reported gain must come with a reproducible shrunk counterexample.
func TestTruthfulnessProbeRandomMechanism(t *testing.T) {
	r := stats.NewRNG(77)
	var gains int
	const instances = 60
	for probe := 0; probe < instances; probe++ {
		seed := int64(probe*7919 + 13)
		in := RandomInstance(r.Split(), 10+r.Intn(20), 1, r.Uniform(5, 50))
		run := func(inst core.Instance) (*core.Outcome, error) {
			rnd, err := core.NewRandom(PaperConfig(), stats.NewRNG(seed))
			if err != nil {
				return nil, err
			}
			return rnd.Run(inst)
		}
		ce, err := ProbeWorker(run, in, r.Intn(len(in.Workers)), CostGrid(in.Workers[0].Bid, 1, 2, 5))
		if err != nil {
			t.Fatal(err)
		}
		if ce != nil {
			gains++
			// The violation must reproduce after shrinking (the shrinker
			// never reports a non-violation).
			shrunk := Shrink(run, ce)
			if v := reverify(run, shrunk.Instance, shrunk.Worker, shrunk.Lie); v == nil {
				t.Fatalf("shrinker reported a non-reproducing counterexample: %s", shrunk)
			}
		}
	}
	if gains > instances/4 {
		t.Fatalf("RANDOM rewarded misreports in %d/%d probes; expected rare", gains, instances)
	}
}

// payAsBid is a deliberately manipulable mechanism (pay every assigned
// worker their declared cost plus a margin proportional to it): over-
// bidding strictly gains, so probes must find and shrink a counterexample.
func payAsBid(in core.Instance) (*core.Outcome, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	out := &core.Outcome{}
	for _, task := range in.Tasks {
		var q float64
		for _, w := range in.Workers {
			q += w.Quality
		}
		if q < task.Threshold {
			continue
		}
		out.SelectedTasks = append(out.SelectedTasks, task.ID)
		out.TaskPayments = append(out.TaskPayments, 0)
		for _, w := range in.Workers {
			p := 1.5 * w.Bid.Cost
			out.Assignments = append(out.Assignments, core.Assignment{WorkerID: w.ID, TaskID: task.ID, Payment: p})
			out.TaskPayments[len(out.TaskPayments)-1] += p
			out.TotalPayment += p
		}
	}
	return out, nil
}

// TestProbeFindsAndShrinksCounterexample: the probe detects the pay-as-bid
// manipulation and the shrinker minimizes the instance to its essential
// core (one task; no bystander workers beyond those needed for coverage).
func TestProbeFindsAndShrinksCounterexample(t *testing.T) {
	r := stats.NewRNG(5)
	in := RandomInstance(r, 20, 8, 1e6)
	ce, err := ProbeWorker(payAsBid, in, 3, CostGrid(in.Workers[3].Bid, 1.2, 2.0, 6))
	if err != nil {
		t.Fatal(err)
	}
	if ce == nil {
		t.Fatal("probe missed the pay-as-bid manipulation")
	}
	shrunk := Shrink(payAsBid, ce)
	if len(shrunk.Instance.Tasks) != 1 {
		t.Errorf("shrinker left %d tasks; want 1", len(shrunk.Instance.Tasks))
	}
	// Pay-as-bid gains persist with any coverage-sufficient worker set; the
	// shrinker must have pruned most of the 20 bystanders.
	if len(shrunk.Instance.Workers) > 4 {
		t.Errorf("shrinker left %d workers; want <= 4", len(shrunk.Instance.Workers))
	}
	if v := reverify(payAsBid, shrunk.Instance, shrunk.Worker, shrunk.Lie); v == nil {
		t.Error("shrunk counterexample does not reproduce")
	}
}

// TestReferenceOracleMatchesMelody: the optimized allocator and the naive
// reference produce byte-identical outcomes, including degenerate shapes.
func TestReferenceOracleMatchesMelody(t *testing.T) {
	r := stats.NewRNG(1234)
	cfg := PaperConfig()
	for trial := 0; trial < 120; trial++ {
		in := RandomInstance(r.Split(), r.Intn(80), r.Intn(50), r.Uniform(0, 900))
		if len(in.Tasks) == 0 && len(in.Workers) == 0 {
			continue
		}
		if err := CheckAgainstReference(cfg, in); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestExactBoundsBracketMechanisms: on enumerable instances, MELODY <=
// exact optimum <= OPT-UB.
func TestExactBoundsBracketMechanisms(t *testing.T) {
	r := stats.NewRNG(4321)
	cfg := PaperConfig()
	checked := 0
	for trial := 0; trial < 60; trial++ {
		in := RandomInstance(r.Split(), 2+r.Intn(5), 1+r.Intn(3), r.Uniform(2, 40))
		err := CheckExactBounds(cfg, in)
		if errors.Is(err, core.ErrInstanceTooLarge) {
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checked++
	}
	if checked < 30 {
		t.Fatalf("only %d/60 instances were enumerable; generator too large", checked)
	}
}

// TestLDSChecksPassOnRandomHistories: the Kalman/EM invariants hold on
// randomized score histories, including all-missing runs.
func TestLDSChecksPassOnRandomHistories(t *testing.T) {
	r := stats.NewRNG(55)
	p := lds.Params{A: 0.9, Gamma: 0.2, Eta: 0.5}
	init := lds.State{Mean: 3, Var: 1}
	for trial := 0; trial < 30; trial++ {
		runs := 1 + r.Intn(40)
		history := make([][]float64, runs)
		for i := range history {
			n := r.Intn(4) // 0 scores = unobserved run
			for j := 0; j < n; j++ {
				history[i] = append(history[i], r.Normal(3, 1))
			}
		}
		states, err := lds.Filter(p, init, history)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckStates(states); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := CheckFilterSmootherConsistency(p, init, history); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := CheckEMMonotone(lds.Params{A: 1, Gamma: 1, Eta: 1}, init, history, 6); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	// All-missing history: every run unobserved is a pure prediction chain.
	blank := make([][]float64, 12)
	states, err := lds.Filter(p, init, blank)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckStates(states); err != nil {
		t.Fatal(err)
	}
	if err := CheckFilterSmootherConsistency(p, init, blank); err != nil {
		t.Fatal(err)
	}
}

// TestLDSChecksCatchBrokenStates: a negative variance is rejected.
func TestLDSChecksCatchBrokenStates(t *testing.T) {
	if err := CheckStates([]lds.State{{Mean: 1, Var: 0.5}, {Mean: 1, Var: -0.1}}); err == nil {
		t.Fatal("negative posterior variance not caught")
	}
}

// TestLedgerConservationChecks: conservation holds across a settled run and
// detects an out-of-band mutation.
func TestLedgerConservationChecks(t *testing.T) {
	l := ledger.New()
	if _, err := l.Deposit(ledger.Requester, 100, "fund"); err != nil {
		t.Fatal(err)
	}
	s, err := l.OpenRun(1, 40)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Pay("w1", 12.5, "t1"); err != nil {
		t.Fatal(err)
	}
	if err := CheckMoneyConservation(l); err != nil {
		t.Fatalf("mid-run conservation: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := CheckMoneyConservation(l); err != nil {
		t.Fatalf("post-close conservation: %v", err)
	}
	if err := CheckEscrowSettled(l); err != nil {
		t.Fatalf("escrow not settled: %v", err)
	}
	// An open settlement leaves money in escrow: the settled check must say
	// so.
	if _, err := l.OpenRun(2, 10); err != nil {
		t.Fatal(err)
	}
	if err := CheckEscrowSettled(l); err == nil {
		t.Fatal("stuck escrow not caught")
	}
}

// TestEstimatorCheckerCatchesPoisoning: a hostile estimator that keeps NaN
// state is rejected by CheckEstimator.
type poisonEstimator struct{ est float64 }

func (p *poisonEstimator) Name() string { return "POISON" }
func (p *poisonEstimator) Estimate(string) float64 {
	return p.est
}
func (p *poisonEstimator) Observe(_ string, scores []float64) error {
	for _, s := range scores {
		p.est += s // accepts NaN, poisoning all future estimates
	}
	return nil
}

func TestEstimatorCheckerCatchesPoisoning(t *testing.T) {
	e := &poisonEstimator{est: 3}
	err := CheckEstimator(e, []string{"w1"}, [][][]float64{{{3, 3.5}}, {{}}})
	if err == nil {
		t.Fatal("NaN-accepting estimator not caught")
	}
}

// melodyRun is referenced by fuzz seeds; keep the helper exercised.
func TestMelodyRunHelper(t *testing.T) {
	run := melodyRun(t)
	out, err := run(RandomInstance(stats.NewRNG(1), 8, 3, 50))
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckOutcome(RandomInstance(stats.NewRNG(1), 8, 3, 50), out, Integral); err != nil {
		t.Fatal(err)
	}
}
