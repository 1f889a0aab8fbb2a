package melody_test

// One benchmark per table and figure of the paper's evaluation (Section 7),
// regenerating each artifact through internal/experiments, plus
// micro-benchmarks for the mechanism and inference kernels and ablation
// benches for the design choices called out in DESIGN.md. Quality metrics
// (estimation error, utility) are attached to ablation benches via
// b.ReportMetric so `go test -bench` output doubles as an ablation table.

import (
	"testing"

	"melody/internal/core"
	"melody/internal/experiments"
	"melody/internal/lds"
	"melody/internal/market"
	"melody/internal/quality"
	"melody/internal/stats"
	"melody/internal/workerpool"
)

// benchScale keeps per-iteration work bounded; the cmd/melody-sim binary
// runs the full-scale versions.
const benchScale = 0.1

func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		out, err := exp.Run(experiments.Options{Seed: int64(i + 1), Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		if len(out.Figures) == 0 && len(out.Tables) == 0 {
			b.Fatal("experiment produced nothing")
		}
	}
}

// Paper artifacts, in paper order.

func BenchmarkTable1Properties(b *testing.B)           { runExperiment(b, "table1") }
func BenchmarkFig1Trajectories(b *testing.B)           { runExperiment(b, "fig1") }
func BenchmarkTable3Settings(b *testing.B)             { runExperiment(b, "table3") }
func BenchmarkFig4aUtilityVsWorkers(b *testing.B)      { runExperiment(b, "fig4a") }
func BenchmarkFig4bUtilityVsBudget(b *testing.B)       { runExperiment(b, "fig4b") }
func BenchmarkFig4cUtilityVsTasks(b *testing.B)        { runExperiment(b, "fig4c") }
func BenchmarkFig5aIndividualRationality(b *testing.B) { runExperiment(b, "fig5a") }
func BenchmarkFig5bUtilityDistribution(b *testing.B)   { runExperiment(b, "fig5b") }
func BenchmarkFig5cBudgetFeasibility(b *testing.B)     { runExperiment(b, "fig5c") }
func BenchmarkFig6ShortTermTruthfulness(b *testing.B)  { runExperiment(b, "fig6") }
func BenchmarkFig7LongTermTruthfulness(b *testing.B)   { runExperiment(b, "fig7") }
func BenchmarkFig8RunningTime(b *testing.B)            { runExperiment(b, "fig8") }
func BenchmarkTable4Settings(b *testing.B)             { runExperiment(b, "table4") }
func BenchmarkFig9LongTermQuality(b *testing.B)        { runExperiment(b, "fig9") }

// Mechanism kernels.

func benchInstance(n, m int, budget float64) core.Instance {
	r := stats.NewRNG(9)
	cfg := experiments.PaperSRA()
	return cfg.Instance(r, n, m, budget)
}

// BenchmarkAllocatorMelody measures Algorithm 1 on the paper's Section 7.2
// instance size (N=300, M=500).
func BenchmarkAllocatorMelody(b *testing.B) {
	in := benchInstance(300, 500, 2000)
	mech, err := core.NewMelody(experiments.PaperSRA().AuctionConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mech.Run(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocatorMelodyLarge measures the Fig. 8 extreme (N=1000,
// M=5000) to witness the O(NM) scaling.
func BenchmarkAllocatorMelodyLarge(b *testing.B) {
	in := benchInstance(1000, 5000, 800)
	mech, err := core.NewMelody(experiments.PaperSRA().AuctionConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mech.Run(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocatorMelodyXL measures the large-instance scaling target of
// the indexed allocator (N=3000, M=5000): with the next-available skip
// structure the per-task scan is near-linear in winners rather than in N.
func BenchmarkAllocatorMelodyXL(b *testing.B) {
	in := benchInstance(3000, 5000, 5000)
	mech, err := core.NewMelody(experiments.PaperSRA().AuctionConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mech.Run(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocatorRandom measures the RANDOM baseline at Section 7.2
// size.
func BenchmarkAllocatorRandom(b *testing.B) {
	in := benchInstance(300, 500, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mech, err := core.NewRandom(experiments.PaperSRA().AuctionConfig(), stats.NewRNG(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mech.Run(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocatorOptUB measures the fractional upper bound.
func BenchmarkAllocatorOptUB(b *testing.B) {
	in := benchInstance(300, 500, 2000)
	mech, err := core.NewOptUB(experiments.PaperSRA().AuctionConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mech.Run(in); err != nil {
			b.Fatal(err)
		}
	}
}

// Inference kernels.

// BenchmarkKalmanUpdate measures one Theorem 3 posterior update.
func BenchmarkKalmanUpdate(b *testing.B) {
	p := lds.Params{A: 1, Gamma: 0.3, Eta: 9}
	st := lds.State{Mean: 5.5, Var: 2.25}
	scores := []float64{6.0, 5.1, 7.2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next, err := lds.Update(p, st, scores)
		if err != nil {
			b.Fatal(err)
		}
		st = next
		if st.Var < 1e-9 {
			st = lds.State{Mean: 5.5, Var: 2.25}
		}
	}
}

// BenchmarkRTSSmoother measures the forward-backward pass over a 100-run
// history.
func BenchmarkRTSSmoother(b *testing.B) {
	r := stats.NewRNG(4)
	history := make([][]float64, 100)
	for t := range history {
		history[t] = []float64{r.Normal(5, 2), r.Normal(5, 2)}
	}
	p := lds.Params{A: 1, Gamma: 0.3, Eta: 9}
	init := lds.State{Mean: 5.5, Var: 2.25}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lds.Smooth(p, init, history); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEMLearning measures Algorithm 2 on a 60-run window (the
// estimator's default EM window) with 12 iterations.
func BenchmarkEMLearning(b *testing.B) {
	r := stats.NewRNG(5)
	history := make([][]float64, 60)
	for t := range history {
		history[t] = []float64{r.Normal(5, 2)}
	}
	start := lds.Params{A: 1, Gamma: 0.3, Eta: 9}
	init := lds.State{Mean: 5.5, Var: 2.25}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lds.EM(start, init, history, lds.EMConfig{MaxIter: 12, Tol: 1e-300}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQualityObserve measures Algorithm 3's steady state: one
// ten-score run absorbed into a worker whose score window is already full,
// including the periodic EM re-estimation amortized over EMPeriod runs.
// ReportAllocs witnesses the buffer reuse: the window compacts evicted
// scores in place and the EM/smoother scratch is the estimator's own.
func BenchmarkQualityObserve(b *testing.B) {
	est, err := quality.NewMelody(quality.MelodyConfig{
		Init:     lds.State{Mean: 5.5, Var: 2.25},
		Params:   lds.Params{A: 1, Gamma: 0.3, Eta: 9},
		EMPeriod: 10,
		EMWindow: 60,
		EM:       lds.EMConfig{MaxIter: 12},
	})
	if err != nil {
		b.Fatal(err)
	}
	r := stats.NewRNG(6)
	scores := make([]float64, 10)
	for i := range scores {
		scores[i] = r.Normal(5, 2)
	}
	// Fill the 60-run window so every timed Observe evicts and reuses space.
	for run := 0; run < 70; run++ {
		if err := est.Observe("w", scores); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := est.Observe("w", scores); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEMLearningWorkspace is BenchmarkEMLearning through a reused
// lds.Workspace — the estimator's steady state, where one scratch
// workspace serves every worker's EM in turn.
func BenchmarkEMLearningWorkspace(b *testing.B) {
	r := stats.NewRNG(5)
	history := make([][]float64, 60)
	for t := range history {
		history[t] = []float64{r.Normal(5, 2)}
	}
	start := lds.Params{A: 1, Gamma: 0.3, Eta: 9}
	init := lds.State{Mean: 5.5, Var: 2.25}
	var ws lds.Workspace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ws.EM(start, init, history, lds.EMConfig{MaxIter: 12, Tol: 1e-300}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEMLanes is melody-bench's lds/em_w60_x16: one finish's worth
// of due re-estimations, 16 windows of 60 runs with a score in every run,
// through the lane kernel four at a time for 50 iterations each.
func BenchmarkEMLanes(b *testing.B) {
	r := stats.NewRNG(5)
	windows := make([][][]float64, 16)
	for w := range windows {
		windows[w] = make([][]float64, 60)
		for t := range windows[w] {
			windows[w][t] = []float64{r.Normal(5, 2)}
		}
	}
	start := lds.Params{A: 1, Gamma: 0.3, Eta: 9}
	init := lds.State{Mean: 5.5, Var: 2.25}
	cfg := lds.EMConfig{MaxIter: 50, Tol: 1e-300}
	var ws lds.Workspace
	lanes := make([]lds.EMLane, lds.Lanes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for g := 0; g < len(windows); g += lds.Lanes {
			for j := range lanes {
				lanes[j] = lds.EMLane{Start: start, Init: init, History: windows[g+j]}
			}
			ws.EMLanes(lanes, cfg)
			for j := range lanes {
				if lanes[j].Err != nil {
					b.Fatal(lanes[j].Err)
				}
			}
		}
	}
}

// Ablations. Each runs a reduced Table 4 world and reports quality metrics
// alongside timing, so -bench output reads as an ablation table.

func ablationWorld(b *testing.B, seed int64, est quality.Estimator) (avgErr, avgUtil float64) {
	b.Helper()
	lt := experiments.PaperLongTerm()
	lt.Workers = 60
	lt.TasksPerRun = 60
	lt.Runs = 120
	r := stats.NewRNG(seed)
	population, err := workerpool.NewPopulation(r.Split(), workerpool.PopulationConfig{
		N: lt.Workers, Runs: lt.Runs,
		CostMin: lt.CostLo, CostMax: lt.CostHi,
		FreqMin: lt.FreqLo, FreqMax: lt.FreqHi,
		QualityLo: lt.ScoreLo, QualityHi: lt.ScoreHi,
		Noise: lt.PatternNoise,
	})
	if err != nil {
		b.Fatal(err)
	}
	mech, err := core.NewMelody(lt.AuctionConfig())
	if err != nil {
		b.Fatal(err)
	}
	eng, err := market.NewEngine(market.Config{
		Mechanism: mech, Auction: lt.AuctionConfig(),
		Estimator: est, Workers: population,
		TasksPerRun: lt.TasksPerRun, ThresholdMin: lt.ThresholdLo, ThresholdMax: lt.ThresholdHi,
		Budget: lt.Budget, ScoreSigma: lt.ScoreSigma,
		ScoreLo: lt.ScoreLo, ScoreHi: lt.ScoreHi,
		RNG: r.Split(),
	})
	if err != nil {
		b.Fatal(err)
	}
	var errAcc, utilAcc stats.Accumulator
	for run := 0; run < lt.Runs; run++ {
		res, err := eng.Step()
		if err != nil {
			b.Fatal(err)
		}
		errAcc.Add(res.EstimationError)
		utilAcc.Add(float64(res.TrueUtility))
	}
	return errAcc.Mean(), utilAcc.Mean()
}

// BenchmarkAblationEMPeriod sweeps the paper's T (Algorithm 3): smaller T
// re-learns hyper-parameters more often, trading time for accuracy.
func BenchmarkAblationEMPeriod(b *testing.B) {
	for _, period := range []int{0, 1, 10, 50} {
		period := period
		b.Run(benchName("T", period), func(b *testing.B) {
			var errSum, utilSum float64
			for i := 0; i < b.N; i++ {
				est, err := quality.NewMelody(quality.MelodyConfig{
					Init:     lds.State{Mean: 5.5, Var: 2.25},
					Params:   lds.Params{A: 1, Gamma: 0.3, Eta: 9},
					EMPeriod: period,
					EMWindow: 60,
					EM:       lds.EMConfig{MaxIter: 12},
				})
				if err != nil {
					b.Fatal(err)
				}
				e, u := ablationWorld(b, int64(i+1), est)
				errSum += e
				utilSum += u
			}
			b.ReportMetric(errSum/float64(b.N), "err/run")
			b.ReportMetric(utilSum/float64(b.N), "utility/run")
		})
	}
}

// BenchmarkAblationEstimator compares the four Section 7.7 estimators on
// identical worlds (the quality ablation behind Fig. 9).
func BenchmarkAblationEstimator(b *testing.B) {
	builders := map[string]func() (quality.Estimator, error){
		"MELODY": func() (quality.Estimator, error) {
			return quality.NewMelody(quality.MelodyConfig{
				Init:     lds.State{Mean: 5.5, Var: 2.25},
				Params:   lds.Params{A: 1, Gamma: 0.3, Eta: 9},
				EMPeriod: 10, EMWindow: 60,
				EM: lds.EMConfig{MaxIter: 12},
			})
		},
		"STATIC": func() (quality.Estimator, error) { return quality.NewStatic(5.5, 50) },
		"ML-CR":  func() (quality.Estimator, error) { return quality.NewMLCurrentRun(5.5), nil },
		"ML-AR":  func() (quality.Estimator, error) { return quality.NewMLAllRuns(5.5), nil },
		"EWMA":   func() (quality.Estimator, error) { return quality.NewEWMA(5.5, 0.3) },
	}
	for _, name := range []string{"MELODY", "STATIC", "ML-CR", "ML-AR", "EWMA"} {
		build := builders[name]
		b.Run(name, func(b *testing.B) {
			var errSum, utilSum float64
			for i := 0; i < b.N; i++ {
				est, err := build()
				if err != nil {
					b.Fatal(err)
				}
				e, u := ablationWorld(b, int64(i+1), est)
				errSum += e
				utilSum += u
			}
			b.ReportMetric(errSum/float64(b.N), "err/run")
			b.ReportMetric(utilSum/float64(b.N), "utility/run")
		})
	}
}

func benchName(prefix string, v int) string {
	if v == 0 {
		return prefix + "=off"
	}
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	pos := len(buf)
	for v > 0 {
		pos--
		buf[pos] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[pos:])
}
