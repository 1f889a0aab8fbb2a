package melody

import (
	"melody/internal/core"
	"melody/internal/lds"
	"melody/internal/obs"
	"melody/internal/quality"
	"melody/internal/stats"
)

// Re-exported auction-layer types. The aliases keep the public API surface
// in one importable package while the implementation lives in internal/.
type (
	// Bid is a worker's declared cost per task and maximum number of tasks.
	Bid = core.Bid
	// Worker is a bidder with the platform's quality estimate attached.
	Worker = core.Worker
	// Task is a unit of work with a quality threshold.
	Task = core.Task
	// Instance is a single-run auction problem.
	Instance = core.Instance
	// Assignment is one allocated (worker, task, payment) triple.
	Assignment = core.Assignment
	// Outcome is the allocation and payment schemes of one auction.
	Outcome = core.Outcome
	// AuctionConfig holds the platform's qualification intervals.
	AuctionConfig = core.Config
	// Mechanism is the single-run auction interface.
	Mechanism = core.Mechanism

	// Estimator is the long-term quality estimation interface.
	Estimator = quality.Estimator
	// QualityState is a Gaussian belief over a worker's latent quality.
	QualityState = lds.State
	// QualityParams are a worker's LDS hyper-parameters {a, gamma, eta}.
	QualityParams = lds.Params
	// QualityForecast is a k-step-ahead predictive distribution over a
	// worker's latent quality, with credible intervals via Interval.
	QualityForecast = lds.Forecast
	// Reestimation is one EM re-estimation of a worker's hyper-parameters
	// that a finish made (see RunScheduler.FinishRunEM).
	Reestimation = quality.Reestimation
)

// Auction is the public handle for the single-run MELODY mechanism
// (Algorithm 1).
type Auction struct {
	mech *core.Melody
}

// NewAuction constructs the MELODY single-run mechanism with the given
// qualification intervals.
func NewAuction(cfg AuctionConfig) (*Auction, error) {
	mech, err := core.NewMelody(cfg)
	if err != nil {
		return nil, err
	}
	return &Auction{mech: mech}, nil
}

// Run executes one reverse auction and returns the allocation and payment
// schemes.
func (a *Auction) Run(in Instance) (*Outcome, error) { return a.mech.Run(in) }

// Config returns the auction's qualification configuration.
func (a *Auction) Config() AuctionConfig { return a.mech.Config() }

// QualityTrackerConfig parameterizes the LDS-based quality tracker.
type QualityTrackerConfig struct {
	// InitialMean and InitialVar define the preset belief N(mu^0, sigma^0)
	// for newly seen workers.
	InitialMean float64
	InitialVar  float64
	// Params is the initial hyper-parameter guess theta^0 = {a, gamma, eta}.
	Params QualityParams
	// EMPeriod is the paper's T: re-learn hyper-parameters every T runs
	// (0 disables EM).
	EMPeriod int
	// EMWindow bounds the history EM sees (0 = unbounded).
	EMWindow int
	// Metrics optionally receives EM re-estimation metrics (wall time,
	// count, final log-likelihood). Nil disables instrumentation.
	Metrics *obs.Registry
}

// NewQualityTracker constructs the paper's LDS quality estimator
// (Algorithm 3).
func NewQualityTracker(cfg QualityTrackerConfig) (*quality.Melody, error) {
	return quality.NewMelody(quality.MelodyConfig{
		Init:     lds.State{Mean: cfg.InitialMean, Var: cfg.InitialVar},
		Params:   cfg.Params,
		EMPeriod: cfg.EMPeriod,
		EMWindow: cfg.EMWindow,
		Metrics:  cfg.Metrics,
	})
}

// EstimatorConfig parameterizes the baseline estimators. All constructors
// in the family take this one config struct so call sites read the same
// regardless of baseline (DESIGN.md §API documents the constructor style).
type EstimatorConfig struct {
	// Initial is the quality estimate reported for workers with no
	// observations yet.
	Initial float64
	// WarmupRuns applies to the STATIC baseline only: the number of runs
	// whose scores still update the estimate before it freezes.
	WarmupRuns int
}

// NewStaticEstimator returns the STATIC baseline: quality frozen after the
// first cfg.WarmupRuns runs.
func NewStaticEstimator(cfg EstimatorConfig) (Estimator, error) {
	return quality.NewStatic(cfg.Initial, cfg.WarmupRuns)
}

// NewMLCurrentRunEstimator returns the ML-CR baseline: quality is the mean
// score of the latest run only. WarmupRuns is ignored.
func NewMLCurrentRunEstimator(cfg EstimatorConfig) Estimator {
	return quality.NewMLCurrentRun(cfg.Initial)
}

// NewMLAllRunsEstimator returns the ML-AR baseline: quality is the mean of
// all scores ever observed. WarmupRuns is ignored.
func NewMLAllRunsEstimator(cfg EstimatorConfig) Estimator {
	return quality.NewMLAllRuns(cfg.Initial)
}

// NewSeededRNG returns the deterministic random source used across the
// library, for callers who need reproducible simulations.
func NewSeededRNG(seed int64) *stats.RNG { return stats.NewRNG(seed) }
