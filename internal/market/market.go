// Package market implements MELODY's multi-run simulation engine: the
// continuously running reverse auction of Fig. 2/Fig. 3. Each run the engine
// generates a task set, collects bids from the simulated worker population,
// executes a single-run mechanism, emits scores for the completed tasks from
// the workers' latent qualities, and feeds the scores back into a quality
// estimator for the next run.
package market

import (
	"errors"
	"fmt"

	"melody/internal/core"
	"melody/internal/quality"
	"melody/internal/stats"
	"melody/internal/workerpool"
)

// Config assembles one long-term simulation (Table 4 supplies the paper's
// values; see experiments.LongTermConfig).
type Config struct {
	// Mechanism runs the per-run auction (usually core.Melody).
	Mechanism core.Mechanism
	// Auction holds the qualification intervals, needed to compute the
	// estimation-error metric over the qualified set W^r.
	Auction core.Config
	// Estimator supplies mu_i^r each run and absorbs the scores.
	Estimator quality.Estimator
	// Workers is the simulated population.
	Workers []*workerpool.Worker
	// TasksPerRun is M^r; thresholds Q_j are drawn uniformly from
	// [ThresholdMin, ThresholdMax].
	TasksPerRun  int
	ThresholdMin float64
	ThresholdMax float64
	// Budget is B^r, constant across runs as in Table 4.
	Budget float64
	// Spec, when set, overrides the four static demand fields above with a
	// per-run specification — e.g. RotatingRequesters for the paper's
	// multi-requester model. The zero-based run index is passed in.
	Spec func(run int) RunSpec
	// ScoreSigma, ScoreLo, ScoreHi parameterize score emission (Eq. 13 with
	// clamping to the score scale).
	ScoreSigma float64
	ScoreLo    float64
	ScoreHi    float64
	// RNG drives task thresholds, bids and score noise.
	RNG *stats.RNG
}

// Validate reports whether the configuration is complete.
func (c Config) Validate() error {
	switch {
	case c.Mechanism == nil:
		return errors.New("market: nil mechanism")
	case c.Estimator == nil:
		return errors.New("market: nil estimator")
	case len(c.Workers) == 0:
		return errors.New("market: empty worker population")
	case c.ScoreSigma < 0:
		return fmt.Errorf("market: negative score sigma %v", c.ScoreSigma)
	case c.ScoreHi <= c.ScoreLo:
		return fmt.Errorf("market: score range [%v, %v] invalid", c.ScoreLo, c.ScoreHi)
	case c.RNG == nil:
		return errors.New("market: nil RNG")
	}
	if c.Spec == nil {
		static := RunSpec{
			Tasks:        c.TasksPerRun,
			ThresholdMin: c.ThresholdMin,
			ThresholdMax: c.ThresholdMax,
			Budget:       c.Budget,
		}
		if err := static.Validate(); err != nil {
			return err
		}
	}
	if err := c.Auction.Validate(); err != nil {
		return fmt.Errorf("market: %w", err)
	}
	for i, w := range c.Workers {
		if w == nil {
			return fmt.Errorf("market: worker %d is nil", i)
		}
		if w.Strategy == nil {
			return fmt.Errorf("market: worker %s has no strategy", w.ID)
		}
	}
	return nil
}

// RunResult is the per-run telemetry of the engine.
type RunResult struct {
	// Run is the 1-based run index.
	Run int
	// RequesterID identifies this run's requester when a multi-requester
	// Spec is configured; empty for the single-requester default.
	RequesterID string
	// EstimatedUtility is U^r under estimated qualities (Definition 3) —
	// the number of selected tasks.
	EstimatedUtility int
	// TrueUtility counts selected tasks whose received *latent* quality
	// reaches the threshold (the paper's "requester's real utility").
	TrueUtility int
	// TotalPayment is the requester's spend this run.
	TotalPayment float64
	// EstimationError is the average |q_i^r - mu_i^r| over the qualified
	// worker set W^r (the Section 7.7 metric). Zero when no worker
	// qualifies.
	EstimationError float64
	// QualifiedWorkers is |W^r|.
	QualifiedWorkers int
	// WorkerUtilities maps each worker to their realized utility this run
	// (payments received minus true cost for completed tasks).
	WorkerUtilities map[string]float64
}

// Engine drives the multi-run loop. Not safe for concurrent use.
//
// When the configured mechanism is the stateless MELODY or MELODY-DUAL, the
// engine transparently runs it through a persistent core.AuctionState: each
// run syncs the state to the active worker set, which applies only the
// delta from the previous run (bid/posterior updates, joins, leaves), so
// steady-state runs repair the ranked structures locally instead of
// re-sorting the population. Outcomes are byte-identical to calling
// Mechanism.Run directly (pinned by TestEngineStatefulMatchesStateless).
type Engine struct {
	cfg Config
	run int

	// Incremental auction fast path; state is nil for mechanisms without a
	// stateful adapter (RANDOM, OPT-UB, test doubles).
	state *core.AuctionState
}

// NewEngine validates the configuration and returns a ready engine.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg}
	// The engine fully consumes each outcome before the next Step, so the
	// state can recycle the outcome arenas (ReuseOutcome).
	var mechCfg core.Config
	switch m := cfg.Mechanism.(type) {
	case *core.Melody:
		mechCfg = m.Config()
	case *core.MelodyDual:
		mechCfg = m.Config()
	default:
		return e, nil
	}
	state, err := core.NewAuctionState(mechCfg, core.AuctionStateOptions{ReuseOutcome: true})
	if err != nil {
		return nil, fmt.Errorf("market: %w", err)
	}
	e.state = state
	return e, nil
}

// runAuction executes one run's mechanism, through the incremental state
// when one is attached.
func (e *Engine) runAuction(in core.Instance) (*core.Outcome, error) {
	if e.state == nil {
		return e.cfg.Mechanism.Run(in)
	}
	if err := e.state.Sync(in.Workers); err != nil {
		return nil, err
	}
	switch m := e.cfg.Mechanism.(type) {
	case *core.Melody:
		return e.state.RunMelody(in.Tasks, in.Budget)
	case *core.MelodyDual:
		return e.state.RunDual(m.Target(), in.Tasks)
	default:
		return nil, errors.New("market: stateful path attached to unknown mechanism")
	}
}

// Run returns the number of completed runs.
func (e *Engine) Run() int { return e.run }

// Step executes one run of the Fig. 2 workflow and returns its telemetry.
func (e *Engine) Step() (*RunResult, error) {
	cfg := e.cfg
	runIdx := e.run // zero-based trajectory index

	// 1. This run's requester publishes a task set with a budget.
	spec := RunSpec{
		Tasks:        cfg.TasksPerRun,
		ThresholdMin: cfg.ThresholdMin,
		ThresholdMax: cfg.ThresholdMax,
		Budget:       cfg.Budget,
	}
	if cfg.Spec != nil {
		spec = cfg.Spec(runIdx)
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("market: run %d: %w", runIdx+1, err)
		}
	}
	tasks := make([]core.Task, spec.Tasks)
	for j := range tasks {
		tasks[j] = core.Task{
			ID:        fmt.Sprintf("r%d-t%d", runIdx+1, j),
			Threshold: cfg.RNG.Uniform(spec.ThresholdMin, spec.ThresholdMax),
		}
	}

	// 2. Active workers bid; the platform attaches its quality estimates.
	// Workers outside their arrival/departure window sit the run out.
	active := make([]*workerpool.Worker, 0, len(cfg.Workers))
	for _, w := range cfg.Workers {
		if w.ActiveAt(runIdx + 1) {
			active = append(active, w)
		}
	}
	workers := make([]core.Worker, len(active))
	estimates := make(map[string]float64, len(active))
	for i, w := range active {
		est := cfg.Estimator.Estimate(w.ID)
		estimates[w.ID] = est
		workers[i] = core.Worker{
			ID:      w.ID,
			Bid:     w.Strategy.Bid(cfg.RNG, w.TrueBid),
			Quality: est,
		}
	}

	// 3. The mechanism determines the allocation and payment schemes.
	instance := core.Instance{Workers: workers, Tasks: tasks, Budget: spec.Budget}
	out, err := e.runAuction(instance)
	if err != nil {
		return nil, fmt.Errorf("market: run %d: %w", runIdx+1, err)
	}

	// 4. Workers complete their tasks (at most their true frequency) and
	// the requester scores the answers from the latent quality. Score
	// emission stays serial — it draws from the engine's single RNG stream —
	// while the estimator updates are deferred to one batch below.
	latent := make(map[string]float64, len(active))
	assigned := out.WorkerTaskCount()
	result := &RunResult{
		Run:              runIdx + 1,
		RequesterID:      spec.RequesterID,
		EstimatedUtility: out.Utility(),
		TotalPayment:     out.TotalPayment,
		WorkerUtilities:  make(map[string]float64, len(active)),
	}
	ids := make([]string, len(active))
	scoreSets := make([][]float64, len(active))
	var errSum float64
	for i, w := range active {
		q := w.LatentQuality(runIdx)
		latent[w.ID] = q

		completed := assigned[w.ID]
		if completed > w.TrueBid.Frequency {
			completed = w.TrueBid.Frequency
		}
		ids[i] = w.ID
		scoreSets[i] = workerpool.EmitScores(cfg.RNG, q, completed, cfg.ScoreSigma, cfg.ScoreLo, cfg.ScoreHi)

		result.WorkerUtilities[w.ID] = core.WorkerUtility(out, w.ID, w.TrueBid.Cost, w.TrueBid.Frequency)
		bidWorker := core.Worker{ID: w.ID, Bid: w.TrueBid, Quality: estimates[w.ID]}
		if cfg.Auction.Qualifies(bidWorker) {
			result.QualifiedWorkers++
			diff := q - estimates[w.ID]
			if diff < 0 {
				diff = -diff
			}
			errSum += diff
		}
	}

	// 5. The platform updates every worker's quality for the next run.
	// Estimators that support batch observation absorb the whole run at
	// once (MELODY runs the due workers' EM re-estimations four at a time
	// through its lane kernel, bit-identically to the serial loop).
	if batch, ok := cfg.Estimator.(quality.BatchObserver); ok {
		if _, err := batch.ObserveBatch(ids, scoreSets, nil); err != nil {
			return nil, fmt.Errorf("market: run %d: observe batch: %w", runIdx+1, err)
		}
	} else {
		for i, id := range ids {
			if err := cfg.Estimator.Observe(id, scoreSets[i]); err != nil {
				return nil, fmt.Errorf("market: run %d: observe %s: %w", runIdx+1, id, err)
			}
		}
	}
	if result.QualifiedWorkers > 0 {
		result.EstimationError = errSum / float64(result.QualifiedWorkers)
	}
	result.TrueUtility = core.TrueUtility(out, tasks, latent)

	e.run++
	return result, nil
}

// Steps executes n runs and collects their telemetry.
func (e *Engine) Steps(n int) ([]*RunResult, error) {
	if n <= 0 {
		return nil, fmt.Errorf("market: step count %d must be positive", n)
	}
	results := make([]*RunResult, 0, n)
	for i := 0; i < n; i++ {
		res, err := e.Step()
		if err != nil {
			return results, err
		}
		results = append(results, res)
	}
	return results, nil
}
