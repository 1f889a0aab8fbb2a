package quality

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"melody/internal/lds"
	"melody/internal/obs"
)

// MelodyConfig parameterizes the LDS-based estimator.
type MelodyConfig struct {
	// Init is the platform's preset initial belief N(mu^0, sigma^0) over a
	// new worker's quality (Table 4 uses mu^0 = 5.5, sigma^0 = 2.25).
	Init lds.State
	// Params is the initial hyper-parameter guess theta^0 for every worker,
	// refined by EM as history accrues.
	Params lds.Params
	// EMPeriod is the paper's T: hyper-parameters are re-estimated with
	// Algorithm 2 every T runs (Table 4 uses T = 10). Zero disables EM.
	EMPeriod int
	// EMWindow bounds the score history EM is run over (most recent runs);
	// zero means the full history. A window keeps the cost of each EM call
	// constant over a long deployment.
	EMWindow int
	// MisfitTrigger, when positive, re-runs EM as soon as the worker's
	// model-misfit score (mean squared standardized innovation; ~1 for a
	// well-specified model) exceeds it, without waiting out the full
	// EMPeriod. This is an extension beyond the paper's fixed-period
	// Algorithm 3; a typical threshold is 2-4.
	MisfitTrigger float64
	// EM configures the inner EM loop.
	EM lds.EMConfig
	// BatchConcurrency bounds the goroutine pool ObserveBatch shards
	// workers across; zero or negative means runtime.GOMAXPROCS(0).
	BatchConcurrency int
	// Metrics optionally receives EM re-estimation metrics: wall time per
	// re-estimation, total count, and the latest final log-likelihood. Nil
	// disables instrumentation.
	Metrics *obs.Registry
	// Tracer optionally records an "em.reestimate" span per re-estimation.
	Tracer *obs.Tracer
}

// Validate reports whether the configuration is usable.
func (c MelodyConfig) Validate() error {
	if err := c.Init.Validate(); err != nil {
		return fmt.Errorf("quality: init state: %w", err)
	}
	if err := c.Params.Validate(); err != nil {
		return fmt.Errorf("quality: params: %w", err)
	}
	if c.EMPeriod < 0 || c.EMWindow < 0 {
		return fmt.Errorf("quality: negative EM period or window")
	}
	if c.MisfitTrigger < 0 {
		return fmt.Errorf("quality: negative misfit trigger")
	}
	return nil
}

// scoreWindow is a worker's EM score history: a ring of per-run score
// counts plus the scores of those runs, oldest first, in one contiguous
// slice (vals[lo:]). Evicting the oldest run only advances lo; push
// compacts the live scores to the front in place when the slice is full,
// so a long deployment holds O(window) memory and steady-state pushes
// allocate nothing. With window zero the history grows unboundedly, as the
// paper's full-history variant requires.
type scoreWindow struct {
	counts []int32 // ring of run score counts; full once len == window
	start  int     // ring index of the oldest run
	runs   int
	vals   []float64
	lo     int // vals[lo:] are the retained runs' scores
}

// ring maps the i-th oldest retained run to its slot in counts.
func (h *scoreWindow) ring(i int) int {
	if i += h.start; i >= len(h.counts) {
		i -= len(h.counts)
	}
	return i
}

// evict removes the oldest run when the window is at capacity and returns
// its scores, so the caller can fold them into the window-start prior. The
// slice aliases the window and is valid until the next push.
func (h *scoreWindow) evict(window int) ([]float64, bool) {
	if window <= 0 || h.runs < window {
		return nil, false
	}
	n := int(h.counts[h.start])
	ev := h.vals[h.lo : h.lo+n]
	h.lo += n
	h.start = h.ring(1)
	h.runs--
	return ev, true
}

// push appends the newest run's scores (copied).
func (h *scoreWindow) push(window int, scores []float64) {
	if window <= 0 || len(h.counts) < window {
		h.counts = append(h.counts, int32(len(scores)))
	} else {
		h.counts[h.ring(h.runs)] = int32(len(scores))
	}
	h.runs++
	if len(h.vals)+len(scores) > cap(h.vals) && h.lo > 0 {
		h.vals = h.vals[:copy(h.vals, h.vals[h.lo:])]
		h.lo = 0
	}
	h.vals = append(h.vals, scores...)
}

// clear empties the window, keeping its backing arrays.
func (h *scoreWindow) clear() {
	*h = scoreWindow{counts: h.counts[:0], vals: h.vals[:0]}
}

// hasScores reports whether any retained run carries at least one score.
func (h *scoreWindow) hasScores() bool { return len(h.vals) > h.lo }

// view appends the retained runs to dst[:0] in chronological order; the
// runs alias the window.
func (h *scoreWindow) view(dst [][]float64) [][]float64 {
	dst = dst[:0]
	for i, off := 0, h.lo; i < h.runs; i++ {
		n := int(h.counts[h.ring(i)])
		dst = append(dst, h.vals[off:off+n:off+n])
		off += n
	}
	return dst
}

// melodyWorker is the per-worker state of Algorithm 3: model state only.
// Inference scratch lives in the estimator (one scratch per goroutine), so
// a tracked worker costs its beliefs, theta and its score window.
type melodyWorker struct {
	posterior lds.State
	params    lds.Params
	// windowInit is the filtered posterior just before the oldest run still
	// in history. EM uses it as the window's initial state so a sliding
	// window does not keep re-anchoring the chain at the global prior.
	windowInit lds.State
	sinceEM    int
	gen        uint64 // last ObserveBatch generation that touched this worker
	hist       scoreWindow
}

// scratch is one goroutine's inference working memory: the smoother/EM
// workspace, the window's chronological view and the innovations buffer.
// Nothing in it outlives the worker update that uses it.
type scratch struct {
	ws   lds.Workspace
	view [][]float64
	inn  []lds.Innovation
}

// history returns the worker's retained runs in chronological order,
// aliasing the window through the scratch view.
func (sc *scratch) history(w *melodyWorker) [][]float64 {
	sc.view = w.hist.view(sc.view)
	return sc.view
}

// misfit is the worker's model-misfit score over its retained window.
func (sc *scratch) misfit(w *melodyWorker) (float64, error) {
	innovations, err := lds.InnovationsInto(sc.inn[:0], w.params, w.windowInit, sc.history(w))
	if err != nil {
		return 0, err
	}
	sc.inn = innovations
	return lds.MisfitScore(innovations)
}

// Melody is the paper's quality estimator: each worker's latent quality is
// tracked with the Theorem 3 Kalman recursion, and the worker's
// hyper-parameters theta = {a, gamma, eta} are re-learned with EM every
// EMPeriod runs (Algorithm 3).
//
// Melody is not safe for concurrent use with its mutating methods, but
// ObserveBatch internally shards its independent per-worker updates across
// a bounded goroutine pool and is bit-identical to the equivalent sequence
// of Observe calls. The read paths — Estimate, Posterior, Params, Forecast
// and SnapshotState — write nothing, so any number of them may run at once
// while no update is in progress.
type Melody struct {
	cfg     MelodyConfig
	workers map[string]*melodyWorker
	// batchGen stamps workers touched by the current ObserveBatch so
	// duplicate IDs inside one batch are detected without a per-batch set.
	batchGen uint64

	// scratch serves Observe, Misfit and serial batches; shards holds one
	// scratch per concurrent ObserveBatch shard, reused across batches.
	scratch scratch
	shards  []scratch

	// Instrumentation handles; nil (no-op) when cfg.Metrics is nil. The
	// handles are internally atomic, so concurrent ObserveBatch shards can
	// record through them without coordination.
	emSeconds *obs.Histogram
	emRuns    *obs.Counter
	emLoglik  *obs.Gauge
	restarts  *obs.Counter
}

var (
	_ Estimator     = (*Melody)(nil)
	_ BatchObserver = (*Melody)(nil)
)

// NewMelody constructs the MELODY estimator.
func NewMelody(cfg MelodyConfig) (*Melody, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Melody{
		cfg:       cfg,
		workers:   make(map[string]*melodyWorker),
		emSeconds: cfg.Metrics.Histogram(obs.MetricEMReestimateSeconds, "Wall time of one per-worker EM re-estimation.", obs.TimeBuckets()),
		emRuns:    cfg.Metrics.Counter(obs.MetricEMRunsTotal, "EM re-estimations performed."),
		emLoglik:  cfg.Metrics.Gauge(obs.MetricEMLogLikelihood, "Final log marginal likelihood of the latest EM re-estimation."),
		restarts:  cfg.Metrics.Counter(obs.MetricEstimatorRestartsTotal, "Diverged workers restarted from the initial belief."),
	}, nil
}

// Name implements Estimator.
func (m *Melody) Name() string { return "MELODY" }

// Estimate implements Estimator: mu^{r+1} = a * mu-hat^r (Eq. 19). A
// never-observed worker gets a * mu^0 (Algorithm 3, line 2).
func (m *Melody) Estimate(workerID string) float64 {
	w, ok := m.workers[workerID]
	if !ok {
		return m.cfg.Params.A * m.cfg.Init.Mean
	}
	return w.params.A * w.posterior.Mean
}

// Posterior exposes the worker's current posterior belief (mu-hat, sigma-hat)
// for inspection; ok is false for unknown workers.
func (m *Melody) Posterior(workerID string) (lds.State, bool) {
	w, ok := m.workers[workerID]
	if !ok {
		return lds.State{}, false
	}
	return w.posterior, true
}

// Params exposes the worker's current hyper-parameters; unknown workers
// report the configured initial guess.
func (m *Melody) Params(workerID string) lds.Params {
	if w, ok := m.workers[workerID]; ok {
		return w.params
	}
	return m.cfg.Params
}

// Forecast returns the k-step-ahead predictive distribution of the
// worker's latent quality (steps = 1 is the next run's prior, Eq. 19).
// Unknown workers are forecast from the platform's initial belief.
func (m *Melody) Forecast(workerID string, steps int) (lds.Forecast, error) {
	posterior := m.cfg.Init
	params := m.cfg.Params
	if w, ok := m.workers[workerID]; ok {
		posterior = w.posterior
		params = w.params
	}
	return lds.ForecastAhead(params, posterior, steps)
}

// Misfit returns the worker's model-misfit score: the mean squared
// standardized one-step prediction residual over the retained history
// (near 1 when the LDS fits; far above 1 when the worker's dynamics
// violate it — see lds.MisfitScore). ok is false for workers with no
// scored history.
func (m *Melody) Misfit(workerID string) (float64, bool, error) {
	w, found := m.workers[workerID]
	if !found || !w.hist.hasScores() {
		return 0, false, nil
	}
	score, err := m.scratch.misfit(w)
	if err != nil {
		return 0, false, fmt.Errorf("quality: worker %s: %w", workerID, err)
	}
	return score, true, nil
}

// lookup returns the worker's state, creating it on first contact.
func (m *Melody) lookup(workerID string) *melodyWorker {
	w, ok := m.workers[workerID]
	if !ok {
		w = &melodyWorker{
			posterior:  m.cfg.Init,
			params:     m.cfg.Params,
			windowInit: m.cfg.Init,
		}
		m.workers[workerID] = w
	}
	return w
}

// Observe implements Estimator: the Theorem 3 posterior update, followed by
// EM re-estimation when the worker's parameters have not been updated for
// EMPeriod runs (Algorithm 3, lines 6-8).
func (m *Melody) Observe(workerID string, scores []float64) error {
	return m.observeWorker(m.lookup(workerID), workerID, scores, &m.scratch)
}

// restart returns a diverged worker to the unseen-worker state: the
// configured initial belief and theta^0 with an empty window.
func (m *Melody) restart(w *melodyWorker) {
	w.posterior = m.cfg.Init
	w.params = m.cfg.Params
	w.windowInit = m.cfg.Init
	w.sinceEM = 0
	w.hist.clear()
	m.restarts.Inc()
}

// observeWorker is the single-worker update shared by Observe and
// ObserveBatch. It touches only the given worker's state, the read-only
// configuration and the caller's scratch, so distinct workers can be
// updated concurrently, each goroutine with its own scratch.
func (m *Melody) observeWorker(w *melodyWorker, workerID string, scores []float64, sc *scratch) error {
	if err := validateScores(scores); err != nil {
		return err
	}
	next, err := lds.Update(w.params, w.posterior, scores)
	if err != nil {
		return fmt.Errorf("quality: worker %s: %w", workerID, err)
	}
	// Slide the window: fold the evicted run into the window-start prior
	// with the filter, so EM sees a correctly anchored chain, before push
	// may reuse its space.
	anchor := w.windowInit
	if evicted, ok := w.hist.evict(m.cfg.EMWindow); ok {
		if anchor, err = lds.Update(w.params, anchor, evicted); err != nil {
			return fmt.Errorf("quality: worker %s window: %w", workerID, err)
		}
	}
	if next.Validate() != nil || anchor.Validate() != nil {
		// The belief diverged (e.g. a > 1 with no scores for thousands of
		// runs overflows the variance), and every later update would fail
		// on it. Restart the worker as unseen and apply this run to that.
		m.restart(w)
		if next, err = lds.Update(w.params, w.posterior, scores); err != nil {
			return fmt.Errorf("quality: worker %s: %w", workerID, err)
		}
		anchor = w.windowInit
	}
	w.posterior = next
	w.windowInit = anchor
	w.hist.push(m.cfg.EMWindow, scores)

	if m.cfg.EMPeriod > 0 {
		w.sinceEM++
		due := w.sinceEM >= m.cfg.EMPeriod
		if !due && m.cfg.MisfitTrigger > 0 && w.hist.hasScores() {
			// Adaptive re-estimation: a persistently surprised model
			// re-learns immediately instead of waiting out the period.
			score, err := sc.misfit(w)
			if err != nil {
				return fmt.Errorf("quality: worker %s diagnostics: %w", workerID, err)
			}
			due = score > m.cfg.MisfitTrigger
		}
		if due {
			w.sinceEM = 0
			if w.hist.hasScores() {
				sp := m.cfg.Tracer.Start("em.reestimate")
				sp.SetAttr("worker", workerID)
				start := time.Now()
				res, err := sc.ws.EM(w.params, w.windowInit, sc.history(w), m.cfg.EM)
				m.emSeconds.Observe(time.Since(start).Seconds())
				sp.End()
				if err != nil {
					return fmt.Errorf("quality: worker %s EM: %w", workerID, err)
				}
				m.emRuns.Inc()
				m.emLoglik.Set(res.LogLikelihood)
				w.params = res.Params
			}
		}
	}
	return nil
}

// minParallelBatch is the batch size below which sharding overhead beats
// the win from parallel updates.
const minParallelBatch = 8

// ObserveBatch implements BatchObserver: one whole run's observations at
// once. Per-worker Kalman/EM updates are independent, so the batch is
// sharded across a bounded goroutine pool; results are bit-identical to
// calling Observe per worker in order. Unlike a serial Observe loop, which
// stops at the first failure, every worker is processed and all failures
// are reported (joined in batch order).
func (m *Melody) ObserveBatch(ids []string, scores [][]float64) error {
	if len(ids) != len(scores) {
		return fmt.Errorf("quality: batch mismatch: %d ids, %d score sets", len(ids), len(scores))
	}
	if len(ids) == 0 {
		return nil
	}
	// Resolve (and create) worker state serially: map writes are not
	// goroutine-safe, and the generation stamp flags duplicate IDs, which
	// would alias state across goroutines.
	m.batchGen++
	workers := make([]*melodyWorker, len(ids))
	duplicates := false
	for i, id := range ids {
		w := m.lookup(id)
		if w.gen == m.batchGen {
			duplicates = true
		}
		w.gen = m.batchGen
		workers[i] = w
	}

	concurrency := m.cfg.BatchConcurrency
	if concurrency <= 0 {
		concurrency = runtime.GOMAXPROCS(0)
	}
	if concurrency > len(ids) {
		concurrency = len(ids)
	}
	if duplicates || concurrency <= 1 || len(ids) < minParallelBatch {
		var errs []error
		for i := range ids {
			if err := m.observeWorker(workers[i], ids[i], scores[i], &m.scratch); err != nil {
				errs = append(errs, err)
			}
		}
		return errors.Join(errs...)
	}

	errs := make([]error, len(ids))
	chunk := (len(ids) + concurrency - 1) / concurrency
	if shards := (len(ids) + chunk - 1) / chunk; len(m.shards) < shards {
		m.shards = append(m.shards, make([]scratch, shards-len(m.shards))...)
	}
	var wg sync.WaitGroup
	for shard, lo := 0, 0; lo < len(ids); shard, lo = shard+1, lo+chunk {
		hi := lo + chunk
		if hi > len(ids) {
			hi = len(ids)
		}
		wg.Add(1)
		go func(sc *scratch, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				errs[i] = m.observeWorker(workers[i], ids[i], scores[i], sc)
			}
		}(&m.shards[shard], lo, hi)
	}
	wg.Wait()
	return errors.Join(errs...)
}
