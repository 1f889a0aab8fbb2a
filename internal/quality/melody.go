package quality

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
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
	// EM configures the inner EM loop.
	EM lds.EMConfig
	// Metrics optionally receives EM re-estimation metrics: wall time per
	// re-estimation, the counts of re-estimations and of those that
	// stopped at EM.MaxIter, and the latest final log-likelihood. Nil
	// disables instrumentation.
	Metrics *obs.Registry
	// Tracer optionally records an "em.reestimate" span per group of
	// re-estimations run together (see ObserveBatch).
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
	return nil
}

// scoreWindow is a worker's EM score history: a ring of per-run score
// counts plus the scores of those runs, oldest first, in one contiguous
// slice (vals[lo:]). Evicting the oldest run only advances lo; push
// compacts the live scores to the front in place when the slice is full,
// so a long deployment holds O(window) memory and steady-state pushes
// allocate nothing. With window zero the history grows unboundedly, as the
// paper's full-history variant requires.
//
// The ring takes one byte per run, allocated at the window's length on the
// first push. A run of 255 or more scores widens it to int32 for good:
// wide then holds the ring and counts is nil.
type scoreWindow struct {
	counts []uint8 // ring of run score counts; full once its length is the window
	wide   []int32 // the ring once a run brought 255 or more scores
	start  int     // ring index of the oldest run
	runs   int
	vals   []float64
	lo     int // vals[lo:] are the retained runs' scores
}

// slots is the ring's length.
func (h *scoreWindow) slots() int { return len(h.counts) + len(h.wide) }

// count is the score count in ring slot i.
func (h *scoreWindow) count(i int) int {
	if h.wide != nil {
		return int(h.wide[i])
	}
	return int(h.counts[i])
}

// ring maps the i-th oldest retained run to its slot in the ring.
func (h *scoreWindow) ring(i int) int {
	if i += h.start; i >= h.slots() {
		i -= h.slots()
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
	n := h.count(h.start)
	ev := h.vals[h.lo : h.lo+n]
	h.lo += n
	h.start = h.ring(1)
	h.runs--
	return ev, true
}

// push appends the newest run's scores (copied).
func (h *scoreWindow) push(window int, scores []float64) {
	n := len(scores)
	if n >= 255 && h.wide == nil {
		h.wide = make([]int32, len(h.counts), max(window, cap(h.counts)))
		for i, c := range h.counts {
			h.wide[i] = int32(c)
		}
		h.counts = nil
	}
	full := window > 0 && h.slots() >= window
	switch {
	case h.wide != nil && full:
		h.wide[h.ring(h.runs)] = int32(n)
	case h.wide != nil:
		h.wide = append(h.wide, int32(n))
	case full:
		h.counts[h.ring(h.runs)] = uint8(n)
	default:
		if h.counts == nil && window > 0 {
			h.counts = make([]uint8, 0, window)
		}
		h.counts = append(h.counts, uint8(n))
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
	*h = scoreWindow{counts: h.counts[:0], wide: h.wide[:0], vals: h.vals[:0]}
}

// hasScores reports whether any retained run carries at least one score.
func (h *scoreWindow) hasScores() bool { return len(h.vals) > h.lo }

// view appends the retained runs to dst[:0] in chronological order; the
// runs alias the window.
func (h *scoreWindow) view(dst [][]float64) [][]float64 {
	dst = dst[:0]
	for i, off := 0, h.lo; i < h.runs; i++ {
		n := h.count(h.ring(i))
		dst = append(dst, h.vals[off:off+n:off+n])
		off += n
	}
	return dst
}

// melodyWorker is the per-worker state of Algorithm 3: model state only.
// Inference scratch lives in the estimator, so a tracked worker costs its
// beliefs, theta and its score window.
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

// scratch is the estimator's inference working memory: the smoother/EM
// workspace, the windows' chronological views (one per EM lane), the
// innovations buffer and the EM lane group. Nothing in it outlives the
// update that uses it.
type scratch struct {
	ws    lds.Workspace
	views [lds.Lanes][][]float64
	inn   []lds.Innovation
	lanes [lds.Lanes]lds.EMLane
}

// history returns the worker's retained runs in chronological order,
// aliasing the window through the lane's view.
func (sc *scratch) history(lane int, w *melodyWorker) [][]float64 {
	sc.views[lane] = w.hist.view(sc.views[lane])
	return sc.views[lane]
}

// misfit is the worker's model-misfit score over its retained window.
func (sc *scratch) misfit(w *melodyWorker) (float64, error) {
	innovations, err := lds.InnovationsInto(sc.inn[:0], w.params, w.windowInit, sc.history(0, w))
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
// Melody is not safe for concurrent use with its mutating methods.
// ObserveBatch runs the EM re-estimations a run makes due through the lane
// kernel (lds.Workspace.EMLanes), several workers at once, and leaves
// exactly the state the equivalent sequence of Observe calls would. The
// read paths — Estimate, Posterior, Params, Forecast and SnapshotState —
// write nothing, so any number of them may run at once while no update is
// in progress.
type Melody struct {
	cfg     MelodyConfig
	workers map[string]*melodyWorker
	// batchGen stamps workers touched by the current ObserveBatch so
	// duplicate IDs inside one batch are detected without a per-batch set.
	batchGen uint64
	// batch is ObserveBatch's worker list, kept for the next batch unless
	// it grew past maxKeptBatch.
	batch []*melodyWorker

	scratch scratch

	// Instrumentation handles; nil (no-op) when cfg.Metrics is nil.
	emSeconds     *obs.Histogram
	emRuns        *obs.Counter
	emUnconverged *obs.Counter
	emLoglik      *obs.Gauge
	restarts      *obs.Counter
}

var (
	_ Estimator     = (*Melody)(nil)
	_ BatchObserver = (*Melody)(nil)
)

// maxKeptBatch bounds the batch buffer an estimator keeps between batches,
// so one large batch does not leave it holding that size.
const maxKeptBatch = 64

// NewMelody constructs the MELODY estimator.
func NewMelody(cfg MelodyConfig) (*Melody, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Melody{
		cfg:           cfg,
		workers:       make(map[string]*melodyWorker),
		emSeconds:     cfg.Metrics.Histogram(obs.MetricEMReestimateSeconds, "Wall time of one per-worker EM re-estimation (its share of its lane group's time).", obs.TimeBuckets()),
		emRuns:        cfg.Metrics.Counter(obs.MetricEMRunsTotal, "EM re-estimations performed."),
		emUnconverged: cfg.Metrics.Counter(obs.MetricEMUnconvergedTotal, "EM re-estimations that stopped at the iteration cap without reaching the tolerance."),
		emLoglik:      cfg.Metrics.Gauge(obs.MetricEMLogLikelihood, "Final log marginal likelihood of the latest EM re-estimation."),
		restarts:      cfg.Metrics.Counter(obs.MetricEstimatorRestartsTotal, "Diverged workers restarted from the initial belief."),
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

// EstimateIdle is Estimate of a worker that update has seen runs times,
// each with no scores, computed without storing it.
func (m *Melody) EstimateIdle(runs int) float64 {
	return m.cfg.Params.A * m.idle(runs).Mean
}

// ForecastIdle is Forecast of a worker that update has seen runs times,
// each with no scores, computed without storing it.
func (m *Melody) ForecastIdle(runs, steps int) (lds.Forecast, error) {
	return lds.ForecastAhead(m.cfg.Params, m.idle(runs), steps)
}

// idle returns the posterior update leaves a new worker after runs runs
// without scores, restarts included, writing and counting nothing. Such a
// window never makes EM due, so theta stays theta^0. lds.Update fails only
// on an invalid theta or belief, and neither occurs here: theta^0 is
// validated, and a diverged belief restarts as in update.
func (m *Melody) idle(runs int) lds.State {
	posterior, anchor, held := m.cfg.Init, m.cfg.Init, 0
	for range runs {
		next, _ := lds.Update(m.cfg.Params, posterior, nil)
		if m.cfg.EMWindow > 0 && held >= m.cfg.EMWindow {
			anchor, _ = lds.Update(m.cfg.Params, anchor, nil)
			held--
		}
		if next.Validate() != nil || anchor.Validate() != nil {
			next, _ = lds.Update(m.cfg.Params, m.cfg.Init, nil)
			anchor, held = m.cfg.Init, 0
		}
		posterior = next
		held++
	}
	return posterior
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
	w := m.lookup(workerID)
	due, err := m.update(w, workerID, scores)
	if err != nil || !due {
		return err
	}
	return m.reestimateOne(w, workerID)
}

// reestimateOne runs one due worker's EM on its own, a lane group of one.
func (m *Melody) reestimateOne(w *melodyWorker, workerID string) error {
	lanes := m.scratch.lanes[:1]
	lanes[0] = lds.EMLane{Start: w.params, Init: w.windowInit, History: m.scratch.history(0, w)}
	m.reestimate(lanes, workerID)
	ll, err := m.install(w, workerID, &lanes[0])
	if err == nil {
		m.emLoglik.Set(ll)
	}
	return err
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

// update is Algorithm 3's per-run step for one worker, without the EM
// re-estimation: the posterior update, the window slide and, when the
// parameters are due for re-estimation, the period reset. It reports
// whether the caller must now run the worker's EM.
func (m *Melody) update(w *melodyWorker, workerID string, scores []float64) (bool, error) {
	if err := validateScores(scores); err != nil {
		return false, err
	}
	next, err := lds.Update(w.params, w.posterior, scores)
	if err != nil {
		return false, fmt.Errorf("quality: worker %s: %w", workerID, err)
	}
	// Slide the window: fold the evicted run into the window-start prior
	// with the filter, so EM sees a correctly anchored chain, before push
	// may reuse its space.
	anchor := w.windowInit
	if evicted, ok := w.hist.evict(m.cfg.EMWindow); ok {
		if anchor, err = lds.Update(w.params, anchor, evicted); err != nil {
			return false, fmt.Errorf("quality: worker %s window: %w", workerID, err)
		}
	}
	if next.Validate() != nil || anchor.Validate() != nil {
		// The belief diverged (e.g. a > 1 with no scores for thousands of
		// runs overflows the variance), and every later update would fail
		// on it. Restart the worker as unseen and apply this run to that.
		m.restart(w)
		if next, err = lds.Update(w.params, w.posterior, scores); err != nil {
			return false, fmt.Errorf("quality: worker %s: %w", workerID, err)
		}
		anchor = w.windowInit
	}
	w.posterior = next
	w.windowInit = anchor
	w.hist.push(m.cfg.EMWindow, scores)

	if m.cfg.EMPeriod <= 0 {
		return false, nil
	}
	w.sinceEM++
	if w.sinceEM < m.cfg.EMPeriod {
		return false, nil
	}
	w.sinceEM = 0
	return w.hist.hasScores(), nil
}

// reestimate runs one group of due EM re-estimations, windows of equal
// length, through the lane kernel. The group is one em.reestimate span
// (worker names the worker when the group has one lane), and each lane
// observes its share of the group's wall time, so the histogram stays a
// per-worker distribution whose sum is the time spent.
func (m *Melody) reestimate(lanes []lds.EMLane, workerID string) {
	sp := m.cfg.Tracer.Start("em.reestimate")
	sp.SetAttrInt("lanes", int64(len(lanes)))
	if len(lanes) == 1 {
		sp.SetAttr("worker", workerID)
	}
	start := time.Now()
	m.scratch.ws.EMLanes(lanes, m.cfg.EM)
	share := time.Since(start).Seconds() / float64(len(lanes))
	sp.End()
	for range lanes {
		m.emSeconds.Observe(share)
	}
}

// install applies one lane's EM outcome to its worker and counts it. It
// returns the final log-likelihood for the caller to publish, so a batch
// can leave the gauge as the serial loop would.
func (m *Melody) install(w *melodyWorker, workerID string, l *lds.EMLane) (float64, error) {
	if l.Err != nil {
		return 0, fmt.Errorf("quality: worker %s EM: %w", workerID, l.Err)
	}
	m.emRuns.Inc()
	if !l.Result.Converged {
		m.emUnconverged.Inc()
	}
	w.params = l.Result.Params
	return l.Result.LogLikelihood, nil
}

// installLogged gives a due worker the theta a log recorded for its EM
// re-estimation instead of running EM. It counts nothing: the EM metrics
// and spans count only the re-estimations computed here.
func (m *Melody) installLogged(w *melodyWorker, workerID string, params lds.Params) error {
	if err := params.Validate(); err != nil {
		return fmt.Errorf("quality: worker %s logged EM: %w", workerID, err)
	}
	w.params = params
	return nil
}

// ObserveBatch implements BatchObserver: one whole run's observations at
// once, leaving exactly the state that calling Observe per worker in order
// would. It first runs every worker's posterior update in batch order,
// then the EM re-estimations that made due, through the lane kernel: due
// workers are ordered by window length, keeping batch order among equal
// lengths, and each length's windows run lds.Lanes at a time. Workers are
// independent, so how they are grouped changes no result. Given logged
// re-estimations, it installs their theta instead and runs no EM, so the
// EM metrics, the em.reestimate spans and the log-likelihood gauge are
// left as they are. Unlike a serial Observe loop, which stops at the first
// failure, every worker is processed and every failure is reported, as a
// *WorkerError, joined in batch order. A batch that names a worker twice
// runs as the serial loop, since the worker's second update must follow
// its first EM.
func (m *Melody) ObserveBatch(ids []string, scores [][]float64, logged []Reestimation) ([]Reestimation, error) {
	if len(ids) != len(scores) {
		return nil, fmt.Errorf("quality: batch mismatch: %d ids, %d score sets", len(ids), len(scores))
	}
	m.batchGen++
	workers := slices.Grow(m.batch[:0], len(ids))[:len(ids)]
	defer func() {
		clear(workers)
		if cap(workers) > maxKeptBatch {
			workers = nil
		}
		m.batch = workers[:0]
	}()
	duplicates := false
	for i, id := range ids {
		w := m.lookup(id)
		if w.gen == m.batchGen {
			duplicates = true
		}
		w.gen = m.batchGen
		workers[i] = w
	}
	if duplicates {
		return m.observeSerial(ids, workers, scores, logged)
	}

	var errs []batchErr
	var due []int
	for i, w := range workers {
		isDue, err := m.update(w, ids[i], scores[i])
		switch {
		case err != nil:
			errs = append(errs, batchErr{i, err})
		case isDue:
			due = append(due, i)
		}
	}
	if logged != nil {
		for k, i := range due {
			if k == len(logged) || logged[k].Worker != ids[i] {
				return nil, mismatch(logged, k, ids[i])
			}
			if err := m.installLogged(workers[i], ids[i], logged[k].Params); err != nil {
				errs = append(errs, batchErr{i, err})
			}
		}
		if len(logged) > len(due) {
			return nil, mismatch(logged, len(due), "")
		}
	} else if len(due) > 0 {
		errs = m.reestimateDue(ids, workers, due, errs)
	}
	if len(errs) > 0 {
		slices.SortStableFunc(errs, func(a, b batchErr) int { return cmp.Compare(a.i, b.i) })
		return nil, joinBatchErrs(ids, errs)
	}
	if logged != nil || len(due) == 0 {
		return logged, nil
	}
	made := make([]Reestimation, len(due))
	for k, i := range due {
		made[k] = Reestimation{Worker: ids[i], Params: workers[i].params}
	}
	return made, nil
}

// reestimateDue runs the EMs of the due workers (batch indexes, in batch
// order) through the lane kernel, installs each result and appends each
// failure to errs.
func (m *Melody) reestimateDue(ids []string, workers []*melodyWorker, due []int, errs []batchErr) []batchErr {
	runs := func(i int) int { return workers[i].hist.runs }
	byLen := slices.Clone(due)
	slices.SortStableFunc(byLen, func(a, b int) int { return cmp.Compare(runs(a), runs(b)) })
	// The gauge ends at the last successful re-estimation in batch order,
	// as the serial loop leaves it.
	last, lastLL := -1, 0.0
	var groupBuf [lds.Lanes]int
	group := groupBuf[:0]
	for k, i := range byLen {
		lanes := m.scratch.lanes[:len(group)+1]
		lanes[len(group)] = lds.EMLane{Start: workers[i].params, Init: workers[i].windowInit, History: m.scratch.history(len(group), workers[i])}
		group = append(group, i)
		if len(group) < lds.Lanes && k+1 < len(byLen) && runs(byLen[k+1]) == runs(i) {
			continue
		}
		m.reestimate(lanes, ids[group[0]])
		for j, i := range group {
			ll, err := m.install(workers[i], ids[i], &lanes[j])
			if err != nil {
				errs = append(errs, batchErr{i, err})
			} else if i > last {
				last, lastLL = i, ll
			}
		}
		group = group[:0]
	}
	if last >= 0 {
		m.emLoglik.Set(lastLL)
	}
	return errs
}

// observeSerial is ObserveBatch for a batch that names a worker twice: the
// serial Observe loop, each due worker's EM (or its logged theta) right
// after its update, every failure collected.
func (m *Melody) observeSerial(ids []string, workers []*melodyWorker, scores [][]float64, logged []Reestimation) ([]Reestimation, error) {
	var errs []batchErr
	var made []Reestimation
	for i, w := range workers {
		due, err := m.update(w, ids[i], scores[i])
		if err == nil && due {
			k := len(made)
			switch {
			case logged == nil:
				err = m.reestimateOne(w, ids[i])
			case k == len(logged) || logged[k].Worker != ids[i]:
				return nil, mismatch(logged, k, ids[i])
			default:
				err = m.installLogged(w, ids[i], logged[k].Params)
			}
			made = append(made, Reestimation{Worker: ids[i], Params: w.params})
		}
		if err != nil {
			errs = append(errs, batchErr{i, err})
		}
	}
	if len(logged) > len(made) {
		return nil, mismatch(logged, len(made), "")
	}
	if len(errs) > 0 {
		return nil, joinBatchErrs(ids, errs)
	}
	return made, nil
}

// mismatch describes the first difference between logged re-estimations
// and the workers a batch makes due: logged[k] against the batch's k-th
// due worker, due, which is empty when the batch makes no more than k
// workers due.
func mismatch(logged []Reestimation, k int, due string) error {
	switch {
	case k == len(logged):
		return fmt.Errorf("%w: the batch makes worker %s due, but the log lists only %d re-estimations", ErrReestimationMismatch, due, k)
	case due == "":
		return fmt.Errorf("%w: the log lists worker %s, but the batch makes only %d workers due", ErrReestimationMismatch, logged[k].Worker, k)
	default:
		return fmt.Errorf("%w: re-estimation %d is of worker %s in the log but of worker %s in the batch", ErrReestimationMismatch, k, logged[k].Worker, due)
	}
}

// batchErr is the failure of the worker at batch index i.
type batchErr struct {
	i   int
	err error
}

// joinBatchErrs joins the failures, in batch order, as *WorkerErrors.
func joinBatchErrs(ids []string, errs []batchErr) error {
	if len(errs) == 0 {
		return nil
	}
	joined := make([]error, len(errs))
	for k, e := range errs {
		joined[k] = &WorkerError{Worker: ids[e.i], Err: e.err}
	}
	return errors.Join(joined...)
}
