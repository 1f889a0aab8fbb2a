// The incremental re-qualification cache: a persistent, cross-run auction
// kernel for registries of 10^5-10^6 workers.
//
// MELODY's long-term structure makes consecutive runs highly redundant —
// most workers' bids and LDS posteriors move little run-to-run — so the
// expensive per-run work of Algorithm 1 (qualification filtering and the
// O(N log N) quality-per-cost ranking) can be carried across runs and
// repaired locally instead of rebuilt from scratch. AuctionState keeps the
// sorted ranking, its availability skip structure, the OPT-UB capacity
// order, and every per-run arena alive between runs:
//
//   - Apply ingests a WorkerDelta (changed bids/posteriors, joins, leaves)
//     and repairs the sorted order with one merge sweep: departures and
//     stale copies are dropped, re-sorted upserts are merged in. Past a
//     configurable churn threshold it falls back to a full rebuild, which
//     is both simpler and faster once most of the array moves anyway.
//     Sync takes a run's full worker set instead and diffs it against the
//     registry itself, so a caller keeps no mirror of what it last fed.
//   - Run* executes an auction against the cached structures. Consumed
//     frequencies and compressed skip pointers are restored afterwards by
//     walking only the winner arena — O(Σ winners), not O(N) — so a
//     steady-state run never touches the full registry at all.
//
// Determinism argument: the ranking comparator (mu/c descending, ID
// ascending) and the OPT-UB capacity comparator (density ascending, ID
// ascending) are strict total orders, so the sorted sequences are pure
// functions of the registry contents. Any correct repair therefore yields
// byte-identical structures to a from-scratch rebuild, and the downstream
// allocation arithmetic — identical code, identical iteration order —
// yields byte-identical outcomes. internal/verify pins this with stateful
// differential tests and a churn-sequence fuzz target.
package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"melody/internal/obs"
)

// WorkerDelta describes the registry changes between two consecutive runs.
type WorkerDelta struct {
	// Upserts are joining workers and existing workers whose bid or quality
	// estimate changed. An upsert fully replaces the stored worker.
	Upserts []Worker
	// Removes lists departing worker IDs. Removing an unknown worker is an
	// error: silently accepting it would mask a desynchronized caller.
	Removes []string
}

// AuctionStateOptions configure an AuctionState.
type AuctionStateOptions struct {
	// ChurnThreshold is the fraction of the registry above which Apply and
	// Sync abandon local repair and rebuild the sorted structures from
	// scratch.
	// Zero means the default of 0.5.
	ChurnThreshold float64
	// ReuseOutcome makes Run* return an outcome backed by state-owned
	// buffers, valid only until the next Apply/Run call on this state. With
	// it, steady-state auctions allocate (almost) nothing even at n=10^6;
	// without it every run returns an independent Outcome.
	ReuseOutcome bool
	// Metrics optionally counts incremental repairs vs full rebuilds and
	// tracks the per-Apply churn ratio. Nil disables instrumentation.
	Metrics *obs.Registry
	// Tracer optionally records auction.run and auction.incremental spans.
	// Nil disables tracing.
	Tracer *obs.Tracer
}

// AuctionState is the persistent cross-run auction kernel. It owns the
// worker registry; callers feed it per-run deltas via Apply or full worker
// sets via Sync and execute auctions with RunMelody, RunDual or RunOptUB.
// All three mechanisms are byte-identical to their stateless counterparts
// run on the registry snapshot. Not safe for concurrent use.
type AuctionState struct {
	cfg  Config
	opts AuctionStateOptions

	// byID is the registry, qualified or not: one entry per current worker.
	// Each ingest stamps the entries it names with the next epoch, which
	// backs duplicate detection and, in a Sync, finds the workers that
	// leave: those left unstamped.
	byID  map[string]entry
	epoch uint64

	// MELODY/DUAL ranking structures. ranked/density are fully sorted and
	// double-buffered for the merge repair; the rankStream view over them is
	// always fully materialized (nQual == len(ranked)).
	ranked     []Worker
	density    []float64
	rankedAlt  []Worker
	densityAlt []float64
	st         rankStream

	// OPT-UB capacity structures, built on first use and repaired by the
	// same delta sweeps afterwards.
	caps        []ubCap
	capsAlt     []ubCap
	ubRemaining []float64
	capsValid   bool

	// Repair scratch, filled only when a delta is repaired rather than
	// rebuilt: insEnt holds the incoming records and goneEnt the pre-delta
	// records of every replaced or departing worker, both qualified ones
	// only. The repairs locate outgoing entries by binary search on
	// goneEnt's keys, so the merge sweeps never do per-element map lookups.
	inserts []Worker
	insDen  []float64
	insEnt  []rankEntry
	goneEnt []rankEntry
	insCaps []ubCap
	gonePos []int
	insPos  []int
	// remAlt double-buffers the stream's remaining array: the repair splices
	// it alongside ranked (pre-Apply it is a pure function of position, so
	// chunks move with their workers). repairFrom is the first position the
	// latest repair disturbed; identity skip pointers before it are intact.
	remAlt     []int
	repairFrom int

	// Per-run arenas. taskSeen holds the task IDs of the list last
	// validated, for duplicate detection; it is cleared at the start of each
	// validation, so it never holds more than one run's tasks, and its buckets
	// are reused. rawTasks remembers the caller's task list verbatim so
	// steady-state runs over an unchanged list (the common persistent-auction
	// pattern) skip validation and re-sorting.
	pre        preAllocResult
	tasks      []Task
	rawTasks   []Task
	tasksReady bool
	taskSeen   map[string]struct{}
	offsets    []int
	out        Outcome // reused outcome backing store (ReuseOutcome)

	// Instrumentation (nil-safe no-ops when Options.Metrics/Tracer are nil).
	repairs    *obs.Counter
	rebuilds   *obs.Counter
	churnRatio *obs.Gauge
	runDur     *obs.Histogram
	winners    *obs.Gauge
	spent      *obs.Gauge
	tracer     *obs.Tracer
}

// NewAuctionState constructs an empty stateful kernel with the given
// qualification intervals.
func NewAuctionState(cfg Config, opts AuctionStateOptions) (*AuctionState, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.ChurnThreshold < 0 || opts.ChurnThreshold > 1 {
		return nil, fmt.Errorf("core: churn threshold %v must be in [0, 1]", opts.ChurnThreshold)
	}
	if opts.ChurnThreshold == 0 {
		opts.ChurnThreshold = 0.5
	}
	s := &AuctionState{
		cfg:      cfg,
		opts:     opts,
		byID:     make(map[string]entry),
		taskSeen: make(map[string]struct{}),
		tracer:   opts.Tracer,
	}
	if reg := opts.Metrics; reg != nil {
		s.repairs = reg.Counter(obs.MetricAuctionIncrementalRepairsTotal, "Auction cache deltas applied by local repair.")
		s.rebuilds = reg.Counter(obs.MetricAuctionFullRebuildsTotal, "Auction cache deltas applied by full rebuild.")
		s.churnRatio = reg.Gauge(obs.MetricAuctionCacheChurnRatio, "Registry fraction mutated by the latest delta.")
		s.runDur = reg.Histogram(obs.MetricAuctionDurationSeconds, "Wall time of one auction mechanism run.", obs.TimeBuckets())
		s.winners = reg.Gauge(obs.MetricAuctionWinners, "Distinct winning workers in the latest auction.")
		s.spent = reg.Gauge(obs.MetricAuctionSpentBudget, "Total payment committed by the latest auction.")
	}
	return s, nil
}

// Config returns the qualification configuration.
func (s *AuctionState) Config() Config { return s.cfg }

// Size returns the registry size (qualified or not).
func (s *AuctionState) Size() int { return len(s.byID) }

// QualifiedSize returns the number of registered workers passing the
// qualification filter.
func (s *AuctionState) QualifiedSize() int { return len(s.ranked) }

// Lookup returns the stored worker, if registered.
func (s *AuctionState) Lookup(id string) (Worker, bool) {
	e, ok := s.byID[id]
	return e.w, ok
}

// Snapshot returns the registry as a worker slice sorted by ID — the
// canonical equivalent Instance worker set for differential oracles.
func (s *AuctionState) Snapshot() []Worker {
	ws := make([]Worker, 0, len(s.byID))
	for _, e := range s.byID {
		ws = append(ws, e.w)
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].ID < ws[j].ID })
	return ws
}

// rankedBefore reports whether (wa, da) sorts strictly before (wb, db) in
// the MELODY ranking order.
func rankedBefore(wa Worker, da float64, wb Worker, db float64) bool {
	if da != db {
		return da > db
	}
	return wa.ID < wb.ID
}

// SetTracer replaces the tracer that records the state's auction.run and
// auction.incremental spans; nil records none. Like Apply, it must not run
// concurrently with the state's other methods.
func (s *AuctionState) SetTracer(t *obs.Tracer) { s.tracer = t }

// entry is one registered worker with the stamp of the latest ingest that
// named it.
type entry struct {
	w     Worker
	stamp uint64
}

// Apply validates and ingests one run's registry delta, repairing the
// cached sorted structures. On error the state is unchanged.
func (s *AuctionState) Apply(d WorkerDelta) error {
	return s.ingest(d.Upserts, d.Removes, false)
}

// Sync validates and ingests one run's full worker set: workers not yet
// registered join, registered ones whose record differs are replaced, and
// registered workers the set does not name leave. It is Apply of the delta
// between the registry and the set, which the kernel diffs itself; the set
// is read, never retained. A duplicate ID or an invalid worker is an error,
// and on error the state is unchanged.
func (s *AuctionState) Sync(workers []Worker) error {
	return s.ingest(workers, nil, true)
}

// ingest is Apply and Sync. It validates ups and removes before it changes
// any record, stamping each registered worker they name with a stamp new
// to the call; workers not yet registered are checked for repeats among
// themselves. A delta churns the registry by its upserts and removes, a
// sync by the records it changes, adds and drops. The commit deletes
// before it inserts, so the registry never holds more than the larger of
// the old and the new worker set.
func (s *AuctionState) ingest(ups []Worker, removes []string, sync bool) error {
	s.epoch++
	seen := s.epoch
	n := len(s.byID)
	named, changed := 0, 0
	var joins []string
	for _, w := range ups {
		if err := validateWorker(w); err != nil {
			return err
		}
		e, ok := s.byID[w.ID]
		switch {
		case !ok:
			joins = append(joins, w.ID)
		case e.stamp == seen:
			return fmt.Errorf("core: delta upserts worker %q twice", w.ID)
		default:
			s.byID[w.ID] = entry{e.w, seen}
			named++
			if e.w != w {
				changed++
			}
		}
	}
	slices.Sort(joins)
	for i := 1; i < len(joins); i++ {
		if joins[i] == joins[i-1] {
			return fmt.Errorf("core: delta upserts worker %q twice", joins[i])
		}
	}
	for _, id := range removes {
		e, ok := s.byID[id]
		if !ok {
			return fmt.Errorf("core: delta removes unknown worker %q", id)
		}
		if e.stamp == seen {
			return fmt.Errorf("core: delta both upserts and removes worker %q", id)
		}
		s.byID[id] = entry{e.w, seen}
	}
	upserts, leaving := len(ups), len(removes)
	if sync {
		upserts, leaving = changed+len(joins), n-named
	}
	churn := upserts + leaving
	if churn == 0 {
		return nil
	}
	sp := s.tracer.Start("auction.incremental")
	sp.SetAttrInt("upserts", int64(upserts))
	sp.SetAttrInt("removes", int64(leaving))
	defer sp.End()

	ratio := 1.0
	if n > 0 {
		ratio = float64(churn) / float64(n)
	}
	s.churnRatio.Set(ratio)
	rebuild := ratio > s.opts.ChurnThreshold

	// Commit. Only a repair reads the pre-delta records, so only a repair
	// collects them, with the incoming ones.
	s.insEnt, s.goneEnt = s.insEnt[:0], s.goneEnt[:0]
	drop := func(id string, old Worker) {
		if !rebuild {
			s.goneEnt = s.appendRanked(s.goneEnt, old)
		}
		delete(s.byID, id)
	}
	for _, id := range removes {
		drop(id, s.byID[id].w)
	}
	if sync {
		for id, e := range s.byID {
			if e.stamp != seen {
				drop(id, e.w)
			}
		}
	}
	for _, w := range ups {
		e, ok := s.byID[w.ID]
		if ok && e.w == w {
			continue // unchanged: the ranking already holds it
		}
		s.byID[w.ID] = entry{w, seen}
		if !rebuild {
			if ok {
				s.goneEnt = s.appendRanked(s.goneEnt, e.w)
			}
			s.insEnt = s.appendRanked(s.insEnt, w)
		}
	}

	if rebuild {
		sp.SetAttr("mode", "rebuild")
		s.rebuilds.Inc()
		s.rebuildRanked()
		s.capsValid = false // rebuilt lazily on next RunOptUB
		// Full re-arm: every position is new.
		s.repairFrom = 0
		s.st.remaining = grow(s.st.remaining, len(s.ranked))
		for i, w := range s.ranked {
			s.st.remaining[i] = w.Bid.Frequency
		}
	} else {
		sp.SetAttr("mode", "repair")
		s.repairs.Inc()
		s.repairRanked() // splices st.remaining and sets repairFrom
		if s.capsValid {
			s.repairCaps()
		}
	}
	s.refreshStream(s.repairFrom)
	return nil
}

// appendRanked appends w with its ranking density when it qualifies;
// unqualified workers never enter the ranking.
func (s *AuctionState) appendRanked(dst []rankEntry, w Worker) []rankEntry {
	if !s.cfg.Qualifies(w) {
		return dst
	}
	return append(dst, rankEntry{w, w.Quality / w.Bid.Cost})
}

// refreshStream points the fully-materialized rank stream at the current
// sorted arrays and re-arms the identity skip pointers from the first
// disturbed position on. The caller is responsible for st.remaining: the
// repair splices it, the rebuild refills it. Positions below from held
// remaining == frequency and next == self before the Apply (the post-run
// restore re-establishes exactly that), and the repair did not move them.
func (s *AuctionState) refreshStream(from int) {
	s.st.ranked = s.ranked
	s.st.nQual = len(s.ranked)
	s.st.heap = nil
	s.st.pool = nil
	s.st.poolDen = nil
	n := len(s.ranked)
	if cap(s.st.next) < n {
		s.st.next = make([]int32, n)
		from = 0 // fresh backing array: rebuild the identity wholesale
	} else {
		s.st.next = s.st.next[:n]
	}
	for i := from; i < n; i++ {
		s.st.next[i] = int32(i)
	}
}

// rankEntry packs a worker with its cached ranking density for sorting.
type rankEntry struct {
	w Worker
	d float64
}

// gallopRank returns the lowest index p >= from with ranked[p] not sorting
// strictly before (w, den) — i.e. the slot the key occupies or would occupy.
// Callers probing a sorted key sequence pass the previous result as from;
// the exponential widening then costs O(log gap) per key with probes
// clustered near the previous slot instead of log(n) cold binary probes.
func gallopRank(ranked []Worker, density []float64, w Worker, den float64, from int) int {
	n := len(ranked)
	a, b := from, from
	step := 1
	for b < n && rankedBefore(ranked[b], density[b], w, den) {
		a = b + 1
		b += step
		step *= 2
	}
	if b > n {
		b = n
	}
	return a + sort.Search(b-a, func(i int) bool {
		return !rankedBefore(ranked[a+i], density[a+i], w, den)
	})
}

// rankedSorter sorts the worker and density arrays together.
type rankedSorter struct {
	w []Worker
	d []float64
}

func (s *rankedSorter) Len() int { return len(s.w) }
func (s *rankedSorter) Swap(i, j int) {
	s.w[i], s.w[j] = s.w[j], s.w[i]
	s.d[i], s.d[j] = s.d[j], s.d[i]
}
func (s *rankedSorter) Less(i, j int) bool {
	return rankedBefore(s.w[i], s.d[i], s.w[j], s.d[j])
}

// rebuildRanked resorts the qualified registry from scratch. Map iteration
// order does not matter: the comparator is a strict total order, so the
// sorted result is unique.
func (s *AuctionState) rebuildRanked() {
	s.ranked = s.ranked[:0]
	s.density = s.density[:0]
	for _, e := range s.byID {
		if s.cfg.Qualifies(e.w) {
			s.ranked = append(s.ranked, e.w)
			s.density = append(s.density, e.w.Quality/e.w.Bid.Cost)
		}
	}
	sort.Sort(&rankedSorter{s.ranked, s.density})
}

// repairRanked merges the delta held in insEnt and goneEnt into the sorted
// ranking. Outgoing entries are pinned by binary search on their pre-delta
// sort key (the ranking is a strict total order, so each key names exactly
// one slot), insert slots likewise; the rebuild is then pure chunked copies
// between breakpoints — O(u log n + u log u) comparisons plus one O(n)
// memmove, with no per-element map lookups on the sweep.
func (s *AuctionState) repairRanked() {
	// pdqsort over the packed entries: measurably faster than sort.Sort's
	// interface dispatch on the u=10^4-scale deltas of the churn kernels.
	slices.SortFunc(s.insEnt, func(a, b rankEntry) int {
		if rankedBefore(a.w, a.d, b.w, b.d) {
			return -1
		}
		return 1 // keys are distinct: IDs are unique within a valid delta
	})
	s.inserts = s.inserts[:0]
	s.insDen = s.insDen[:0]
	for _, e := range s.insEnt {
		s.inserts = append(s.inserts, e.w)
		s.insDen = append(s.insDen, e.d)
	}

	// Outgoing entries, located by galloping right through the ranking in
	// old-key order: sorting the keys first makes the probe sequence
	// monotone (and cache-friendly) and yields gonePos already sorted.
	slices.SortFunc(s.goneEnt, func(a, b rankEntry) int {
		if rankedBefore(a.w, a.d, b.w, b.d) {
			return -1
		}
		return 1
	})
	s.gonePos = s.gonePos[:0]
	gpos := 0
	for _, e := range s.goneEnt {
		p := gallopRank(s.ranked, s.density, e.w, e.d, gpos)
		s.gonePos = append(s.gonePos, p)
		gpos = p
	}

	// Insert slots against the pre-compaction array: dropping gone entries
	// does not reorder survivors, so "before ranked[p]" stays correct. The
	// inserts are sorted, so each slot is found by galloping right from the
	// previous one — O(u·log(n/u)) instead of u independent log-n searches.
	s.insPos = s.insPos[:0]
	pos := 0
	for j := range s.inserts {
		p := gallopRank(s.ranked, s.density, s.inserts[j], s.insDen[j], pos)
		s.insPos = append(s.insPos, p)
		pos = p
	}

	// One splice pass over (workers, densities, remaining): chunked copies
	// between breakpoints. Pre-Apply, remaining[i] is exactly
	// ranked[i].Bid.Frequency (the post-run restore guarantees it), so the
	// frequencies travel with their chunks and inserts contribute their own.
	s.repairFrom = len(s.ranked)
	if len(s.gonePos) > 0 {
		s.repairFrom = min(s.repairFrom, s.gonePos[0])
	}
	if len(s.insPos) > 0 {
		s.repairFrom = min(s.repairFrom, s.insPos[0])
	}
	src, sden, srem := s.ranked, s.density, s.st.remaining
	dst, dden, drem := s.rankedAlt[:0], s.densityAlt[:0], s.remAlt[:0]
	si, gi, ii := 0, 0, 0
	for si < len(src) || ii < len(s.insPos) {
		nextG, nextI := len(src), len(src)
		if gi < len(s.gonePos) {
			nextG = s.gonePos[gi]
		}
		if ii < len(s.insPos) {
			nextI = s.insPos[ii]
		}
		e := min(nextG, nextI)
		dst = append(dst, src[si:e]...)
		dden = append(dden, sden[si:e]...)
		drem = append(drem, srem[si:e]...)
		si = e
		for ii < len(s.insPos) && s.insPos[ii] == e {
			dst = append(dst, s.inserts[ii])
			dden = append(dden, s.insDen[ii])
			drem = append(drem, s.inserts[ii].Bid.Frequency)
			ii++
		}
		if gi < len(s.gonePos) && s.gonePos[gi] == e {
			gi++
			si = e + 1
		}
	}
	s.ranked, s.rankedAlt = dst, src
	s.density, s.densityAlt = dden, sden
	s.st.remaining, s.remAlt = drem, srem
}

// rebuildCaps resorts the OPT-UB capacity order from scratch.
func (s *AuctionState) rebuildCaps() {
	s.caps = s.caps[:0]
	for _, e := range s.byID {
		if s.cfg.Qualifies(e.w) {
			s.caps = append(s.caps, ubCapOf(e.w))
		}
	}
	sort.Sort(&ubCapSorter{s.caps})
	s.ubRemaining = grow(s.ubRemaining, len(s.caps))
	for i := range s.caps {
		s.ubRemaining[i] = s.caps[i].units
	}
	s.capsValid = true
}

// repairCaps merges the delta into the sorted capacity order, mirroring
// repairRanked's search-and-splice under the OPT-UB comparator. It runs
// after repairRanked, whose inserts are the delta's qualified upserts.
func (s *AuctionState) repairCaps() {
	s.insCaps = s.insCaps[:0]
	for _, w := range s.inserts {
		s.insCaps = append(s.insCaps, ubCapOf(w))
	}
	slices.SortFunc(s.insCaps, func(a, b ubCap) int {
		if ubCapBefore(a, b) {
			return -1
		}
		return 1 // distinct IDs make the capacity order strict as well
	})

	s.gonePos = s.gonePos[:0]
	for _, e := range s.goneEnt {
		c := ubCapOf(e.w)
		p := sort.Search(len(s.caps), func(i int) bool {
			return !ubCapBefore(s.caps[i], c)
		})
		s.gonePos = append(s.gonePos, p)
	}
	sort.Ints(s.gonePos)

	s.insPos = s.insPos[:0]
	for j := range s.insCaps {
		c := s.insCaps[j]
		p := sort.Search(len(s.caps), func(i int) bool {
			return !ubCapBefore(s.caps[i], c)
		})
		s.insPos = append(s.insPos, p)
	}

	src := s.caps
	dst := s.capsAlt[:0]
	si, gi, ii := 0, 0, 0
	for si < len(src) || ii < len(s.insPos) {
		nextG, nextI := len(src), len(src)
		if gi < len(s.gonePos) {
			nextG = s.gonePos[gi]
		}
		if ii < len(s.insPos) {
			nextI = s.insPos[ii]
		}
		e := min(nextG, nextI)
		dst = append(dst, src[si:e]...)
		si = e
		for ii < len(s.insPos) && s.insPos[ii] == e {
			dst = append(dst, s.insCaps[ii])
			ii++
		}
		if gi < len(s.gonePos) && s.gonePos[gi] == e {
			gi++
			si = e + 1
		}
	}
	s.caps, s.capsAlt = dst, src
	s.ubRemaining = grow(s.ubRemaining, len(s.caps))
	for i := range s.caps {
		s.ubRemaining[i] = s.caps[i].units
	}
}

// prepareTasks mirrors the task and budget checks of Instance.Validate (the
// worker side is enforced at Apply time) and leaves the threshold-sorted task
// list in s.tasks. When the caller hands over a task list identical to the
// previous run's — element-wise, so an in-place mutation is still caught —
// both the per-task validation and the sort are skipped.
func (s *AuctionState) prepareTasks(tasks []Task, budget float64) error {
	if err := validateBudget(budget); err != nil {
		return err
	}
	if s.tasksReady && slices.Equal(tasks, s.rawTasks) {
		return nil
	}
	s.tasksReady = false
	clear(s.taskSeen)
	for _, t := range tasks {
		if err := validateTask(t); err != nil {
			return err
		}
		if _, dup := s.taskSeen[t.ID]; dup {
			return fmt.Errorf("core: duplicate task ID %q", t.ID)
		}
		s.taskSeen[t.ID] = struct{}{}
	}
	s.rawTasks = append(s.rawTasks[:0], tasks...)
	s.tasks = append(s.tasks[:0], tasks...)
	slices.SortFunc(s.tasks, cmpTask)
	s.tasksReady = true
	return nil
}

// runPre executes the shared pre-allocation stage against the cached
// ranking and the prepared (sorted) task list. The caller must restore
// availability afterwards via restoreAvail.
func (s *AuctionState) runPre() {
	s.pre.reset()
	s.preEnsureCapacity(len(s.tasks))
	preAllocCore(&s.st, s.tasks, &s.pre)
	// The stream is fully materialized and its backing array is state-owned;
	// preAllocCore cannot have reallocated it.
	slices.SortFunc(s.pre.candidates, cmpCandidate)
}

// preEnsureCapacity sizes the arenas for m tasks on first use.
func (s *AuctionState) preEnsureCapacity(m int) {
	if cap(s.pre.candidates) == 0 && m > 0 {
		s.pre.candidates = make([]preAllocation, 0, m)
		s.pre.winnerArena = make([]int32, 0, 4*m)
		s.pre.payArena = make([]float64, 0, 4*m)
	}
}

// restoreAvail undoes the run's frequency consumption and skip-pointer
// compression by walking the winner arena: every mutated slot belongs to a
// committed winner (rolled-back scans never consume, and path compression
// only rewrites pointers of exhausted ranks), so restoring those ranks —
// O(Σ winners), not O(N) — re-establishes the between-runs invariant
// remaining[i] == frequency, next[i] == i.
func (s *AuctionState) restoreAvail() {
	for _, wi := range s.pre.winnerArena {
		i := int(wi)
		s.st.remaining[i] = s.st.ranked[i].Bid.Frequency
		s.st.next[i] = wi
	}
}

// finishOutcome routes the accepted candidate prefix into either a fresh
// outcome or the state-owned reusable one.
func (s *AuctionState) finishOutcome(k int) *Outcome {
	var out *Outcome
	if s.opts.ReuseOutcome {
		out = &s.out
		out.Assignments = out.Assignments[:0]
		out.SelectedTasks = out.SelectedTasks[:0]
		out.TaskPayments = out.TaskPayments[:0]
		out.TotalPayment = 0
	} else {
		out = &Outcome{}
	}
	// assembleOutcome appends into offsets without returning it, so the
	// buffer must already hold capacity k for the reuse to stick.
	if cap(s.offsets) < k {
		s.offsets = make([]int, 0, k)
	}
	assembleOutcome(&s.pre, s.pre.candidates[:k], s.offsets, out)
	if len(s.pre.candidates[:k]) == 0 {
		// Match the stateless mechanisms byte for byte: an empty scheme has
		// nil slices, not zero-length ones.
		out.Assignments = nil
		out.SelectedTasks = nil
		out.TaskPayments = nil
	}
	return out
}

// observeRun records the run's metrics and span, if instrumented.
func (s *AuctionState) observeRun(mechanism string, tasks int, start time.Time, out *Outcome) {
	if s.runDur == nil && s.tracer == nil {
		return
	}
	s.runDur.Observe(time.Since(start).Seconds())
	distinct := make(map[string]struct{}, len(out.Assignments))
	for _, a := range out.Assignments {
		distinct[a.WorkerID] = struct{}{}
	}
	s.winners.Set(float64(len(distinct)))
	s.spent.Set(out.TotalPayment)
	sp := s.tracer.Start("auction.run")
	sp.SetAttr("mechanism", mechanism)
	sp.SetAttr("stateful", "true")
	sp.SetAttrInt("workers", int64(len(s.byID)))
	sp.SetAttrInt("tasks", int64(tasks))
	sp.SetAttrInt("winners", int64(len(distinct)))
	sp.SetAttrInt("selected_tasks", int64(len(out.SelectedTasks)))
	sp.End()
}

// RunMelody executes one MELODY auction (Algorithm 1) over the current
// registry, byte-identical to Melody.Run on the registry snapshot. With
// Options.ReuseOutcome the result is valid only until the next call.
func (s *AuctionState) RunMelody(tasks []Task, budget float64) (*Outcome, error) {
	if err := s.prepareTasks(tasks, budget); err != nil {
		return nil, fmt.Errorf("melody: %w", err)
	}
	start := time.Now()
	s.runPre()
	k := 0
	for _, c := range s.pre.candidates {
		if c.total > budget {
			break
		}
		budget -= c.total
		k++
	}
	out := s.finishOutcome(k)
	s.restoreAvail()
	s.observeRun("MELODY", len(tasks), start, out)
	return out, nil
}

// RunDual executes one MELODY-DUAL auction (the footnote-6 dual: minimize
// payment subject to satisfying target tasks), byte-identical to
// MelodyDual.Run on the registry snapshot.
func (s *AuctionState) RunDual(target int, tasks []Task) (*Outcome, error) {
	if target < 1 {
		return nil, fmt.Errorf("core: target utility %d must be at least 1", target)
	}
	// The dual ignores the budget; validate tasks under a neutral one.
	if err := s.prepareTasks(tasks, 0); err != nil {
		return nil, fmt.Errorf("melody-dual: %w", err)
	}
	start := time.Now()
	s.runPre()
	k := len(s.pre.candidates)
	if k > target {
		k = target
	}
	out := s.finishOutcome(k)
	s.restoreAvail()
	s.observeRun("MELODY-DUAL", len(tasks), start, out)
	return out, nil
}

// RunOptUB executes one OPT-UB relaxation sweep over the current registry,
// byte-identical to OptUB.Run on the registry snapshot. The capacity order
// is built on first use and repaired incrementally afterwards; only the
// drained prefix is restored between runs.
func (s *AuctionState) RunOptUB(tasks []Task, budget float64) (*Outcome, error) {
	if err := s.prepareTasks(tasks, budget); err != nil {
		return nil, fmt.Errorf("optub: %w", err)
	}
	start := time.Now()
	if !s.capsValid {
		s.rebuildCaps()
	}
	var out *Outcome
	if s.opts.ReuseOutcome {
		out = &s.out
		out.Assignments = nil
		out.SelectedTasks = out.SelectedTasks[:0]
		out.TaskPayments = out.TaskPayments[:0]
		out.TotalPayment = 0
	} else {
		out = &Outcome{}
	}
	drained := optUBCore(s.caps, s.ubRemaining, s.tasks, budget, out)
	for i := 0; i <= drained; i++ {
		s.ubRemaining[i] = s.caps[i].units
	}
	if s.opts.ReuseOutcome && len(out.SelectedTasks) == 0 {
		out.SelectedTasks = nil
		out.TaskPayments = nil
	}
	s.observeRun("OPT-UB", len(tasks), start, out)
	return out, nil
}
