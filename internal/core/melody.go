package core

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
)

// Melody implements Algorithm 1, the paper's truthful, individually
// rational, budget-feasible, O(1)-competitive mechanism for the Single Run
// Auction problem. It is deterministic.
type Melody struct {
	cfg Config
}

var _ Mechanism = (*Melody)(nil)

// NewMelody constructs the MELODY mechanism with the given qualification
// intervals.
func NewMelody(cfg Config) (*Melody, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Melody{cfg: cfg}, nil
}

// Config returns the qualification configuration.
func (m *Melody) Config() Config { return m.cfg }

// Name implements Mechanism.
func (m *Melody) Name() string { return "MELODY" }

// preAllocation is the per-task result of Algorithm 1's first stage. Winners
// and payments live in the Run-wide arenas (winnerArena/payArena) at
// [off, off+n); storing offsets instead of per-task slices keeps the
// pre-allocation stage at two amortized allocations total.
type preAllocation struct {
	task  Task
	off   int     // start of this task's winners/pays in the arenas
	n     int     // number of winners
	total float64 // P_j
}

// rankStream supplies the quality-ranked qualified workers. ranked is the
// materialized sorted prefix; when pool/heap are non-empty (the lazy,
// stateless mode) the remainder of the qualified set sits in a max-heap
// ordered by (mu/c descending, ID ascending) and is popped into ranked only
// when the allocation actually reaches that depth. Because the comparator is
// a strict total order (IDs are unique), the lazily materialized prefix is
// byte-identical to the prefix of a full sort — the stream never changes the
// outcome, only how much of the sorted queue exists.
//
// remaining[i] is worker i's unconsumed frequency; next[i] is a
// path-compressed pointer to the lowest rank >= i that may still be
// available, giving amortized-O(1) skips over exhausted ranks (the
// availIndex structure of the indexed allocator). Both arrays cover exactly
// the materialized prefix and grow with it; an unmaterialized rank is by
// definition still available, so the skip structure never needs to reach
// past the frontier.
type rankStream struct {
	ranked    []Worker
	remaining []int
	next      []int32
	nQual     int // logical qualified count: len(ranked) + len(heap)

	pool    []Worker  // unsorted qualified workers backing the heap
	poolDen []float64 // pool[i].Quality / pool[i].Bid.Cost
	heap    []int32   // indices into pool, max-heap by (density, then ID)
}

// initLazy filters the qualified workers into the pool and heapifies it;
// nothing is sorted until the allocation demands it.
func (s *rankStream) initLazy(cfg Config, workers []Worker) {
	s.pool = make([]Worker, 0, len(workers))
	for _, w := range workers {
		if cfg.Qualifies(w) {
			s.pool = append(s.pool, w)
		}
	}
	s.poolDen = make([]float64, len(s.pool))
	s.heap = make([]int32, len(s.pool))
	for i, w := range s.pool {
		s.poolDen[i] = w.Quality / w.Bid.Cost
		s.heap[i] = int32(i)
	}
	s.nQual = len(s.pool)
	for i := len(s.heap)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
}

// heapBefore reports whether pool index x ranks strictly before y: higher
// density first, ID ascending on ties.
func (s *rankStream) heapBefore(x, y int32) bool {
	if s.poolDen[x] != s.poolDen[y] {
		return s.poolDen[x] > s.poolDen[y]
	}
	return s.pool[x].ID < s.pool[y].ID
}

func (s *rankStream) siftDown(i int) {
	n := len(s.heap)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		best := l
		if r := l + 1; r < n && s.heapBefore(s.heap[r], s.heap[l]) {
			best = r
		}
		if !s.heapBefore(s.heap[best], s.heap[i]) {
			return
		}
		s.heap[i], s.heap[best] = s.heap[best], s.heap[i]
		i = best
	}
}

// materialize pops the heap's top into the sorted prefix, extending the
// availability arrays alongside.
func (s *rankStream) materialize() {
	top := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	s.siftDown(0)
	s.ranked = append(s.ranked, s.pool[top])
	s.remaining = append(s.remaining, s.pool[top].Bid.Frequency)
	s.next = append(s.next, int32(len(s.ranked)-1))
}

// ensure materializes the sorted prefix through index i.
func (s *rankStream) ensure(i int) {
	for len(s.ranked) <= i && len(s.heap) > 0 {
		s.materialize()
	}
}

// find returns the lowest available rank >= i, or nQual when the suffix is
// exhausted, compressing the pointer chain it walked. Unmaterialized ranks
// are always available (they have never been consumed), so the walk
// materializes at most one rank past the consumed region.
func (s *rankStream) find(i int) int {
	n := s.nQual
	root := i
	for root < n {
		s.ensure(root)
		if s.remaining[root] > 0 {
			break
		}
		root = int(s.next[root])
	}
	for i < n && i < root && s.remaining[i] <= 0 {
		i, s.next[i] = int(s.next[i]), int32(root)
	}
	return root
}

// consume spends one unit of worker i's frequency, splicing the rank out of
// the skip structure when it exhausts.
func (s *rankStream) consume(i int) {
	s.remaining[i]--
	if s.remaining[i] == 0 {
		s.next[i] = int32(i + 1)
	}
}

// preAllocResult is the output of Algorithm 1's pre-allocation stage,
// shared by Melody (budgeted primal) and MelodyDual (utility-target dual).
type preAllocResult struct {
	ranked      []Worker
	candidates  []preAllocation // sorted ascending by (P_j, task ID)
	winnerArena []int32
	payArena    []float64
}

// reset clears the result for reuse, keeping the arena capacity.
func (r *preAllocResult) reset() {
	r.ranked = nil
	r.candidates = r.candidates[:0]
	r.winnerArena = r.winnerArena[:0]
	r.payArena = r.payArena[:0]
}

// preAllocCore runs Algorithm 1's pre-allocation stage (lines 2-14) over a
// rank stream: workers ranked by mu/c descending, tasks by Q ascending. For
// each task, the smallest prefix of still-available (n_i > 0) workers whose
// quality sum covers Q_j wins, and each winner is paid the critical price
// (c_pivot/mu_pivot)*mu_i where the pivot is the next available worker in
// the ranking queue; if no pivot exists the task cannot be priced truthfully
// and is skipped. Candidates land in res sorted ascending by total payment,
// ready for either scheme-determination rule.
//
// Workers are addressed by rank position throughout — no per-task ID map —
// and exhausted ranks are skipped via the path-compressed next index, so a
// task's scan costs its winner count, not the full ranking length. With a
// lazy stream, only the consumed prefix of the sorted queue ever exists.
func preAllocCore(st *rankStream, tasks []Task, res *preAllocResult) {
	for _, task := range tasks {
		off := len(res.winnerArena)
		sum := 0.0
		covered := -1
		for idx := st.find(0); idx < st.nQual; idx = st.find(idx + 1) {
			res.winnerArena = append(res.winnerArena, int32(idx))
			sum += st.ranked[idx].Quality
			if sum >= task.Threshold {
				covered = idx
				break
			}
		}
		if covered < 0 {
			// The available set cannot cover this threshold. Failures leave
			// the available set untouched and tasks are sorted by ascending
			// Q_j, so every later task fails the same way: stop scanning.
			res.winnerArena = res.winnerArena[:off]
			break
		}
		pivot := st.find(covered + 1)
		if pivot >= st.nQual {
			// Covered only by using the last available worker, leaving no
			// pivot to price against. Any later task needs at least as much
			// quality from the same available set, so it too would end on
			// the last available rank without a pivot: stop scanning.
			res.winnerArena = res.winnerArena[:off]
			break
		}
		// The pivot is the next available worker after the winning prefix.
		// Its cost density caps what each winner is paid, making the payment
		// independent of the winner's own bid (the critical-payment rule
		// behind Theorem 4).
		density := st.ranked[pivot].Bid.Cost / st.ranked[pivot].Quality
		total := 0.0
		for _, wi := range res.winnerArena[off:] {
			p := density * st.ranked[wi].Quality
			res.payArena = append(res.payArena, p)
			total += p
		}
		for _, wi := range res.winnerArena[off:] {
			st.consume(int(wi))
		}
		res.candidates = append(res.candidates, preAllocation{
			task: task, off: off, n: len(res.winnerArena) - off, total: total,
		})
	}
	// The stream may have reallocated its prefix while growing; capture the
	// final backing array for outcome assembly.
	res.ranked = st.ranked
}

// cmpCandidate orders candidates ascending by (P_j, task ID). Task IDs are
// unique, so the order is strictly total and the sorted sequence does not
// depend on the sorting algorithm. A plain comparison function keeps the
// per-run sort allocation-free and avoids sort.Interface dispatch.
func cmpCandidate(a, b preAllocation) int {
	// Totals are finite (validated inputs), so direct comparisons beat
	// cmp.Compare's NaN handling on this very hot path.
	if a.total < b.total {
		return -1
	}
	if a.total > b.total {
		return 1
	}
	return strings.Compare(a.task.ID, b.task.ID)
}

// cmpTask orders tasks ascending by (threshold, ID) — Algorithm 1 line 3
// with a deterministic tie-break.
func cmpTask(a, b Task) int {
	if a.Threshold < b.Threshold {
		return -1
	}
	if a.Threshold > b.Threshold {
		return 1
	}
	return strings.Compare(a.ID, b.ID)
}

// preAllocateAll is the stateless pre-allocation entry point used by
// Melody.Run and MelodyDual.Run: it builds a lazy rank stream over the
// instance (never sorting deeper than the allocation reaches) and runs the
// shared core.
func preAllocateAll(cfg Config, in Instance) preAllocResult {
	var st rankStream
	st.initLazy(cfg, in.Workers)
	tasks := sortTasksByThreshold(in.Tasks)
	res := preAllocResult{
		candidates:  make([]preAllocation, 0, len(tasks)),
		winnerArena: make([]int32, 0, 4*len(tasks)),
		payArena:    make([]float64, 0, 4*len(tasks)),
	}
	preAllocCore(&st, tasks, &res)
	slices.SortFunc(res.candidates, cmpCandidate)
	return res
}

// parallelAssembleMin is the assignment count below which the scheme sweep
// stays serial: sharding pays for its goroutines only on large outcomes.
const parallelAssembleMin = 4096

// assembleOutcome writes the accepted candidate prefix into out. Accepted
// candidates are always a prefix of the sorted candidate list (both scheme
// rules accept in ascending P_j order and stop), so the layout of the final
// assignment array is known up front: offsets[i] is the running winner count
// before candidate i. Large outcomes are filled by a task-sharded parallel
// sweep; every shard writes disjoint precomputed slots, so the merge order
// is deterministic by construction and byte-identical to the serial fill.
//
// TotalPayment is accumulated serially in accept order so its floating-point
// rounding matches the one-candidate-at-a-time reference exactly.
func assembleOutcome(res *preAllocResult, accepted []preAllocation, offsets []int, out *Outcome) {
	if len(accepted) == 0 {
		return
	}
	out.TaskPayments = grow(out.TaskPayments, len(accepted))
	total := 0
	offsets = offsets[:0]
	for i, c := range accepted {
		offsets = append(offsets, total)
		total += c.n
		out.TotalPayment += c.total
		out.TaskPayments[i] = c.total
	}
	out.SelectedTasks = grow(out.SelectedTasks, len(accepted))
	out.Assignments = grow(out.Assignments, total)

	shards := runtime.GOMAXPROCS(0)
	if total < parallelAssembleMin || shards < 2 {
		fillOutcome(res, accepted, offsets, out, 0, len(accepted))
		return
	}
	if shards > len(accepted) {
		shards = len(accepted)
	}
	var wg sync.WaitGroup
	step := (len(accepted) + shards - 1) / shards
	for lo := 0; lo < len(accepted); lo += step {
		hi := lo + step
		if hi > len(accepted) {
			hi = len(accepted)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fillOutcome(res, accepted, offsets, out, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// fillOutcome writes candidates [lo, hi) into their precomputed outcome
// slots. A named function (not a closure) so the hot serial path costs no
// allocation.
func fillOutcome(res *preAllocResult, accepted []preAllocation, offsets []int, out *Outcome, lo, hi int) {
	for ci := lo; ci < hi; ci++ {
		c := accepted[ci]
		out.SelectedTasks[ci] = c.task.ID
		base := offsets[ci]
		for i := 0; i < c.n; i++ {
			out.Assignments[base+i] = Assignment{
				WorkerID: res.ranked[res.winnerArena[c.off+i]].ID,
				TaskID:   c.task.ID,
				Payment:  res.payArena[c.off+i],
			}
		}
	}
}

// grow returns s resized to n, reusing capacity when possible.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// Run implements Mechanism. The two stages follow Algorithm 1: the streamed
// pre-allocation stage (see preAllocCore), then scheme determination
// (lines 15-21) accepting candidate tasks in ascending order of total
// payment P_j while the remaining budget allows.
func (m *Melody) Run(in Instance) (*Outcome, error) {
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("melody: %w", err)
	}
	pre := preAllocateAll(m.cfg, in)
	out := &Outcome{}
	budget := in.Budget
	k := 0
	for _, c := range pre.candidates {
		if c.total > budget {
			// Candidates are sorted ascending by P_j, so nothing later fits
			// either.
			break
		}
		budget -= c.total
		k++
	}
	assembleOutcome(&pre, pre.candidates[:k], make([]int, 0, k), out)
	return out, nil
}
