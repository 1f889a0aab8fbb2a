package core

import (
	"fmt"
	"sort"

	"melody/internal/stats"
)

// Random implements the RANDOM baseline of Section 7.1: tasks are processed
// in random order and, for each task, workers are drawn into a pool
// uniformly at random until the pool's top-k workers by quality-per-cost
// cover the threshold. The top-k win; the pool member with the lowest
// mu/c is the loser and serves as the pricing pivot (payment mu_i *
// c_pivot/mu_pivot, Appendix D), which keeps RANDOM truthful.
//
// Note on the paper's formula: Section 7.1 writes "sum_{i<=k} mu_i < Q_j and
// sum_{i<=k+1} mu_i >= Q_j", which would leave the winners short of the
// threshold; we use the reading consistent with Definition 2 and Appendix D
// (the k winners cover Q_j, the (k+1)-th drawn worker is the loser/pivot).
//
// A task whose pool payment exceeds the remaining budget is skipped; later
// (cheaper) tasks may still be accepted, preserving budget feasibility.
//
// Like the MELODY allocator, workers are addressed by position into the
// qualified slice: availability is an incrementally compacted index list
// instead of a per-task map rebuild, and the draw pool is kept sorted by
// binary insertion instead of being fully re-sorted after every draw. The
// comparator is a strict total order (densities tie-break on unique IDs),
// so the insertion-sorted pool is byte-identical to the seed's re-sorted
// one, and the RNG stream (one Perm per task over the same availability
// count) is unchanged.
type Random struct {
	cfg Config
	rng *stats.RNG

	// Scratch reused across Runs (like the RNG itself, a Random is owned by
	// one goroutine): the qualified working set, the per-task draw
	// permutation, and the payment buffer. Keeping them on the mechanism
	// drops the per-Run allocation count from one Perm and one payment slice
	// per task to a handful of amortized outcome appends.
	st        randomState
	taskOrder []int
	order     []int
	pays      []float64
}

var _ Mechanism = (*Random)(nil)

// NewRandom constructs the RANDOM baseline with its own random stream.
func NewRandom(cfg Config, rng *stats.RNG) (*Random, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("core: RANDOM requires a random source")
	}
	return &Random{cfg: cfg, rng: rng}, nil
}

// Name implements Mechanism.
func (r *Random) Name() string { return "RANDOM" }

// randomState is the mechanism's working set, rebuilt cheaply each Run and
// reused across tasks and Runs.
type randomState struct {
	qualified []Worker
	density   []float64 // qualified[i].Quality / qualified[i].Bid.Cost
	remaining []int     // unconsumed frequency per qualified index
	available []int32   // qualified indices with remaining > 0, in rank order
	pool      []int32   // current task's draw pool, kept sorted by density
}

// less orders qualified indices by descending density with the ID
// tie-break, matching the seed's sort.Slice comparator exactly.
func (s *randomState) less(a, b int32) bool {
	if s.density[a] != s.density[b] {
		return s.density[a] > s.density[b]
	}
	return s.qualified[a].ID < s.qualified[b].ID
}

// Run implements Mechanism.
func (r *Random) Run(in Instance) (*Outcome, error) {
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("random: %w", err)
	}
	st := &r.st
	st.qualified = st.qualified[:0]
	for _, w := range in.Workers {
		if r.cfg.Qualifies(w) {
			st.qualified = append(st.qualified, w)
		}
	}
	st.density = grow(st.density, len(st.qualified))
	st.remaining = grow(st.remaining, len(st.qualified))
	st.available = grow(st.available, len(st.qualified))
	for i, w := range st.qualified {
		st.density[i] = w.Quality / w.Bid.Cost
		st.remaining[i] = w.Bid.Frequency
		st.available[i] = int32(i)
	}

	r.taskOrder = r.rng.PermInto(r.taskOrder, len(in.Tasks))
	out := &Outcome{}
	budget := in.Budget
	for _, ti := range r.taskOrder {
		task := in.Tasks[ti]
		winners, pays, total, ok := r.poolForTask(task, st)
		if !ok || total > budget {
			continue
		}
		budget -= total
		out.SelectedTasks = append(out.SelectedTasks, task.ID)
		out.TaskPayments = append(out.TaskPayments, total)
		out.TotalPayment += total
		exhausted := false
		for i, wi := range winners {
			st.remaining[wi]--
			if st.remaining[wi] == 0 {
				exhausted = true
			}
			out.Assignments = append(out.Assignments, Assignment{
				WorkerID: st.qualified[wi].ID,
				TaskID:   task.ID,
				Payment:  pays[i],
			})
		}
		if exhausted {
			// Compact the availability list in place, preserving rank order —
			// the incremental equivalent of the seed's per-task rebuild.
			kept := st.available[:0]
			for _, wi := range st.available {
				if st.remaining[wi] > 0 {
					kept = append(kept, wi)
				}
			}
			st.available = kept
		}
	}
	return out, nil
}

// poolForTask draws available workers uniformly at random until the pool
// minus its lowest-density member covers the threshold. The returned
// winners/pays alias state scratch buffers valid until the next call.
func (r *Random) poolForTask(task Task, st *randomState) (winners []int32, pays []float64, total float64, ok bool) {
	// Draw without replacement in random order; grow the pool until the
	// top-k cover Q_j. The permutation length must equal the availability
	// count so the RNG stream matches the seed implementation draw for draw.
	r.order = r.rng.PermInto(r.order, len(st.available))
	order := r.order
	st.pool = st.pool[:0]
	var sum float64
	found := false
	for _, oi := range order {
		wi := st.available[oi]
		// Binary-insert to keep the pool sorted by descending density.
		pos := sort.Search(len(st.pool), func(k int) bool { return st.less(wi, st.pool[k]) })
		st.pool = append(st.pool, 0)
		copy(st.pool[pos+1:], st.pool[pos:])
		st.pool[pos] = wi
		sum += st.qualified[wi].Quality
		if len(st.pool) >= 2 {
			// Check whether the pool minus its lowest-density member covers
			// the threshold.
			last := st.pool[len(st.pool)-1]
			if sum-st.qualified[last].Quality >= task.Threshold {
				found = true
				break
			}
		}
	}
	if !found {
		return nil, nil, 0, false
	}
	pivot := st.qualified[st.pool[len(st.pool)-1]]
	winners = st.pool[:len(st.pool)-1]
	density := pivot.Bid.Cost / pivot.Quality
	r.pays = grow(r.pays, len(winners))
	pays = r.pays
	for i, wi := range winners {
		pays[i] = density * st.qualified[wi].Quality
		total += pays[i]
	}
	return winners, pays, total, true
}
