package core

import (
	"fmt"
	"sort"
)

// OptUB computes the estimated upper bound on the optimal SRA solution used
// as the OPT-UB benchmark in Section 7.1 (the paper's Appendix C is not
// included in the published text; this relaxation is documented in
// DESIGN.md).
//
// The bound relaxes the problem in two ways, each of which can only increase
// the achievable number of satisfied tasks:
//
//  1. Integrality: each worker is treated as n_i * mu_i divisible "quality
//     units" priced at the worker's true cost density c_i/mu_i, so tasks may
//     be covered by fractions of workers and hit their thresholds exactly.
//  2. Payments: the omniscient optimum pays workers exactly their cost
//     (Lemma 2's reasoning), never the truthful premium.
//
// Under the relaxation, quality units are interchangeable, so the optimum
// covers tasks cheapest-requirement-first using cheapest-density-first
// capacity; the greedy below is exact for the relaxed problem and therefore
// an upper bound for the integral one.
type OptUB struct {
	cfg Config
}

var _ Mechanism = (*OptUB)(nil)

// NewOptUB constructs the OPT-UB benchmark.
func NewOptUB(cfg Config) (*OptUB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &OptUB{cfg: cfg}, nil
}

// Name implements Mechanism.
func (o *OptUB) Name() string { return "OPT-UB" }

// Config returns the qualification configuration.
func (o *OptUB) Config() Config { return o.cfg }

// ubCap is one qualified worker's divisible capacity in the relaxation.
// The comparator over (density, ID) is a strict total order, so the sorted
// capacity sequence is a pure function of the worker multiset — the property
// the cross-run incremental cache relies on to stay byte-identical to a
// from-scratch rebuild (ties drained in a different order would change the
// floating-point summation of a task's cost).
type ubCap struct {
	id      string
	units   float64 // full quality units n_i * mu_i
	density float64 // cost per quality unit c_i / mu_i
}

// ubCapBefore is the capacity order: cheapest density first, ID ascending on
// ties.
func ubCapBefore(a, b ubCap) bool {
	if a.density != b.density {
		return a.density < b.density
	}
	return a.id < b.id
}

// ubCapSorter sorts capacities without an allocating closure.
type ubCapSorter struct{ c []ubCap }

func (s *ubCapSorter) Len() int           { return len(s.c) }
func (s *ubCapSorter) Swap(i, j int)      { s.c[i], s.c[j] = s.c[j], s.c[i] }
func (s *ubCapSorter) Less(i, j int) bool { return ubCapBefore(s.c[i], s.c[j]) }

// ubCapOf converts a qualified worker to its capacity entry.
func ubCapOf(w Worker) ubCap {
	return ubCap{
		id:      w.ID,
		units:   float64(w.Bid.Frequency) * w.Quality,
		density: w.Bid.Cost / w.Quality,
	}
}

// optUBCore runs the relaxed greedy over sorted capacities. remaining[i]
// holds caps[i]'s undrained units and is the only state mutated; the
// returned drained index is the highest capacity entry whose remaining units
// were touched (-1 when none), which is exactly what a cross-run cache must
// restore. tasks must already be sorted ascending by threshold.
//
// The ci cursor is OPT-UB's counterpart of the MELODY allocator's
// next-available index: capacity already drained is never re-scanned, so
// the whole sweep is O(N log N + M·k) like the indexed primal.
func optUBCore(caps []ubCap, remaining []float64, tasks []Task, budget float64, out *Outcome) (drained int) {
	drained = -1
	ci := 0 // first capacity entry with units remaining
	for _, task := range tasks {
		// Tentative pass: price the cover without consuming capacity.
		need := task.Threshold
		cost := 0.0
		for i := ci; need > 0 && i < len(caps); i++ {
			take := remaining[i]
			if take > need {
				take = need
			}
			cost += take * caps[i].density
			need -= take
		}
		if need > 0 || cost > budget {
			// Tasks are sorted ascending by threshold and capacity is drawn
			// cheapest-first, so no later task can be covered either.
			break
		}
		// Commit: shrink capacities permanently.
		budget -= cost
		out.TotalPayment += cost
		out.SelectedTasks = append(out.SelectedTasks, task.ID)
		out.TaskPayments = append(out.TaskPayments, cost)
		need = task.Threshold
		// The epsilon guards against float rounding between the tentative
		// and commit passes exhausting capacity spuriously.
		for need > 1e-12 && ci < len(caps) {
			take := remaining[ci]
			if take > need {
				take = need
			}
			remaining[ci] -= take
			if ci > drained {
				drained = ci
			}
			need -= take
			if remaining[ci] <= 0 {
				ci++
			}
		}
	}
	return drained
}

// Run implements Mechanism. The returned outcome carries the number of
// coverable tasks in SelectedTasks and the relaxed spend in TotalPayment;
// Assignments is empty because the fractional cover does not correspond to
// an integral scheme.
func (o *OptUB) Run(in Instance) (*Outcome, error) {
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("optub: %w", err)
	}
	caps := make([]ubCap, 0, len(in.Workers))
	for _, w := range in.Workers {
		if o.cfg.Qualifies(w) {
			caps = append(caps, ubCapOf(w))
		}
	}
	sort.Sort(&ubCapSorter{caps})
	remaining := make([]float64, len(caps))
	for i := range caps {
		remaining[i] = caps[i].units
	}
	tasks := sortTasksByThreshold(in.Tasks)
	out := &Outcome{}
	optUBCore(caps, remaining, tasks, in.Budget, out)
	return out, nil
}
