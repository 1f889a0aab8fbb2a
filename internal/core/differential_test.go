package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"melody/internal/stats"
)

// This file pins the indexed allocators to the seed implementations they
// replaced: seedMelodyRun and seedRandomRun are verbatim copies of the
// original map-based O(N*M) algorithms, kept as differential oracles. The
// optimized paths must produce byte-identical Outcomes on randomized
// instances, including the degenerate shapes (uncoverable thresholds,
// missing pivots, exhausted populations, zero budgets).

// seedMelodyRun is the pre-optimization Melody.Run: a map[string]int of
// remaining frequencies and a full rescan of the ranked list per task.
func seedMelodyRun(cfg Config, in Instance) (*Outcome, error) {
	type seedPre struct {
		task    Task
		winners []Worker
		pays    []float64
		total   float64
	}
	preAllocate := func(task Task, ranked []Worker, remaining map[string]int) (seedPre, bool) {
		pre := seedPre{task: task}
		var sum float64
		covered := -1
		for idx, w := range ranked {
			if remaining[w.ID] <= 0 {
				continue
			}
			pre.winners = append(pre.winners, w)
			sum += w.Quality
			if sum >= task.Threshold {
				covered = idx
				break
			}
		}
		if covered < 0 {
			return seedPre{}, false
		}
		var pivot *Worker
		for idx := covered + 1; idx < len(ranked); idx++ {
			if remaining[ranked[idx].ID] > 0 {
				pivot = &ranked[idx]
				break
			}
		}
		if pivot == nil {
			return seedPre{}, false
		}
		density := pivot.Bid.Cost / pivot.Quality
		pre.pays = make([]float64, len(pre.winners))
		for i, w := range pre.winners {
			p := density * w.Quality
			pre.pays[i] = p
			pre.total += p
		}
		return pre, true
	}

	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("melody: %w", err)
	}
	ranked := rankWorkers(in.Workers, cfg)
	tasks := sortTasksByThreshold(in.Tasks)
	remaining := make(map[string]int, len(ranked))
	for _, w := range ranked {
		remaining[w.ID] = w.Bid.Frequency
	}
	candidates := make([]seedPre, 0, len(tasks))
	for _, task := range tasks {
		pre, ok := preAllocate(task, ranked, remaining)
		if !ok {
			continue
		}
		for _, w := range pre.winners {
			remaining[w.ID]--
		}
		candidates = append(candidates, pre)
	}
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].total != candidates[j].total {
			return candidates[i].total < candidates[j].total
		}
		return candidates[i].task.ID < candidates[j].task.ID
	})
	out := &Outcome{}
	budget := in.Budget
	for _, c := range candidates {
		if c.total > budget {
			break
		}
		budget -= c.total
		out.SelectedTasks = append(out.SelectedTasks, c.task.ID)
		out.TaskPayments = append(out.TaskPayments, c.total)
		out.TotalPayment += c.total
		for i, w := range c.winners {
			out.Assignments = append(out.Assignments, Assignment{
				WorkerID: w.ID,
				TaskID:   c.task.ID,
				Payment:  c.pays[i],
			})
		}
	}
	return out, nil
}

// seedRandomRun is the pre-optimization Random.Run: per-task availability
// rebuilds through a map plus a full pool re-sort per draw. It must be fed
// its own RNG with the same seed as the optimized mechanism.
func seedRandomRun(cfg Config, rng *stats.RNG, in Instance) (*Outcome, error) {
	poolForTask := func(task Task, qualified []Worker, remaining map[string]int) (winners []Worker, pays []float64, total float64, ok bool) {
		available := make([]Worker, 0, len(qualified))
		for _, w := range qualified {
			if remaining[w.ID] > 0 {
				available = append(available, w)
			}
		}
		order := rng.Perm(len(available))
		var pool []Worker
		var sum float64
		found := -1
		for drawn, oi := range order {
			w := available[oi]
			pool = append(pool, w)
			sum += w.Quality
			if len(pool) >= 2 {
				sort.Slice(pool, func(i, j int) bool {
					di := pool[i].Quality / pool[i].Bid.Cost
					dj := pool[j].Quality / pool[j].Bid.Cost
					if di != dj {
						return di > dj
					}
					return pool[i].ID < pool[j].ID
				})
				last := pool[len(pool)-1]
				if sum-last.Quality >= task.Threshold {
					found = drawn
					break
				}
			}
		}
		if found < 0 {
			return nil, nil, 0, false
		}
		pivot := pool[len(pool)-1]
		winners = pool[:len(pool)-1]
		density := pivot.Bid.Cost / pivot.Quality
		pays = make([]float64, len(winners))
		for i, w := range winners {
			pays[i] = density * w.Quality
			total += pays[i]
		}
		return winners, pays, total, true
	}

	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("random: %w", err)
	}
	qualified := make([]Worker, 0, len(in.Workers))
	for _, w := range in.Workers {
		if cfg.Qualifies(w) {
			qualified = append(qualified, w)
		}
	}
	remaining := make(map[string]int, len(qualified))
	for _, w := range qualified {
		remaining[w.ID] = w.Bid.Frequency
	}
	taskOrder := rng.Perm(len(in.Tasks))
	out := &Outcome{}
	budget := in.Budget
	for _, ti := range taskOrder {
		task := in.Tasks[ti]
		winners, pays, total, ok := poolForTask(task, qualified, remaining)
		if !ok || total > budget {
			continue
		}
		budget -= total
		out.SelectedTasks = append(out.SelectedTasks, task.ID)
		out.TaskPayments = append(out.TaskPayments, total)
		out.TotalPayment += total
		for i, w := range winners {
			remaining[w.ID]--
			out.Assignments = append(out.Assignments, Assignment{
				WorkerID: w.ID,
				TaskID:   task.ID,
				Payment:  pays[i],
			})
		}
	}
	return out, nil
}

// diffConfig is a qualification interval wide enough that randomized
// instances exercise both qualified and filtered workers.
func diffConfig() Config {
	return Config{QualityMin: 1, QualityMax: 8, CostMin: 0.5, CostMax: 3}
}

// randomInstance draws an instance shaped to hit allocator edge cases:
// occasional uncoverable thresholds, tight frequencies, and budgets from
// zero to generous.
func randomInstance(r *stats.RNG, n, m int) Instance {
	in := Instance{
		Workers: make([]Worker, n),
		Tasks:   make([]Task, m),
	}
	for i := range in.Workers {
		in.Workers[i] = Worker{
			ID: fmt.Sprintf("w%03d", i),
			Bid: Bid{
				Cost:      r.Uniform(0.3, 3.5), // some outside [CostMin, CostMax]
				Frequency: r.UniformInt(1, 4),
			},
			Quality: r.Uniform(0.5, 9), // some outside [QualityMin, QualityMax]
		}
	}
	for j := range in.Tasks {
		// Mostly coverable thresholds with a heavy tail that exhausts the
		// population, forcing the no-cover and no-pivot paths.
		th := r.Uniform(1, 12)
		if r.Bernoulli(0.1) {
			th = r.Uniform(50, 500)
		}
		in.Tasks[j] = Task{ID: fmt.Sprintf("t%03d", j), Threshold: th}
	}
	switch r.Intn(4) {
	case 0:
		in.Budget = 0
	case 1:
		in.Budget = r.Uniform(0, 10) // accepts only the cheapest schemes
	default:
		in.Budget = r.Uniform(50, 4000)
	}
	return in
}

// TestMelodyMatchesSeedImplementation asserts the indexed allocator is
// byte-identical to the seed map-based implementation across randomized
// instances of varying shape.
func TestMelodyMatchesSeedImplementation(t *testing.T) {
	cfg := diffConfig()
	mech, err := NewMelody(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(20260805)
	shapes := []struct{ n, m int }{
		{1, 1}, {2, 3}, {5, 40}, {30, 10}, {50, 200}, {120, 120}, {200, 400},
	}
	for trial := 0; trial < 60; trial++ {
		shape := shapes[trial%len(shapes)]
		in := randomInstance(r, shape.n, shape.m)
		want, err := seedMelodyRun(cfg, in)
		if err != nil {
			t.Fatalf("trial %d: seed: %v", trial, err)
		}
		got, err := mech.Run(in)
		if err != nil {
			t.Fatalf("trial %d: indexed: %v", trial, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (N=%d M=%d B=%v): indexed allocator diverged from seed\n got: %+v\nwant: %+v",
				trial, shape.n, shape.m, in.Budget, got, want)
		}
	}
}

// TestRandomMatchesSeedImplementation asserts the index-based RANDOM
// baseline consumes the identical RNG stream and produces byte-identical
// outcomes to the seed implementation.
func TestRandomMatchesSeedImplementation(t *testing.T) {
	cfg := diffConfig()
	r := stats.NewRNG(77)
	shapes := []struct{ n, m int }{
		{1, 1}, {3, 5}, {20, 30}, {60, 80}, {100, 150},
	}
	for trial := 0; trial < 40; trial++ {
		shape := shapes[trial%len(shapes)]
		in := randomInstance(r, shape.n, shape.m)
		seedRNG := int64(1000 + trial)
		want, err := seedRandomRun(cfg, stats.NewRNG(seedRNG), in)
		if err != nil {
			t.Fatalf("trial %d: seed: %v", trial, err)
		}
		mech, err := NewRandom(cfg, stats.NewRNG(seedRNG))
		if err != nil {
			t.Fatal(err)
		}
		got, err := mech.Run(in)
		if err != nil {
			t.Fatalf("trial %d: indexed: %v", trial, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (N=%d M=%d B=%v): indexed RANDOM diverged from seed\n got: %+v\nwant: %+v",
				trial, shape.n, shape.m, in.Budget, got, want)
		}
	}
}
