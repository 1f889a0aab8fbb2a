package verify

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"

	"melody/internal/core"
	"melody/internal/stats"
)

// This file verifies the stateful incremental auction kernel
// (core.AuctionState) against the stateless mechanisms and the naive
// reference oracle: a churn sequence is replayed through one kernel by
// Apply and through another by Sync while a shadow registry is maintained
// independently, and every run's outcome must be byte-identical across all
// four. The same machinery backs TestStatefulMatchesStateless and the
// FuzzIncrementalAuction target.

// ChurnStep is one run of a long-term churn sequence: the registry delta
// applied before the auction, the published task set and budget, and the
// dual mechanism's utility target.
type ChurnStep struct {
	Delta  core.WorkerDelta
	Tasks  []core.Task
	Budget float64
	Target int
}

// RandomChurnSequence draws a Table-3-shaped churn sequence: the first step
// seeds the registry with n workers; each later step mutates roughly
// churn*n workers (bid/quality updates, joins and departures) and publishes
// a fresh task set. IDs of joining workers are disjoint from the seed's.
func RandomChurnSequence(r *stats.RNG, runs, n, m int, churn float64) []ChurnStep {
	steps := make([]ChurnStep, 0, runs)
	alive := make([]string, 0, n)
	drawWorker := func(id string) core.Worker {
		return core.Worker{
			ID:      id,
			Bid:     core.Bid{Cost: r.Uniform(1, 2), Frequency: r.UniformInt(1, 5)},
			Quality: r.Uniform(2, 4),
		}
	}
	drawTasks := func() []core.Task {
		tasks := make([]core.Task, 0, m)
		for j := 0; j < m; j++ {
			tasks = append(tasks, core.Task{ID: "t" + strconv.Itoa(j), Threshold: r.Uniform(6, 12)})
		}
		return tasks
	}
	seed := core.WorkerDelta{}
	for i := 0; i < n; i++ {
		id := "w" + strconv.Itoa(i)
		seed.Upserts = append(seed.Upserts, drawWorker(id))
		alive = append(alive, id)
	}
	nextJoin := 0
	steps = append(steps, ChurnStep{
		Delta: seed, Tasks: drawTasks(), Budget: r.Uniform(0, 50*float64(m)), Target: 1 + r.Intn(m+1),
	})
	for run := 1; run < runs; run++ {
		mutations := int(churn * float64(len(alive)))
		if mutations < 1 {
			mutations = 1
		}
		var d core.WorkerDelta
		touched := make(map[string]bool)
		for k := 0; k < mutations; k++ {
			switch {
			case len(alive) > 1 && r.Bernoulli(0.6): // update an existing worker
				id := alive[r.Intn(len(alive))]
				if touched[id] {
					continue
				}
				touched[id] = true
				d.Upserts = append(d.Upserts, drawWorker(id))
			case len(alive) > 1 && r.Bernoulli(0.4): // departure
				i := r.Intn(len(alive))
				id := alive[i]
				if touched[id] {
					continue
				}
				touched[id] = true
				alive[i] = alive[len(alive)-1]
				alive = alive[:len(alive)-1]
				d.Removes = append(d.Removes, id)
			default: // join
				id := "j" + strconv.Itoa(nextJoin)
				nextJoin++
				touched[id] = true
				alive = append(alive, id)
				d.Upserts = append(d.Upserts, drawWorker(id))
			}
		}
		steps = append(steps, ChurnStep{
			Delta: d, Tasks: drawTasks(), Budget: r.Uniform(0, 50*float64(m)), Target: 1 + r.Intn(m+1),
		})
	}
	return steps
}

// CheckStatefulSequence replays a churn sequence through two persistent
// AuctionStates, one fed each step's delta by Apply and one the step's full
// worker set by Sync, and demands, at every step and for every mechanism
// (MELODY, MELODY-DUAL, OPT-UB), that both kernels hold the shadow registry
// and return outcomes byte-identical to the stateless mechanism run from
// scratch on it — and, for MELODY, to the naive reference oracle. A nil
// return means the whole sequence agreed.
func CheckStatefulSequence(cfg core.Config, steps []ChurnStep, opts core.AuctionStateOptions) error {
	st, err := core.NewAuctionState(cfg, opts)
	if err != nil {
		return err
	}
	synced, err := core.NewAuctionState(cfg, opts)
	if err != nil {
		return err
	}
	shadow := make(map[string]core.Worker)
	melody, err := core.NewMelody(cfg)
	if err != nil {
		return err
	}
	optub, err := core.NewOptUB(cfg)
	if err != nil {
		return err
	}
	for run, step := range steps {
		if err := st.Apply(step.Delta); err != nil {
			return fmt.Errorf("run %d: apply: %w", run, err)
		}
		for _, id := range step.Delta.Removes {
			delete(shadow, id)
		}
		for _, w := range step.Delta.Upserts {
			shadow[w.ID] = w
		}
		workers := make([]core.Worker, 0, len(shadow))
		for _, w := range shadow {
			workers = append(workers, w)
		}
		sort.Slice(workers, func(i, j int) bool { return workers[i].ID < workers[j].ID })
		// Sync reads the set in any order; rotating it by the run moves
		// joiners, stayers and changed workers around the list.
		rotated := workers
		if len(workers) > 0 {
			shift := run % len(workers)
			rotated = append(workers[shift:len(workers):len(workers)], workers[:shift]...)
		}
		if err := synced.Sync(rotated); err != nil {
			return fmt.Errorf("run %d: sync: %w", run, err)
		}
		for _, kernel := range []*core.AuctionState{st, synced} {
			if got := kernel.Snapshot(); !reflect.DeepEqual(got, workers) {
				return fmt.Errorf("run %d: kernel registry diverged from the shadow\n got: %+v\nwant: %+v", run, got, workers)
			}
		}
		in := core.Instance{Workers: workers, Tasks: step.Tasks, Budget: step.Budget}

		want, err := melody.Run(in)
		if err != nil {
			return fmt.Errorf("run %d: stateless melody: %w", run, err)
		}
		ref, err := ReferenceMelody(cfg, in)
		if err != nil {
			return fmt.Errorf("run %d: reference: %w", run, err)
		}
		dual, err := core.NewMelodyDual(cfg, step.Target)
		if err != nil {
			return fmt.Errorf("run %d: %w", run, err)
		}
		wantDual, err := dual.Run(in)
		if err != nil {
			return fmt.Errorf("run %d: stateless dual: %w", run, err)
		}
		wantUB, err := optub.Run(in)
		if err != nil {
			return fmt.Errorf("run %d: stateless optub: %w", run, err)
		}
		for _, k := range []struct {
			name string
			st   *core.AuctionState
		}{{"apply", st}, {"sync", synced}} {
			got, err := k.st.RunMelody(step.Tasks, step.Budget)
			if err != nil {
				return fmt.Errorf("run %d: %s kernel melody: %w", run, k.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				return fmt.Errorf("run %d: %s kernel MELODY diverged from stateless\n got: %+v\nwant: %+v", run, k.name, got, want)
			}
			if !reflect.DeepEqual(got, ref) {
				return fmt.Errorf("run %d: %s kernel MELODY diverged from reference\n got: %+v\nwant: %+v", run, k.name, got, ref)
			}
			got, err = k.st.RunDual(step.Target, step.Tasks)
			if err != nil {
				return fmt.Errorf("run %d: %s kernel dual: %w", run, k.name, err)
			}
			if !reflect.DeepEqual(got, wantDual) {
				return fmt.Errorf("run %d: %s kernel MELODY-DUAL diverged from stateless\n got: %+v\nwant: %+v", run, k.name, got, wantDual)
			}
			got, err = k.st.RunOptUB(step.Tasks, step.Budget)
			if err != nil {
				return fmt.Errorf("run %d: %s kernel optub: %w", run, k.name, err)
			}
			if !reflect.DeepEqual(got, wantUB) {
				return fmt.Errorf("run %d: %s kernel OPT-UB diverged from stateless\n got: %+v\nwant: %+v", run, k.name, got, wantUB)
			}
		}
	}
	return nil
}
