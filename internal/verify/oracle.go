package verify

import (
	"errors"
	"fmt"
	"reflect"
	"sort"

	"melody/internal/core"
)

// ReferenceMelody is an independent, deliberately naive implementation of
// Algorithm 1 — the pre-optimization map-based O(N*M) reference that the
// indexed allocator replaced — kept as a differential oracle. It must
// produce byte-identical outcomes to core.Melody.Run on every valid
// instance; any divergence is an allocator bug, not a tolerance issue.
func ReferenceMelody(cfg core.Config, in core.Instance) (*core.Outcome, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("verify: reference melody: %w", err)
	}
	// Rank qualified workers by descending quality-per-cost with the ID
	// tie-break (Algorithm 1, lines 1-2).
	ranked := make([]core.Worker, 0, len(in.Workers))
	for _, w := range in.Workers {
		if cfg.Qualifies(w) {
			ranked = append(ranked, w)
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		di := ranked[i].Quality / ranked[i].Bid.Cost
		dj := ranked[j].Quality / ranked[j].Bid.Cost
		if di != dj {
			return di > dj
		}
		return ranked[i].ID < ranked[j].ID
	})
	// Tasks by ascending threshold (line 3).
	tasks := make([]core.Task, len(in.Tasks))
	copy(tasks, in.Tasks)
	sort.Slice(tasks, func(i, j int) bool {
		if tasks[i].Threshold != tasks[j].Threshold {
			return tasks[i].Threshold < tasks[j].Threshold
		}
		return tasks[i].ID < tasks[j].ID
	})

	type candidate struct {
		task    core.Task
		winners []core.Worker
		pays    []float64
		total   float64
	}
	remaining := make(map[string]int, len(ranked))
	for _, w := range ranked {
		remaining[w.ID] = w.Bid.Frequency
	}
	var candidates []candidate
	for _, task := range tasks {
		// Smallest prefix of still-available workers covering Q_j.
		var winners []core.Worker
		sum := 0.0
		covered := -1
		for idx, w := range ranked {
			if remaining[w.ID] <= 0 {
				continue
			}
			winners = append(winners, w)
			sum += w.Quality
			if sum >= task.Threshold {
				covered = idx
				break
			}
		}
		if covered < 0 {
			continue
		}
		// Critical payment against the next available worker (the pivot).
		var pivot *core.Worker
		for idx := covered + 1; idx < len(ranked); idx++ {
			if remaining[ranked[idx].ID] > 0 {
				pivot = &ranked[idx]
				break
			}
		}
		if pivot == nil {
			continue
		}
		density := pivot.Bid.Cost / pivot.Quality
		c := candidate{task: task, winners: winners, pays: make([]float64, len(winners))}
		for i, w := range winners {
			p := density * w.Quality
			c.pays[i] = p
			c.total += p
		}
		for _, w := range winners {
			remaining[w.ID]--
		}
		candidates = append(candidates, c)
	}
	// Scheme determination: accept candidates in ascending order of total
	// payment while the budget allows (lines 15-21).
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].total != candidates[j].total {
			return candidates[i].total < candidates[j].total
		}
		return candidates[i].task.ID < candidates[j].task.ID
	})
	out := &core.Outcome{}
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
			out.Assignments = append(out.Assignments, core.Assignment{
				WorkerID: w.ID, TaskID: c.task.ID, Payment: c.pays[i],
			})
		}
	}
	return out, nil
}

// CheckAgainstReference runs the optimized MELODY and the reference oracle
// on the same instance and requires byte-identical outcomes.
func CheckAgainstReference(cfg core.Config, in core.Instance) error {
	mel, err := core.NewMelody(cfg)
	if err != nil {
		return err
	}
	got, err := mel.Run(in)
	if err != nil {
		return fmt.Errorf("verify: melody: %w", err)
	}
	want, err := ReferenceMelody(cfg, in)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("verify: melody diverges from reference oracle:\n got: %+v\nwant: %+v", got, want)
	}
	return nil
}

// CheckExactBounds verifies, on instances small enough to enumerate, that
// the mechanisms bracket the true optimum: MELODY's utility never exceeds
// the exact optimum (a truthful mechanism cannot beat the omniscient
// optimum), and the OPT-UB relaxation never falls below it. Returns
// core.ErrInstanceTooLarge unchanged when the instance is not enumerable;
// callers decide whether to skip.
func CheckExactBounds(cfg core.Config, in core.Instance) error {
	opt, err := core.ExactOPT(in, cfg)
	if err != nil {
		if errors.Is(err, core.ErrInstanceTooLarge) {
			return err
		}
		return fmt.Errorf("verify: exact search: %w", err)
	}
	mel, err := core.NewMelody(cfg)
	if err != nil {
		return err
	}
	melOut, err := mel.Run(in)
	if err != nil {
		return fmt.Errorf("verify: melody: %w", err)
	}
	if melOut.Utility() > opt {
		return fmt.Errorf("verify: MELODY satisfied %d tasks, exceeding the exact optimum %d", melOut.Utility(), opt)
	}
	ub, err := core.NewOptUB(cfg)
	if err != nil {
		return err
	}
	ubOut, err := ub.Run(in)
	if err != nil {
		return fmt.Errorf("verify: opt-ub: %w", err)
	}
	if ubOut.Utility() < opt {
		return fmt.Errorf("verify: OPT-UB covered %d tasks, below the exact optimum %d (not an upper bound)", ubOut.Utility(), opt)
	}
	return nil
}
