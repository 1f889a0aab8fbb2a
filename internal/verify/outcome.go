package verify

import (
	"fmt"

	"melody/internal/core"
)

// OutcomeKind distinguishes the two shapes of core.Outcome produced by the
// mechanisms.
type OutcomeKind int

const (
	// Integral outcomes carry the full assignment scheme (x_ij binary):
	// MELODY, MELODY-DUAL, RANDOM.
	Integral OutcomeKind = iota
	// Fractional outcomes carry only selected tasks and payments, no
	// integral assignments: the OPT-UB relaxation.
	Fractional
)

// Checks selects which invariants CheckAuctionOutcome enforces on top of
// structural well-formedness. Use the mechanism presets (MelodyChecks,
// DualChecks, RandomChecks, OptUBChecks) unless testing a custom mechanism.
type Checks struct {
	Kind OutcomeKind
	// Budget enforces TotalPayment <= Instance.Budget (constraint 9 of the
	// paper). MELODY-DUAL ignores the budget by construction, so its preset
	// disables this.
	Budget bool
	// IndividualRationality enforces payment >= declared cost per
	// assignment (Theorem 6).
	IndividualRationality bool
	// CriticalPayments enforces the critical-payment rule backing Theorem
	// 4/5: within one task every winner is paid the same per-quality price
	// (the pivot's cost density), and that price is at least the winner's
	// own cost density — i.e. the payment is independent of the winner's
	// bid. Holds for MELODY, MELODY-DUAL and RANDOM (Appendix D), not for
	// arbitrary mechanisms.
	CriticalPayments bool
}

// MelodyChecks is the full invariant set for the MELODY mechanism.
func MelodyChecks() Checks {
	return Checks{Kind: Integral, Budget: true, IndividualRationality: true, CriticalPayments: true}
}

// DualChecks is the invariant set for MELODY-DUAL: identical to MELODY's
// except the budget constraint, which the dual problem does not have.
func DualChecks() Checks {
	return Checks{Kind: Integral, IndividualRationality: true, CriticalPayments: true}
}

// RandomChecks is the invariant set for the RANDOM baseline, whose
// Appendix-D payment rule is also a pivot-density critical payment.
func RandomChecks() Checks {
	return Checks{Kind: Integral, Budget: true, IndividualRationality: true, CriticalPayments: true}
}

// OptUBChecks is the invariant set for the fractional OPT-UB bound.
func OptUBChecks() Checks { return Checks{Kind: Fractional, Budget: true} }

// CheckAuctionOutcome runs the selected invariants, returning the first
// violation. It always starts with CheckOutcome (structural
// well-formedness).
func CheckAuctionOutcome(in core.Instance, out *core.Outcome, c Checks) error {
	if err := CheckOutcome(in, out, c.Kind); err != nil {
		return err
	}
	if c.Budget {
		if err := CheckBudgetFeasible(in, out); err != nil {
			return err
		}
	}
	if c.IndividualRationality {
		if err := CheckIndividualRationality(in, out); err != nil {
			return err
		}
	}
	if c.CriticalPayments {
		if err := CheckCriticalPayments(in, out); err != nil {
			return err
		}
	}
	return nil
}

// CheckOutcome verifies structural well-formedness of an outcome against
// its instance:
//
//  1. every assignment references an existing worker and task,
//  2. no (worker, task) pair appears twice (x_ij is binary),
//  3. every assigned task is in SelectedTasks and no task is selected twice,
//  4. TaskPayments is aligned with SelectedTasks, and per-task payments sum
//     to TaskPayments and overall to TotalPayment,
//  5. payments are positive and finite,
//  6. per-worker assignment counts respect declared frequencies,
//  7. every selected task's threshold is covered by its winners' estimated
//     quality (Definition 2),
//
// with 1, 2, 5 (per-assignment) replaced by payment-only accounting for
// Fractional outcomes, which carry no integral assignments.
func CheckOutcome(in core.Instance, out *core.Outcome, kind OutcomeKind) error {
	if out == nil {
		return fmt.Errorf("verify: nil outcome")
	}
	if !finite(out.TotalPayment) || out.TotalPayment < 0 {
		return fmt.Errorf("verify: total payment %v is not finite and non-negative", out.TotalPayment)
	}
	tasks := make(map[string]core.Task, len(in.Tasks))
	for _, t := range in.Tasks {
		tasks[t.ID] = t
	}
	selected := make(map[string]bool, len(out.SelectedTasks))
	for _, id := range out.SelectedTasks {
		if _, ok := tasks[id]; !ok {
			return fmt.Errorf("verify: selected unknown task %q", id)
		}
		if selected[id] {
			return fmt.Errorf("verify: task %q selected twice", id)
		}
		selected[id] = true
	}
	if len(out.TaskPayments) != len(out.SelectedTasks) {
		return fmt.Errorf("verify: %d task payments for %d selected tasks", len(out.TaskPayments), len(out.SelectedTasks))
	}

	if kind == Fractional {
		var sum float64
		for _, p := range out.TaskPayments {
			if !finite(p) || p < 0 {
				return fmt.Errorf("verify: task payment %v is not finite and non-negative", p)
			}
			sum += p
		}
		if !almostEqual(sum, out.TotalPayment, SumTol) {
			return fmt.Errorf("verify: task payments sum %v != TotalPayment %v", sum, out.TotalPayment)
		}
		if len(out.Assignments) != 0 {
			return fmt.Errorf("verify: fractional outcome carries %d integral assignments", len(out.Assignments))
		}
		return nil
	}

	workers := make(map[string]core.Worker, len(in.Workers))
	for _, w := range in.Workers {
		workers[w.ID] = w
	}
	pairSeen := make(map[[2]string]bool, len(out.Assignments))
	perTaskPay := make(map[string]float64, len(selected))
	perTaskQuality := make(map[string]float64, len(selected))
	perWorkerCount := make(map[string]int, len(workers))
	var total float64
	for _, a := range out.Assignments {
		w, ok := workers[a.WorkerID]
		if !ok {
			return fmt.Errorf("verify: assignment references unknown worker %q", a.WorkerID)
		}
		if _, ok := tasks[a.TaskID]; !ok {
			return fmt.Errorf("verify: assignment references unknown task %q", a.TaskID)
		}
		key := [2]string{a.WorkerID, a.TaskID}
		if pairSeen[key] {
			return fmt.Errorf("verify: pair (%s, %s) assigned twice (x_ij must be binary)", a.WorkerID, a.TaskID)
		}
		pairSeen[key] = true
		if !selected[a.TaskID] {
			return fmt.Errorf("verify: assignment to unselected task %q", a.TaskID)
		}
		if !finite(a.Payment) || a.Payment <= 0 {
			return fmt.Errorf("verify: non-positive payment %v to worker %q", a.Payment, a.WorkerID)
		}
		perTaskPay[a.TaskID] += a.Payment
		perTaskQuality[a.TaskID] += w.Quality
		perWorkerCount[a.WorkerID]++
		total += a.Payment
	}
	if !almostEqual(total, out.TotalPayment, SumTol) {
		return fmt.Errorf("verify: assignments sum %v != TotalPayment %v", total, out.TotalPayment)
	}
	for i, id := range out.SelectedTasks {
		if !almostEqual(perTaskPay[id], out.TaskPayments[i], SumTol) {
			return fmt.Errorf("verify: task %q: payments %v != TaskPayments[%d] %v", id, perTaskPay[id], i, out.TaskPayments[i])
		}
		if perTaskQuality[id] < tasks[id].Threshold-Tol {
			return fmt.Errorf("verify: task %q: allocated quality %v below threshold %v",
				id, perTaskQuality[id], tasks[id].Threshold)
		}
	}
	for id, count := range perWorkerCount {
		if count > workers[id].Bid.Frequency {
			return fmt.Errorf("verify: worker %q assigned %d tasks > declared frequency %d",
				id, count, workers[id].Bid.Frequency)
		}
	}
	return nil
}

// CheckBudgetFeasible verifies the paper's budget-feasibility constraint
// (constraint 9, proved for MELODY alongside Theorem 6): the requester's
// total expense never exceeds the published budget.
func CheckBudgetFeasible(in core.Instance, out *core.Outcome) error {
	if out.TotalPayment > in.Budget+Tol {
		return fmt.Errorf("verify: total payment %v exceeds budget %v", out.TotalPayment, in.Budget)
	}
	return nil
}

// CheckIndividualRationality verifies Theorem 6: every assignment pays the
// worker at least the declared cost, so no truthful winner runs a loss.
func CheckIndividualRationality(in core.Instance, out *core.Outcome) error {
	costs := make(map[string]float64, len(in.Workers))
	for _, w := range in.Workers {
		costs[w.ID] = w.Bid.Cost
	}
	for _, a := range out.Assignments {
		if a.Payment < costs[a.WorkerID]-Tol {
			return fmt.Errorf("verify: worker %q paid %v below declared cost %v on task %q",
				a.WorkerID, a.Payment, costs[a.WorkerID], a.TaskID)
		}
	}
	return nil
}

// CheckCriticalPayments verifies the pivot-pricing structure behind the
// truthfulness proof (Theorem 4/5): within each task all winners are paid
// the same per-quality price p_ij/mu_i (the pivot worker's cost density),
// and that price is at least each winner's own cost density — making the
// payment independent of the winner's declared bid. MELODY, MELODY-DUAL and
// RANDOM all price this way.
func CheckCriticalPayments(in core.Instance, out *core.Outcome) error {
	quality := make(map[string]float64, len(in.Workers))
	density := make(map[string]float64, len(in.Workers))
	for _, w := range in.Workers {
		quality[w.ID] = w.Quality
		density[w.ID] = w.Bid.Cost / w.Quality
	}
	taskPrice := make(map[string]float64, len(out.SelectedTasks))
	for _, a := range out.Assignments {
		mu := quality[a.WorkerID]
		if !(mu > 0) {
			return fmt.Errorf("verify: winner %q has non-positive quality %v", a.WorkerID, mu)
		}
		price := a.Payment / mu
		if prev, ok := taskPrice[a.TaskID]; ok {
			if !almostEqual(prev, price, Tol) {
				return fmt.Errorf("verify: task %q pays unequal per-quality prices %v and %v (bid-dependent payments)",
					a.TaskID, prev, price)
			}
		} else {
			taskPrice[a.TaskID] = price
		}
		if price < density[a.WorkerID]-Tol {
			return fmt.Errorf("verify: task %q price %v below winner %q's own cost density %v",
				a.TaskID, price, a.WorkerID, density[a.WorkerID])
		}
	}
	return nil
}
