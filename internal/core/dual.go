package core

import (
	"fmt"
)

// MelodyDual solves the dual form of the SRA problem sketched in the
// paper's footnote 6: instead of maximizing satisfied tasks under a budget,
// it minimizes the requester's total payment subject to satisfying at least
// a target number of tasks. Per the footnote, only Algorithm 1's
// terminating condition changes: pre-allocation is identical, and scheme
// determination accepts tasks in ascending order of P_j until the target is
// reached instead of until the budget is exhausted.
type MelodyDual struct {
	cfg    Config
	target int
}

var _ Mechanism = (*MelodyDual)(nil)

// NewMelodyDual constructs the dual mechanism with a utility target (the
// minimum number of tasks that must be satisfied).
func NewMelodyDual(cfg Config, targetUtility int) (*MelodyDual, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if targetUtility < 1 {
		return nil, fmt.Errorf("core: target utility %d must be at least 1", targetUtility)
	}
	return &MelodyDual{cfg: cfg, target: targetUtility}, nil
}

// Name implements Mechanism.
func (m *MelodyDual) Name() string { return "MELODY-DUAL" }

// Config returns the qualification configuration.
func (m *MelodyDual) Config() Config { return m.cfg }

// Target returns the configured utility target.
func (m *MelodyDual) Target() int { return m.target }

// Run implements Mechanism. The instance's Budget field is ignored (the
// dual problem has no budget constraint); the outcome's TotalPayment is the
// minimized spend. When fewer than the target number of tasks can be
// pre-allocated, the outcome contains every allocatable task — callers
// detect shortfall via Outcome.Utility() < Target().
func (m *MelodyDual) Run(in Instance) (*Outcome, error) {
	// The dual ignores the budget; validate the rest of the instance by
	// substituting a neutral budget.
	checked := in
	checked.Budget = 0
	if err := checked.Validate(); err != nil {
		return nil, fmt.Errorf("melody-dual: %w", err)
	}

	pre := preAllocateAll(m.cfg, in)
	out := &Outcome{}
	k := len(pre.candidates)
	if k > m.target {
		k = m.target
	}
	assembleOutcome(&pre, pre.candidates[:k], make([]int, 0, k), out)
	return out, nil
}
