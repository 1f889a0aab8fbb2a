package verify

import (
	"fmt"
	"math"

	"melody/internal/ledger"
)

// CheckMoneyConservation verifies the ledger's double-entry invariant: the
// sum of all account balances equals the sum of external deposits (internal
// transfers move money, never create or destroy it), and no account is
// overdrawn. This is the accounting form of budget feasibility the chaos
// soak relies on: if a crash/replay ever double-paid a worker, escrow would
// go negative or balances would exceed deposits.
func CheckMoneyConservation(l *ledger.Ledger) error {
	var deposits float64
	var bad error
	l.EachAmount(func(seq int64, kind ledger.EntryKind, amount float64) bool {
		if !finite(amount) || amount <= 0 {
			bad = fmt.Errorf("verify: ledger entry %d has non-positive amount %v", seq, amount)
			return false
		}
		if kind == ledger.KindDeposit {
			deposits += amount
		}
		return true
	})
	if bad != nil {
		return bad
	}
	var total float64
	for _, ab := range l.Accounts() {
		if ab.Balance < -Tol {
			return fmt.Errorf("verify: account %q overdrawn: balance %v", ab.Account, ab.Balance)
		}
		total += ab.Balance
	}
	// Scale the aggregate tolerance with the amount of money in flight so
	// large seasons don't trip on accumulated rounding.
	tol := math.Max(SumTol, SumTol*deposits)
	if !almostEqual(total, deposits, tol) {
		return fmt.Errorf("verify: money not conserved: balances sum to %v, deposits to %v", total, deposits)
	}
	return nil
}

// CheckEscrowSettled verifies that no money is stuck in escrow — the state
// between runs, after every opened settlement has been closed and refunded.
func CheckEscrowSettled(l *ledger.Ledger) error {
	if b := l.Balance(ledger.Escrow); math.Abs(b) > SumTol {
		return fmt.Errorf("verify: escrow holds %v after settlement; expected 0", b)
	}
	return nil
}

// CheckSettlementDrained is CheckEscrowSettled extended across epoch
// settlement: after every run has finished and the settler has flushed,
// neither escrow nor the epoch pool may hold money — every escrowed cent
// either reached a worker (as an aggregated epoch payout) or refunded to
// the requester. Run it with CheckMoneyConservation after a multi-tenant
// season: together they prove concurrent runs moved money without creating,
// destroying, or stranding any.
func CheckSettlementDrained(l *ledger.Ledger) error {
	if err := CheckEscrowSettled(l); err != nil {
		return err
	}
	if b := l.Balance(ledger.EpochPool); math.Abs(b) > SumTol {
		return fmt.Errorf("verify: epoch pool holds %v after flush; expected 0", b)
	}
	return nil
}
