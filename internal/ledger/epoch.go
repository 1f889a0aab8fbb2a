package ledger

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
)

// EpochPool holds settled-but-unpaid worker earnings between epoch
// payouts. Payments accumulate here instead of landing on worker accounts
// one transfer at a time; every EpochSettler.Every finished runs the pool
// is drained into one aggregated payout batch per worker.
const EpochPool Account = "epoch_pool"

// KindPayout labels the aggregated epoch-boundary transfers from the
// epoch pool to worker accounts.
const KindPayout EntryKind = "payout"

// EpochSettler batches per-run payments into periodic payout epochs,
// modeled on blockchain-style reward pools: individual auction payments
// move budget from escrow into the shared EpochPool while the settler
// accrues each worker's share, and every Every finished runs the pool is
// drained in one sorted pass of aggregated transfers. Money conservation
// is preserved by construction — every movement is a ledger Transfer —
// and the residue sweep returns the pool to exactly zero at each epoch
// boundary.
//
// All pool movements (accruals and payouts) are serialized under the
// settler's own mutex, so a Settle never observes a payment that reached
// the pool but not the pending table, and concurrent runs from many
// tenants can share one settler on one ledger.
type EpochSettler struct {
	ledger *Ledger
	every  int

	mu      sync.Mutex
	pending map[Account]float64
	runs    int // finished runs since the last settle
	epochs  int // completed payout epochs
}

// NewEpochSettler returns a settler that pays out every `every` finished
// runs; every <= 1 settles after each run (degenerating to per-run payout
// with one extra hop through the pool).
func NewEpochSettler(l *Ledger, every int) *EpochSettler {
	if every < 1 {
		every = 1
	}
	return &EpochSettler{ledger: l, every: every, pending: make(map[Account]float64)}
}

// Every returns the epoch length in runs.
func (s *EpochSettler) Every() int { return s.every }

// Epochs returns the number of completed payout epochs.
func (s *EpochSettler) Epochs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epochs
}

// Pending returns the total accrued-but-unpaid amount (the pool's target
// balance).
func (s *EpochSettler) Pending() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0.0
	for _, v := range s.pending {
		total += v
	}
	return total
}

// pay moves one assignment's payment from escrow into the pool and
// accrues it to the worker, atomically with respect to Settle.
func (s *EpochSettler) pay(worker Account, amount float64, memo memoParts) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.ledger.transfer(KindPayment, Escrow, EpochPool, amount, memo); err != nil {
		return err
	}
	s.pending[worker] += amount
	return nil
}

// RunFinished records one finished run and settles the epoch when the
// epoch length is reached. It returns whether a payout epoch completed.
func (s *EpochSettler) RunFinished() (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.runs++
	if s.runs < s.every {
		return false, nil
	}
	return true, s.settleLocked()
}

// Flush settles any accrued payments immediately, regardless of epoch
// position — the shutdown path, so no worker earnings stay parked in the
// pool when the platform stops mid-epoch.
func (s *EpochSettler) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) == 0 {
		s.runs = 0
		return nil
	}
	return s.settleLocked()
}

// settleLocked drains the pool into per-worker aggregated payouts; callers
// hold s.mu. Workers are paid in sorted order so the entry sequence — and
// therefore every balance — is deterministic for a given accrual history.
// Each worker leaves pending as its payout lands, so a settle that fails
// part-way is resumed by the next one without paying anyone twice.
func (s *EpochSettler) settleLocked() error {
	epoch := s.epochs + 1
	workers := make([]Account, 0, len(s.pending))
	for w := range s.pending {
		workers = append(workers, w)
	}
	sort.Slice(workers, func(i, j int) bool { return workers[i] < workers[j] })
	for _, w := range workers {
		if amount := s.pending[w]; amount > 0 {
			if _, err := s.ledger.transfer(KindPayout, EpochPool, w, amount,
				memoParts{form: memoPayout, num: int64(epoch)}); err != nil {
				return fmt.Errorf("ledger: epoch %d payout to %q: %w", epoch, w, err)
			}
		}
		delete(s.pending, w)
	}
	// Aggregated per-worker sums and the pool's running balance accumulate
	// the same payments in different orders, so up to a few ULPs can be
	// left behind, or missing. Sweep a positive residue back to the
	// requester and top a negative one up from it, so the pool starts every
	// epoch at exactly 0; anything above float noise means a real
	// accounting bug.
	residue := s.ledger.Balance(EpochPool)
	if math.Abs(residue) > 1e-6 {
		return fmt.Errorf("ledger: epoch %d left %.9f in the pool", epoch, residue)
	}
	memo := memoParts{form: memoResidue, num: int64(epoch)}
	var err error
	switch {
	case residue > 0:
		_, err = s.ledger.transfer(KindRefund, EpochPool, Requester, residue, memo)
	case residue < 0:
		_, err = s.ledger.transfer(KindRefund, Requester, EpochPool, -residue, memo)
	}
	if err != nil {
		return err
	}
	s.runs = 0
	s.epochs = epoch
	return nil
}

// SettlerState is the epoch settler's durable state: each worker's accrued
// but unpaid earnings, the finished runs since the last payout and the
// completed epochs. It is the settler's part of a scheduler snapshot.
type SettlerState struct {
	Pending map[Account]float64 `json:"pending,omitempty"`
	Runs    int                 `json:"runs,omitempty"`
	Epochs  int                 `json:"epochs,omitempty"`
}

// State returns a copy of the settler's state.
func (s *EpochSettler) State() SettlerState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SettlerState{Runs: s.runs, Epochs: s.epochs}
	if len(s.pending) > 0 {
		st.Pending = make(map[Account]float64, len(s.pending))
		for w, v := range s.pending {
			st.Pending[w] = v
		}
	}
	return st
}

// Restore replaces the settler's state with st. The pool balance lives on
// the ledger, so the ledger is restored separately.
func (s *EpochSettler) Restore(st SettlerState) error {
	if st.Runs < 0 || st.Epochs < 0 {
		return fmt.Errorf("ledger: settler state runs %d / epochs %d negative", st.Runs, st.Epochs)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending = make(map[Account]float64, len(st.Pending))
	for w, v := range st.Pending {
		s.pending[w] = v
	}
	s.runs, s.epochs = st.Runs, st.Epochs
	return nil
}

// OpenRunEpoch escrows a run's budget like OpenRun but routes the run's
// payments through the epoch settler's pool instead of paying workers
// directly; the unspent remainder still refunds straight to the requester
// at Close.
func (l *Ledger) OpenRunEpoch(run int, budget float64, settler *EpochSettler) (*RunSettlement, error) {
	if settler == nil {
		return nil, errors.New("ledger: epoch settlement needs a settler")
	}
	if settler.ledger != l {
		return nil, errors.New("ledger: settler is bound to a different ledger")
	}
	s, err := l.OpenRun(run, budget)
	if err != nil {
		return nil, err
	}
	s.epoch = settler
	return s, nil
}
