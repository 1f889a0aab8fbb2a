// Package ledger implements the platform's money-handling substrate: a
// double-entry ledger with requester escrow and worker balances. A run's
// budget is escrowed when the run opens, payments move from escrow to
// worker balances when the auction settles, and the unspent remainder is
// refunded when the run finishes — making budget feasibility (constraint 9
// of the paper) an accounting invariant instead of a convention.
package ledger

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"melody/internal/chunk"
)

// Account identifies a ledger account.
type Account string

// Reserved accounts.
const (
	// Requester is the requester's funding account.
	Requester Account = "requester"
	// Escrow holds a run's budget between OpenRun and FinishRun.
	Escrow Account = "escrow"
)

// EntryKind labels ledger entries.
type EntryKind string

// The entry kinds.
const (
	KindDeposit EntryKind = "deposit"
	KindEscrow  EntryKind = "escrow"
	KindPayment EntryKind = "payment"
	KindRefund  EntryKind = "refund"
)

// Entry is one immutable ledger record: amount moved from one account to
// another.
type Entry struct {
	Seq    int64
	Kind   EntryKind
	From   Account
	To     Account
	Amount float64
	// Memo carries context (task ID, run number).
	Memo string
}

// Ledger is a thread-safe double-entry ledger. Every mutation preserves
// the invariant that the sum of all balances equals the sum of deposits
// (money is neither created nor destroyed internally).
type Ledger struct {
	mu       sync.Mutex
	balances map[Account]float64
	// journal is the entry history: entry i has Seq i+1. Entries name
	// accounts and kinds by their index in names.
	journal journal
	names   []string
	ids     map[string]uint32
}

// New returns an empty ledger.
func New() *Ledger {
	return &Ledger{balances: make(map[Account]float64), ids: make(map[string]uint32)}
}

// Deposit credits external money into an account.
func (l *Ledger) Deposit(to Account, amount float64, memo string) (int64, error) {
	if err := checkAmount(amount); err != nil {
		return 0, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.balances[to] += amount
	return l.write(KindDeposit, "", to, amount, memoParts{text: memo}), nil
}

// Transfer moves money between accounts, failing on insufficient funds.
func (l *Ledger) Transfer(kind EntryKind, from, to Account, amount float64, memo string) (int64, error) {
	return l.transfer(kind, from, to, amount, memoParts{text: memo})
}

// transfer is Transfer with the memo given as its parts.
func (l *Ledger) transfer(kind EntryKind, from, to Account, amount float64, memo memoParts) (int64, error) {
	if err := checkAmount(amount); err != nil {
		return 0, err
	}
	if from == to {
		return 0, errors.New("ledger: transfer to self")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.balances[from] < amount-1e-9 {
		return 0, fmt.Errorf("ledger: insufficient funds in %q: have %.6f, need %.6f",
			from, l.balances[from], amount)
	}
	l.balances[from] -= amount
	l.balances[to] += amount
	return l.write(kind, from, to, amount, memo), nil
}

// write appends an entry and returns its Seq; callers hold l.mu.
func (l *Ledger) write(kind EntryKind, from, to Account, amount float64, memo memoParts) int64 {
	l.journal.append(l.intern(string(kind)), l.intern(string(from)), l.intern(string(to)), amount, memo)
	return int64(l.journal.n)
}

// intern returns name's index in l.names, adding it on first use; callers
// hold l.mu.
func (l *Ledger) intern(name string) uint32 {
	id, ok := l.ids[name]
	if !ok {
		id = uint32(len(l.names))
		l.names = append(l.names, name)
		l.ids[name] = id
	}
	return id
}

// Balance returns an account's balance (zero for unknown accounts).
func (l *Ledger) Balance(a Account) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.balances[a]
}

// Entries returns a copy of the full history.
func (l *Ledger) Entries() []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.entriesLocked()
}

// entriesLocked decodes the history's entries; callers hold l.mu. An
// entry whose memo repeats the previous entry's shares its string.
func (l *Ledger) entriesLocked() []Entry {
	out := make([]Entry, 0, l.journal.n)
	var r, prev rec
	buf := chunk.Buffer()
	defer chunk.Release(buf)
	for i := range l.journal.Chunks {
		d := chunkReader{c: l.journal.Read(i, 0, -1, buf)}
		for d.next(&r) {
			e := Entry{
				Seq:    int64(len(out) + 1),
				Kind:   EntryKind(l.names[r.kind]),
				From:   Account(l.names[r.from]),
				To:     Account(l.names[r.to]),
				Amount: r.amount,
			}
			if r.same && r.form == prev.form && r.num == prev.num {
				e.Memo = out[len(out)-1].Memo
			} else {
				e.Memo = r.memo()
			}
			out = append(out, e)
			prev = r
		}
	}
	return out
}

// EachAmount calls fn with each entry's Seq, kind and amount in journal
// order, building no Entry and no memo, until fn returns false. fn runs
// under the ledger's lock and must not call the ledger.
func (l *Ledger) EachAmount(fn func(seq int64, kind EntryKind, amount float64) bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var r rec
	seq := int64(0)
	buf := chunk.Buffer()
	defer chunk.Release(buf)
	for i := range l.journal.Chunks {
		for d := (chunkReader{c: l.journal.Read(i, 0, -1, buf)}); d.next(&r); {
			seq++
			if !fn(seq, EntryKind(l.names[r.kind]), r.amount) {
				return
			}
		}
	}
}

// SpillTo makes the journal write each chunk it closes to sink and keep
// only where it went; Entries, Snapshot and EachAmount read closed chunks
// back from there. A journal spills to one sink, kept across Restore.
func (l *Ledger) SpillTo(sink *chunk.Sink) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.journal.SpillTo(sink, journalName)
}

// JournalSize returns the number of entries the journal holds and the bytes
// its chunks take, spilled ones included.
func (l *Ledger) JournalSize() (entries, bytes int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.journal.n, l.journal.Size
}

// Accounts returns all accounts with their balances, sorted by name.
func (l *Ledger) Accounts() []struct {
	Account Account
	Balance float64
} {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]struct {
		Account Account
		Balance float64
	}, 0, len(l.balances))
	for a, b := range l.balances {
		out = append(out, struct {
			Account Account
			Balance float64
		}{a, b})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Account < out[j].Account })
	return out
}

func checkAmount(amount float64) error {
	if !(amount > 0) || math.IsInf(amount, 0) || math.IsNaN(amount) {
		return fmt.Errorf("ledger: amount %v must be positive and finite", amount)
	}
	return nil
}

// RunSettlement drives the per-run money flow.
type RunSettlement struct {
	ledger *Ledger
	run    int
	budget float64
	spent  float64
	open   bool
	// epoch, when non-nil, routes payments through the epoch pool instead
	// of paying workers directly (see OpenRunEpoch).
	epoch *EpochSettler
}

// OpenRun escrows the run's budget from the requester account.
func (l *Ledger) OpenRun(run int, budget float64) (*RunSettlement, error) {
	if _, err := l.transfer(KindEscrow, Requester, Escrow, budget, memoParts{form: memoBudget, num: int64(run)}); err != nil {
		return nil, err
	}
	return &RunSettlement{ledger: l, run: run, budget: budget, open: true}, nil
}

// Pay settles one assignment from escrow to the worker's account. Payments
// beyond the escrowed budget are rejected — the accounting form of budget
// feasibility.
func (s *RunSettlement) Pay(worker Account, amount float64, taskID string) error {
	if !s.open {
		return errors.New("ledger: settlement already closed")
	}
	if s.spent+amount > s.budget+1e-9 {
		return fmt.Errorf("ledger: run %d payment %.6f would exceed budget %.6f (spent %.6f)",
			s.run, amount, s.budget, s.spent)
	}
	memo := memoParts{form: memoPayment, num: int64(s.run), text: taskID}
	if s.epoch != nil {
		if err := s.epoch.pay(worker, amount, memo); err != nil {
			return err
		}
	} else if _, err := s.ledger.transfer(KindPayment, Escrow, worker, amount, memo); err != nil {
		return err
	}
	s.spent += amount
	return nil
}

// Close refunds the unspent escrow to the requester and seals the
// settlement.
func (s *RunSettlement) Close() error {
	if !s.open {
		return errors.New("ledger: settlement already closed")
	}
	s.open = false
	remainder := s.budget - s.spent
	if remainder <= 1e-12 {
		return nil
	}
	_, err := s.ledger.transfer(KindRefund, Escrow, Requester, remainder,
		memoParts{form: memoRefund, num: int64(s.run)})
	return err
}

// Spent returns the total paid out so far.
func (s *RunSettlement) Spent() float64 { return s.spent }
