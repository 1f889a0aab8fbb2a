package ledger

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"melody/internal/chunk"
	"melody/internal/chunk/chunktest"
)

// FuzzJournal turns the fuzz bytes into a sequence of deposits, transfers,
// direct and epoch runs, epoch settles and snapshot restores, and keeps a
// model beside the ledger: the entries each operation should write, as a
// plain []Entry, and the balances they leave. Memos and task IDs include
// empty ones, settlement-shaped ones written verbatim, ones longer than a
// chunk and invalid UTF-8. Every operation must succeed or fail as the
// model says; at the end Entries() and the balances must equal the model's,
// the journal's layout must hold (checkChunks), and Restore(Snapshot())
// must snapshot to the same bytes and continue the sequence. A restore
// operation carries on with the restored ledger and settler.
//
// Each operation is a byte (mod 6) followed by its arguments:
//
//	0 deposit   account, amount, memo
//	1 transfer  kind, from, to, amount, memo
//	2 run       budget, payments (mod 4), then worker, amount, task each
//	3 epoch run as 2, paid through the settler's pool
//	4 flush
//	5 restore
//
// Each input runs twice: on ledgers that keep their journal in the heap,
// and on ledgers whose journals spill closed chunks to a sink, where an
// operation byte of 128 or more also closes the open chunk before the
// operation, so chunks close wherever the input chooses. Restored ledgers
// spill too, and every read goes through the spilled chunks.
func FuzzJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			return
		}
		fuzzJournal(t, ops, false)
		fuzzJournal(t, ops, true)
	})
}

// fuzzJournal is FuzzJournal on one kind of ledger.
func fuzzJournal(t *testing.T, ops []byte, spill bool) {
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	amount := func() float64 { return float64(next())/8 + 0.01 }
	newLedger := New
	if spill {
		newLedger = newSpillingLedger
	}

	const every = 3
	l := newLedger()
	settler := NewEpochSettler(l, every)
	m := &journalModel{balances: make(map[Account]float64), pending: make(map[Account]float64)}
	run := 0
	for len(ops) > 0 {
		b := next()
		if spill && b >= 128 {
			l.journal.closeChunk()
		}
		switch op := b % 6; op {
		case 0:
			to, a, memo := fuzzAccounts[next()%len(fuzzAccounts)], amount(), fuzzMemos[next()%len(fuzzMemos)]
			if _, err := l.Deposit(to, a, memo); err != nil {
				t.Fatal(err)
			}
			m.write(KindDeposit, "", to, a, memo)
		case 1:
			kind := fuzzKinds[next()%len(fuzzKinds)]
			from, to := fuzzAccounts[next()%len(fuzzAccounts)], fuzzAccounts[next()%len(fuzzAccounts)]
			a, memo := amount(), fuzzMemos[next()%len(fuzzMemos)]
			_, err := l.Transfer(kind, from, to, a, memo)
			m.agree(t, "transfer", m.transfer(kind, from, to, a, memo), err)
		case 2, 3:
			run++
			prefix := "run " + strconv.Itoa(run)
			budget := 4 * amount()
			var s *RunSettlement
			var err error
			if op == 3 {
				s, err = l.OpenRunEpoch(run, budget, settler)
			} else {
				s, err = l.OpenRun(run, budget)
			}
			if !m.agree(t, "open", m.transfer(KindEscrow, Requester, Escrow, budget, prefix+" budget"), err) {
				continue
			}
			spent := 0.0
			for k := next() % 4; k > 0; k-- {
				w, a, task := fuzzWorkers[next()%len(fuzzWorkers)], amount(), fuzzMemos[next()%len(fuzzMemos)]
				err := s.Pay(w, a, task)
				ok := false
				switch {
				case spent+a > budget+1e-9:
				case op == 3:
					if ok = m.transfer(KindPayment, Escrow, EpochPool, a, prefix+" task "+task); ok {
						m.pending[w] += a
					}
				default:
					ok = m.transfer(KindPayment, Escrow, w, a, prefix+" task "+task)
				}
				if m.agree(t, "pay", ok, err) {
					spent += a
				}
			}
			ok := true
			if rest := budget - spent; rest > 1e-12 {
				ok = m.transfer(KindRefund, Escrow, Requester, rest, prefix+" refund")
			}
			m.agree(t, "close", ok, s.Close())
			if op == 3 {
				settled, err := settler.RunFinished()
				m.runs++
				want := m.runs >= every
				if settled != want {
					t.Fatalf("run %d: settled %v, want %v", run, settled, want)
				}
				if want {
					m.agree(t, "settle", m.settle(), err)
				} else if err != nil {
					t.Fatalf("run %d finished: %v", run, err)
				}
			}
		case 4:
			ok := true
			if len(m.pending) == 0 {
				m.runs = 0
			} else {
				ok = m.settle()
			}
			m.agree(t, "flush", ok, settler.Flush())
		case 5:
			l, settler = restoreFuzzed(t, newLedger, l, settler, every)
		}
	}

	if got := l.Entries(); !slices.Equal(got, m.entries) {
		t.Fatalf("entries differ from the model:\n got %+v\nwant %+v", got, m.entries)
	}
	if got := l.Snapshot().Balances; !reflect.DeepEqual(got, m.balances) && (len(got) != 0 || len(m.balances) != 0) {
		t.Fatalf("balances %v, model %v", got, m.balances)
	}
	checkChunks(t, l)
	checkEachAmount(t, l, m.entries)
	l, _ = restoreFuzzed(t, newLedger, l, settler, every)
	seq, err := l.Deposit(Requester, 1, "after restore")
	if err != nil {
		t.Fatal(err)
	}
	m.write(KindDeposit, "", Requester, 1, "after restore")
	if seq != int64(len(m.entries)) || !slices.Equal(l.Entries(), m.entries) {
		t.Fatalf("restored ledger continues at %d with other entries than the model's %d", seq, len(m.entries))
	}
}

var (
	fuzzAccounts = []Account{Requester, Escrow, EpochPool, "ops", "worker:w0", "worker:w1"}
	fuzzWorkers  = []Account{"worker:w0", "worker:w1", "worker:w2", "worker:w3"}
	fuzzKinds    = []EntryKind{KindDeposit, KindEscrow, KindPayment, KindRefund, KindPayout, "adjustment"}
	fuzzMemos    = []string{
		"", "t1", "funding", "run 07 budget", "run 3 budget", "run 5 task t1", "epoch 2 payout",
		"epoch 9 rounding residue", "a task id with spaces", "\xff\xfe not utf-8", "run 4 task \xc3\x28",
		strings.Repeat("long memo ", chunk.Full/10+1),
	}
)

// newSpillingLedger returns an empty ledger whose journal spills closed
// chunks to memory.
func newSpillingLedger() *Ledger {
	l := New()
	l.SpillTo(chunk.NewSink(new(chunktest.File), nil))
	return l
}

// closeChunk closes the journal's open chunk, spilling it, as if the next
// entry did not fit: the next entry opens a chunk and is encoded in full.
func (j *journal) closeChunk() {
	if last := len(j.Chunks) - 1; last >= 0 && len(j.Chunks[last]) > 0 {
		j.Open(0)
		j.num, j.textAt, j.textLen = 0, 0, 0
	}
}

// checkEachAmount fails unless EachAmount yields want's Seq, kind and
// amount in order.
func checkEachAmount(t *testing.T, l *Ledger, want []Entry) {
	t.Helper()
	i := 0
	l.EachAmount(func(seq int64, kind EntryKind, amount float64) bool {
		if i >= len(want) || seq != want[i].Seq || kind != want[i].Kind || amount != want[i].Amount {
			t.Fatalf("EachAmount yields %d %s %v at entry %d", seq, kind, amount, i)
		}
		i++
		return true
	})
	if i != len(want) {
		t.Fatalf("EachAmount yields %d entries, want %d", i, len(want))
	}
}

// restoreFuzzed restores l's snapshot into a ledger newLedger makes and
// settler's state into a settler on it, and checks that the restored
// ledger snapshots to the same bytes.
func restoreFuzzed(t *testing.T, newLedger func() *Ledger, l *Ledger, settler *EpochSettler, every int) (*Ledger, *EpochSettler) {
	t.Helper()
	snap := l.Snapshot()
	want, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	r := newLedger()
	if err := r.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := snapshotJSON(t, r); string(got) != string(want) {
		t.Fatalf("restored ledger snapshots to other bytes:\n got %s\nwant %s", got, want)
	}
	rs := NewEpochSettler(r, every)
	if err := rs.Restore(settler.State()); err != nil {
		t.Fatal(err)
	}
	return r, rs
}

// journalModel is what a ledger and its epoch settler should hold: the
// entries written, the balances they leave, and the settler's accruals,
// finished runs and epochs.
type journalModel struct {
	entries      []Entry
	balances     map[Account]float64
	pending      map[Account]float64
	runs, epochs int
}

func (m *journalModel) write(kind EntryKind, from, to Account, amount float64, memo string) {
	if from != "" {
		m.balances[from] -= amount
	}
	m.balances[to] += amount
	m.entries = append(m.entries, Entry{Seq: int64(len(m.entries) + 1), Kind: kind, From: from, To: to, Amount: amount, Memo: memo})
}

// transfer writes the transfer if the ledger would accept it, and reports
// whether it would.
func (m *journalModel) transfer(kind EntryKind, from, to Account, amount float64, memo string) bool {
	if from == to || m.balances[from] < amount-1e-9 {
		return false
	}
	m.write(kind, from, to, amount, memo)
	return true
}

// settle pays each worker's accruals out of the pool in sorted order and
// sweeps the residue, as EpochSettler does, and reports whether it
// succeeded.
func (m *journalModel) settle() bool {
	epoch := strconv.Itoa(m.epochs + 1)
	workers := make([]Account, 0, len(m.pending))
	for w := range m.pending {
		workers = append(workers, w)
	}
	sort.Slice(workers, func(i, j int) bool { return workers[i] < workers[j] })
	for _, w := range workers {
		if a := m.pending[w]; a > 0 && !m.transfer(KindPayout, EpochPool, w, a, "epoch "+epoch+" payout") {
			return false
		}
		delete(m.pending, w)
	}
	residue := m.balances[EpochPool]
	memo := "epoch " + epoch + " rounding residue"
	switch {
	case math.Abs(residue) > 1e-6:
		return false
	case residue > 0 && !m.transfer(KindRefund, EpochPool, Requester, residue, memo):
		return false
	case residue < 0 && !m.transfer(KindRefund, Requester, EpochPool, -residue, memo):
		return false
	}
	m.runs = 0
	m.epochs++
	return true
}

// agree fails the test unless the ledger's error matches the model's
// verdict, and returns the verdict.
func (m *journalModel) agree(t *testing.T, op string, ok bool, err error) bool {
	t.Helper()
	if ok != (err == nil) {
		t.Fatalf("entry %d: %s: model accepts %v, ledger returns %v", len(m.entries), op, ok, err)
	}
	return ok
}
