package ledger

import (
	"reflect"
	"testing"
)

func TestLedgerSnapshotRoundTrip(t *testing.T) {
	l := New()
	if _, err := l.Deposit(Requester, 100, "funding"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Transfer(KindEscrow, Requester, Escrow, 30, "run 1 budget"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Transfer(KindPayment, Escrow, "worker:ada", 12, "run 1 payment"); err != nil {
		t.Fatal(err)
	}

	snap := l.Snapshot()
	restored := New()
	// Pre-restore state — e.g. the boot-time season deposit a recovering
	// process repeats before loading the snapshot — must be discarded, or
	// the requester would be double-funded.
	if _, err := restored.Deposit(Requester, 100, "boot funding"); err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}

	for _, acc := range l.Accounts() {
		if got := restored.Balance(acc.Account); got != acc.Balance {
			t.Errorf("account %s: restored balance %v, want %v", acc.Account, got, acc.Balance)
		}
	}
	liveEntries := l.Entries()
	gotEntries := restored.Entries()
	if len(gotEntries) != len(liveEntries) {
		t.Fatalf("restored %d entries, want %d", len(gotEntries), len(liveEntries))
	}
	for i := range liveEntries {
		if gotEntries[i] != liveEntries[i] {
			t.Errorf("entry %d: restored %+v, want %+v", i, gotEntries[i], liveEntries[i])
		}
	}

	// Sequence numbering continues from the snapshot, not from the discarded
	// pre-restore history.
	seq, err := restored.Deposit(Requester, 1, "post-restore")
	if err != nil {
		t.Fatal(err)
	}
	wantSeq := liveEntries[len(liveEntries)-1].Seq + 1
	if seq != wantSeq {
		t.Errorf("post-restore seq = %d, want %d", seq, wantSeq)
	}
}

func TestLedgerRestoreValidation(t *testing.T) {
	l := New()
	if err := l.Restore(nil); err == nil {
		t.Error("nil snapshot accepted")
	}
	if _, err := l.Deposit(Requester, 50, "funding"); err != nil {
		t.Fatal(err)
	}
	want := l.Snapshot()
	entry := func(seq int64) Entry {
		return Entry{Seq: seq, Kind: KindDeposit, To: Requester, Amount: 1, Memo: "m"}
	}
	// An entry's Seq is its position, so a snapshot numbered any other way
	// than 1…n with Seq = n is rejected, leaving the ledger as it was.
	for name, snap := range map[string]*Snapshot{
		"seq past entries":    {Entries: []Entry{entry(1)}, Seq: 2},
		"seq without entries": {Seq: 3},
		"gap":                 {Entries: []Entry{entry(1), entry(3)}, Seq: 3},
		"starts at 2":         {Entries: []Entry{entry(2)}, Seq: 1},
		"repeated":            {Entries: []Entry{entry(1), entry(1)}, Seq: 2},
	} {
		if err := l.Restore(snap); err == nil {
			t.Errorf("%s: snapshot accepted", name)
		}
		if got := l.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: rejected restore changed the ledger to %+v", name, got)
		}
	}
}

// TestMemoRoundTrip: a restored entry's memo formats back to the text it
// was restored from, whether or not it reads like a settlement memo. Each
// memo is restored twice in a row, and then once more after a memo of
// another number or form with the same text, so the journal's repeated
// text is read back in every case.
func TestMemoRoundTrip(t *testing.T) {
	var memos []string
	for _, memo := range []string{
		"", "funding", "run 3 budget", "run 3 task t1", "run 3 task ", "run 3 task a task b",
		"run 3 refund", "epoch 12 payout", "epoch 12 rounding residue", "run -4 budget",
		"run 03 budget", "run +3 budget", "run -0 refund", "run 3 budget ", "run 3 budget budget",
		"run  3 refund", "run 3 payout", "epoch 1 task t", "run 99999999999999999999 budget",
		"run 4 task t1", "epoch 4 payout", "t1", "run 3 task t1",
	} {
		memos = append(memos, memo, memo)
	}
	snap := &Snapshot{Seq: int64(len(memos))}
	for i, memo := range memos {
		snap.Entries = append(snap.Entries, Entry{Seq: int64(i + 1), Kind: KindDeposit, To: Requester, Amount: 1, Memo: memo})
	}
	l := New()
	if err := l.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for i, e := range l.Entries() {
		if e.Memo != memos[i] {
			t.Errorf("memo %q formats back as %q", memos[i], e.Memo)
		}
	}
}

func TestLedgerSnapshotIsDeepCopy(t *testing.T) {
	l := New()
	if _, err := l.Deposit(Requester, 50, "funding"); err != nil {
		t.Fatal(err)
	}
	snap := l.Snapshot()
	// Mutating the live ledger after the snapshot must not leak into it.
	if _, err := l.Deposit(Requester, 999, "later"); err != nil {
		t.Fatal(err)
	}
	if snap.Balances[Requester] != 50 {
		t.Errorf("snapshot balance mutated to %v", snap.Balances[Requester])
	}
	if len(snap.Entries) != 1 {
		t.Errorf("snapshot entries mutated: %d", len(snap.Entries))
	}
}
