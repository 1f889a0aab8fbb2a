package verify

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"melody/internal/ledger"
)

// TestMoneyConservationCatchesBadAmounts: an entry whose amount is not
// positive and finite fails the check by its Seq, even when the balances
// add up. Only a restored snapshot can carry one.
func TestMoneyConservationCatchesBadAmounts(t *testing.T) {
	for _, bad := range []float64{-5, 0, math.Inf(1), math.NaN()} {
		snap := &ledger.Snapshot{
			Seq:      2,
			Balances: map[ledger.Account]float64{ledger.Requester: 100},
			Entries: []ledger.Entry{
				{Seq: 1, Kind: ledger.KindDeposit, To: ledger.Requester, Amount: 100, Memo: "fund"},
				{Seq: 2, Kind: ledger.KindRefund, From: ledger.Escrow, To: ledger.Requester, Amount: bad, Memo: "run 1 refund"},
			},
		}
		l := ledger.New()
		if err := l.Restore(snap); err != nil {
			t.Fatal(err)
		}
		err := CheckMoneyConservation(l)
		if err == nil || !strings.Contains(err.Error(), "entry 2 ") {
			t.Errorf("amount %v: check = %v, want entry 2 refused", bad, err)
		}
	}
}

// TestMoneyConservationAllocs: the check walks the journal without
// decoding entries or memos, so its allocations do not grow with the
// ledger: on about 120,000 entries it allocates only for Accounts' sorted
// list, 4 allocations (decoding every entry took about one per entry).
func TestMoneyConservationAllocs(t *testing.T) {
	l := ledger.New()
	const runs = 20000
	if _, err := l.Deposit(ledger.Requester, 10*runs, "season funding"); err != nil {
		t.Fatal(err)
	}
	for run := 1; run <= runs; run++ {
		s, err := l.OpenRun(run, 10)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 4; k++ {
			w := ledger.Account("worker:w" + strconv.Itoa((run+k)%16))
			if err := s.Pay(w, 1.5, "run"+strconv.Itoa(run)+"-task"+strconv.Itoa(k/2)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if entries, _ := l.JournalSize(); entries < 100000 {
		t.Fatalf("the ledger holds %d entries; the test wants at least 100,000", entries)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if err := CheckMoneyConservation(l); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("CheckMoneyConservation = %v allocs, want at most 4", allocs)
	}
}
