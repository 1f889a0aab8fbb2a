package ledger

import (
	"fmt"
	"math"
	"testing"
)

func fundedLedger(t *testing.T, amount float64) *Ledger {
	t.Helper()
	l := New()
	if _, err := l.Deposit(Requester, amount, "test funding"); err != nil {
		t.Fatal(err)
	}
	return l
}

// settleRun escrows a budget, pays the given worker amounts through the
// settler's pool, refunds the remainder, and reports the run finished.
func settleRun(t *testing.T, l *Ledger, s *EpochSettler, run int, budget float64, payments map[Account]float64) bool {
	t.Helper()
	rs, err := l.OpenRunEpoch(run, budget, s)
	if err != nil {
		t.Fatalf("run %d: %v", run, err)
	}
	for w, amt := range payments {
		if err := rs.Pay(w, amt, "t1"); err != nil {
			t.Fatalf("run %d pay %s: %v", run, w, err)
		}
	}
	if err := rs.Close(); err != nil {
		t.Fatalf("run %d close: %v", run, err)
	}
	settled, err := s.RunFinished()
	if err != nil {
		t.Fatalf("run %d finished: %v", run, err)
	}
	return settled
}

// TestEpochSettlerAccrualAndPayout drives two epochs of two runs each and
// checks the core contract: payments park in the pool mid-epoch, drain
// into one aggregated payout per worker at the boundary, and every epoch
// leaves the pool at (residue-swept) zero with the total conserved.
func TestEpochSettlerAccrualAndPayout(t *testing.T) {
	l := fundedLedger(t, 400)
	s := NewEpochSettler(l, 2)
	if s.Every() != 2 {
		t.Fatalf("Every() = %d, want 2", s.Every())
	}

	// Run 1: mid-epoch — money accrues, nothing pays out.
	if settled := settleRun(t, l, s, 1, 100, map[Account]float64{"w1": 10, "w2": 5}); settled {
		t.Error("epoch settled after 1 of 2 runs")
	}
	if got := l.Balance(EpochPool); math.Abs(got-15) > 1e-9 {
		t.Errorf("pool mid-epoch = %v, want 15", got)
	}
	if got := s.Pending(); math.Abs(got-15) > 1e-9 {
		t.Errorf("Pending() = %v, want 15", got)
	}
	if got := l.Balance("w1"); got != 0 {
		t.Errorf("w1 paid mid-epoch: %v", got)
	}
	if s.Epochs() != 0 {
		t.Errorf("Epochs() = %d mid-epoch, want 0", s.Epochs())
	}

	// Run 2: boundary — the pool drains into aggregated payouts.
	if settled := settleRun(t, l, s, 2, 100, map[Account]float64{"w1": 7}); !settled {
		t.Error("epoch did not settle after 2 runs")
	}
	if got := s.Epochs(); got != 1 {
		t.Errorf("Epochs() = %d, want 1", got)
	}
	if got := l.Balance(EpochPool); math.Abs(got) > 1e-9 {
		t.Errorf("pool after settle = %v, want 0", got)
	}
	if got := l.Balance("w1"); math.Abs(got-17) > 1e-9 {
		t.Errorf("w1 = %v, want 17 (aggregated across runs)", got)
	}
	if got := l.Balance("w2"); math.Abs(got-5) > 1e-9 {
		t.Errorf("w2 = %v, want 5", got)
	}
	// Aggregation: one payout entry per worker per epoch, not per payment.
	payouts := 0
	for _, e := range l.Entries() {
		if e.Kind == KindPayout {
			payouts++
		}
	}
	if payouts != 2 {
		t.Errorf("payout entries = %d, want 2 (one per worker)", payouts)
	}

	// Conservation: balances still sum to the deposit.
	var total float64
	for _, ab := range l.Accounts() {
		total += ab.Balance
	}
	if math.Abs(total-400) > 1e-9 {
		t.Errorf("balances sum to %v, want 400", total)
	}
}

// TestEpochSettlerFlush parks one run's payments mid-epoch and checks
// Flush drains them immediately — the shutdown path — and that a Flush on
// an empty pool is a no-op that still resets the epoch position.
func TestEpochSettlerFlush(t *testing.T) {
	l := fundedLedger(t, 100)
	s := NewEpochSettler(l, 5)
	if settled := settleRun(t, l, s, 1, 50, map[Account]float64{"w1": 12}); settled {
		t.Error("epoch settled after 1 of 5 runs")
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got := l.Balance("w1"); math.Abs(got-12) > 1e-9 {
		t.Errorf("w1 after flush = %v, want 12", got)
	}
	if got := l.Balance(EpochPool); math.Abs(got) > 1e-9 {
		t.Errorf("pool after flush = %v, want 0", got)
	}
	if got := s.Epochs(); got != 1 {
		t.Errorf("Epochs() after flush = %d, want 1", got)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("empty Flush: %v", err)
	}
	if got := s.Epochs(); got != 1 {
		t.Errorf("empty Flush advanced epochs to %d", got)
	}
}

// TestEpochSettlerEveryFloor checks every <= 1 degenerates to per-run
// settlement.
func TestEpochSettlerEveryFloor(t *testing.T) {
	l := fundedLedger(t, 100)
	s := NewEpochSettler(l, 0)
	if s.Every() != 1 {
		t.Fatalf("Every() = %d, want 1", s.Every())
	}
	if settled := settleRun(t, l, s, 1, 50, map[Account]float64{"w1": 3}); !settled {
		t.Error("every=1 settler did not settle after one run")
	}
	if got := l.Balance("w1"); math.Abs(got-3) > 1e-9 {
		t.Errorf("w1 = %v, want 3", got)
	}
}

// TestOpenRunEpochValidation checks the settler/ledger binding rules.
func TestOpenRunEpochValidation(t *testing.T) {
	l := fundedLedger(t, 100)
	if _, err := l.OpenRunEpoch(1, 10, nil); err == nil {
		t.Error("nil settler accepted")
	}
	other := NewEpochSettler(New(), 2)
	if _, err := l.OpenRunEpoch(1, 10, other); err == nil {
		t.Error("settler bound to another ledger accepted")
	}
}

// TestEpochPoolExactlyZero pays 200 workers 0.75 + (k mod 7)/100 in each of
// 10 runs per epoch for 1,000 epochs. The pool's running balance and the
// per-worker sums round differently, so the pool ends some epochs a few
// ULPs short: the sweep tops it up from the requester, and the pool reads
// exactly 0 after every epoch. Without the top-up the shortfall grows until
// epoch 28's last payout fails for want of about 1e-9.
func TestEpochPoolExactlyZero(t *testing.T) {
	const workers, every, epochs = 200, 10, 1000
	accounts := make([]Account, workers)
	amounts := make([]float64, workers)
	budget := 1.0
	for k := range accounts {
		accounts[k] = Account(fmt.Sprintf("w%03d", k))
		amounts[k] = 0.75 + float64(k%7)/100
		budget += amounts[k]
	}
	l := fundedLedger(t, budget*every*epochs)
	s := NewEpochSettler(l, every)
	for run := 1; run <= every*epochs; run++ {
		rs, err := l.OpenRunEpoch(run, budget, s)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		for k, w := range accounts {
			if err := rs.Pay(w, amounts[k], "t1"); err != nil {
				t.Fatalf("run %d pay %s: %v", run, w, err)
			}
		}
		if err := rs.Close(); err != nil {
			t.Fatalf("run %d close: %v", run, err)
		}
		settled, err := s.RunFinished()
		if err != nil {
			t.Fatalf("run %d finished: %v", run, err)
		}
		if settled {
			if got := l.Balance(EpochPool); got != 0 {
				t.Fatalf("epoch %d leaves %g in the pool, want exactly 0", run/every, got)
			}
		}
	}
	topUps := 0
	for _, e := range l.Entries() {
		if e.Kind == KindRefund && e.From == Requester && e.To == EpochPool {
			topUps++
		}
	}
	if topUps == 0 {
		t.Fatal("the season never leaves the pool short; it tests nothing")
	}
	t.Logf("%d of %d epochs topped the pool up", topUps, epochs)
}

// TestEpochSettleResumesAfterFailure drains the pool so that an epoch's
// payouts fail part-way, puts the money back, and settles again: every
// worker is paid its accruals exactly once, in one payout, and the pool
// ends at 0.
func TestEpochSettleResumesAfterFailure(t *testing.T) {
	l := fundedLedger(t, 1000)
	s := NewEpochSettler(l, 2)
	accrued := make(map[Account]float64)
	for run := 1; run <= 2; run++ {
		payments := make(map[Account]float64)
		for k := 0; k < 8; k++ {
			w := Account(fmt.Sprintf("w%d", k))
			payments[w] = float64(k+1) + 0.1*float64(run)
			accrued[w] += payments[w]
		}
		rs, err := l.OpenRunEpoch(run, 100, s)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 8; k++ {
			w := Account(fmt.Sprintf("w%d", k))
			if err := rs.Pay(w, payments[w], "t1"); err != nil {
				t.Fatal(err)
			}
		}
		if err := rs.Close(); err != nil {
			t.Fatal(err)
		}
		if run == 1 {
			if _, err := s.RunFinished(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Leave the pool enough for w0–w2 only.
	short := l.Balance(EpochPool) - accrued["w0"] - accrued["w1"] - accrued["w2"] - 1
	if _, err := l.Transfer("adjustment", EpochPool, "holding", short, "drain"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunFinished(); err == nil {
		t.Fatal("settle with a drained pool succeeded")
	}
	if got := l.Balance("w2"); got != accrued["w2"] {
		t.Fatalf("w2 = %v after the failed settle, want %v", got, accrued["w2"])
	}
	if _, err := l.Transfer("adjustment", "holding", EpochPool, short, "put back"); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("settle after the money is back: %v", err)
	}
	payouts := make(map[Account]int)
	for _, e := range l.Entries() {
		if e.Kind == KindPayout {
			payouts[e.To]++
		}
	}
	for w, want := range accrued {
		if got := l.Balance(w); got != want || payouts[w] != 1 {
			t.Errorf("%s: balance %v in %d payouts, want %v in 1", w, got, payouts[w], want)
		}
	}
	if got := l.Balance(EpochPool); got != 0 {
		t.Errorf("pool = %v, want 0", got)
	}
	if s.Pending() != 0 || s.Epochs() != 1 {
		t.Errorf("pending %v, epochs %d after the settle; want 0 and 1", s.Pending(), s.Epochs())
	}
}
