package ledger

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"melody/internal/stats"
)

// pinSeason drives a seeded season through every way an entry is written:
// verbatim deposits and transfers (one with a kind of its own and one whose
// memo reads like a settlement memo), direct runs, epoch runs, epoch
// payouts, residue sweeps and a closing flush.
func pinSeason(t *testing.T) *Ledger {
	t.Helper()
	r := stats.NewRNG(1)
	l := New()
	if _, err := l.Deposit(Requester, 50_000, "season funding"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Transfer("adjustment", Requester, "ops", 12.5, "run 07 budget"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Deposit("ops", 1, ""); err != nil {
		t.Fatal(err)
	}
	settler := NewEpochSettler(l, 3)
	for run := 1; run <= 30; run++ {
		budget := r.Uniform(50, 400)
		var s *RunSettlement
		var err error
		direct := run%4 == 0
		if direct {
			s, err = l.OpenRun(run, budget)
		} else {
			s, err = l.OpenRunEpoch(run, budget, settler)
		}
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		spent := 0.0
		for k := 0; k < 1+r.Intn(8); k++ {
			amount := r.Uniform(0.1, 30)
			if spent+amount > budget {
				break
			}
			worker := Account(fmt.Sprintf("worker:w%d", r.Intn(6)))
			task := fmt.Sprintf("run%d-task%d", run, k)
			if k == 3 {
				task = "a task id with spaces"
			}
			if err := s.Pay(worker, amount, task); err != nil {
				t.Fatalf("run %d pay: %v", run, err)
			}
			spent += amount
		}
		if err := s.Close(); err != nil {
			t.Fatalf("run %d close: %v", run, err)
		}
		if !direct {
			if _, err := settler.RunFinished(); err != nil {
				t.Fatalf("run %d finished: %v", run, err)
			}
		}
	}
	if settler.Pending() == 0 {
		t.Fatal("season leaves nothing for Flush to settle")
	}
	if err := settler.Flush(); err != nil {
		t.Fatal(err)
	}
	return l
}

// pinnedSeasonSHA256 is the SHA-256 of the JSON snapshot of pinSeason's
// ledger: every balance and every entry's sequence number, kind, accounts,
// amount and memo text.
const pinnedSeasonSHA256 = "1e155adbde0ce87debb48117cf0244de9ca3b38d01c3c60b454c56c5e751cb28"

func snapshotJSON(t *testing.T, l *Ledger) []byte {
	t.Helper()
	b, err := json.Marshal(l.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLedgerAuditTrailPin pins the audit trail and snapshot of a seeded
// season byte for byte, and checks that a restored ledger snapshots to the
// same bytes and continues the sequence.
func TestLedgerAuditTrailPin(t *testing.T) {
	l := pinSeason(t)
	entries := l.Entries()
	for _, memo := range []string{"run 07 budget", "run 4 task run4-task0", "run 1 refund", "epoch 1 payout", "rounding residue"} {
		found := false
		for _, e := range entries {
			found = found || strings.Contains(e.Memo, memo)
		}
		if !found {
			t.Errorf("season writes no entry with memo %q", memo)
		}
	}
	snap := snapshotJSON(t, l)
	sum := sha256.Sum256(snap)
	if got := hex.EncodeToString(sum[:]); got != pinnedSeasonSHA256 {
		t.Errorf("snapshot SHA-256 = %s, want %s", got, pinnedSeasonSHA256)
	}

	restored := New()
	if err := restored.Restore(l.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if got := snapshotJSON(t, restored); string(got) != string(snap) {
		t.Errorf("restored snapshot differs:\n got %s\nwant %s", got, snap)
	}
	seq, err := restored.Deposit(Requester, 1, "post-restore")
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(entries)) + 1; seq != want {
		t.Errorf("post-restore seq = %d, want %d", seq, want)
	}
}

// TestLedgerRetainedBytesPerEntry bounds the heap a long epoch season
// retains per ledger entry, counting the task-ID strings the season hands to
// Pay as a platform's outcomes would.
func TestLedgerRetainedBytesPerEntry(t *testing.T) {
	const runs, payments, epochEvery = 1000, 200, 10
	workers := make([]Account, payments)
	for k := range workers {
		workers[k] = Account("worker:w" + strconv.Itoa(k))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	l := New()
	if _, err := l.Deposit(Requester, runs*payments, "season funding"); err != nil {
		t.Fatal(err)
	}
	settler := NewEpochSettler(l, epochEvery)
	r := stats.NewRNG(7)
	for run := 1; run <= runs; run++ {
		s, err := l.OpenRunEpoch(run, payments, settler)
		if err != nil {
			t.Fatal(err)
		}
		for k, w := range workers {
			task := "run" + strconv.Itoa(run) + "-task" + strconv.Itoa(k)
			if err := s.Pay(w, r.Uniform(0.5, 0.99), task); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := settler.RunFinished(); err != nil {
			t.Fatal(err)
		}
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	if size := unsafe.Sizeof(record{}); size > 48 {
		t.Errorf("journal record is %d B, want at most 48", size)
	}
	n := len(l.Entries())
	perEntry := float64(after.HeapAlloc-before.HeapAlloc) / float64(n)
	t.Logf("%d entries, %.1f B retained per entry", n, perEntry)
	if perEntry > 80 {
		t.Errorf("ledger retains %.1f B per entry, want at most 80", perEntry)
	}
}

// TestSettlementAllocs: opening, paying and closing a run allocates only the
// settlement handle.
func TestSettlementAllocs(t *testing.T) {
	l := fundedLedger(t, 1e9)
	settler := NewEpochSettler(l, 1<<30)
	run := 0
	allocs := testing.AllocsPerRun(1000, func() {
		run++
		s, err := l.OpenRunEpoch(run, 10, settler)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Pay("worker:w1", 4, "task-1"); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("OpenRunEpoch+Pay+Close = %v allocs, want at most 1", allocs)
	}
}

// TestJournalSlackUnderOneChunk: the journal's allocated capacity exceeds
// its length by less than one chunk, and every chunk but the last is full
// at exactly chunkRecords. The counts sit on both sides of every growth
// step that one append-grown []record takes up to 250,000 records, the
// layout the chunks replaced, which past a few thousand records leaves
// more than a chunk unused after each step.
func TestJournalSlackUnderOneChunk(t *testing.T) {
	var counts []int
	var grown []record
	oldSlack := 0
	for len(grown) < 250_000 {
		if len(grown) > 0 && len(grown) == cap(grown) {
			counts = append(counts, len(grown), len(grown)+1)
		}
		grown = append(grown, record{})
		oldSlack = max(oldSlack, cap(grown)-len(grown))
	}
	if oldSlack < chunkRecords {
		t.Fatalf("an append-grown journal leaves at most %d records unused; the counts test nothing", oldSlack)
	}
	grown = nil

	l := New()
	for _, want := range counts {
		for l.journal.n < want {
			if _, err := l.Deposit(Requester, 1, ""); err != nil {
				t.Fatal(err)
			}
		}
		checkChunks(t, &l.journal)
	}
}

// TestJournalAcrossChunks: entries, a snapshot and a restore read records
// across chunk boundaries in order, and a restored journal keeps the chunk
// layout.
func TestJournalAcrossChunks(t *testing.T) {
	const n = 3*chunkRecords + 5
	l := New()
	for i := 0; i < n; i++ {
		if _, err := l.Deposit(Requester, float64(i+1), strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	checkChunks(t, &l.journal)
	entries := l.Entries()
	if len(entries) != n {
		t.Fatalf("%d entries, want %d", len(entries), n)
	}
	for i, e := range entries {
		if e.Seq != int64(i+1) || e.Amount != float64(i+1) || e.Memo != strconv.Itoa(i) {
			t.Fatalf("entry %d = %+v", i, e)
		}
	}
	r := New()
	if err := r.Restore(l.Snapshot()); err != nil {
		t.Fatal(err)
	}
	checkChunks(t, &r.journal)
	if !slices.Equal(r.Entries(), entries) {
		t.Fatal("restored journal's entries differ")
	}
}

// checkChunks verifies the journal's layout: full chunks before the last,
// record count n, and under one chunk of unused capacity.
func checkChunks(t *testing.T, j *journal) {
	t.Helper()
	capacity, records := 0, 0
	for i, c := range j.chunks {
		if i < len(j.chunks)-1 && (len(c) != chunkRecords || cap(c) != chunkRecords) {
			t.Fatalf("n=%d: chunk %d of %d holds %d records at capacity %d, want %d at %d",
				j.n, i, len(j.chunks), len(c), cap(c), chunkRecords, chunkRecords)
		}
		capacity += cap(c)
		records += len(c)
	}
	if records != j.n {
		t.Fatalf("chunks hold %d records, journal counts %d", records, j.n)
	}
	if slack := capacity - j.n; slack >= chunkRecords {
		t.Errorf("n=%d: %d records of capacity unused, want under one chunk (%d)", j.n, slack, chunkRecords)
	}
}
