package ledger

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"melody/internal/chunk"
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
const pinnedSeasonSHA256 = "aeab70b904247e6139979f9b27243272efc9d74ae9ed974b3b46a279fb3195c7"

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

// TestLedgerRetainedBytesPerEntry bounds the bytes a long epoch season's
// journal encodes per entry, and the heap the ledger retains per entry. Pay
// copies each task ID into the journal, so the strings the season hands it
// are not retained.
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
	n, encoded := l.journal.n, 0
	for _, c := range l.journal.Chunks {
		encoded += len(c)
	}
	perEntry := float64(after.HeapAlloc-before.HeapAlloc) / float64(n)
	t.Logf("%d entries, %.1f B encoded and %.1f B retained per entry", n, float64(encoded)/float64(n), perEntry)
	if perEncoded := float64(encoded) / float64(n); perEncoded > maxEncodedPerEntry {
		t.Errorf("journal encodes %.1f B per entry, want at most %d", perEncoded, maxEncodedPerEntry)
	}
	if perEntry > maxRetainedPerEntry {
		t.Errorf("ledger retains %.1f B per entry, want at most %d", perEntry, maxRetainedPerEntry)
	}
}

// The bounds of TestLedgerRetainedBytesPerEntry. Its season's payments each
// carry a 13–17-byte task ID of their own, so an entry encodes to about
// 26.0 B and the ledger retains about 26 B. With 48-byte records the ledger
// retained 62.4 B per entry.
const (
	maxEncodedPerEntry  = 28
	maxRetainedPerEntry = 40
)

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

// TestJournalSlackUnderOneChunk appends entries of mixed sizes one at a
// time across several chunks. After every append, no full chunk has moved
// or changed, and the unused capacity stays under one chunk plus what the
// closed chunks leave, which is less than one entry each (checkChunks) and
// under 1% of their capacity; at every new chunk and at the end the layout
// holds.
func TestJournalSlackUnderOneChunk(t *testing.T) {
	l := New()
	var full [][]byte // the closed chunks as first seen
	settler := NewEpochSettler(l, 3)
	for i := 0; len(l.journal.Chunks) < 5; i++ {
		switch i % 4 {
		case 0:
			if _, err := l.Deposit(Requester, float64(i+1), strings.Repeat("m", i%97)); err != nil {
				t.Fatal(err)
			}
		default:
			settleOneRun(t, l, settler, i, 4)
		}
		chunks := l.journal.Chunks
		for k, c := range full {
			if unsafe.SliceData(chunks[k]) != unsafe.SliceData(c) || len(chunks[k]) != len(c) || cap(chunks[k]) != cap(c) {
				t.Fatalf("after %d entries: full chunk %d was copied or changed", l.journal.n, k)
			}
		}
		if len(chunks)-1 > len(full) {
			full = append(full, chunks[len(full)])
			checkChunks(t, l)
		}
		closedSize, closedUsed := 0, 0
		for _, c := range full {
			closedSize += cap(c)
			closedUsed += len(c)
		}
		if lastFree := cap(chunks[len(chunks)-1]) - len(chunks[len(chunks)-1]); lastFree >= chunk.Full || 100*(closedSize-closedUsed) > closedSize {
			t.Fatalf("after %d entries: the last chunk has %d bytes free, and the closed ones %d of %d; want under one chunk and 1%%",
				l.journal.n, lastFree, closedSize-closedUsed, closedSize)
		}
	}
	if cap(l.journal.Chunks[0]) != chunk.Full {
		t.Errorf("the first chunk stopped doubling at %d bytes", cap(l.journal.Chunks[0]))
	}
	checkChunks(t, l)
}

// TestJournalAcrossChunks: entries, a snapshot and a restore read every
// entry across chunk boundaries in order: verbatim deposits, including
// memos longer than a chunk (the first entry, and one in mid-journal), and
// direct runs whose numbers and repeated task IDs span the boundaries. A
// restored journal keeps the chunk layout.
func TestJournalAcrossChunks(t *testing.T) {
	long := strings.Repeat("long memo ", chunk.Full/10+7)
	l := New()
	var want []Entry
	add := func(kind EntryKind, from, to Account, amount float64, memo string) {
		want = append(want, Entry{Seq: int64(len(want) + 1), Kind: kind, From: from, To: to, Amount: amount, Memo: memo})
	}
	deposit := func(amount float64, memo string) {
		t.Helper()
		if _, err := l.Deposit(Requester, amount, memo); err != nil {
			t.Fatal(err)
		}
		add(KindDeposit, "", Requester, amount, memo)
	}
	deposit(1e6, long)
	for i := 0; i < chunk.Full/8; i++ {
		deposit(float64(i+1), strconv.Itoa(i))
		if i == chunk.Full/20 {
			deposit(0.5, long+"!")
		}
		if i%5 != 0 {
			continue
		}
		run := i/5 + 1
		s, err := l.OpenRun(run, 10)
		if err != nil {
			t.Fatal(err)
		}
		prefix := "run " + strconv.Itoa(run)
		add(KindEscrow, Requester, Escrow, 10, prefix+" budget")
		for k := 0; k < 3; k++ {
			w := Account("w" + strconv.Itoa(k))
			if err := s.Pay(w, 1, "t1"); err != nil {
				t.Fatal(err)
			}
			add(KindPayment, Escrow, w, 1, prefix+" task t1")
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		add(KindRefund, Escrow, Requester, 7, prefix+" refund")
	}

	if len(l.journal.Chunks) < 4 {
		t.Fatalf("%d entries take %d chunks; the test wants at least 4", len(want), len(l.journal.Chunks))
	}
	checkChunks(t, l)
	if got := l.Entries(); !slices.Equal(got, want) {
		t.Fatal("entries differ from what was written")
	}
	if got := l.Snapshot().Entries; !slices.Equal(got, want) {
		t.Fatal("snapshot entries differ from what was written")
	}
	r := New()
	if err := r.Restore(l.Snapshot()); err != nil {
		t.Fatal(err)
	}
	checkChunks(t, r)
	if !slices.Equal(r.Entries(), want) {
		t.Fatal("restored journal's entries differ")
	}
	if len(r.journal.Chunks) != len(l.journal.Chunks) {
		t.Errorf("restored journal takes %d chunks, the original %d", len(r.journal.Chunks), len(l.journal.Chunks))
	}
}

// settleOneRun opens run on l's epoch settler, pays payments workers for
// two tasks and closes and finishes the run.
func settleOneRun(t *testing.T, l *Ledger, settler *EpochSettler, run, payments int) {
	t.Helper()
	if _, err := l.Deposit(Requester, 10, "funding"); err != nil {
		t.Fatal(err)
	}
	s, err := l.OpenRunEpoch(run, 10, settler)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < payments; k++ {
		task := "run" + strconv.Itoa(run) + "-task" + strconv.Itoa(k/2)
		if err := s.Pay(Account("worker:w"+strconv.Itoa((run+k)%7)), 0.5+float64(k)/10, task); err != nil {
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

// checkChunks verifies the journal's layout. Every chunk but the first and
// the last is full size, or holds one entry longer than that at exactly its
// size; no chunk but the last had room for the entry that opens the next,
// so each leaves less than one entry unused, and the first stopped doubling
// only for want of room; the capacity the journal counts is the chunks';
// and every chunk, copied out on its own, decodes to its run of the
// ledger's entries, its first entry carrying no state from the chunk
// before.
func checkChunks(t *testing.T, l *Ledger) {
	t.Helper()
	j := &l.journal
	entries := l.entriesLocked()
	spills := j.Sink() != nil
	var buf []byte
	size, at := 0, 0
	for i, c := range j.Chunks {
		size += cap(c)
		last := i == len(j.Chunks)-1
		if spills && (c == nil) == last {
			t.Fatalf("n=%d: chunk %d of %d is spilled %v; want every closed chunk spilled", j.n, i, len(j.Chunks), c == nil)
		}
		b := bytes.Clone(j.Read(i, 0, -1, &buf))
		var got []Entry
		var r rec
		for d := (chunkReader{c: b}); d.next(&r); {
			got = append(got, Entry{Seq: int64(at + len(got) + 1), Kind: EntryKind(l.names[r.kind]),
				From: Account(l.names[r.from]), To: Account(l.names[r.to]), Amount: r.amount, Memo: r.memo()})
		}
		// Only a closeChunk in a spilling test leaves the last chunk empty.
		if len(got) == 0 && !(spills && last) || len(b) > 0 && b[0]&sameText != 0 {
			t.Fatalf("n=%d: chunk %d of %d is empty or opens with a repeated text", j.n, i, len(j.Chunks))
		}
		if end := at + len(got); end > len(entries) || !slices.Equal(got, entries[at:end]) {
			t.Fatalf("n=%d: chunk %d of %d decoded alone differs from the ledger's entries", j.n, i, len(j.Chunks))
		}
		at += len(got)
		// Spilling tests close chunks wherever they choose, and a spilled
		// chunk's capacity is gone.
		if last || spills {
			continue
		}
		if i > 0 && cap(c) != chunk.Full && !(len(got) == 1 && len(c) == cap(c) && cap(c) > chunk.Full) {
			t.Fatalf("n=%d: chunk %d of %d holds %d entries in %d of %d bytes", j.n, i, len(j.Chunks), len(got), len(c), cap(c))
		}
		next := j.Chunks[i+1]
		d := chunkReader{c: next}
		d.next(&r)
		opener := len(next) - len(d.c)
		if cap(c)-len(c) >= opener {
			t.Fatalf("n=%d: chunk %d of %d was closed with %d bytes free, room for the next chunk's first entry of %d",
				j.n, i, len(j.Chunks), cap(c)-len(c), opener)
		}
		if i == 0 && cap(c) < chunk.Full && len(c)+opener <= chunk.Full {
			t.Fatalf("n=%d: the first chunk was closed at %d bytes, with room to double for the next entry", j.n, cap(c))
		}
	}
	if at != j.n || at != len(entries) {
		t.Fatalf("chunks decode to %d entries, journal counts %d", at, j.n)
	}
	if size != j.Size && !spills {
		t.Fatalf("chunks take %d bytes, journal counts %d", size, j.Size)
	}
}

// TestEachAmountMatchesEntries: the walk yields every entry's Seq, kind and
// amount in order, bit for bit as Entries decodes them, across chunks and
// memos longer than a chunk, and stops when asked.
func TestEachAmountMatchesEntries(t *testing.T) {
	l := New()
	settler := NewEpochSettler(l, 3)
	if _, err := l.Deposit(Requester, 1e6, strings.Repeat("long memo ", chunk.Full/10+1)); err != nil {
		t.Fatal(err)
	}
	for run := 1; len(l.journal.Chunks) < 4; run++ {
		settleOneRun(t, l, settler, run, 5)
	}
	want := l.Entries()
	i := 0
	l.EachAmount(func(seq int64, kind EntryKind, amount float64) bool {
		if i >= len(want) {
			t.Fatalf("the walk yields more than the %d entries", len(want))
		}
		e := want[i]
		if seq != e.Seq || kind != e.Kind || math.Float64bits(amount) != math.Float64bits(e.Amount) {
			t.Fatalf("entry %d: walk yields (%d, %s, %v), Entries (%d, %s, %v)", i, seq, kind, amount, e.Seq, e.Kind, e.Amount)
		}
		i++
		return true
	})
	if i != len(want) {
		t.Fatalf("the walk yields %d entries, Entries %d", i, len(want))
	}
	n := 0
	l.EachAmount(func(int64, EntryKind, float64) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("the walk went on for %d entries after fn returned false at the third", n)
	}
}
