package eventlog

// Tests for the group-commit pipeline: concurrent appends coalesce into
// shared fsyncs without changing the on-disk format, failure semantics are
// uniform across the write/flush/fsync branches (sticky ErrFailed), and a
// steady-state append allocates nothing.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingTarget is an in-memory commitTarget with injectable faults and
// an optional per-fsync delay (to model real disk latency).
type countingTarget struct {
	syncDelay time.Duration

	mu        sync.Mutex
	data      []byte
	writes    int
	syncs     int
	failWrite error
	failSync  error
}

func (t *countingTarget) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.failWrite != nil {
		return 0, t.failWrite
	}
	t.writes++
	t.data = append(t.data, p...)
	return len(p), nil
}

func (t *countingTarget) Sync() error {
	if t.syncDelay > 0 {
		time.Sleep(t.syncDelay)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.failSync != nil {
		return t.failSync
	}
	t.syncs++
	return nil
}

func (t *countingTarget) Close() error { return nil }

func (t *countingTarget) stats() (writes, syncs int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.writes, t.syncs
}

func TestConcurrentAppendsGroupCommit(t *testing.T) {
	const goroutines, perG = 16, 25
	path := tempLog(t)
	log, err := Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var failures atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				worker := fmt.Sprintf("w%d-%d", g, i)
				if _, err := log.Append(Event{Kind: KindRegister, Worker: worker}); err != nil {
					failures.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d concurrent appends failed", n)
	}
	if got := log.Seq(); got != goroutines*perG {
		t.Errorf("Seq = %d, want %d", got, goroutines*perG)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// The existing replay machinery (JSON lines, contiguous sequence, CRC
	// verification) must accept the group-committed log unchanged.
	events, err := ReadAll(path)
	if err != nil {
		t.Fatalf("replay of group-committed log: %v", err)
	}
	if len(events) != goroutines*perG {
		t.Fatalf("replayed %d events, want %d", len(events), goroutines*perG)
	}
	for i, e := range events {
		if e.Seq != int64(i+1) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
}

// TestGroupCommitCoalescesFsyncs pins the point of the pipeline: far fewer
// fsyncs than appends under concurrency.
func TestGroupCommitCoalescesFsyncs(t *testing.T) {
	const appends = 200
	// A 1ms fsync models disk latency; while one commit is in flight, the
	// other appenders accumulate into the next batch.
	target := &countingTarget{syncDelay: time.Millisecond}
	log := newLog(target, 0, Options{SyncEveryAppend: true})
	var wg sync.WaitGroup
	for i := 0; i < appends; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := log.Append(Event{Kind: KindRegister, Worker: fmt.Sprintf("w%d", i)}); err != nil {
				t.Errorf("append %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	_, syncs := target.stats()
	if syncs >= appends {
		t.Errorf("group commit issued %d fsyncs for %d appends; expected coalescing", syncs, appends)
	}
	if syncs == 0 {
		t.Error("no fsync ever issued on a durable log")
	}
}

// TestAppendFormatByteIdentical verifies that the pipeline's encoder emits
// exactly json.Marshal(event) + '\n' with the CRC populated — the format
// the seed's serial path wrote and the replay corpus depends on — for
// single-run events, run- and tenant-tagged ones, and a full tenant policy.
func TestAppendFormatByteIdentical(t *testing.T) {
	events := []Event{
		{Kind: KindRegister, Worker: "w1"},
		{Kind: KindOpenRun, Tasks: []TaskRecord{{ID: "t<&>", Threshold: 5}}, Budget: 10},
		{Kind: KindBid, Worker: "w1", Cost: 1.5, Frequency: 2},
		{Kind: KindClose},
		{Kind: KindScore, Worker: "w1", Task: "t<&>", Score: 7},
		{Kind: KindFinish},
		{Kind: KindTenantPolicy, Tenant: "tenant0",
			Policy: &PolicyRecord{BudgetQuota: -1, EpochBudgetQuota: 2.5e9, MaxRuns: 7, Weight: 0.5}},
		{Kind: KindOpenRun, Run: "t0-r000001", Tenant: "tenant0", Budget: 1e-7,
			Tasks: []TaskRecord{{ID: "t0-r000001-k0", Threshold: 5}, {ID: "k<&>", Threshold: 1e21}}},
		{Kind: KindBid, Run: "t0-r000001", Worker: "t0-w0001", Cost: 1.37, Frequency: 3},
		{Kind: KindClose, Run: "t0-r000001"},
		{Kind: KindScore, Run: "t0-r000001", Worker: "t0-w0001", Task: "t0-r000001-k0", Score: 6.5},
		{Kind: KindFinish, Run: "t0-r000001"},
	}
	var want []byte
	for i, e := range events {
		e.Seq = int64(i + 1)
		want = append(want, mustLine(t, e)...)
	}

	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"group", Options{SyncEveryAppend: true}},
		{"buffered", Options{}},
	} {
		target := &countingTarget{}
		log := newLog(target, 0, mode.opts)
		for _, e := range events {
			if _, err := log.Append(e); err != nil {
				t.Fatalf("%s: %v", mode.name, err)
			}
		}
		if err := log.Close(); err != nil {
			t.Fatalf("%s: close: %v", mode.name, err)
		}
		if string(target.data) != string(want) {
			t.Errorf("%s mode bytes differ from canonical format:\n got %q\nwant %q",
				mode.name, target.data, want)
		}
	}
}

// zeroCRCEvent returns a register event whose canonical encoding has CRC
// 0, by solving for the last four bytes of its worker ID. For a fixed
// length, CRC-32 is affine over GF(2) in the message bits: with the four
// bytes read as the 32 bits of x, the checksum is crc(0) ^ M·x. A solution
// is kept once all four bytes are ones the encoder writes unescaped.
func zeroCRCEvent(t *testing.T) Event {
	t.Helper()
	escaped := func(c byte) bool { return c < ' ' || c >= 0x7f || strings.IndexByte(`"\<>&`, c) >= 0 }
	quad := func(x uint32) []byte { return []byte{byte(x), byte(x >> 8), byte(x >> 16), byte(x >> 24)} }
	for n := 0; n < 10000; n++ {
		worker := func(x uint32) string { return fmt.Sprintf("w%d-%s", n, quad(x)) }
		crc := func(x uint32) uint32 {
			return crc32.ChecksumIEEE([]byte(`{"seq":1,"kind":"register","worker":"` + worker(x) + `"}`))
		}
		c0 := crc(0)
		// basis[b] is a combination of columns (which ones: combo[b]) whose
		// highest set bit is b.
		var basis, combo [32]uint32
		for j := 0; j < 32; j++ {
			v, m := crc(1<<j)^c0, uint32(1)<<j
			for b := 31; b >= 0 && v != 0; b-- {
				if v>>b&1 == 0 {
					continue
				}
				if basis[b] == 0 {
					basis[b], combo[b] = v, m
					break
				}
				v, m = v^basis[b], m^combo[b]
			}
		}
		x, rest := uint32(0), c0
		for b := 31; b >= 0; b-- {
			if rest>>b&1 == 1 && basis[b] != 0 {
				rest, x = rest^basis[b], x^combo[b]
			}
		}
		if rest != 0 || slices.ContainsFunc(quad(x), escaped) {
			continue
		}
		e := Event{Seq: 1, Kind: KindRegister, Worker: worker(x)}
		if sum, err := e.checksum(); err != nil || sum != 0 {
			t.Fatalf("solved worker %q gives CRC %d (%v), want 0", e.Worker, sum, err)
		}
		return e
	}
	t.Fatal("no worker ID with a zero CRC found")
	return Event{}
}

// TestAppendZeroCRCRecord covers the one record with no crc member: when
// the canonical encoding's CRC is 0, the encoder omits it like any empty
// omitempty field, so the record is the canonical encoding as it is, and
// recovery reads it back as an unchecksummed record.
func TestAppendZeroCRCRecord(t *testing.T) {
	e := zeroCRCEvent(t)
	want, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if got := encodeRecords(t, 0, e); !bytes.Equal(got, want) {
		t.Errorf("zero-CRC record %q, want %q", got, want)
	}
	got, err := decodeAll(want)
	if err != nil || len(got) != 1 || !reflect.DeepEqual(got[0], e) {
		t.Errorf("zero-CRC record read back as %+v, %v; want %+v", got, err, e)
	}
}

// TestAppendFailureSemantics pins the uniform error contract: any write or
// fsync failure poisons the log — the failing append reports it, every
// later append returns ErrFailed, and the sequence number is not reused
// (the record may be partially on disk; only a reopen re-establishes a
// clean tail).
func TestAppendFailureSemantics(t *testing.T) {
	cases := []struct {
		name   string
		opts   Options
		inject func(*countingTarget)
	}{
		{"group/write", Options{SyncEveryAppend: true},
			func(ct *countingTarget) { ct.failWrite = errors.New("disk gone") }},
		{"group/fsync", Options{SyncEveryAppend: true},
			func(ct *countingTarget) { ct.failSync = errors.New("fsync eio") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			target := &countingTarget{}
			log := newLog(target, 0, tc.opts)
			if _, err := log.Append(Event{Kind: KindRegister, Worker: "ok"}); err != nil {
				t.Fatal(err)
			}
			tc.inject(target)
			target.mu.Lock()
			target.mu.Unlock()
			if _, err := log.Append(Event{Kind: KindRegister, Worker: "boom"}); !errors.Is(err, ErrFailed) {
				t.Fatalf("failing append error = %v, want ErrFailed", err)
			}
			seqAfterFailure := log.Seq()
			if seqAfterFailure != 2 {
				t.Errorf("failed append's seq was rolled back to %d; the record may be on disk", seqAfterFailure)
			}
			if _, err := log.Append(Event{Kind: KindRegister, Worker: "after"}); !errors.Is(err, ErrFailed) {
				t.Errorf("append after failure error = %v, want sticky ErrFailed", err)
			}
			if got := log.Seq(); got != seqAfterFailure {
				t.Errorf("poisoned log advanced seq to %d", got)
			}
			if err := log.Close(); !errors.Is(err, ErrFailed) {
				t.Errorf("Close of failed log = %v, want ErrFailed", err)
			}
		})
	}
}

// TestBufferedWriteFailurePoisons covers the non-durable branch of the same
// contract.
func TestBufferedWriteFailurePoisons(t *testing.T) {
	target := &countingTarget{failWrite: errors.New("disk gone")}
	log := newLog(target, 0, Options{})
	// bufio absorbs small writes; fill past its buffer to force the fault.
	long := make([]byte, 5000)
	for i := range long {
		long[i] = 'x'
	}
	var sawErr bool
	for i := 0; i < 10 && !sawErr; i++ {
		_, err := log.Append(Event{Kind: KindRegister, Worker: string(long)})
		sawErr = err != nil
		if err != nil && !errors.Is(err, ErrFailed) {
			t.Fatalf("buffered write failure = %v, want ErrFailed", err)
		}
	}
	if !sawErr {
		t.Fatal("write fault never surfaced")
	}
	if _, err := log.Append(Event{Kind: KindRegister, Worker: "after"}); !errors.Is(err, ErrFailed) {
		t.Errorf("append after buffered failure = %v, want sticky ErrFailed", err)
	}
}

// TestAppendClosedLog pins ErrClosed.
func TestAppendClosedLog(t *testing.T) {
	log, err := Open(tempLog(t), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(Event{Kind: KindRegister, Worker: "w"}); !errors.Is(err, ErrClosed) {
		t.Errorf("append to closed log = %v, want ErrClosed", err)
	}
	if err := log.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
}

// discardTarget swallows everything, for allocation measurement.
type discardTarget struct{}

func (discardTarget) Write(p []byte) (int, error) { return len(p), nil }
func (discardTarget) Sync() error                 { return nil }
func (discardTarget) Close() error                { return nil }

var _ io.Writer = discardTarget{}
