package eventlog

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"melody"
	"melody/internal/obs"
)

// checksum is the reference CRC: the event re-encoded canonically, with
// CRC zeroed. Recovery verifies records by recordChecksum over the bytes as
// written instead, which must agree with this on every record Append
// writes.
func (e Event) checksum() (uint32, error) {
	e.CRC = 0
	buf, err := json.Marshal(e)
	if err != nil {
		return 0, err
	}
	return crc32.ChecksumIEEE(buf), nil
}

// encodeRecords returns the bytes Append writes for events, numbered after
// seq.
func encodeRecords(t testing.TB, seq int64, events ...Event) []byte {
	t.Helper()
	target := &countingTarget{}
	log := newLog(target, seq, Options{})
	for _, e := range events {
		if _, err := log.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	return target.data
}

// awkwardEvents covers every field of the encoding with values whose JSON
// needs escaping, exponents or signs, including a string that spells out a
// crc member.
func awkwardEvents() []Event {
	return []Event{
		{Kind: KindRegister, Worker: `w,"crc":12345}`},
		{Kind: KindRegister, Worker: "ünïcødé \t\"\\<&>"},
		{Kind: KindOpenRun, Run: "r1", Tenant: "t<1>", Budget: 1e-300,
			Tasks: []TaskRecord{{ID: "a", Threshold: 5}, {ID: "b&c", Threshold: math.MaxFloat64}}},
		{Kind: KindBid, Run: "r1", Worker: "w", Cost: math.SmallestNonzeroFloat64, Frequency: math.MaxInt32},
		{Kind: KindBid, Run: "r1", Worker: "w", Cost: math.Copysign(0, -1), Frequency: -3},
		{Kind: KindClose, Run: "r1"},
		{Kind: KindScore, Run: "r1", Worker: "w", Task: "a", Score: 1.0000000000000002},
		{Kind: KindFinish, Run: "r1"},
		{Kind: KindTenantPolicy, Tenant: "t<1>", Policy: &PolicyRecord{BudgetQuota: -1, EpochBudgetQuota: 2.5e9, MaxRuns: 7, Weight: 0.1}},
	}
}

// TestRecordChecksumMatchesCanonicalEncoding is the differential check of
// byte-level verification: for every record the encoder writes, the CRC
// computed over the record bytes equals both the stored CRC and the CRC of
// the event re-encoded canonically.
func TestRecordChecksumMatchesCanonicalEncoding(t *testing.T) {
	if typ := reflect.TypeOf(Event{}); typ.Field(typ.NumField()-1).Name != "CRC" {
		t.Fatal("Event.CRC must be the last field: byte-level verification cuts the crc member off the end of the record")
	}
	data := encodeRecords(t, 0, awkwardEvents()...)
	lines := bytes.SplitAfter(data, []byte("\n"))
	lines = lines[:len(lines)-1] // SplitAfter leaves an empty tail
	for i, line := range lines {
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		got, ok := recordChecksum(line)
		if !ok {
			t.Fatalf("record %d has no trailing crc member: %s", i, line)
		}
		want, err := e.checksum()
		if err != nil {
			t.Fatal(err)
		}
		if got != e.CRC || got != want {
			t.Errorf("record %d: byte CRC %d, stored %d, canonical %d: %s", i, got, e.CRC, want, line)
		}
	}
	if _, err := decodeAll(data); err != nil {
		t.Fatalf("decoding the encoder's own records: %v", err)
	}
}

// decodeAll scans an in-memory log.
func decodeAll(data []byte) ([]Event, error) {
	var events []Event
	_, err := scanRecords(bytes.NewReader(data), scanEnd{}, func(e Event) error {
		events = append(events, e)
		return nil
	})
	return events, err
}

// TestRecordChecksumCoversBytesAsWritten pins what byte-level verification
// adds over re-encoding: the CRC covers the record exactly as written, so a
// checksummed record whose bytes changed fails even when it still decodes
// to the same event.
func TestRecordChecksumCoversBytesAsWritten(t *testing.T) {
	line := bytes.TrimSuffix(encodeRecords(t, 0, Event{Kind: KindRegister, Worker: "w"}), []byte("\n"))
	var e Event
	if err := json.Unmarshal(line, &e); err != nil {
		t.Fatal(err)
	}
	member := fmt.Sprintf(`,"crc":%d`, e.CRC)
	reordered := `{"crc":` + fmt.Sprint(e.CRC) + "," + strings.TrimPrefix(strings.Replace(string(line), member, "", 1), "{")
	for name, record := range map[string]string{
		"intact":           string(line),
		"spaced":           strings.Replace(string(line), `,"kind"`, `, "kind"`, 1),
		"crc member first": reordered,
		"trailing space":   string(line) + " ",
		"crc not a number": strings.Replace(string(line), member, `,"crc":"x"`, 1),
	} {
		_, err := decodeAll([]byte(record + "\n"))
		if name == "intact" {
			if err != nil {
				t.Errorf("intact record rejected: %v", err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s record %s accepted", name, record)
		}
	}
}

// writeLog writes n register records and returns the log's path.
func writeLog(t *testing.T, n int) string {
	t.Helper()
	events := make([]Event, n)
	for i := range events {
		events[i] = Event{Kind: KindRegister, Worker: fmt.Sprintf("w%d", i)}
	}
	path := tempLog(t)
	if err := os.WriteFile(path, encodeRecords(t, 0, events...), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestScanStopsOnReplayError checks the pipeline's early stop: once the
// replay callback fails, the scan returns that error and calls the callback
// no more, though the decoder had batches queued behind the failing one.
func TestScanStopsOnReplayError(t *testing.T) {
	path := writeLog(t, 10*scanBatch*scanAhead)
	boom := errors.New("boom")
	calls := 0
	err := scanFile(path, func(e Event) error {
		calls++
		if e.Seq == scanBatch+7 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the replay error", err)
	}
	if calls != scanBatch+7 {
		t.Errorf("replay called %d times, want %d", calls, scanBatch+7)
	}
}

// TestScanReplaysPrefixBeforeCorruption checks the streaming contract on a
// corrupt log: replay sees every valid record before the corrupt one, in
// order, and then the scan fails.
func TestScanReplaysPrefixBeforeCorruption(t *testing.T) {
	const valid = 3*scanBatch + 5
	path := writeLog(t, valid+10)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	target := fmt.Sprintf(`"worker":"w%d"`, valid)
	mangled := strings.Replace(string(raw), target, fmt.Sprintf(`"worker":"x%d"`, valid), 1)
	if mangled == string(raw) {
		t.Fatal("test setup: record not found")
	}
	if err := os.WriteFile(path, []byte(mangled), 0o644); err != nil {
		t.Fatal(err)
	}
	var seen int64
	err = scanFile(path, func(e Event) error {
		if e.Seq != seen+1 {
			return fmt.Errorf("replayed seq %d after %d", e.Seq, seen)
		}
		seen = e.Seq
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("err = %v, want a checksum mismatch", err)
	}
	if seen != valid {
		t.Errorf("replayed %d records before the corrupt one, want %d", seen, valid)
	}
}

// TestScanRecordLongerThanReadBuffer covers records the decoder must
// reassemble across read-buffer refills, next to a torn tail.
func TestScanRecordLongerThanReadBuffer(t *testing.T) {
	tasks := make([]TaskRecord, 4000)
	for i := range tasks {
		tasks[i] = TaskRecord{ID: fmt.Sprintf("task-%06d", i), Threshold: 10}
	}
	events := []Event{
		{Kind: KindRegister, Worker: "w"},
		{Kind: KindOpenRun, Tasks: tasks, Budget: 1},
		{Kind: KindRegister, Worker: "v"},
	}
	data := encodeRecords(t, 0, events...)
	if len(data) < 2*64<<10 {
		t.Fatalf("test setup: log is %d bytes, want a record over the read buffer", len(data))
	}
	path := tempLog(t)
	if err := os.WriteFile(path, append(data, `{"seq":4,"kind":"reg`...), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || len(got[1].Tasks) != len(tasks) || got[1].Tasks[3999].ID != "task-003999" || got[2].Worker != "v" {
		t.Fatalf("read back %d events", len(got))
	}
	log, err := Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if log.Seq() != 3 {
		t.Errorf("Open resumed at seq %d, want 3", log.Seq())
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(path); err != nil || info.Size() != int64(len(data)) {
		t.Errorf("torn tail not truncated to %d bytes: %v %v", len(data), info.Size(), err)
	}
}

// schedulerHistory writes runs lifecycle runs for two tenants (16 workers,
// 2 tasks, 16 bids, scores for every assignment) through a persistent
// scheduler and returns the log's path and the funding a replaying
// scheduler needs.
func schedulerHistory(t testing.TB, dir string, runs int) (string, float64) {
	t.Helper()
	ctx := context.Background()
	const workers, budget = 16, 40.0
	fund := float64(runs) * budget
	path := filepath.Join(dir, "history.wal")
	s, _ := newSchedulerForLog(t, fund, 8)
	ps, log, err := OpenPersistentScheduler(path, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < workers; i++ {
		if err := ps.RegisterWorker(ctx, fmt.Sprintf("w%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < runs; r++ {
		tenant := fmt.Sprintf("t%d", r%2)
		runID := fmt.Sprintf("%s-r%d", tenant, r)
		tasks := []melody.Task{{ID: runID + "-a", Threshold: 10}, {ID: runID + "-b", Threshold: 10}}
		if err := ps.OpenRun(ctx, runID, tenant, tasks, budget); err != nil {
			t.Fatal(err)
		}
		bids := make([]melody.WorkerBid, workers)
		for i := range bids {
			cost := 1 + float64((i*7+r*3)%10)/10
			bids[i] = melody.WorkerBid{WorkerID: fmt.Sprintf("w%d", i), Bid: melody.Bid{Cost: cost, Frequency: 1}}
		}
		if res := ps.SubmitBids(ctx, runID, bids); res.Err() != nil {
			t.Fatal(res.Err())
		}
		out, err := ps.CloseAuction(ctx, runID)
		if err != nil {
			t.Fatal(err)
		}
		scores := make([]melody.TaskScore, len(out.Assignments))
		for i, a := range out.Assignments {
			scores[i] = melody.TaskScore{WorkerID: a.WorkerID, TaskID: a.TaskID, Score: float64(1 + (i+r)%9)}
		}
		if res := ps.SubmitScores(ctx, runID, scores); res.Err() != nil {
			t.Fatal(res.Err())
		}
		if err := ps.FinishRun(ctx, runID); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	return path, fund
}

// TestOpenPersistentSchedulerSinglePass recovers a scheduler in the one
// pass that also finds the log's end: the torn tail a crash left is
// truncated after replay, appends resume at the next sequence, the
// recovery is reported like the segmented engine's (wal.recover span,
// replayed-records gauge), and the recovered state matches a separate
// replay. A log that fails to replay is
// left byte for byte as it was.
func TestOpenPersistentSchedulerSinglePass(t *testing.T) {
	const runs = 40
	path, fund := schedulerHistory(t, t.TempDir(), runs)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	events, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte{}, clean...), `{"seq":99999,"kind":"fin`...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	s, _ := newSchedulerForLog(t, fund, 8)
	reg, tracer := obs.NewRegistry(), obs.NewTracer(8)
	ps, log, err := OpenPersistentScheduler(path, s, Options{SyncEveryAppend: true, Metrics: reg, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	if got := ps.CompletedRuns(); got != runs {
		t.Errorf("recovered %d completed runs, want %d", got, runs)
	}
	gauge := reg.Gauge(obs.MetricWALRecoveryReplayedRecords, "Records replayed by the most recent recovery.")
	if got := gauge.Value(); got != float64(len(events)) {
		t.Errorf("%s = %v, want %d", obs.MetricWALRecoveryReplayedRecords, got, len(events))
	}
	if spans := tracer.Spans(); len(spans) != 1 || spans[0].Name != "wal.recover" {
		t.Errorf("recovery spans = %+v, want one wal.recover", spans)
	}
	if log.Seq() != int64(len(events)) {
		t.Errorf("appends resume after seq %d, want %d", log.Seq(), len(events))
	}
	if info, err := os.Stat(path); err != nil || info.Size() != int64(len(clean)) {
		t.Errorf("torn tail not truncated: size %d, want %d (%v)", info.Size(), len(clean), err)
	}
	if err := ps.RegisterWorker(context.Background(), "late"); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	reference, _ := newSchedulerForLog(t, fund, 8)
	if err := ReplayScheduler(path, reference); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(reference.Workers()) != fmt.Sprint(s.Workers()) || reference.CompletedRuns() != runs {
		t.Errorf("replay after the resumed append diverged: workers %v vs %v", reference.Workers(), s.Workers())
	}

	// A run-less event in the middle makes replay fail; the failed boot must
	// not truncate or append anything.
	bad := append(append([]byte{}, clean...), encodeRecords(t, int64(len(events)), Event{Kind: KindFinish})...)
	bad = append(bad, `{"seq":1,"kind":"fin`...)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, _ := newSchedulerForLog(t, fund, 8)
	if _, _, err := OpenPersistentScheduler(path, s2, Options{}); err == nil {
		t.Fatal("a log that fails to replay was opened")
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, bad) {
		t.Errorf("a failed recovery changed the log (%v)", err)
	}
}

// BenchmarkRecoverScheduler times a multi-tenant boot on a 1,000-run
// lifecycle history: OpenPersistentScheduler reading, verifying and
// replaying the log and opening it for appends.
func BenchmarkRecoverScheduler(b *testing.B) {
	path, fund := schedulerHistory(b, b.TempDir(), 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, _ := newSchedulerForLog(b, fund, 8)
		b.StartTimer()
		_, log, err := OpenPersistentScheduler(path, s, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := log.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadAll times decoding and verifying the same history without
// replaying it.
func BenchmarkReadAll(b *testing.B) {
	path, _ := schedulerHistory(b, b.TempDir(), 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadAll(path); err != nil {
			b.Fatal(err)
		}
	}
}
