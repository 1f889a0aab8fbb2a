//go:build !race

package eventlog

// The race detector's instrumentation adds allocations of its own, so the
// zero-alloc pin lives behind !race.

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"melody/internal/obs"
)

// TestAppendSteadyStateAllocs pins the scratch-buffer reuse: after warmup,
// a buffered append allocates nothing (the encoder state is pooled by
// encoding/json, the record buffers are owned by the Log).
func TestAppendSteadyStateAllocs(t *testing.T) {
	log := newLog(discardTarget{}, 0, Options{})
	ev := Event{Kind: KindBids, Run: "r7", Bids: []BidRecord{{Worker: "worker-123", Cost: 1.25, Frequency: 3}}}
	// Warm the encoder pools and the pending buffer.
	for i := 0; i < 100; i++ {
		if _, err := log.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := log.Append(ev); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Append allocates %.1f times per op, want 0", allocs)
	}
}

// TestDecodeRecordAllocs pins recovery's per-record cost for records in
// the writer's layout: a bid record, as older logs hold, allocates only
// its worker and run strings; a bids record of 16 bids allocates its 16
// worker strings, its run string and one slice of its own size, however
// the parser gathers the items; one of 40 bids, past the parser's stack
// buffer, allocates a single slice too, grown once and not copied again.
// The event itself stays off the heap, though the json.Unmarshal
// fallback for other layouts needs an addressable one.
func TestDecodeRecordAllocs(t *testing.T) {
	bids := make([]BidRecord, 40)
	for i := range bids {
		bids[i] = BidRecord{Worker: fmt.Sprintf("t0-w%04d", i), Cost: 1 + float64(i)/17, Frequency: 1 + i%3}
	}
	for _, tc := range []struct {
		e    Event
		want float64
	}{
		{Event{Kind: KindBid, Run: "r7", Worker: "worker-123", Cost: 1.25, Frequency: 3}, 2},
		{Event{Kind: KindBids, Run: "t0-r000007", Bids: bids[:16]}, 18},
		{Event{Kind: KindBids, Run: "t0-r000007", Bids: bids}, 42},
	} {
		line := encodeRecords(t, 41, tc.e)
		if _, ok := parseRecord(line); !ok {
			t.Fatalf("record %q is not in the writer's layout", line)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := decodeRecord(line, 41); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != tc.want {
			t.Errorf("decoding a %s record of %d bids allocates %.1f times, want %.0f", tc.e.Kind, max(1, len(tc.e.Bids)), allocs, tc.want)
		}
	}
}

// TestReplayAllocsPerRun pins a ceiling on what replay allocates per
// lifecycle-shaped run (two tenants of 16 workers, 16 bids and two tasks a
// run): the decode of its records, one per submission, and their apply
// onto run tables the platform reuses from run to run, through one bid and
// one score buffer replay reuses from record to record. It is about 57
// allocations. A buffer converted anew for every record made it about 60;
// a finish that allocated its batch buffers anew, and an accepted batch
// that allocated its error slice, about 65; a record per bid and score,
// with tables grown anew every run, about 100.
func TestReplayAllocsPerRun(t *testing.T) {
	const runs = 200 // per tenant
	path, _ := writeLifecycleSeason(t, t.TempDir(), runs)
	s := newEMScheduler(t, 10, nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := ReplayScheduler(path, s); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.Mallocs-before.Mallocs) / (2 * runs)
	t.Logf("%.1f allocations, %.0f bytes per replayed run", perRun, float64(after.TotalAlloc-before.TotalAlloc)/(2*runs))
	const ceiling = 57
	if perRun > ceiling {
		t.Errorf("replay allocates %.1f times per run, want at most %d", perRun, ceiling)
	}
}

// TestRetriesOfSpilledRunDecodeOnce: a retried finish of a finished run
// whose record was spilled reads only the record's head and decodes no
// outcome, and a retried close decodes the record once, as Run does.
func TestRetriesOfSpilledRunDecodeOnce(t *testing.T) {
	ctx := context.Background()
	reg := obs.NewRegistry()
	s := newMeteredScheduler(t, reg)
	ps, log, err := OpenPersistentScheduler(filepath.Join(t.TempDir(), "w.wal"), s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	driveLifecycleSeason(t, ps, 250)
	requireSpilledArchive(t, reg)
	const id = "t0-r000001"
	if closed, finished, err := s.RunState(id); err != nil || !closed || !finished {
		t.Fatalf("RunState(%s) = %v, %v, %v; want closed and finished", id, closed, finished, err)
	}
	state := testing.AllocsPerRun(100, func() { _, _, _ = s.RunState(id) })
	decode := testing.AllocsPerRun(100, func() { _, _ = s.Run(id) })
	tail := testing.AllocsPerRun(100, func() { _ = log.waitTail(ctx) })
	finish := testing.AllocsPerRun(100, func() {
		if err := ps.FinishRun(ctx, id); err != nil {
			t.Fatal(err)
		}
	})
	closeAgain := testing.AllocsPerRun(100, func() {
		if _, err := ps.CloseAuction(ctx, id); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocations: RunState %.0f, Run %.0f, wait %.0f, retried finish %.0f, retried close %.0f",
		state, decode, tail, finish, closeAgain)
	if state != 0 {
		t.Errorf("RunState of a spilled run allocates %.0f times, want 0", state)
	}
	if decode < 2 {
		t.Fatalf("Run allocates %.0f times; the test wants a decode to allocate", decode)
	}
	if finish != tail {
		t.Errorf("a retried finish allocates %.0f times, want the wait's %.0f: it decodes no outcome", finish, tail)
	}
	if closeAgain != decode+tail {
		t.Errorf("a retried close allocates %.0f times, want one decode and the wait, %.0f", closeAgain, decode+tail)
	}
}
