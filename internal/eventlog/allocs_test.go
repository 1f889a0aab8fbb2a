//go:build !race

package eventlog

// The race detector's instrumentation adds allocations of its own, so the
// zero-alloc pin lives behind !race.

import (
	"fmt"
	"runtime"
	"testing"
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
// onto run tables the platform reuses from run to run. It is about 65
// allocations; a record per bid and score, with tables grown anew every
// run, made it about 100.
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
	const ceiling = 75
	if perRun > ceiling {
		t.Errorf("replay allocates %.1f times per run, want at most %d", perRun, ceiling)
	}
}
