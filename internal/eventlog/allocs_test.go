//go:build !race

package eventlog

// The race detector's instrumentation adds allocations of its own, so the
// zero-alloc pin lives behind !race.

import "testing"

// TestAppendSteadyStateAllocs pins the scratch-buffer reuse: after warmup,
// a buffered append allocates nothing (the encoder state is pooled by
// encoding/json, the record buffers are owned by the Log).
func TestAppendSteadyStateAllocs(t *testing.T) {
	log := newLog(discardTarget{}, 0, Options{})
	ev := Event{Kind: KindBid, Worker: "worker-123", Cost: 1.25, Frequency: 3}
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

// TestDecodeRecordAllocs pins recovery's per-record cost: decoding a bid
// record in the writer's layout allocates only its two strings, the worker
// and the run ID. The event itself stays off the heap, though the
// json.Unmarshal fallback for other layouts needs an addressable one.
func TestDecodeRecordAllocs(t *testing.T) {
	line := encodeRecords(t, 41, Event{Kind: KindBid, Run: "r7", Worker: "worker-123", Cost: 1.25, Frequency: 3})
	if _, ok := parseRecord(line); !ok {
		t.Fatalf("record %q is not in the writer's layout", line)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := decodeRecord(line, 41); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 2 {
		t.Errorf("decoding a bid record allocates %.1f times, want 2 (its worker and run strings)", allocs)
	}
}
