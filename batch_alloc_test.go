//go:build !race

package melody

// The race detector's instrumentation adds allocations of its own, so the
// allocation pin lives behind !race.

import (
	"context"
	"testing"
)

// TestAcceptedBatchAllocs: a batch whose items are all accepted allocates
// no error slice, so one accepted bid through RunScheduler.SubmitBids, as
// each single bid through the durable scheduler is, allocates nothing
// once its bid is on record.
func TestAcceptedBatchAllocs(t *testing.T) {
	ctx := context.Background()
	s, _ := testScheduler(t, 0, 0)
	if err := s.RegisterWorker(ctx, "w1"); err != nil {
		t.Fatal(err)
	}
	if err := s.OpenRun(ctx, "r1", "", []Task{{ID: "t1", Threshold: 1}}, 10); err != nil {
		t.Fatal(err)
	}
	bids := []WorkerBid{{WorkerID: "w1", Bid: Bid{Cost: 1, Frequency: 1}}}
	allocs := testing.AllocsPerRun(200, func() {
		if res := s.SubmitBids(ctx, "r1", bids); !res.OK() || res.Len() != 1 || res.ErrAt(0) != nil {
			t.Fatal(res.Err())
		}
	})
	if allocs != 0 {
		t.Errorf("one accepted bid allocates %.1f times, want 0", allocs)
	}
}
