package melody

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestWorkerRegistryShardRounding(t *testing.T) {
	cases := []struct{ n, want int }{
		{-1, defaultRegistryStripes},
		{0, defaultRegistryStripes},
		{1, 1},
		{2, 2},
		{3, 4},
		{17, 32},
		{64, 64},
	}
	for _, c := range cases {
		r := newWorkerRegistry(c.n)
		if got := len(r.stripes); got != c.want || r.mask != uint64(c.want-1) {
			t.Errorf("newWorkerRegistry(%d): %d stripes, mask %#x; want %d", c.n, got, r.mask, c.want)
		}
	}
}

func TestWorkerRegistrySemantics(t *testing.T) {
	r := newWorkerRegistry(4)
	if r.Has("w1") {
		t.Error("empty registry has w1")
	}
	if !r.Register("w1") {
		t.Error("first Register(w1) = false, want true")
	}
	if r.Register("w1") {
		t.Error("second Register(w1) = true, want false (no-op)")
	}
	if !r.Has("w1") || r.Has("w2") {
		t.Errorf("membership wrong: Has(w1)=%v Has(w2)=%v", r.Has("w1"), r.Has("w2"))
	}
	r.Register("w2")
	if got := r.Len(); got != 2 {
		t.Errorf("Len() = %d, want 2", got)
	}
	want := []string{"w1", "w2"}
	got := r.All()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("All() = %v, want %v", got, want)
	}
}

// TestWorkerRegistryConcurrent hammers one registry from many goroutines
// with overlapping ID ranges: exactly one registration per ID may win, the
// final membership must be complete, and readers race the writers without
// tripping the race detector.
func TestWorkerRegistryConcurrent(t *testing.T) {
	const goroutines, ids = 8, 500
	r := newWorkerRegistry(8)
	wins := make([]int, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ids; i++ {
				id := fmt.Sprintf("w%03d", i)
				if r.Register(id) {
					wins[g]++
				}
				_ = r.Has(id)
				if i%100 == 0 {
					_ = r.Len()
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, w := range wins {
		total += w
	}
	if total != ids {
		t.Errorf("total winning registrations = %d, want %d (duplicate wins)", total, ids)
	}
	if got := r.Len(); got != ids {
		t.Errorf("Len() = %d, want %d", got, ids)
	}
	all := r.All()
	if len(all) != ids || !sort.StringsAreSorted(all) {
		t.Errorf("All() returned %d ids (sorted=%v), want %d sorted", len(all), sort.StringsAreSorted(all), ids)
	}
}

// TestWorkerRegistryStripeBalance registers worker IDs shaped like the
// end-to-end benchmark's (2,000 `w%04d`, then 2×1,000 `t%d-w%04d`) and
// requires the default stripes to share them evenly: none empty, none
// above 1.5× the mean. Sequential IDs differ only in their last
// characters, so a stripe chosen by the hash's high bits piles them into a
// few stripes.
func TestWorkerRegistryStripeBalance(t *testing.T) {
	r := newWorkerRegistry(0)
	for i := 0; i < 2000; i++ {
		r.Register(fmt.Sprintf("w%04d", i))
	}
	for tenant := 0; tenant < 2; tenant++ {
		for i := 0; i < 1000; i++ {
			r.Register(fmt.Sprintf("t%d-w%04d", tenant, i))
		}
	}
	mean := float64(r.Len()) / float64(len(r.stripes))
	for i := range r.stripes {
		n := len(r.stripes[i].ids)
		if n == 0 || float64(n) > 1.5*mean {
			t.Errorf("stripe %d holds %d IDs; want 1..%.0f (mean %.1f)", i, n, 1.5*mean, mean)
		}
	}
}

// TestWorkerRegistryAllSeesRacingRegistrations: All keeps its sorted list
// until the next registration, and a list collected while a registration
// raced it is never reused past it. Readers keep rebuilding the list while
// writers register; every All begun after a Register returned must hold
// the ID. Run it under -race.
func TestWorkerRegistryAllSeesRacingRegistrations(t *testing.T) {
	const writers, ids = 4, 200
	r := newWorkerRegistry(4)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if all := r.All(); !sort.StringsAreSorted(all) {
						t.Error("All() is not sorted")
						return
					}
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ids; i++ {
				id := fmt.Sprintf("g%d-w%03d", g, i)
				r.Register(id)
				if _, found := slices.BinarySearch(r.All(), id); !found {
					t.Errorf("All() after Register(%s) returned misses it", id)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := len(r.All()); got != writers*ids {
		t.Errorf("All() holds %d IDs, want %d", got, writers*ids)
	}
}

// TestWorkersReturnsCopy: the public lists are the caller's to modify; the
// registry's cached list is not.
func TestWorkersReturnsCopy(t *testing.T) {
	s, err := NewRunScheduler(SchedulerConfig{NewEstimator: func(string) (Estimator, error) {
		return NewQualityTracker(QualityTrackerConfig{InitialMean: 5.5, InitialVar: 2.25, Params: QualityParams{A: 1, Gamma: 0.3, Eta: 9}})
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"w1", "w2"} {
		if err := s.RegisterWorker(nil, id); err != nil {
			t.Fatal(err)
		}
	}
	s.Workers()[0] = "mutated"
	if got := s.registry.All(); got[0] != "w1" {
		t.Fatalf("modifying Workers() changed the registry's list: %v", got)
	}
}

// TestBidsKeepRegistryIDs: an accepted bid keeps the registry's copy of
// its worker ID, so the outcome's assignments share one string per worker
// instead of holding the copy each request or replayed record decoded.
func TestBidsKeepRegistryIDs(t *testing.T) {
	ctx := context.Background()
	p := testPlatform(t)
	ids := []string{"ada", "bob", "cyd", "dee", "eve"}
	for _, id := range ids {
		if err := p.RegisterWorker(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.OpenRun(ctx, []Task{{ID: "t1", Threshold: 10}, {ID: "t2", Threshold: 10}}, 100); err != nil {
		t.Fatal(err)
	}
	bids := make([]WorkerBid, len(ids))
	for i, id := range ids {
		bids[i] = WorkerBid{WorkerID: strings.Clone(id), Bid: Bid{Cost: 1 + 0.1*float64(i), Frequency: 2}}
	}
	if err := p.SubmitBid(ctx, bids[0].WorkerID, bids[0].Bid); err != nil {
		t.Fatal(err)
	}
	if err := p.SubmitBids(ctx, bids[1:]).Err(); err != nil {
		t.Fatal(err)
	}
	out, err := p.CloseAuction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Assignments) == 0 {
		t.Fatal("the auction assigned nothing")
	}
	for _, a := range out.Assignments {
		registered := ids[slices.Index(ids, a.WorkerID)]
		if unsafe.StringData(a.WorkerID) != unsafe.StringData(registered) {
			t.Errorf("assignment of %s to %s holds the bid's copy of the worker ID, not the registry's", a.WorkerID, a.TaskID)
		}
	}
}
