package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"melody/internal/obs"
	"melody/internal/stats"
)

// randomTasks draws a task set with the same shape as randomInstance's.
func randomTasks(r *stats.RNG, m int) []Task {
	tasks := make([]Task, m)
	for j := range tasks {
		th := r.Uniform(1, 12)
		if r.Bernoulli(0.1) {
			th = r.Uniform(50, 500)
		}
		tasks[j] = Task{ID: fmt.Sprintf("t%03d", j), Threshold: th}
	}
	return tasks
}

// randomDelta draws a registry delta against the state: a mix of bid/quality
// updates on existing workers, joins with fresh IDs, and departures, sized
// to roughly churn*Size mutations.
func randomDelta(r *stats.RNG, s *AuctionState, churn float64, nextID *int) WorkerDelta {
	ids := make([]string, 0, s.Size())
	for _, w := range s.Snapshot() {
		ids = append(ids, w.ID)
	}
	mutations := int(churn * float64(len(ids)))
	if mutations < 1 {
		mutations = 1
	}
	var d WorkerDelta
	touched := make(map[string]bool)
	for k := 0; k < mutations; k++ {
		switch {
		case len(ids) > 0 && r.Bernoulli(0.6): // update
			id := ids[r.Intn(len(ids))]
			if touched[id] {
				continue
			}
			touched[id] = true
			d.Upserts = append(d.Upserts, Worker{
				ID:      id,
				Bid:     Bid{Cost: r.Uniform(0.3, 3.5), Frequency: r.UniformInt(1, 4)},
				Quality: r.Uniform(0.5, 9),
			})
		case len(ids) > 0 && r.Bernoulli(0.4): // leave
			id := ids[r.Intn(len(ids))]
			if touched[id] {
				continue
			}
			touched[id] = true
			d.Removes = append(d.Removes, id)
		default: // join
			id := fmt.Sprintf("j%05d", *nextID)
			*nextID++
			touched[id] = true
			d.Upserts = append(d.Upserts, Worker{
				ID:      id,
				Bid:     Bid{Cost: r.Uniform(0.3, 3.5), Frequency: r.UniformInt(1, 4)},
				Quality: r.Uniform(0.5, 9),
			})
		}
	}
	return d
}

// TestAuctionStateMatchesStateless drives a long churn sequence through the
// stateful kernel and asserts every run's outcome is byte-identical to the
// stateless mechanisms executed on the registry snapshot — for MELODY,
// MELODY-DUAL and OPT-UB, across churn levels straddling the rebuild
// threshold.
func TestAuctionStateMatchesStateless(t *testing.T) {
	cfg := diffConfig()
	for _, churn := range []float64{0.01, 0.1, 0.3, 0.8} {
		churn := churn
		t.Run(fmt.Sprintf("churn%g", churn), func(t *testing.T) {
			r := stats.NewRNG(int64(8800 + int(churn*100)))
			st, err := NewAuctionState(cfg, AuctionStateOptions{})
			if err != nil {
				t.Fatal(err)
			}
			melody, _ := NewMelody(cfg)
			optub, _ := NewOptUB(cfg)
			nextID := 0
			seed := randomInstance(r, 80, 1).Workers
			if err := st.Apply(WorkerDelta{Upserts: seed}); err != nil {
				t.Fatal(err)
			}
			for run := 0; run < 60; run++ {
				if run > 0 {
					if err := st.Apply(randomDelta(r, st, churn, &nextID)); err != nil {
						t.Fatalf("run %d: apply: %v", run, err)
					}
				}
				tasks := randomTasks(r, 1+r.Intn(40))
				budget := r.Uniform(0, 2000)
				in := Instance{Workers: st.Snapshot(), Tasks: tasks, Budget: budget}

				want, err := melody.Run(in)
				if err != nil {
					t.Fatalf("run %d: stateless melody: %v", run, err)
				}
				got, err := st.RunMelody(tasks, budget)
				if err != nil {
					t.Fatalf("run %d: stateful melody: %v", run, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("run %d: stateful MELODY diverged\n got: %+v\nwant: %+v", run, got, want)
				}

				target := 1 + r.Intn(len(tasks)+3)
				dual, err := NewMelodyDual(cfg, target)
				if err != nil {
					t.Fatal(err)
				}
				want, err = dual.Run(in)
				if err != nil {
					t.Fatalf("run %d: stateless dual: %v", run, err)
				}
				got, err = st.RunDual(target, tasks)
				if err != nil {
					t.Fatalf("run %d: stateful dual: %v", run, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("run %d: stateful MELODY-DUAL diverged\n got: %+v\nwant: %+v", run, got, want)
				}

				want, err = optub.Run(in)
				if err != nil {
					t.Fatalf("run %d: stateless optub: %v", run, err)
				}
				got, err = st.RunOptUB(tasks, budget)
				if err != nil {
					t.Fatalf("run %d: stateful optub: %v", run, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("run %d: stateful OPT-UB diverged\n got: %+v\nwant: %+v", run, got, want)
				}
			}
		})
	}
}

// TestAuctionStateRepairMatchesRebuild pins the merge repair against a full
// rebuild: two states fed the same deltas, one with the threshold forcing
// rebuilds always, must agree on every run.
func TestAuctionStateRepairMatchesRebuild(t *testing.T) {
	cfg := diffConfig()
	repair, err := NewAuctionState(cfg, AuctionStateOptions{ChurnThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	rebuild, err := NewAuctionState(cfg, AuctionStateOptions{ChurnThreshold: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(424242)
	nextID := 0
	seed := randomInstance(r, 60, 1).Workers
	for _, s := range []*AuctionState{repair, rebuild} {
		if err := s.Apply(WorkerDelta{Upserts: seed}); err != nil {
			t.Fatal(err)
		}
	}
	for run := 0; run < 40; run++ {
		d := randomDelta(r, repair, 0.15, &nextID)
		if err := repair.Apply(d); err != nil {
			t.Fatalf("run %d: repair apply: %v", run, err)
		}
		if err := rebuild.Apply(d); err != nil {
			t.Fatalf("run %d: rebuild apply: %v", run, err)
		}
		if !reflect.DeepEqual(repair.ranked, rebuild.ranked) {
			t.Fatalf("run %d: repaired ranking diverged from rebuilt", run)
		}
		if !reflect.DeepEqual(repair.density, rebuild.density) {
			t.Fatalf("run %d: repaired densities diverged from rebuilt", run)
		}
		tasks := randomTasks(r, 12)
		budget := r.Uniform(0, 800)
		a, err := repair.RunMelody(tasks, budget)
		if err != nil {
			t.Fatal(err)
		}
		b, err := rebuild.RunMelody(tasks, budget)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("run %d: repair vs rebuild outcomes diverged", run)
		}
		ua, err := repair.RunOptUB(tasks, budget)
		if err != nil {
			t.Fatal(err)
		}
		ub, err := rebuild.RunOptUB(tasks, budget)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ua, ub) {
			t.Fatalf("run %d: repair vs rebuild OPT-UB diverged", run)
		}
	}
}

// TestAuctionStateRunTwiceIdentical asserts the post-run availability
// restore is complete: running the same auction twice with no delta in
// between must be byte-identical, including after a run whose pre-allocation
// hits the failure paths.
func TestAuctionStateRunTwiceIdentical(t *testing.T) {
	cfg := diffConfig()
	st, err := NewAuctionState(cfg, AuctionStateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(99)
	if err := st.Apply(WorkerDelta{Upserts: randomInstance(r, 50, 1).Workers}); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 25; trial++ {
		tasks := randomTasks(r, 1+r.Intn(30))
		budget := r.Uniform(0, 600)
		first, err := st.RunMelody(tasks, budget)
		if err != nil {
			t.Fatal(err)
		}
		second, err := st.RunMelody(tasks, budget)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("trial %d: second run diverged from first\n1st: %+v\n2nd: %+v", trial, first, second)
		}
		u1, err := st.RunOptUB(tasks, budget)
		if err != nil {
			t.Fatal(err)
		}
		u2, err := st.RunOptUB(tasks, budget)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(u1, u2) {
			t.Fatalf("trial %d: second OPT-UB run diverged from first", trial)
		}
	}
}

// TestAuctionStateTaskSetBounded: runs whose task IDs are fresh every run,
// as a platform's are, leave the duplicate-task detector holding at most
// one run's tasks, and it still catches a duplicate within a run.
func TestAuctionStateTaskSetBounded(t *testing.T) {
	st, err := NewAuctionState(diffConfig(), AuctionStateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(17)
	if err := st.Apply(WorkerDelta{Upserts: randomInstance(r, 50, 1).Workers}); err != nil {
		t.Fatal(err)
	}
	largest := 0
	var tasks []Task
	for run := 0; run < 5000; run++ {
		tasks = randomTasks(r, 1+r.Intn(8))
		for j := range tasks {
			tasks[j].ID = fmt.Sprintf("run%d-%s", run, tasks[j].ID)
		}
		largest = max(largest, len(tasks))
		if _, err := st.RunMelody(tasks, r.Uniform(0, 200)); err != nil {
			t.Fatal(err)
		}
	}
	if len(st.taskSeen) > largest {
		t.Errorf("after 5000 runs the task set holds %d IDs, want at most %d", len(st.taskSeen), largest)
	}
	dup := append([]Task{tasks[0]}, tasks...)
	if _, err := st.RunMelody(dup, 100); err == nil || !strings.Contains(err.Error(), "duplicate task ID") {
		t.Errorf("duplicate task ID: err = %v", err)
	}
	if _, err := st.RunMelody(tasks[:1], 100); err != nil {
		t.Errorf("a task ID from an earlier run was rejected: %v", err)
	}
}

// TestAuctionStateReuseOutcome asserts the arena-backed outcome equals the
// fresh one and that steady-state runs with it allocate (near) nothing.
func TestAuctionStateReuseOutcome(t *testing.T) {
	cfg := diffConfig()
	fresh, err := NewAuctionState(cfg, AuctionStateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reuse, err := NewAuctionState(cfg, AuctionStateOptions{ReuseOutcome: true})
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(4321)
	workers := randomInstance(r, 200, 1).Workers
	for _, s := range []*AuctionState{fresh, reuse} {
		if err := s.Apply(WorkerDelta{Upserts: workers}); err != nil {
			t.Fatal(err)
		}
	}
	tasks := randomTasks(r, 20)
	const budget = 500
	want, err := fresh.RunMelody(tasks, budget)
	if err != nil {
		t.Fatal(err)
	}
	got, err := reuse.RunMelody(tasks, budget)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reused outcome diverged from fresh\n got: %+v\nwant: %+v", got, want)
	}

	// Warm every arena, then require the steady state to be allocation-free.
	for i := 0; i < 3; i++ {
		if _, err := reuse.RunMelody(tasks, budget); err != nil {
			t.Fatal(err)
		}
		if _, err := reuse.RunOptUB(tasks, budget); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := reuse.RunMelody(tasks, budget); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("steady-state RunMelody allocates %.1f objects per run, want <= 1", allocs)
	}
	allocs = testing.AllocsPerRun(50, func() {
		if _, err := reuse.RunOptUB(tasks, budget); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("steady-state RunOptUB allocates %.1f objects per run, want <= 1", allocs)
	}
}

// TestAuctionStateApplyErrors asserts invalid deltas are rejected without
// mutating the registry.
func TestAuctionStateApplyErrors(t *testing.T) {
	cfg := diffConfig()
	ok := Worker{ID: "a", Bid: Bid{Cost: 1, Frequency: 1}, Quality: 2}
	cases := []struct {
		name string
		d    WorkerDelta
		want string
	}{
		{"invalid worker", WorkerDelta{Upserts: []Worker{{ID: "x", Bid: Bid{Cost: -1, Frequency: 1}, Quality: 2}}}, "cost"},
		{"duplicate upsert", WorkerDelta{Upserts: []Worker{ok, ok}}, "twice"},
		{"unknown remove", WorkerDelta{Removes: []string{"ghost"}}, "unknown"},
		{"upsert and remove", WorkerDelta{Upserts: []Worker{ok}, Removes: []string{"a"}}, "both"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := NewAuctionState(cfg, AuctionStateOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Apply(WorkerDelta{Upserts: []Worker{ok}}); err != nil {
				t.Fatal(err)
			}
			before := st.Snapshot()
			if err := st.Apply(tc.d); err == nil {
				t.Fatal("want error, got nil")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if !reflect.DeepEqual(st.Snapshot(), before) {
				t.Fatal("failed Apply mutated the registry")
			}
		})
	}

	bad := Worker{ID: "x", Bid: Bid{Cost: -1, Frequency: 1}, Quality: 2}
	fresh := Worker{ID: "b", Bid: Bid{Cost: 1, Frequency: 2}, Quality: 3}
	changed := Worker{ID: "a", Bid: Bid{Cost: 1.5, Frequency: 1}, Quality: 2}
	syncCases := []struct {
		name string
		ws   []Worker
		want string
	}{
		{"sync invalid worker", []Worker{ok, bad}, "cost"},
		{"sync invalid after join and change", []Worker{fresh, changed, bad}, "cost"},
		{"sync duplicate registered", []Worker{ok, fresh, ok}, "twice"},
		{"sync duplicate joiner", []Worker{fresh, ok, fresh}, "twice"},
		{"sync duplicate changed", []Worker{changed, changed}, "twice"},
	}
	for _, tc := range syncCases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := NewAuctionState(cfg, AuctionStateOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Sync([]Worker{ok}); err != nil {
				t.Fatal(err)
			}
			before := st.Snapshot()
			if err := st.Sync(tc.ws); err == nil {
				t.Fatal("want error, got nil")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if !reflect.DeepEqual(st.Snapshot(), before) {
				t.Fatal("failed Sync mutated the registry")
			}
			// The failed call's stamps must not count as the next call's:
			// a sync naming only b drops a.
			if err := st.Sync([]Worker{fresh}); err != nil {
				t.Fatal(err)
			}
			if got := st.Snapshot(); !reflect.DeepEqual(got, []Worker{fresh}) {
				t.Fatalf("registry after a valid sync = %+v, want only %+v", got, fresh)
			}
		})
	}

	if _, err := NewAuctionState(cfg, AuctionStateOptions{ChurnThreshold: 2}); err == nil {
		t.Fatal("want churn threshold validation error")
	}
}

// TestSyncDropsDepartedWorkers syncs 1,000 workers and then 1,000 others,
// through the repair and the rebuild path, and requires the kernel to hold
// entries for the second set only: a worker that stops bidding leaves no
// trace behind, however many workers have come and gone.
func TestSyncDropsDepartedWorkers(t *testing.T) {
	cfg := diffConfig()
	set := func(prefix string) []Worker {
		ws := make([]Worker, 1000)
		for i := range ws {
			ws[i] = Worker{ID: fmt.Sprintf("%s%04d", prefix, i), Bid: Bid{Cost: 1 + float64(i%7)/10, Frequency: 1 + i%3}, Quality: 2 + float64(i%5)/2}
		}
		return ws
	}
	first, second := set("a"), set("b")
	for _, threshold := range []float64{1, 1e-9} {
		st, err := NewAuctionState(cfg, AuctionStateOptions{ChurnThreshold: threshold})
		if err != nil {
			t.Fatal(err)
		}
		for _, ws := range [][]Worker{first, second} {
			if err := st.Sync(ws); err != nil {
				t.Fatal(err)
			}
		}
		if len(st.byID) != len(second) {
			t.Errorf("threshold %v: kernel holds %d worker entries, want %d", threshold, len(st.byID), len(second))
		}
		for id := range st.byID {
			if id[0] != 'b' {
				t.Errorf("threshold %v: kernel still holds departed worker %q", threshold, id)
				break
			}
		}
		if !reflect.DeepEqual(st.Snapshot(), second) {
			t.Errorf("threshold %v: registry is not the second set", threshold)
		}
		if want := rankWorkers(second, cfg); !reflect.DeepEqual(append([]Worker{}, st.ranked...), append([]Worker{}, want...)) {
			t.Errorf("threshold %v: ranking is not the second set's", threshold)
		}
	}
}

// TestAuctionStateRepairEdgeCases exercises the merge sweep's boundaries:
// removing the head and tail of the ranking, re-ranking a worker to the
// opposite end, draining the registry, and repopulating an emptied one.
func TestAuctionStateRepairEdgeCases(t *testing.T) {
	cfg := diffConfig()
	st, err := NewAuctionState(cfg, AuctionStateOptions{ChurnThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id string, cost, q float64) Worker {
		return Worker{ID: id, Bid: Bid{Cost: cost, Frequency: 2}, Quality: q}
	}
	check := func(step string) {
		t.Helper()
		want := rankWorkers(st.Snapshot(), cfg)
		if !reflect.DeepEqual(append([]Worker{}, st.ranked...), append([]Worker{}, want...)) {
			t.Fatalf("%s: cached ranking diverged\n got: %+v\nwant: %+v", step, st.ranked, want)
		}
	}
	if err := st.Apply(WorkerDelta{Upserts: []Worker{
		mk("a", 1, 6), mk("b", 1, 4), mk("c", 1, 2), mk("d", 2, 2), mk("z", 10, 0.1),
	}}); err != nil { // z does not qualify
		t.Fatal(err)
	}
	check("seed")
	steps := []struct {
		name string
		d    WorkerDelta
	}{
		{"remove head", WorkerDelta{Removes: []string{"a"}}},
		{"remove tail", WorkerDelta{Removes: []string{"d"}}},
		{"re-rank to front", WorkerDelta{Upserts: []Worker{mk("c", 0.5, 7)}}},
		{"re-rank to back", WorkerDelta{Upserts: []Worker{mk("c", 3, 1.5)}}},
		{"unqualified joins ranking", WorkerDelta{Upserts: []Worker{mk("z", 1, 5)}}},
		{"qualified leaves ranking", WorkerDelta{Upserts: []Worker{mk("z", 10, 0.1)}}},
		{"drain", WorkerDelta{Removes: []string{"b", "c", "z"}}},
		{"repopulate", WorkerDelta{Upserts: []Worker{mk("e", 1, 3), mk("f", 1, 5)}}},
	}
	for _, s := range steps {
		if err := st.Apply(s.d); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		check(s.name)
	}
}

// TestAuctionStateInstrumentation asserts the repair/rebuild counters, the
// churn gauge, and the auction spans fire.
func TestAuctionStateInstrumentation(t *testing.T) {
	cfg := diffConfig()
	reg := obs.NewRegistry()
	tr := obs.NewTracer(64)
	st, err := NewAuctionState(cfg, AuctionStateOptions{
		ChurnThreshold: 0.5, Metrics: reg, Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(7)
	workers := randomInstance(r, 40, 1).Workers
	// Seeding an empty state is 100% churn: a rebuild.
	if err := st.Apply(WorkerDelta{Upserts: workers}); err != nil {
		t.Fatal(err)
	}
	// A single-worker delta on 40 workers is 2.5% churn: a repair.
	if err := st.Apply(WorkerDelta{Upserts: []Worker{workers[0]}}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(obs.MetricAuctionFullRebuildsTotal, "").Value(); got != 1 {
		t.Errorf("full rebuilds = %d, want 1", got)
	}
	if got := reg.Counter(obs.MetricAuctionIncrementalRepairsTotal, "").Value(); got != 1 {
		t.Errorf("incremental repairs = %d, want 1", got)
	}
	if got := reg.Gauge(obs.MetricAuctionCacheChurnRatio, "").Value(); got != 1.0/40 {
		t.Errorf("churn ratio = %v, want %v", got, 1.0/40)
	}
	if _, err := st.RunMelody(randomTasks(r, 5), 100); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]int)
	for _, sp := range tr.Spans() {
		names[sp.Name]++
	}
	if names["auction.incremental"] != 2 {
		t.Errorf("auction.incremental spans = %d, want 2", names["auction.incremental"])
	}
	if names["auction.run"] != 1 {
		t.Errorf("auction.run spans = %d, want 1", names["auction.run"])
	}
	snap := reg.Histogram(obs.MetricAuctionDurationSeconds, "", obs.TimeBuckets()).Snapshot()
	if snap.Count != 1 {
		t.Errorf("auction duration observations = %d, want 1", snap.Count)
	}
}
