package core

import (
	"testing"

	"melody/internal/stats"
)

func TestOptUBHandExample(t *testing.T) {
	// Two workers, each 1 task at quality 3, costs 1 and 2; density 1/3 and
	// 2/3 per unit. Task thresholds 4 and 5.
	// Task t1 (Q=4): 3 units at 1/3 + 1 unit at 2/3 = 1.667; t2 (Q=5): 5
	// units at 2/3 = 3.333 but only 2 units remain -> cannot cover.
	ub, _ := NewOptUB(paperConfig())
	in := Instance{
		Budget: 10,
		Workers: []Worker{
			{ID: "a", Bid: Bid{Cost: 1, Frequency: 1}, Quality: 3},
			{ID: "b", Bid: Bid{Cost: 2, Frequency: 1}, Quality: 3},
		},
		Tasks: []Task{{ID: "t1", Threshold: 4}, {ID: "t2", Threshold: 5}},
	}
	out, err := ub.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Utility() != 1 {
		t.Fatalf("OPT-UB utility = %d, want 1", out.Utility())
	}
	if out.SelectedTasks[0] != "t1" {
		t.Fatalf("OPT-UB selected %v, want [t1]", out.SelectedTasks)
	}
	wantCost := 3*(1.0/3) + 1*(2.0/3)
	if !almostEqual(out.TaskPayments[0], wantCost, testTol) {
		t.Errorf("t1 cost = %v, want %v", out.TaskPayments[0], wantCost)
	}
}

func TestOptUBBudgetBinds(t *testing.T) {
	ub, _ := NewOptUB(paperConfig())
	in := Instance{
		Budget: 2.0, // covers exactly one task at cost 2
		Workers: []Worker{
			{ID: "a", Bid: Bid{Cost: 1, Frequency: 4}, Quality: 3},
		},
		Tasks: []Task{{ID: "t1", Threshold: 6}, {ID: "t2", Threshold: 6}},
	}
	out, err := ub.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Utility() != 1 {
		t.Errorf("utility = %d, want 1 (budget binds)", out.Utility())
	}
	if out.TotalPayment > in.Budget+testTol {
		t.Errorf("OPT-UB overspent: %v > %v", out.TotalPayment, in.Budget)
	}
}

// TestOptUBDominatesExact: the relaxation must never fall below the true
// integral optimum on tiny instances.
func TestOptUBDominatesExact(t *testing.T) {
	r := stats.NewRNG(61)
	ub, _ := NewOptUB(paperConfig())
	for trial := 0; trial < 40; trial++ {
		in := paperInstance(r.Split(), 2+r.Intn(4), 1+r.Intn(3), r.Uniform(0, 30))
		exact, err := ExactOPT(in, paperConfig())
		if err != nil {
			t.Fatal(err)
		}
		out, err := ub.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		if out.Utility() < exact {
			t.Fatalf("trial %d: OPT-UB %d < exact OPT %d\ninstance: %+v",
				trial, out.Utility(), exact, in)
		}
	}
}

// TestOptUBDominatesMelody: an upper bound on the optimum is in particular
// an upper bound on any truthful mechanism's utility.
func TestOptUBDominatesMelody(t *testing.T) {
	r := stats.NewRNG(71)
	ub, _ := NewOptUB(paperConfig())
	mel, _ := NewMelody(paperConfig())
	for trial := 0; trial < 30; trial++ {
		in := paperInstance(r.Split(), 10+r.Intn(150), 10+r.Intn(100), r.Uniform(0, 1000))
		u, err := ub.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		m, err := mel.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		if u.Utility() < m.Utility() {
			t.Fatalf("trial %d: OPT-UB %d < MELODY %d", trial, u.Utility(), m.Utility())
		}
	}
}

func TestExactOPTSmallInstances(t *testing.T) {
	cfg := paperConfig()
	tests := []struct {
		name string
		in   Instance
		want int
	}{
		{
			name: "single coverable task",
			in: Instance{
				Budget: 10,
				Workers: []Worker{
					{ID: "a", Bid: Bid{Cost: 1, Frequency: 1}, Quality: 3},
					{ID: "b", Bid: Bid{Cost: 1, Frequency: 1}, Quality: 3},
				},
				Tasks: []Task{{ID: "t", Threshold: 6}},
			},
			want: 1,
		},
		{
			name: "budget limits to one task",
			in: Instance{
				Budget: 2,
				Workers: []Worker{
					{ID: "a", Bid: Bid{Cost: 1, Frequency: 4}, Quality: 3},
				},
				Tasks: []Task{{ID: "t1", Threshold: 3}, {ID: "t2", Threshold: 3}, {ID: "t3", Threshold: 3}},
			},
			// x_ij is binary, so one worker serves each task at most once:
			// two tasks, one unit each, cost 2.
			want: 2,
		},
		{
			name: "threshold too high",
			in: Instance{
				Budget: 100,
				Workers: []Worker{
					{ID: "a", Bid: Bid{Cost: 1, Frequency: 5}, Quality: 2},
				},
				Tasks: []Task{{ID: "t", Threshold: 11}},
			},
			want: 0,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := ExactOPT(tt.in, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Errorf("ExactOPT = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestExactOPTTooLarge(t *testing.T) {
	in := paperInstance(stats.NewRNG(81), 40, 12, 100)
	if _, err := ExactOPT(in, paperConfig()); err == nil {
		t.Error("oversized instance accepted")
	}
}
