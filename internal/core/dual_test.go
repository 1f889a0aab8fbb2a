package core

import (
	"testing"

	"melody/internal/stats"
)

func TestNewMelodyDualValidation(t *testing.T) {
	if _, err := NewMelodyDual(Config{}, 1); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := NewMelodyDual(paperConfig(), 0); err == nil {
		t.Error("zero target accepted")
	}
	d, err := NewMelodyDual(paperConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if d.Target() != 3 || d.Name() != "MELODY-DUAL" {
		t.Errorf("Target/Name = %d/%s", d.Target(), d.Name())
	}
}

func TestDualStopsAtTarget(t *testing.T) {
	r := stats.NewRNG(90)
	in := paperInstance(r, 100, 50, 0) // budget ignored
	dual, _ := NewMelodyDual(paperConfig(), 5)
	out, err := dual.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Utility() != 5 {
		t.Errorf("utility = %d, want exactly the target 5", out.Utility())
	}
}

// TestDualMinimizesPaymentPrefix: the dual selects the cheapest candidate
// tasks, so its per-target spend equals the primal MELODY's cheapest
// prefix of the same length.
func TestDualMatchesPrimalCheapestPrefix(t *testing.T) {
	r := stats.NewRNG(91)
	in := paperInstance(r, 120, 60, 1e9) // effectively unlimited budget
	mel, _ := NewMelody(paperConfig())
	primal, err := mel.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if primal.Utility() < 8 {
		t.Fatalf("primal only satisfied %d tasks; need >= 8 for this test", primal.Utility())
	}
	target := 8
	dual, _ := NewMelodyDual(paperConfig(), target)
	dOut, err := dual.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	// The primal, with unlimited budget, accepts candidates in ascending
	// P_j too, so the first `target` selected tasks and payments coincide.
	var primalPrefix float64
	for _, p := range primal.TaskPayments[:target] {
		primalPrefix += p
	}
	if !almostEqual(dOut.TotalPayment, primalPrefix, testTol) {
		t.Errorf("dual payment %v != primal cheapest prefix %v", dOut.TotalPayment, primalPrefix)
	}
}

func TestDualShortfall(t *testing.T) {
	// Two workers can cover at most a couple of tasks; an absurd target
	// yields everything allocatable and Utility() < Target().
	in := Instance{
		Budget: 0,
		Workers: []Worker{
			{ID: "a", Bid: Bid{Cost: 1, Frequency: 1}, Quality: 3},
			{ID: "b", Bid: Bid{Cost: 1, Frequency: 1}, Quality: 3},
			{ID: "c", Bid: Bid{Cost: 2, Frequency: 1}, Quality: 2},
		},
		Tasks: []Task{
			{ID: "t1", Threshold: 6}, {ID: "t2", Threshold: 6}, {ID: "t3", Threshold: 6},
		},
	}
	dual, _ := NewMelodyDual(paperConfig(), 10)
	out, err := dual.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Utility() >= dual.Target() {
		t.Fatalf("expected shortfall, got %d", out.Utility())
	}
	if out.Utility() == 0 {
		t.Error("expected at least one allocatable task")
	}
}

func TestDualIndividualRationality(t *testing.T) {
	r := stats.NewRNG(92)
	for trial := 0; trial < 20; trial++ {
		in := paperInstance(r.Split(), 10+r.Intn(60), 5+r.Intn(40), 0)
		dual, _ := NewMelodyDual(paperConfig(), 1+r.Intn(10))
		out, err := dual.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		costs := make(map[string]float64)
		for _, w := range in.Workers {
			costs[w.ID] = w.Bid.Cost
		}
		for _, a := range out.Assignments {
			if a.Payment < costs[a.WorkerID]-testTol {
				t.Fatalf("trial %d: payment %v below cost %v", trial, a.Payment, costs[a.WorkerID])
			}
		}
	}
}
