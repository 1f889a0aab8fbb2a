package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"melody/internal/experiments"
)

// simPinSHA256 is the SHA-256 of the text output of every experiment but
// fig8, each rendered at scale 0.15 and seed 7 in the order -list prints
// them. fig8's numbers are wall-clock running times, so it cannot be
// pinned. The figures run the mechanisms, the estimators and the market
// loop, so a change to any of them that moves a number moves this digest;
// record a new value only with a change that means to move the figures.
const simPinSHA256 = "5a042e0b796410f9c5e8ab0a51203c7cefbde6a3708266d81735f476a8fc2ad2"

// TestSimulatorFiguresPinned renders the pinned experiments at GOMAXPROCS 1
// and 2: the parallel drivers must give byte-identical output at both.
func TestSimulatorFiguresPinned(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			h := sha256.New()
			for _, e := range experiments.All() {
				if e.ID == "fig8" {
					continue
				}
				if err := run([]string{"-scale", "0.15", "-seed", "7", e.ID}, h); err != nil {
					t.Fatalf("%s: %v", e.ID, err)
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != simPinSHA256 {
				t.Errorf("simulator output SHA-256 = %s, want %s", got, simPinSHA256)
			}
		})
	}
}
