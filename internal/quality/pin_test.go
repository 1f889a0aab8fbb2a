package quality

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"melody/internal/lds"
	"melody/internal/stats"
)

// pinnedSeason drives a seeded 64-worker, 500-run season through m, either
// one Observe per worker or one ObserveBatch per run. Per run a worker gets
// no score (most often), a few scores, or — for a handful of workers — a
// long streak of silence, so the window holds empty runs, wraps many times
// and EM sees sparse histories.
func pinnedSeason(t *testing.T, m *Melody, batch bool) {
	t.Helper()
	r := stats.NewRNG(20170605)
	const workers, runs = 64, 500
	ids := make([]string, workers)
	level := make([]float64, workers)
	for i := range ids {
		ids[i] = fmt.Sprintf("w%02d", i)
		level[i] = r.Uniform(3, 8)
	}
	scores := make([][]float64, workers)
	for run := 0; run < runs; run++ {
		for i := range scores {
			scores[i] = scores[i][:0]
			if i%16 == 15 && run%100 < 70 {
				continue // long silent stretches
			}
			if r.Float64() < 0.6 {
				continue
			}
			level[i] += r.Normal(0, 0.05)
			for k, n := 0, 1+r.Intn(4); k < n; k++ {
				scores[i] = append(scores[i], level[i]+r.Normal(0, 1.5))
			}
		}
		if batch {
			if _, err := m.ObserveBatch(ids, scores, nil); err != nil {
				t.Fatalf("run %d: %v", run, err)
			}
			continue
		}
		for i, id := range ids {
			if err := m.Observe(id, scores[i]); err != nil {
				t.Fatalf("run %d: %v", run, err)
			}
		}
	}
}

// fmaProbe holds operands whose product is inexact, in a variable so the
// compiler cannot fold the probe.
var fmaProbe = [3]float64{1 + 0x1p-30, 1 + 0x1p-30, -1}

// fusesMultiplyAdd reports whether this build fuses x*y+z into a single
// rounding, which the Go spec allows on some architectures. The explicit
// conversion forces the product to round on its own.
func fusesMultiplyAdd() bool {
	x, y, z := fmaProbe[0], fmaProbe[1], fmaProbe[2]
	return x*y+z != float64(x*y)+z
}

// TestEstimatorStatePinned pins the estimator's full dynamic state after a
// seeded season, through both the serial and the batch (lane kernel) path, to hashes
// recorded before the per-worker state was slimmed down to model state.
// Any change to the filter, the window bookkeeping or the EM arithmetic
// that moves a single bit of any posterior, parameter, anchor or retained
// score changes the hash. The hashes were recorded on a build that rounds
// every operation; where the compiler fuses multiply-adds only the two
// paths are compared with each other.
func TestEstimatorStatePinned(t *testing.T) {
	base := MelodyConfig{
		Init:     lds.State{Mean: 5.5, Var: 2.25},
		Params:   lds.Params{A: 1, Gamma: 0.3, Eta: 9},
		EMPeriod: 10,
		EMWindow: 60,
	}
	for _, tc := range []struct {
		name string
		cfg  MelodyConfig
		want string
	}{
		{"period", base, "08ddeb1bd1c5bc82c26f9629c2ce35e2cb18f0eb0a6e4d9c3ac0d91828314c7c"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var blobs [2][]byte
			for i, batch := range []bool{false, true} {
				m, err := NewMelody(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				pinnedSeason(t, m, batch)
				if blobs[i], err = m.SnapshotState(); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(blobs[0], blobs[1]) {
				t.Fatal("ObserveBatch state differs from the serial Observe state")
			}
			sum := sha256.Sum256(blobs[0])
			got := hex.EncodeToString(sum[:])
			if fusesMultiplyAdd() {
				t.Logf("multiply-adds are fused on this build; snapshot hash %s not compared", got)
				return
			}
			if got != tc.want {
				t.Errorf("snapshot hash %s, want %s (%d bytes)", got, tc.want, len(blobs[0]))
			}
		})
	}
}
