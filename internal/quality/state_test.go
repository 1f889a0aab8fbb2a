package quality

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"melody/internal/lds"
	"melody/internal/stats"
)

// TestPerWorkerFootprint guards the retained heap per tracked worker. A
// worker keeps only model state (posterior, theta, window anchor, counters
// and its score window); the smoother/EM buffers, the chronological view
// and the innovations buffer are estimator scratch shared by every worker.
// The shape mirrors one tenant of a large deployment: 2,000 workers, the
// paper's EM period and a 60-run window, about a tenth of the pool scored
// per run.
func TestPerWorkerFootprint(t *testing.T) {
	const (
		workers  = 2000
		runs     = 120
		limitKiB = 1.5
	)
	ids := make([]string, workers)
	for i := range ids {
		ids[i] = fmt.Sprintf("worker-%04d", i)
	}
	r := stats.NewRNG(11)
	scratch := make([]float64, 0, 4)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)

	m, err := NewMelody(MelodyConfig{
		Init:     lds.State{Mean: 5.5, Var: 2.25},
		Params:   lds.Params{A: 1, Gamma: 0.3, Eta: 9},
		EMPeriod: 10,
		EMWindow: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < runs; run++ {
		for _, id := range ids {
			scores := scratch[:0]
			if r.Float64() < 0.1 {
				for k, n := 0, 1+r.Intn(2); k < n; k++ {
					scores = append(scores, r.Uniform(3, 8))
				}
			}
			if err := m.Observe(id, scores); err != nil {
				t.Fatal(err)
			}
		}
	}

	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	perWorker := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / workers
	t.Logf("retained heap: %.0f B per worker (%d workers, %d runs, window 60)", perWorker, workers, runs)
	if perWorker > limitKiB*1024 {
		t.Errorf("retained heap %.0f B per worker exceeds %.1f KiB", perWorker, limitKiB)
	}
}

// TestConcurrentReadPaths runs the read paths the platform calls under a
// read lock — SnapshotState, Estimate, Forecast, Posterior, Params — from
// several goroutines at once. Under -race this fails if any of them writes
// shared scratch. The window has wrapped, so a ring's chronological order
// differs from its storage order.
func TestConcurrentReadPaths(t *testing.T) {
	cfg := batchTestConfig()
	cfg.EMWindow = 10
	m, err := NewMelody(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(5)
	ids := []string{"a", "b", "c", "d"}
	for run := 0; run < 47; run++ {
		for i, id := range ids {
			var scores []float64
			for k := 0; k < (run+i)%3; k++ {
				scores = append(scores, r.Normal(5, 2))
			}
			if err := m.Observe(id, scores); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, err := m.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, "unknown")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				blob, err := m.SnapshotState()
				if err != nil || !bytes.Equal(blob, want) {
					t.Errorf("goroutine %d: concurrent snapshot differs (err %v)", g, err)
					return
				}
				for _, id := range ids {
					est := m.Estimate(id)
					f, err := m.Forecast(id, 1)
					if err != nil || f.Mean != est {
						t.Errorf("goroutine %d: worker %s forecast %+v (err %v), estimate %v", g, id, f, err, est)
						return
					}
					m.Posterior(id)
					m.Params(id)
				}
			}
		}(g)
	}
	wg.Wait()
}
