package loadgen

import "testing"

// TestRunSmoke drives a short seeded load run against each backend and
// checks the harness reports real work: nonzero bids, positive throughput,
// populated percentiles, clean shutdown (Run errors on anything else).
func TestRunSmoke(t *testing.T) {
	for _, backend := range []string{BackendMem, BackendWAL} {
		t.Run(backend, func(t *testing.T) {
			res, err := Run(Config{
				Backend: backend, Workers: 4, Runs: 2, Tasks: 2,
				BidsPerWorker: 3, Batch: 2, Seed: 7,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Bids != 4*2*3 {
				t.Errorf("Bids = %d, want %d", res.Bids, 4*2*3)
			}
			if res.BidsPerSec <= 0 {
				t.Errorf("BidsPerSec = %v, want > 0", res.BidsPerSec)
			}
			if res.Latency.N == 0 || res.Latency.P99 < res.Latency.P50 {
				t.Errorf("latency summary inconsistent: %+v", res.Latency)
			}
		})
	}
}

func TestRunUnknownBackend(t *testing.T) {
	if _, err := Run(Config{Backend: "floppy"}); err == nil {
		t.Error("unknown backend accepted")
	}
}

// TestRunObserveMetricsMatchTallies runs an instrumented load run and
// cross-checks the scraped /metrics series against the generator's own
// bookkeeping: every bid the generator sent must appear in the server's
// per-endpoint request counters, every run it drove in the runs-completed
// counter, and the WAL's append counter must count one record per accepted
// mutation request.
func TestRunObserveMetricsMatchTallies(t *testing.T) {
	const workers, runs, tasks, bidsPer, batch = 4, 2, 2, 4, 2
	res, err := Run(Config{
		Backend: BackendWAL, Workers: workers, Runs: runs, Tasks: tasks,
		BidsPerWorker: bidsPer, Batch: batch, Seed: 7, Observe: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil {
		t.Fatal("Observe run returned no metrics scrape")
	}

	// Each worker splits bidsPer bids into ceil(bidsPer/batch) batch POSTs
	// per run.
	perWorkerPosts := (bidsPer + batch - 1) / batch
	wantBatchPosts := float64(workers * runs * perWorkerPosts)
	if got := res.Metrics[`melody_http_requests_total{endpoint="bid_batch"}`]; got != wantBatchPosts {
		t.Errorf("bid_batch requests = %g, want %g", got, wantBatchPosts)
	}
	for endpoint, want := range map[string]float64{
		"register_worker": workers,
		"open_run":        runs,
		"close":           runs,
		"finish":          runs,
		"score_batch":     runs,
	} {
		key := `melody_http_requests_total{endpoint="` + endpoint + `"}`
		if got := res.Metrics[key]; got != want {
			t.Errorf("%s = %g, want %g", key, got, want)
		}
	}
	if got := res.Metrics["melody_runs_completed_total"]; got != float64(runs) {
		t.Errorf("melody_runs_completed_total = %g, want %d", got, runs)
	}

	// The WAL holds one record per accepted mutation request: each
	// registration, open, bid batch, score batch, close and finish.
	wantAppends := float64(workers + runs*(1+workers*perWorkerPosts+1+2))
	if got := res.Metrics["melody_wal_appends_total"]; got != wantAppends {
		t.Errorf("melody_wal_appends_total = %g, want %g", got, wantAppends)
	}
	if got := res.Metrics["melody_wal_commits_total"]; got <= 0 || got > res.Metrics["melody_wal_appends_total"] {
		t.Errorf("melody_wal_commits_total = %g, want in (0, appends]", got)
	}

	// The span ring saw the run lifecycle.
	want := map[string]bool{"run.bidding": false, "run.scoring": false, "auction.run": false, "run.finish": false, "wal.commit": false}
	for _, st := range res.TraceSummary {
		if _, ok := want[st.Name]; ok {
			want[st.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("trace summary is missing span %q (have %+v)", name, res.TraceSummary)
		}
	}
}
