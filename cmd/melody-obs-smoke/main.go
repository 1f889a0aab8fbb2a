// Command melody-obs-smoke is the observability end-to-end check behind
// `make obs-smoke`: it builds the real melody-platform binary, boots it with
// -metrics, a WAL and a funded ledger, drives one complete run through the
// HTTP client, then scrapes GET /metrics and GET /debug/traces off the side
// listener and fails unless the documented series and span names are
// present with sane values.
// It then boots the binary on the segmented engine (-wal-dir) with a
// snapshot after every record, drives the same run, stops the process and
// boots it again on the same directory: the reboot must restore the
// snapshot without replaying a record and serve the run's outcome
// unchanged. It needs no curl — the scrape is plain net/http.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"melody/internal/obs"
	"melody/internal/platform"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "melody-obs-smoke:", err)
		os.Exit(1)
	}
	fmt.Println("obs-smoke: ok")
}

func run() error {
	dir, err := os.MkdirTemp("", "melody-obs-smoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	bin := filepath.Join(dir, "melody-platform")
	build := exec.Command("go", "build", "-o", bin, "melody/cmd/melody-platform")
	build.Stdout, build.Stderr = os.Stdout, os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("build melody-platform: %w", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	n, err := boot(ctx, bin, "-wal", filepath.Join(dir, "smoke.wal"), "-fund", "1000")
	if err != nil {
		return err
	}
	defer n.kill()
	if err := driveRun(ctx, n.client); err != nil {
		return err
	}
	series, err := scrape(n.metrics + "/metrics")
	if err != nil {
		return err
	}
	if err := checkSeries(series); err != nil {
		return err
	}
	if err := checkTraces(n.metrics + "/debug/traces"); err != nil {
		return err
	}
	return checkSegmentedRestart(ctx, bin, filepath.Join(dir, "segwal"))
}

// node is one running melody-platform process.
type node struct {
	cmd     *exec.Cmd
	client  *platform.Client
	api     string // base URL of the public API
	metrics string // base URL of the side listener
}

// boot starts melody-platform with the given storage flags on fresh
// loopback ports and waits until it serves.
func boot(ctx context.Context, bin string, storage ...string) (*node, error) {
	apiAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	metricsAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", apiAddr, "-metrics", metricsAddr, "-log-level", "warn"}, storage...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start melody-platform: %w", err)
	}
	n := &node{cmd: cmd, api: "http://" + apiAddr, metrics: "http://" + metricsAddr}
	if n.client, err = platform.NewClient(n.api, nil); err == nil {
		err = waitReady(ctx, n.client)
	}
	if err != nil {
		n.kill()
		return nil, err
	}
	return n, nil
}

// stop interrupts the process and waits for its graceful exit.
func (n *node) stop() error {
	if err := n.cmd.Process.Signal(os.Interrupt); err != nil {
		return err
	}
	if err := n.cmd.Wait(); err != nil {
		return fmt.Errorf("melody-platform exit: %w", err)
	}
	return nil
}

// kill ends the process if it is still running.
func (n *node) kill() {
	_ = n.cmd.Process.Kill()
	_, _ = n.cmd.Process.Wait()
}

// checkSegmentedRestart gates the -wal-dir wiring: a snapshot lands while
// the run is served, and the reboot replays no record yet answers GET
// /v1/runs/r1/outcome with the body it had before the stop.
func checkSegmentedRestart(ctx context.Context, bin, dir string) error {
	storage := []string{"-wal-dir", dir, "-snapshot-every", "1"}
	n, err := boot(ctx, bin, storage...)
	if err != nil {
		return err
	}
	defer n.kill()
	if err := driveRun(ctx, n.client); err != nil {
		return err
	}
	series, err := scrape(n.metrics + "/metrics")
	if err != nil {
		return err
	}
	if got := series[obs.MetricWALSnapshotsTotal]; got < 1 {
		return fmt.Errorf("%s = %g before the stop, want >= 1", obs.MetricWALSnapshotsTotal, got)
	}
	before, err := get(n.api + "/v1/runs/r1/outcome")
	if err != nil {
		return err
	}
	if err := n.stop(); err != nil {
		return err
	}

	n2, err := boot(ctx, bin, storage...)
	if err != nil {
		return err
	}
	defer n2.kill()
	if series, err = scrape(n2.metrics + "/metrics"); err != nil {
		return err
	}
	if got, ok := series[obs.MetricWALRecoveryReplayedRecords]; !ok || got != 0 {
		return fmt.Errorf("%s = %g (present %v) after the reboot, want 0", obs.MetricWALRecoveryReplayedRecords, got, ok)
	}
	after, err := get(n2.api + "/v1/runs/r1/outcome")
	if err != nil {
		return err
	}
	if !bytes.Equal(after, before) {
		return fmt.Errorf("outcome of r1 after the reboot = %s, want %s", after, before)
	}
	return n2.stop()
}

// get fetches a URL's body, failing on any status but 200.
func get(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	return body, nil
}

// freeAddr grabs a loopback port the child can bind.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// waitReady polls /v1/status until the child is serving.
func waitReady(ctx context.Context, c *platform.Client) error {
	for {
		if _, err := c.Status(ctx); err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("platform never became ready: %w", ctx.Err())
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// driveRun pushes one complete run through the platform: register, open,
// bid, close, score, finish.
func driveRun(ctx context.Context, c *platform.Client) error {
	workers := []string{"w1", "w2", "w3"}
	for _, w := range workers {
		if err := c.RegisterWorker(ctx, w); err != nil {
			return err
		}
	}
	tasks := []platform.TaskSpec{{ID: "t1", Threshold: 10}, {ID: "t2", Threshold: 10}}
	run, err := c.OpenRunID(ctx, "", "", tasks, 100)
	if err != nil {
		return err
	}
	bids := make([]platform.BidRequest, len(workers))
	for i, w := range workers {
		bids[i] = platform.BidRequest{WorkerID: w, Cost: 1.2 + 0.1*float64(i), Frequency: 1}
	}
	res, err := run.SubmitBids(ctx, bids)
	if err != nil {
		return err
	}
	if err := res.Err(); err != nil {
		return fmt.Errorf("bid batch: %w", err)
	}
	out, err := run.CloseAuction(ctx)
	if err != nil {
		return err
	}
	for _, asg := range out.Assignments {
		if err := run.SubmitScore(ctx, asg.WorkerID, asg.TaskID, 7); err != nil {
			return err
		}
	}
	return run.FinishRun(ctx)
}

// scrape fetches and parses a Prometheus text exposition.
func scrape(url string) (map[string]float64, error) {
	body, err := get(url)
	if err != nil {
		return nil, err
	}
	return obs.ParseText(bytes.NewReader(body))
}

// checkSeries asserts the documented metric families are present and that
// the counters tied to the driven run carry the expected values.
func checkSeries(series map[string]float64) error {
	for _, fam := range []string{
		"melody_wal_commit_batch_size",
		"melody_wal_fsync_seconds",
		"melody_http_requests_total",
		"melody_client_retries_total",
		"melody_auction_duration_seconds",
		"melody_em_reestimate_seconds",
		"melody_em_unconverged_total",
		obs.MetricSpillBytes,
		obs.MetricSpillWriteErrorsTotal,
	} {
		if !obs.FamilyPresent(series, fam) {
			return fmt.Errorf("/metrics is missing family %s", fam)
		}
	}
	for key, want := range map[string]float64{
		`melody_http_requests_total{endpoint="register_worker"}`: 3,
		`melody_http_requests_total{endpoint="open_run"}`:        1,
		`melody_http_requests_total{endpoint="bid_batch"}`:       1,
		`melody_http_requests_total{endpoint="close"}`:           1,
		`melody_http_requests_total{endpoint="finish"}`:          1,
		`melody_runs_completed_total`:                            1,
	} {
		if got := series[key]; got != want {
			return fmt.Errorf("%s = %g, want %g", key, got, want)
		}
	}
	if got := series["melody_wal_commits_total"]; got <= 0 {
		return fmt.Errorf("melody_wal_commits_total = %g, want > 0", got)
	}
	// The run wrote its escrow, payments and refund after the boot deposit,
	// and the journal encodes each entry in well under the 48 bytes a
	// fixed record took.
	entries, bytes := series[obs.MetricLedgerEntries], series[obs.MetricLedgerJournalBytes]
	if entries < 4 || !(bytes > 0 && bytes < 48*entries) {
		return fmt.Errorf("%s = %g and %s = %g, want at least 4 entries in under 48 bytes each",
			obs.MetricLedgerEntries, entries, obs.MetricLedgerJournalBytes, bytes)
	}
	// The finished run was folded into the archive, well under 1 KB.
	runs, archive := series["melody_runs_completed_total"], series[obs.MetricRunArchiveBytes]
	if !(archive > 0 && archive < 1024*runs) {
		return fmt.Errorf("%s = %g after %g finished runs, want above 0 and under 1 KB per run",
			obs.MetricRunArchiveBytes, archive, runs)
	}
	return nil
}

// checkTraces asserts the span ring serves JSON and recorded the run's
// lifecycle spans.
func checkTraces(url string) error {
	body, err := get(url)
	if err != nil {
		return err
	}
	var tr obs.TracesResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		return fmt.Errorf("decode /debug/traces: %w", err)
	}
	seen := make(map[string]bool, len(tr.Spans))
	for _, sp := range tr.Spans {
		seen[sp.Name] = true
	}
	for _, name := range []string{"run.bidding", "run.scoring", "auction.run", "run.finish", "wal.commit"} {
		if !seen[name] {
			return fmt.Errorf("/debug/traces is missing span %q (have %v)", name, seen)
		}
	}
	if tr.Total < uint64(len(tr.Spans)) {
		return fmt.Errorf("trace total %d < retained %d", tr.Total, len(tr.Spans))
	}
	return nil
}
