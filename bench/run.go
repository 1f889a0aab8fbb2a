package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"melody"
	"melody/internal/platform"
	"melody/internal/verify"
)

// metric is one measured value with its unit and sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

type metricJSON struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
	N     int      `json:"n"`
}

// MarshalJSON writes a value JSON cannot carry (NaN, an infinity) as null.
func (m metric) MarshalJSON() ([]byte, error) {
	out := metricJSON{Unit: m.Unit, N: m.N}
	if !math.IsNaN(m.Value) && !math.IsInf(m.Value, 0) {
		out.Value = &m.Value
	}
	return json.Marshal(out)
}

// UnmarshalJSON reads a null value back as NaN.
func (m *metric) UnmarshalJSON(data []byte) error {
	var in metricJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	*m = metric{Value: math.NaN(), Unit: in.Unit, N: in.N}
	if in.Value != nil {
		m.Value = *in.Value
	}
	return nil
}

// check is one correctness check and its outcome.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// passResult is one pass over a workload: set-ups on the history, then the
// driven window, then the end-of-workload state.
type passResult struct {
	setups []float64 // seconds per set-up
	decode float64   // seconds for eventlog.ReadAll over the history
	loads  []*tenantLoad

	// Window: the closed loop's runs, or the open loop's arrivals.
	wall       float64 // seconds
	cpu        float64 // process CPU seconds
	windowReqs int
	walBytes   int64 // log growth
	rt0, rt1   map[string]float64

	// Drive: the window plus the open loop's untimed open and finish.
	reg0, reg1     map[string]float64
	ledgerEntries  int
	heap           float64 // live heap bytes after GC, stack still up
	tally0, tally1 tallies // traced pass only
	durable, order [nEndpoints]float64
}

func (pr *passResult) ops() []float64 {
	var all []float64
	for _, l := range pr.loads {
		all = append(all, l.ops...)
	}
	sort.Float64s(all)
	return all
}

func (pr *passResult) latencies(ep int) []float64 {
	var all []float64
	for _, l := range pr.loads {
		all = append(all, l.lat[ep]...)
	}
	sort.Float64s(all)
	return all
}

func (pr *passResult) reqs() (attempted, failed int) {
	for _, l := range pr.loads {
		attempted += l.reqs
		failed += l.failed
	}
	return attempted, failed
}

func (pr *passResult) delta(series string) float64 { return pr.reg1[series] - pr.reg0[series] }

// checker collects correctness checks.
type checker struct{ checks []check }

func (c *checker) add(name string, ok bool, format string, args ...any) {
	c.checks = append(c.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (c *checker) ok() bool {
	for _, ch := range c.checks {
		if !ch.OK {
			return false
		}
	}
	return true
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// pass boots the stack on fresh copies of the history p.setups times and
// checks the recovered state; it drives the workload through one of the
// boots and checks the end state. Half the boots come before the window
// and half after it, so a burst of host noise rarely spans most of them.
// tr, when non-nil, makes it the traced pass.
func (p *plan) pass(dir, histPath string, hist [][]digest, rt http.RoundTripper, closeIdle func(), tr *tracer, ck *checker, label string) (*passResult, error) {
	walPath := filepath.Join(dir, label+".wal")
	hc := &http.Client{Transport: rt, Timeout: time.Minute}
	pr := &passResult{}
	want := p.tenants * p.history
	wrongRuns := 0
	boot := func() (*stack, error) {
		if err := copyFile(histPath, walPath); err != nil {
			return nil, err
		}
		// Start every set-up from the same collected heap, so one boot's
		// garbage is not charged to the next.
		runtime.GC()
		st, d, err := bootStack(walPath, p.fund(), hc, tr)
		if err != nil {
			return nil, err
		}
		pr.setups = append(pr.setups, d.Seconds())
		if st.sched.CompletedRuns() != want {
			wrongRuns++
		}
		return st, nil
	}
	probe := func(n int) error {
		for k := 0; k < n; k++ {
			st, err := boot()
			if err != nil {
				return err
			}
			err = st.stop()
			closeIdle()
			if err != nil {
				return err
			}
		}
		return nil
	}
	before := (p.setups + 1) / 2
	if err := probe(before - 1); err != nil {
		return nil, err
	}
	st, err := boot()
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = st.stop()
		}
		closeIdle()
	}()

	decode, err := decodeHistory(walPath)
	if err != nil {
		return nil, err
	}
	pr.decode = decode.Seconds()
	bad := 0
	for t := range hist {
		for i, d := range hist[t] {
			info, err := st.sched.Run(runID(t, i))
			if err != nil || info.Outcome == nil || coreDigest(info.Outcome) != d {
				bad++
			}
		}
	}
	ck.add(label+".recovered_outcomes", bad == 0,
		"%d of %d recovered history outcomes differ from the acknowledged digests", bad, want)

	clients := make([]*platform.Client, p.tenants)
	for t := range clients {
		if clients[t], err = newClient(st.baseURL, hc); err != nil {
			return nil, err
		}
	}
	if pr.reg0, err = scrape(st.metrics); err != nil {
		return nil, err
	}
	entries0 := len(st.money.Entries())
	if tr != nil {
		pr.tally0 = tr.snapshot()
		runtime.SetBlockProfileRate(1) // record every blocking event
	}
	var start time.Time
	var cpu0 float64
	var wal0 int64
	window := func(begin bool) {
		if begin {
			runtime.GC()
			pr.rt0, cpu0, wal0, start = readRuntime(), cpuSeconds(), fileSize(walPath), time.Now()
			return
		}
		pr.wall = time.Since(start).Seconds()
		pr.cpu = cpuSeconds() - cpu0
		pr.walBytes = fileSize(walPath) - wal0
		pr.rt1 = readRuntime()
	}
	if p.openRate > 0 {
		pr.loads = p.openLoop(clients, tr, window)
		for _, l := range pr.loads {
			pr.windowReqs += len(l.late)
		}
	} else {
		window(true)
		pr.loads = p.closedLoop(clients, tr)
		window(false)
		pr.windowReqs, _ = pr.reqs()
	}
	if tr != nil {
		runtime.SetBlockProfileRate(0)
		pr.tally1 = tr.snapshot()
		if pr.durable, pr.order, err = blockWaits(); err != nil {
			return nil, err
		}
	}
	if pr.reg1, err = scrape(st.metrics); err != nil {
		return nil, err
	}
	pr.ledgerEntries = len(st.money.Entries()) - entries0
	// The second collection empties the sync.Pool victim caches the first
	// one fills, so the pooled codec buffers, whose number depends on
	// timing, do not count as retained state.
	runtime.GC()
	runtime.GC()
	pr.heap = readRuntime()[rtHeapLive]

	if p.openRate > 0 {
		// Arrivals are in due order, so each tenant's last tenth is the end
		// of the window.
		var all, end []float64
		for _, l := range pr.loads {
			all = append(all, l.backlog...)
			end = append(end, l.backlog[len(l.backlog)*9/10:]...)
		}
		sort.Float64s(all)
		sort.Float64s(end)
		endMedian := percentile(end, 50)
		ck.add(label+".open_backlog", endMedian <= ms(openBacklogLimit),
			"median wait for the previous response past an arrival's due time over the window's last tenth %.3f ms (limit %v); whole window p99 %.3f ms, longest %.3f ms",
			endMedian, openBacklogLimit, percentile(all, 99), percentile(all, 100))
	}
	attempted, failed := pr.reqs()
	var first error
	for _, l := range pr.loads {
		if l.err != nil {
			first = l.err
			break
		}
	}
	ck.add(label+".requests", failed == 0 && attempted > 0, "%d of %d requests failed; first failure: %v", failed, attempted, first)

	// Every run has finished: settle the epoch remainder, then hold the
	// ledger and the tenants' spend accounting to their invariants.
	if err := st.sched.Flush(); err != nil {
		ck.add(label+".flush", false, "%v", err)
	}
	money := st.money
	for _, c := range []struct {
		name string
		err  error
	}{
		{"money_conservation", verify.CheckMoneyConservation(money)},
		{"escrow_settled", verify.CheckEscrowSettled(money)},
		{"settlement_drained", verify.CheckSettlementDrained(money)},
		{"tenant_quotas", verify.CheckTenantQuotas(tenantUsages(st.sched.TenantStatuses()))},
	} {
		ck.add(label+"."+c.name, c.err == nil, "%v", errOrOK(c.err))
	}
	stopped = true
	err = st.stop()
	closeIdle()
	// Let the served stack be collected, so that the set-ups after the
	// window start from as small a heap as the ones before it.
	st = nil
	if err != nil {
		return nil, err
	}
	if err := probe(p.setups - before); err != nil {
		return nil, err
	}
	ck.add(label+".recovered_runs", wrongRuns == 0,
		"%d of %d boots did not recover CompletedRuns() = %d", wrongRuns, p.setups, want)
	return pr, nil
}

func errOrOK(err error) any {
	if err == nil {
		return "ok"
	}
	return err
}

// tenantUsages adapts the scheduler's tenant statuses to the checker's
// neutral shape.
func tenantUsages(statuses []melody.TenantStatus) []verify.TenantUsage {
	usages := make([]verify.TenantUsage, 0, len(statuses))
	for _, st := range statuses {
		u := verify.TenantUsage{Tenant: st.Tenant, Spent: st.Spent, Escrowed: st.Escrowed, RunsOpened: st.RunsOpened}
		if st.HasPolicy {
			if q := st.Policy.BudgetQuota; q >= 0 {
				u.HasQuota, u.Quota = true, q
			}
			u.MaxRuns = st.Policy.MaxRuns
		}
		usages = append(usages, u)
	}
	return usages
}

// checkDigests compares a pass's window outcomes with the reference.
func (p *plan) checkDigests(ck *checker, label string, pr *passResult, ref [][]digest) {
	bad, total := 0, 0
	for t, l := range pr.loads {
		total += p.window
		if len(l.digests) != p.window {
			bad += p.window - len(l.digests)
		}
		for k, d := range l.digests {
			if k >= p.window || d != ref[t][p.history+k] {
				bad++
			}
		}
	}
	ck.add(label+".outcome_digests", bad == 0, "%d of %d window outcomes differ from the serial reference", bad, total)
}

// measurement is everything one invocation measured.
type measurement struct {
	attempted, failed int
	checks            *checker
	metrics           map[string]metric // every metric the benchmark can report
	budget            *[nEndpoints]layerRow
	tracer            *tracer
}

// measure runs one workload: history, the untraced pass and, with trace,
// the traced pass; then the serial reference and the checks.
func measure(p plan, dir string, trace bool) (*measurement, error) {
	nproc := runtime.NumCPU()
	base := &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc, MaxIdleConns: nproc}
	defer base.CloseIdleConnections()
	ck := &checker{}
	m := &measurement{checks: ck, metrics: map[string]metric{}}
	histPath := filepath.Join(dir, "history.wal")
	began := time.Now()
	hist, err := p.writeHistory(histPath)
	if err != nil {
		return nil, fmt.Errorf("bench: write history: %w", err)
	}
	put(m.metrics, "time.history_s", time.Since(began).Seconds(), "s", 1)
	put(m.metrics, "eventlog.history_mb", float64(fileSize(histPath))/1e6, "MB", 1)
	u, err := p.pass(dir, histPath, hist, base, base.CloseIdleConnections, nil, ck, "untraced")
	if err != nil {
		return nil, fmt.Errorf("bench: untraced pass: %w", err)
	}
	var t *passResult
	if trace {
		m.tracer = newTracer()
		rt := &tagTransport{next: base, tr: m.tracer}
		if t, err = p.pass(dir, histPath, hist, rt, base.CloseIdleConnections, m.tracer, ck, "traced"); err != nil {
			return nil, fmt.Errorf("bench: traced pass: %w", err)
		}
	}
	began = time.Now()
	ref, err := p.reference()
	if err != nil {
		return nil, err
	}
	put(m.metrics, "time.reference_s", time.Since(began).Seconds(), "s", 1)
	bad := 0
	for ti := range hist {
		for i, d := range hist[ti] {
			if d != ref[ti][i] {
				bad++
			}
		}
	}
	ck.add("history_digests", bad == 0, "%d of %d history outcomes differ from the serial reference", bad, p.tenants*p.history)
	p.checkDigests(ck, "untraced", u, ref)
	m.attempted, m.failed = u.reqs()
	if t != nil {
		p.checkDigests(ck, "traced", t, ref)
		same := len(u.loads) == len(t.loads)
		for i := 0; same && i < len(u.loads); i++ {
			same = slices.Equal(u.loads[i].digests, t.loads[i].digests)
		}
		ck.add("traced_equals_untraced", same, "traced pass outcomes equal the untraced pass: %v", same)
		a, f := t.reqs()
		m.attempted += a
		m.failed += f
	}
	p.userMetrics(m.metrics, u)
	if t != nil {
		rows := p.perLayer(m.metrics, u, t)
		m.budget = &rows
	}
	return m, nil
}

func put(out map[string]metric, name string, v float64, unit string, n int) {
	out[name] = metric{Value: v, Unit: unit, N: n}
}

// userMetrics computes what a user of the stack sees, from the untraced
// pass; BENCHMARK.json decides which of them are gated end-to-end metrics.
// An operation is a whole run (open to finish acknowledgement) in the
// closed loops and one bid in the open loop (see openLoop for how its
// latency is timed).
func (p *plan) userMetrics(out map[string]metric, u *passResult) {
	ops := u.ops()
	put(out, "ops_per_s", ratio(float64(len(ops)), u.wall), "1/s", len(ops))
	for _, q := range []float64{50, 90, 99} {
		put(out, fmt.Sprintf("op_ms_p%g", q), percentile(ops, q), "ms", len(ops))
	}
	put(out, "cpu_us_per_req", ratio(u.cpu*1e6, float64(u.windowReqs)), "us", u.windowReqs)
	put(out, "heap_mb", u.heap/1e6, "MB", 1)
	put(out, "setup_s", median(u.setups), "s", len(u.setups))
	put(out, "setup_s_min", slices.Min(u.setups), "s", len(u.setups))
	put(out, "setup_s_max", slices.Max(u.setups), "s", len(u.setups))
	put(out, "time.window_s", u.wall, "s", 1)
	attempted, failed := u.reqs()
	put(out, "error_rate", ratio(float64(failed), float64(attempted)), "ratio", attempted)
	for e := 0; e < nEndpoints; e++ {
		lat := u.latencies(e)
		for _, q := range []float64{50, 90, 99} {
			put(out, fmt.Sprintf("phase.%s_ms_p%g", endpointNames[e], q), percentile(lat, q), "ms", len(lat))
		}
	}
	var late, backlog []float64
	for _, l := range u.loads {
		late = append(late, l.late...)
		backlog = append(backlog, l.backlog...)
	}
	if len(late) > 0 {
		sort.Float64s(late)
		sort.Float64s(backlog)
		put(out, "gen.late_ms_p50", percentile(late, 50), "ms", len(late))
		put(out, "gen.late_ms_p99", percentile(late, 99), "ms", len(late))
		put(out, "gen.backlog_ms_p99", percentile(backlog, 99), "ms", len(backlog))
	}
}

// perLayer computes the single-layer metrics. Those that need the
// decorators or the block profile come from the traced pass t; the rest
// read what the deployed stack already exposes and come from the
// untraced pass u.
func (p *plan) perLayer(out map[string]metric, u, t *passResult) [nEndpoints]layerRow {
	auctionT := t.delta("melody_auction_duration_seconds_sum")
	rows := layerBudget(t.tally0, t.tally1, t.durable, t.order, auctionT)
	for e, r := range rows {
		n := int(r.n)
		name := endpointNames[e]
		put(out, "client.ms_mean."+name, r.client, "ms", n)
		put(out, "transport.ms_mean."+name, r.transport, "ms", n)
		put(out, "platform.self_ms_mean."+name, r.self, "ms", n)
		put(out, "backend.ms_mean."+name, r.backend, "ms", n)
		put(out, "eventlog.order_wait_ms_mean."+name, r.orderWait, "ms", n)
		put(out, "eventlog.durable_wait_ms_mean."+name, r.durableWait, "ms", n)
		put(out, "backend.remainder_ms_mean."+name, r.remainder, "ms", n)
	}
	tReqs, _ := t.reqs()
	uReqs, _ := u.reqs()
	var durable, order float64
	for e := 0; e < nEndpoints; e++ {
		durable += t.durable[e]
		order += t.order[e]
	}
	commits := u.delta("melody_wal_commits_total")
	put(out, "eventlog.fsync_ms_mean", 1e3*ratio(u.delta("melody_wal_fsync_seconds_sum"), u.delta("melody_wal_fsync_seconds_count")), "ms", int(commits))
	put(out, "eventlog.records_per_commit", ratio(u.delta("melody_wal_appends_total"), commits), "count", int(commits))
	put(out, "eventlog.commits_per_req", ratio(commits, float64(uReqs)), "count", uReqs)
	ops := len(u.ops())
	put(out, "eventlog.bytes_per_op", ratio(float64(u.walBytes), float64(ops)), "B", ops)
	put(out, "eventlog.durable_wait_ms_per_req", ratio(durable*1e3, float64(tReqs)), "ms", tReqs)
	put(out, "eventlog.order_wait_ms_per_req", ratio(order*1e3, float64(tReqs)), "ms", tReqs)
	put(out, "eventlog.replay_decode_s", u.decode, "s", 1)
	put(out, "eventlog.replay_apply_s", median(u.setups)-u.decode, "s", len(u.setups))
	auctions := u.delta("melody_auction_duration_seconds_count")
	put(out, "core.auction_ms_mean", 1e3*ratio(u.delta("melody_auction_duration_seconds_sum"), auctions), "ms", int(auctions))
	closeBackend := float64(t.tally1.backend[epClose][0]-t.tally0.backend[epClose][0]) / 1e9
	put(out, "core.auction_share_of_close", ratio(auctionT, closeBackend), "ratio", int(rows[epClose].n))
	observes := float64(t.tally1.observe[1] - t.tally0.observe[1])
	finishes := float64(t.tally1.backend[epFinish][1] - t.tally0.backend[epFinish][1])
	put(out, "quality.observe_us_mean", ratio(float64(t.tally1.observe[0]-t.tally0.observe[0])/1e3, observes), "us", int(observes))
	put(out, "quality.observes_per_finish", ratio(observes, finishes), "count", int(finishes))
	ems := u.delta("melody_em_reestimate_seconds_count")
	put(out, "quality.em_ms_mean", 1e3*ratio(u.delta("melody_em_reestimate_seconds_sum"), ems), "ms", int(ems))
	put(out, "quality.em_count", u.delta("melody_em_runs_total"), "count", 1)
	runs := len(u.latencies(epFinish))
	put(out, "ledger.entries_per_run", ratio(float64(u.ledgerEntries), float64(runs)), "count", runs)
	put(out, "runtime.gc_cpu_share", ratio(u.rt1[rtGCCPU]-u.rt0[rtGCCPU], u.rt1[rtTotalCPU]-u.rt0[rtTotalCPU]), "ratio", 1)
	put(out, "runtime.alloc_kb_per_req", ratio((u.rt1[rtAllocs]-u.rt0[rtAllocs])/1024, float64(u.windowReqs)), "KiB", u.windowReqs)
	put(out, "trace.overhead_cpu_ratio", ratio(ratio(t.cpu, float64(t.windowReqs)), ratio(u.cpu, float64(u.windowReqs))), "ratio", t.windowReqs)
	return rows
}
