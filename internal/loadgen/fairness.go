package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"melody"
	"melody/internal/verify"
)

const (
	// maxFairnessRatio is the acceptance bound on the max/min per-tenant
	// median close latency.
	maxFairnessRatio = 2.00
	// closeLatencyFloorMs guards the ratio's denominator: medians below
	// this are within scheduler-wakeup jitter, where a ratio stops
	// measuring the gate and starts measuring the OS.
	closeLatencyFloorMs = 0.02
)

// volley is the fairness scenario's close traffic shape: every tenant
// closes its run at once, launch order rotated per round so any positional
// bias in goroutine wakeup spreads evenly across tenants, and each close's
// latency and return position are recorded for its tenant.
func (p *pass) volley(round int, runs []string, outs []*melody.Outcome, latencies, positions [][]float64) error {
	ctx := context.Background()
	n := len(p.tenants)
	var returned atomic.Int32
	return parallel(n, func(k int) error {
		i := (round - 1 + k) % n
		start := time.Now()
		out, err := p.close(ctx, i, runs[i])
		elapsed := time.Since(start)
		positions[i] = append(positions[i], float64(returned.Add(1)-1))
		if err != nil {
			return err
		}
		latencies[i] = append(latencies[i], float64(elapsed.Microseconds())/1000)
		outs[i] = out
		return nil
	})
}

// RunFairness executes the weighted-fair close scheduling scenario. The
// identical workload runs once serially (tenant after tenant, ungated) and
// once with all tenants contending through a CloseConcurrency-wide fair
// gate, every round ending in a close volley. It reports the max/min ratio
// of per-tenant median close latency, asserts byte-identical outcomes
// across the passes, proves quota enforcement (quotas hold at every round
// boundary, over-quota opens are refused, scheduler spend matches the
// ledger to the cent) and reopens a WAL-backed mini-season through the
// same start to show quotas survive replay. Defaults: 8 tenants, 24
// rounds, 96 workers each (bigger pools make closes heavier, which is
// what the gate arbitrates: queue wait must dominate wakeup jitter), 32
// tasks, one bid per worker, gate capacity 1.
func RunFairness(sc Scenario) (Result, error) {
	res, _, err := fairness(sc)
	if err == nil && res.FairnessRatio > maxFairnessRatio {
		err = fmt.Errorf("loadgen: fairness ratio %.2f exceeds %.2f (medians %.3f..%.3f ms; per tenant: median close ms %.3f, mean volley position %.2f, median volley position %.1f, back-half volleys %d of %d)",
			res.FairnessRatio, maxFairnessRatio, res.MinMedianCloseMs, res.MaxMedianCloseMs, res.TenantMedianCloseMs,
			res.TenantMeanPosition, res.TenantMedianPosition, res.TenantBackHalf, res.RunsCompleted/res.Tenants)
	}
	return res, err
}

// fairness is RunFairness without the latency bound, a timing check, and
// also returns the gated pass's digests.
func fairness(sc Scenario) (Result, map[string]string, error) {
	sc = sc.withDefaults(Scenario{Tenants: 8, Runs: 24, Workers: 96, Tasks: 32, BidsPerWorker: 1, CloseConcurrency: 1})
	res := newResult(sc)
	ctx := context.Background()
	ts := tenants(sc)
	serial, err := runPass(sc, "serial", ts, false, (*pass).bidPhase, &res)
	if err != nil {
		return res, nil, err
	}

	p, err := newPass(sc, "gated", ts)
	if err != nil {
		return res, nil, err
	}
	defer p.st.close()
	latencies, positions := make([][]float64, sc.Tenants), make([][]float64, sc.Tenants)
	runs := make([]string, sc.Tenants)
	outs := make([]*melody.Outcome, sc.Tenants)
	start := time.Now()
	for round := 1; round <= sc.Runs; round++ {
		err := parallel(sc.Tenants, func(i int) error {
			var err error
			if runs[i], err = p.open(ctx, i, round); err != nil {
				return err
			}
			return p.bid(i, runs[i], (*pass).bidPhase)
		})
		if err == nil {
			err = p.volley(round, runs, outs, latencies, positions)
		}
		if err == nil {
			err = parallel(sc.Tenants, func(i int) error { return p.settle(ctx, i, runs[i], outs[i]) })
		}
		// Quota invariant at every round boundary, not just the end.
		if err == nil {
			err = verify.CheckTenantQuotas(tenantUsages(p.st.sched.TenantStatuses()))
		}
		if err != nil {
			return res, nil, fmt.Errorf("loadgen: gated round %d: %w", round, err)
		}
	}
	res.ElapsedSeconds = time.Since(start).Seconds()
	p.measure(&res)
	res.Speedup = res.SerialSeconds / res.ElapsedSeconds

	// Serial-equivalence: the gate may reorder waiting, never outcomes.
	if err := compareDigests(serial, p.digests, sc.Tenants*sc.Runs, "gated"); err != nil {
		return res, nil, err
	}
	res.OutcomesMatch = true

	// Fairness: max/min per-tenant median close latency.
	res.TenantMedianCloseMs = make([]float64, sc.Tenants)
	res.TenantMeanPosition = make([]float64, sc.Tenants)
	res.TenantMedianPosition = make([]float64, sc.Tenants)
	res.TenantBackHalf = make([]int, sc.Tenants)
	minMs, maxMs := math.Inf(1), 0.0
	for i, lats := range latencies {
		m := median(lats)
		res.TenantMedianCloseMs[i] = m
		sum := 0.0
		for _, pos := range positions[i] {
			sum += pos
			if int(pos) >= sc.Tenants/2 {
				res.TenantBackHalf[i]++
			}
		}
		res.TenantMeanPosition[i] = sum / float64(sc.Runs)
		res.TenantMedianPosition[i] = median(positions[i])
		minMs = math.Min(minMs, m)
		maxMs = math.Max(maxMs, m)
	}
	res.MinMedianCloseMs, res.MaxMedianCloseMs = minMs, maxMs
	res.FairnessRatio = maxMs / math.Max(minMs, closeLatencyFloorMs)

	// Money: scheduler spend accounting must match the ledger's requester
	// outflow exactly, and the books must balance.
	funding := sc.Budget * float64(sc.Tenants*sc.Runs)
	var totalSpent float64
	for _, st := range p.st.sched.TenantStatuses() {
		totalSpent += st.Spent
	}
	outflow := funding - p.st.money.Balance(melody.RequesterAccount)
	tol := math.Max(verify.SumTol, verify.SumTol*funding)
	res.SpentMatchesLedger = math.Abs(totalSpent-outflow) <= tol
	if !res.SpentMatchesLedger {
		return res, nil, fmt.Errorf("loadgen: tenant spend %v does not match ledger outflow %v", totalSpent, outflow)
	}
	p.books(&res)

	// Quota enforcement: lower every tenant's quota to its realized spend;
	// the next open must be refused with the typed sentinel.
	for _, t := range p.tenants {
		if err := lowerQuota(ctx, p.st, t.name, 1); err != nil {
			return res, nil, err
		}
		res.QuotaRefusals++
	}
	if err := verify.CheckTenantQuotas(tenantUsages(p.st.sched.TenantStatuses())); err != nil {
		return res, nil, err
	}
	if err := p.st.close(); err != nil {
		return res, nil, err
	}

	// Durability: quotas and usage must survive WAL replay.
	if err := replayCheck(sc); err != nil {
		return res, nil, err
	}
	res.ReplayConsistent = true

	res, err = verdict(res)
	return res, p.digests, err
}

// lowerQuota lowers tenant's quota to its realized spend and fails unless
// its next open is refused.
func lowerQuota(ctx context.Context, st *stack, tenant string, weight float64) error {
	status, err := st.sched.TenantStatus(tenant)
	if err != nil {
		return fmt.Errorf("loadgen: status %s: %w", tenant, err)
	}
	policy := melody.UnlimitedTenantPolicy()
	policy.BudgetQuota, policy.Weight = status.Spent, weight
	if err := st.local.SetTenantPolicy(ctx, tenant, policy); err != nil {
		return fmt.Errorf("loadgen: lower quota %s: %w", tenant, err)
	}
	return overQuotaOpen(ctx, st, tenant)
}

// overQuotaOpen opens one more run for tenant and fails unless it is
// refused with ErrQuotaExceeded.
func overQuotaOpen(ctx context.Context, st *stack, tenant string) error {
	err := st.local.OpenRun(ctx, tenant+"-over", tenant,
		[]melody.Task{{ID: tenant + "-over-t0", Threshold: 10}}, st.sc.Budget)
	if !errors.Is(err, melody.ErrQuotaExceeded) {
		return fmt.Errorf("loadgen: over-quota open on %s: got %v, want ErrQuotaExceeded", tenant, err)
	}
	return nil
}

// replayCheck drives a small WAL-backed season (2 tenants, 2 runs each),
// lowers one tenant's quota below its next open, and reopens the same log
// through the same start: the replayed stack must reconstruct identical
// tenant statuses, policies included, and still refuse the over-quota
// open.
func replayCheck(sc Scenario) error {
	dir, err := os.MkdirTemp("", "melody-fairness-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	small := sc
	small.Tenants, small.Runs, small.Workers = 2, 2, min(sc.Workers, 8)
	small.Backend, small.WALDir, small.Direct, small.CloseConcurrency = BackendWAL, dir, true, 0
	p, err := newPass(small, "replay", tenants(small))
	if err != nil {
		return err
	}
	defer p.st.close()
	ctx := context.Background()
	for i := range p.tenants {
		if err := p.season(ctx, i, (*pass).bidPhase); err != nil {
			return err
		}
	}
	// Lowering tenant0's quota is a logged policy event; its refusal is
	// what replay must preserve.
	victim := p.tenants[0].name
	if err := lowerQuota(ctx, p.st, victim, 0); err != nil {
		return fmt.Errorf("loadgen: before replay: %w", err)
	}
	before := p.st.sched.TenantStatuses()
	if err := p.st.close(); err != nil {
		return err
	}

	st, err := start(small, "replay")
	if err != nil {
		return fmt.Errorf("loadgen: replay: %w", err)
	}
	defer st.close()
	// Replay recomputes the money through the identical arithmetic, so
	// the statuses match exactly.
	after := st.sched.TenantStatuses()
	if !slices.Equal(before, after) {
		return fmt.Errorf("loadgen: replay diverged: tenant statuses %+v, want %+v", after, before)
	}
	if err := verify.CheckTenantQuotas(tenantUsages(after)); err != nil {
		return err
	}
	if err := overQuotaOpen(ctx, st, victim); err != nil {
		return fmt.Errorf("loadgen: after replay: %w", err)
	}
	return st.close()
}

// median returns the middle of xs (mean of the two middles when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}
