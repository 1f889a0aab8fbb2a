package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"melody"
	"melody/internal/eventlog"
	"melody/internal/platform"
	"melody/internal/verify"
)

// FairnessConfig parameterizes the weighted-fair close scheduling scenario:
// N equal-weight tenants, each driving one run per round against a single
// scheduler whose close gate admits CloseConcurrency auction closes at a
// time. Every round all tenants close simultaneously, so the gate — not
// tenant luck — decides who waits.
type FairnessConfig struct {
	// Tenants is the number of contending tenants (default 8).
	Tenants int
	// Rounds is how many runs each tenant drives; each round ends in a
	// synchronized close volley. More rounds smooth scheduling noise out
	// of the per-tenant close-latency medians (default 24).
	Rounds int
	// WorkersPerTenant sizes each tenant's bidder pool; bigger pools make
	// the close computation heavier, which is what the gate arbitrates —
	// queue wait must dominate goroutine-wakeup jitter for the latency
	// ratio to measure the gate rather than the OS (default 96).
	WorkersPerTenant int
	// Tasks per run; like the pool size, it scales close weight
	// (default 32).
	Tasks int
	// Budget per run (default 200). Every tenant's lifetime quota is set
	// to exactly Rounds*Budget, so the whole season fits and nothing more.
	Budget float64
	// Seed drives worker costs; both passes reuse the same draws.
	Seed int64
	// CloseConcurrency is the gate capacity (default 1: fully serialized
	// closes, maximum contention).
	CloseConcurrency int
	// MaxRatio is the acceptance bound on max/min median close latency
	// across tenants (default 2).
	MaxRatio float64
}

// withDefaults fills zero fields.
func (c FairnessConfig) withDefaults() FairnessConfig {
	if c.Tenants <= 0 {
		c.Tenants = 8
	}
	if c.Rounds <= 0 {
		c.Rounds = 24
	}
	if c.WorkersPerTenant <= 0 {
		c.WorkersPerTenant = 96
	}
	if c.Tasks <= 0 {
		c.Tasks = 32
	}
	if c.Budget <= 0 {
		c.Budget = 200
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.CloseConcurrency <= 0 {
		c.CloseConcurrency = 1
	}
	if c.MaxRatio <= 0 {
		c.MaxRatio = 2
	}
	return c
}

// FairnessResult is what the fairness scenario measured and proved.
type FairnessResult struct {
	Tenants          int `json:"tenants"`
	Rounds           int `json:"rounds"`
	TotalRuns        int `json:"total_runs"`
	CloseConcurrency int `json:"close_concurrency"`
	// MinMedianCloseMs and MaxMedianCloseMs are the extremes of the
	// per-tenant median close latency under contention; FairnessRatio is
	// their ratio (the acceptance metric).
	MinMedianCloseMs float64 `json:"min_median_close_ms"`
	MaxMedianCloseMs float64 `json:"max_median_close_ms"`
	FairnessRatio    float64 `json:"fairness_ratio"`
	// TenantMedianCloseMs, TenantMeanPosition and TenantMedianPosition
	// hold, per tenant, the median close latency and the mean and median
	// position (0 = first) at which the tenant's close returned within its
	// volley; TenantBackHalf counts the volleys in which it returned in
	// the back half (positions Tenants/2 and later: 4-7 of 8). At gate
	// capacity 1 the return order is the gate's admission order. A median
	// latency follows how often a tenant lands in the back half, which the
	// mean position hides.
	TenantMedianCloseMs  []float64 `json:"tenant_median_close_ms"`
	TenantMeanPosition   []float64 `json:"tenant_mean_position"`
	TenantMedianPosition []float64 `json:"tenant_median_position"`
	TenantBackHalf       []int     `json:"tenant_back_half"`
	// OutcomesMatch reports byte-identical per-run outcomes between the
	// serial and concurrent passes — the gate reorders waiting, never
	// results.
	OutcomesMatch bool `json:"outcomes_match"`
	// QuotaRefusals counts over-quota opens refused with ErrQuotaExceeded
	// after each tenant's quota was lowered to its realized spend; it must
	// equal Tenants.
	QuotaRefusals int `json:"quota_refusals"`
	// SpentMatchesLedger reports that the scheduler's per-tenant spend
	// accounting sums exactly (within tolerance) to the requester's ledger
	// outflow.
	SpentMatchesLedger bool `json:"spent_matches_ledger"`
	// ReplayConsistent reports that a WAL-backed mini-season replayed into
	// a fresh scheduler reconstructed identical tenant quotas and usage,
	// and that the replayed scheduler still refuses the over-quota open.
	ReplayConsistent  bool    `json:"replay_consistent"`
	SerialSeconds     float64 `json:"serial_seconds"`
	ConcurrentSeconds float64 `json:"concurrent_seconds"`
}

// closeLatencyFloorMs guards the fairness ratio's denominator: medians
// below this are within scheduler-wakeup jitter, where a ratio stops
// measuring the gate and starts measuring the OS.
const closeLatencyFloorMs = 0.02

// newFairnessScheduler boots a funded scheduler for one pass.
func newFairnessScheduler(cfg FairnessConfig, closeConcurrency int) (*melody.RunScheduler, *melody.Ledger, error) {
	money := melody.NewLedger()
	funding := cfg.Budget * float64(cfg.Tenants*cfg.Rounds)
	if _, err := money.Deposit(melody.RequesterAccount, funding, "fairness funding"); err != nil {
		return nil, nil, err
	}
	def := platform.DefaultConfig()
	sched, err := melody.NewRunScheduler(melody.SchedulerConfig{
		Auction: def.Auction(),
		NewEstimator: func(string) (melody.Estimator, error) {
			return melody.NewQualityTracker(def.Tracker(nil))
		},
		Ledger:           money,
		CloseConcurrency: closeConcurrency,
	})
	if err != nil {
		return nil, nil, err
	}
	return sched, money, nil
}

// fairnessPolicies installs every tenant's quota: exactly the season's
// budget (Rounds*Budget), equal weight.
func fairnessPolicies(ctx context.Context, sched *melody.RunScheduler, cfg FairnessConfig, loads []tenantWorkload) error {
	for _, wl := range loads {
		policy := melody.UnlimitedTenantPolicy()
		policy.BudgetQuota = cfg.Budget * float64(cfg.Rounds)
		policy.Weight = 1
		if err := sched.SetTenantPolicy(ctx, wl.tenant, policy); err != nil {
			return fmt.Errorf("policy %s: %w", wl.tenant, err)
		}
	}
	return nil
}

// runPhase runs f for every tenant index concurrently and returns the
// first error.
func runPhase(n int, f func(i int) error) error {
	var wg sync.WaitGroup
	errCh := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := f(i); err != nil {
				errCh <- err
			}
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

// openAndBid opens one tenant's run for the round and submits every
// worker's bid, mirroring driveTenantDirect's inputs exactly so the serial
// and concurrent passes stay digest-comparable.
func openAndBid(ctx context.Context, sched *melody.RunScheduler, cfg FairnessConfig, wl tenantWorkload, round int) (string, error) {
	runID := fmt.Sprintf("%s-r%d", wl.tenant, round)
	tasks := make([]melody.Task, cfg.Tasks)
	for j := range tasks {
		tasks[j] = melody.Task{ID: fmt.Sprintf("%s-t%d", runID, j), Threshold: 10}
	}
	if err := sched.OpenRun(ctx, runID, wl.tenant, tasks, cfg.Budget); err != nil {
		return runID, fmt.Errorf("open %s: %w", runID, err)
	}
	for i, w := range wl.workers {
		if err := sched.SubmitBid(ctx, runID, w, melody.Bid{Cost: wl.costs[i], Frequency: 1}); err != nil {
			return runID, fmt.Errorf("bid %s %s: %w", runID, w, err)
		}
	}
	return runID, nil
}

// scoreAndFinish scores every assignment deterministically and finishes
// the run.
func scoreAndFinish(ctx context.Context, sched *melody.RunScheduler, wl tenantWorkload, runID string, out *melody.Outcome) error {
	scores := make([]melody.TaskScore, 0, len(out.Assignments))
	for _, asg := range out.Assignments {
		scores = append(scores, melody.TaskScore{
			WorkerID: asg.WorkerID, TaskID: asg.TaskID,
			Score: detScore(wl.tenant, runID, asg.WorkerID, asg.TaskID),
		})
	}
	if len(scores) > 0 {
		if err := sched.SubmitScores(ctx, runID, scores).Err(); err != nil {
			return fmt.Errorf("scores %s: %w", runID, err)
		}
	}
	if err := sched.FinishRun(ctx, runID); err != nil {
		return fmt.Errorf("finish %s: %w", runID, err)
	}
	return nil
}

// tenantUsages adapts scheduler tenant statuses to the neutral shape the
// verify package checks.
func tenantUsages(statuses []melody.TenantStatus) []verify.TenantUsage {
	usages := make([]verify.TenantUsage, 0, len(statuses))
	for _, st := range statuses {
		u := verify.TenantUsage{
			Tenant:     st.Tenant,
			Spent:      st.Spent,
			Escrowed:   st.Escrowed,
			RunsOpened: st.RunsOpened,
		}
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

// RunFairness executes the fairness scenario. The identical workload runs
// once serially (tenant after tenant, no gate) and once with all tenants
// contending through a CloseConcurrency-wide fair gate, every round ending
// in a synchronized close volley with rotated arrival order. It reports
// the max/min ratio of per-tenant median close latency, asserts
// byte-identical outcomes across the passes, proves quota enforcement
// (over-quota opens refused, scheduler spend matching the ledger to the
// cent, the verify checker passing) and replays a WAL-backed mini-season
// to show quotas survive recovery.
func RunFairness(cfg FairnessConfig) (FairnessResult, error) {
	cfg = cfg.withDefaults()
	loads := buildWorkloads(MultiRunConfig{
		Tenants: cfg.Tenants, WorkersPerTenant: cfg.WorkersPerTenant, Seed: cfg.Seed,
	}.withDefaults())
	ctx := context.Background()
	res := FairnessResult{
		Tenants: cfg.Tenants, Rounds: cfg.Rounds,
		TotalRuns:        cfg.Tenants * cfg.Rounds,
		CloseConcurrency: cfg.CloseConcurrency,
	}

	// Serial pass: tenants one after another, ungated — the outcome
	// baseline the gated concurrent pass must reproduce byte for byte.
	serialSched, _, err := newFairnessScheduler(cfg, 0)
	if err != nil {
		return res, err
	}
	if err := fairnessPolicies(ctx, serialSched, cfg, loads); err != nil {
		return res, err
	}
	for _, wl := range loads {
		for _, w := range wl.workers {
			if err := serialSched.RegisterWorker(ctx, w); err != nil {
				return res, fmt.Errorf("loadgen: register %s: %w", w, err)
			}
		}
	}
	serialDigests := make(map[string]string)
	serialStart := time.Now()
	for _, wl := range loads {
		for round := 1; round <= cfg.Rounds; round++ {
			runID, err := openAndBid(ctx, serialSched, cfg, wl, round)
			if err != nil {
				return res, fmt.Errorf("loadgen: serial %w", err)
			}
			out, err := serialSched.CloseAuction(ctx, runID)
			if err != nil {
				return res, fmt.Errorf("loadgen: serial close %s: %w", runID, err)
			}
			serialDigests[runID] = coreOutcomeDigest(out)
			if err := scoreAndFinish(ctx, serialSched, wl, runID, out); err != nil {
				return res, fmt.Errorf("loadgen: serial %w", err)
			}
		}
	}
	res.SerialSeconds = time.Since(serialStart).Seconds()

	// Concurrent pass: all tenants contend through the gate.
	sched, money, err := newFairnessScheduler(cfg, cfg.CloseConcurrency)
	if err != nil {
		return res, err
	}
	if err := fairnessPolicies(ctx, sched, cfg, loads); err != nil {
		return res, err
	}
	for _, wl := range loads {
		for _, w := range wl.workers {
			if err := sched.RegisterWorker(ctx, w); err != nil {
				return res, fmt.Errorf("loadgen: register %s: %w", w, err)
			}
		}
	}
	concDigests := make(map[string]string)
	var digestMu sync.Mutex
	closeLatencies := make([][]float64, cfg.Tenants)
	positions := make([][]float64, cfg.Tenants) // each volley's return position
	runIDs := make([]string, cfg.Tenants)
	outcomes := make([]*melody.Outcome, cfg.Tenants)
	concStart := time.Now()
	for round := 1; round <= cfg.Rounds; round++ {
		if err := runPhase(cfg.Tenants, func(i int) error {
			id, err := openAndBid(ctx, sched, cfg, loads[i], round)
			runIDs[i] = id
			return err
		}); err != nil {
			return res, fmt.Errorf("loadgen: concurrent round %d: %w", round, err)
		}
		// Close volley: every tenant closes at once, launch order rotated
		// per round so any positional bias in goroutine wakeup spreads
		// evenly across tenants — the measurement then isolates the gate's
		// ordering from spawn-order luck.
		var returned atomic.Int32
		if err := runPhase(cfg.Tenants, func(k int) error {
			i := (round - 1 + k) % cfg.Tenants
			start := time.Now()
			out, err := sched.CloseAuction(ctx, runIDs[i])
			elapsed := time.Since(start)
			positions[i] = append(positions[i], float64(returned.Add(1)-1))
			if err != nil {
				return fmt.Errorf("close %s: %w", runIDs[i], err)
			}
			closeLatencies[i] = append(closeLatencies[i], float64(elapsed.Microseconds())/1000)
			outcomes[i] = out
			digestMu.Lock()
			concDigests[runIDs[i]] = coreOutcomeDigest(out)
			digestMu.Unlock()
			return nil
		}); err != nil {
			return res, fmt.Errorf("loadgen: concurrent round %d: %w", round, err)
		}
		if err := runPhase(cfg.Tenants, func(i int) error {
			return scoreAndFinish(ctx, sched, loads[i], runIDs[i], outcomes[i])
		}); err != nil {
			return res, fmt.Errorf("loadgen: concurrent round %d: %w", round, err)
		}
		// Quota invariant at every round boundary, not just the end.
		if err := verify.CheckTenantQuotas(tenantUsages(sched.TenantStatuses())); err != nil {
			return res, fmt.Errorf("loadgen: round %d: %w", round, err)
		}
	}
	res.ConcurrentSeconds = time.Since(concStart).Seconds()

	// Serial-equivalence: the gate may reorder waiting, never outcomes.
	res.OutcomesMatch = true
	if len(concDigests) != len(serialDigests) {
		return res, fmt.Errorf("loadgen: digest count mismatch: serial %d, concurrent %d",
			len(serialDigests), len(concDigests))
	}
	for id, sd := range serialDigests {
		if concDigests[id] != sd {
			res.OutcomesMatch = false
			return res, fmt.Errorf("loadgen: run %s outcome diverged between serial and gated passes", id)
		}
	}

	// Fairness: max/min per-tenant median close latency.
	res.TenantMedianCloseMs = make([]float64, cfg.Tenants)
	res.TenantMeanPosition = make([]float64, cfg.Tenants)
	res.TenantMedianPosition = make([]float64, cfg.Tenants)
	res.TenantBackHalf = make([]int, cfg.Tenants)
	minMs, maxMs := math.Inf(1), 0.0
	for i, lats := range closeLatencies {
		m := median(lats)
		res.TenantMedianCloseMs[i] = m
		sum := 0.0
		for _, pos := range positions[i] {
			sum += pos
			if int(pos) >= cfg.Tenants/2 {
				res.TenantBackHalf[i]++
			}
		}
		res.TenantMeanPosition[i] = sum / float64(cfg.Rounds)
		res.TenantMedianPosition[i] = median(positions[i])
		minMs = math.Min(minMs, m)
		maxMs = math.Max(maxMs, m)
	}
	res.MinMedianCloseMs, res.MaxMedianCloseMs = minMs, maxMs
	res.FairnessRatio = maxMs / math.Max(minMs, closeLatencyFloorMs)

	// Money: scheduler spend accounting must match the ledger's requester
	// outflow exactly, and the standard conservation checks must hold.
	funding := cfg.Budget * float64(cfg.Tenants*cfg.Rounds)
	var totalSpent float64
	for _, st := range sched.TenantStatuses() {
		totalSpent += st.Spent
	}
	outflow := funding - money.Balance(melody.RequesterAccount)
	tol := math.Max(verify.SumTol, verify.SumTol*funding)
	res.SpentMatchesLedger = math.Abs(totalSpent-outflow) <= tol
	if !res.SpentMatchesLedger {
		return res, fmt.Errorf("loadgen: tenant spend %v does not match ledger outflow %v", totalSpent, outflow)
	}
	if err := verify.CheckMoneyConservation(money); err != nil {
		return res, err
	}
	if err := verify.CheckSettlementDrained(money); err != nil {
		return res, err
	}

	// Quota enforcement: lower every tenant's quota to its realized spend;
	// the next open must be refused with the typed sentinel.
	for _, wl := range loads {
		st, err := sched.TenantStatus(wl.tenant)
		if err != nil {
			return res, fmt.Errorf("loadgen: status %s: %w", wl.tenant, err)
		}
		policy := melody.UnlimitedTenantPolicy()
		policy.BudgetQuota = st.Spent
		policy.Weight = 1
		if err := sched.SetTenantPolicy(ctx, wl.tenant, policy); err != nil {
			return res, fmt.Errorf("loadgen: lower quota %s: %w", wl.tenant, err)
		}
		err = sched.OpenRun(ctx, wl.tenant+"-over", wl.tenant,
			[]melody.Task{{ID: wl.tenant + "-over-t0", Threshold: 10}}, cfg.Budget)
		if !errors.Is(err, melody.ErrQuotaExceeded) {
			return res, fmt.Errorf("loadgen: over-quota open on %s: got %v, want ErrQuotaExceeded", wl.tenant, err)
		}
		res.QuotaRefusals++
	}
	if err := verify.CheckTenantQuotas(tenantUsages(sched.TenantStatuses())); err != nil {
		return res, err
	}

	// Durability: quotas and usage must survive WAL replay.
	replayOK, err := fairnessReplayCheck(cfg)
	if err != nil {
		return res, err
	}
	res.ReplayConsistent = replayOK

	if res.FairnessRatio > cfg.MaxRatio {
		return res, fmt.Errorf("loadgen: fairness ratio %.2f exceeds %.2f (medians %.3f..%.3f ms; per tenant: median close ms %.3f, mean volley position %.2f, median volley position %.1f, back-half volleys %d of %d)",
			res.FairnessRatio, cfg.MaxRatio, minMs, maxMs, res.TenantMedianCloseMs, res.TenantMeanPosition,
			res.TenantMedianPosition, res.TenantBackHalf, cfg.Rounds)
	}
	return res, nil
}

// fairnessReplayCheck drives a small WAL-backed season (2 tenants, 2 runs
// each), lowers one tenant's quota below its next open, and verifies that
// a fresh scheduler replayed from the log reconstructs identical tenant
// statuses — policies included — and still refuses the over-quota open.
func fairnessReplayCheck(cfg FairnessConfig) (bool, error) {
	dir, err := os.MkdirTemp("", "melody-fairness-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "fairness.wal")

	const tenants, rounds = 2, 2
	small := cfg
	small.Tenants, small.Rounds = tenants, rounds
	if small.WorkersPerTenant > 8 {
		small.WorkersPerTenant = 8
	}
	loads := buildWorkloads(MultiRunConfig{
		Tenants: tenants, WorkersPerTenant: small.WorkersPerTenant, Seed: small.Seed,
	}.withDefaults())
	ctx := context.Background()

	sched, _, err := newFairnessScheduler(small, 0)
	if err != nil {
		return false, err
	}
	ps, wal, err := eventlog.OpenPersistentScheduler(path, sched, eventlog.Options{SyncEveryAppend: true})
	if err != nil {
		return false, err
	}
	for _, wl := range loads {
		policy := melody.UnlimitedTenantPolicy()
		policy.BudgetQuota = small.Budget * float64(rounds)
		if err := ps.SetTenantPolicy(ctx, wl.tenant, policy); err != nil {
			return false, err
		}
		for _, w := range wl.workers {
			if err := ps.RegisterWorker(ctx, w); err != nil {
				return false, err
			}
		}
	}
	for _, wl := range loads {
		for round := 1; round <= rounds; round++ {
			runID := fmt.Sprintf("%s-r%d", wl.tenant, round)
			tasks := make([]melody.Task, small.Tasks)
			for j := range tasks {
				tasks[j] = melody.Task{ID: fmt.Sprintf("%s-t%d", runID, j), Threshold: 10}
			}
			if err := ps.OpenRun(ctx, runID, wl.tenant, tasks, small.Budget); err != nil {
				return false, err
			}
			for i, w := range wl.workers {
				if err := ps.SubmitBid(ctx, runID, w, melody.Bid{Cost: wl.costs[i], Frequency: 1}); err != nil {
					return false, err
				}
			}
			out, err := ps.CloseAuction(ctx, runID)
			if err != nil {
				return false, err
			}
			scores := make([]melody.TaskScore, 0, len(out.Assignments))
			for _, asg := range out.Assignments {
				scores = append(scores, melody.TaskScore{
					WorkerID: asg.WorkerID, TaskID: asg.TaskID,
					Score: detScore(wl.tenant, runID, asg.WorkerID, asg.TaskID),
				})
			}
			if len(scores) > 0 {
				if err := ps.SubmitScores(ctx, runID, scores).Err(); err != nil {
					return false, err
				}
			}
			if err := ps.FinishRun(ctx, runID); err != nil {
				return false, err
			}
		}
	}
	// Lower tenant0's quota to its spend (a logged policy event) and show
	// the next open is refused — this refusal is what replay must preserve.
	victim := loads[0].tenant
	st, err := ps.TenantStatus(victim)
	if err != nil {
		return false, err
	}
	lowered := melody.UnlimitedTenantPolicy()
	lowered.BudgetQuota = st.Spent
	if err := ps.SetTenantPolicy(ctx, victim, lowered); err != nil {
		return false, err
	}
	overTasks := []melody.Task{{ID: victim + "-over-t0", Threshold: 10}}
	if err := ps.OpenRun(ctx, victim+"-over", victim, overTasks, small.Budget); !errors.Is(err, melody.ErrQuotaExceeded) {
		return false, fmt.Errorf("loadgen: pre-replay over-quota open: got %v, want ErrQuotaExceeded", err)
	}
	before := ps.TenantStatuses()
	if err := wal.Close(); err != nil {
		return false, err
	}

	replayed, _, err := newFairnessScheduler(small, 0)
	if err != nil {
		return false, err
	}
	ps2, wal2, err := eventlog.OpenPersistentScheduler(path, replayed, eventlog.Options{SyncEveryAppend: true})
	if err != nil {
		return false, fmt.Errorf("loadgen: replay: %w", err)
	}
	defer wal2.Close()
	after := ps2.TenantStatuses()
	if len(before) != len(after) {
		return false, fmt.Errorf("loadgen: replay tenant count %d, want %d", len(after), len(before))
	}
	for i := range before {
		if !sameTenantStatus(before[i], after[i]) {
			return false, fmt.Errorf("loadgen: replay diverged for tenant %s: %+v vs %+v",
				before[i].Tenant, before[i], after[i])
		}
	}
	if err := verify.CheckTenantQuotas(tenantUsages(after)); err != nil {
		return false, err
	}
	if err := ps2.OpenRun(ctx, victim+"-over", victim, overTasks, small.Budget); !errors.Is(err, melody.ErrQuotaExceeded) {
		return false, fmt.Errorf("loadgen: post-replay over-quota open: got %v, want ErrQuotaExceeded", err)
	}
	return true, nil
}

// sameTenantStatus compares two tenant statuses field by field, with a
// small tolerance on the money floats (replay recomputes them through the
// identical arithmetic, but the comparison should not hinge on that).
func sameTenantStatus(a, b melody.TenantStatus) bool {
	const tol = 1e-9
	return a.Tenant == b.Tenant &&
		a.HasPolicy == b.HasPolicy &&
		a.Policy == b.Policy &&
		math.Abs(a.Spent-b.Spent) <= tol &&
		math.Abs(a.EpochSpent-b.EpochSpent) <= tol &&
		math.Abs(a.Escrowed-b.Escrowed) <= tol &&
		a.RunsOpened == b.RunsOpened &&
		a.OpenRun == b.OpenRun
}
