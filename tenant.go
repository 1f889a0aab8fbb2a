package melody

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
)

// Tenant control-plane errors, matchable with errors.Is.
var (
	// ErrQuotaExceeded rejects an OpenRun that would push a tenant past
	// its configured budget quota or run-count cap. Unlike ErrOverloaded
	// the condition is not transient — it clears only when the policy is
	// raised or an epoch boundary resets the per-epoch ledger — so clients
	// must not blindly retry.
	ErrQuotaExceeded = errors.New("melody: tenant quota exceeded")
	// ErrTenantMismatch rejects a request that names two different
	// tenants at once (for example a transport header and a request body
	// that disagree); neither may silently win.
	ErrTenantMismatch = errors.New("melody: tenant mismatch")
)

// quotaTol absorbs float rounding when comparing committed spend against a
// quota, mirroring the ledger's feasibility tolerance.
const quotaTol = 1e-9

// TenantPolicy is the control-plane configuration for one tenant: how much
// budget it may commit, how many runs it may open, and how much of the
// auction-close kernel it is entitled to under contention.
//
// The zero value is the most restrictive policy (no budget, although runs
// with budget 0 still open); start from UnlimitedTenantPolicy when only
// some fields should bind.
type TenantPolicy struct {
	// BudgetQuota caps the tenant's lifetime committed spend: settled
	// auction payments across its finished runs plus the budget escrowed
	// by its open run. Negative disables the cap; zero refuses every open
	// with a positive budget.
	BudgetQuota float64
	// EpochBudgetQuota caps committed spend within one settlement epoch
	// and resets every time the epoch settler pays out. Without epoch
	// settlement it never resets and binds like a second lifetime cap.
	// Same sign convention as BudgetQuota.
	EpochBudgetQuota float64
	// MaxRuns caps how many runs the tenant may open over its lifetime;
	// <= 0 disables the cap.
	MaxRuns int
	// Weight is the tenant's share in weighted-fair auction-close
	// admission when SchedulerConfig.CloseConcurrency gates contention;
	// <= 0 selects the default weight 1.
	Weight float64
}

// UnlimitedTenantPolicy returns the permissive base policy: no budget
// caps, no run cap, default weight. Equivalent to having no policy at all.
func UnlimitedTenantPolicy() TenantPolicy {
	return TenantPolicy{BudgetQuota: -1, EpochBudgetQuota: -1}
}

// validate rejects policies whose numbers cannot be compared against
// spend (NaN or infinite quotas, NaN weight).
func (p TenantPolicy) validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"budget quota", p.BudgetQuota}, {"epoch budget quota", p.EpochBudgetQuota}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("melody: invalid tenant policy: %s must be finite, got %v", f.name, f.v)
		}
	}
	if math.IsNaN(p.Weight) || math.IsInf(p.Weight, 0) {
		return fmt.Errorf("melody: invalid tenant policy: weight must be finite, got %v", p.Weight)
	}
	return nil
}

// weight returns the effective close-scheduling weight.
func (p TenantPolicy) weight() float64 {
	if p.Weight > 0 {
		return p.Weight
	}
	return 1
}

// TenantStatus is one tenant's control-plane view: its policy (if any)
// and its spend ledger as tracked by the scheduler.
type TenantStatus struct {
	// Tenant names the tenant.
	Tenant string
	// HasPolicy reports whether a policy was explicitly set; without one
	// the tenant is unconstrained (Policy is the zero value and must be
	// ignored).
	HasPolicy bool
	// Policy is the installed policy; meaningful only when HasPolicy.
	Policy TenantPolicy
	// Spent is the tenant's settled spend: the summed auction payments of
	// its finished runs.
	Spent float64
	// EpochSpent is the settled spend within the current settlement
	// epoch; equal to Spent when epoch settlement is off.
	EpochSpent float64
	// Escrowed is the budget committed by the tenant's open run — an
	// upper bound on its outstanding escrow — or 0 when no run is open.
	Escrowed float64
	// RunsOpened counts the runs the tenant has ever opened, including
	// the currently open one.
	RunsOpened int
	// OpenRun is the tenant's open run ID, empty when none.
	OpenRun string
	// Weight is the effective close-scheduling weight (1 without a
	// policy).
	Weight float64
}

// tenantState is the scheduler's per-tenant accounting record, guarded by
// RunScheduler.mu.
type tenantState struct {
	policy     TenantPolicy
	hasPolicy  bool
	spent      float64 // settled spend across finished runs
	epochSpent float64 // settled spend in the current settlement epoch
	escrowed   float64 // budget committed by the open run, 0 when none
	runsOpened int     // runs ever opened, including the open one
}

// tenantStateLocked returns (creating on first use) a tenant's accounting
// record; callers hold s.mu.
func (s *RunScheduler) tenantStateLocked(tenant string) *tenantState {
	ts := s.tstates[tenant]
	if ts == nil {
		ts = &tenantState{}
		s.tstates[tenant] = ts
	}
	return ts
}

// SetTenantPolicy installs or replaces a tenant's policy. The tenant does
// not need to have opened a run — quotas are usually provisioned before
// first use — and lowering a quota below the tenant's outstanding
// commitment never fails: the open run settles normally and only future
// opens are refused.
func (s *RunScheduler) SetTenantPolicy(ctx context.Context, tenant string, p TenantPolicy) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	if tenant == "" {
		return errors.New("melody: empty tenant")
	}
	if err := p.validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ts := s.tenantStateLocked(tenant)
	ts.policy, ts.hasPolicy = p, true
	return nil
}

// TenantPolicy returns a tenant's installed policy and whether one exists.
func (s *RunScheduler) TenantPolicy(tenant string) (TenantPolicy, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if ts := s.tstates[tenant]; ts != nil && ts.hasPolicy {
		return ts.policy, true
	}
	return TenantPolicy{}, false
}

// TenantStatus returns one tenant's control-plane status, or
// ErrUnknownTenant for a tenant with neither a policy nor any run
// history. The empty tenant names DefaultTenant, as in OpenRun.
func (s *RunScheduler) TenantStatus(tenant string) (TenantStatus, error) {
	tenant = tenantOrDefault(tenant)
	s.mu.RLock()
	defer s.mu.RUnlock()
	ts := s.tstates[tenant]
	if ts == nil && s.tenants[tenant] == nil {
		return TenantStatus{}, fmt.Errorf("%w: %s", ErrUnknownTenant, tenant)
	}
	return s.tenantStatusLocked(tenant, ts), nil
}

// TenantStatuses returns every known tenant's status (policy-only tenants
// included), sorted by tenant.
func (s *RunScheduler) TenantStatuses() []TenantStatus {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make(map[string]bool, len(s.tstates)+len(s.tenants))
	for t := range s.tstates {
		names[t] = true
	}
	for t := range s.tenants {
		names[t] = true
	}
	out := make([]TenantStatus, 0, len(names))
	for t := range names {
		out = append(out, s.tenantStatusLocked(t, s.tstates[t]))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// tenantStatusLocked assembles one tenant's status; callers hold s.mu.
func (s *RunScheduler) tenantStatusLocked(tenant string, ts *tenantState) TenantStatus {
	st := TenantStatus{Tenant: tenant, Weight: 1, OpenRun: s.tenantOpen[tenant]}
	if ts != nil {
		st.HasPolicy, st.Policy = ts.hasPolicy, ts.policy
		st.Spent, st.EpochSpent = ts.spent, ts.epochSpent
		st.Escrowed, st.RunsOpened = ts.escrowed, ts.runsOpened
		if ts.hasPolicy {
			st.Weight = ts.policy.weight()
		}
	}
	return st
}

// closeWeight returns a tenant's effective close-scheduling weight.
func (s *RunScheduler) closeWeight(tenant string) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if ts := s.tstates[tenant]; ts != nil && ts.hasPolicy {
		return ts.policy.weight()
	}
	return 1
}

// admitRunLocked enforces the tenant's policy against a prospective open
// and, on success, commits the run to the tenant's ledger (escrowed
// budget + run count). Callers hold s.mu and roll back with
// releaseRunLocked if the platform later rejects the open.
func (s *RunScheduler) admitRunLocked(tenant string, budget float64) error {
	ts := s.tenantStateLocked(tenant)
	if ts.hasPolicy {
		p := ts.policy
		if p.MaxRuns > 0 && ts.runsOpened >= p.MaxRuns {
			return fmt.Errorf("%w: tenant %q reached its run cap %d", ErrQuotaExceeded, tenant, p.MaxRuns)
		}
		if p.BudgetQuota >= 0 && ts.spent+budget > p.BudgetQuota+quotaTol {
			return fmt.Errorf("%w: tenant %q budget quota %g (spent %g, requested %g)",
				ErrQuotaExceeded, tenant, p.BudgetQuota, ts.spent, budget)
		}
		if p.EpochBudgetQuota >= 0 && ts.epochSpent+budget > p.EpochBudgetQuota+quotaTol {
			return fmt.Errorf("%w: tenant %q epoch budget quota %g (epoch spent %g, requested %g)",
				ErrQuotaExceeded, tenant, p.EpochBudgetQuota, ts.epochSpent, budget)
		}
	}
	ts.escrowed = budget
	ts.runsOpened++
	return nil
}

// releaseRunLocked rolls back admitRunLocked after a failed platform
// open; callers hold s.mu.
func (s *RunScheduler) releaseRunLocked(tenant string) {
	if ts := s.tstates[tenant]; ts != nil {
		ts.escrowed = 0
		ts.runsOpened--
	}
}

// settleRunLocked moves a finished run's actual spend from escrow to the
// settled ledgers; callers hold s.mu.
func (s *RunScheduler) settleRunLocked(tenant string, spend float64) {
	if ts := s.tstates[tenant]; ts != nil {
		ts.escrowed = 0
		ts.spent += spend
		ts.epochSpent += spend
	}
}

// resetEpochSpend zeroes every tenant's per-epoch spend ledger at an
// epoch boundary.
func (s *RunScheduler) resetEpochSpend() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ts := range s.tstates {
		ts.epochSpent = 0
	}
}
