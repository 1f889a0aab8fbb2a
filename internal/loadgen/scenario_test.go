package loadgen

import (
	"maps"
	"testing"
	"time"

	"melody/internal/platform"
)

// TestScenariosOnEveryStack runs multirun at small scale on both backends
// over HTTP and in process, and fairness at small scale on both backends.
// Each scenario must pass its own checks (per-run digests equal across its
// passes, the books, the leak check, and for fairness the quota refusals
// and the WAL replay), and every stack, over HTTP and in process, must
// produce the same per-run outcomes: a wrong HTTP adapter or durable
// wrapper shows as a digest that differs from the in-process, in-memory
// one. The fairness latency ratio is a timing check and stays in the
// smoke target.
func TestScenariosOnEveryStack(t *testing.T) {
	checked := func(t *testing.T, res Result, runs int) {
		t.Helper()
		if !res.OutcomesMatch || len(res.Violations) != 0 || res.RunsCompleted != runs {
			t.Errorf("outcomes match %v, violations %v, runs completed %d (want %d)",
				res.OutcomesMatch, res.Violations, res.RunsCompleted, runs)
		}
		if res.GoroutineEnd > res.GoroutineStart+leakSlack {
			t.Errorf("goroutines %d -> %d", res.GoroutineStart, res.GoroutineEnd)
		}
	}
	same := func(t *testing.T, want, got map[string]string, runs int) {
		t.Helper()
		if len(want) != runs || !maps.Equal(want, got) {
			t.Errorf("per-run digests differ from the in-process in-memory stack's:\n%v\nwant (%d runs)\n%v", got, runs, want)
		}
	}

	var base map[string]string
	for _, backend := range []string{BackendMem, BackendWAL} {
		for _, direct := range []bool{true, false} {
			name := backend + map[bool]string{true: "/direct", false: "/http"}[direct]
			t.Run("multirun/"+name, func(t *testing.T) {
				res, digests, err := multirun(Scenario{Backend: backend, Direct: direct,
					Tenants: 3, Runs: 3, Workers: 6, Tasks: 3, BidsPerWorker: 2, Batch: 2, EpochEvery: 2, Seed: 5})
				if err != nil {
					t.Fatal(err)
				}
				checked(t, res, 9)
				if base == nil {
					base = digests
				}
				same(t, base, digests, 9)
			})
		}
	}

	var fair map[string]string
	for _, backend := range []string{BackendMem, BackendWAL} {
		t.Run("fairness/"+backend, func(t *testing.T) {
			res, digests, err := fairness(Scenario{Backend: backend, Direct: true,
				Tenants: 3, Runs: 4, Workers: 8, Tasks: 4, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			checked(t, res, 12)
			if res.QuotaRefusals != 3 || !res.SpentMatchesLedger || !res.ReplayConsistent {
				t.Errorf("quota refusals %d (want 3), spend matches ledger %v, replay consistent %v",
					res.QuotaRefusals, res.SpentMatchesLedger, res.ReplayConsistent)
			}
			if len(res.TenantMedianCloseMs) != 3 || len(res.TenantBackHalf) != 3 {
				t.Errorf("close latency medians %v, back-half volleys %v; want 3 tenants", res.TenantMedianCloseMs, res.TenantBackHalf)
			}
			if fair == nil {
				fair = digests
			}
			same(t, fair, digests, 12)
		})
	}
}

// TestTenantRateLimitsEveryTenant sets a per-tenant admission rate and
// names no tenant: every tenant's load clients send that tenant's name, so
// its token bucket applies and the closed loop sheds.
func TestTenantRateLimitsEveryTenant(t *testing.T) {
	res, err := Run(Scenario{
		Tenants: 2, Workers: 8, Runs: 1, Tasks: 2, BidsPerWorker: 20, Seed: 5,
		Admission: &platform.AdmissionConfig{TenantRatePerSec: 20, TenantBurst: 5, RetryAfter: time.Millisecond},
		Retry:     &noRetry,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 || res.Accepted == 0 {
		t.Errorf("accepted %d and shed %d of %d bids against a 20/s tenant rate; want both above 0",
			res.Accepted, res.Shed, res.Offered)
	}
}
