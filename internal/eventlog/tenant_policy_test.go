package eventlog

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"melody"
)

// drivePersistentRun pushes one run through the persistent scheduler.
func drivePersistentRun(ctx context.Context, ps *PersistentScheduler, tenant, runID string, workers int) error {
	tasks := []melody.Task{{ID: runID + "-t1", Threshold: 10}}
	if err := ps.OpenRun(ctx, runID, tenant, tasks, 100); err != nil {
		return fmt.Errorf("open: %w", err)
	}
	for i := 0; i < workers; i++ {
		w := fmt.Sprintf("%s-w%d", tenant, i)
		if err := ps.SubmitBid(ctx, runID, w, melody.Bid{Cost: 1 + 0.1*float64(i), Frequency: 1}); err != nil {
			return fmt.Errorf("bid: %w", err)
		}
	}
	out, err := ps.CloseAuction(ctx, runID)
	if err != nil {
		return fmt.Errorf("close: %w", err)
	}
	for _, a := range out.Assignments {
		if err := ps.SubmitScore(ctx, runID, a.WorkerID, a.TaskID, 7); err != nil {
			return fmt.Errorf("score: %w", err)
		}
	}
	if err := ps.FinishRun(ctx, runID); err != nil {
		return fmt.Errorf("finish: %w", err)
	}
	return nil
}

// TestTenantPolicyReplay: policies set through the persistent scheduler are
// WAL events — replay reconstructs the latest policy per tenant, the spend
// ledger, and keeps enforcing the quota. Refused opens never reach the log
// (the scheduler applies before logging), so replay of a log containing
// refusal-era traffic is clean and RunsOpened matches exactly.
func TestTenantPolicyReplay(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "policy.wal")

	orig, _ := newSchedulerForLog(t, 400, 0)
	ps, log, err := OpenPersistentScheduler(path, orig, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := ps.RegisterWorker(ctx, fmt.Sprintf("a-w%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Two writes to the same tenant: replay must keep the second (quota
	// 250, weight 3), not the first.
	loose := melody.UnlimitedTenantPolicy()
	loose.BudgetQuota = 1000
	if err := ps.SetTenantPolicy(ctx, "a", loose); err != nil {
		t.Fatal(err)
	}
	final := melody.UnlimitedTenantPolicy()
	final.BudgetQuota = 250
	final.Weight = 3
	if err := ps.SetTenantPolicy(ctx, "a", final); err != nil {
		t.Fatal(err)
	}
	// A policy for a tenant that never runs must also survive replay.
	idle := melody.UnlimitedTenantPolicy()
	idle.MaxRuns = 1
	if err := ps.SetTenantPolicy(ctx, "idle", idle); err != nil {
		t.Fatal(err)
	}

	for r := 1; r <= 2; r++ {
		if err := drivePersistentRun(ctx, ps, "a", fmt.Sprintf("a-r%d", r), 3); err != nil {
			t.Fatal(err)
		}
	}
	// The third 100-budget open exceeds 250 only via escrow stacking on the
	// settled spend when spent+100 > 250; with a few units settled it fits,
	// so clamp the quota to the realized spend and prove the refusal — and
	// that the refused open leaves no WAL event.
	st, err := ps.TenantStatus("a")
	if err != nil {
		t.Fatal(err)
	}
	clamp := final
	clamp.BudgetQuota = st.Spent
	if err := ps.SetTenantPolicy(ctx, "a", clamp); err != nil {
		t.Fatal(err)
	}
	if err := ps.OpenRun(ctx, "a-r3", "a", []melody.Task{{ID: "x", Threshold: 10}}, 100); !errors.Is(err, melody.ErrQuotaExceeded) {
		t.Fatalf("over-quota open = %v, want ErrQuotaExceeded", err)
	}
	before := orig.TenantStatuses()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay into a fresh scheduler and compare the whole tenant view.
	rebuilt, _ := newSchedulerForLog(t, 400, 0)
	if err := ReplayScheduler(path, rebuilt); err != nil {
		t.Fatalf("replay: %v", err)
	}
	after := rebuilt.TenantStatuses()
	if fmt.Sprintf("%+v", before) != fmt.Sprintf("%+v", after) {
		t.Errorf("tenant statuses diverged across replay:\norig    %+v\nrebuilt %+v", before, after)
	}
	if p, ok := rebuilt.TenantPolicy("a"); !ok || p != clamp {
		t.Errorf("replayed policy = %+v (%v), want %+v", p, ok, clamp)
	}
	if p, ok := rebuilt.TenantPolicy("idle"); !ok || p != idle {
		t.Errorf("replayed idle policy = %+v (%v), want %+v", p, ok, idle)
	}
	// The rebuilt scheduler enforces the replayed quota.
	if err := rebuilt.OpenRun(ctx, "a-r3", "a", []melody.Task{{ID: "x", Threshold: 10}}, 100); !errors.Is(err, melody.ErrQuotaExceeded) {
		t.Errorf("post-replay over-quota open = %v, want ErrQuotaExceeded", err)
	}

	// Reopening the log (replay, again) is idempotent: a third boot sees
	// the same statuses and still enforces the quota.
	third, _ := newSchedulerForLog(t, 400, 0)
	ps3, log3, err := OpenPersistentScheduler(path, third, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", third.TenantStatuses()) != fmt.Sprintf("%+v", before) {
		t.Errorf("second replay diverged:\n%+v\n%+v", third.TenantStatuses(), before)
	}
	if err := ps3.OpenRun(ctx, "a-r3", "a", []melody.Task{{ID: "x", Threshold: 10}}, 100); !errors.Is(err, melody.ErrQuotaExceeded) {
		t.Errorf("third-boot over-quota open = %v, want ErrQuotaExceeded", err)
	}
	if err := log3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTenantPolicyEventValidation: a policy event without a tenant is
// rejected at append time, and a hand-built run-less policy event replays
// fine (policies, like registrations, are not run-scoped).
func TestTenantPolicyEventValidation(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "badpolicy.wal")
	s, _ := newSchedulerForLog(t, 100, 0)
	ps, log, err := OpenPersistentScheduler(path, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.SetTenantPolicy(ctx, "", melody.UnlimitedTenantPolicy()); err == nil {
		t.Error("policy for the empty tenant accepted")
	}
	p := melody.UnlimitedTenantPolicy()
	p.MaxRuns = 7
	if err := ps.SetTenantPolicy(ctx, "solo", p); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	rebuilt, _ := newSchedulerForLog(t, 100, 0)
	if err := ReplayScheduler(path, rebuilt); err != nil {
		t.Fatalf("replaying a policy-only log: %v", err)
	}
	if got, ok := rebuilt.TenantPolicy("solo"); !ok || got != p {
		t.Errorf("policy-only replay = %+v (%v), want %+v", got, ok, p)
	}
}

// TestBootPoliciesAcrossSnapshotRestore: boot policies come from the
// configuration, not the log, so they may change between boots, while a
// logged PUT overrides them. Tenant a only ever has a boot policy, tenant b
// also a logged PUT. After a boot with changed boot policies, a snapshot
// restore and a full replay must report the same tenant status: a's new
// boot policy and b's PUT.
func TestBootPoliciesAcrossSnapshotRestore(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	opts := SegmentedOptions{Options: Options{SyncEveryAppend: true}, SnapshotEvery: 1, DisableCompaction: true}
	quota := func(q float64) melody.TenantPolicy {
		p := melody.UnlimitedTenantPolicy()
		p.BudgetQuota = q
		return p
	}
	boot := func(a, b float64) *melody.RunScheduler {
		s, _ := newSchedulerForLog(t, 1000, 0)
		for tenant, q := range map[string]float64{"a": a, "b": b} {
			if err := s.SetTenantPolicy(ctx, tenant, quota(q)); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}

	ps, seg, err := OpenSegmentedScheduler(dir, boot(500, 600), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tenant := range []string{"a", "b"} {
		for i := 0; i < 3; i++ {
			if err := ps.RegisterWorker(ctx, fmt.Sprintf("%s-w%d", tenant, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ps.SetTenantPolicy(ctx, "b", quota(700)); err != nil {
		t.Fatal(err)
	}
	for _, tenant := range []string{"a", "b"} {
		if err := drivePersistentRun(ctx, ps, tenant, tenant+"-1", 3); err != nil {
			t.Fatal(err)
		}
	}
	if err := ps.SnapshotErr(); err != nil || seg.SnapshotSeq() != seg.Seq() {
		t.Fatalf("snapshot at %d of %d (err %v); want one covering the whole log", seg.SnapshotSeq(), seg.Seq(), err)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}

	restored := boot(800, 900)
	_, rseg, err := OpenSegmentedScheduler(dir, restored, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rseg.Close()
	replayed := boot(800, 900)
	if err := ReplaySegments(dir, replayed); err != nil {
		t.Fatal(err)
	}
	for tenant, want := range map[string]float64{"a": 800, "b": 700} {
		got, err := restored.TenantStatus(tenant)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := replayed.TenantStatus(tenant)
		if err != nil {
			t.Fatal(err)
		}
		if got != oracle {
			t.Errorf("tenant %s: restored status %+v, full replay %+v", tenant, got, oracle)
		}
		if got.Policy.BudgetQuota != want || got.RunsOpened != 1 {
			t.Errorf("tenant %s: quota %v after %d runs, want %v after 1", tenant, got.Policy.BudgetQuota, got.RunsOpened, want)
		}
	}
}
