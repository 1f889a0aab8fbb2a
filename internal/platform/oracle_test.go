package platform

// Differential oracle for the serving stack on the segmented engine: a
// two-tenant season exercising every kind of durable state (rotation,
// epoch settlement, tenant policies and a quota refusal, a deadline
// finish) must recover from snapshot plus tail to exactly the state a
// full replay reaches, and a restored server must answer retries of runs
// the snapshot covers as the live one did.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"melody"
	"melody/internal/eventlog"
	"melody/internal/verify"
)

// oracleOptions keeps every segment, so a full replay remains possible.
var oracleOptions = eventlog.SegmentedOptions{
	Options:           eventlog.Options{SyncEveryAppend: true},
	SegmentBytes:      1024,
	SnapshotEvery:     40,
	DisableCompaction: true,
}

func TestSegmentedSnapshotMatchesFullReplay(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	sched, money := newTestScheduler(t, 5000, 3)
	ps, seg, err := eventlog.OpenSegmentedScheduler(dir, sched, oracleOptions)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewMultiServer(ps, nil, WithDeadlines(0, 100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	acme, zeta := tenantClient(t, ts, "acme"), tenantClient(t, ts, "zeta")
	for i := 0; i < 5; i++ {
		for _, tenant := range []string{"acme", "zeta"} {
			if err := acme.RegisterWorker(ctx, fmt.Sprintf("%s-w%d", tenant, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := zeta.PutTenant(ctx, "zeta", TenantPolicySpec{MaxRuns: 3}); err != nil {
		t.Fatal(err)
	}
	n := 0
	drive := func(c *Client, tenant string) {
		t.Helper()
		n++
		if err := driveRunHTTP(ctx, c, fmt.Sprintf("%s-%d", tenant, n), tenant, 5); err != nil {
			t.Fatal(err)
		}
	}
	drive(acme, "acme")
	drive(zeta, "zeta")
	drive(acme, "acme")
	drive(zeta, "zeta")

	// Nobody scores or finishes this run: the scoring deadline finishes it.
	n++
	late := fmt.Sprintf("acme-%d", n)
	run, err := acme.OpenRunID(ctx, late, "acme", []TaskSpec{{ID: late + "-t1", Threshold: 10}}, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := run.SubmitBid(ctx, fmt.Sprintf("acme-w%d", i), 1.2, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := run.CloseAuction(ctx); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if info, err := sched.Run(late); err == nil && info.Finished {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the scoring deadline never finished %s", late)
		}
	}

	if _, err := acme.PutTenant(ctx, "acme", TenantPolicySpec{Weight: 2}); err != nil {
		t.Fatal(err)
	}
	drive(zeta, "zeta")
	if _, err := zeta.OpenRunID(ctx, "zeta-4th", "zeta", []TaskSpec{{ID: "z4", Threshold: 10}}, 100); !errors.Is(err, melody.ErrQuotaExceeded) {
		t.Fatalf("zeta's fourth open = %v, want ErrQuotaExceeded", err)
	}
	drive(acme, "acme")
	drive(acme, "acme")

	// Retries of acme-1 after the restart must see these bodies again. An
	// open's body is its run ID.
	retry := func(ts *httptest.Server) [][]byte {
		t.Helper()
		c := tenantClient(t, ts, "acme")
		spec := []TaskSpec{{ID: "acme-1-t1", Threshold: 10}, {ID: "acme-1-t2", Threshold: 10}}
		run, err := c.OpenRunID(ctx, "acme-1", "acme", spec, 100)
		if err != nil {
			t.Fatal(err)
		}
		bodies := [][]byte{[]byte(run.ID())}
		for _, req := range []struct{ method, suffix string }{
			{http.MethodPost, "/close"}, {http.MethodGet, "/outcome"}, {http.MethodPost, "/finish"},
		} {
			body, err := rawBody(ts, req.method, "/v1/runs/acme-1"+req.suffix)
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, body)
		}
		return bodies
	}
	before := retry(ts)
	if err := ps.SnapshotErr(); err != nil {
		t.Fatalf("snapshotting failed during the season: %v", err)
	}
	live := schedulerState(t, sched)
	ts.Close()
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}

	// The newest snapshot lands mid-epoch and leaves a tail to replay.
	raw, rec, err := eventlog.OpenSegmented(dir, oracleOptions)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot == nil || len(rec.Events) == 0 {
		t.Fatalf("recovery found snapshot %v and %d tail records; want both", rec.Snapshot != nil, len(rec.Events))
	}
	var snap melody.SchedulerSnapshot
	if err := json.Unmarshal(rec.Snapshot.State, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Settler == nil || snap.Settler.Runs == 0 || len(snap.Settler.Pending) == 0 {
		t.Errorf("newest snapshot is not mid-epoch: settler %+v", snap.Settler)
	}
	if err := raw.Close(); err != nil {
		t.Fatal(err)
	}

	restored, restoredMoney := newTestScheduler(t, 5000, 3)
	rps, rseg, err := eventlog.OpenSegmentedScheduler(dir, restored, oracleOptions)
	if err != nil {
		t.Fatal(err)
	}
	defer rseg.Close()
	replayed, _ := newTestScheduler(t, 5000, 3)
	if err := eventlog.ReplaySegments(dir, replayed); err != nil {
		t.Fatal(err)
	}
	got := schedulerState(t, restored)
	if want := schedulerState(t, replayed); !bytes.Equal(got, want) {
		t.Errorf("snapshot plus tail differs from a full replay:\n got %s\nwant %s", got, want)
	}
	if !bytes.Equal(got, live) {
		t.Errorf("recovered state differs from the live state:\n got %s\nwant %s", got, live)
	}

	if err := restored.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, check := range []struct {
		name string
		err  error
	}{
		{"money conservation", verify.CheckMoneyConservation(restoredMoney)},
		{"escrow settled", verify.CheckEscrowSettled(restoredMoney)},
		{"settlement drained", verify.CheckSettlementDrained(restoredMoney)},
		{"tenant quotas", verify.CheckTenantQuotas(tenantUsages(restored.TenantStatuses()))},
	} {
		if check.err != nil {
			t.Errorf("%s: %v", check.name, check.err)
		}
	}
	if err := verify.CheckMoneyConservation(money); err != nil {
		t.Errorf("live money conservation: %v", err)
	}

	// Retries of a run the snapshot covers, against a server on the
	// restored scheduler: the same bodies, and nothing appended.
	srv2, err := NewMultiServer(rps, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	seq := rseg.Seq()
	for i, body := range retry(ts2) {
		if !bytes.Equal(body, before[i]) {
			t.Errorf("retry %d after the restore = %s, want %s", i, body, before[i])
		}
	}
	if got := rseg.Seq(); got != seq {
		t.Errorf("retries after the restore appended %d records", got-seq)
	}
}

// tenantUsages adapts scheduler tenant statuses to the shape
// verify.CheckTenantQuotas checks.
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
