package melody

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"

	"melody/internal/ledger"
)

// EstimatorSnapshotter is the optional estimator capability of exporting
// and restoring its full dynamic state as an opaque payload. The MELODY
// quality tracker implements it; a scheduler whose estimators do not cannot
// be snapshotted (ErrNoSnapshot) and recovers by full log replay instead.
type EstimatorSnapshotter interface {
	SnapshotState() ([]byte, error)
	RestoreState([]byte) error
}

// Snapshot errors, matchable with errors.Is.
var (
	// ErrNoSnapshot is returned when a tenant's estimator cannot export
	// its state, so state snapshots are unavailable.
	ErrNoSnapshot = errors.New("melody: estimator does not support snapshots")
	// ErrSnapshotMidRun is returned when a snapshot is requested while a run
	// is open: snapshots are taken only at quiescent boundaries, where every
	// run is settled and the scheduler state is a pure function of the
	// event history.
	ErrSnapshotMidRun = errors.New("melody: snapshot requires a moment with no run open")
)

// SchedulerSnapshot is the scheduler's full durable state at a moment when
// no run is open: everything needed to resume exactly where the writer
// stopped, without replaying the event history that produced it. Restored
// state is bit-identical to a from-scratch replay because every field
// round-trips exactly (floats use Go's shortest-exact JSON encoding) and
// each auction kernel's caches are a pure function of its bidder set.
type SchedulerSnapshot struct {
	// Version guards the encoding: version 3 is written, and version 2
	// is still restored. Any other version is refused instead of misread.
	Version int `json:"version"`
	// Workers lists the registered workers in registration order (sorted
	// in version 2).
	Workers []string         `json:"workers,omitempty"`
	Ledger  *ledger.Snapshot `json:"ledger,omitempty"`
	// Settler is the epoch settler's accrual state; nil without epochs.
	Settler *ledger.SettlerState `json:"settler,omitempty"`
	// Policies are installed over the restore target's own policies. The
	// scheduler exports every installed policy; a durable layer that
	// installs policies at boot outside its log keeps only the logged ones.
	Policies map[string]TenantPolicy `json:"policies,omitempty"`
	// Tenants holds every tenant that has finished a run, by name. A
	// tenant that never opened a run is at its prior and is omitted.
	Tenants []TenantSnapshot `json:"tenants,omitempty"`
	// Runs holds every finished run in open order, so retried requests
	// for them behave as after a full replay; its length is the
	// completed-run count.
	Runs []RunSnapshot `json:"runs,omitempty"`
}

// TenantSnapshot is one tenant's state in a SchedulerSnapshot.
type TenantSnapshot struct {
	Tenant string `json:"tenant"`
	// Runs is the number of runs the tenant finished.
	Runs int `json:"runs"`
	// Bidders is the worker set last applied to the tenant's auction
	// kernel, with the exact quality estimates captured at its close.
	Bidders []Worker `json:"bidders,omitempty"`
	// Tracked lists, sorted, the workers the tenant's finishes observe:
	// those whose bids reached one of its closes. Marks are its
	// (registrations, finish) pairs, each the first of its finishes to
	// see that many workers registered, from which a worker's owed empty
	// observations are counted. A version-2 tenant tracks every worker
	// the snapshot lists and has no marks.
	Tracked    []string        `json:"tracked,omitempty"`
	Marks      [][2]int        `json:"marks,omitempty"`
	Estimator  json.RawMessage `json:"estimator,omitempty"`
	Spent      float64         `json:"spent,omitempty"`
	EpochSpent float64         `json:"epoch_spent,omitempty"`
}

// RunSnapshot is one finished run in a SchedulerSnapshot.
type RunSnapshot struct {
	ID      string   `json:"id"`
	Tenant  string   `json:"tenant"`
	Num     int      `json:"num"`
	Tasks   []Task   `json:"tasks"`
	Budget  float64  `json:"budget"`
	Outcome *Outcome `json:"outcome,omitempty"`
}

// schedulerSnapshotVersion guards the snapshot encoding. Version 1 was the
// single-run platform's payload; version 2 had no tracked sets, since every
// finish then observed every registered worker.
const schedulerSnapshotVersion = 3

// SnapshotState captures the scheduler's full state. It fails with
// ErrSnapshotMidRun while any run is open and with ErrNoSnapshot when a
// tenant's estimator cannot export its state. The returned snapshot shares
// no mutable memory with the live scheduler: its runs are decoded from the
// archive of finished runs.
func (s *RunScheduler) SnapshotState() (*SchedulerSnapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.order) > 0 {
		return nil, ErrSnapshotMidRun
	}
	snap := &SchedulerSnapshot{Version: schedulerSnapshotVersion, Workers: s.registry.InOrder()}
	if s.cfg.Ledger != nil {
		snap.Ledger = s.cfg.Ledger.Snapshot()
	}
	if s.settler != nil {
		st := s.settler.State()
		snap.Settler = &st
	}
	for t, ts := range s.tstates {
		if ts.hasPolicy {
			if snap.Policies == nil {
				snap.Policies = make(map[string]TenantPolicy)
			}
			snap.Policies[t] = ts.policy
		}
	}
	for t, p := range s.tenants {
		ts, err := p.exportState(t)
		if err != nil {
			return nil, err
		}
		if ts.Runs == 0 {
			continue
		}
		if st := s.tstates[t]; st != nil {
			ts.Spent, ts.EpochSpent = st.spent, st.epochSpent
		}
		snap.Tenants = append(snap.Tenants, ts)
	}
	sort.Slice(snap.Tenants, func(i, j int) bool { return snap.Tenants[i].Tenant < snap.Tenants[j].Tenant })
	if s.archive.n > 0 {
		snap.Runs = make([]RunSnapshot, 0, s.archive.n)
		s.archive.each(func(r RunSnapshot) { snap.Runs = append(snap.Runs, r) })
	}
	sort.Slice(snap.Runs, func(i, j int) bool { return snap.Runs[i].Num < snap.Runs[j].Num })
	return snap, nil
}

// RestoreSnapshot installs a snapshot into a freshly constructed scheduler
// with the writer's configuration (auction intervals, estimator factory,
// ledger presence, epoch length). The target may already hold tenant
// policies; the snapshot's policies are installed over them. After the
// restore, replaying the event-log tail recorded after the snapshot brings
// the scheduler to the exact state a full replay would reach. On error the
// scheduler holds a partial restore and must be discarded.
func (s *RunScheduler) RestoreSnapshot(snap *SchedulerSnapshot) error {
	if snap == nil {
		return errors.New("melody: restore needs a snapshot")
	}
	if snap.Version != schedulerSnapshotVersion && snap.Version != 2 {
		return fmt.Errorf("melody: snapshot version %d (want 2 or %d)", snap.Version, schedulerSnapshotVersion)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.runs) != 0 || s.archive.n != 0 || len(s.tenants) != 0 || s.registry.Len() != 0 {
		return errors.New("melody: restore target is not a fresh scheduler")
	}
	for _, id := range snap.Workers {
		if id == "" {
			return errors.New("melody: snapshot worker with empty ID")
		}
		s.registry.Register(id)
	}
	if snap.Ledger != nil {
		if s.cfg.Ledger == nil {
			return errors.New("melody: snapshot carries a ledger but the scheduler has none")
		}
		if err := s.cfg.Ledger.Restore(snap.Ledger); err != nil {
			return err
		}
	}
	if snap.Settler != nil {
		if s.settler == nil {
			return errors.New("melody: snapshot carries epoch state but the scheduler settles per run")
		}
		if err := s.settler.Restore(*snap.Settler); err != nil {
			return err
		}
	}
	for t, pol := range snap.Policies {
		if err := pol.validate(); err != nil {
			return err
		}
		ts := s.tenantStateLocked(t)
		ts.policy, ts.hasPolicy = pol, true
	}
	var everyone []string // a version-2 tenant's tracked set
	if snap.Version == 2 {
		everyone = s.registry.All()
	}
	for _, tsnap := range snap.Tenants {
		p, err := s.platformFor(tsnap.Tenant)
		if err != nil {
			return err
		}
		if snap.Version == 2 {
			if tsnap.Tracked != nil || tsnap.Marks != nil {
				return fmt.Errorf("melody: version-2 snapshot tenant %q has tracked workers", tsnap.Tenant)
			}
			tsnap.Tracked = everyone
		}
		if err := p.importState(tsnap); err != nil {
			return fmt.Errorf("melody: restore tenant %q: %w", tsnap.Tenant, err)
		}
		ts := s.tenantStateLocked(tsnap.Tenant)
		ts.spent, ts.epochSpent, ts.runsOpened = tsnap.Spent, tsnap.EpochSpent, tsnap.Runs
	}
	for _, rsnap := range snap.Runs {
		if s.tenants[rsnap.Tenant] == nil || rsnap.ID == "" || s.archive.has(rsnap.ID) {
			return fmt.Errorf("melody: snapshot run %q (tenant %q) is unknown or repeated", rsnap.ID, rsnap.Tenant)
		}
		s.archive.add(rsnap)
		s.opened = max(s.opened, rsnap.Num)
	}
	s.completed = len(snap.Runs)
	s.archiveBytes.Set(float64(s.archive.Size))
	s.observeLedger()
	return nil
}

// exportState captures a tenant platform's estimator, bidders and run
// count; the rest of its state is the scheduler's.
func (p *Platform) exportState(tenant string) (TenantSnapshot, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	ts := TenantSnapshot{Tenant: tenant, Runs: p.run}
	if p.open != nil {
		return ts, ErrSnapshotMidRun
	}
	if p.run == 0 {
		return ts, nil
	}
	es, ok := p.est.(EstimatorSnapshotter)
	if !ok {
		return ts, ErrNoSnapshot
	}
	est, err := es.SnapshotState()
	if err != nil {
		return ts, fmt.Errorf("melody: snapshot estimator: %w", err)
	}
	ts.Estimator = est
	ts.Tracked = slices.Clone(p.tracked)
	for _, m := range p.marks {
		ts.Marks = append(ts.Marks, [2]int{m.regs, m.finish})
	}
	if p.auction.Size() > 0 {
		ts.Bidders = p.auction.Snapshot()
	}
	return ts, nil
}

// importState installs exportState's capture into a fresh platform on the
// restored registry.
func (p *Platform) importState(ts TenantSnapshot) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.run != 0 || p.open != nil || p.auction.Size() != 0 {
		return errors.New("melody: restore target is not a fresh platform")
	}
	for i, id := range ts.Tracked {
		if !p.registry.Has(id) || i > 0 && ts.Tracked[i-1] >= id {
			return fmt.Errorf("melody: tracked worker %q is unregistered, repeated or out of order", id)
		}
	}
	for i, m := range ts.Marks {
		if m[0] < 1 || m[0] > p.registry.Count() || m[1] < 1 || m[1] > ts.Runs ||
			i > 0 && (ts.Marks[i-1][0] >= m[0] || ts.Marks[i-1][1] >= m[1]) {
			return fmt.Errorf("melody: registry mark %v is out of range or order", m)
		}
		p.marks = append(p.marks, registryMark{regs: m[0], finish: m[1]})
	}
	p.tracked = slices.Clone(ts.Tracked)
	if len(ts.Estimator) > 0 {
		es, ok := p.est.(EstimatorSnapshotter)
		if !ok {
			return ErrNoSnapshot
		}
		if err := es.RestoreState(ts.Estimator); err != nil {
			return fmt.Errorf("melody: restore estimator: %w", err)
		}
	}
	if len(ts.Bidders) > 0 {
		// The auction kernel's cached ranking is derived state: a pure
		// function of the bidder multiset. Reseeding it through the same
		// Sync CloseAuction uses reproduces it exactly; a restore records
		// no span.
		p.auction.SetTracer(nil)
		if err := p.auction.Sync(ts.Bidders); err != nil {
			return fmt.Errorf("melody: restore auction state: %w", err)
		}
	}
	p.run, p.finishes = ts.Runs, ts.Runs
	return nil
}
