// Package obs is the platform's stdlib-only observability layer: a metrics
// registry (sharded atomic counters, gauges and fixed-bucket histograms with
// Prometheus text-format exposition), lightweight run-scoped trace spans
// recorded into a bounded in-memory ring, and shared log/slog helpers. Every
// serving-path subsystem — the WAL group-commit pipeline, the HTTP server and
// client, the chaos middleware, the auction and the EM re-estimator — takes an
// optional *Registry / *Tracer and stays zero-overhead when they are nil: all
// instrument methods are no-ops on nil receivers, so the disabled path costs
// one predictable branch.
//
// The exposition side is plain net/http: Handler mounts GET /metrics
// (Prometheus text format) and GET /debug/traces (the last N spans as JSON),
// and cmd/melody-platform serves it on the -metrics side listener (and on the
// -pprof listener when one is configured).
package obs

// Metric names, in one place so instrumentation, exposition checks and the
// DESIGN.md catalog cannot drift. Label conventions: a family has at most one
// label; values are low-cardinality identifiers (endpoint and fault names,
// never worker or task IDs).
const (
	// WAL group-commit pipeline (internal/eventlog).
	MetricWALAppendsTotal    = "melody_wal_appends_total"
	MetricWALCommitsTotal    = "melody_wal_commits_total"
	MetricWALCommitBatchSize = "melody_wal_commit_batch_size"
	MetricWALFsyncSeconds    = "melody_wal_fsync_seconds"

	// Segmented storage engine (internal/eventlog): segment lifecycle,
	// snapshot freshness, bounded recovery and replication progress.
	MetricWALSegmentsTotal           = "melody_wal_segments_total"
	MetricWALActiveSegmentBytes      = "melody_wal_active_segment_bytes"
	MetricWALSnapshotAgeSeconds      = "melody_wal_snapshot_age_seconds"
	MetricWALSnapshotsTotal          = "melody_wal_snapshots_total"
	MetricWALCompactedSegmentsTotal  = "melody_wal_compacted_segments_total"
	MetricWALRecoveryReplayedRecords = "melody_wal_recovery_replayed_records"
	MetricReplicaBytesTotal          = "melody_replica_bytes_total"
	MetricReplicaLagBytes            = "melody_replica_lag_bytes"

	// HTTP serving path (internal/platform server), labelled by endpoint.
	MetricHTTPRequestsTotal  = "melody_http_requests_total"
	MetricHTTPErrorsTotal    = "melody_http_errors_total"
	MetricHTTPRequestSeconds = "melody_http_request_seconds"

	// Admission control (internal/platform server), labelled by endpoint
	// where a label makes sense. Queue depth counts requests waiting for an
	// ingest slot; shed requests were answered 429 without touching the
	// backend.
	MetricAdmissionShedTotal        = "melody_admission_shed_total"
	MetricAdmissionRateLimitedTotal = "melody_admission_rate_limited_total"
	MetricAdmissionQueueDepth       = "melody_admission_queue_depth"
	MetricAdmissionInFlight         = "melody_admission_in_flight"

	// Retrying client (internal/platform client).
	MetricClientRequestsTotal = "melody_client_requests_total"
	MetricClientRetriesTotal  = "melody_client_retries_total"
	MetricClientWindow        = "melody_client_concurrency_window"

	// Chaos middleware (internal/chaos), labelled by fault.
	MetricChaosInjectedTotal = "melody_chaos_injected_total"

	// Auction mechanism (internal/core via the melody facade).
	MetricAuctionDurationSeconds = "melody_auction_duration_seconds"
	MetricAuctionWinners         = "melody_auction_winners"
	MetricAuctionSpentBudget     = "melody_auction_spent_budget"
	MetricRunsCompletedTotal     = "melody_runs_completed_total"

	// Incremental auction cache (core.AuctionState).
	MetricAuctionIncrementalRepairsTotal = "melody_auction_incremental_repairs_total"
	MetricAuctionFullRebuildsTotal       = "melody_auction_full_rebuilds_total"
	MetricAuctionCacheChurnRatio         = "melody_auction_cache_churn_ratio"

	// EM re-estimation (internal/quality).
	MetricEMReestimateSeconds = "melody_em_reestimate_seconds"
	MetricEMRunsTotal         = "melody_em_runs_total"
	// Re-estimations that stopped at EMConfig.MaxIter without their
	// parameters settling within EMConfig.Tol.
	MetricEMUnconvergedTotal = "melody_em_unconverged_total"
	MetricEMLogLikelihood    = "melody_em_log_likelihood"
	// Workers whose belief diverged (non-finite) and were restarted from
	// the initial belief and theta^0 (internal/quality).
	MetricEstimatorRestartsTotal = "melody_estimator_restarts_total"

	// Ledger journal (internal/ledger via the run scheduler), set at every
	// finish and snapshot restore.
	MetricLedgerEntries      = "melody_ledger_entries"
	MetricLedgerJournalBytes = "melody_ledger_journal_bytes"

	// Finished-run archive (the run scheduler), set at every finish and
	// snapshot restore.
	MetricRunArchiveBytes = "melody_run_archive_bytes"

	// Spill of closed journal and archive chunks (internal/chunk) to a
	// scratch file beside the WAL, updated at every spill.
	MetricSpillBytes            = "melody_spill_bytes"
	MetricSpillWriteErrorsTotal = "melody_spill_write_errors_total"
)

// RegisterBaseline pre-registers the platform's standard metric families so
// an exposition endpoint advertises the full catalog (with zero values) from
// boot, before any traffic has touched a subsystem. Instrumented components
// re-register the same families idempotently and share the handles.
func RegisterBaseline(r *Registry) {
	if r == nil {
		return
	}
	r.Counter(MetricWALAppendsTotal, "Durable WAL appends accepted.")
	r.Counter(MetricWALCommitsTotal, "WAL group commits (one write+fsync each).")
	r.Histogram(MetricWALCommitBatchSize, "Records per WAL group commit.", BatchBuckets())
	r.Histogram(MetricWALFsyncSeconds, "Wall time of one WAL write+fsync batch.", TimeBuckets())
	r.Counter(MetricWALSegmentsTotal, "WAL segments created (including the first of each boot).")
	r.Gauge(MetricWALActiveSegmentBytes, "Bytes written to the active WAL segment.")
	r.Gauge(MetricWALSnapshotAgeSeconds, "Seconds since the newest state snapshot, updated on storage-engine activity.")
	r.Counter(MetricWALSnapshotsTotal, "State snapshots written.")
	r.Counter(MetricWALCompactedSegmentsTotal, "WAL segments dropped by compaction.")
	r.Gauge(MetricWALRecoveryReplayedRecords, "Records replayed by the most recent recovery.")
	r.Counter(MetricReplicaBytesTotal, "Bytes streamed to this replica from its primary.")
	r.Gauge(MetricReplicaLagBytes, "Durable bytes the primary holds that this replica has not yet acked.")
	r.CounterVec(MetricHTTPRequestsTotal, "HTTP requests served, by endpoint.", "endpoint")
	r.CounterVec(MetricHTTPErrorsTotal, "HTTP requests answered with a non-2xx status, by endpoint.", "endpoint")
	r.HistogramVec(MetricHTTPRequestSeconds, "HTTP request handling time, by endpoint.", "endpoint", TimeBuckets())
	r.CounterVec(MetricAdmissionShedTotal, "Requests shed with 429 by admission control, by endpoint.", "endpoint")
	r.Counter(MetricAdmissionRateLimitedTotal, "Requests shed because a tenant exhausted its rate budget.")
	r.Gauge(MetricAdmissionQueueDepth, "Ingest requests currently queued for an admission slot.")
	r.Gauge(MetricAdmissionInFlight, "Ingest requests currently holding an admission slot.")
	r.Counter(MetricClientRequestsTotal, "Client request attempts issued.")
	r.Counter(MetricClientRetriesTotal, "Client attempts that were retries of a failed attempt.")
	r.Gauge(MetricClientWindow, "Adaptive client concurrency window (floor of the AIMD window).")
	r.CounterVec(MetricChaosInjectedTotal, "Faults injected by the chaos layer, by fault kind.", "fault")
	r.Histogram(MetricAuctionDurationSeconds, "Wall time of one auction mechanism run.", TimeBuckets())
	r.Gauge(MetricAuctionWinners, "Distinct winning workers in the latest auction.")
	r.Gauge(MetricAuctionSpentBudget, "Total payment committed by the latest auction.")
	r.Counter(MetricRunsCompletedTotal, "Completed platform runs.")
	r.Counter(MetricAuctionIncrementalRepairsTotal, "Auction cache deltas applied by local repair.")
	r.Counter(MetricAuctionFullRebuildsTotal, "Auction cache deltas applied by full rebuild.")
	r.Gauge(MetricAuctionCacheChurnRatio, "Registry fraction mutated by the latest delta.")
	r.Histogram(MetricEMReestimateSeconds, "Wall time of one per-worker EM re-estimation (its share of its lane group's time).", TimeBuckets())
	r.Counter(MetricEMRunsTotal, "EM re-estimations performed.")
	r.Counter(MetricEMUnconvergedTotal, "EM re-estimations that stopped at the iteration cap without reaching the tolerance.")
	r.Gauge(MetricEMLogLikelihood, "Final log marginal likelihood of the latest EM re-estimation.")
	r.Counter(MetricEstimatorRestartsTotal, "Diverged workers restarted from the initial belief.")
	r.Gauge(MetricLedgerEntries, "Entries in the ledger's journal.")
	r.Gauge(MetricLedgerJournalBytes, "Bytes the ledger's journal chunks take.")
	r.Gauge(MetricRunArchiveBytes, "Bytes the finished-run archive's chunks take.")
	r.Gauge(MetricSpillBytes, "Bytes of closed ledger-journal and run-archive chunks spilled to scratch files.")
	r.Counter(MetricSpillWriteErrorsTotal, "Chunk spills that failed to write and left the chunk in the heap.")
}
