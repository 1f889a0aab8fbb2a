// Package eventlog provides durable, append-only persistence for the
// MELODY platform: every state-changing platform operation is recorded as a
// JSON-lines event, and a crashed platform is rebuilt by replaying the log
// into a fresh instance. A bid or score submission is one event however
// many items it carries, and replay applies it as the submission was
// applied. Replay is exact for two reasons. The platform is
// deterministic given its inputs: the auction breaks ties by ID and the
// quality model's posterior update is a closed-form recursion. And the one
// costly, iterative step, the EM re-estimation of a worker's
// hyper-parameters, is not replayed: each finish_run record carries the
// theta its finish's EMs gave, in encoding/json's shortest exact float
// form, and replay installs them; a finish whose estimator made none logs an
// empty list. A finish record without the list, as written before finishes
// logged it, replays EM, which is deterministic too.
//
// Durable appends go through a group-commit pipeline: concurrent Appends
// encode their records into a shared batch, a single committer goroutine
// flushes the batch with one write and one fsync, and every waiter releases
// when its record is on disk. Under concurrent load (a bid burst from the
// whole worker pool) the fsync cost is amortized across the batch while
// each Append keeps the write-ahead-log contract — it returns only after
// its record is durable — and the on-disk format is one record per line,
// exactly as a buffered log writes it.
package eventlog

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"melody/internal/obs"
)

// Kind discriminates event payloads.
type Kind string

// The event kinds, one per state-changing platform operation.
const (
	KindRegister Kind = "register"
	KindOpenRun  Kind = "open_run"
	// KindBids records the bids one submission applied, in order.
	KindBids  Kind = "bids"
	KindClose Kind = "close_auction"
	// KindScores records the scores one submission applied, in order.
	KindScores Kind = "scores"
	KindFinish Kind = "finish_run"
	// KindBid and KindScore are one bid or score each, as logs held them
	// before submissions were logged as batches. Replay still reads them;
	// nothing writes them.
	KindBid   Kind = "bid"
	KindScore Kind = "score"
	// KindTenantPolicy records a tenant-policy install/update; replay
	// reconstructs quotas exactly, last write winning.
	KindTenantPolicy Kind = "tenant_policy"
)

// TaskRecord is a task inside an open_run event.
type TaskRecord struct {
	ID        string  `json:"id"`
	Threshold float64 `json:"threshold"`
}

// BidRecord is one applied bid inside a bids event.
type BidRecord struct {
	Worker    string  `json:"worker"`
	Cost      float64 `json:"cost"`
	Frequency int     `json:"frequency"`
}

// ScoreRecord is one applied score inside a scores event.
type ScoreRecord struct {
	Worker string  `json:"worker"`
	Task   string  `json:"task"`
	Score  float64 `json:"score"`
}

// PolicyRecord is the durable form of a melody.TenantPolicy inside a
// tenant_policy event. Quotas keep the in-memory sign convention
// (negative = unlimited), so the full policy state round-trips.
type PolicyRecord struct {
	BudgetQuota      float64 `json:"budgetQuota"`
	EpochBudgetQuota float64 `json:"epochBudgetQuota"`
	MaxRuns          int     `json:"maxRuns,omitempty"`
	Weight           float64 `json:"weight,omitempty"`
}

// EMRecord lists the EM re-estimations a finish made, in the tenant
// estimator's batch order: Workers[i] got theta = {a, gamma, eta} =
// Params[i]. The worker IDs let replay check that it makes the same
// workers due; the theta are float64s in encoding/json's shortest form
// that parses back to the same bits, so installing them leaves the state
// EM left. A finish that made no worker due logs the empty record, `{}`,
// so replay can tell it from a log that did not record re-estimations.
type EMRecord struct {
	Workers []string     `json:"workers,omitempty"`
	Params  [][3]float64 `json:"params,omitempty"`
}

// validate checks that the record lists one theta per worker.
func (r *EMRecord) validate() error {
	switch {
	case len(r.Params) != len(r.Workers):
		return fmt.Errorf("eventlog: finish_run em member lists %d workers but %d params", len(r.Workers), len(r.Params))
	case slices.Contains(r.Workers, ""):
		return errors.New("eventlog: finish_run em member with an empty worker")
	}
	return nil
}

// Event is one durable platform operation. Fields are populated according
// to Kind; unused fields are omitted from the encoding.
type Event struct {
	Seq       int64        `json:"seq"`
	Kind      Kind         `json:"kind"`
	Worker    string       `json:"worker,omitempty"`
	Task      string       `json:"task,omitempty"`
	Cost      float64      `json:"cost,omitempty"`
	Frequency int          `json:"frequency,omitempty"`
	Score     float64      `json:"score,omitempty"`
	Budget    float64      `json:"budget,omitempty"`
	Tasks     []TaskRecord `json:"tasks,omitempty"`
	// Run tags the event with its run ID, so interleaved events from
	// concurrent runs replay against the right run. Every run event needs
	// one; register and tenant_policy events have none.
	Run string `json:"run,omitempty"`
	// Tenant names the run's tenant on an open_run event (empty for the
	// default tenant), and the policy's tenant on a tenant_policy event.
	Tenant string `json:"tenant,omitempty"`
	// Policy carries a tenant_policy event's full policy record.
	Policy *PolicyRecord `json:"policy,omitempty"`
	// EM carries a finish_run event's EM re-estimations, which replay
	// installs instead of running EM again; it is empty when the finish
	// made none. A finish whose estimator does not report them has no EM
	// member and replays with EM recomputed.
	EM *EMRecord `json:"em,omitempty"`
	// Bids carries a bids event's applied bids.
	Bids []BidRecord `json:"bids,omitempty"`
	// Scores carries a scores event's applied scores.
	Scores []ScoreRecord `json:"scores,omitempty"`
	// CRC is the IEEE CRC-32 of the record's canonical encoding (the JSON
	// of the event with CRC itself zeroed), detecting silent on-disk
	// corruption. Zero means "no checksum": records written before
	// checksumming was introduced still replay. It must stay the last
	// field: recovery finds the canonical bytes by cutting the closing crc
	// member off the record as written (see recordChecksum).
	CRC uint32 `json:"crc,omitempty"`
}

// validate checks kind-specific invariants before an event is persisted.
func (e Event) validate() error {
	switch e.Kind {
	case KindRegister:
		if e.Worker == "" {
			return errors.New("eventlog: register event without worker")
		}
	case KindOpenRun:
		if len(e.Tasks) == 0 {
			return errors.New("eventlog: open_run event without tasks")
		}
	case KindBid:
		if e.Worker == "" {
			return errors.New("eventlog: bid event without worker")
		}
	case KindScore:
		if e.Worker == "" || e.Task == "" {
			return errors.New("eventlog: score event without worker or task")
		}
	case KindBids:
		if len(e.Bids) == 0 {
			return errors.New("eventlog: bids event without bids")
		}
		for _, b := range e.Bids {
			if b.Worker == "" {
				return errors.New("eventlog: bids event with a bid without worker")
			}
		}
	case KindScores:
		if len(e.Scores) == 0 {
			return errors.New("eventlog: scores event without scores")
		}
		for _, sc := range e.Scores {
			if sc.Worker == "" || sc.Task == "" {
				return errors.New("eventlog: scores event with a score without worker or task")
			}
		}
	case KindClose, KindFinish:
	case KindTenantPolicy:
		if e.Tenant == "" || e.Policy == nil {
			return errors.New("eventlog: tenant_policy event without tenant or policy")
		}
	default:
		return fmt.Errorf("eventlog: unknown event kind %q", e.Kind)
	}
	switch {
	case e.Bids != nil && e.Kind != KindBids:
		return fmt.Errorf("eventlog: %s event with a bids member", e.Kind)
	case e.Scores != nil && e.Kind != KindScores:
		return fmt.Errorf("eventlog: %s event with a scores member", e.Kind)
	case e.EM != nil && e.Kind != KindFinish:
		return fmt.Errorf("eventlog: %s event with an em member", e.Kind)
	case e.EM != nil:
		return e.EM.validate()
	}
	return nil
}

// Log state errors, matchable with errors.Is.
var (
	// ErrClosed is returned by appends to a closed log.
	ErrClosed = errors.New("eventlog: log is closed")
	// ErrFailed is returned once a write, flush or fsync has failed: the
	// durable tail is unknown, so the log refuses every further append
	// until it is reopened (Open re-scans the file and truncates any torn
	// tail, re-establishing a known-good end).
	ErrFailed = errors.New("eventlog: log failed")
)

// Options configures a Log beyond the Open defaults.
type Options struct {
	// SyncEveryAppend makes every Append return only after its record is
	// fsynced (write-ahead-log durability); otherwise appends are buffered
	// and flushed on Close.
	SyncEveryAppend bool
	// Metrics optionally receives the WAL pipeline metrics: accepted
	// appends, group commits, records per commit, write+fsync wall time,
	// and the records recovered at open. Nil disables instrumentation.
	Metrics *obs.Registry
	// Tracer optionally records a "wal.recover" span for the recovery at
	// open and a "wal.commit" span per write+fsync batch.
	Tracer *obs.Tracer
}

// maxKeptBuffer bounds the encode buffers a Log keeps for reuse. One that
// grew past it for a large record or batch (a finish that logs a whole
// 2,000-worker pool's EM re-estimations is about 150 KB) is dropped after
// use, so the log does not hold its high-water mark for its lifetime.
const maxKeptBuffer = 64 << 10

// reuse returns b emptied for the next use, or a fresh buffer when b grew
// past maxKeptBuffer.
func reuse(b *bytes.Buffer) *bytes.Buffer {
	if b.Cap() > maxKeptBuffer {
		return new(bytes.Buffer)
	}
	b.Reset()
	return b
}

// commitTarget is the log's durable destination: an *os.File in production,
// a fault-injecting fake in the failure-semantics tests.
type commitTarget interface {
	io.Writer
	Sync() error
	Close() error
}

// Log is an append-only JSON-lines event log, safe for concurrent use.
// Durable appends (SyncEveryAppend) are coalesced by a group-commit
// pipeline; see Append.
type Log struct {
	mu   sync.Mutex
	f    commitTarget
	w    *bufio.Writer // buffered path for non-durable logs
	seq  int64
	sync bool

	// seg, when non-nil, routes batch writes through the segmented engine's
	// rotation-aware writer instead of a plain file append. The commit
	// pipeline is otherwise unchanged — record encoding, fsync semantics and
	// failure poisoning are identical to the single-file engine.
	seg *segmentWriter

	// pending accumulates encoded records awaiting the next commit; the
	// committer swaps it with spare.
	pending *bytes.Buffer
	spare   *bytes.Buffer
	enc     *json.Encoder // writes into encBuf
	encBuf  bytes.Buffer  // scratch for one record's canonical encoding
	scratch Event         // reused so Encode's any-boxing never allocates

	durable int64 // highest sequence number known to be on disk
	failed  error // sticky ErrFailed-wrapped durability failure
	closed  bool

	work *sync.Cond // wakes the committer: pending data or close
	// doneCh is closed and replaced whenever durable advances or the log
	// fails; waiters select on the channel they captured, so a wait can also
	// honour a context deadline (a sync.Cond cannot).
	doneCh   chan struct{}
	commExit chan struct{} // closed when the committer goroutine exits

	// pendingCount tracks how many records the pending buffer holds, so the
	// committer can report records-per-commit without parsing the batch.
	pendingCount int

	// Instrumentation handles; nil (no-op) when Options.Metrics/Tracer are
	// nil, so the uninstrumented pipeline pays one predictable branch.
	appends   *obs.Counter
	commits   *obs.Counter
	batchSize *obs.Histogram
	fsyncSecs *obs.Histogram
	tracer    *obs.Tracer
}

// newLog assembles a Log over an already-positioned commit target.
func newLog(f commitTarget, seq int64, opts Options) *Log {
	l := &Log{
		f:       f,
		w:       bufio.NewWriter(f),
		seq:     seq,
		durable: seq, // every recovered record was read back from disk
		sync:    opts.SyncEveryAppend,
		pending: new(bytes.Buffer),
		spare:   new(bytes.Buffer),
	}
	l.enc = json.NewEncoder(&l.encBuf)
	l.work = sync.NewCond(&l.mu)
	l.doneCh = make(chan struct{})
	l.appends = opts.Metrics.Counter(obs.MetricWALAppendsTotal, "Durable WAL appends accepted.")
	l.commits = opts.Metrics.Counter(obs.MetricWALCommitsTotal, "WAL group commits (one write+fsync each).")
	l.batchSize = opts.Metrics.Histogram(obs.MetricWALCommitBatchSize, "Records per WAL group commit.", obs.BatchBuckets())
	l.fsyncSecs = opts.Metrics.Histogram(obs.MetricWALFsyncSeconds, "Wall time of one WAL write+fsync batch.", obs.TimeBuckets())
	l.tracer = opts.Tracer
	if l.sync {
		l.commExit = make(chan struct{})
		go l.commitLoop()
	}
	return l
}

// Open opens (creating if needed) the log at path in append mode and scans
// existing events to resume the sequence number. When syncEveryAppend is
// true every Append fsyncs before returning (write-ahead-log durability),
// with concurrent appends coalesced into shared fsyncs; otherwise appends
// are buffered and flushed on Close.
//
// A torn final record (a partial line left by a crash mid-write) is
// truncated away before appending resumes, so the next record never lands
// after garbage and a later replay sees a clean log.
func Open(path string, syncEveryAppend bool) (*Log, error) {
	return OpenOptions(path, Options{SyncEveryAppend: syncEveryAppend})
}

// OpenOptions is Open with explicit Options.
func OpenOptions(path string, opts Options) (*Log, error) {
	return openLog(path, opts, func(Event) error { return nil })
}

// openLog opens (creating if needed) the log at path for appending after
// reading it exactly once: every valid record is handed to replay in
// order, a torn tail is truncated, and the sequence resumes after the last
// record. Nothing is truncated or appended when the scan or replay fails.
func openLog(path string, opts Options, replay func(Event) error) (*Log, error) {
	_, statErr := os.Stat(path)
	created := errors.Is(statErr, os.ErrNotExist)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("eventlog: open %s: %w", path, err)
	}
	fail := func(err error) (*Log, error) {
		f.Close()
		return nil, err
	}
	sp := opts.Tracer.Start("wal.recover")
	defer sp.End()
	end, err := scanRecords(f, scanEnd{}, replay)
	if err != nil {
		return fail(err)
	}
	// Sequences start at 1 and are contiguous, so the last one counts the
	// records recovered.
	sp.SetAttrInt("replayed_records", end.last)
	opts.Metrics.Gauge(obs.MetricWALRecoveryReplayedRecords, "Records replayed by the most recent recovery.").Set(float64(end.last))
	info, err := f.Stat()
	if err != nil {
		return fail(fmt.Errorf("eventlog: stat %s: %w", path, err))
	}
	if info.Size() > end.valid {
		// Crash recovery: drop the torn tail so appends continue from the
		// end of the last complete record.
		if err := f.Truncate(end.valid); err != nil {
			return fail(fmt.Errorf("eventlog: truncate torn tail of %s: %w", path, err))
		}
	}
	if created {
		// Make the new file's directory entry durable: without the parent
		// fsync a crash shortly after boot can lose the whole log file even
		// though every appended record was fsynced into it.
		if err := syncDir(filepath.Dir(path)); err != nil {
			return fail(err)
		}
	}
	return newLog(f, end.last, opts), nil
}

// Append persists one event, assigning and returning its sequence number.
// Every record carries a CRC-32 of its canonical encoding so silent disk
// corruption is detected at replay instead of being deserialized.
//
// On a durable log, Append returns only once the record has been written
// and fsynced; concurrent Appends share write+fsync batches through the
// group-commit pipeline. Once any write, flush or fsync fails, the log's
// durable tail is unknown: the failing appends report the failure, and
// every later append returns ErrFailed until the log is reopened. (A
// failed append keeps its sequence number — the record may be partially on
// disk — so reopening, which truncates the torn tail, is the only way to
// re-establish a consistent end of log.)
func (l *Log) Append(e Event) (int64, error) {
	seq, wait, err := l.AppendAsync(e)
	if err != nil {
		return 0, err
	}
	if err := wait(context.Background()); err != nil {
		return 0, err
	}
	return seq, nil
}

// waitDone is the no-op wait returned when the record is already as durable
// as the log's mode promises.
func waitDone(context.Context) error { return nil }

// waitTail waits until every record appended so far is as durable as the
// log's mode promises: the wait of a caller that appends nothing because
// an earlier record already holds its operation.
func (l *Log) waitTail(ctx context.Context) error {
	if !l.sync {
		return nil
	}
	return l.await(ctx, l.Seq())
}

// AppendAsync validates and enqueues one event, returning its assigned
// sequence number and a wait function that blocks until the record is as
// durable as the log's mode promises (fsynced for durable logs, buffered
// otherwise). It exists so a caller holding its own ordering lock — a
// PersistentScheduler — can serialize "apply + enqueue" yet wait for the
// fsync outside that lock, letting the group-commit pipeline coalesce
// concurrent operations.
//
// The wait function honours its context: when the deadline expires or the
// context is cancelled before the record is durable, the wait returns the
// context's error and the caller may give up — but the append itself is
// already enqueued and will still reach disk with its sequence number, so
// an abandoned wait is "unknown outcome", exactly like a lost response on
// the wire (the idempotent mutation protocol makes retrying safe).
func (l *Log) AppendAsync(e Event) (int64, func(context.Context) error, error) {
	if err := e.validate(); err != nil {
		return 0, nil, err
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, nil, ErrClosed
	}
	if l.failed != nil {
		err := l.failed
		l.mu.Unlock()
		return 0, nil, err
	}
	l.seq++
	e.Seq = l.seq
	if err := l.encodeLocked(e); err != nil {
		// Nothing reached the file: the sequence number is safely reusable.
		l.seq--
		l.mu.Unlock()
		return 0, nil, err
	}
	seq := l.seq
	l.pendingCount++
	l.appends.Inc()
	if !l.sync {
		// Buffered mode: hand the record to the bufio writer now; a write
		// failure here poisons the log like any durability failure. A
		// segmented log skips the bufio layer so rotation still sees every
		// record (the per-record write is one syscall either way at the
		// segment sizes in play).
		var werr error
		if l.seg != nil {
			werr = l.seg.writeBatch(l.pending.Bytes(), seq, seq)
		} else {
			_, werr = l.w.Write(l.pending.Bytes())
		}
		l.pending = reuse(l.pending)
		l.pendingCount = 0
		if werr != nil {
			l.failLocked(fmt.Errorf("append: %v", werr))
			err := l.failed
			l.mu.Unlock()
			return 0, nil, err
		}
		l.mu.Unlock()
		return seq, waitDone, nil
	}
	l.work.Signal()
	l.mu.Unlock()
	return seq, func(ctx context.Context) error { return l.await(ctx, seq) }, nil
}

// encodeLocked appends e's record bytes to the pending buffer: the JSON of
// the event with its CRC populated, newline-terminated — byte-identical to
// json.Marshal plus '\n'. The event is encoded once, canonically, with CRC
// zeroed and so omitted; see appendRecord for the checksummed record. All
// scratch buffers are reused up to maxKeptBuffer, so a steady-state append
// allocates nothing, and the scratch event is cleared after use, so it
// keeps none of the event's slices reachable. Callers hold l.mu.
func (l *Log) encodeLocked(e Event) error {
	l.encBuf.Reset()
	l.scratch = e
	l.scratch.CRC = 0
	err := l.enc.Encode(&l.scratch)
	l.scratch = Event{}
	if err != nil {
		return fmt.Errorf("eventlog: encode: %w", err)
	}
	l.pending.Write(appendRecord(l.pending.AvailableBuffer(), l.encBuf.Bytes()))
	if l.encBuf.Cap() > maxKeptBuffer {
		l.encBuf = bytes.Buffer{} // the encoder writes through a pointer to the field
	}
	return nil
}

// appendRecord appends to dst the record whose canonical encoding is canon,
// as the encoder writes it: ending in "}\n". CRC is Event's last field, so
// the record is canon with the crc member spliced in before the closing
// brace. A zero CRC is omitted like any empty omitempty field, which leaves
// canon as it is.
func appendRecord(dst, canon []byte) []byte {
	n := len(canon) - 1 // the value, without the encoder's newline
	crc := crc32.ChecksumIEEE(canon[:n])
	if crc == 0 {
		return append(dst, canon...)
	}
	dst = append(dst, canon[:n-1]...)
	dst = append(dst, crcMember...)
	dst = strconv.AppendUint(dst, uint64(crc), 10)
	return append(dst, "}\n"...)
}

// failLocked poisons the log after a durability failure. Callers hold l.mu.
func (l *Log) failLocked(cause error) {
	if l.failed == nil {
		l.failed = fmt.Errorf("%w: %w (reopen to recover)", ErrFailed, cause)
	}
	l.notifyLocked()
	l.work.Broadcast()
}

// notifyLocked wakes every waiter by closing the current done channel and
// installing a fresh one. Callers hold l.mu.
func (l *Log) notifyLocked() {
	close(l.doneCh)
	l.doneCh = make(chan struct{})
}

// writeAll lands one encoded batch covering sequences [lo, hi] on the
// commit target: the segmented writer (which may rotate first) when one is
// attached, a plain append otherwise.
func (l *Log) writeAll(p []byte, lo, hi int64) error {
	if l.seg != nil {
		return l.seg.writeBatch(p, lo, hi)
	}
	_, err := l.f.Write(p)
	return err
}

// await blocks until seq is durable, the log has failed, or ctx is done.
// Abandoning the wait does not un-append the record; see AppendAsync.
func (l *Log) await(ctx context.Context, seq int64) error {
	for {
		l.mu.Lock()
		if l.durable >= seq {
			l.mu.Unlock()
			return nil
		}
		if l.failed != nil {
			err := l.failed
			l.mu.Unlock()
			return err
		}
		ch := l.doneCh
		l.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// commitLoop is the group-commit pipeline: it swaps out the pending batch,
// writes it with one write+fsync, and releases every waiter whose record
// the batch carried. New appends accumulate into the other buffer while a
// commit is in flight, so the pipeline self-batches under load.
func (l *Log) commitLoop() {
	defer close(l.commExit)
	l.mu.Lock()
	for {
		for l.pending.Len() == 0 && !l.closed && l.failed == nil {
			l.work.Wait()
		}
		if l.failed != nil || (l.closed && l.pending.Len() == 0) {
			l.mu.Unlock()
			return
		}
		// Commit window: the waiters released by the previous commit are
		// runnable but may not have enqueued their next record yet, and
		// sealing the batch now would strand them on an extra fsync (the
		// observed steady state is batches of 1-2 even with many closed-loop
		// appenders). Yield while the batch keeps growing — each yield lets
		// every runnable appender encode — and seal once it stabilizes. An
		// idle log pays one ~100ns yield; the spin cap bounds added latency
		// under open-loop floods.
		for spins := 0; spins < 16 && !l.closed; spins++ {
			n := l.pendingCount
			l.mu.Unlock()
			runtime.Gosched()
			l.mu.Lock()
			if l.pendingCount == n || l.failed != nil {
				break
			}
		}
		if l.failed != nil || (l.closed && l.pending.Len() == 0) {
			l.mu.Unlock()
			return
		}
		batch := l.pending
		count := l.pendingCount
		l.pending, l.spare = l.spare, nil // appenders write into the other buffer
		l.pendingCount = 0
		hi := l.seq
		l.mu.Unlock()

		sp := l.tracer.Start("wal.commit")
		sp.SetAttrInt("records", int64(count))
		start := time.Now()
		err := l.writeAll(batch.Bytes(), hi-int64(count)+1, hi)
		if err == nil {
			err = l.f.Sync()
		}
		l.fsyncSecs.Observe(time.Since(start).Seconds())
		sp.End()

		l.mu.Lock()
		l.spare = reuse(batch)
		if err != nil {
			l.failLocked(err)
			l.mu.Unlock()
			return
		}
		l.commits.Inc()
		l.batchSize.Observe(float64(count))
		l.durable = hi
		l.notifyLocked()
	}
}

// Seq returns the last assigned sequence number.
func (l *Log) Seq() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Close drains any in-flight commits, flushes buffered records and closes
// the log. Appends after Close return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	if l.commExit != nil {
		// Let the committer drain the pending batch and exit.
		l.work.Broadcast()
		l.mu.Unlock()
		<-l.commExit
		l.mu.Lock()
	}
	err := l.failed
	if err == nil && !l.sync {
		if ferr := l.w.Flush(); ferr != nil {
			err = fmt.Errorf("eventlog: flush: %w", ferr)
		}
	}
	l.mu.Unlock()
	cerr := l.f.Close()
	if err != nil {
		return err
	}
	if cerr != nil {
		return fmt.Errorf("eventlog: close: %w", cerr)
	}
	return nil
}

// ReadAll reads every event from the log at path. A truncated final line
// (torn write from a crash) is tolerated and ignored, matching
// write-ahead-log recovery semantics; corruption elsewhere — including a
// CRC mismatch on a checksummed record — is an error.
func ReadAll(path string) ([]Event, error) {
	var events []Event
	if err := scanFile(path, func(e Event) error {
		events = append(events, e)
		return nil
	}); err != nil {
		return nil, err
	}
	return events, nil
}
