package platform

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"melody"
	"melody/internal/obs"
)

// MultiRunBackend is the platform surface the HTTP server drives: every
// run-scoped mutation is keyed by run ID, so N runs from different tenants
// proceed concurrently. It is satisfied by *melody.RunScheduler and by
// eventlog.PersistentScheduler (the WAL-backed variant). Mutations take
// the request context first, so cancellation and deadlines reach the
// backend's durability waits; read-only queries are lock-scoped and
// context-free. The batch methods apply a whole slice of bids or scores
// under one lock acquisition (and, for the WAL backend, one group commit)
// with per-item errors.
type MultiRunBackend interface {
	RegisterWorker(ctx context.Context, workerID string) error
	OpenRun(ctx context.Context, runID, tenant string, tasks []melody.Task, budget float64) error
	SubmitBid(ctx context.Context, runID, workerID string, bid melody.Bid) error
	SubmitBids(ctx context.Context, runID string, bids []melody.WorkerBid) melody.BatchResult
	CloseAuction(ctx context.Context, runID string) (*melody.Outcome, error)
	SubmitScore(ctx context.Context, runID, workerID, taskID string, score float64) error
	SubmitScores(ctx context.Context, runID string, scores []melody.TaskScore) melody.BatchResult
	FinishRun(ctx context.Context, runID string) error
	Workers() []string
	CompletedRuns() int
	OpenRuns() []melody.RunInfo
	Run(runID string) (melody.RunInfo, error)
	Quality(tenant, workerID string) (float64, error)
	Forecast(tenant, workerID string, steps int) (melody.QualityForecast, error)
	// Tenant control plane: typed policies (budget quotas, run caps,
	// close-scheduling weights) administered over /v1/tenants.
	SetTenantPolicy(ctx context.Context, tenant string, p melody.TenantPolicy) error
	TenantStatus(tenant string) (melody.TenantStatus, error)
	TenantStatuses() []melody.TenantStatus
}

var _ MultiRunBackend = (*melody.RunScheduler)(nil)

// runState is one run's HTTP-side state machine: its lifecycle phase,
// recorded outcome, answer store, watchdog timer and phase span. Each run
// owns its own mutex, so two tenants' runs never contend on a shared
// phase lock — the run registry (Server.mu) is only held for map lookups,
// never across a backend call or another run's work.
type runState struct {
	id     string
	tenant string
	num    int // the backend's run number (melody.RunInfo.Num), for spans and status

	mu      sync.Mutex
	phase   Phase
	outcome *melody.Outcome // the backend's own; nothing mutates it after close
	answers []Answer
	timer   *time.Timer // pending phase-deadline action, nil when disarmed
	span    *obs.ActiveSpan
	done    bool
}

// Server exposes a run-scheduler backend over HTTP. It adds the
// answer-routing layer (workers submit answers, the requester fetches them
// for scoring) that the core platform leaves to the deployment, plus the
// run-deadline watchdog that keeps a season moving when workers or the
// requester crash mid-run.
//
// Runs are addressed as /v1/runs/{id}/..., by the ID POST /v1/runs
// returns; runs from different tenants move through
// bidding→scoring→finish concurrently. A client may name a run; the
// server names the others "r<n>" (see handleOpenRun).
//
// Locking: Server.mu guards only the run registry (runs map, open order)
// and is never held across a backend call; each runState.mu guards that
// run's phase/outcome/answers; nameMu serializes the opens the server
// names. Lock order: nameMu first; Server.mu and runState.mu are never
// nested except registry-then-run for reads; backend-internal locks are
// below all of them.
type Server struct {
	backend MultiRunBackend
	log     *slog.Logger

	// Per-endpoint metric families and the span tracer; nil (no-op) unless
	// WithMetrics / WithTracer were given.
	metrics *obs.Registry
	reqs    *obs.CounterVec
	reqErrs *obs.CounterVec
	reqSecs *obs.HistogramVec
	tracer  *obs.Tracer

	// bidDeadline and scoreDeadline bound how long a run may sit in the
	// bidding and scoring phases; zero disables the watchdog.
	bidDeadline   time.Duration
	scoreDeadline time.Duration

	// admission, when non-nil, gates the sheddable ingest endpoints
	// (register/bid/answer) behind bounded queues and per-tenant rate
	// limits; the control plane and scoring are never shed, so an opened
	// run always settles. See AdmissionConfig.
	admission *admission

	nameMu sync.Mutex // held from naming an unnamed open until the backend opens it

	mu    sync.RWMutex
	runs  map[string]*runState // in-flight runs by ID
	order []string             // in-flight run IDs in open order

	// replSrc, when non-nil, exposes the storage engine's durable files on
	// the /v1/replication endpoints; replMu guards the ack positions.
	replSrc  ReplicationSource
	replMu   sync.Mutex
	replicas map[string]ReplicaState
}

// ServerOption customizes a Server.
type ServerOption func(*Server)

// WithDeadlines arms the run watchdog: a run still bidding after bid
// elapses is closed with the bids that arrived, and a run still scoring
// after score elapses is finished with the scores that arrived — absent
// winners degrade into the estimator's missing-observation path instead of
// wedging the season. Zero disables either deadline.
func WithDeadlines(bid, score time.Duration) ServerOption {
	return func(s *Server) { s.bidDeadline, s.scoreDeadline = bid, score }
}

// WithMetrics instruments every endpoint with request, error and latency
// families labelled by endpoint name.
func WithMetrics(reg *obs.Registry) ServerOption {
	return func(s *Server) { s.metrics = reg }
}

// WithTracer records run-phase spans ("run.bidding" from open to close,
// "run.scoring" from close to finish).
func WithTracer(tr *obs.Tracer) ServerOption {
	return func(s *Server) { s.tracer = tr }
}

// NewMultiServer wraps a run-scheduler backend (a melody.RunScheduler or
// its WAL-backed variant) in the HTTP API, with concurrent per-run state
// machines. logger may be nil to disable request logging. Every run the
// backend reports open — after a WAL crash recovery — is resumed with its
// phase, outcome and deadline rather than idling forever.
func NewMultiServer(m MultiRunBackend, logger *slog.Logger, opts ...ServerOption) (*Server, error) {
	if m == nil {
		return nil, errors.New("platform: nil backend")
	}
	if logger == nil {
		logger = obs.NopLogger()
	}
	s := &Server{backend: m, log: logger, runs: make(map[string]*runState)}
	for _, opt := range opts {
		opt(s)
	}
	s.reqs = s.metrics.CounterVec(obs.MetricHTTPRequestsTotal, "HTTP requests served, by endpoint.", "endpoint")
	s.reqErrs = s.metrics.CounterVec(obs.MetricHTTPErrorsTotal, "HTTP requests answered with a non-2xx status, by endpoint.", "endpoint")
	s.reqSecs = s.metrics.HistogramVec(obs.MetricHTTPRequestSeconds, "HTTP request handling time, by endpoint.", "endpoint", obs.TimeBuckets())
	if s.admission != nil {
		s.admission.instrument(s.metrics)
	}
	for _, info := range m.OpenRuns() {
		s.resumeRun(info)
	}
	return s, nil
}

// resumeRun installs a runState for a run the backend reports as still in
// flight, restoring its phase — with its outcome — and re-arming the
// matching deadline.
func (s *Server) resumeRun(info melody.RunInfo) {
	rs := &runState{id: info.ID, tenant: info.Tenant, num: info.Num, phase: PhaseBidding}
	rs.mu.Lock()
	if info.Outcome != nil {
		rs.phase = PhaseScoring
		rs.outcome = info.Outcome
		s.scheduleRunLocked(rs, s.scoreDeadline, s.deadlineFinish)
		s.startRunSpanLocked(rs, "run.scoring")
		s.log.Info("resumed run in scoring phase", "run", info.ID)
	} else {
		s.scheduleRunLocked(rs, s.bidDeadline, s.deadlineClose)
		s.startRunSpanLocked(rs, "run.bidding")
		s.log.Info("resumed run in bidding phase", "run", info.ID)
	}
	rs.mu.Unlock()
	s.runs[info.ID] = rs
	s.order = append(s.order, info.ID)
}

// scheduleRunLocked re-arms a run's phase-deadline timer; callers hold
// rs.mu. A non-positive deadline just disarms any pending action.
func (s *Server) scheduleRunLocked(rs *runState, d time.Duration, fire func(*runState)) {
	if rs.timer != nil {
		rs.timer.Stop()
		rs.timer = nil
	}
	if d <= 0 {
		return
	}
	rs.timer = time.AfterFunc(d, func() { fire(rs) })
}

// startRunSpanLocked ends a run's active phase span and opens a new one.
// Callers hold rs.mu.
func (s *Server) startRunSpanLocked(rs *runState, name string) {
	rs.span.End()
	rs.span = s.tracer.Start(name)
	rs.span.SetRun(rs.num)
}

// deadlineClose fires when a run sat in bidding past the deadline.
func (s *Server) deadlineClose(rs *runState) {
	rs.mu.Lock()
	stale := rs.done || rs.phase != PhaseBidding
	rs.mu.Unlock()
	if stale {
		return
	}
	s.log.Info("bidding deadline reached, closing auction", "run", rs.id)
	if _, err := s.closeRun(context.Background(), rs); err != nil {
		s.log.Warn("deadline close failed", "run", rs.id, "err", err)
	}
}

// deadlineFinish fires when a run sat in scoring past the deadline. The
// run finishes with whatever scores arrived; winners that never answered
// are observed as missing (empty score sets), so a crashed worker degrades
// the quality estimate instead of blocking the season.
func (s *Server) deadlineFinish(rs *runState) {
	rs.mu.Lock()
	stale := rs.done || rs.phase != PhaseScoring
	rs.mu.Unlock()
	if stale {
		return
	}
	s.log.Info("scoring deadline reached, finishing with collected scores", "run", rs.id)
	if err := s.finishRun(context.Background(), rs); err != nil {
		s.log.Warn("deadline finish failed", "run", rs.id, "err", err)
	}
}

// Handler returns the HTTP handler with all routes mounted. When the server
// has metrics, every endpoint is wrapped with request/error counters and a
// latency histogram labelled by a stable endpoint name; without metrics the
// handlers are mounted bare, so the disabled path adds nothing.
//
// Run-scoped routes take /v1/runs/{run}/..., where {run} is the run ID
// from OpenRunResponse.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.route(mux, "GET /v1/status", "status", s.handleStatus)
	s.route(mux, "POST /v1/workers", "register_worker", s.gate("register_worker", s.handleRegisterWorker))
	s.route(mux, "GET /v1/workers", "list_workers", s.handleListWorkers)
	s.route(mux, "GET /v1/workers/{id}/quality", "quality", s.handleQuality)
	s.route(mux, "GET /v1/workers/{id}/forecast", "forecast", s.handleForecast)
	s.route(mux, "GET /v1/runs", "list_runs", s.handleListRuns)
	s.route(mux, "POST /v1/runs", "open_run", s.handleOpenRun)
	s.route(mux, "POST /v1/runs/{run}/bids", "bid", s.gate("bid", s.handleBid))
	s.route(mux, "POST /v1/runs/{run}/bids/batch", "bid_batch", s.gate("bid_batch", s.handleBidBatch))
	s.route(mux, "POST /v1/runs/{run}/close", "close", s.handleClose)
	s.route(mux, "GET /v1/runs/{run}/outcome", "outcome", s.handleOutcome)
	s.route(mux, "POST /v1/runs/{run}/answers", "answer", s.gate("answer", s.handleAnswer))
	s.route(mux, "GET /v1/runs/{run}/answers", "list_answers", s.handleListAnswers)
	s.route(mux, "POST /v1/runs/{run}/scores", "score", s.handleScore)
	s.route(mux, "POST /v1/runs/{run}/scores/batch", "score_batch", s.handleScoreBatch)
	s.route(mux, "POST /v1/runs/{run}/finish", "finish", s.handleFinish)
	s.route(mux, "GET /v1/tenants", "list_tenants", s.handleListTenants)
	s.route(mux, "GET /v1/tenants/{id}", "get_tenant", s.handleGetTenant)
	s.route(mux, "PUT /v1/tenants/{id}", "put_tenant", s.handlePutTenant)
	if s.replSrc != nil {
		s.mountReplication(mux)
	}
	return mux
}

// route mounts one endpoint, instrumenting it when metrics are enabled.
func (s *Server) route(mux *http.ServeMux, pattern, endpoint string, h http.HandlerFunc) {
	if s.metrics == nil {
		mux.HandleFunc(pattern, h)
		return
	}
	reqs := s.reqs.With(endpoint)
	reqErrs := s.reqErrs.With(endpoint)
	secs := s.reqSecs.With(endpoint)
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		reqs.Inc()
		sw := statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(&sw, r)
		secs.Observe(time.Since(start).Seconds())
		if sw.status >= 400 {
			reqErrs.Inc()
		}
	})
}

// statusWriter captures the response status for the error counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// writeJSON writes v with the given status, staging the encoding through a
// pooled buffer so steady-state responses reuse memory across requests.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := getBuf()
	defer putBuf(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		http.Error(w, "encode failure", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// errorStatus maps a platform error onto its HTTP status.
func errorStatus(err error) int {
	switch {
	case errors.Is(err, melody.ErrRunOpen),
		errors.Is(err, melody.ErrAuctionClosed),
		errors.Is(err, melody.ErrAuctionOpen),
		errors.Is(err, melody.ErrNoRunOpen):
		return http.StatusConflict
	case errors.Is(err, melody.ErrUnknownWorker),
		errors.Is(err, melody.ErrNotAssigned),
		errors.Is(err, melody.ErrUnknownRun),
		errors.Is(err, melody.ErrUnknownTenant):
		return http.StatusNotFound
	case errors.Is(err, melody.ErrNoForecast):
		return http.StatusNotImplemented
	case errors.Is(err, melody.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, melody.ErrQuotaExceeded):
		// Permanent until the policy changes, so not 429: clients must not
		// blindly retry a refused open.
		return http.StatusForbidden
	case errors.Is(err, melody.ErrTenantMismatch):
		return http.StatusBadRequest
	}
	return http.StatusBadRequest
}

// writeError maps platform errors onto HTTP statuses, attaching the wire
// error code so clients can recover the melody sentinel with errors.Is.
func writeError(w http.ResponseWriter, err error) {
	writeJSON(w, errorStatus(err), ErrorResponse{Error: err.Error(), Code: errorCode(err)})
}

// decodeBody decodes a JSON body, rejecting unknown fields.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("platform: invalid request body: %w", err)
	}
	return nil
}

// runName is the ID the server gives an unnamed open whose run the
// backend numbers num.
func runName(num int) string { return "r" + strconv.Itoa(num) }

// lookupRun resolves a run path segment to its state. The server tracks
// only runs in flight; a finished run resolves to a transient finished
// runState, with the outcome the backend reports, so late retries of it
// are answered from the backend's record whether it finished a moment ago
// or before a restart.
func (s *Server) lookupRun(name string) (*runState, error) {
	s.mu.RLock()
	rs := s.runs[name]
	s.mu.RUnlock()
	if rs != nil {
		return rs, nil
	}
	if info, err := s.backend.Run(name); err == nil && info.Finished {
		return &runState{id: name, tenant: info.Tenant, num: info.Num, outcome: info.Outcome, done: true}, nil
	}
	return nil, fmt.Errorf("%w: %s", melody.ErrUnknownRun, name)
}

// resolveRun resolves the {run} path value of a request.
func (s *Server) resolveRun(r *http.Request) (*runState, error) {
	return s.lookupRun(r.PathValue("run"))
}

// isDone reports whether the run has finished. Callers may hold Server.mu:
// taking rs.mu under the registry lock follows the documented lock order.
func (rs *runState) isDone() bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.done
}

// handleStatus reports the newest in-flight run in open order, or idle
// with the completed-run count when none is in flight.
func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	resp := StatusResponse{Phase: PhaseIdle, Workers: len(s.backend.Workers())}
	s.mu.RLock()
	resp.OpenRuns = len(s.order)
	for i := len(s.order) - 1; i >= 0 && resp.Phase == PhaseIdle; i-- {
		if rs := s.runs[s.order[i]]; rs != nil {
			rs.mu.Lock()
			if !rs.done {
				resp.Run, resp.RunID, resp.Phase = rs.num, rs.id, rs.phase
			}
			rs.mu.Unlock()
		}
	}
	s.mu.RUnlock()
	if resp.Phase == PhaseIdle {
		resp.Run = s.backend.CompletedRuns()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleListRuns(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	states := make([]*runState, 0, len(s.order))
	for _, id := range s.order {
		if rs := s.runs[id]; rs != nil {
			states = append(states, rs)
		}
	}
	s.mu.RUnlock()
	resp := RunsResponse{Runs: make([]RunStatus, 0, len(states))}
	for _, rs := range states {
		rs.mu.Lock()
		if !rs.done {
			resp.Runs = append(resp.Runs, RunStatus{RunID: rs.id, Tenant: rs.tenant, Phase: rs.phase})
		}
		rs.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleRegisterWorker(w http.ResponseWriter, r *http.Request) {
	var req RegisterWorkerRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if err := s.backend.RegisterWorker(r.Context(), req.WorkerID); err != nil {
		writeError(w, err)
		return
	}
	s.log.Debug("registered worker", "worker", req.WorkerID)
	writeJSON(w, http.StatusCreated, struct{}{})
}

func (s *Server) handleListWorkers(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, WorkersResponse{Workers: s.backend.Workers()})
}

// requestTenant extracts the caller's tenant for tenant-scoped reads: the
// ?tenant= query parameter, else the admission tenant header. A read that
// names no tenant resolves as melody.RunScheduler.TenantPlatform says.
func requestTenant(r *http.Request) string {
	if t := r.URL.Query().Get("tenant"); t != "" {
		return t
	}
	return r.Header.Get(TenantHeader)
}

func (s *Server) handleQuality(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	q, err := s.backend.Quality(requestTenant(r), id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, QualityResponse{WorkerID: id, Quality: q})
}

func (s *Server) handleForecast(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	steps := 1
	if raw := r.URL.Query().Get("steps"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "invalid steps parameter"})
			return
		}
		steps = v
	}
	f, err := s.backend.Forecast(requestTenant(r), id, steps)
	if err != nil {
		writeError(w, err)
		return
	}
	lo, hi, err := f.Interval(0.95)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ForecastResponse{
		WorkerID: id, Steps: f.Steps, Mean: f.Mean, Variance: f.Var, Lo95: lo, Hi95: hi,
	})
}

// handleOpenRun opens a run. A client may name the run; the name is the
// idempotency key of its retries, which the backend acknowledges when the
// spec matches and refuses otherwise. An open that names no run is a retry
// of the tenant's run in flight when it has one, and otherwise opens a run
// the server names (see nameRun). An open that names no tenant runs under
// melody.DefaultTenant.
func (s *Server) handleOpenRun(w http.ResponseWriter, r *http.Request) {
	var req OpenRunRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	tasks := make([]melody.Task, len(req.Tasks))
	for i, t := range req.Tasks {
		tasks[i] = melody.Task{ID: t.ID, Threshold: t.Threshold}
	}
	// Tenant-identity precedence: header and body may each name the
	// tenant, but when both do they must agree — rejecting the conflict
	// outright beats one silently winning and a run landing on the wrong
	// tenant.
	tenant := req.Tenant
	if header := r.Header.Get(TenantHeader); header != "" {
		if tenant != "" && tenant != header {
			writeError(w, fmt.Errorf("%w: header %q vs body %q", melody.ErrTenantMismatch, header, req.Tenant))
			return
		}
		tenant = header
	}

	id := req.ID
	var err error
	if id == "" {
		id, err = s.openUnnamed(r.Context(), tenant, tasks, req.Budget)
	} else {
		err = s.backend.OpenRun(r.Context(), id, tenant, tasks, req.Budget)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	info, err := s.backend.Run(id)
	if err != nil {
		writeError(w, err)
		return
	}
	if info.Finished {
		// The backend replayed an open for a run it already completed; the
		// server tracks only runs in flight, so acknowledge without
		// resurrecting it.
		writeJSON(w, http.StatusCreated, OpenRunResponse{RunID: id})
		return
	}

	s.mu.Lock()
	if existing := s.runs[id]; existing != nil && !existing.isDone() {
		// Idempotent replay of a run already in flight: nothing to reset.
		s.mu.Unlock()
		writeJSON(w, http.StatusCreated, OpenRunResponse{RunID: id})
		return
	}
	rs := &runState{id: id, tenant: info.Tenant, num: info.Num, phase: PhaseBidding}
	s.runs[id] = rs
	s.order = append(s.order, id)
	s.mu.Unlock()

	rs.mu.Lock()
	s.scheduleRunLocked(rs, s.bidDeadline, s.deadlineClose)
	s.startRunSpanLocked(rs, "run.bidding")
	rs.mu.Unlock()
	s.log.Info("run opened", "run", id, "tenant", rs.tenant, "tasks", len(tasks), "budget", req.Budget)
	writeJSON(w, http.StatusCreated, OpenRunResponse{RunID: id})
}

// openUnnamed opens a run that names no ID under the ID nameRun picks.
// Naming and opening happen under nameMu, so two unnamed opens never pick
// the same name for different runs.
func (s *Server) openUnnamed(ctx context.Context, tenant string, tasks []melody.Task, budget float64) (string, error) {
	s.nameMu.Lock()
	defer s.nameMu.Unlock()
	id := s.nameRun(tenant)
	return id, s.backend.OpenRun(ctx, id, tenant, tasks, budget)
}

// nameRun picks the ID of an unnamed open: the tenant's run in flight, so
// that the open retries it (the backend then refuses a different spec), or
// else "r<n>" for the number n the backend gives the next run, skipping a
// name the backend already knows. The backend logs the name with the
// open, so a restart keeps it.
func (s *Server) nameRun(tenant string) string {
	if st, err := s.backend.TenantStatus(tenant); err == nil && st.OpenRun != "" {
		return st.OpenRun
	}
	for n := s.backend.CompletedRuns() + len(s.backend.OpenRuns()) + 1; ; n++ {
		if _, err := s.backend.Run(runName(n)); err != nil {
			return runName(n)
		}
	}
}

// errsOf builds a BatchResult failing every one of n items with err.
func errsOf(n int, err error) melody.BatchResult {
	errs := make([]error, n)
	for i := range errs {
		errs[i] = err
	}
	return melody.NewBatchResult(errs)
}

func (s *Server) handleBid(w http.ResponseWriter, r *http.Request) {
	var req BidRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	rs, err := s.resolveRun(r)
	if err != nil {
		writeError(w, err)
		return
	}
	if rs.isDone() {
		writeError(w, fmt.Errorf("%w: run %s finished", melody.ErrNoRunOpen, rs.id))
		return
	}
	bid := melody.Bid{Cost: req.Cost, Frequency: req.Frequency}
	if err := s.backend.SubmitBid(r.Context(), rs.id, req.WorkerID, bid); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, struct{}{})
}

// batchResults converts a backend BatchResult into wire results.
func batchResults(res melody.BatchResult) []BatchItemResult {
	results := make([]BatchItemResult, res.Len())
	for i := range results {
		err := res.ErrAt(i)
		if err == nil {
			results[i] = BatchItemResult{OK: true}
			continue
		}
		results[i] = BatchItemResult{
			Status: errorStatus(err), Error: err.Error(), Code: errorCode(err),
		}
	}
	return results
}

// checkBatchSize rejects empty and oversized batches before any item is
// applied, so a malformed batch is all-or-nothing.
func checkBatchSize(w http.ResponseWriter, n int) bool {
	if n == 0 {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "platform: empty batch"})
		return false
	}
	if n > MaxBatchItems {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{
			Error: fmt.Sprintf("platform: batch of %d items exceeds limit %d", n, MaxBatchItems),
		})
		return false
	}
	return true
}

func (s *Server) handleBidBatch(w http.ResponseWriter, r *http.Request) {
	var req BidBatchRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if !checkBatchSize(w, len(req.Bids)) {
		return
	}
	bids := make([]melody.WorkerBid, len(req.Bids))
	for i, b := range req.Bids {
		bids[i] = melody.WorkerBid{
			WorkerID: b.WorkerID,
			Bid:      melody.Bid{Cost: b.Cost, Frequency: b.Frequency},
		}
	}
	var res melody.BatchResult
	switch rs, err := s.resolveRun(r); {
	case err != nil:
		res = errsOf(len(bids), err)
	case rs.isDone():
		res = errsOf(len(bids), fmt.Errorf("%w: run %s finished", melody.ErrNoRunOpen, rs.id))
	default:
		res = s.backend.SubmitBids(r.Context(), rs.id, bids)
	}
	writeJSON(w, http.StatusOK, BatchResponse{Results: batchResults(res)})
}

func (s *Server) handleScoreBatch(w http.ResponseWriter, r *http.Request) {
	var req ScoreBatchRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if !checkBatchSize(w, len(req.Scores)) {
		return
	}
	scores := make([]melody.TaskScore, len(req.Scores))
	for i, sc := range req.Scores {
		scores[i] = melody.TaskScore{WorkerID: sc.WorkerID, TaskID: sc.TaskID, Score: sc.Score}
	}
	var res melody.BatchResult
	switch rs, err := s.resolveRun(r); {
	case err != nil:
		res = errsOf(len(scores), err)
	case rs.isDone():
		res = errsOf(len(scores), fmt.Errorf("%w: run %s finished", melody.ErrNoRunOpen, rs.id))
	default:
		res = s.backend.SubmitScores(r.Context(), rs.id, scores)
	}
	writeJSON(w, http.StatusOK, BatchResponse{Results: batchResults(res)})
}

func (s *Server) handleClose(w http.ResponseWriter, r *http.Request) {
	rs, err := s.resolveRun(r)
	if err != nil {
		writeError(w, err)
		return
	}
	out, err := s.closeRun(r.Context(), rs)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, toOutcomeResponse(out))
}

// closeRun is the close path shared by the HTTP handler and the
// bidding-deadline watchdog. Closing an already-closed run replays the
// recorded outcome (the backend's close is idempotent) without restarting
// the scoring deadline — even after the run finished, so late retries
// stay safe.
func (s *Server) closeRun(ctx context.Context, rs *runState) (*melody.Outcome, error) {
	rs.mu.Lock()
	if out := rs.outcome; out != nil {
		rs.mu.Unlock()
		return out, nil
	}
	if rs.done {
		rs.mu.Unlock()
		return nil, fmt.Errorf("%w: run %s finished", melody.ErrNoRunOpen, rs.id)
	}
	rs.mu.Unlock()

	out, err := s.backend.CloseAuction(ctx, rs.id)
	if err != nil {
		return nil, err
	}
	rs.mu.Lock()
	if rs.outcome == nil {
		rs.outcome = out
		rs.phase = PhaseScoring
		s.scheduleRunLocked(rs, s.scoreDeadline, s.deadlineFinish)
		s.startRunSpanLocked(rs, "run.scoring")
	}
	out = rs.outcome
	rs.mu.Unlock()
	s.log.Info("auction closed", "run", rs.id,
		"selected_tasks", len(out.SelectedTasks), "payment", out.TotalPayment)
	return out, nil
}

func (s *Server) handleOutcome(w http.ResponseWriter, r *http.Request) {
	rs, err := s.resolveRun(r)
	if err != nil {
		writeError(w, err)
		return
	}
	rs.mu.Lock()
	out, done := rs.outcome, rs.done
	rs.mu.Unlock()
	switch {
	case out == nil && done:
		writeError(w, fmt.Errorf("%w: run %s finished", melody.ErrNoRunOpen, rs.id))
		return
	case out == nil:
		writeError(w, melody.ErrAuctionOpen)
		return
	}
	writeJSON(w, http.StatusOK, toOutcomeResponse(out))
}

func (s *Server) handleAnswer(w http.ResponseWriter, r *http.Request) {
	var req AnswerRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	rs, err := s.resolveRun(r)
	if err != nil {
		writeError(w, err)
		return
	}
	// Phase, assignment and the store mutation all sit under the run's own
	// lock: answer traffic serializes per run, never across runs.
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.done {
		writeError(w, fmt.Errorf("%w: run %s finished", melody.ErrNoRunOpen, rs.id))
		return
	}
	if rs.phase != PhaseScoring {
		writeError(w, melody.ErrAuctionOpen)
		return
	}
	if rs.outcome == nil || !rs.assignedLocked(req.WorkerID, req.TaskID) {
		writeError(w, fmt.Errorf("%w: worker %s task %s", melody.ErrNotAssigned, req.WorkerID, req.TaskID))
		return
	}
	// Idempotent on (worker, task, run): a duplicate delivery replaces the
	// recorded answer instead of duplicating it, so the requester never
	// sees — and never double-scores — the same assignment twice.
	for i := range rs.answers {
		if rs.answers[i].WorkerID == req.WorkerID && rs.answers[i].TaskID == req.TaskID {
			rs.answers[i].Payload = req.Payload
			writeJSON(w, http.StatusAccepted, struct{}{})
			return
		}
	}
	rs.answers = append(rs.answers, Answer{
		WorkerID: req.WorkerID, TaskID: req.TaskID, Payload: req.Payload,
	})
	writeJSON(w, http.StatusAccepted, struct{}{})
}

// assignedLocked reports whether (worker, task) is in the run's outcome.
// Callers hold rs.mu.
func (rs *runState) assignedLocked(workerID, taskID string) bool {
	for _, a := range rs.outcome.Assignments {
		if a.WorkerID == workerID && a.TaskID == taskID {
			return true
		}
	}
	return false
}

func (s *Server) handleListAnswers(w http.ResponseWriter, r *http.Request) {
	rs, err := s.resolveRun(r)
	if err != nil {
		writeError(w, err)
		return
	}
	rs.mu.Lock()
	answers := append([]Answer(nil), rs.answers...)
	rs.mu.Unlock()
	writeJSON(w, http.StatusOK, AnswersResponse{Answers: answers})
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	var req ScoreRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	rs, err := s.resolveRun(r)
	if err != nil {
		writeError(w, err)
		return
	}
	if rs.isDone() {
		writeError(w, fmt.Errorf("%w: run %s finished", melody.ErrNoRunOpen, rs.id))
		return
	}
	if err := s.backend.SubmitScore(r.Context(), rs.id, req.WorkerID, req.TaskID, req.Score); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, struct{}{})
}

func (s *Server) handleFinish(w http.ResponseWriter, r *http.Request) {
	rs, err := s.resolveRun(r)
	if err != nil {
		writeError(w, err)
		return
	}
	if err := s.finishRun(r.Context(), rs); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func (s *Server) handleListTenants(w http.ResponseWriter, _ *http.Request) {
	statuses := s.backend.TenantStatuses()
	resp := TenantsResponse{Tenants: make([]TenantStatusResponse, len(statuses))}
	for i, st := range statuses {
		resp.Tenants[i] = toTenantStatusResponse(st)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleGetTenant(w http.ResponseWriter, r *http.Request) {
	st, err := s.backend.TenantStatus(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, toTenantStatusResponse(st))
}

func (s *Server) handlePutTenant(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// The path names the tenant; a disagreeing X-Melody-Tenant header is
	// the same routing bug the open path rejects.
	if header := r.Header.Get(TenantHeader); header != "" && header != id {
		writeError(w, fmt.Errorf("%w: header %q vs path %q", melody.ErrTenantMismatch, header, id))
		return
	}
	var req TenantPolicyRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if err := s.backend.SetTenantPolicy(r.Context(), id, req.Policy.Policy()); err != nil {
		writeError(w, err)
		return
	}
	st, err := s.backend.TenantStatus(id)
	if err != nil {
		writeError(w, err)
		return
	}
	s.log.Info("tenant policy set", "tenant", id,
		"budgetQuota", st.Policy.BudgetQuota, "epochBudgetQuota", st.Policy.EpochBudgetQuota,
		"maxRuns", st.Policy.MaxRuns, "weight", st.Weight)
	writeJSON(w, http.StatusOK, toTenantStatusResponse(st))
}

// finishRun is the finish path shared by the HTTP handler and the
// scoring-deadline watchdog. Winners without scores degrade into the
// estimator's missing-observation path inside the backend's FinishRun.
// Finishing an already-finished run is a no-op success.
func (s *Server) finishRun(ctx context.Context, rs *runState) error {
	if rs.isDone() {
		return nil // retried finish
	}
	if err := s.backend.FinishRun(ctx, rs.id); err != nil {
		// The deadline watchdog (or a concurrent retry) may have finished
		// the run between our check and the backend call.
		if rs.isDone() && errors.Is(err, melody.ErrNoRunOpen) {
			return nil
		}
		return err
	}
	s.completeRun(rs)
	s.log.Info("run finished", "run", rs.id, "completed_runs", s.backend.CompletedRuns())
	return nil
}

// completeRun transitions a run to done: the watchdog disarms, the phase
// span ends, and the run leaves the registry with its answers and outcome.
// Late retries resolve it through the backend (see lookupRun).
func (s *Server) completeRun(rs *runState) {
	rs.mu.Lock()
	if rs.done {
		rs.mu.Unlock()
		return
	}
	rs.done = true
	rs.phase = PhaseIdle
	rs.answers = nil
	if rs.timer != nil {
		rs.timer.Stop()
		rs.timer = nil
	}
	rs.span.End()
	rs.span = nil
	rs.mu.Unlock()

	s.mu.Lock()
	for i, id := range s.order {
		if id == rs.id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	delete(s.runs, rs.id)
	s.mu.Unlock()
}
