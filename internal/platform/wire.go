// Package platform exposes the MELODY crowdsourcing platform over HTTP:
// a JSON API for worker registration, bidding, allocation, answer
// submission and scoring, mirroring the paper's Fig. 2 workflow, plus a Go
// client and ready-made worker/requester agents. The cmd/melody-platform,
// cmd/melody-worker and cmd/melody-requester binaries are thin wrappers
// around this package.
package platform

import (
	"bytes"
	"net/http"
	"sync"

	"melody"
)

// Phase describes where a run is in its lifecycle.
type Phase string

// Run phases, surfaced by GET /v1/status.
const (
	// PhaseIdle means no run is open.
	PhaseIdle Phase = "idle"
	// PhaseBidding means a run is open and accepting bids.
	PhaseBidding Phase = "bidding"
	// PhaseScoring means the auction closed; answers and scores are being
	// collected.
	PhaseScoring Phase = "scoring"
)

// StatusResponse is the body of GET /v1/status. Run, RunID and Phase
// describe the newest run still in flight, in open order.
type StatusResponse struct {
	// Run is that run's number (its 1-based index in open order across
	// all tenants, kept across restarts), or the number of completed runs
	// when idle.
	Run int `json:"run"`
	// RunID is that run's ID, for /v1/runs/{id}/... paths; empty when idle.
	RunID string `json:"runId,omitempty"`
	// Phase is that run's lifecycle phase (idle when no run is in flight).
	Phase Phase `json:"phase"`
	// Workers is the number of registered workers.
	Workers int `json:"workers"`
	// OpenRuns is the number of runs currently in flight, at most one per
	// tenant.
	OpenRuns int `json:"openRuns,omitempty"`
}

// RegisterWorkerRequest is the body of POST /v1/workers.
type RegisterWorkerRequest struct {
	WorkerID string `json:"workerId"`
}

// WorkersResponse is the body of GET /v1/workers.
type WorkersResponse struct {
	Workers []string `json:"workers"`
}

// QualityResponse is the body of GET /v1/workers/{id}/quality.
type QualityResponse struct {
	WorkerID string  `json:"workerId"`
	Quality  float64 `json:"quality"`
}

// ForecastResponse is the body of GET /v1/workers/{id}/forecast: the
// k-step-ahead predictive distribution with a 95% credible interval.
type ForecastResponse struct {
	WorkerID string  `json:"workerId"`
	Steps    int     `json:"steps"`
	Mean     float64 `json:"mean"`
	Variance float64 `json:"variance"`
	Lo95     float64 `json:"lo95"`
	Hi95     float64 `json:"hi95"`
}

// TaskSpec is one task in an OpenRunRequest.
type TaskSpec struct {
	ID        string  `json:"id"`
	Threshold float64 `json:"threshold"`
}

// OpenRunRequest is the body of POST /v1/runs.
//
// ID is the client-chosen, server-wide unique run identifier (the
// idempotency key every later /v1/runs/{id}/... call routes on). Without
// one, the open retries the tenant's run in flight, or else the server
// names the run "r<n>" after its number. Tenant names the tenant whose
// estimator and run sequence the run belongs to; without one the run
// belongs to melody.DefaultTenant.
type OpenRunRequest struct {
	Tasks  []TaskSpec `json:"tasks"`
	Budget float64    `json:"budget"`
	ID     string     `json:"id,omitempty"`
	Tenant string     `json:"tenant,omitempty"`
}

// OpenRunResponse is the body of a successful POST /v1/runs: the run's ID
// (echoed or synthesized) for use in /v1/runs/{id}/... paths.
type OpenRunResponse struct {
	RunID string `json:"runId"`
}

// RunStatus is one in-flight run in a RunsResponse.
type RunStatus struct {
	RunID  string `json:"runId"`
	Tenant string `json:"tenant,omitempty"`
	Phase  Phase  `json:"phase"`
}

// RunsResponse is the body of GET /v1/runs: every run currently in
// flight, in open order.
type RunsResponse struct {
	Runs []RunStatus `json:"runs"`
}

// BidRequest is the body of POST /v1/runs/{run}/bids.
type BidRequest struct {
	WorkerID  string  `json:"workerId"`
	Cost      float64 `json:"cost"`
	Frequency int     `json:"frequency"`
}

// AssignmentSpec is one allocated (worker, task, payment) triple.
type AssignmentSpec struct {
	WorkerID string  `json:"workerId"`
	TaskID   string  `json:"taskId"`
	Payment  float64 `json:"payment"`
}

// OutcomeResponse is the body of POST /v1/runs/{run}/close and GET
// /v1/runs/{run}/outcome.
type OutcomeResponse struct {
	Assignments   []AssignmentSpec `json:"assignments"`
	SelectedTasks []string         `json:"selectedTasks"`
	TotalPayment  float64          `json:"totalPayment"`
}

// AnswerRequest is the body of POST /v1/runs/{run}/answers.
type AnswerRequest struct {
	WorkerID string `json:"workerId"`
	TaskID   string `json:"taskId"`
	Payload  string `json:"payload"`
}

// Answer is one submitted answer, as returned by GET
// /v1/runs/{run}/answers.
type Answer struct {
	WorkerID string `json:"workerId"`
	TaskID   string `json:"taskId"`
	Payload  string `json:"payload"`
}

// AnswersResponse is the body of GET /v1/runs/{run}/answers.
type AnswersResponse struct {
	Answers []Answer `json:"answers"`
}

// ScoreRequest is the body of POST /v1/runs/{run}/scores.
type ScoreRequest struct {
	WorkerID string  `json:"workerId"`
	TaskID   string  `json:"taskId"`
	Score    float64 `json:"score"`
}

// MaxBatchItems bounds the item count of a single batch request; larger
// batches are rejected with 400 before any item is applied.
const MaxBatchItems = 4096

// BidBatchRequest is the body of POST /v1/runs/{run}/bids/batch: many
// bids in one round trip. Items are applied independently in order, with
// per-item outcomes in the BatchResponse; a rejected item never aborts its
// neighbours. Retrying a whole batch is safe — replayed items are no-op
// successes under the platform's idempotent mutation protocol.
type BidBatchRequest struct {
	Bids []BidRequest `json:"bids"`
}

// ScoreBatchRequest is the body of POST /v1/runs/{run}/scores/batch.
type ScoreBatchRequest struct {
	Scores []ScoreRequest `json:"scores"`
}

// BatchItemResult is one item's outcome inside a BatchResponse: results[i]
// reports items[i]. Status/Error/Code mirror what the single-item endpoint
// would have answered for that item alone.
type BatchItemResult struct {
	OK     bool   `json:"ok"`
	Status int    `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
	Code   string `json:"code,omitempty"`
}

// Err surfaces a failed item as the same *APIError a single-item call
// would have produced, so errors.Is against the melody sentinels works
// per item; it is nil for accepted items.
func (r BatchItemResult) Err() error {
	if r.OK {
		return nil
	}
	status := r.Status
	if status == 0 {
		status = http.StatusBadRequest
	}
	return &APIError{Status: status, Message: r.Error, Code: r.Code}
}

// BatchResponse is the body of the batch endpoints. The HTTP status is 200
// whenever the batch itself was well-formed; item failures live here.
type BatchResponse struct {
	Results []BatchItemResult `json:"results"`
}

// ErrorResponse is the body of every non-2xx response. Code carries the
// machine-readable platform error so clients can map it back onto the
// melody sentinel errors (see APIError.Is); it is empty for errors with no
// sentinel (validation failures, malformed bodies).
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// Wire error codes, one per melody sentinel error. The canonical mapping
// lives next to the sentinels in the melody package (melody.ErrorCodeFor /
// melody.SentinelForCode); these aliases keep the wire package's historical
// names compiling.
const (
	CodeRunOpen       = string(melody.CodeRunOpen)
	CodeNoRunOpen     = string(melody.CodeNoRunOpen)
	CodeAuctionClosed = string(melody.CodeAuctionClosed)
	CodeAuctionOpen   = string(melody.CodeAuctionOpen)
	CodeUnknownWorker = string(melody.CodeUnknownWorker)
	CodeNotAssigned   = string(melody.CodeNotAssigned)
	CodeNoForecast    = string(melody.CodeNoForecast)
)

// Tenant control-plane wire types. Admin surfaces ship typed
// request/response structs — never ad-hoc maps — so the schema is
// greppable, versionable, and fuzzable like the rest of the wire (see
// DESIGN §13).

// TenantPolicySpec is the wire form of a melody.TenantPolicy. The quota
// fields are pointers so "absent" (unlimited) and an explicit 0 (no
// budget at all) stay distinguishable in JSON.
type TenantPolicySpec struct {
	// BudgetQuota caps lifetime committed spend (settled + escrowed);
	// absent or negative disables the cap, zero refuses any budgeted open.
	BudgetQuota *float64 `json:"budgetQuota,omitempty"`
	// EpochBudgetQuota caps committed spend per settlement epoch; same
	// convention as BudgetQuota.
	EpochBudgetQuota *float64 `json:"epochBudgetQuota,omitempty"`
	// MaxRuns caps lifetime opened runs; <= 0 disables the cap.
	MaxRuns int `json:"maxRuns,omitempty"`
	// Weight is the weighted-fair close-admission share; <= 0 selects 1.
	Weight float64 `json:"weight,omitempty"`
}

// Policy converts the wire spec into the in-memory policy.
func (s TenantPolicySpec) Policy() melody.TenantPolicy {
	p := melody.UnlimitedTenantPolicy()
	if s.BudgetQuota != nil {
		p.BudgetQuota = *s.BudgetQuota
	}
	if s.EpochBudgetQuota != nil {
		p.EpochBudgetQuota = *s.EpochBudgetQuota
	}
	p.MaxRuns = s.MaxRuns
	p.Weight = s.Weight
	return p
}

// specFromPolicy converts an in-memory policy back to its wire form.
func specFromPolicy(p melody.TenantPolicy) TenantPolicySpec {
	s := TenantPolicySpec{MaxRuns: p.MaxRuns, Weight: p.Weight}
	if p.BudgetQuota >= 0 {
		q := p.BudgetQuota
		s.BudgetQuota = &q
	}
	if p.EpochBudgetQuota >= 0 {
		q := p.EpochBudgetQuota
		s.EpochBudgetQuota = &q
	}
	return s
}

// TenantPolicyRequest is the body of PUT /v1/tenants/{id}.
type TenantPolicyRequest struct {
	Policy TenantPolicySpec `json:"policy"`
}

// TenantStatusResponse is one tenant's control-plane status: GET
// /v1/tenants/{id} and the PUT acknowledgment.
type TenantStatusResponse struct {
	Tenant string `json:"tenant"`
	// Policy is the installed policy; absent when the tenant has run
	// history but no policy (unconstrained).
	Policy *TenantPolicySpec `json:"policy,omitempty"`
	// Spent is the settled spend across the tenant's finished runs.
	Spent float64 `json:"spent"`
	// EpochSpent is the settled spend in the current settlement epoch.
	EpochSpent float64 `json:"epochSpent,omitempty"`
	// Escrowed is the budget committed by the tenant's open run.
	Escrowed float64 `json:"escrowed,omitempty"`
	// RunsOpened counts runs ever opened, including the open one.
	RunsOpened int `json:"runsOpened,omitempty"`
	// OpenRunID is the tenant's open run, omitted when none.
	OpenRunID string `json:"openRunId,omitempty"`
	// Weight is the effective close-scheduling weight.
	Weight float64 `json:"weight"`
}

// TenantsResponse is the body of GET /v1/tenants.
type TenantsResponse struct {
	Tenants []TenantStatusResponse `json:"tenants"`
}

// toTenantStatusResponse converts a scheduler status to its wire form.
func toTenantStatusResponse(st melody.TenantStatus) TenantStatusResponse {
	resp := TenantStatusResponse{
		Tenant:     st.Tenant,
		Spent:      st.Spent,
		EpochSpent: st.EpochSpent,
		Escrowed:   st.Escrowed,
		RunsOpened: st.RunsOpened,
		OpenRunID:  st.OpenRun,
		Weight:     st.Weight,
	}
	if st.HasPolicy {
		spec := specFromPolicy(st.Policy)
		resp.Policy = &spec
	}
	return resp
}

// errorCode maps a platform error onto its wire code ("" when none).
func errorCode(err error) string {
	return string(melody.ErrorCodeFor(err))
}

// sentinelForCode maps a wire code back onto the melody sentinel (nil when
// unknown).
func sentinelForCode(code string) error {
	return melody.SentinelForCode(melody.ErrorCode(code))
}

// bufPool recycles encode/decode buffers across requests on both sides of
// the wire, so steady-state serving does not allocate a fresh buffer per
// message.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// poolBufCap bounds what returns to the pool: a rare giant message must not
// pin its buffer forever.
const poolBufCap = 1 << 20

func getBuf() *bytes.Buffer { return bufPool.Get().(*bytes.Buffer) }

func putBuf(b *bytes.Buffer) {
	if b.Cap() > poolBufCap {
		return
	}
	b.Reset()
	bufPool.Put(b)
}

// toOutcomeResponse converts a core outcome to its wire form for one
// response. The response shares the outcome's task list, which nothing
// mutates after close; empty lists stay nil, so they encode as null.
func toOutcomeResponse(out *melody.Outcome) OutcomeResponse {
	resp := OutcomeResponse{TotalPayment: out.TotalPayment}
	if len(out.SelectedTasks) > 0 {
		resp.SelectedTasks = out.SelectedTasks
	}
	if len(out.Assignments) > 0 {
		resp.Assignments = make([]AssignmentSpec, len(out.Assignments))
		for i, a := range out.Assignments {
			resp.Assignments[i] = AssignmentSpec(a)
		}
	}
	return resp
}
