package platform

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"melody"
	"melody/internal/obs"
)

// APIError is a non-2xx platform response, carrying the HTTP status, the
// server's error message, and the machine-readable error code when the
// failure maps onto a melody sentinel error.
type APIError struct {
	Status  int
	Message string
	Code    string
	// RetryAfter is the server's backoff hint from a Retry-After header
	// (zero when absent). Admission-control sheds (429) always carry one;
	// the retrying client never retries sooner than the hint.
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("platform: HTTP %d: %s", e.Status, e.Message)
}

// Is lets callers branch on platform state with the melody sentinels —
// errors.Is(err, melody.ErrAuctionClosed) — instead of matching statuses
// or message strings across the wire.
func (e *APIError) Is(target error) bool {
	if e.Code == "" {
		return false
	}
	return sentinelForCode(e.Code) == target
}

// RetryPolicy bounds the client's retry loop. Retries are safe because the
// platform's mutation protocol is idempotent: a retried request whose
// first delivery succeeded (but whose response was lost) is a no-op
// success on the server.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per call; values below 2
	// disable retries.
	MaxAttempts int
	// BaseDelay is the first backoff step; subsequent steps double.
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth.
	MaxDelay time.Duration
}

// DefaultRetryPolicy is the policy NewClient installs: 4 attempts with
// 25ms base backoff capped at 1s.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: 25 * time.Millisecond, MaxDelay: time.Second}
}

// backoffDelay returns the sleep before retry number attempt (0-based),
// using capped exponential growth with equal jitter: half the step is
// deterministic, half is scaled by u in [0, 1).
func backoffDelay(p RetryPolicy, attempt int, u float64) time.Duration {
	if p.BaseDelay <= 0 {
		return 0
	}
	d := p.BaseDelay
	for i := 0; i < attempt && d < p.MaxDelay; i++ {
		d *= 2
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	return d/2 + time.Duration(u*float64(d/2))
}

// retryable classifies an attempt's failure: transport-level errors
// (connection drops, resets, per-attempt timeouts) and 5xx/408/429
// responses are worth retrying; any other HTTP response — in particular
// every other 4xx — reached the server and reflects platform state, so
// retrying cannot help.
func retryable(err error) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Status >= 500 ||
			apiErr.Status == http.StatusRequestTimeout ||
			apiErr.Status == http.StatusTooManyRequests
	}
	var urlErr *url.Error
	return errors.As(err, &urlErr)
}

// Client talks to a platform Server, transparently retrying transient
// failures per its RetryPolicy. With ClientOptions.Adaptive set it also
// runs an AIMD concurrency window over all concurrent calls, backing off
// when the server sheds load and probing back up on success.
type Client struct {
	base    string
	http    *http.Client
	retry   RetryPolicy
	tenant  string
	limiter *adaptiveLimiter // nil without ClientOptions.Adaptive
	log     *slog.Logger
	tracer  *obs.Tracer
	reqs    *obs.Counter
	retries *obs.Counter
}

// ClientOptions configures NewClientOptions. The zero value gives the same
// client NewClient does: default HTTP transport, DefaultRetryPolicy, no
// instrumentation.
type ClientOptions struct {
	// HTTPClient overrides the transport; nil means a default client with a
	// 10s timeout.
	HTTPClient *http.Client
	// Retry overrides the retry policy; nil means DefaultRetryPolicy.
	Retry *RetryPolicy
	// Metrics optionally counts requests (melody_client_requests_total) and
	// retries (melody_client_retries_total).
	Metrics *obs.Registry
	// Tracer optionally records one "client.retry" span per retried attempt.
	Tracer *obs.Tracer
	// Logger receives a debug line per retry; nil disables logging.
	Logger *slog.Logger
	// Adaptive enables the AIMD concurrency window: concurrent calls on
	// this client are capped by a window that halves on 429 sheds and
	// grows by one per window of successes. Nil disables the limiter.
	Adaptive *AdaptiveConfig
	// Tenant, when non-empty, is sent as the X-Melody-Tenant header on
	// every request, attributing the traffic to a per-tenant rate budget
	// under server-side admission control.
	Tenant string
}

// NewClient creates a client for the platform at baseURL (e.g.
// "http://127.0.0.1:8080"). httpClient may be nil for a default with a 10s
// timeout. The client retries transient failures per DefaultRetryPolicy;
// use NewClientOptions to tune or disable that, or to instrument the client.
func NewClient(baseURL string, httpClient *http.Client) (*Client, error) {
	return NewClientOptions(baseURL, ClientOptions{HTTPClient: httpClient})
}

// NewClientWithPolicy is NewClient with an explicit retry policy.
func NewClientWithPolicy(baseURL string, httpClient *http.Client, policy RetryPolicy) (*Client, error) {
	return NewClientOptions(baseURL, ClientOptions{HTTPClient: httpClient, Retry: &policy})
}

// NewClientOptions is the full-control constructor every other client
// constructor funnels through.
func NewClientOptions(baseURL string, opts ClientOptions) (*Client, error) {
	if baseURL == "" {
		return nil, errors.New("platform: empty base URL")
	}
	if _, err := url.Parse(baseURL); err != nil {
		return nil, fmt.Errorf("platform: invalid base URL: %w", err)
	}
	httpClient := opts.HTTPClient
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 10 * time.Second}
	}
	policy := DefaultRetryPolicy()
	if opts.Retry != nil {
		policy = *opts.Retry
	}
	logger := opts.Logger
	if logger == nil {
		logger = obs.NopLogger()
	}
	c := &Client{
		base:    strings.TrimRight(baseURL, "/"),
		http:    httpClient,
		retry:   policy,
		tenant:  opts.Tenant,
		log:     logger,
		tracer:  opts.Tracer,
		reqs:    opts.Metrics.Counter(obs.MetricClientRequestsTotal, "Platform client API calls issued."),
		retries: opts.Metrics.Counter(obs.MetricClientRetriesTotal, "Platform client attempts retried after a transient failure."),
	}
	if opts.Adaptive != nil {
		c.limiter = newAdaptiveLimiter(*opts.Adaptive,
			opts.Metrics.Gauge(obs.MetricClientWindow, "Adaptive client concurrency window (floor of the AIMD window)."))
	}
	return c, nil
}

// ConcurrencyWindow reports the adaptive limiter's current window, or 0
// when the client runs without one. Load generators use it to observe the
// AIMD dynamics.
func (c *Client) ConcurrencyWindow() int {
	if c.limiter == nil {
		return 0
	}
	return c.limiter.Window()
}

// do issues a request with optional JSON body and decodes a JSON response
// into out (which may be nil), retrying retryable failures with capped
// exponential backoff. Request bodies are encoded into a pooled buffer that
// is reused across requests (and across retries of the same request).
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var buf []byte
	if body != nil {
		bb := getBuf()
		defer putBuf(bb)
		if err := json.NewEncoder(bb).Encode(body); err != nil {
			return fmt.Errorf("platform: encode request: %w", err)
		}
		buf = bb.Bytes()
	}
	c.reqs.Inc()
	if c.limiter != nil {
		if err := c.limiter.acquire(ctx); err != nil {
			return err
		}
		defer c.limiter.release()
	}
	for attempt := 0; ; attempt++ {
		err := c.attempt(ctx, method, path, buf, out)
		if err == nil {
			if c.limiter != nil {
				c.limiter.onSuccess()
			}
			return nil
		}
		if c.limiter != nil && overloaded(err) {
			c.limiter.onOverload()
		}
		if attempt+1 >= c.retry.MaxAttempts || !retryable(err) || ctx.Err() != nil {
			return err
		}
		c.retries.Inc()
		sp := c.tracer.Start("client.retry")
		sp.SetAttr("path", path)
		sp.SetAttrInt("attempt", int64(attempt+1))
		c.log.Debug("retrying request",
			"method", method, "path", path, "attempt", attempt+1, "error", err)
		// The server's Retry-After hint is a floor under the backoff: the
		// client never knocks again sooner than the gate asked it to.
		delay := backoffDelay(c.retry, attempt, rand.Float64())
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.RetryAfter > delay {
			delay = apiErr.RetryAfter
		}
		select {
		case <-ctx.Done():
			sp.End()
			return err
		case <-time.After(delay):
		}
		sp.End()
	}
}

// overloaded reports whether an attempt failed because the server shed the
// request under admission control.
func overloaded(err error) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests
}

// attempt issues the request once.
func (c *Client) attempt(ctx context.Context, method, path string, buf []byte, out any) error {
	var reader io.Reader
	if buf != nil {
		reader = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, reader)
	if err != nil {
		return fmt.Errorf("platform: build request: %w", err)
	}
	if buf != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.tenant != "" {
		req.Header.Set(TenantHeader, c.tenant)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("platform: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		var apiErr ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
			apiErr.Error = resp.Status
		}
		return &APIError{
			Status: resp.StatusCode, Message: apiErr.Error, Code: apiErr.Code,
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("platform: decode response: %w", err)
	}
	return nil
}

// parseRetryAfter reads a Retry-After header value in seconds. The server
// emits integer seconds for >=1s delays (the RFC 7231 form) and decimal
// seconds below that; HTTP-date values and garbage parse to zero.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.ParseFloat(v, 64)
	if err != nil || secs <= 0 || secs > 3600 {
		return 0
	}
	return time.Duration(secs * float64(time.Second))
}

// Status fetches the phase and ID of the newest run in flight.
func (c *Client) Status(ctx context.Context) (StatusResponse, error) {
	var out StatusResponse
	err := c.do(ctx, http.MethodGet, "/v1/status", nil, &out)
	return out, err
}

// RegisterWorker registers a worker ID.
func (c *Client) RegisterWorker(ctx context.Context, workerID string) error {
	return c.do(ctx, http.MethodPost, "/v1/workers", RegisterWorkerRequest{WorkerID: workerID}, nil)
}

// Workers lists registered worker IDs.
func (c *Client) Workers(ctx context.Context) ([]string, error) {
	var out WorkersResponse
	if err := c.do(ctx, http.MethodGet, "/v1/workers", nil, &out); err != nil {
		return nil, err
	}
	return out.Workers, nil
}

// Quality fetches the platform's quality estimate for a worker.
func (c *Client) Quality(ctx context.Context, workerID string) (float64, error) {
	var out QualityResponse
	if err := c.do(ctx, http.MethodGet, "/v1/workers/"+url.PathEscape(workerID)+"/quality", nil, &out); err != nil {
		return 0, err
	}
	return out.Quality, nil
}

// Forecast fetches the k-step-ahead predictive distribution of a worker's
// quality with its 95% credible interval.
func (c *Client) Forecast(ctx context.Context, workerID string, steps int) (ForecastResponse, error) {
	var out ForecastResponse
	path := fmt.Sprintf("/v1/workers/%s/forecast?steps=%d", url.PathEscape(workerID), steps)
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// OpenRunID opens a run under a client-chosen ID for a tenant and returns
// the run-scoped handle. The ID is the idempotency key: retrying the same
// (id, tasks, budget) open is a no-op success, while reusing an ID with a
// different spec is rejected. An empty id lets the server name the run
// (the handle carries the server's "r<n>" name), and an empty tenant opens
// it for the default tenant.
func (c *Client) OpenRunID(ctx context.Context, id, tenant string, tasks []TaskSpec, budget float64) (*RunAPI, error) {
	var out OpenRunResponse
	err := c.do(ctx, http.MethodPost, "/v1/runs",
		OpenRunRequest{Tasks: tasks, Budget: budget, ID: id, Tenant: tenant}, &out)
	if err != nil {
		return nil, err
	}
	runID := out.RunID
	if runID == "" {
		runID = id
	}
	return c.Run(runID), nil
}

// Runs lists the runs currently in flight, in open order.
func (c *Client) Runs(ctx context.Context) ([]RunStatus, error) {
	var out RunsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/runs", nil, &out); err != nil {
		return nil, err
	}
	return out.Runs, nil
}

// Tenants lists every known tenant's control-plane status (policy-only
// tenants included), sorted by tenant.
func (c *Client) Tenants(ctx context.Context) ([]TenantStatusResponse, error) {
	var out TenantsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/tenants", nil, &out); err != nil {
		return nil, err
	}
	return out.Tenants, nil
}

// Tenant fetches one tenant's control-plane status: its policy (if any)
// and its spend ledger. Unknown tenants map back to
// melody.ErrUnknownTenant via errors.Is.
func (c *Client) Tenant(ctx context.Context, id string) (TenantStatusResponse, error) {
	var out TenantStatusResponse
	err := c.do(ctx, http.MethodGet, "/v1/tenants/"+url.PathEscape(id), nil, &out)
	return out, err
}

// PutTenant installs or replaces a tenant's policy and returns the
// resulting status. Tenants may be provisioned before their first run;
// lowering a quota below the tenant's outstanding commitment never fails
// (the open run settles, future opens are refused).
func (c *Client) PutTenant(ctx context.Context, id string, policy TenantPolicySpec) (TenantStatusResponse, error) {
	var out TenantStatusResponse
	err := c.do(ctx, http.MethodPut, "/v1/tenants/"+url.PathEscape(id),
		TenantPolicyRequest{Policy: policy}, &out)
	return out, err
}

// Run returns a handle scoped to one run's /v1/runs/{id}/... endpoints.
func (c *Client) Run(id string) *RunAPI {
	return &RunAPI{c: c, id: id}
}

// RunAPI is a client handle scoped to a single run. All methods route to
// /v1/runs/{id}/..., so calls against different runs — different tenants'
// auctions — proceed concurrently on the server with no shared phase.
type RunAPI struct {
	c  *Client
	id string
}

// ID returns the run ID the handle is scoped to.
func (r *RunAPI) ID() string { return r.id }

// path builds the run-scoped endpoint path.
func (r *RunAPI) path(suffix string) string {
	return "/v1/runs/" + url.PathEscape(r.id) + suffix
}

// SubmitBid submits or replaces a worker's bid for this run.
func (r *RunAPI) SubmitBid(ctx context.Context, workerID string, cost float64, frequency int) error {
	return r.c.do(ctx, http.MethodPost, r.path("/bids"),
		BidRequest{WorkerID: workerID, Cost: cost, Frequency: frequency}, nil)
}

// SubmitBids submits a whole slice of bids for this run in one round trip.
// The returned BatchResult carries one outcome per bid: ErrAt(i) is nil for
// accepted items and the same error a single-item SubmitBid would have
// returned otherwise. The call error is non-nil only when the batch itself
// failed (transport fault, malformed or oversized batch) — in that case
// the zero BatchResult is returned.
func (r *RunAPI) SubmitBids(ctx context.Context, bids []BidRequest) (melody.BatchResult, error) {
	var out BatchResponse
	if err := r.c.do(ctx, http.MethodPost, r.path("/bids/batch"),
		BidBatchRequest{Bids: bids}, &out); err != nil {
		return melody.BatchResult{}, err
	}
	if len(out.Results) != len(bids) {
		return melody.BatchResult{}, fmt.Errorf("platform: batch response has %d results for %d bids",
			len(out.Results), len(bids))
	}
	return batchResultFromWire(out.Results), nil
}

// CloseAuction ends this run's bidding and returns the allocation.
func (r *RunAPI) CloseAuction(ctx context.Context) (OutcomeResponse, error) {
	var out OutcomeResponse
	err := r.c.do(ctx, http.MethodPost, r.path("/close"), nil, &out)
	return out, err
}

// Outcome fetches this run's allocation after the auction closed.
func (r *RunAPI) Outcome(ctx context.Context) (OutcomeResponse, error) {
	var out OutcomeResponse
	err := r.c.do(ctx, http.MethodGet, r.path("/outcome"), nil, &out)
	return out, err
}

// SubmitAnswer uploads a worker's answer for a task assigned in this run.
func (r *RunAPI) SubmitAnswer(ctx context.Context, workerID, taskID, payload string) error {
	return r.c.do(ctx, http.MethodPost, r.path("/answers"),
		AnswerRequest{WorkerID: workerID, TaskID: taskID, Payload: payload}, nil)
}

// Answers lists the answers submitted so far in this run.
func (r *RunAPI) Answers(ctx context.Context) ([]Answer, error) {
	var out AnswersResponse
	if err := r.c.do(ctx, http.MethodGet, r.path("/answers"), nil, &out); err != nil {
		return nil, err
	}
	return out.Answers, nil
}

// SubmitScore records the requester's score for an answer in this run.
func (r *RunAPI) SubmitScore(ctx context.Context, workerID, taskID string, score float64) error {
	return r.c.do(ctx, http.MethodPost, r.path("/scores"),
		ScoreRequest{WorkerID: workerID, TaskID: taskID, Score: score}, nil)
}

// SubmitScores submits a whole slice of scores for this run in one round
// trip, with the same per-item contract as SubmitBids.
func (r *RunAPI) SubmitScores(ctx context.Context, scores []ScoreRequest) (melody.BatchResult, error) {
	var out BatchResponse
	if err := r.c.do(ctx, http.MethodPost, r.path("/scores/batch"),
		ScoreBatchRequest{Scores: scores}, &out); err != nil {
		return melody.BatchResult{}, err
	}
	if len(out.Results) != len(scores) {
		return melody.BatchResult{}, fmt.Errorf("platform: batch response has %d results for %d scores",
			len(out.Results), len(scores))
	}
	return batchResultFromWire(out.Results), nil
}

// FinishRun completes this run and triggers its tenant's quality update.
func (r *RunAPI) FinishRun(ctx context.Context) error {
	return r.c.do(ctx, http.MethodPost, r.path("/finish"), nil, nil)
}

// batchResultFromWire decodes per-item wire results into a BatchResult.
func batchResultFromWire(results []BatchItemResult) melody.BatchResult {
	errs := make([]error, len(results))
	for i, res := range results {
		errs[i] = res.Err()
	}
	return melody.NewBatchResult(errs)
}
