package platform

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"melody"
	"melody/internal/obs"
)

// TenantHeader carries the caller's tenant identity: the tenant of the
// runs it opens and of its reads, and the key of per-tenant rate limiting.
// The bundled Client sets it from ClientOptions.Tenant; requests without
// the header share no rate budget and are only subject to the concurrency
// gate.
const TenantHeader = "X-Melody-Tenant"

// AdmissionConfig bounds what the server accepts before it starts shedding
// load. The zero value disables every gate (the pre-admission behaviour).
//
// Admission applies only to the sheddable ingest endpoints — worker
// registration, bid submission and answer upload. The control plane
// (open/close/finish/outcome/status) and the requester's scoring traffic
// are never shed, so a run that opened always settles: phase transitions
// run, scores land, the ledger refunds escrow. Bids may be refused; the
// auction simply allocates over the bids that made it in.
type AdmissionConfig struct {
	// MaxInFlight caps concurrently admitted ingest requests; 0 disables
	// the concurrency gate.
	MaxInFlight int
	// AnswerMaxInFlight carves the answer endpoint out of the shared
	// in-flight gate into its own budget, so a flood of answer uploads
	// during scoring can never occupy every slot and starve bid ingest
	// (and vice versa). 0 keeps answers on the shared gate.
	AnswerMaxInFlight int
	// MaxQueue is how many ingest requests may wait for a slot beyond
	// MaxInFlight before new arrivals fast-fail with 429. 0 means no
	// waiting room: the gate sheds as soon as every slot is taken.
	MaxQueue int
	// QueueTimeout bounds how long a queued request waits before it is
	// shed anyway; 0 defaults to 100ms. The bound keeps queue time out of
	// the latency tail instead of letting it grow without limit.
	QueueTimeout time.Duration
	// TenantRatePerSec is each tenant's sustained ingest budget in
	// requests per second (token bucket, refilled continuously); 0
	// disables per-tenant limiting. Tenancy comes from TenantHeader.
	TenantRatePerSec float64
	// TenantBurst is the token bucket's capacity; 0 defaults to
	// max(1, TenantRatePerSec).
	TenantBurst float64
	// RetryAfter is the backoff hint attached to every 429; 0 defaults to
	// 250ms. Sub-second hints are emitted with decimals (both ends of this
	// API are ours); standard integer-second parsing still reads >=1s
	// values.
	RetryAfter time.Duration
}

// withDefaults fills the zero knobs that have non-zero defaults.
func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 100 * time.Millisecond
	}
	if c.TenantBurst <= 0 {
		c.TenantBurst = c.TenantRatePerSec
		if c.TenantBurst < 1 {
			c.TenantBurst = 1
		}
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 250 * time.Millisecond
	}
	return c
}

// enabled reports whether any gate is configured.
func (c AdmissionConfig) enabled() bool {
	return c.MaxInFlight > 0 || c.AnswerMaxInFlight > 0 || c.TenantRatePerSec > 0
}

// WithAdmission arms admission control on the server's ingest endpoints.
func WithAdmission(cfg AdmissionConfig) ServerOption {
	return func(s *Server) {
		if cfg.enabled() {
			s.admission = newAdmission(cfg)
		}
	}
}

// admission is the server-side load gate: a bounded in-flight semaphore
// with a bounded waiting room, plus per-tenant token buckets. It never
// blocks the control plane — only the endpoints the server explicitly
// routes through it.
type admission struct {
	cfg AdmissionConfig
	// slots is the shared ingest semaphore; ansSlots, when non-nil, is the
	// answer endpoint's dedicated budget (per-endpoint admission), so
	// answer uploads and bid ingest shed independently.
	slots    chan struct{} // nil when MaxInFlight is 0
	ansSlots chan struct{} // nil when AnswerMaxInFlight is 0

	queued   atomic.Int64
	inFlight atomic.Int64

	mu      sync.Mutex
	buckets map[string]*tokenBucket

	// nil-safe instrument handles, bound by instrument().
	shed        *obs.CounterVec
	rateLimited *obs.Counter
	queueDepth  *obs.Gauge
	inFlightG   *obs.Gauge
}

// tokenBucket is one tenant's rate budget, refilled continuously.
type tokenBucket struct {
	tokens float64
	last   time.Time
}

func newAdmission(cfg AdmissionConfig) *admission {
	a := &admission{cfg: cfg.withDefaults()}
	if a.cfg.MaxInFlight > 0 {
		a.slots = make(chan struct{}, a.cfg.MaxInFlight)
	}
	if a.cfg.AnswerMaxInFlight > 0 {
		a.ansSlots = make(chan struct{}, a.cfg.AnswerMaxInFlight)
	}
	if a.cfg.TenantRatePerSec > 0 {
		a.buckets = make(map[string]*tokenBucket)
	}
	return a
}

// instrument binds the admission metric families; reg may be nil.
func (a *admission) instrument(reg *obs.Registry) {
	a.shed = reg.CounterVec(obs.MetricAdmissionShedTotal,
		"Requests shed with 429 by admission control, by endpoint.", "endpoint")
	a.rateLimited = reg.Counter(obs.MetricAdmissionRateLimitedTotal,
		"Requests shed because a tenant exhausted its rate budget.")
	a.queueDepth = reg.Gauge(obs.MetricAdmissionQueueDepth,
		"Ingest requests currently queued for an admission slot.")
	a.inFlightG = reg.Gauge(obs.MetricAdmissionInFlight,
		"Ingest requests currently holding an admission slot.")
}

// admit decides one ingest request's fate: it returns a release function
// when the request may proceed, or false when it must be shed. Shedding is
// recorded against the endpoint's counter here, so callers only write the
// 429.
func (a *admission) admit(r *http.Request, endpoint string) (release func(), ok bool) {
	if tenant := r.Header.Get(TenantHeader); tenant != "" && a.buckets != nil {
		if !a.takeToken(tenant) {
			a.rateLimited.Inc()
			a.shed.With(endpoint).Inc()
			return nil, false
		}
	}
	// The answer endpoint draws from its own budget when one is carved
	// out; everything else shares the main gate.
	slots := a.slots
	if endpoint == "answer" && a.ansSlots != nil {
		slots = a.ansSlots
	}
	if slots == nil {
		return func() {}, true
	}
	select {
	case slots <- struct{}{}:
	default:
		// Every slot is taken: join the bounded queue or shed. The queued
		// counter admits one waiter past MaxQueue in a race at worst —
		// admission is a load gate, not an exact semaphore.
		if a.queued.Load() >= int64(a.cfg.MaxQueue) {
			a.shed.With(endpoint).Inc()
			return nil, false
		}
		a.queued.Add(1)
		a.queueDepth.Set(float64(a.queued.Load()))
		timer := time.NewTimer(a.cfg.QueueTimeout)
		defer timer.Stop()
		var admitted bool
		select {
		case slots <- struct{}{}:
			admitted = true
		case <-timer.C:
		case <-r.Context().Done():
		}
		a.queued.Add(-1)
		a.queueDepth.Set(float64(a.queued.Load()))
		if !admitted {
			a.shed.With(endpoint).Inc()
			return nil, false
		}
	}
	a.inFlightG.Set(float64(a.inFlight.Add(1)))
	return func() {
		<-slots
		a.inFlightG.Set(float64(a.inFlight.Add(-1)))
	}, true
}

// takeToken spends one token from the tenant's bucket, refilling by the
// wall clock since the last take.
func (a *admission) takeToken(tenant string) bool {
	now := time.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	b := a.buckets[tenant]
	if b == nil {
		b = &tokenBucket{tokens: a.cfg.TenantBurst, last: now}
		a.buckets[tenant] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * a.cfg.TenantRatePerSec
		if b.tokens > a.cfg.TenantBurst {
			b.tokens = a.cfg.TenantBurst
		}
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// retryAfterValue formats a Retry-After delay. Whole seconds use the
// RFC 7231 integer form; sub-second hints keep three decimals so a fast
// local loop is not forced into full-second backoff.
func retryAfterValue(d time.Duration) string {
	if d >= time.Second && d%time.Second == 0 {
		return strconv.Itoa(int(d / time.Second))
	}
	return strconv.FormatFloat(d.Seconds(), 'f', 3, 64)
}

// writeShed answers a shed request: 429, a Retry-After hint, and the
// overloaded wire code so clients can branch with
// errors.Is(err, melody.ErrOverloaded).
func writeShed(w http.ResponseWriter, retryAfter time.Duration) {
	w.Header().Set("Retry-After", retryAfterValue(retryAfter))
	writeJSON(w, http.StatusTooManyRequests, ErrorResponse{
		Error: fmt.Sprintf("%v: retry after %v", melody.ErrOverloaded, retryAfter),
		Code:  string(melody.CodeOverloaded),
	})
}

// gate wraps an ingest handler with the admission decision; the handler
// runs only for admitted requests. With admission disabled it returns the
// handler untouched.
func (s *Server) gate(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	if s.admission == nil {
		return h
	}
	a := s.admission
	return func(w http.ResponseWriter, r *http.Request) {
		release, ok := a.admit(r, endpoint)
		if !ok {
			writeShed(w, a.cfg.RetryAfter)
			return
		}
		defer release()
		h(w, r)
	}
}
