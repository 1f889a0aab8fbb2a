package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"melody"
	"melody/internal/platform"
)

// The endpoints the layer budget splits. Single and batch bids share "bid",
// single and batch scores share "score".
const (
	epOpen = iota
	epBid
	epClose
	epScore
	epFinish
	nEndpoints
)

var endpointNames = [nEndpoints]string{"open", "bid", "close", "score", "finish"}

// reqHeader carries the benchmark's request ID from the client to the
// handler wrapper in the traced pass.
const reqHeader = "X-Bench-Req"

// spanSample keeps the spans of one request in spanSample.
const spanSample = 16

// tally is a concurrent sum of durations.
type tally struct{ ns, n atomic.Int64 }

func (t *tally) add(d time.Duration) {
	t.ns.Add(int64(d))
	t.n.Add(1)
}

// tallies is a point-in-time copy of a tally set, for window deltas.
type tallies struct {
	client, handler, backend [nEndpoints][2]int64
	observe                  [2]int64
}

// span is one sampled layer interval of one request; times are
// nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent string `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
}

// tracer times the stack's layers from outside for the traced pass: a
// RoundTripper tags each request, a handler wrapper times the server, a
// backend decorator times the scheduler, and an estimator decorator times
// quality updates. Nothing inside the program is changed.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64

	client, handler, backend [nEndpoints]tally
	observe                  tally

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (tr *tracer) snapshot() tallies {
	var s tallies
	for e := 0; e < nEndpoints; e++ {
		s.client[e] = [2]int64{tr.client[e].ns.Load(), tr.client[e].n.Load()}
		s.handler[e] = [2]int64{tr.handler[e].ns.Load(), tr.handler[e].n.Load()}
		s.backend[e] = [2]int64{tr.backend[e].ns.Load(), tr.backend[e].n.Load()}
	}
	s.observe = [2]int64{tr.observe.ns.Load(), tr.observe.n.Load()}
	return s
}

func (tr *tracer) record(name, parent string, req uint64, start, end time.Time) {
	if req%spanSample != 0 {
		return
	}
	tr.mu.Lock()
	tr.spans = append(tr.spans, span{Name: name, Parent: parent, Req: req,
		Start: int64(start.Sub(tr.epoch)), End: int64(end.Sub(tr.epoch))})
	tr.mu.Unlock()
}

// writeSpans writes the sampled spans as a JSON array.
func (tr *tracer) writeSpans(path string) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// reqKey carries a *reqTag on the client side; serverReqKey carries the
// request ID the handler wrapper read from the header, on the server side.
type (
	reqKey       struct{}
	serverReqKey struct{}
)

// reqTag identifies one client request across the layers.
type reqTag struct {
	id uint64
	ep int
}

// begin tags a client call; the tag rides the context to the RoundTripper.
func (tr *tracer) begin(ctx context.Context, ep int) (context.Context, *reqTag) {
	tag := &reqTag{id: tr.nextID.Add(1), ep: ep}
	return context.WithValue(ctx, reqKey{}, tag), tag
}

// end records the client time of a tagged call.
func (tr *tracer) end(tag *reqTag, start, end time.Time) {
	tr.client[tag.ep].add(end.Sub(start))
	tr.record("client."+endpointNames[tag.ep], "", tag.id, start, end)
}

// tagTransport puts the request's tag in a header the handler wrapper reads.
type tagTransport struct {
	next http.RoundTripper
	tr   *tracer
}

func (t *tagTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tag, _ := req.Context().Value(reqKey{}).(*reqTag)
	if tag == nil {
		return t.next.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(reqHeader, strconv.FormatUint(tag.id, 10))
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	t.tr.record("transport.roundtrip", "client."+endpointNames[tag.ep], tag.id, start, time.Now())
	return resp, err
}

// endpointOf classifies a request by route; -1 for routes the budget does
// not split (status probes).
func endpointOf(r *http.Request) int {
	if r.Method != http.MethodPost {
		return -1
	}
	p := r.URL.Path
	switch {
	case p == "/v1/runs":
		return epOpen
	case strings.HasSuffix(p, "/bids"), strings.HasSuffix(p, "/bids/batch"):
		return epBid
	case strings.HasSuffix(p, "/close"):
		return epClose
	case strings.HasSuffix(p, "/scores"), strings.HasSuffix(p, "/scores/batch"):
		return epScore
	case strings.HasSuffix(p, "/finish"):
		return epFinish
	}
	return -1
}

// wrapHandler times the server's handling of each request and hands the
// request ID to the backend decorator through the request context.
func (tr *tracer) wrapHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ep := endpointOf(r)
		id, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		start := time.Now()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), serverReqKey{}, id)))
		end := time.Now()
		if ep < 0 {
			return
		}
		tr.handler[ep].add(end.Sub(start))
		tr.record("server."+endpointNames[ep], "transport.roundtrip", id, start, end)
	})
}

// tracedBackend times every run mutation the server hands the backend.
type tracedBackend struct {
	platform.MultiRunBackend
	tr *tracer
}

func (tr *tracer) wrapBackend(b platform.MultiRunBackend) platform.MultiRunBackend {
	return &tracedBackend{MultiRunBackend: b, tr: tr}
}

func (b *tracedBackend) done(ctx context.Context, ep int, op string, start time.Time) {
	end := time.Now()
	b.tr.backend[ep].add(end.Sub(start))
	id, _ := ctx.Value(serverReqKey{}).(uint64)
	b.tr.record("backend."+op, "server."+endpointNames[ep], id, start, end)
}

func (b *tracedBackend) OpenRun(ctx context.Context, runID, tenant string, tasks []melody.Task, budget float64) error {
	defer b.done(ctx, epOpen, "OpenRun", time.Now())
	return b.MultiRunBackend.OpenRun(ctx, runID, tenant, tasks, budget)
}

func (b *tracedBackend) SubmitBid(ctx context.Context, runID, workerID string, bid melody.Bid) error {
	defer b.done(ctx, epBid, "SubmitBid", time.Now())
	return b.MultiRunBackend.SubmitBid(ctx, runID, workerID, bid)
}

func (b *tracedBackend) SubmitBids(ctx context.Context, runID string, bids []melody.WorkerBid) melody.BatchResult {
	defer b.done(ctx, epBid, "SubmitBids", time.Now())
	return b.MultiRunBackend.SubmitBids(ctx, runID, bids)
}

func (b *tracedBackend) CloseAuction(ctx context.Context, runID string) (*melody.Outcome, error) {
	defer b.done(ctx, epClose, "CloseAuction", time.Now())
	return b.MultiRunBackend.CloseAuction(ctx, runID)
}

func (b *tracedBackend) SubmitScore(ctx context.Context, runID, workerID, taskID string, score float64) error {
	defer b.done(ctx, epScore, "SubmitScore", time.Now())
	return b.MultiRunBackend.SubmitScore(ctx, runID, workerID, taskID, score)
}

func (b *tracedBackend) SubmitScores(ctx context.Context, runID string, scores []melody.TaskScore) melody.BatchResult {
	defer b.done(ctx, epScore, "SubmitScores", time.Now())
	return b.MultiRunBackend.SubmitScores(ctx, runID, scores)
}

func (b *tracedBackend) FinishRun(ctx context.Context, runID string) error {
	defer b.done(ctx, epFinish, "FinishRun", time.Now())
	return b.MultiRunBackend.FinishRun(ctx, runID)
}

// trackedEstimator is what the stack's estimator factory returns; the
// decorator must keep forecasting and snapshots working.
type trackedEstimator interface {
	melody.Estimator
	melody.Forecaster
	melody.EstimatorSnapshotter
}

// tracedEstimator times each quality update. Only FinishRun calls Observe
// while requests are served, so the time belongs to the finish endpoint.
type tracedEstimator struct {
	trackedEstimator
	tr *tracer
}

func (e *tracedEstimator) Observe(workerID string, scores []float64) error {
	start := time.Now()
	err := e.trackedEstimator.Observe(workerID, scores)
	e.tr.observe.add(time.Since(start))
	return err
}

func (tr *tracer) wrapEstimator(est melody.Estimator) melody.Estimator {
	te, ok := est.(trackedEstimator)
	if !ok {
		return est
	}
	return &tracedEstimator{trackedEstimator: te, tr: tr}
}

// blockWaits splits the block profile's blocked time, in seconds, by the
// PersistentScheduler method that blocked: durable waits are time inside
// Log.await (the group-commit fsync wait), order waits are time in
// Mutex.Lock called straight from a PersistentScheduler method (its
// ordering mutex). The profile must have been recorded with
// runtime.SetBlockProfileRate(1) over the interval of interest.
func blockWaits() (durable, order [nEndpoints]float64, err error) {
	var buf bytes.Buffer
	if err := pprof.Lookup("block").WriteTo(&buf, 1); err != nil {
		return durable, order, err
	}
	const psPrefix = "melody/internal/eventlog.(*PersistentScheduler)."
	methods := map[string]int{
		"OpenRun": epOpen, "SubmitBid": epBid, "SubmitBids": epBid, "CloseAuction": epClose,
		"SubmitScore": epScore, "SubmitScores": epScore, "FinishRun": epFinish,
	}
	var cyclesPerSec, cycles float64
	var frames []string
	flush := func() {
		if len(frames) == 0 || cyclesPerSec == 0 {
			frames = frames[:0]
			return
		}
		ep, first, lock := -1, "", false
		for _, f := range frames {
			if first == "" {
				switch {
				case strings.HasSuffix(f, ".(*Mutex).Lock"):
					lock = true
				case strings.HasPrefix(f, "melody/"):
					first = f
				}
			}
			if m, ok := strings.CutPrefix(f, psPrefix); ok && ep < 0 {
				if e, ok := methods[m]; ok {
					ep = e
				}
			}
		}
		secs := cycles / cyclesPerSec
		switch {
		case ep < 0:
		case first == "melody/internal/eventlog.(*Log).await":
			durable[ep] += secs
		case lock && strings.HasPrefix(first, psPrefix):
			order[ep] += secs
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "cycles/second="):
			cyclesPerSec, _ = strconv.ParseFloat(strings.TrimPrefix(line, "cycles/second="), 64)
		case strings.HasPrefix(line, "#"):
			fields := strings.Split(line, "\t")
			if len(fields) >= 3 {
				name := fields[2]
				if i := strings.LastIndex(name, "+"); i > 0 {
					name = name[:i]
				}
				frames = append(frames, name)
			}
		case strings.Contains(line, " @ "):
			flush()
			cycles, _ = strconv.ParseFloat(strings.Fields(line)[0], 64)
		}
	}
	flush()
	return durable, order, sc.Err()
}

// layerRow is one endpoint's layer budget in mean milliseconds per
// request: client = transport + self + backend, and within the backend
// order wait + durable wait + auction + observe + remainder. The remainder
// is whatever the named layers do not explain, printed as measured.
type layerRow struct {
	n                                        int64
	client, transport, self, backend         float64
	orderWait, durableWait, auction, observe float64
	remainder                                float64
}

// layerBudget computes the per-endpoint budget over a traced interval from
// the tally deltas, the block-profile waits and the auction time (seconds)
// the registry recorded.
func layerBudget(before, after tallies, durable, order [nEndpoints]float64, auctionSecs float64) [nEndpoints]layerRow {
	mean := func(a, b [2]int64) float64 {
		return ratio(float64(b[0]-a[0])/1e6, float64(b[1]-a[1]))
	}
	var rows [nEndpoints]layerRow
	for e := 0; e < nEndpoints; e++ {
		r := &rows[e]
		r.n = after.client[e][1] - before.client[e][1]
		r.client = mean(before.client[e], after.client[e])
		handler := mean(before.handler[e], after.handler[e])
		r.backend = mean(before.backend[e], after.backend[e])
		r.transport = r.client - handler
		r.self = handler - r.backend
		n := float64(after.backend[e][1] - before.backend[e][1])
		r.orderWait = ratio(order[e]*1e3, n)
		r.durableWait = ratio(durable[e]*1e3, n)
		switch e {
		case epClose:
			r.auction = ratio(auctionSecs*1e3, n)
		case epFinish:
			r.observe = ratio(float64(after.observe[0]-before.observe[0])/1e6, n)
		}
		r.remainder = r.backend - r.orderWait - r.durableWait - r.auction - r.observe
	}
	return rows
}

func printBudget(w *bufio.Writer, workload string, rows [nEndpoints]layerRow) {
	fmt.Fprintf(w, "layer budget %s (traced pass, mean ms per request)\n", workload)
	fmt.Fprintf(w, "  %-7s %7s %9s %9s %13s %9s | %10s %12s %12s %15s %9s\n",
		"endpoint", "n", "client", "transport", "platform.self", "backend",
		"order_wait", "durable_wait", "core.auction", "quality.observe", "remainder")
	for e, r := range rows {
		fmt.Fprintf(w, "  %-7s %7d %9.4f %9.4f %13.4f %9.4f | %10.4f %12.4f %12.4f %15.4f %9.4f\n",
			endpointNames[e], r.n, r.client, r.transport, r.self, r.backend,
			r.orderWait, r.durableWait, r.auction, r.observe, r.remainder)
	}
}
