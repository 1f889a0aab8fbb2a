package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"melody"
	"melody/internal/platform"
)

// openBacklogLimit fails the open loop when, over the last tenth of the
// window, the median arrival still waited longer than this for the previous
// response on its connection: the backlog grew and the server did not hold
// the offered rate. A bound on the longest wait, or on its 99th
// percentile, would instead fail on host stalls that the server then
// drains; on a 2-vCPU VM, 2 of 110 runs had one (a 153 ms stall, and a
// slow phase that left a tenth of the arrivals over 184 ms late).
const openBacklogLimit = 100 * time.Millisecond

// tenantLoad is what one tenant's goroutine measured. Only per-run and
// per-request samples are kept, so the generator's memory is O(runs) and
// heap_mb measures the server.
type tenantLoad struct {
	lat     [nEndpoints][]float64 // client ms per request, by endpoint
	ops     []float64             // ms per operation: a run, or an arrival timed from when it was due
	late    []float64             // open loop: ms each arrival was sent after it was due
	backlog []float64             // open loop: ms of that lateness spent waiting for the previous response
	digests []digest              // window runs in order
	reqs    int                   // requests attempted
	failed  int                   // requests that failed (transport error, non-2xx or a rejected batch item)
	err     error                 // first failure
}

// caller issues one tenant's timed requests.
type caller struct {
	ctx  context.Context
	tr   *tracer
	load *tenantLoad
}

func (c *caller) call(ep int, f func(context.Context) error) error {
	ctx, tag := c.ctx, (*reqTag)(nil)
	if c.tr != nil {
		ctx, tag = c.tr.begin(ctx, ep)
	}
	start := time.Now()
	err := f(ctx)
	end := time.Now()
	if tag != nil {
		c.tr.end(tag, start, end)
	}
	c.load.reqs++
	if err != nil {
		c.load.failed++
		if c.load.err == nil {
			c.load.err = fmt.Errorf("%s: %w", endpointNames[ep], err)
		}
		return err
	}
	c.load.lat[ep] = append(c.load.lat[ep], ms(end.Sub(start)))
	return nil
}

func wireBids(b []melody.WorkerBid) []platform.BidRequest {
	out := make([]platform.BidRequest, len(b))
	for i, x := range b {
		out[i] = platform.BidRequest{WorkerID: x.WorkerID, Cost: x.Bid.Cost, Frequency: x.Bid.Frequency}
	}
	return out
}

// openHTTP opens a run and submits its bid batches over HTTP.
func (p *plan) openHTTP(c *caller, client *platform.Client, s runSpec) (*platform.RunAPI, error) {
	tasks := make([]platform.TaskSpec, len(s.tasks))
	for i, t := range s.tasks {
		tasks[i] = platform.TaskSpec{ID: t.ID, Threshold: t.Threshold}
	}
	var run *platform.RunAPI
	err := c.call(epOpen, func(ctx context.Context) error {
		var err error
		run, err = client.OpenRunID(ctx, s.id, tenantName(s.tenant), tasks, p.budget)
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, b := range p.batches(s) {
		reqs := wireBids(b)
		if err := c.call(epBid, func(ctx context.Context) error {
			res, err := run.SubmitBids(ctx, reqs)
			if err != nil {
				return err
			}
			return res.Err()
		}); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// finishHTTP closes, scores and finishes a run over HTTP and returns its
// outcome digest.
func finishHTTP(c *caller, run *platform.RunAPI) (digest, error) {
	var out platform.OutcomeResponse
	if err := c.call(epClose, func(ctx context.Context) error {
		var err error
		out, err = run.CloseAuction(ctx)
		return err
	}); err != nil {
		return digest{}, err
	}
	scores := make([]platform.ScoreRequest, len(out.Assignments))
	for i, a := range out.Assignments {
		scores[i] = platform.ScoreRequest{WorkerID: a.WorkerID, TaskID: a.TaskID, Score: score(run.ID(), a.WorkerID, a.TaskID)}
	}
	if len(scores) > 0 {
		if err := c.call(epScore, func(ctx context.Context) error {
			res, err := run.SubmitScores(ctx, scores)
			if err != nil {
				return err
			}
			return res.Err()
		}); err != nil {
			return digest{}, err
		}
	}
	if err := c.call(epFinish, run.FinishRun); err != nil {
		return digest{}, err
	}
	return wireDigest(out), nil
}

// closedLoop drives every tenant's window runs back to back, one
// goroutine and one connection per tenant. It returns when all are done.
func (p *plan) closedLoop(clients []*platform.Client, tr *tracer) []*tenantLoad {
	loads := make([]*tenantLoad, p.tenants)
	var wg sync.WaitGroup
	for t := range loads {
		loads[t] = &tenantLoad{}
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			c := &caller{ctx: context.Background(), tr: tr, load: loads[t]}
			for i := p.history; i < p.runs(); i++ {
				start := time.Now()
				run, err := p.openHTTP(c, clients[t], p.spec(t, i))
				if err != nil {
					return
				}
				d, err := finishHTTP(c, run)
				if err != nil {
					return
				}
				c.load.ops = append(c.load.ops, ms(time.Since(start)))
				c.load.digests = append(c.load.digests, d)
			}
		}(t)
	}
	wg.Wait()
	return loads
}

// openLoop drives the open-loop workload in three steps, each across all
// tenants at once: open each tenant's long run with an initial bid from
// every pool worker; then, in the measured window, send each tenant's
// Poisson arrivals as single re-bids; then close, score and finish the
// runs. window brackets the arrivals.
//
// Each tenant's arrivals go out in order on its own connection, so an
// arrival due while the previous response is outstanding waits for it,
// and that backlog counts in its latency: an operation's time is its
// backlog plus its request time. The rest of an arrival's lateness is the
// generator's own timer overshoot: the generator shares the process and
// its cores with the server, and a client on another machine would not
// add it. It is reported as gen.late_ms but kept out of the latency.
func (p *plan) openLoop(clients []*platform.Client, tr *tracer, window func(start bool)) []*tenantLoad {
	loads := make([]*tenantLoad, p.tenants)
	callers := make([]*caller, p.tenants)
	runs := make([]*platform.RunAPI, p.tenants)
	for t := range loads {
		loads[t] = &tenantLoad{}
		callers[t] = &caller{ctx: context.Background(), tr: tr, load: loads[t]}
	}
	each := func(f func(t int)) {
		var wg sync.WaitGroup
		for t := range loads {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				f(t)
			}(t)
		}
		wg.Wait()
	}
	each(func(t int) {
		runs[t], _ = p.openHTTP(callers[t], clients[t], p.spec(t, p.history))
	})
	for _, r := range runs {
		if r == nil {
			return loads
		}
	}
	window(true)
	start := time.Now()
	each(func(t int) {
		c, run, arr := callers[t], runs[t], p.arrivals(t)
		prevEnd := start
		for {
			at, worker, bid, ok := arr.next()
			if !ok {
				return
			}
			due := start.Add(time.Duration(at * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			sent := time.Now()
			if c.call(epBid, func(ctx context.Context) error {
				return run.SubmitBid(ctx, worker, bid.Cost, bid.Frequency)
			}) != nil {
				return
			}
			end := time.Now()
			backlog := max(prevEnd.Sub(due), 0)
			c.load.late = append(c.load.late, ms(sent.Sub(due)))
			c.load.backlog = append(c.load.backlog, ms(backlog))
			c.load.ops = append(c.load.ops, ms(end.Sub(sent)+backlog))
			prevEnd = end
		}
	})
	window(false)
	each(func(t int) {
		if loads[t].err != nil {
			return
		}
		if d, err := finishHTTP(callers[t], runs[t]); err == nil {
			loads[t].digests = append(loads[t].digests, d)
		}
	})
	return loads
}

// runInProcess issues one standard run's operations against an in-process
// backend and returns its outcome digest.
func (p *plan) runInProcess(ctx context.Context, be platform.MultiRunBackend, s runSpec) (digest, error) {
	if err := be.OpenRun(ctx, s.id, tenantName(s.tenant), s.tasks, p.budget); err != nil {
		return digest{}, fmt.Errorf("open %s: %w", s.id, err)
	}
	for _, b := range p.batches(s) {
		if err := be.SubmitBids(ctx, s.id, b).Err(); err != nil {
			return digest{}, fmt.Errorf("bids %s: %w", s.id, err)
		}
	}
	return finishInProcess(ctx, be, s.id)
}

func finishInProcess(ctx context.Context, be platform.MultiRunBackend, id string) (digest, error) {
	out, err := be.CloseAuction(ctx, id)
	if err != nil {
		return digest{}, fmt.Errorf("close %s: %w", id, err)
	}
	scores := make([]melody.TaskScore, len(out.Assignments))
	for i, a := range out.Assignments {
		scores[i] = melody.TaskScore{WorkerID: a.WorkerID, TaskID: a.TaskID, Score: score(id, a.WorkerID, a.TaskID)}
	}
	if len(scores) > 0 {
		if err := be.SubmitScores(ctx, id, scores).Err(); err != nil {
			return digest{}, fmt.Errorf("scores %s: %w", id, err)
		}
	}
	if err := be.FinishRun(ctx, id); err != nil {
		return digest{}, fmt.Errorf("finish %s: %w", id, err)
	}
	return coreDigest(out), nil
}

// history writes the workload's history, tenants' runs interleaved, and
// returns each run's acknowledged outcome digest by tenant and index.
func (p *plan) writeHistory(path string) ([][]digest, error) {
	digests := make([][]digest, p.tenants)
	err := writeHistory(path, p.fund(), func(be platform.MultiRunBackend) error {
		ctx := context.Background()
		for _, w := range p.allWorkers() {
			if err := be.RegisterWorker(ctx, w); err != nil {
				return err
			}
		}
		for i := 0; i < p.history; i++ {
			for t := range digests {
				d, err := p.runInProcess(ctx, be, p.spec(t, i))
				if err != nil {
					return err
				}
				digests[t] = append(digests[t], d)
			}
		}
		return nil
	})
	return digests, err
}

// reference replays each tenant's inputs, history and window, serially
// through a fresh scheduler of its own that knows every worker, and
// returns the outcome digests by tenant and index. Each tenant owns its
// estimator, so these are the outcomes the served stack must have produced
// whatever the interleaving, and the tenants' replays can run in parallel.
func (p *plan) reference() ([][]digest, error) {
	out := make([][]digest, p.tenants)
	errs := make([]error, p.tenants)
	var wg sync.WaitGroup
	for t := range out {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			out[t], errs[t] = p.referenceTenant(t)
		}(t)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

func (p *plan) referenceTenant(t int) ([]digest, error) {
	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	for _, w := range p.allWorkers() {
		if err := ref.RegisterWorker(ctx, w); err != nil {
			return nil, err
		}
	}
	out := make([]digest, 0, p.runs())
	for i := 0; i < p.runs(); i++ {
		var d digest
		if p.openRate > 0 && i == p.history {
			d, err = p.referenceOpenRun(ctx, ref, t)
		} else {
			d, err = p.runInProcess(ctx, ref, p.spec(t, i))
		}
		if err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
		out = append(out, d)
	}
	return out, nil
}

// referenceOpenRun replays the open loop's long run: the initial bids, then
// every arrival in order.
func (p *plan) referenceOpenRun(ctx context.Context, be platform.MultiRunBackend, t int) (digest, error) {
	s := p.spec(t, p.history)
	if err := be.OpenRun(ctx, s.id, tenantName(t), s.tasks, p.budget); err != nil {
		return digest{}, err
	}
	for _, b := range p.batches(s) {
		if err := be.SubmitBids(ctx, s.id, b).Err(); err != nil {
			return digest{}, err
		}
	}
	arr := p.arrivals(t)
	for {
		_, worker, bid, ok := arr.next()
		if !ok {
			break
		}
		if err := be.SubmitBid(ctx, s.id, worker, bid); err != nil {
			return digest{}, err
		}
	}
	return finishInProcess(ctx, be, s.id)
}
