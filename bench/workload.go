package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"strconv"

	"melody"
	"melody/internal/platform"
)

// workload is one traffic mix. Every workload first writes a seeded history
// of historyRuns runs per tenant (untimed), boots the stack on it setups
// times, and then drives its measured window over HTTP: a closed loop of
// window runs split evenly across the tenants, or, with openRate set, an
// open loop of single-bid arrivals into one long-open run per tenant.
type workload struct {
	name    string
	tenants int
	// workers bid in every run; shared pools are bid by every tenant,
	// otherwise each tenant has its own workers.
	workers int
	shared  bool
	tasks   int
	budget  float64
	// batch is the size of each bid batch request.
	batch int
	// historyRuns per tenant are written before boot and replayed by every
	// set-up.
	historyRuns int
	// runsPerSecond sizes a closed loop's window: runsPerSecond x --seconds
	// runs in total, which takes about --seconds on a 2-core machine at
	// the seed commit. The work is fixed, so a faster commit finishes
	// sooner rather than doing more. The ledger keeps every entry in one
	// slice, whose capacity grows in steps about 1.25x apart, and the entry
	// count varies by about ±3.5% between seeds. Each closed loop's history
	// plus window puts that count near the middle of a step for every seed
	// (about 158k, 240k and 196k entries), so heap_mb does not jump by a
	// step from one seed to the next.
	runsPerSecond float64
	// openRate is each tenant's Poisson arrival rate in bids/s for the
	// open loop; zero selects the closed loop.
	openRate float64
	// setups is how many times the stack is booted on the history; set-up
	// time is their median.
	setups int
}

// workloads are the benchmark's traffic mixes. BENCHMARK.json records why
// each was chosen.
var workloads = []workload{
	{name: "lifecycle_wal", tenants: 2, workers: 16, tasks: 2, budget: 40, batch: 16,
		historyRuns: 300, runsPerSecond: 1120, setups: 15},
	{name: "bids_open_r1000", tenants: 2, workers: 1000, tasks: 20, budget: 400, batch: 500,
		historyRuns: 9, openRate: 500, setups: 15},
	{name: "auction_wal", tenants: 2, workers: 2000, shared: true, tasks: 100, budget: 2000, batch: 500,
		historyRuns: 5, runsPerSecond: 55, setups: 15},
	{name: "recovery_wal", tenants: 2, workers: 16, tasks: 2, budget: 40, batch: 16,
		historyRuns: 3000, runsPerSecond: 1050, setups: 7},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("bench: unknown workload %q (have %v)", name, names)
}

// plan is a workload sized for one invocation: its seed and the number of
// runs per tenant in the history and in the window.
type plan struct {
	workload
	seed        uint64
	history     int     // runs per tenant written before boot
	window      int     // closed loop: runs per tenant in the window
	openSeconds float64 // open loop: arrival horizon
	pools       [][]string
}

func newPlan(w workload, seed int64, seconds, scale float64) plan {
	p := plan{workload: w, seed: uint64(seed)}
	p.history = max(1, int(math.Round(float64(w.historyRuns)*scale)))
	if w.openRate > 0 {
		p.openSeconds = seconds * scale
		p.window = 1
	} else {
		p.window = max(1, int(math.Round(w.runsPerSecond*seconds*scale/float64(w.tenants))))
	}
	p.pools = make([][]string, w.tenants)
	for t := range p.pools {
		if w.shared && t > 0 {
			p.pools[t] = p.pools[0]
			continue
		}
		pool := make([]string, w.workers)
		for i := range pool {
			if w.shared {
				pool[i] = fmt.Sprintf("w%04d", i)
			} else {
				pool[i] = fmt.Sprintf("t%d-w%04d", t, i)
			}
		}
		p.pools[t] = pool
	}
	return p
}

// allWorkers lists every worker once, in registration order.
func (p *plan) allWorkers() []string {
	if p.shared {
		return p.pools[0]
	}
	var all []string
	for _, pool := range p.pools {
		all = append(all, pool...)
	}
	return all
}

// runs is the number of runs per tenant across history and window.
func (p *plan) runs() int { return p.history + p.window }

// fund is the requester's boot deposit: every budget the workload can
// escrow, so funding never limits a run.
func (p *plan) fund() float64 {
	return p.budget*float64(p.tenants*p.runs()) + 1
}

func tenantName(t int) string { return "tenant" + strconv.Itoa(t) }

func runID(t, i int) string { return fmt.Sprintf("t%d-r%06d", t, i) }

// rng is a splitmix64 stream: cheap to seed per run, so the generator
// keeps only per-run seeds instead of whole input sets.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// stream seeds an independent stream for (seed, tenant, index, kind).
func (p *plan) stream(t, i int, kind uint64) rng {
	r := rng{s: p.seed}
	for _, v := range []uint64{uint64(t), uint64(i), kind} {
		r.s ^= v
		r.s = r.next()
	}
	return r
}

const (
	streamBids uint64 = iota + 1
	streamArrivals
)

// runSpec is one run's generated inputs: its tasks and one bid per pool
// worker, with costs drawn per run.
type runSpec struct {
	tenant int
	id     string
	tasks  []melody.Task
	costs  []float64
}

func (p *plan) spec(t, i int) runSpec {
	s := runSpec{tenant: t, id: runID(t, i)}
	s.tasks = make([]melody.Task, p.tasks)
	for k := range s.tasks {
		s.tasks[k] = melody.Task{ID: s.id + "-k" + strconv.Itoa(k), Threshold: 10}
	}
	r := p.stream(t, i, streamBids)
	cfg := auctionConfig()
	s.costs = make([]float64, len(p.pools[t]))
	for k := range s.costs {
		s.costs[k] = cfg.CostMin + (cfg.CostMax-cfg.CostMin)*r.float()
	}
	return s
}

// batches splits the run's bids into the workload's batch requests.
func (p *plan) batches(s runSpec) [][]melody.WorkerBid {
	pool := p.pools[s.tenant]
	var out [][]melody.WorkerBid
	for lo := 0; lo < len(pool); lo += p.batch {
		hi := min(lo+p.batch, len(pool))
		b := make([]melody.WorkerBid, hi-lo)
		for k := range b {
			b[k] = melody.WorkerBid{WorkerID: pool[lo+k], Bid: melody.Bid{Cost: s.costs[lo+k], Frequency: 1}}
		}
		out = append(out, b)
	}
	return out
}

// arrivals is one tenant's open-loop schedule: Poisson arrivals at rate
// per second until the horizon, each a re-bid by a uniformly drawn pool
// worker at a fresh cost. The same (plan, tenant) always yields the same
// sequence, which is how the reference replays it.
type arrivals struct {
	r       rng
	rate    float64
	horizon float64
	at      float64
	pool    []string
}

func (p *plan) arrivals(t int) *arrivals {
	return &arrivals{r: p.stream(t, p.history, streamArrivals), rate: p.openRate, horizon: p.openSeconds, pool: p.pools[t]}
}

// next returns the next arrival's offset in seconds from the window start,
// its worker and its bid; ok is false past the horizon.
func (a *arrivals) next() (at float64, worker string, bid melody.Bid, ok bool) {
	a.at += -math.Log(1-a.r.float()) / a.rate
	if a.at > a.horizon {
		return 0, "", melody.Bid{}, false
	}
	cfg := auctionConfig()
	worker = a.pool[a.r.intn(len(a.pool))]
	bid = melody.Bid{Cost: cfg.CostMin + (cfg.CostMax-cfg.CostMin)*a.r.float(), Frequency: 1}
	return a.at, worker, bid, true
}

// score is the requester's deterministic score for an assignment: the
// worker's latent quality plus noise in [-2, 2]. Latent qualities are
// fixed per worker and do not depend on the seed, so every seed's
// estimators converge to the same qualities and runs keep the same number
// of winners; scores that ignored the worker left each tenant's estimates,
// and with them the state retained per run, drifting differently under
// every seed. The band is narrow so that no estimate nears the
// qualification ceiling: a worker estimated above it is never scored
// again, and the estimator's prediction for it can then grow until it
// overflows (see README.md, open findings).
func score(run, worker, task string) float64 {
	return latentQuality(worker) + 4*unitHash(run, worker, task) - 2
}

// latentQuality is the worker's true quality, uniform over [4.5, 6.5].
func latentQuality(worker string) float64 { return 4.5 + 2*unitHash(worker) }

// unitHash maps strings to [0, 1).
func unitHash(parts ...string) float64 {
	h := fnv.New64a()
	for _, s := range parts {
		_, _ = h.Write([]byte(s))
		_, _ = h.Write([]byte{0})
	}
	return float64(h.Sum64()>>11) / (1 << 53)
}

// digest is a run's outcome digest: SHA-256 over its assignments in order
// with %.17g payments and the total payment. Keeping the hash instead of
// the text keeps the generator's state O(runs).
type digest [sha256.Size]byte

type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) add(task, worker string, payment float64) {
	fmt.Fprintf(d.h, "%s/%s=%.17g;", task, worker, payment)
}

func (d *digester) sum(total float64) digest {
	fmt.Fprintf(d.h, "total=%.17g", total)
	var out digest
	d.h.Sum(out[:0])
	return out
}

func coreDigest(out *melody.Outcome) digest {
	d := newDigester()
	for _, a := range out.Assignments {
		d.add(a.TaskID, a.WorkerID, a.Payment)
	}
	return d.sum(out.TotalPayment)
}

func wireDigest(out platform.OutcomeResponse) digest {
	d := newDigester()
	for _, a := range out.Assignments {
		d.add(a.TaskID, a.WorkerID, a.Payment)
	}
	return d.sum(out.TotalPayment)
}
