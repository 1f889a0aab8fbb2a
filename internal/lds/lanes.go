package lds

import (
	"errors"
	"fmt"
)

// Lanes is the most windows EMLanes advances together.
const Lanes = 4

// EMLane is one window of an EMLanes group: Workspace.EM's inputs, and
// after the call its result or error.
type EMLane struct {
	Start   Params
	Init    State
	History [][]float64

	Result EMResult
	Err    error
}

// EMLanes runs EM on up to Lanes windows of equal length at once. Each
// lane's Result and Err are exactly what Workspace.EM returns for that
// window alone: the same bits, iteration count and Converged flag, and the
// same error text.
//
// An EM iteration is three serial float recurrences (the forward filter,
// the RTS smoother and the M-step sums), bound by the latency of each step
// rather than by arithmetic. The kernel carries each lane's recurrence in
// its own locals and advances the lanes one step at a time, so the CPU
// overlaps their dependency chains. Every step goes through the helpers
// Workspace.EM uses (filterStep, smoothStep, moments.add, residual), so
// both paths evaluate the same expressions in the same order. A lane that
// converges or fails stops changing while the others run on. A group with
// a single valid window runs Workspace.EM, which is faster than a group
// padded with copies.
//
// EMLanes panics when given more than Lanes windows or windows of
// different lengths. Its buffers live in the workspace and are reused, so
// it allocates nothing once they have grown to the window.
func (ws *Workspace) EMLanes(lanes []EMLane, cfg EMConfig) {
	if len(lanes) > Lanes {
		panic(fmt.Sprintf("lds: EMLanes given %d windows, more than %d", len(lanes), Lanes))
	}
	switch len(lanes) {
	case 0:
		return
	case 1:
		l := &lanes[0]
		l.Result, l.Err = ws.EM(l.Start, l.Init, l.History, cfg)
		return
	}
	for i := range lanes {
		if len(lanes[i].History) != len(lanes[0].History) {
			panic("lds: EMLanes windows differ in length")
		}
	}
	cfg = cfg.withDefaults()
	g := &ws.lanes
	g.size(len(lanes[0].History))
	slots := 0
	for i := range lanes {
		l := &lanes[i]
		l.Result = EMResult{}
		if l.Err = g.load(slots, l); l.Err == nil {
			g.lane[slots] = i
			slots++
		}
	}
	switch slots {
	case 0:
		return
	case 1:
		// Workspace.EM repeats the checks load passed, which costs less
		// than running the lone window in a padded group.
		l := &lanes[g.lane[0]]
		l.Result, l.Err = ws.EM(l.Start, l.Init, l.History, cfg)
		return
	}
	g.live = 1<<slots - 1
	for s := slots; s < Lanes; s++ {
		g.pad(s)
	}

	for iter := 1; iter <= cfg.MaxIter && g.live != 0; iter++ {
		g.forward(iter)
		g.backwardPair(0)
		g.backwardPair(2)
		g.mStep(iter, cfg)
	}

	for s := 0; s < slots; s++ {
		l := &lanes[g.lane[s]]
		if l.Err = g.err[s]; l.Err != nil {
			continue
		}
		ll, err := LogLikelihood(g.cur[s], g.init[s], l.History)
		if err != nil {
			l.Err = err
			continue
		}
		l.Result = g.res[s]
		l.Result.Params = g.cur[s]
		l.Result.LogLikelihood = ll
	}
}

// laneGroup is EMLanes' working memory. The passes are interleaved by run,
// so step t of every slot sits together. Slot s holds lanes[lane[s]];
// slots past the group's windows repeat slot 0 with no live bit, so every
// step runs all Lanes slots.
type laneGroup struct {
	runs   [][Lanes]runSums
	filt   [][Lanes]State
	pred   [][Lanes]float64 // prior variance of each run, the smoother's divisor
	smooth [][Lanes]State
	cross  [][Lanes]float64 // Cov(q_t, q_{t-1}) given the whole window

	// scores holds each slot's scores in window order, and run the index
	// into smooth of the run each came from, so the M-step's emission sum
	// is one loop with no branch on each run's score count.
	scores [Lanes][]float64
	run    [Lanes][]int32

	init [Lanes]State
	cur  [Lanes]Params
	res  [Lanes]EMResult
	err  [Lanes]error
	lane [Lanes]int
	live uint8 // slots still iterating: neither converged nor failed
}

// size readies the buffers for windows of n runs. The passes write every
// element before they read it.
func (g *laneGroup) size(n int) {
	g.runs = grow(g.runs, n)
	g.filt = grow(g.filt, n+1)
	g.pred = grow(g.pred, n+1)
	g.smooth = grow(g.smooth, n+1)
	g.cross = grow(g.cross, n+1)
}

// load validates l as Workspace.EM does, in its order and with its errors,
// and on success installs the window in slot s.
func (g *laneGroup) load(s int, l *EMLane) error {
	if err := l.Start.Validate(); err != nil {
		return err
	}
	if err := l.Init.Validate(); err != nil {
		return err
	}
	if len(l.History) == 0 {
		return errors.New("lds: cannot learn from an empty history")
	}
	g.scores[s], g.run[s] = g.scores[s][:0], g.run[s][:0]
	for r, scores := range l.History {
		for _, x := range scores {
			g.scores[s] = append(g.scores[s], x)
			g.run[s] = append(g.run[s], int32(r+1))
		}
	}
	if len(g.scores[s]) == 0 {
		return errors.New("lds: cannot learn from a history with no scores")
	}
	for r, scores := range l.History {
		run, err := sumRun(scores)
		if err != nil {
			return fmt.Errorf("run %d: %w", r+1, err)
		}
		g.runs[r][s] = run
	}
	g.init[s], g.cur[s] = l.Init, l.Start
	g.res[s], g.err[s] = EMResult{}, nil
	return nil
}

// pad fills slot s with a copy of slot 0's window.
func (g *laneGroup) pad(s int) {
	for r := range g.runs {
		g.runs[r][s] = g.runs[r][0]
	}
	g.scores[s] = append(g.scores[s][:0], g.scores[0]...)
	g.run[s] = append(g.run[s][:0], g.run[0]...)
	g.init[s], g.cur[s] = g.init[0], g.cur[0]
}

// forward is filterSums for every slot: the filtered beliefs and prior
// variances under each slot's current parameters. The beliefs stay in
// registers; the parameters are loaded from g.cur at every step, which
// costs loads beside the dependency chains instead of spills on them.
func (g *laneGroup) forward(iter int) {
	p := &g.cur
	f0, f1, f2, f3 := g.init[0], g.init[1], g.init[2], g.init[3]
	filt, pred := g.filt, g.pred
	runs := g.runs[:len(filt)-1]
	filt[0] = g.init
	for t := 1; t < len(filt); t++ {
		if !(proper(f0) && proper(f1) && proper(f2) && proper(f3)) {
			f0, f1, f2, f3 = g.improper(iter, t, [Lanes]State{f0, f1, f2, f3})
		}
		r := &runs[t-1]
		var k0, k1, k2, k3 float64
		f0, k0 = filterStep(p[0], f0, r[0])
		f1, k1 = filterStep(p[1], f1, r[1])
		f2, k2 = filterStep(p[2], f2, r[2])
		f3, k3 = filterStep(p[3], f3, r[3])
		// Element by element: an array literal is built on the stack and
		// copied in 16-byte moves, which stall on its 8-byte stores.
		ft, kt := &filt[t], &pred[t]
		ft[0], ft[1], ft[2], ft[3] = f0, f1, f2, f3
		kt[0], kt[1], kt[2], kt[3] = k0, k1, k2, k3
	}
}

// improper handles a step whose previous belief is improper in some slot.
// A live slot fails there with filterSums' error and stops iterating.
// Every improper belief is replaced by its slot's initial state, so a
// failed or frozen slot steps on through finite numbers nobody reads
// instead of coming back here at every later step.
func (g *laneGroup) improper(iter, t int, f [Lanes]State) (State, State, State, State) {
	for s := range f {
		if proper(f[s]) {
			continue
		}
		if g.live&(1<<s) != 0 {
			g.err[s] = fmt.Errorf("EM iteration %d: %w", iter, fmt.Errorf("run %d: %w", t, f[s].Validate()))
			g.live &^= 1 << s
		}
		f[s] = g.init[s]
	}
	return f[0], f[1], f[2], f[3]
}

// backwardPair is Workspace.backward for slots s and s+1. Two slots per
// sweep, because four slots' smoothed beliefs and their temporaries
// outgrow the registers, and the spills land on the chains.
func (g *laneGroup) backwardPair(s int) {
	a0, a1 := g.cur[s].A, g.cur[s+1].A
	filt, pred, smooth, cross := g.filt, g.pred, g.smooth, g.cross
	n := len(filt) - 1
	smooth, cross = smooth[:n+1], cross[:n+1]
	s0, s1 := filt[n][s], filt[n][s+1]
	smooth[n][s], smooth[n][s+1] = s0, s1
	for t := n - 1; t >= 0; t-- {
		f, k := &filt[t], &pred[t+1]
		var c0, c1 float64
		s0, c0 = smoothStep(a0, f[s], k[s], s0)
		s1, c1 = smoothStep(a1, f[s+1], k[s+1], s1)
		st, ct := &smooth[t], &cross[t+1]
		st[s], st[s+1] = s0, s1
		ct[s], ct[s+1] = c0, c1
	}
}

// mStep is the package's mStep for the live slots: a failed M-step ends
// its slot with Workspace.EM's error; a successful one counts the
// iteration and ends the slot once its parameters move less than Tol.
func (g *laneGroup) mStep(iter int, cfg EMConfig) {
	smooth := g.smooth
	n := len(smooth) - 1
	var m [Lanes]moments
	m[0], m[1] = g.momentsPair(0)
	m[2], m[3] = g.momentsPair(2)
	for s := range m {
		if g.live&(1<<s) == 0 {
			continue
		}
		var sumSq float64
		scores := g.scores[s]
		run := g.run[s][:len(scores)]
		for j, x := range scores {
			sumSq = residual(sumSq, x, smooth[run[j]][s])
		}
		next, err := m[s].params(n, sumSq, float64(len(scores)), cfg.VarFloor)
		if err != nil {
			g.err[s] = fmt.Errorf("EM iteration %d: %w", iter, err)
			g.live &^= 1 << s
			continue
		}
		g.res[s].Iterations = iter
		delta := paramDelta(next, g.cur[s])
		g.cur[s] = next
		if delta < cfg.Tol {
			g.res[s].Converged = true
			g.live &^= 1 << s
		}
	}
}

// momentsPair sums the smoothed moments of slots s and s+1 in one sweep,
// carrying each step's beliefs over as the next step's previous ones.
func (g *laneGroup) momentsPair(s int) (moments, moments) {
	smooth, cross := g.smooth, g.cross[:len(g.smooth)]
	p0, p1 := smooth[0][s], smooth[0][s+1]
	var m0, m1 moments
	for t := 1; t < len(smooth); t++ {
		st, ct := &smooth[t], &cross[t]
		c0, c1 := st[s], st[s+1]
		m0 = m0.add(p0, c0, ct[s])
		m1 = m1.add(p1, c1, ct[s+1])
		p0, p1 = c0, c1
	}
	return m0, m1
}
