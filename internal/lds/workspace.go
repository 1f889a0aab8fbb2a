package lds

// Workspace holds reusable buffers for the smoother and EM, so repeated
// inference (the estimator's per-run hot path) runs allocation-free once
// the buffers have grown to the history length. The buffers carry nothing
// from one call to the next, so one Workspace can serve any number of
// workers in turn. A Workspace is not safe for concurrent use: give each
// goroutine its own. The zero value is ready to use.
//
// Results returned by Workspace methods alias its buffers and are valid
// only until the next call on the same Workspace; the package-level Smooth
// and EM wrappers use a fresh Workspace per call and stay safe to retain.
type Workspace struct {
	filtered  []State
	predicted []float64
	sm        Smoothed
	runs      []runSums // per EM call
	lanes     laneGroup // EMLanes' buffers
}

// size readies the forward- and backward-pass buffers for n runs (n+1
// states, index 0 being the initial belief).
func (ws *Workspace) size(n int) {
	ws.filtered = grow(ws.filtered, n+1)
	ws.predicted = growFloats(ws.predicted, n+1)
	ws.sm.Mean = growFloats(ws.sm.Mean, n+1)
	ws.sm.Var = growFloats(ws.sm.Var, n+1)
	ws.sm.CrossCov = growFloats(ws.sm.CrossCov, n+1)
}

// grow returns buf resized to n elements, reallocating only to grow. The
// old contents stay: callers overwrite every element they read.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// growFloats returns a zeroed float64 buffer of length n.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}
