package lds

import (
	"errors"
	"fmt"
)

// Smoothed holds the outputs of the RTS (Rauch-Tung-Striebel) backward pass
// over a score history of R runs. Index 0 corresponds to the initial state
// q_0 (the platform prior); indices 1..R correspond to runs 1..R.
type Smoothed struct {
	// Mean[t] and Var[t] are E[q_t | S_1..S_R] and Var[q_t | S_1..S_R].
	Mean []float64
	Var  []float64
	// CrossCov[t] is Cov(q_t, q_{t-1} | S_1..S_R) for t = 1..R; CrossCov[0]
	// is unused and zero.
	CrossCov []float64
}

// Smooth runs the forward filter followed by the RTS backward recursion,
// returning smoothed marginals for q_0..q_R and the lag-one cross
// covariances EM needs. history[r] is the score set of run r+1. The result
// is freshly allocated; use Workspace.Smooth on a hot path to reuse
// buffers across calls.
func Smooth(p Params, init State, history [][]float64) (*Smoothed, error) {
	return new(Workspace).Smooth(p, init, history)
}

// Smooth is the buffer-reusing form of the package-level Smooth: the
// returned Smoothed aliases the workspace and is valid until the next call
// on it.
func (ws *Workspace) Smooth(p Params, init State, history [][]float64) (*Smoothed, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := init.Validate(); err != nil {
		return nil, err
	}
	n := len(history)
	if n == 0 {
		return nil, errors.New("lds: cannot smooth an empty history")
	}

	// Forward pass. filtered[t], predicted[t] for t = 0..n, where
	// predicted[t] is the prior variance P_t = a^2*V_{t-1} + gamma used by
	// the backward gain (predicted[0] unused).
	ws.size(n)
	filtered := ws.filtered
	predicted := ws.predicted
	filtered[0] = init
	for t := 1; t <= n; t++ {
		predicted[t] = p.A*p.A*filtered[t-1].Var + p.Gamma
		next, err := Update(p, filtered[t-1], history[t-1])
		if err != nil {
			return nil, fmt.Errorf("run %d: %w", t, err)
		}
		filtered[t] = next
	}
	ws.backward(p)
	return &ws.sm, nil
}

// backward runs the RTS recursion over the workspace's forward pass
// (filtered and predicted, sized by size), filling ws.sm.
func (ws *Workspace) backward(p Params) {
	filtered, predicted, sm := ws.filtered, ws.predicted, &ws.sm
	n := len(filtered) - 1
	next := filtered[n]
	sm.Mean[n], sm.Var[n] = next.Mean, next.Var
	for t := n - 1; t >= 0; t-- {
		next, sm.CrossCov[t+1] = smoothStep(p.A, filtered[t], predicted[t+1], next)
		sm.Mean[t], sm.Var[t] = next.Mean, next.Var
	}
}

// smoothStep is one RTS step: from the filtered belief f at t, the prior
// variance pred of run t+1 and the smoothed belief next at t+1, it returns
// the smoothed belief at t and the lag-one covariance Cov(q_{t+1}, q_t).
// The smoother and the EM lane kernel both step through it.
func smoothStep(a float64, f State, pred float64, next State) (State, float64) {
	// Smoother gain J_t = V_t * a / P_{t+1}.
	j := f.Var * a / pred
	return State{
			Mean: f.Mean + j*(next.Mean-a*f.Mean),
			Var:  f.Var + j*j*(next.Var-pred),
		},
		// Lag-one covariance Cov(q_{t+1}, q_t | all) = J_t * V_{t+1|T}.
		j * next.Var
}

// Runs returns the number of runs R covered by the smoothed history.
func (s *Smoothed) Runs() int { return len(s.Mean) - 1 }
