package quality

import (
	"encoding/json"
	"fmt"
	"sort"

	"melody/internal/lds"
)

// workerSnapshot is the serialized dynamic state of one tracked worker:
// everything that influences future estimates. Inference scratch (smoother
// workspace, window view, innovations) belongs to the estimator's
// goroutines, not to workers, and is not state.
type workerSnapshot struct {
	ID         string      `json:"id"`
	Posterior  lds.State   `json:"posterior"`
	Params     lds.Params  `json:"params"`
	WindowInit lds.State   `json:"window_init"`
	SinceEM    int         `json:"since_em"`
	History    [][]float64 `json:"history,omitempty"`
}

// melodySnapshot is the serialized dynamic state of the whole estimator.
// Configuration (initial belief, EM settings) is not captured: a restored
// estimator must be constructed with the same MelodyConfig as the writer,
// exactly like a replayed platform must share the writer's configuration.
type melodySnapshot struct {
	Version int              `json:"version"`
	Workers []workerSnapshot `json:"workers,omitempty"`
}

// snapshotVersion guards the estimator snapshot encoding.
const snapshotVersion = 1

// SnapshotState serializes the estimator's dynamic state (per-worker
// posteriors, hyper-parameters, EM score history and window anchors) so a
// platform snapshot can restore it bit-identically: floats survive the JSON
// round-trip exactly (Go encodes float64 with the shortest representation
// that parses back to the same value). It only reads the estimator, so
// concurrent calls are safe while no update runs.
func (m *Melody) SnapshotState() ([]byte, error) {
	snap := melodySnapshot{Version: snapshotVersion}
	ids := make([]string, 0, len(m.workers))
	for id := range m.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		w := m.workers[id]
		ws := workerSnapshot{
			ID:         id,
			Posterior:  w.posterior,
			Params:     w.params,
			WindowInit: w.windowInit,
			SinceEM:    w.sinceEM,
		}
		// The runs alias the window, which Marshal reads before returning;
		// an empty run encodes as null, as in every version-1 snapshot.
		ws.History = w.hist.view(nil)
		for i, run := range ws.History {
			if len(run) == 0 {
				ws.History[i] = nil
			}
		}
		snap.Workers = append(snap.Workers, ws)
	}
	return json.Marshal(snap)
}

// RestoreState rebuilds the estimator's dynamic state from a SnapshotState
// payload. The estimator must be freshly constructed (no workers tracked
// yet) with the same MelodyConfig the writer used.
func (m *Melody) RestoreState(data []byte) error {
	if len(m.workers) != 0 {
		return fmt.Errorf("quality: restore target already tracks %d workers", len(m.workers))
	}
	var snap melodySnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("quality: decode estimator snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return fmt.Errorf("quality: estimator snapshot version %d (want %d)", snap.Version, snapshotVersion)
	}
	for _, ws := range snap.Workers {
		if ws.ID == "" {
			return fmt.Errorf("quality: estimator snapshot worker with empty ID")
		}
		if _, dup := m.workers[ws.ID]; dup {
			return fmt.Errorf("quality: estimator snapshot duplicates worker %s", ws.ID)
		}
		if m.cfg.EMWindow > 0 && len(ws.History) > m.cfg.EMWindow {
			return fmt.Errorf("quality: worker %s history %d exceeds EM window %d",
				ws.ID, len(ws.History), m.cfg.EMWindow)
		}
		w := &melodyWorker{
			posterior:  ws.Posterior,
			params:     ws.Params,
			windowInit: ws.WindowInit,
			sinceEM:    ws.SinceEM,
		}
		for _, run := range ws.History {
			w.hist.push(m.cfg.EMWindow, run)
		}
		m.workers[ws.ID] = w
	}
	return nil
}
