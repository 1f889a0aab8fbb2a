package platform

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"melody"
	"melody/internal/stats"
)

// AnswerPayload encodes a simulated answer whose intrinsic quality is q.
// Real deployments would carry task output here; the demo agents carry the
// quality sample the requester's verification would measure.
func AnswerPayload(q float64) string {
	return "q=" + strconv.FormatFloat(q, 'f', 4, 64)
}

// ParseAnswerPayload extracts the quality sample from a demo payload.
func ParseAnswerPayload(payload string) (float64, error) {
	rest, ok := strings.CutPrefix(payload, "q=")
	if !ok {
		return 0, fmt.Errorf("platform: malformed answer payload %q", payload)
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return 0, fmt.Errorf("platform: malformed answer payload %q: %w", payload, err)
	}
	return v, nil
}

// WorkerAgentConfig configures an autonomous worker client.
type WorkerAgentConfig struct {
	Client   *Client
	WorkerID string
	// Cost and Frequency form the agent's (truthful) bid.
	Cost      float64
	Frequency int
	// LatentQuality returns the worker's latent quality for a run index;
	// answers embed a noisy sample of it.
	LatentQuality func(run int) float64
	// ScoreSigma is the emission noise of answer samples.
	ScoreSigma float64
	// PollInterval is how often the agent polls /v1/status. Defaults to
	// 50ms.
	PollInterval time.Duration
	// RNG drives the answer noise.
	RNG *stats.RNG
}

// WorkerAgent is an autonomous worker: it registers itself, bids in every
// run, and uploads answers for its allocated tasks. It follows the run
// GET /v1/status names and acts on it by ID, once per run ID. Its
// lifecycle follows the managed-goroutine pattern: NewWorkerAgent starts
// the loop, Stop signals it and waits for exit.
type WorkerAgent struct {
	cfg  WorkerAgentConfig
	stop context.CancelFunc
	done chan struct{}
	err  error
}

// NewWorkerAgent validates the config, registers the worker and starts the
// agent loop.
func NewWorkerAgent(ctx context.Context, cfg WorkerAgentConfig) (*WorkerAgent, error) {
	if cfg.Client == nil || cfg.WorkerID == "" || cfg.LatentQuality == nil || cfg.RNG == nil {
		return nil, errors.New("platform: worker agent needs client, ID, latent quality and RNG")
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 50 * time.Millisecond
	}
	if err := cfg.Client.RegisterWorker(ctx, cfg.WorkerID); err != nil {
		return nil, fmt.Errorf("platform: register %s: %w", cfg.WorkerID, err)
	}
	loopCtx, cancel := context.WithCancel(ctx)
	a := &WorkerAgent{cfg: cfg, stop: cancel, done: make(chan struct{})}
	go a.loop(loopCtx)
	return a, nil
}

// Stop signals the agent to exit and waits for it. It returns the first
// fatal error the loop hit, if any.
func (a *WorkerAgent) Stop() error {
	a.stop()
	<-a.done
	return a.err
}

// loop is the agent's poll loop. Transient API errors are tolerated; only
// context cancellation ends the loop.
func (a *WorkerAgent) loop(ctx context.Context) {
	defer close(a.done)
	ticker := time.NewTicker(a.cfg.PollInterval)
	defer ticker.Stop()
	// The run ID is a run's identity, so the agent remembers the last run
	// it bid in and answered by ID.
	lastBid, lastAnswered := "", ""
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		status, err := a.cfg.Client.Status(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			continue // transient
		}
		switch status.Phase {
		case PhaseBidding:
			if status.RunID == lastBid {
				continue
			}
			err := a.cfg.Client.Run(status.RunID).SubmitBid(ctx, a.cfg.WorkerID, a.cfg.Cost, a.cfg.Frequency)
			switch {
			case err == nil:
				lastBid = status.RunID
			case errors.Is(err, melody.ErrAuctionClosed):
				// The bidding deadline closed the auction between our
				// status poll and the bid; this run is lost for us.
				lastBid = status.RunID
			}
		case PhaseScoring:
			if status.RunID == lastAnswered {
				continue
			}
			err := a.answer(ctx, a.cfg.Client.Run(status.RunID), status.Run)
			switch {
			case err == nil:
				lastAnswered = status.RunID
			case errors.Is(err, melody.ErrNoRunOpen), errors.Is(err, melody.ErrNotAssigned):
				// The run finished under us (scoring deadline) or we
				// were never a winner; nothing left to upload.
				lastAnswered = status.RunID
			}
		}
	}
}

// answer uploads one answer per task assigned to this agent in the run.
func (a *WorkerAgent) answer(ctx context.Context, h *RunAPI, run int) error {
	out, err := h.Outcome(ctx)
	if err != nil {
		return err
	}
	q := a.cfg.LatentQuality(run)
	for _, asg := range out.Assignments {
		if asg.WorkerID != a.cfg.WorkerID {
			continue
		}
		sample := a.cfg.RNG.Normal(q, a.cfg.ScoreSigma)
		if err := h.SubmitAnswer(ctx, a.cfg.WorkerID, asg.TaskID, AnswerPayload(sample)); err != nil {
			return err
		}
	}
	return nil
}

// RequesterConfig configures the requester driver.
type RequesterConfig struct {
	Client *Client
	// Tasks generates the run's task set.
	Tasks func(run int) []TaskSpec
	// Budget is the per-run budget.
	Budget float64
	// BidWait is how long to keep the auction open for bids.
	BidWait time.Duration
	// AnswerTimeout bounds how long to wait for all answers.
	AnswerTimeout time.Duration
	// ScoreLo and ScoreHi clamp scores onto the platform's score scale.
	ScoreLo, ScoreHi float64
}

// Requester drives complete runs against a platform: open, wait for bids,
// close, collect answers, score them from the embedded quality samples, and
// finish.
type Requester struct {
	cfg RequesterConfig
}

// NewRequester validates the configuration.
func NewRequester(cfg RequesterConfig) (*Requester, error) {
	if cfg.Client == nil || cfg.Tasks == nil {
		return nil, errors.New("platform: requester needs client and task generator")
	}
	if cfg.BidWait <= 0 {
		cfg.BidWait = 200 * time.Millisecond
	}
	if cfg.AnswerTimeout <= 0 {
		cfg.AnswerTimeout = 5 * time.Second
	}
	if cfg.ScoreHi <= cfg.ScoreLo {
		return nil, fmt.Errorf("platform: score range [%v, %v] invalid", cfg.ScoreLo, cfg.ScoreHi)
	}
	return &Requester{cfg: cfg}, nil
}

// RunOnce drives a single complete run and returns the auction outcome.
// The server names the run; every later call addresses it by that name.
func (q *Requester) RunOnce(ctx context.Context, run int) (OutcomeResponse, error) {
	h, err := q.cfg.Client.OpenRunID(ctx, "", "", q.cfg.Tasks(run), q.cfg.Budget)
	if err != nil {
		return OutcomeResponse{}, fmt.Errorf("platform: open run %d: %w", run, err)
	}
	select {
	case <-ctx.Done():
		return OutcomeResponse{}, ctx.Err()
	case <-time.After(q.cfg.BidWait):
	}
	out, err := h.CloseAuction(ctx)
	if err != nil {
		return OutcomeResponse{}, fmt.Errorf("platform: close run %d: %w", run, err)
	}

	// Wait until every assignment has an answer, bounded by a context
	// deadline rather than a polled clock; when it expires, score whatever
	// arrived (missing winners degrade into the estimator's
	// missing-observation path).
	waitCtx, cancel := context.WithDeadline(ctx, time.Now().Add(q.cfg.AnswerTimeout))
	defer cancel()
	var answers []Answer
wait:
	for {
		answers, err = h.Answers(ctx)
		if err != nil {
			return OutcomeResponse{}, fmt.Errorf("platform: answers run %d: %w", run, err)
		}
		if len(answers) >= len(out.Assignments) {
			break
		}
		select {
		case <-waitCtx.Done():
			if ctx.Err() != nil {
				return OutcomeResponse{}, ctx.Err()
			}
			break wait
		case <-time.After(20 * time.Millisecond):
		}
	}
	// All scores ship in one batch round trip; per-item errors come back in
	// the same positions, so the tolerated cases stay per-answer.
	var scores []ScoreRequest
	for _, ans := range answers {
		sample, err := ParseAnswerPayload(ans.Payload)
		if err != nil {
			continue // unscorable answer; skip rather than abort the run
		}
		scores = append(scores, ScoreRequest{
			WorkerID: ans.WorkerID,
			TaskID:   ans.TaskID,
			Score:    stats.Clamp(sample, q.cfg.ScoreLo, q.cfg.ScoreHi),
		})
	}
	if len(scores) > 0 {
		res, err := h.SubmitScores(ctx, scores)
		if err != nil {
			return OutcomeResponse{}, fmt.Errorf("platform: score run %d: %w", run, err)
		}
		for _, item := range res.Failed() {
			itemErr := item.Err
			if errors.Is(itemErr, melody.ErrNotAssigned) {
				continue
			}
			if errors.Is(itemErr, melody.ErrNoRunOpen) {
				// The scoring deadline finished the run under us; the
				// remaining scores are moot.
				return out, nil
			}
			return OutcomeResponse{}, fmt.Errorf("platform: score run %d: %w", run, itemErr)
		}
	}
	if err := h.FinishRun(ctx); err != nil {
		return OutcomeResponse{}, fmt.Errorf("platform: finish run %d: %w", run, err)
	}
	return out, nil
}
