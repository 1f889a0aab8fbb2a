package platform

// Failure injection: the worker agents must survive transient network
// failures without losing their place in the run protocol.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"melody/internal/stats"
)

// flakyTransport fails every k-th request with a transport error.
type flakyTransport struct {
	inner   http.RoundTripper
	counter atomic.Int64
	every   int64
}

// RoundTrip implements http.RoundTripper.
func (f *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if f.counter.Add(1)%f.every == 0 {
		return nil, errors.New("injected network failure")
	}
	return f.inner.RoundTrip(req)
}

func TestAgentsSurviveFlakyNetwork(t *testing.T) {
	ts, _ := newTestServer(t)
	flaky := &http.Client{
		Transport: &flakyTransport{inner: ts.Client().Transport, every: 4},
		Timeout:   5 * time.Second,
	}
	flakyClient, err := NewClient(ts.URL, flaky)
	if err != nil {
		t.Fatal(err)
	}
	// The requester uses a reliable client (it aborts on errors by design);
	// the agents use the flaky one.
	reliableClient, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	r := stats.NewRNG(5)
	var agents []*WorkerAgent
	for i := 0; i < 5; i++ {
		// Registration itself may hit an injected failure; retry a few
		// times like a real client would.
		var agent *WorkerAgent
		var err error
		for attempt := 0; attempt < 5; attempt++ {
			agent, err = NewWorkerAgent(ctx, WorkerAgentConfig{
				Client:        flakyClient,
				WorkerID:      fmt.Sprintf("flaky-%d", i),
				Cost:          r.Uniform(1, 2),
				Frequency:     2,
				LatentQuality: func(int) float64 { return 7 },
				ScoreSigma:    0.5,
				PollInterval:  10 * time.Millisecond,
				RNG:           r.Split(),
			})
			if err == nil {
				break
			}
		}
		if err != nil {
			t.Fatalf("agent %d never registered: %v", i, err)
		}
		agents = append(agents, agent)
	}
	defer func() {
		for _, a := range agents {
			if err := a.Stop(); err != nil {
				t.Errorf("stop: %v", err)
			}
		}
	}()

	requester, err := NewRequester(RequesterConfig{
		Client: reliableClient,
		Tasks: func(run int) []TaskSpec {
			return []TaskSpec{{ID: fmt.Sprintf("r%d", run), Threshold: 12}}
		},
		Budget:        100,
		BidWait:       400 * time.Millisecond, // generous so flaky bids land
		AnswerTimeout: 5 * time.Second,
		ScoreLo:       1, ScoreHi: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	selected := 0
	for run := 1; run <= 4; run++ {
		out, err := requester.RunOnce(ctx, run)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		selected += len(out.SelectedTasks)
	}
	if selected == 0 {
		t.Error("flaky agents never completed a single task across 4 runs")
	}
}

func TestServerRejectsWrongMethods(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := ts.Client().Get(ts.URL + "/v1/runs/r1/close")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on POST route = %d, want 405", resp.StatusCode)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/workers", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE workers = %d, want 405", resp.StatusCode)
	}
}

// Verify the test-only transport satisfies the interface.
var _ http.RoundTripper = (*flakyTransport)(nil)
