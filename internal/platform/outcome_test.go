package platform

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// rawBody sends a request and returns the response body verbatim, or an
// error unless the status is 200.
func rawBody(ts *httptest.Server, method, path string) ([]byte, error) {
	req, err := http.NewRequest(method, ts.URL+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, body)
	}
	return body, nil
}

// outcomeGoldens are the bodies of a run's close, replayed close and
// GET /v1/runs/{id}/outcome, by case; both server kinds write them.
var outcomeGoldens = map[string]string{
	"empty": `{"assignments":null,"selectedTasks":null,"totalPayment":0}` + "\n",
	"full":  `{"assignments":[{"workerId":"w0","taskId":"gold-full-t1","payment":1.3},{"workerId":"w1","taskId":"gold-full-t1","payment":1.3},{"workerId":"w1","taskId":"gold-full-t2","payment":1.6000000000000003},{"workerId":"w2","taskId":"gold-full-t2","payment":1.6000000000000003},{"workerId":"w3","taskId":"gold-full-t2","payment":1.6000000000000003}],"selectedTasks":["gold-full-t1","gold-full-t2"],"totalPayment":7.4}` + "\n",
}

// TestOutcomeBodies pins the outcome bodies a server writes: the first
// close, GET /outcome before and after finish, and a close replayed after
// finish all return the same bytes, for a client-named run of tenant "a"
// and a server-named run of a one-tenant server's default tenant, for an
// empty and a non-empty outcome.
func TestOutcomeBodies(t *testing.T) {
	ctx := context.Background()
	servers := map[string]func(t *testing.T) (*httptest.Server, *Client){
		"client-named": func(t *testing.T) (*httptest.Server, *Client) {
			sched, _ := newTestScheduler(t, 1000, 0)
			ts := newMultiTestServer(t, sched)
			return ts, tenantClient(t, ts, "a")
		},
		"one-tenant": newTestServer,
	}
	for kind, newServer := range servers {
		ts, c := newServer(t)
		for _, tc := range []struct {
			name   string
			bidder int
		}{{"empty", 0}, {"full", 5}} {
			key := kind + "/" + tc.name
			id, tenant := "gold-"+tc.name, "a"
			if kind == "one-tenant" {
				id, tenant = "", "" // the server names the run, the default tenant owns it
			}
			run, err := c.OpenRunID(ctx, id, tenant, []TaskSpec{
				{ID: "gold-" + tc.name + "-t1", Threshold: 9},
				{ID: "gold-" + tc.name + "-t2", Threshold: 12},
			}, 100)
			if err != nil {
				t.Fatalf("%s: open: %v", key, err)
			}
			for i := 0; i < tc.bidder; i++ {
				w := fmt.Sprintf("w%d", i)
				if err := c.RegisterWorker(ctx, w); err != nil {
					t.Fatal(err)
				}
				if err := run.SubmitBid(ctx, w, 1+0.15*float64(i), 1+i%3); err != nil {
					t.Fatalf("%s: bid: %v", key, err)
				}
			}
			path := "/v1/runs/" + run.ID()
			var bodies [][]byte
			collect := func(method, suffix string) {
				body, err := rawBody(ts, method, path+suffix)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				bodies = append(bodies, body)
			}
			collect(http.MethodPost, "/close")
			collect(http.MethodGet, "/outcome")
			out, err := run.Outcome(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if (len(out.Assignments) > 0) != (tc.bidder > 0) {
				t.Fatalf("%s: %d assignments from %d bidders", key, len(out.Assignments), tc.bidder)
			}
			for _, a := range out.Assignments {
				if err := run.SubmitScore(ctx, a.WorkerID, a.TaskID, 7); err != nil {
					t.Fatal(err)
				}
			}
			if err := run.FinishRun(ctx); err != nil {
				t.Fatalf("%s: finish: %v", key, err)
			}
			collect(http.MethodPost, "/close")
			collect(http.MethodGet, "/outcome")
			for i, body := range bodies {
				if string(body) != outcomeGoldens[tc.name] {
					t.Errorf("%s: body %d = %q, want %q", key, i, body, outcomeGoldens[tc.name])
				}
			}
		}
	}
}

// TestSharedOutcomeConcurrentReaders replays close, reads the outcome and
// submits answers on one run from several goroutines while another tenant's
// runs close and finish on the same server. Run it under -race: the close
// bodies and the outcome are written from the one outcome the backend
// recorded.
func TestSharedOutcomeConcurrentReaders(t *testing.T) {
	ctx := context.Background()
	sched, _ := newTestScheduler(t, 1000, 2)
	ts := newMultiTestServer(t, sched)
	a := tenantClient(t, ts, "a")
	run, err := a.OpenRunID(ctx, "a-r1", "a", []TaskSpec{
		{ID: "a-r1-t1", Threshold: 10}, {ID: "a-r1-t2", Threshold: 10},
	}, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		w := fmt.Sprintf("a-w%d", i)
		if err := a.RegisterWorker(ctx, w); err != nil {
			t.Fatal(err)
		}
		if err := run.SubmitBid(ctx, w, 1+0.1*float64(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	path := "/v1/runs/" + run.ID()
	want, err := rawBody(ts, http.MethodPost, path+"/close")
	if err != nil {
		t.Fatal(err)
	}
	out, err := run.Outcome(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Assignments) == 0 {
		t.Fatal("no assignments")
	}

	var wg sync.WaitGroup
	check := func(method, suffix string) {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			got, err := rawBody(ts, method, path+suffix)
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s %s = %s, want %s", method, suffix, got, want)
				return
			}
		}
	}
	for g := 0; g < 3; g++ {
		wg.Add(2)
		go check(http.MethodPost, "/close")
		go check(http.MethodGet, "/outcome")
	}
	for _, as := range out.Assignments {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if err := run.SubmitAnswer(ctx, as.WorkerID, as.TaskID, AnswerPayload(float64(6+i))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		b := tenantClient(t, ts, "b")
		for i := 0; i < 5; i++ {
			if err := b.RegisterWorker(ctx, fmt.Sprintf("b-w%d", i)); err != nil {
				t.Error(err)
				return
			}
		}
		for i := 0; i < 4; i++ {
			if err := driveRunHTTP(ctx, b, fmt.Sprintf("b-r%d", i), "b", 5); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	answers, err := run.Answers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != len(out.Assignments) {
		t.Errorf("%d answers for %d assignments", len(answers), len(out.Assignments))
	}
	for _, as := range out.Assignments {
		if err := run.SubmitScore(ctx, as.WorkerID, as.TaskID, 8); err != nil {
			t.Fatal(err)
		}
	}
	if err := run.FinishRun(ctx); err != nil {
		t.Fatal(err)
	}
	if got, err := rawBody(ts, http.MethodPost, path+"/close"); err != nil || !bytes.Equal(got, want) {
		t.Errorf("close after finish = %s, %v; want %s", got, err, want)
	}
}
