package platform

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"melody"
)

// testTrackerConfig is the reference quality-tracker configuration shared
// by the HTTP tests and the serial-equivalence comparisons.
var testTrackerConfig = melody.QualityTrackerConfig{
	InitialMean: 5.5, InitialVar: 2.25,
	Params:   melody.QualityParams{A: 1, Gamma: 0.3, Eta: 9},
	EMPeriod: 10, EMWindow: 50,
}

// newTestBackend builds the reference scheduler: every tenant's
// estimator uses testTrackerConfig, and there is no ledger.
func newTestBackend(t testing.TB) *melody.RunScheduler {
	t.Helper()
	s, err := melody.NewRunScheduler(melody.SchedulerConfig{
		Auction: melody.AuctionConfig{QualityMin: 1, QualityMax: 10, CostMin: 1, CostMax: 2},
		NewEstimator: func(string) (melody.Estimator, error) {
			return melody.NewQualityTracker(testTrackerConfig)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newTestServer(t *testing.T) (*httptest.Server, *Client) {
	t.Helper()
	srv, err := NewMultiServer(newTestBackend(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	return ts, client
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewMultiServer(nil, nil); err == nil {
		t.Error("nil platform accepted")
	}
}

func TestNewClientValidation(t *testing.T) {
	if _, err := NewClient("", nil); err == nil {
		t.Error("empty URL accepted")
	}
	if _, err := NewClient("http://x", nil); err != nil {
		t.Errorf("valid URL rejected: %v", err)
	}
}

func TestStatusIdle(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()
	st, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Phase != PhaseIdle || st.Run != 0 || st.Workers != 0 {
		t.Errorf("status = %+v", st)
	}
}

func TestFullRunOverHTTP(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()

	for _, id := range []string{"w1", "w2", "w3"} {
		if err := c.RegisterWorker(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	workers, err := c.Workers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(workers) != 3 {
		t.Fatalf("workers = %v", workers)
	}

	tasks := []TaskSpec{{ID: "t1", Threshold: 9}, {ID: "t2", Threshold: 9}}
	run, err := c.OpenRunID(ctx, "", "", tasks, 100)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Phase != PhaseBidding || st.Run != 1 || st.RunID != "r1" || run.ID() != "r1" {
		t.Errorf("status after open = %+v, run %q", st, run.ID())
	}

	for _, id := range []string{"w1", "w2", "w3"} {
		if err := run.SubmitBid(ctx, id, 1.2, 2); err != nil {
			t.Fatal(err)
		}
	}
	out, err := run.CloseAuction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.SelectedTasks) == 0 {
		t.Fatal("no tasks selected")
	}
	got, err := run.Outcome(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Assignments) != len(out.Assignments) {
		t.Errorf("Outcome mismatch: %d vs %d", len(got.Assignments), len(out.Assignments))
	}

	for _, a := range out.Assignments {
		if err := run.SubmitAnswer(ctx, a.WorkerID, a.TaskID, AnswerPayload(7.0)); err != nil {
			t.Fatal(err)
		}
	}
	answers, err := run.Answers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != len(out.Assignments) {
		t.Fatalf("answers = %d, want %d", len(answers), len(out.Assignments))
	}
	for _, ans := range answers {
		sample, err := ParseAnswerPayload(ans.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := run.SubmitScore(ctx, ans.WorkerID, ans.TaskID, sample); err != nil {
			t.Fatal(err)
		}
	}
	if err := run.FinishRun(ctx); err != nil {
		t.Fatal(err)
	}

	st, err = c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Phase != PhaseIdle || st.Run != 1 {
		t.Errorf("status after finish = %+v", st)
	}
	q, err := c.Quality(ctx, out.Assignments[0].WorkerID)
	if err != nil {
		t.Fatal(err)
	}
	if q <= 5.5 {
		t.Errorf("scored worker quality %v did not rise", q)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	ts, c := newTestServer(t)
	ctx := context.Background()

	// Conflict: a different open while a run is in flight.
	if _, err := c.OpenRunID(ctx, "", "", []TaskSpec{{ID: "t1", Threshold: 9}}, 10); err != nil {
		t.Fatal(err)
	}
	_, err := c.OpenRunID(ctx, "", "", []TaskSpec{{ID: "t2", Threshold: 9}}, 10)
	var apiErr *APIError
	if !asAPIError(err, &apiErr) || apiErr.Status != http.StatusConflict {
		t.Errorf("second open while a run is in flight = %v", err)
	}
	// Not found: quality of unknown worker.
	_, err = c.Quality(ctx, "ghost")
	if !asAPIError(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Errorf("unknown quality = %v", err)
	}
	// Bad request: malformed JSON body.
	resp, err := ts.Client().Post(ts.URL+"/v1/workers", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status = %d", resp.StatusCode)
	}
	// Unknown field rejected.
	resp, err = ts.Client().Post(ts.URL+"/v1/workers", "application/json",
		strings.NewReader(`{"workerId":"w","extra":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field status = %d", resp.StatusCode)
	}
}

func asAPIError(err error, target **APIError) bool {
	if err == nil {
		return false
	}
	e, ok := err.(*APIError)
	if ok {
		*target = e
	}
	return ok
}

func TestAnswerValidation(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()
	if err := c.RegisterWorker(ctx, "w1"); err != nil {
		t.Fatal(err)
	}
	run, err := c.OpenRunID(ctx, "", "", []TaskSpec{{ID: "t", Threshold: 3}}, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Answers before close are rejected.
	if err := run.SubmitAnswer(ctx, "w1", "t", AnswerPayload(5)); err == nil {
		t.Error("answer before close accepted")
	}
	if err := run.SubmitBid(ctx, "w1", 1.5, 1); err != nil {
		t.Fatal(err)
	}
	// One worker cannot satisfy threshold 3 alone unless quality suffices;
	// initial estimate 5.5 >= 3 so the task can be covered, but there is no
	// pivot worker -> no allocation. Answer for unassigned pair must 404.
	if _, err := run.CloseAuction(ctx); err != nil {
		t.Fatal(err)
	}
	err = run.SubmitAnswer(ctx, "w1", "t", AnswerPayload(5))
	var apiErr *APIError
	if !asAPIError(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Errorf("unassigned answer = %v", err)
	}
}

func TestParseAnswerPayload(t *testing.T) {
	p := AnswerPayload(7.25)
	v, err := ParseAnswerPayload(p)
	if err != nil || v != 7.25 {
		t.Errorf("round trip = %v, %v", v, err)
	}
	if _, err := ParseAnswerPayload("garbage"); err == nil {
		t.Error("garbage payload accepted")
	}
	if _, err := ParseAnswerPayload("q=notanumber"); err == nil {
		t.Error("non-numeric payload accepted")
	}
}
