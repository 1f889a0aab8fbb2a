package platform

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"melody"
)

func TestForecastEndpoint(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()
	if err := c.RegisterWorker(ctx, "w1"); err != nil {
		t.Fatal(err)
	}
	f, err := c.Forecast(ctx, "w1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if f.WorkerID != "w1" || f.Steps != 1 {
		t.Errorf("forecast = %+v", f)
	}
	// A fresh worker forecasts around the prior mean 5.5.
	if f.Mean < 5 || f.Mean > 6 {
		t.Errorf("forecast mean %v far from prior 5.5", f.Mean)
	}
	if f.Lo95 >= f.Mean || f.Hi95 <= f.Mean {
		t.Errorf("credible interval [%v, %v] does not bracket mean %v", f.Lo95, f.Hi95, f.Mean)
	}
	// Longer horizons widen the interval.
	f5, err := c.Forecast(ctx, "w1", 5)
	if err != nil {
		t.Fatal(err)
	}
	if f5.Variance <= f.Variance {
		t.Errorf("5-step variance %v not above 1-step %v", f5.Variance, f.Variance)
	}
}

func TestForecastEndpointErrors(t *testing.T) {
	ts, c := newTestServer(t)
	ctx := context.Background()

	var apiErr *APIError
	_, err := c.Forecast(ctx, "ghost", 1)
	if !asAPIError(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Errorf("unknown worker forecast = %v", err)
	}
	if err := c.RegisterWorker(ctx, "w1"); err != nil {
		t.Fatal(err)
	}
	_, err = c.Forecast(ctx, "w1", 0)
	if !asAPIError(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Errorf("zero steps forecast = %v", err)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/workers/w1/forecast?steps=abc")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-numeric steps status = %d", resp.StatusCode)
	}
}

func TestForecastNotImplementedForBaselines(t *testing.T) {
	// A scheduler with a baseline estimator cannot forecast; the API maps
	// this to 501.
	sched, err := melody.NewRunScheduler(melody.SchedulerConfig{
		Auction: melody.AuctionConfig{QualityMin: 1, QualityMax: 10, CostMin: 1, CostMax: 2},
		NewEstimator: func(string) (melody.Estimator, error) {
			return melody.NewMLAllRunsEstimator(melody.EstimatorConfig{Initial: 5.5}), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewMultiServer(sched, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := c.RegisterWorker(ctx, "w1"); err != nil {
		t.Fatal(err)
	}
	var apiErr *APIError
	_, err = c.Forecast(ctx, "w1", 1)
	if !asAPIError(err, &apiErr) || apiErr.Status != http.StatusNotImplemented {
		t.Errorf("baseline forecast = %v, want 501", err)
	}
}
