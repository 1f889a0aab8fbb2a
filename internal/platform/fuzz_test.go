package platform

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// fuzzEndpoints enumerates every route the server registers, so the fuzzer
// selects a real handler (never the mux's plain-text 404) and the JSON-error
// contract below applies to the whole surface. Run-scoped routes address
// r1, the run the advance step opens.
var fuzzEndpoints = []struct{ method, path string }{
	{http.MethodGet, "/v1/status"},
	{http.MethodPost, "/v1/workers"},
	{http.MethodGet, "/v1/workers"},
	{http.MethodGet, "/v1/workers/w1/quality"},
	{http.MethodGet, "/v1/workers/w1/forecast"},
	{http.MethodPost, "/v1/runs"},
	{http.MethodPost, "/v1/runs/r1/bids"},
	{http.MethodPost, "/v1/runs/r1/close"},
	{http.MethodGet, "/v1/runs/r1/outcome"},
	{http.MethodPost, "/v1/runs/r1/answers"},
	{http.MethodGet, "/v1/runs/r1/answers"},
	{http.MethodPost, "/v1/runs/r1/scores"},
	{http.MethodPost, "/v1/runs/r1/finish"},
}

// newFuzzHandler builds a fresh platform and server per execution so state
// from one fuzz input can never leak into the next.
func newFuzzHandler(t testing.TB) http.Handler {
	t.Helper()
	srv, err := NewMultiServer(newTestBackend(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	return srv.Handler()
}

// do issues one request against the in-process handler.
func do(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// FuzzWireDecode throws fuzzer-chosen bodies at every API endpoint and
// checks the wire contract: no handler panics, every status is a valid HTTP
// code, and every non-2xx body decodes as an ErrorResponse with a
// non-empty message — malformed JSON, wrong types, huge numbers and garbage
// bytes must all surface as clean errors, never as a hung run or a 200.
// The advance flag first walks the platform into the bidding phase with
// valid requests, exposing the phase-dependent handlers (bids, close,
// answers, scores) to the same garbage.
//
// Explore with `go test ./internal/platform -run '^$' -fuzz FuzzWireDecode`.
func FuzzWireDecode(f *testing.F) {
	f.Add(uint8(0), false, []byte(`{}`))
	f.Add(uint8(1), false, []byte(`{"workerId":"w1"}`))
	f.Add(uint8(5), false, []byte(`{"tasks":[{"id":"t1","threshold":6}],"budget":50}`))
	f.Add(uint8(6), true, []byte(`{"workerId":"w1","cost":1.5,"frequency":2}`))
	f.Add(uint8(6), true, []byte(`{"workerId":"w1","cost":1e308,"frequency":-2}`))
	f.Add(uint8(11), true, []byte(`{"workerId":"w1","taskId":"t1","score":"not a number"}`))
	f.Add(uint8(255), false, []byte(`not json`))
	f.Add(uint8(7), true, []byte(nil))

	f.Fuzz(func(t *testing.T, endpoint uint8, advance bool, body []byte) {
		h := newFuzzHandler(t)
		if advance {
			do(h, http.MethodPost, "/v1/workers", []byte(`{"workerId":"w1"}`))
			do(h, http.MethodPost, "/v1/runs", []byte(`{"tasks":[{"id":"t1","threshold":6}],"budget":50}`))
		}
		ep := fuzzEndpoints[int(endpoint)%len(fuzzEndpoints)]
		rec := do(h, ep.method, ep.path, body)
		if rec.Code < 200 || rec.Code > 599 {
			t.Fatalf("%s %s returned impossible status %d", ep.method, ep.path, rec.Code)
		}
		if rec.Code >= 400 {
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
				t.Fatalf("%s %s: %d body is not a JSON error: %q", ep.method, ep.path, rec.Code, rec.Body.Bytes())
			}
			if er.Error == "" {
				t.Fatalf("%s %s: %d error response has empty message", ep.method, ep.path, rec.Code)
			}
		}
		// Whatever the fuzzed request did, the platform must still answer
		// a well-formed status request: no input may wedge the server.
		st := do(h, http.MethodGet, "/v1/status", nil)
		if st.Code != http.StatusOK {
			t.Fatalf("status endpoint broken after fuzzed request: %d %q", st.Code, st.Body.Bytes())
		}
		var status StatusResponse
		if err := json.Unmarshal(st.Body.Bytes(), &status); err != nil {
			t.Fatalf("status body corrupt after fuzzed request: %v", err)
		}
	})
}
