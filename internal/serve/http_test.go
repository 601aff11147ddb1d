package serve_test

// The HTTP face: POST /query speaks the scan expression language and rides
// the same admission queue as in-process Enqueue; /stats and /healthz are
// plain JSON snapshots.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"colmr/internal/serve"
)

func svHTTP(t *testing.T) (*serve.Server, *httptest.Server) {
	t.Helper()
	fs := svFixture(t, 9)
	srv := serve.New(fs, serve.Options{Window: 0})
	handler := serve.NewHandler(srv, serve.HandlerOptions{
		Datasets: map[string]string{"events": "/d"},
		Default:  "events",
		MaxLimit: 10,
	})
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	return srv, ts
}

func svPost(t *testing.T, ts *httptest.Server, req serve.QueryRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestHTTPServeQuery(t *testing.T) {
	srv, ts := svHTTP(t)
	defer srv.Close()

	resp, body := svPost(t, ts, serve.QueryRequest{
		Tenant:  "web",
		Where:   `t <= 50`,
		Columns: []string{"s"},
		Limit:   5,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr serve.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("bad response %s: %v", body, err)
	}
	if qr.Tenant != "web" || qr.Dataset != "events" {
		t.Errorf("echoed tenant %q dataset %q", qr.Tenant, qr.Dataset)
	}
	if qr.Matched != 51 {
		t.Errorf("matched %d, want 51 (t in 0..50)", qr.Matched)
	}
	if len(qr.Rows) != 5 {
		t.Errorf("returned %d rows, want limit 5", len(qr.Rows))
	}
	for _, row := range qr.Rows {
		if _, ok := row["s"]; !ok || len(row) != 1 {
			t.Errorf("row %v, want the projected column only", row)
		}
	}
	if qr.Serve.BatchQueries != 1 || qr.Serve.Matched != 51 {
		t.Errorf("serve report %+v", qr.Serve)
	}
	if qr.Stats.RecordsFiltered+qr.Stats.RecordsPruned == 0 {
		t.Errorf("predicate pruned/filtered nothing: %+v", qr.Stats)
	}

	// Limit above MaxLimit is clamped, not an error.
	resp, body = svPost(t, ts, serve.QueryRequest{Where: `t <= 50`, Limit: 1000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Rows) != 10 {
		t.Errorf("returned %d rows, want MaxLimit 10", len(qr.Rows))
	}
	if qr.Tenant != "anonymous" {
		t.Errorf("defaulted tenant %q, want anonymous", qr.Tenant)
	}
}

func TestHTTPServeAggQuery(t *testing.T) {
	srv, ts := svHTTP(t)
	defer srv.Close()

	resp, body := svPost(t, ts, serve.QueryRequest{
		Tenant: "web",
		Where:  `t <= 50`,
		Agg:    "count,min(t),max(s)",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr serve.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("bad response %s: %v", body, err)
	}
	if qr.Matched != 51 {
		t.Errorf("matched %d, want 51 rows aggregated", qr.Matched)
	}
	if len(qr.Rows) != 0 {
		t.Errorf("agg query returned %d record rows, want none", len(qr.Rows))
	}
	wantFuncs := []string{"count", "min(t)", "max(s)"}
	if fmt.Sprintf("%v", qr.Funcs) != fmt.Sprintf("%v", wantFuncs) {
		t.Errorf("funcs %v, want %v", qr.Funcs, wantFuncs)
	}
	if len(qr.Agg) != 1 {
		t.Fatalf("agg rows %v, want a single global row", qr.Agg)
	}
	got := qr.Agg[0]
	if got.Group != "" {
		t.Errorf("global group rendered %q, want empty", got.Group)
	}
	want := []string{"51", "0", "s050"}
	if fmt.Sprintf("%v", got.Values) != fmt.Sprintf("%v", want) {
		t.Errorf("agg values %v, want %v", got.Values, want)
	}
	if qr.Stats.RowsAggregated != 51 {
		t.Errorf("stats rowsAggregated %d, want 51", qr.Stats.RowsAggregated)
	}

	// Agg with limit or columns is a client error, as is a malformed agg.
	resp, _ = svPost(t, ts, serve.QueryRequest{Agg: "count", Limit: 3})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("agg+limit: status %d, want 400", resp.StatusCode)
	}
	resp, _ = svPost(t, ts, serve.QueryRequest{Agg: "count", Columns: []string{"s"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("agg+columns: status %d, want 400", resp.StatusCode)
	}
	resp, _ = svPost(t, ts, serve.QueryRequest{Agg: "median(t)"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad agg: status %d, want 400", resp.StatusCode)
	}
}

func TestHTTPServeErrors(t *testing.T) {
	t.Parallel()
	srv, ts := svHTTP(t)

	resp, _ := svPost(t, ts, serve.QueryRequest{Where: `t <=`})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad where: status %d, want 400", resp.StatusCode)
	}
	resp, _ = svPost(t, ts, serve.QueryRequest{Dataset: "nope"})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown dataset: status %d, want 404", resp.StatusCode)
	}
	getResp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query: status %d, want 405", getResp.StatusCode)
	}
	// A body past the 1 MiB bound is refused before it is decoded, in the
	// JSON error shape of every other failure.
	resp, body := svPost(t, ts, serve.QueryRequest{Where: strings.Repeat(" ", 1<<20) + `t <= 50`})
	var refused map[string]string
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	} else if err := json.Unmarshal(body, &refused); err != nil || refused["error"] == "" {
		t.Errorf("oversized body: response %q is not a JSON error", body)
	}
	if resp, _ = svPost(t, ts, serve.QueryRequest{Where: strings.Repeat(" ", 1<<19) + `t <= 50`}); resp.StatusCode != http.StatusOK {
		t.Errorf("half-megabyte body: status %d, want 200", resp.StatusCode)
	}

	srv.Drain()
	resp, _ = svPost(t, ts, serve.QueryRequest{Where: `t <= 50`})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("query while draining: status %d, want 503", resp.StatusCode)
	}
}

func TestHTTPServeStatsAndHealth(t *testing.T) {
	srv, ts := svHTTP(t)
	defer srv.Close()

	for i := 0; i < 3; i++ {
		resp, body := svPost(t, ts, serve.QueryRequest{Where: fmt.Sprintf(`t <= %d`, 30+20*i)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", i, resp.StatusCode, body)
		}
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st serve.Stats
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries != 3 || st.Completed != 3 {
		t.Errorf("stats queries %d completed %d, want 3/3", st.Queries, st.Completed)
	}
	if ten, ok := st.Tenants["anonymous"]; !ok || ten.Queries != 3 {
		t.Errorf("tenant rollup %+v, want anonymous with 3 queries", st.Tenants)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz map[string]any
	err = json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if hz["ok"] != true || hz["draining"] != false {
		t.Errorf("healthz %v", hz)
	}
}

// TestHTTPServeExplain: opting in via the request's explain flag attaches a
// plan report whose estimated numbers sit alongside the actuals, and queries
// that don't ask get no report.
func TestHTTPServeExplain(t *testing.T) {
	srv, ts := svHTTP(t)
	defer srv.Close()

	resp, body := svPost(t, ts, serve.QueryRequest{
		Tenant:  "web",
		Where:   `t <= 50`,
		Columns: []string{"s"},
		Explain: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr serve.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("bad response %s: %v", body, err)
	}
	ex := qr.Explain
	if ex == nil {
		t.Fatalf("explain requested but absent: %s", body)
	}
	if ex.Plan == "" || len(ex.Reasons) == 0 {
		t.Errorf("empty plan rendering: %+v", ex)
	}
	if ex.SplitsTotal <= 0 || ex.SplitsScanned > ex.SplitsTotal {
		t.Errorf("split accounting %d scanned of %d total", ex.SplitsScanned, ex.SplitsTotal)
	}
	if ex.RowsMatched != 51 {
		t.Errorf("rowsMatched %d, want 51", ex.RowsMatched)
	}
	if ex.RowsEstimated <= 0 {
		t.Errorf("rowsEstimated %v, want > 0", ex.RowsEstimated)
	}
	if ex.EstimatedSeconds <= 0 || ex.ActualSeconds <= 0 {
		t.Errorf("modeled seconds est=%v actual=%v, want both > 0", ex.EstimatedSeconds, ex.ActualSeconds)
	}

	// Without the flag the field stays absent (and off the wire).
	resp, body = svPost(t, ts, serve.QueryRequest{Where: `t <= 50`})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if bytes.Contains(body, []byte(`"explain"`)) {
		t.Errorf("unrequested explain on the wire: %s", body)
	}
}
