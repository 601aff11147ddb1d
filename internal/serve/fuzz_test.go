package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"colmr/internal/serve"
)

// FuzzQueryBody feeds arbitrary bytes to POST /query. Whatever the body, the
// handler must not panic, must answer JSON with 200, 400, 404 or 413, and
// the server must drain afterwards leaving no goroutine behind. Seeds are the
// bodies the HTTP tests send.
func FuzzQueryBody(f *testing.F) {
	for _, req := range []serve.QueryRequest{
		{Tenant: "web", Where: `t <= 50`, Columns: []string{"s"}, Limit: 5},
		{Where: `t <= 50`, Limit: 1000},
		{Tenant: "web", Where: `t <= 50`, Agg: "count,min(t),max(s)"},
		{Agg: "count", Limit: 3},
		{Agg: "count", Columns: []string{"s"}},
		{Agg: "median(t)"},
		{Where: `t <=`},
		{Dataset: "nope"},
		{Where: `t <= 30`},
		{Tenant: "web", Where: `t <= 50`, Columns: []string{"s"}, Explain: true},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	// Malformed and empty bodies, and queries that parse but do not fit the
	// data (an unknown column, a string compared with a number or summed).
	for _, body := range []string{``, `{`, `null`, `[]`, `{"limit":-1}`, `{"where":"x == 1"}`,
		`{"where":"s == 5"}`, `{"agg":"sum(s)"}`, `{"columns":["zz"]}`, `{"agg":"count group by zz"}`} {
		f.Add([]byte(body))
	}

	fs := svFixture(f, 9)
	f.Fuzz(func(t *testing.T, body []byte) {
		base := runtime.NumGoroutine()
		srv := serve.New(fs, serve.Options{Window: 0})
		h := serve.NewHandler(srv, serve.HandlerOptions{
			Datasets: map[string]string{"events": "/d"},
			Default:  "events",
			MaxLimit: 10,
		})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		srv.Drain()

		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
		default:
			t.Errorf("status %d for body %q: %s", rec.Code, body, rec.Body.Bytes())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" || !json.Valid(rec.Body.Bytes()) {
			t.Errorf("body %q answered %q, not JSON: %s", body, ct, rec.Body.Bytes())
		}
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after Drain, %d before the server started", runtime.NumGoroutine(), base)
			}
		}
	})
}
