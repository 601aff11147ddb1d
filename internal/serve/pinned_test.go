package serve_test

// The wire format pinned: the exact bytes of a record query's and an agg
// query's POST /query responses and of the /stats snapshot after them, for
// two tenants served by one shared batch under a ManualClock. Attribution
// (each member's own work plus an even share of the batch's shared work),
// the tenant rollups and the server totals all land in these bodies, so a
// refactor of how charges are computed or laid out must leave them
// byte-identical — field values and key order alike.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"colmr/internal/serve"
)

func TestServeJSONPinned(t *testing.T) {
	fs := svFixture(t, 9)
	clock := &serve.ManualClock{}
	srv := serve.New(fs, serve.Options{Window: 1, Clock: clock})
	defer srv.Close()
	ts := httptest.NewServer(serve.NewHandler(srv, serve.HandlerOptions{
		Datasets: map[string]string{"events": "/d"},
		Default:  "events",
		MaxLimit: 10,
	}))
	defer ts.Close()

	reqs := []serve.QueryRequest{
		{Tenant: "web", Where: `t >= 61 && t <= 70`, Columns: []string{"s"}, Limit: 10},
		{Tenant: "ops", Where: `t >= 40`, Agg: "count,min(t),max(s)"},
	}
	bodies := make([]string, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		// Admit the queries one at a time, so member order (and with it
		// who takes an even split's remainder) is fixed.
		clock.Set(0.25 * float64(i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, err := json.Marshal(req)
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			out, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
			}
			bodies[i] = string(out)
		}()
		for deadline := time.Now().Add(10 * time.Second); srv.Stats().Forming != i+1; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("query %d never joined the admission window", i)
			}
		}
	}
	srv.Flush()
	wg.Wait()

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	for i, want := range []string{pinnedRecordQuery, pinnedAggQuery} {
		if bodies[i] != want {
			t.Errorf("POST /query %d body:\n%s\nwant:\n%s", i, bodies[i], want)
		}
	}
	if string(stats) != pinnedStats {
		t.Errorf("GET /stats body:\n%s\nwant:\n%s", stats, pinnedStats)
	}
}

const pinnedRecordQuery = `{
  "tenant": "web",
  "dataset": "events",
  "where": "t \u003e= 61 \u0026\u0026 t \u003c= 70",
  "matched": 10,
  "rows": [
    {
      "s": "s061"
    },
    {
      "s": "s062"
    },
    {
      "s": "s063"
    },
    {
      "s": "s064"
    },
    {
      "s": "s065"
    },
    {
      "s": "s066"
    },
    {
      "s": "s067"
    },
    {
      "s": "s068"
    },
    {
      "s": "s069"
    },
    {
      "s": "s070"
    }
  ],
  "stats": {
    "splitsPruned": 3,
    "groupsPruned": 0,
    "bloomPruned": 0,
    "recordsPruned": 90,
    "recordsFiltered": 20
  },
  "serve": {
    "tenant": "web",
    "batchQueries": 2,
    "arriveAt": 0,
    "sealAt": 0.25,
    "runSeconds": 0.00003447023126220703,
    "matched": 10,
    "chargedBytes": 1109,
    "cacheHits": 0,
    "bytesFromCache": 0,
    "sharedReads": 1,
    "bytesSaved": 377
  }
}
`

const pinnedAggQuery = `{
  "tenant": "ops",
  "dataset": "events",
  "where": "t \u003e= 40",
  "matched": 80,
  "agg": [
    {
      "values": [
        "80",
        "40",
        "s119"
      ]
    }
  ],
  "funcs": [
    "count",
    "min(t)",
    "max(s)"
  ],
  "stats": {
    "splitsPruned": 1,
    "groupsPruned": 0,
    "bloomPruned": 0,
    "recordsPruned": 30,
    "recordsFiltered": 10,
    "rowsAggregated": 80
  },
  "serve": {
    "tenant": "ops",
    "batchQueries": 2,
    "arriveAt": 0.25,
    "sealAt": 0.25,
    "runSeconds": 0.00003447023126220703,
    "matched": 0,
    "chargedBytes": 1109,
    "cacheHits": 0,
    "bytesFromCache": 0,
    "sharedReads": 1,
    "bytesSaved": 377
  }
}
`

const pinnedStats = `{
  "queries": 2,
  "completed": 2,
  "failed": 0,
  "batches": 1,
  "sharedBatches": 1,
  "queued": 0,
  "forming": 0,
  "waitingBatches": 0,
  "runningBatches": 0,
  "draining": false,
  "chargedBytes": 2218,
  "bytesSaved": 754,
  "sharedReads": 2,
  "cacheHits": 0,
  "bytesFromCache": 0,
  "recordsMatched": 10,
  "wait": {
    "count": 2,
    "mean": 0.125,
    "p50": 0,
    "p95": 0.25,
    "p99": 0.25,
    "max": 0.25
  },
  "run": {
    "count": 2,
    "mean": 0.00003447023126220703,
    "p50": 0.00003447023126220703,
    "p95": 0.00003447023126220703,
    "p99": 0.00003447023126220703,
    "max": 0.00003447023126220703
  },
  "latency": {
    "count": 2,
    "mean": 0.12503447023126218,
    "p50": 0.000034470231262184736,
    "p95": 0.2500344702312622,
    "p99": 0.2500344702312622,
    "max": 0.2500344702312622
  },
  "tenants": {
    "ops": {
      "queries": 1,
      "failed": 0,
      "matched": 0,
      "chargedBytes": 1109,
      "cacheHits": 0,
      "bytesFromCache": 0,
      "sharedReads": 1,
      "bytesSaved": 377,
      "wait": {
        "count": 1,
        "mean": 0,
        "p50": 0,
        "p95": 0,
        "p99": 0,
        "max": 0
      },
      "latency": {
        "count": 1,
        "mean": 0.000034470231262184736,
        "p50": 0.000034470231262184736,
        "p95": 0.000034470231262184736,
        "p99": 0.000034470231262184736,
        "max": 0.000034470231262184736
      }
    },
    "web": {
      "queries": 1,
      "failed": 0,
      "matched": 10,
      "chargedBytes": 1109,
      "cacheHits": 0,
      "bytesFromCache": 0,
      "sharedReads": 1,
      "bytesSaved": 377,
      "wait": {
        "count": 1,
        "mean": 0.25,
        "p50": 0.25,
        "p95": 0.25,
        "p99": 0.25,
        "max": 0.25
      },
      "latency": {
        "count": 1,
        "mean": 0.2500344702312622,
        "p50": 0.2500344702312622,
        "p95": 0.2500344702312622,
        "p99": 0.2500344702312622,
        "max": 0.2500344702312622
      }
    }
  }
}
`
