package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"

	"colmr/internal/core"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/serde"
)

// The HTTP face of the server: a thin API controller feeding the admission
// queue, the worker-pool-over-channels idiom of crawler frontends. Handlers
// never run scans themselves — they build a typed job, Enqueue it, and wait
// on the ticket, so HTTP queries batch with in-process ones.

// maxQueryBody bounds a POST /query body. A query is a dataset name, a few
// column names and two expressions; a megabyte is far past any real one, and
// a body past it is refused (413) before it is decoded.
const maxQueryBody = 1 << 20

// HandlerOptions configures the HTTP handler.
type HandlerOptions struct {
	// Datasets maps query-able dataset names to CIF dataset directories.
	// Requests name datasets by key; paths never cross the API.
	Datasets map[string]string
	// Default is the dataset name used when a request omits one.
	Default string
	// MaxLimit caps the rows a single query may return (default 100).
	MaxLimit int
	// AlwaysExplain attaches the EXPLAIN report to every query response,
	// as if each request had set Explain (the colserve -explain flag).
	AlwaysExplain bool
}

// QueryRequest is the POST /query body. Where uses the scan expression
// language — the same serialization `colscan -where` speaks — e.g.
// `int0 <= 100 && prefix(str0, "ab")`.
type QueryRequest struct {
	Tenant  string   `json:"tenant,omitempty"`
	Dataset string   `json:"dataset,omitempty"`
	Columns []string `json:"columns,omitempty"`
	Where   string   `json:"where,omitempty"`
	Lazy    bool     `json:"lazy,omitempty"`
	// Agg pushes an aggregation into the scan — the `colscan -agg` form,
	// e.g. "count,min(int0) group by str0". The response carries the
	// aggregate rows instead of records; Limit and Columns do not apply.
	Agg string `json:"agg,omitempty"`
	// Limit asks for up to this many matching rows in the response;
	// 0 returns counts and statistics only.
	Limit int `json:"limit,omitempty"`
	// Explain attaches the cost-based plan — and, after the run, the
	// estimated-vs-actual pruning per tier — to the response. The plan's
	// choices (materialization mode, task sizing) are also applied to the
	// job where the request left them unpinned.
	Explain bool `json:"explain,omitempty"`
}

// QueryStats carries the query's solo-exact logical pruning counters, plus
// the aggregation-path counters for agg queries.
type QueryStats struct {
	SplitsPruned    int64 `json:"splitsPruned"`
	GroupsPruned    int64 `json:"groupsPruned"`
	BloomPruned     int64 `json:"bloomPruned"`
	RecordsPruned   int64 `json:"recordsPruned"`
	RecordsFiltered int64 `json:"recordsFiltered"`
	// Aggregation-path counters (zero for record queries): rows folded into
	// the aggregate, record groups answered from zone statistics alone, and
	// string comparisons replaced by dictionary-id comparisons.
	RowsAggregated    int64 `json:"rowsAggregated,omitempty"`
	AggGroupsShortcut int64 `json:"aggGroupsShortcut,omitempty"`
	DictIdCompares    int64 `json:"dictIdCompares,omitempty"`
}

// AggregateRow renders one aggregate output row: the group value ("" for
// the global group) and one rendered value per requested function.
type AggregateRow struct {
	Group  string   `json:"group,omitempty"`
	Values []string `json:"values"`
}

// QueryResponse is the POST /query reply.
type QueryResponse struct {
	Tenant  string `json:"tenant"`
	Dataset string `json:"dataset"`
	Where   string `json:"where,omitempty"`
	Matched int64  `json:"matched"`
	// Rows holds up to Limit matching rows, rendered column->value. Which
	// rows is unspecified (map tasks race to fill the budget); the slice
	// is sorted for stable presentation.
	Rows []map[string]string `json:"rows,omitempty"`
	// Agg holds the aggregate rows for agg queries, with Funcs labeling
	// each value column (the parsed function list, in order).
	Agg   []AggregateRow `json:"agg,omitempty"`
	Funcs []string       `json:"funcs,omitempty"`
	Stats QueryStats     `json:"stats"`
	// Serve is the serving-side account: batch membership, window wait,
	// modeled run time, attributed charged bytes and sharing savings.
	Serve Report `json:"serve"`
	// Explain is present when the request asked for it (or the handler
	// runs with AlwaysExplain): the cost-based plan and its
	// estimated-vs-actual accounting.
	Explain *ExplainReport `json:"explain,omitempty"`
}

// ExplainReport is the JSON rendering of a query's cost-based plan next to
// what actually happened — the serving-side face of `colscan -explain`.
type ExplainReport struct {
	// Plan is the one-line plan summary; Reasons records why each choice
	// fell the way it did.
	Plan    string   `json:"plan"`
	Reasons []string `json:"reasons,omitempty"`
	// Scheduler tier: split-directories listed, estimated to survive
	// footer pruning, and actually scanned.
	SplitsTotal     int `json:"splitsTotal"`
	SplitsEstimated int `json:"splitsEstimated"`
	SplitsScanned   int `json:"splitsScanned"`
	// Record tier: estimated qualifying rows next to the matched count.
	RowsEstimated float64 `json:"rowsEstimated"`
	RowsMatched   int64   `json:"rowsMatched"`
	// Modeled seconds for the plan next to the run's modeled actual.
	EstimatedSeconds float64 `json:"estimatedSeconds"`
	ActualSeconds    float64 `json:"actualSeconds"`
	// SharedDeclined counts co-scan admissions the cost model declined for
	// this query (shared-batch path only).
	SharedDeclined int `json:"sharedDeclined,omitempty"`
}

type httpHandler struct {
	srv  *Server
	opts HandlerOptions
}

// NewHandler returns the HTTP/JSON face of a server:
//
//	POST /query   run a scan (QueryRequest -> QueryResponse)
//	GET  /stats   live Stats snapshot
//	GET  /healthz liveness + draining state
func NewHandler(s *Server, opts HandlerOptions) http.Handler {
	if opts.MaxLimit <= 0 {
		opts.MaxLimit = 100
	}
	h := &httpHandler{srv: s, opts: opts}
	mux := http.NewServeMux()
	mux.HandleFunc("/query", h.query)
	mux.HandleFunc("/stats", h.stats)
	mux.HandleFunc("/healthz", h.healthz)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// rowCollector gathers up to limit rendered rows across the query's
// (concurrent) map tasks.
type rowCollector struct {
	mu    sync.Mutex
	limit int
	rows  []map[string]string
}

func (c *rowCollector) add(rec serde.Record, cols []string) error {
	if c.limit <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.rows) >= c.limit {
		return nil
	}
	if len(cols) == 0 {
		cols = rec.Schema().FieldNames()
	}
	row := make(map[string]string, len(cols))
	for _, col := range cols {
		v, err := rec.Get(col)
		if err != nil {
			return err
		}
		row[col] = fmt.Sprintf("%v", v)
	}
	c.rows = append(c.rows, row)
	return nil
}

// sorted returns the rows in a stable order (by their rendered form).
func (c *rowCollector) sorted() []map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, len(c.rows))
	idx := make([]int, len(c.rows))
	for i, row := range c.rows {
		cols := make([]string, 0, len(row))
		for col := range row {
			cols = append(cols, col)
		}
		sort.Strings(cols)
		var sb strings.Builder
		for _, col := range cols {
			sb.WriteString(col)
			sb.WriteByte('=')
			sb.WriteString(row[col])
			sb.WriteByte(';')
		}
		keys[i] = sb.String()
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	out := make([]map[string]string, len(idx))
	for i, j := range idx {
		out[i] = c.rows[j]
	}
	return out
}

func (h *httpHandler) query(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBody)).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	name := req.Dataset
	if name == "" {
		name = h.opts.Default
	}
	path, ok := h.opts.Datasets[name]
	if !ok {
		writeError(w, http.StatusNotFound, "unknown dataset %q", name)
		return
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = "anonymous"
	}
	limit := req.Limit
	if limit > h.opts.MaxLimit {
		limit = h.opts.MaxLimit
	}

	b := core.ScanDataset(path).Columns(req.Columns...).Lazy(req.Lazy)
	if req.Where != "" {
		pred, err := scan.Parse(req.Where)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad where clause: %v", err)
			return
		}
		b = b.Where(pred)
	}
	var job *mapred.Job
	var agg *scan.Aggregate
	var collector *rowCollector
	if req.Agg != "" {
		var err error
		if agg, err = scan.ParseAggregate(req.Agg); err != nil {
			writeError(w, http.StatusBadRequest, "bad agg: %v", err)
			return
		}
		if req.Limit > 0 || len(req.Columns) > 0 {
			writeError(w, http.StatusBadRequest, "agg queries return aggregate rows; columns and limit do not apply")
			return
		}
		job = b.Aggregate(agg).AggJob()
	} else {
		collector = &rowCollector{limit: limit}
		job = b.Job(mapred.MapperFunc(func(_, v any, _ mapred.Emit) error {
			rec, ok := v.(serde.Record)
			if !ok {
				return fmt.Errorf("serve: map input is %T, not a record", v)
			}
			return collector.add(rec, req.Columns)
		}))
	}

	var plan *core.QueryPlan
	if req.Explain || h.opts.AlwaysExplain {
		if cif, ok := job.Input.(*core.InputFormat); ok {
			// Plan through the session's catalog: EXPLAIN reads the footers
			// the batch planner is about to, or already has.
			job.Conf.Catalog = h.srv.Session().Catalog()
			var err error
			if plan, err = cif.Explain(h.srv.FS(), &job.Conf, h.srv.Model()); err != nil {
				writeError(w, http.StatusInternalServerError, "explain: %v", err)
				return
			}
			// The plan's choices become the job's where the request left
			// them unpinned, so the response explains the scan that ran.
			plan.Apply(&job.Conf)
		}
	}

	ticket, err := h.srv.Enqueue(tenant, job)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrDraining) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, "%v", err)
		return
	}
	res, err := ticket.Wait()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}

	resp := QueryResponse{
		Tenant:  tenant,
		Dataset: name,
		Where:   req.Where,
		Matched: res.Total.RecordsProcessed,
		Stats: QueryStats{
			SplitsPruned:      res.Total.SplitsPruned,
			GroupsPruned:      res.Total.GroupsPruned,
			BloomPruned:       res.Total.BloomPruned,
			RecordsPruned:     res.Total.RecordsPruned,
			RecordsFiltered:   res.Total.RecordsFiltered,
			RowsAggregated:    res.Total.RowsAggregated,
			AggGroupsShortcut: res.Total.AggGroupsShortcut,
			DictIdCompares:    res.Total.DictIdCompares,
		},
		Serve: ticket.Report(),
	}
	if agg != nil {
		resp.Matched = res.Total.RowsAggregated
		for _, f := range agg.Funcs {
			resp.Funcs = append(resp.Funcs, f.String())
		}
		for _, row := range res.Agg.Rows() {
			ar := AggregateRow{Values: make([]string, len(row.Values))}
			if row.Group != nil {
				ar.Group = fmt.Sprintf("%v", row.Group)
			}
			for i, v := range row.Values {
				ar.Values[i] = fmt.Sprintf("%v", v)
			}
			resp.Agg = append(resp.Agg, ar)
		}
	} else {
		resp.Rows = collector.sorted()
	}
	if plan != nil {
		resp.Explain = &ExplainReport{
			Plan:             plan.Summary(),
			Reasons:          plan.Reasons,
			SplitsTotal:      plan.SplitsTotal,
			SplitsEstimated:  plan.SplitsEst,
			SplitsScanned:    res.Plan.SplitsTotal - res.Plan.SplitsPruned,
			RowsEstimated:    plan.RowsEst,
			RowsMatched:      res.Total.RecordsProcessed,
			EstimatedSeconds: plan.EstSeconds,
			ActualSeconds:    h.srv.Model().ScanSeconds(res.Total),
			SharedDeclined:   res.Plan.SharedDeclined,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (h *httpHandler) stats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, h.srv.Stats())
}

func (h *httpHandler) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "draining": h.srv.Draining()})
}
