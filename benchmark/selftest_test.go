package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declJSON `json:"end_to_end"`
	PerLayer []declJSON `json:"per_layer"`
}

type declJSON struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeclaration holds BENCHMARK.json to the contract's limits and to the
// tables in this directory, in both directions.
func TestDeclaration(t *testing.T) {
	b := readBenchmarkJSON(t)
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", b.RunSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", b.Paths)
	}

	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	defs := workloads()
	if len(b.Workloads) != len(defs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(b.Workloads), len(defs))
	}
	for i, w := range b.Workloads {
		unique(w.Name)
		if w.Name != defs[i].name || w.Why != defs[i].why {
			t.Errorf("workload %d is %q (%q), the benchmark has %q (%q)", i, w.Name, w.Why, defs[i].name, defs[i].why)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got []declJSON, want []metricDecl, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			unique(g.Name)
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, g, w)
			}
			if !unitRE.MatchString(g.Unit) {
				t.Errorf("%s: unit %q does not match %s", g.Name, g.Unit, unitRE)
			}
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s: better is %q", g.Name, g.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.bound || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s: bound %v, the benchmark has %v (want 0 < bound <= 0.25)", g.Name, g.Bound, w.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", g.Name)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd, true)
	same("per_layer", b.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

// TestTinyRuns runs every workload untraced and traced at tiny scale:
// every op must match its oracle, every declared metric must be emitted and
// none that is not declared, and the spans must be well formed.
func TestTinyRuns(t *testing.T) {
	cfg := config{seed: 7, scale: "tiny", seconds: 0.05}
	quick()
	for _, def := range workloads() {
		def := def
		t.Run(def.name, func(t *testing.T) {
			t.Parallel() // timings are not judged here, only answers and shapes
			m, info, err := measure(def, cfg)
			if err != nil {
				t.Fatal(err)
			}
			check(t, "untraced", m, info, endToEnd)

			spanFile := filepath.Join(t.TempDir(), "spans.json")
			m, info, err = traced(def, cfg, spanFile)
			if err != nil {
				t.Fatalf("traced: %v", err)
			}
			check(t, "traced", m, info, perLayer)
			checkSpans(t, def.name, spanFile)
		})
	}
}

func check(t *testing.T, what string, m *metricSet, info *runInfo, decls []metricDecl) {
	t.Helper()
	if info.Failed != 0 || info.FailedShare != 0 {
		t.Errorf("%s: %d of %d ops failed: %s", what, info.Failed, info.Attempted, info.FirstError)
	}
	if info.Ops < 3 {
		t.Errorf("%s: %d ops, want at least 3", what, info.Ops)
	}
	if miss := m.missing(); len(miss) > 0 {
		t.Errorf("%s: declared metrics not emitted: %v", what, miss)
	}
	declared := map[string]string{}
	for _, d := range decls {
		declared[d.name] = d.unit
	}
	for name, v := range m.values {
		if unit, ok := declared[name]; !ok || unit != v.Unit {
			t.Errorf("%s: emitted %s in %q, declared %q (declared: %v)", what, name, v.Unit, unit, ok)
		}
	}
}

func checkSpans(t *testing.T, what, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) == 0 {
		t.Fatalf("%s: no spans", what)
	}
	byID := map[int]span{}
	for _, s := range doc.Spans {
		byID[s.SpanID] = s
	}
	for _, s := range doc.Spans {
		if s.EndNs < s.StartNs || s.Layer == "" || s.Name == "" {
			t.Errorf("%s: malformed span %+v", what, s)
		}
		if s.ParentID == 0 {
			continue
		}
		p, ok := byID[s.ParentID]
		if !ok {
			t.Errorf("%s: span %d has unknown parent %d", what, s.SpanID, s.ParentID)
			continue
		}
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			t.Errorf("%s: span %d %s/%s [%d,%d] lies outside its parent %s/%s [%d,%d]",
				what, s.SpanID, s.Layer, s.Name, s.StartNs, s.EndNs, p.Layer, p.Name, p.StartNs, p.EndNs)
		}
		if s.TraceID != p.TraceID {
			t.Errorf("%s: span %d is in trace %d, its parent in %d", what, s.SpanID, s.TraceID, p.TraceID)
		}
	}
}
