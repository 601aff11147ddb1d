package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDecl declares one metric: BENCHMARK.json repeats these tables and
// the selftest holds the two equal in both directions.
type metricDecl struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: relative worsening of the median that counts as a regression
}

// endToEnd are the metrics a user of the system sees; every workload
// reports every one, from the untraced measured window. failed_share — ops
// that errored or answered differently from the oracle, over ops attempted —
// is the twelfth: it is always 0 on a correct build, which a relative bound
// cannot express, so it travels as the result's failed/attempted counts and
// its correct flag instead of in this table.
//
// The timing bounds are the widest the contract allows, 0.25, not the 0.10
// ISSUE 11 hoped for: on the development box two sets of runs of one binary
// differ by up to 20 % after scaling by the machine-speed reference, and by
// 35 % before (README.md, "Noise"; REPEATABILITY.txt). The count metrics
// repeat to three digits and carry the tight bounds.
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"rows_per_s", "rows/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p90_ms", "ms", "lower", 0.25},
	{"cpu_us_per_row", "us/row", "lower", 0.25},
	{"allocs_per_row", "allocs/row", "lower", 0.02},
	{"alloc_bytes_per_row", "B/row", "lower", 0.02},
	{"heap_live_mb", "MB", "lower", 0.05},
	{"read_bytes_per_row", "B/row", "lower", 0.02},
	{"stored_bytes_per_user_byte", "ratio", "lower", 0.02},
	{"written_bytes_per_user_byte", "ratio", "lower", 0.01},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricSet collects a run's metrics against a declaration table.
type metricSet struct {
	decls  []metricDecl
	values map[string]metricValue
}

func newMetricSet(decls []metricDecl) *metricSet {
	return &metricSet{decls: decls, values: map[string]metricValue{}}
}

func (m *metricSet) set(name string, v float64) {
	for _, d := range m.decls {
		if d.name == name {
			m.values[name] = metricValue{v, d.unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared") // a bug in this directory, never input
}

// missing lists declared metrics that were not set or are not numbers.
func (m *metricSet) missing() []string {
	var out []string
	for _, d := range m.decls {
		v, ok := m.values[d.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			out = append(out, d.name)
		}
	}
	sort.Strings(out)
	return out
}

// print writes the metrics by name with their units, in declaration order.
func (m *metricSet) print(title string) {
	fmt.Println(title)
	for _, d := range m.decls {
		if v, ok := m.values[d.name]; ok {
			fmt.Printf("  %-40s %16.6g %s\n", d.name, v.Value, v.Unit)
		}
	}
}
