package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans wrap only
// calls made from this directory — spans inside the program are a later
// issue — so a layer's self time is what its calls took minus what the
// calls it caused (recorded as children) cover.
type span struct {
	TraceID  int              `json:"trace_id"` // one per op; 0 for probes
	SpanID   int              `json:"span_id"`
	ParentID int              `json:"parent_id"` // 0 = root
	Layer    string           `json:"layer"`
	Name     string           `json:"name"`
	StartNs  int64            `json:"start_ns"`
	EndNs    int64            `json:"end_ns"`
	Counts   map[string]int64 `json:"counts,omitempty"`
}

// tracer appends spans to memory and writes them when the run ends. A nil
// tracer records nothing, which is how the measured (untraced) run and the
// traced run share one op implementation.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(trace, parent int, layer, name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		TraceID: trace, SpanID: len(t.spans) + 1, ParentID: parent,
		Layer: layer, Name: name, StartNs: t.now(),
	})
	return len(t.spans)
}

// end closes a span, attaching the counts measured at that boundary.
func (t *tracer) end(id int, counts map[string]int64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNs = t.now()
	s.Counts = counts
}

// busy records a span for work accumulated over many small calls (a mapper
// invoked once per record, possibly from several tasks at once): it starts
// when the parent started and lasts the accumulated busy time divided over
// the goroutines that shared it, clamped into the parent so child ⊆ parent
// holds. The exact accumulated time is kept in counts.busy_ns.
func (t *tracer) busy(trace, parent int, layer, name string, busy time.Duration, parallel int, counts map[string]int64) {
	if t == nil || parent == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	end := p.StartNs + int64(busy)/int64(max(parallel, 1))
	if p.EndNs != 0 && end > p.EndNs {
		end = p.EndNs
	}
	if counts == nil {
		counts = map[string]int64{}
	}
	counts["busy_ns"] = int64(busy)
	t.spans = append(t.spans, span{
		TraceID: trace, SpanID: len(t.spans) + 1, ParentID: parent,
		Layer: layer, Name: name, StartNs: p.StartNs, EndNs: end, Counts: counts,
	})
}

// selfTimes returns each layer's self time over the spans keep selects: a
// span's duration minus the part of it its children cover. Children that
// overlap each other (parallel tasks) are unioned before subtracting.
func (t *tracer) selfTimes(keep func(span) bool) (byLayer map[string]time.Duration, total time.Duration) {
	byLayer = map[string]time.Duration{}
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.ParentID != 0 {
			kids[s.ParentID] = append(kids[s.ParentID], s)
		}
	}
	for _, s := range t.spans {
		if !keep(s) {
			continue
		}
		self := s.EndNs - s.StartNs - covered(kids[s.SpanID])
		byLayer[s.Layer] += time.Duration(self)
		if s.ParentID == 0 {
			total += time.Duration(s.EndNs - s.StartNs)
		}
	}
	return byLayer, total
}

// covered is the length of the union of the spans' intervals.
func covered(ss []span) int64 {
	sort.Slice(ss, func(i, j int) bool { return ss[i].StartNs < ss[j].StartNs })
	var sum, hi int64
	for i, s := range ss {
		if i == 0 || s.StartNs > hi {
			sum += s.EndNs - s.StartNs
			hi = s.EndNs
		} else if s.EndNs > hi {
			sum += s.EndNs - hi
			hi = s.EndNs
		}
	}
	return sum
}

// summary prints per-layer self time as a share of the selected ops' time.
func (t *tracer) summary(w io.Writer, title string, keep func(span) bool) {
	byLayer, total := t.selfTimes(keep)
	if total == 0 {
		return
	}
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return byLayer[layers[i]] > byLayer[layers[j]] })
	fmt.Fprintf(w, "self time by layer, %s (share of %.1f ms):\n", title, float64(total)/1e6)
	for _, l := range layers {
		fmt.Fprintf(w, "  %-8s %9.2f ms  %5.1f%%\n", l, float64(byLayer[l])/1e6, 100*float64(byLayer[l])/float64(total))
	}
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
