package colfile

import (
	"fmt"
	"testing"

	"colmr/internal/serde"
)

// TestHistogramRoundTripAllLayouts: every layout's whole-file aggregate
// carries an equi-depth histogram (CFS4), and the decoded histogram's
// cumulative fractions track the written distribution within one bucket's
// width — the error bound equi-depth construction guarantees.
func TestHistogramRoundTripAllLayouts(t *testing.T) {
	schema := serde.Int()
	const n = 400
	for _, opts := range allLayouts() {
		if opts.Layout == DCSL {
			continue // map-only layout
		}
		opts.StatsEvery = 50
		name := opts.Layout.String() + "/" + opts.Codec
		f, _ := writeColumn(t, schema, opts, n, func(i int) any { return int32(i) })
		agg, err := FileStats(f.reader(), schema)
		if err != nil || agg == nil {
			t.Fatalf("%s: no file aggregate (%v)", name, err)
		}
		if agg.Hist == nil {
			t.Fatalf("%s: aggregate carries no histogram", name)
		}
		if agg.Hist.Total() <= 0 {
			t.Fatalf("%s: histogram holds no observations", name)
		}
		prev := 0.0
		slack := agg.Hist.MaxBucketFraction() + 0.05
		for _, probe := range []int32{0, 49, 99, 199, 399} {
			got, ok := agg.Hist.FractionBelow(probe, true)
			if !ok {
				t.Fatalf("%s: FractionBelow(%d) unanswerable", name, probe)
			}
			if got < prev {
				t.Fatalf("%s: FractionBelow not monotonic: %v after %v at %d", name, got, prev, probe)
			}
			want := float64(probe+1) / n
			if got < want-slack || got > want+slack {
				t.Errorf("%s: FractionBelow(%d) = %.3f, want %.3f ± %.3f", name, probe, got, want, slack)
			}
			prev = got
		}
	}
}

// TestHistogramAbsentInGroups: only the whole-file aggregate samples a
// histogram. Written group entries carry none, and an entry without one —
// or without a recorded bloom fill — round-trips as absent, which the
// estimator reads as "fall back to the uniform model".
func TestHistogramAbsentInGroups(t *testing.T) {
	schema := serde.Int()
	const n = 100
	f, _ := writeColumn(t, schema, Options{Layout: Plain, StatsEvery: 25}, n, func(i int) any { return int32(i) })
	r, err := NewReader(f.reader(), schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := statsSource(t, r, "plain")
	for rec := int64(0); rec < n; {
		st, end := src.GroupStats(rec)
		if st == nil {
			t.Fatalf("no stats at %d", rec)
		}
		if st.Hist != nil {
			t.Fatalf("group at %d carries a histogram", rec)
		}
		rec = end
	}
	if agg, err := FileStats(f.reader(), schema); err != nil || agg == nil || agg.Hist == nil {
		t.Fatalf("file aggregate %+v (%v) carries no histogram", agg, err)
	}

	zm := newStatsCollector(schema, 25, 0)
	for i := 0; i < n; i++ {
		zm.observe(int32(i))
	}
	zm.cut()
	blob, err := appendStatsSectionV4(nil, schema, &zm.entries[0].st, zm.entries)
	if err != nil {
		t.Fatal(err)
	}
	entries, agg, err := parseStatsSection(blob, schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(zm.entries) {
		t.Fatalf("decoded %d entries, want %d", len(entries), len(zm.entries))
	}
	for i := range entries {
		if entries[i].st.Hist != nil || entries[i].st.BloomFill != 0 {
			t.Fatalf("entry %d decoded features it was written without", i)
		}
	}
	if agg.Hist != nil || agg.BloomFill != 0 {
		t.Fatal("aggregate decoded features it was written without")
	}
}

// TestHistogramDegenerateRoundTrip: a constant column collapses to the
// smallest legal histogram — one bucket, exact equality answers — and the
// geometry (and the recorded bloom fill) survives the CFS4 round trip.
func TestHistogramDegenerateRoundTrip(t *testing.T) {
	schema := serde.String()
	full := newStatsCollector(schema, 0, 1<<10)
	full.histMax = 64
	for i := 0; i < 50; i++ {
		full.observe("constant")
	}
	full.cut()
	st := &full.entries[0].st
	if st.Hist == nil {
		t.Fatal("constant column built no histogram")
	}
	if st.Hist.Buckets() != 1 {
		t.Fatalf("constant column built %d buckets, want 1", st.Hist.Buckets())
	}
	if f, exact := st.Hist.EqFraction("constant"); !exact || f != 1 {
		t.Fatalf("EqFraction(constant) = %v exact=%v, want 1 exact", f, exact)
	}
	if st.Bloom != nil && st.BloomFill <= 0 {
		t.Fatal("bloom-bearing entry recorded no fill fraction")
	}

	blob, err := appendStatsSectionV4(nil, schema, st, full.entries)
	if err != nil {
		t.Fatal(err)
	}
	entries, agg, err := parseStatsSection(blob, schema)
	if err != nil {
		t.Fatal(err)
	}
	if agg == nil || agg.Hist == nil {
		t.Fatal("round trip lost the aggregate histogram")
	}
	if agg.Hist.Buckets() != st.Hist.Buckets() {
		t.Fatalf("round trip changed bucket count: %d -> %d", st.Hist.Buckets(), agg.Hist.Buckets())
	}
	if f, exact := agg.Hist.EqFraction("constant"); !exact || f != 1 {
		t.Fatalf("decoded EqFraction(constant) = %v exact=%v, want 1 exact", f, exact)
	}
	if st.Bloom != nil {
		// Fill is quantized to 1/10000ths on disk.
		if diff := agg.BloomFill - st.BloomFill; diff > 0.0002 || diff < -0.0002 {
			t.Fatalf("round trip changed bloom fill: %v -> %v", st.BloomFill, agg.BloomFill)
		}
	}
	for i := range entries {
		if entries[i].st.Hist == nil {
			t.Fatalf("group entry %d lost its histogram", i)
		}
	}
}

// TestHistogramSkewedEqFraction: a heavy hitter occupying most rows gets an
// exact (degenerate-bucket) equality answer well above the uniform
// 1/Distinct guess — the case equi-depth histograms exist for.
func TestHistogramSkewedEqFraction(t *testing.T) {
	schema := serde.String()
	full := newStatsCollector(schema, 0, 1<<12)
	full.histMax = 1024
	const n = 500
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			full.observe("heavy")
		} else {
			full.observe(fmt.Sprintf("rare-%d", i))
		}
	}
	full.cut()
	h := full.entries[0].st.Hist
	if h == nil {
		t.Fatal("no histogram")
	}
	f, exact := h.EqFraction("heavy")
	if !exact {
		t.Fatalf("heavy hitter not answered exactly (f=%v)", f)
	}
	if f < 0.4 || f > 0.6 {
		t.Fatalf("EqFraction(heavy) = %v, want ~0.5", f)
	}
}
