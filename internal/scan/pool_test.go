package scan_test

// Pooling guards: the vectorized scan loop recycles Selection bitmaps
// through the package pool and AggState keeps its fold scratch across
// batches, so the steady state allocates nothing per batch. These tests
// pin that down with testing.AllocsPerRun — a regression here silently
// turns every batch into garbage-collector work.

import (
	"fmt"
	"testing"

	"colmr/internal/race"
	"colmr/internal/scan"
)

func TestAggSelectionPoolAllocationFree(t *testing.T) {
	const n = 4096
	// Warm the pool so the measured loop only recycles.
	for i := 0; i < 8; i++ {
		scan.PutSelection(scan.GetFullSelection(n))
	}
	allocs := testing.AllocsPerRun(200, func() {
		s := scan.GetFullSelection(n)
		if s.Count() != n {
			t.Fatal("full selection lost rows")
		}
		scan.PutSelection(s)
	})
	race.AllocCeiling(t, "a get/put selection cycle", allocs, 0)
}

// foldBenchSource is the batch the fold guard and BenchmarkFoldBatch share:
// n rows of an int64 column x (i*7919 mod 1000003, so MIN and MAX settle
// early and never on the last row), a float64 column f, a string key s
// cycling through 64 tags — no two adjacent rows alike, the worst case for
// the same-as-previous-row shortcut — and an int32 key k doing the same.
func foldBenchSource(n int) *vecTestSource {
	x, f := scan.NewVector(scan.VecInt64, n), scan.NewVector(scan.VecFloat64, n)
	s, k := scan.NewVector(scan.VecString, n), scan.NewVector(scan.VecInt32, n)
	for i := 0; i < n; i++ {
		x.AppendInt(int64(i) * 7919 % 1000003)
		f.AppendFloat(float64(i%977) / 8)
		s.AppendString(fmt.Sprintf("tag-%02d", i%64))
		k.AppendInt(int64(i % 64))
	}
	return &vecTestSource{vecs: map[string]*scan.Vector{"x": x, "f": f, "s": s, "k": k}}
}

// TestAggFoldBatchAllocationFree: once a state has seen every group and its
// MIN/MAX bounds have settled, folding a batch allocates nothing — no boxed
// value per row, no key per GROUP BY row, no scratch per call.
func TestAggFoldBatchAllocationFree(t *testing.T) {
	const n = 4096
	src := foldBenchSource(n)
	sel := scan.GetFullSelection(n)
	defer scan.PutSelection(sel)
	for _, spec := range []string{
		"count,count(x)",
		"min(x),max(x),sum(x)",
		"count,sum(x) group by s",
		"count(f),avg(f),min(s) group by k",
	} {
		agg, err := scan.ParseAggregate(spec)
		if err != nil {
			t.Fatal(err)
		}
		st := scan.NewAggState(agg)
		// The first fold meets the groups, settles the bounds and sizes the
		// scratch.
		if _, err := st.FoldBatch(sel, src); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := st.FoldBatch(sel, src); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("%s: steady-state FoldBatch allocates %.1f objects per run, want 0", spec, allocs)
		}
	}
}

// BenchmarkFoldBatch times the fold kernels alone — one 4096-row batch, every
// row selected, vectors already decoded — per function shape.
func BenchmarkFoldBatch(b *testing.B) {
	const n = 4096
	src := foldBenchSource(n)
	sel := scan.NewSelection(n)
	for _, c := range []struct{ name, spec string }{
		{"count", "count"},
		{"sum_int", "sum(x)"},
		{"minmax_int", "min(x),max(x)"},
		{"sum_float", "sum(f)"},
		{"groupby_str64", "count,sum(x) group by s"},
		{"groupby_int", "count,sum(x) group by k"},
	} {
		b.Run(c.name, func(b *testing.B) {
			agg, err := scan.ParseAggregate(c.spec)
			if err != nil {
				b.Fatal(err)
			}
			st := scan.NewAggState(agg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.FoldBatch(sel, src); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
		})
	}
}

func TestAggVecEvalAllocationFree(t *testing.T) {
	const n = 4096
	ints := scan.NewVector(scan.VecInt64, n)
	for i := 0; i < n; i++ {
		ints.AppendInt(int64(i % 97))
	}
	src := &vecTestSource{vecs: map[string]*scan.Vector{"x": ints}}
	pred := scan.Le("x", int64(40))
	// Warm the selection pool with the shapes the loop uses.
	for i := 0; i < 8; i++ {
		in := scan.GetFullSelection(n)
		out, err := pred.VecEval(src, in)
		if err != nil {
			t.Fatal(err)
		}
		scan.PutSelection(in)
		scan.PutSelection(out)
	}
	allocs := testing.AllocsPerRun(200, func() {
		in := scan.GetFullSelection(n)
		out, err := pred.VecEval(src, in)
		if err != nil {
			t.Fatal(err)
		}
		scan.PutSelection(in)
		scan.PutSelection(out)
	})
	// One allocation per batch is the comparator closure vecComparer builds;
	// everything per-row must come from the pool.
	race.AllocCeiling(t, "steady-state VecEval", allocs, 1)
}
