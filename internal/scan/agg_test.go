package scan_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"colmr/internal/scan"
)

// Fold-site equivalence under nulls. FoldBatch (the vectorized site),
// FoldRecord (the scalar site), and Merge (the task-combine site) must
// agree exactly on random data with null rows in every column — including
// null group keys, entirely-null columns, and empty selections.

// aggTestData builds random column vectors with nulls: "g" a
// low-cardinality string key, "a" int64, "b" float64, "s" string.
func aggTestData(rng *rand.Rand, n int) map[string]*scan.Vector {
	card := 1 + rng.Intn(5)
	nullP := func() bool { return rng.Intn(5) == 0 }
	g := scan.NewVector(scan.VecString, n)
	a := scan.NewVector(scan.VecInt64, n)
	b := scan.NewVector(scan.VecFloat64, n)
	s := scan.NewVector(scan.VecString, n)
	allNullB := rng.Intn(6) == 0 // sometimes a column is entirely null
	for i := 0; i < n; i++ {
		if nullP() {
			g.AppendNull()
		} else {
			g.AppendString(fmt.Sprintf("grp%d", rng.Intn(card)))
		}
		if nullP() {
			a.AppendNull()
		} else {
			a.AppendInt(rng.Int63n(1000))
		}
		if allNullB || nullP() {
			b.AppendNull()
		} else {
			b.AppendFloat(float64(rng.Intn(500)) / 7)
		}
		s.AppendString(fmt.Sprintf("v%02d", rng.Intn(30)))
	}
	return map[string]*scan.Vector{"g": g, "a": a, "b": b, "s": s}
}

func aggTestSpec(t *testing.T, rng *rand.Rand) *scan.Aggregate {
	t.Helper()
	pool := []string{
		"count", "count(a)", "count(b)", "count(g)",
		"min(a)", "max(a)", "sum(a)",
		"min(s)", "max(s)", "min(g)", "sum(b)", "max(b)",
	}
	k := 1 + rng.Intn(4)
	picked := make([]string, 0, k)
	for _, i := range rng.Perm(len(pool))[:k] {
		picked = append(picked, pool[i])
	}
	src := strings.Join(picked, ",")
	if rng.Intn(2) == 0 {
		src += " group by g"
	}
	a, err := scan.ParseAggregate(src)
	if err != nil {
		t.Fatalf("ParseAggregate(%q): %v", src, err)
	}
	return a
}

// rowEval adapts one vector row to the scalar Evaluator.
func rowEval(vecs map[string]*scan.Vector, i int) scan.Evaluator {
	return scan.Getter(func(col string) (any, error) {
		v, ok := vecs[col]
		if !ok {
			return nil, fmt.Errorf("no column %q", col)
		}
		if v.IsNull(i) {
			return nil, nil
		}
		return v.Value(i), nil
	})
}

func sameAggRows(a, b []scan.AggRow) bool {
	if len(a) != len(b) {
		return false
	}
	eq := func(x, y any) bool {
		if x == nil || y == nil {
			return x == nil && y == nil
		}
		// Partial-state merges reassociate float sums; everything else is
		// exact.
		if xf, ok := x.(float64); ok {
			yf, ok := y.(float64)
			if !ok {
				return false
			}
			diff := xf - yf
			if diff < 0 {
				diff = -diff
			}
			scale := 1.0
			if xf > scale || xf < -scale {
				scale = xf
				if scale < 0 {
					scale = -scale
				}
			}
			return diff <= 1e-9*scale
		}
		c, ok := scan.CompareValues(x, y)
		return ok && c == 0
	}
	for i := range a {
		if !eq(a[i].Group, b[i].Group) || len(a[i].Values) != len(b[i].Values) {
			return false
		}
		for j := range a[i].Values {
			if !eq(a[i].Values[j], b[i].Values[j]) {
				return false
			}
		}
	}
	return true
}

func TestAggFoldBatchMatchesFoldRecordWithNulls(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(900 + trial)))
		n := 1 + rng.Intn(300)
		vecs := aggTestData(rng, n)
		src := &vecTestSource{vecs: vecs}
		agg := aggTestSpec(t, rng)

		// A random selection — sometimes empty, sometimes full.
		sel := scan.NewEmptySelection(n)
		keepP := rng.Intn(5)
		for i := 0; i < n; i++ {
			if rng.Intn(4) >= keepP {
				sel.Set(i)
			}
		}

		batch := scan.NewAggState(agg)
		if _, err := batch.FoldBatch(sel, src); err != nil {
			t.Fatalf("trial %d agg=%s: FoldBatch: %v", trial, agg, err)
		}
		scalar := scan.NewAggState(agg)
		for i := sel.Next(0); i >= 0; i = sel.Next(i + 1) {
			if err := scalar.FoldRecord(rowEval(vecs, i)); err != nil {
				t.Fatalf("trial %d agg=%s: FoldRecord(%d): %v", trial, agg, i, err)
			}
		}
		if !sameAggRows(batch.Rows(), scalar.Rows()) {
			t.Fatalf("trial %d agg=%s: fold sites disagree\nbatch  %v\nscalar %v",
				trial, agg, batch.Rows(), scalar.Rows())
		}

		// Merge associativity: the same rows folded into k partial states
		// and merged must equal the single-state fold, whatever the split.
		parts := 1 + rng.Intn(3)
		states := make([]*scan.AggState, parts)
		for p := range states {
			states[p] = scan.NewAggState(agg)
		}
		for i := sel.Next(0); i >= 0; i = sel.Next(i + 1) {
			if err := states[rng.Intn(parts)].FoldRecord(rowEval(vecs, i)); err != nil {
				t.Fatal(err)
			}
		}
		merged := scan.NewAggState(agg)
		for _, st := range states {
			if err := merged.Merge(st); err != nil {
				t.Fatalf("trial %d agg=%s: Merge: %v", trial, agg, err)
			}
		}
		if !sameAggRows(merged.Rows(), scalar.Rows()) {
			t.Fatalf("trial %d agg=%s: merged state disagrees\nmerged %v\nscalar %v",
				trial, agg, merged.Rows(), scalar.Rows())
		}
	}
}

// foldPropColumn builds a random vector of the given representation under a
// null pattern: none, sparse, dense, or every row null. Values are drawn
// from small domains so that groups repeat and MIN/MAX meet ties; floats
// include NaN and both zeros, whose bit patterns the fold sites must keep
// apart as group keys and must not tell apart as bounds.
func foldPropColumn(rng *rand.Rand, kind scan.VecKind, n int) *scan.Vector {
	nullOf := []int{0, 9, 2, 1}[rng.Intn(4)] // one row in nullOf is null; 0 = none
	floats := []float64{math.NaN(), math.Copysign(0, -1), 0, 1.5, -2.25, 1e300, 0.1, 0.2, 0.3}
	v := scan.NewVector(kind, n)
	for i := 0; i < n; i++ {
		if nullOf > 0 && rng.Intn(nullOf) == 0 {
			v.AppendNull()
			continue
		}
		switch kind {
		case scan.VecBool:
			v.AppendInt(int64(rng.Intn(2)))
		case scan.VecInt32:
			v.AppendInt(int64(rng.Intn(2000) - 1000))
		case scan.VecInt64:
			v.AppendInt(rng.Int63n(1<<40) - 1<<39)
		case scan.VecFloat64:
			v.AppendFloat(floats[rng.Intn(len(floats))])
		case scan.VecString, scan.VecBytes:
			v.AppendBytes([]byte(fmt.Sprintf("k%d", rng.Intn(12))))
		default:
			switch rng.Intn(5) {
			case 0:
				v.AppendAny(nil) // a nil row with no null bit
			case 1:
				v.AppendAny(map[string]any{"k": int64(i)})
			case 2:
				v.AppendAny(fmt.Sprintf("s%d", rng.Intn(5)))
			default:
				v.AppendAny(int64(rng.Intn(7)))
			}
		}
	}
	return v
}

// sameAggRowsExact is deep equality of two outputs down to the dynamic Go
// type of every value; floats compare by bit pattern, so NaN equals itself
// and the zeros differ.
func sameAggRowsExact(a, b []scan.AggRow) bool {
	same := func(x, y any) bool {
		if xf, ok := x.(float64); ok {
			yf, ok := y.(float64)
			return ok && math.Float64bits(xf) == math.Float64bits(yf)
		}
		return reflect.DeepEqual(x, y)
	}
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !same(a[i].Group, b[i].Group) || len(a[i].Values) != len(b[i].Values) {
			return false
		}
		for j := range a[i].Values {
			if !same(a[i].Values[j], b[i].Values[j]) {
				return false
			}
		}
	}
	return true
}

// TestFoldBatchMatchesFoldRecord holds the column-at-a-time batch fold to the
// record fold as its oracle: over vectors of every representation, null
// pattern and selection shape, every function, and grouping keys of every
// kind, the two produce the same rows — same values, same Go types, float
// sums to the bit — whether one state folds the rows in one batch, in two,
// or two states fold a half each and merge. Where the record fold fails
// (a sum over strings, incomparable boxed values), so does the batch fold.
// The test runs 300 trials; the benchmark of the same name runs 1 500.
func TestFoldBatchMatchesFoldRecord(t *testing.T) { checkFoldBatchMatchesFoldRecord(t, 300) }

func BenchmarkFoldBatchMatchesFoldRecord(b *testing.B) {
	for range b.N {
		checkFoldBatchMatchesFoldRecord(b, 1500)
	}
}

func checkFoldBatchMatchesFoldRecord(t testing.TB, trials int) {
	kinds := []scan.VecKind{
		scan.VecBool, scan.VecInt32, scan.VecInt64, scan.VecFloat64,
		scan.VecString, scan.VecBytes, scan.VecAny,
	}
	funcs := []string{"count(%s)", "min(%s)", "max(%s)", "sum(%s)", "avg(%s)"}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(4100 + trial)))
		n := 1 + rng.Intn(200)
		vecs := map[string]*scan.Vector{}
		cols := make([]string, len(kinds))
		for i, k := range kinds {
			cols[i] = k.String()
			vecs[cols[i]] = foldPropColumn(rng, k, n)
		}
		parts := []string{"count"}[:rng.Intn(2)]
		for k := 1 + rng.Intn(3); k > 0; k-- {
			parts = append(parts, fmt.Sprintf(funcs[rng.Intn(len(funcs))], cols[rng.Intn(len(cols))]))
		}
		src := strings.Join(parts, ",")
		if g := rng.Intn(len(cols) + 1); g < len(cols) {
			src += " group by " + cols[g]
		}
		agg, err := scan.ParseAggregate(src)
		if err != nil {
			t.Fatalf("ParseAggregate(%q): %v", src, err)
		}
		// Empty, full, or sparse selection, split into a low and a high half.
		keep := []int{0, 1, 1, 3, 20}[rng.Intn(5)]
		sel, lo, hi := scan.NewEmptySelection(n), scan.NewEmptySelection(n), scan.NewEmptySelection(n)
		for i := 0; i < n; i++ {
			if keep > 0 && rng.Intn(keep) == 0 {
				sel.Set(i)
				if i < n/2 {
					lo.Set(i)
				} else {
					hi.Set(i)
				}
			}
		}
		vsrc := &vecTestSource{vecs: vecs}
		foldRecords := func(st *scan.AggState, sel *scan.Selection) error {
			for i := sel.Next(0); i >= 0; i = sel.Next(i + 1) {
				if err := st.FoldRecord(rowEval(vecs, i)); err != nil {
					return err
				}
			}
			return nil
		}
		foldBatches := func(st *scan.AggState, sels ...*scan.Selection) error {
			for _, sel := range sels {
				rows, err := st.FoldBatch(sel, vsrc)
				if err != nil {
					return err
				}
				if rows != int64(sel.Count()) {
					t.Fatalf("trial %d agg=%s: FoldBatch folded %d rows of %d", trial, agg, rows, sel.Count())
				}
			}
			return nil
		}
		oracle := scan.NewAggState(agg)
		oracleErr := foldRecords(oracle, sel)
		for name, sels := range map[string][]*scan.Selection{"one batch": {sel}, "two batches": {lo, hi}} {
			st := scan.NewAggState(agg)
			if err := foldBatches(st, sels...); (err != nil) != (oracleErr != nil) {
				t.Fatalf("trial %d agg=%s %s: FoldBatch error %v, FoldRecord error %v", trial, agg, name, err, oracleErr)
			}
			if oracleErr == nil && !sameAggRowsExact(st.Rows(), oracle.Rows()) {
				t.Fatalf("trial %d agg=%s %s:\nbatch  %#v\nrecord %#v", trial, agg, name, st.Rows(), oracle.Rows())
			}
		}
		if oracleErr != nil {
			continue
		}
		// Two states, a half each, merged: against the record folds of the
		// same halves merged the same way.
		a, b := scan.NewAggState(agg), scan.NewAggState(agg)
		ra, rb := scan.NewAggState(agg), scan.NewAggState(agg)
		for _, err := range []error{
			foldBatches(a, lo), foldBatches(b, hi), foldRecords(ra, lo), foldRecords(rb, hi),
			a.Merge(b), ra.Merge(rb),
		} {
			if err != nil {
				t.Fatalf("trial %d agg=%s: folding halves: %v", trial, agg, err)
			}
		}
		if !sameAggRowsExact(a.Rows(), ra.Rows()) {
			t.Fatalf("trial %d agg=%s merged halves:\nbatch  %#v\nrecord %#v", trial, agg, a.Rows(), ra.Rows())
		}
	}
}

// TestFoldBatchGroupLimit: a runaway key space fails the batch fold loudly,
// as it fails the record fold.
func TestFoldBatchGroupLimit(t *testing.T) {
	const n = 1<<16 + 1
	keys := scan.NewVector(scan.VecInt64, n)
	for i := 0; i < n; i++ {
		keys.AppendInt(int64(i))
	}
	agg, err := scan.ParseAggregate("count group by k")
	if err != nil {
		t.Fatal(err)
	}
	src := &vecTestSource{vecs: map[string]*scan.Vector{"k": keys}}
	_, err = scan.NewAggState(agg).FoldBatch(scan.NewSelection(n), src)
	if err == nil || !strings.Contains(err.Error(), "exceeds 65536 groups") {
		t.Fatalf("FoldBatch over %d distinct keys: error %v, want the group limit", n, err)
	}
}
