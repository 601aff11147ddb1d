package scan_test

// Vector and Selection units, plus the batch-evaluation property: over
// random vectors (with nulls, boxed rows, and type-mismatched literals) and
// random predicates, VecEval must select exactly the rows per-record Eval
// accepts — and must error exactly when some examined row would have made
// the scalar path error. Error messages are not compared, only presence: the
// two paths surface the same failure from different loop shapes.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"colmr/internal/scan"
	"colmr/internal/serde"
)

func TestVectorSelectionOps(t *testing.T) {
	// 70 rows crosses a word boundary, so trim and Next are exercised on a
	// partial final word.
	n := 70
	s := scan.NewSelection(n)
	if s.Count() != n || s.Len() != n {
		t.Fatalf("full selection: count %d len %d", s.Count(), s.Len())
	}
	e := scan.NewEmptySelection(n)
	if !e.Empty() || e.Count() != 0 {
		t.Fatalf("empty selection: count %d", e.Count())
	}
	if got := e.Next(0); got != -1 {
		t.Fatalf("Next on empty = %d", got)
	}
	e.Set(3)
	e.Set(64)
	e.Set(69)
	if got := e.Count(); got != 3 {
		t.Fatalf("count after sets = %d", got)
	}
	var got []int
	for i := e.Next(0); i >= 0; i = e.Next(i + 1) {
		got = append(got, i)
	}
	if fmt.Sprint(got) != "[3 64 69]" {
		t.Fatalf("iterated %v", got)
	}
	e.Clear(64)
	if e.Test(64) || !e.Test(3) {
		t.Fatal("Clear/Test mismatch")
	}

	a := scan.NewEmptySelection(n)
	b := scan.NewEmptySelection(n)
	a.Set(1)
	a.Set(65)
	b.Set(65)
	b.Set(2)
	c := a.Clone()
	c.And(b)
	if c.Count() != 1 || !c.Test(65) {
		t.Fatalf("And: %d selected", c.Count())
	}
	c = a.Clone()
	c.Or(b)
	if c.Count() != 3 {
		t.Fatalf("Or: %d selected", c.Count())
	}
	c = a.Clone()
	c.AndNot(b)
	if c.Count() != 1 || !c.Test(1) {
		t.Fatalf("AndNot: %d selected", c.Count())
	}
}

func TestVectorValueBoxing(t *testing.T) {
	bx := new(serde.Boxer)
	v := scan.NewVector(scan.VecInt32, 4)
	v.AppendInt(7)
	v.AppendNull()
	if got := v.Value(bx, 0); got != int32(7) {
		t.Fatalf("int32 boxing: %T %v", got, got)
	}
	if v.Value(bx, 1) != nil || !v.IsNull(1) || !v.HasNulls() {
		t.Fatal("null row not null")
	}

	v = scan.NewVector(scan.VecBool, 2)
	v.AppendInt(1)
	v.AppendInt(0)
	if v.Value(bx, 0) != true || v.Value(bx, 1) != false {
		t.Fatal("bool boxing")
	}

	v = scan.NewVector(scan.VecString, 2)
	v.AppendBytes([]byte("ab"))
	v.AppendBytes(nil)
	if got := v.Value(bx, 0); got != "ab" {
		t.Fatalf("string boxing: %T %v", got, got)
	}
	if got := v.Value(bx, 1); got != "" {
		t.Fatalf("empty string boxing: %T %v", got, got)
	}

	v = scan.NewVector(scan.VecBytes, 1)
	v.AppendBytes([]byte("xy"))
	b := v.Value(bx, 0).([]byte)
	b[0] = 'z' // Value copies bytes; the arena must not alias out
	if string(v.BytesAt(0)) != "xy" {
		t.Fatal("bytes boxing aliases the arena")
	}

	v = scan.NewVector(scan.VecFloat64, 1)
	v.AppendFloat(1.5)
	if v.Value(bx, 0) != 1.5 {
		t.Fatal("float boxing")
	}

	v = scan.NewVector(scan.VecAny, 2)
	v.AppendAny(map[string]any{"k": int32(1)})
	v.AppendAny(nil)
	if _, ok := v.Value(bx, 0).(map[string]any); !ok {
		t.Fatal("any boxing")
	}

	// Reset reuses storage and re-seeds the string arena sentinel.
	v.Reset(scan.VecString, 8)
	v.AppendBytes([]byte("q"))
	if v.Len() != 1 || v.Value(bx, 0) != "q" {
		t.Fatal("reset vector broken")
	}
}

// Box is Value in bulk: the picked rows, in order, strided into dst, equal
// to what Value boxes — and owning their bytes, so the vector can be reset
// and refilled (as a pooled one is) without the boxed values noticing.
func TestVectorBox(t *testing.T) {
	bx := new(serde.Boxer)
	rng := rand.New(rand.NewSource(14))
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(150)
		v := vecTestColumn(rng, n)
		var sel *scan.Selection
		if rng.Intn(3) > 0 {
			sel = scan.NewEmptySelection(n)
			for i := 0; i < n; i++ {
				if rng.Intn(3) == 0 {
					sel.Set(i)
				}
			}
		}
		var want []any
		for i := 0; i < n; i++ {
			if sel == nil || sel.Test(i) {
				want = append(want, v.Value(bx, i))
			}
		}
		const stride, col = 3, 1
		dst := make([]any, stride*len(want)+col)
		for i := range dst {
			dst[i] = "untouched"
		}
		if k := v.Box(bx, sel, dst[col:], stride); k != len(want) {
			t.Fatalf("round %d: boxed %d rows, want %d", round, k, len(want))
		}
		kind := v.Kind
		v.Reset(kind, n)
		for i := 0; i < n; i++ {
			switch kind {
			case scan.VecString, scan.VecBytes:
				v.AppendBytes([]byte("~~"))
			case scan.VecAny:
				v.AppendAny("~~")
			case scan.VecFloat64:
				v.AppendFloat(-1)
			default:
				v.AppendInt(-1)
			}
		}
		for i, x := range dst {
			if i%stride != col {
				if x != "untouched" {
					t.Fatalf("round %d: Box wrote slot %d outside its column", round, i)
				}
				continue
			}
			if w := want[i/stride]; fmt.Sprintf("%T %v", x, x) != fmt.Sprintf("%T %v", w, w) {
				t.Fatalf("round %d (%v): row %d boxed as %T %v, Value gives %T %v", round, kind, i/stride, x, x, w, w)
			}
		}
	}

	// Bytes rows share one arena but not their tails: an append to one
	// reallocates instead of running into the next.
	v := scan.NewVector(scan.VecBytes, 2)
	v.AppendBytes([]byte("ab"))
	v.AppendBytes([]byte("cd"))
	dst := make([]any, 2)
	v.Box(bx, nil, dst, 1)
	_ = append(dst[0].([]byte), 'X')
	if got := string(dst[1].([]byte)); got != "cd" {
		t.Fatalf("append to one boxed bytes row changed its neighbour to %q", got)
	}

	// Rows the storage layer boxed singly (payloads too long for the arena)
	// interleave with arena rows and nulls.
	long := strings.Repeat("x", scan.BoxArenaMax+1)
	for _, kind := range []scan.VecKind{scan.VecString, scan.VecBytes} {
		single := func(s string) any {
			if kind == scan.VecBytes {
				return []byte(s)
			}
			return s
		}
		v := scan.NewVector(kind, 5)
		v.Boxed = true
		v.AppendBytes([]byte("short"))
		v.AppendSingle(single(long))
		v.AppendNull()
		v.AppendSingle(single(long + "y"))
		v.AppendString("tail")
		dst := make([]any, 5)
		v.Box(bx, nil, dst, 1)
		got := fmt.Sprintf("%s|%s|%v|%s|%s", dst[0], dst[1], dst[2], dst[3], dst[4])
		if want := "short|" + long + "|<nil>|" + long + "y|tail"; got != want {
			t.Fatalf("%v: boxed %.40q..., want %.40q...", kind, got, want)
		}
		if len(v.Data) != len("shorttail") {
			t.Fatalf("%v: arena holds %d bytes, want only the short rows'", kind, len(v.Data))
		}
		if v.Reset(kind, 4); v.Boxed {
			t.Fatal("Reset kept the Boxed mark")
		}
	}
}

func TestVectorProbeOnlyColumns(t *testing.T) {
	p1 := scan.And(scan.KeyExists("m", "k"), scan.Cmp("a", scan.OpEq, 1))
	if got := scan.ProbeOnlyColumns(p1); len(got) != 1 || got[0] != "m" {
		t.Fatalf("single exists: %v", got)
	}
	// A value read of the same column disqualifies it.
	p2 := scan.And(scan.KeyExists("m", "k"), scan.NotNull("m"))
	if got := scan.ProbeOnlyColumns(p2); len(got) != 0 {
		t.Fatalf("exists+null: %v", got)
	}
	// A second probe disqualifies too: both would consume the same stream.
	p3 := scan.Or(scan.KeyExists("m", "k"), scan.KeyExists("m", "j"))
	if got := scan.ProbeOnlyColumns(p3); len(got) != 0 {
		t.Fatalf("double exists: %v", got)
	}
	// Uses are counted across all predicates sharing a cursor set.
	if got := scan.ProbeOnlyColumns(scan.KeyExists("m", "k"), scan.NotNull("m")); len(got) != 0 {
		t.Fatalf("cross-predicate: %v", got)
	}
	if got := scan.ProbeOnlyColumns(scan.KeyExists("m", "k"), nil); len(got) != 1 {
		t.Fatalf("nil member: %v", got)
	}
}

// vecTestSource serves scan.VecEval from in-memory vectors. Key probes are
// answered only for columns whose rows are all maps (or null) — the shape a
// real probing layout would have — and only when the test enables probing.
type vecTestSource struct {
	vecs  map[string]*scan.Vector
	probe bool
}

func (s *vecTestSource) ColVec(col string) (*scan.Vector, error) {
	v, ok := s.vecs[col]
	if !ok {
		return nil, fmt.Errorf("no column %q", col)
	}
	return v, nil
}

func (s *vecTestSource) KeyVec(col, key string, sel *scan.Selection) (*scan.Selection, bool, error) {
	bx := new(serde.Boxer)
	v, ok := s.vecs[col]
	if !s.probe || !ok {
		return nil, false, nil
	}
	for i := 0; i < v.Len(); i++ {
		if v.IsNull(i) {
			continue
		}
		if _, isMap := v.Value(bx, i).(map[string]any); !isMap && v.Value(bx, i) != nil {
			return nil, false, nil
		}
	}
	out := scan.NewEmptySelection(sel.Len())
	for i := sel.Next(0); i >= 0; i = sel.Next(i + 1) {
		if m, ok := v.Value(bx, i).(map[string]any); ok {
			if _, has := m[key]; has {
				out.Set(i)
			}
		}
	}
	return out, true, nil
}

// vecTestKinds picks a random vector shape and a generator of its rows.
func vecTestColumn(rng *rand.Rand, n int) *scan.Vector {
	kind := []scan.VecKind{
		scan.VecBool, scan.VecInt32, scan.VecInt64, scan.VecFloat64,
		scan.VecString, scan.VecBytes, scan.VecAny,
	}[rng.Intn(7)]
	v := scan.NewVector(kind, n)
	for i := 0; i < n; i++ {
		if rng.Intn(8) == 0 {
			v.AppendNull()
			continue
		}
		switch kind {
		case scan.VecBool:
			v.AppendInt(int64(rng.Intn(2)))
		case scan.VecInt32, scan.VecInt64:
			v.AppendInt(int64(rng.Intn(40)))
		case scan.VecFloat64:
			v.AppendFloat(float64(rng.Intn(100)) / 4)
		case scan.VecString, scan.VecBytes:
			v.AppendBytes([]byte{byte('a' + rng.Intn(4)), byte('a' + rng.Intn(4))})
		case scan.VecAny:
			// Boxed rows mix maps, strings, ints, and SQL NULLs, so
			// comparisons over them hit both verdicts and type errors.
			switch rng.Intn(4) {
			case 0:
				v.AppendAny(map[string]any{[]string{"k0", "k1", "k2"}[rng.Intn(3)]: "x"})
			case 1:
				v.AppendAny(string(rune('a' + rng.Intn(4))))
			case 2:
				v.AppendAny(int64(rng.Intn(40)))
			default:
				v.AppendAny(nil)
			}
		}
	}
	return v
}

// vecTestLeaf builds a random leaf over a random column, sometimes with a
// literal the column's rows cannot compare with (both paths must error when
// such a row is examined).
func vecTestLeaf(rng *rand.Rand, cols []string, vecs map[string]*scan.Vector) scan.Predicate {
	col := cols[rng.Intn(len(cols))]
	v := vecs[col]
	ops := []scan.Op{scan.OpEq, scan.OpNe, scan.OpLt, scan.OpLe, scan.OpGt, scan.OpGe}
	op := ops[rng.Intn(len(ops))]
	if rng.Intn(2) == 0 {
		if rng.Intn(2) == 0 {
			return scan.IsNull(col)
		}
		return scan.NotNull(col)
	}
	if rng.Intn(8) == 0 {
		// Poison literal: comparable with no row of any representation the
		// generator produces except VecBool/strings as noted.
		switch v.Kind {
		case scan.VecString, scan.VecBytes:
			return scan.Cmp(col, op, true)
		default:
			return scan.Cmp(col, op, "poison")
		}
	}
	switch v.Kind {
	case scan.VecBool:
		return scan.Cmp(col, op, rng.Intn(2) == 0)
	case scan.VecInt32, scan.VecInt64:
		if rng.Intn(3) == 0 {
			lo := rng.Intn(40)
			return scan.Between(col, lo, lo+rng.Intn(10))
		}
		return scan.Cmp(col, op, rng.Intn(40))
	case scan.VecFloat64:
		return scan.Cmp(col, op, float64(rng.Intn(100))/4)
	case scan.VecString:
		if rng.Intn(2) == 0 {
			return scan.HasPrefix(col, string(rune('a'+rng.Intn(4))))
		}
		return scan.Cmp(col, op, string([]byte{byte('a' + rng.Intn(4)), byte('a' + rng.Intn(4))}))
	case scan.VecBytes:
		if rng.Intn(2) == 0 {
			return scan.HasPrefix(col, string(rune('a'+rng.Intn(4))))
		}
		return scan.Cmp(col, op, []byte{byte('a' + rng.Intn(4)), byte('a' + rng.Intn(4))})
	default:
		switch rng.Intn(3) {
		case 0:
			return scan.KeyExists(col, []string{"k0", "k1", "k2"}[rng.Intn(3)])
		case 1:
			return scan.Cmp(col, op, int64(rng.Intn(40)))
		default:
			return scan.Cmp(col, op, string(rune('a'+rng.Intn(4))))
		}
	}
}

func vecTestPredicate(rng *rand.Rand, cols []string, vecs map[string]*scan.Vector, depth int) scan.Predicate {
	if depth <= 0 || rng.Intn(3) == 0 {
		return vecTestLeaf(rng, cols, vecs)
	}
	kids := make([]scan.Predicate, 2+rng.Intn(2))
	for i := range kids {
		kids[i] = vecTestPredicate(rng, cols, vecs, depth-1)
	}
	switch rng.Intn(3) {
	case 0:
		return scan.And(kids...)
	case 1:
		return scan.Or(kids...)
	default:
		return scan.Not(kids[0])
	}
}

func TestVectorEvalProperty(t *testing.T) {
	bx := new(serde.Boxer)
	const rounds = 400
	rng := rand.New(rand.NewSource(20110408))
	for round := 0; round < rounds; round++ {
		n := rng.Intn(150)
		cols := []string{"a", "b", "c"}[:1+rng.Intn(3)]
		vecs := make(map[string]*scan.Vector, len(cols))
		for _, col := range cols {
			vecs[col] = vecTestColumn(rng, n)
		}
		pred := vecTestPredicate(rng, cols, vecs, 2)

		// Candidate selection: full, empty, or a random subset.
		var in *scan.Selection
		switch rng.Intn(3) {
		case 0:
			in = scan.NewSelection(n)
		case 1:
			in = scan.NewEmptySelection(n)
		default:
			in = scan.NewEmptySelection(n)
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					in.Set(i)
				}
			}
		}

		// Scalar reference: per-record Eval over the same rows, through the
		// unanswered-HasKey fallback (materialize the map, test the key).
		want := scan.NewEmptySelection(n)
		var wantErr bool
		for i := in.Next(0); i >= 0; i = in.Next(i + 1) {
			row := i
			ok, err := pred.Eval(scan.Getter(func(col string) (any, error) {
				return vecs[col].Value(bx, row), nil
			}))
			if err != nil {
				wantErr = true
				break
			}
			if ok {
				want.Set(i)
			}
		}

		src := &vecTestSource{vecs: vecs, probe: rng.Intn(2) == 0}
		got, err := pred.VecEval(src, in)
		if wantErr {
			if err == nil {
				t.Fatalf("round %d: pred %s: scalar path errors, VecEval did not", round, pred)
			}
			continue
		}
		if err != nil {
			t.Fatalf("round %d: pred %s: VecEval: %v (scalar path did not error)", round, pred, err)
		}
		for i := 0; i < n; i++ {
			if got.Test(i) != want.Test(i) {
				t.Fatalf("round %d: pred %s: row %d: VecEval %v, scalar %v (probe=%v)",
					round, pred, i, got.Test(i), want.Test(i), src.probe)
			}
		}
		// VecEval must never select outside the candidate set.
		stray := got.Clone()
		stray.AndNot(in)
		if !stray.Empty() {
			t.Fatalf("round %d: pred %s: selected rows outside the candidate selection", round, pred)
		}
	}
}
