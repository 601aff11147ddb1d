package scan

import (
	"math"
	"strings"
	"testing"
)

// recGetter adapts a map to a Getter.
func recGetter(m map[string]any) Getter {
	return func(col string) (any, error) { return m[col], nil }
}

func TestEvalBasics(t *testing.T) {
	rec := recGetter(map[string]any{
		"i":   int32(42),
		"l":   int64(-7),
		"d":   3.5,
		"s":   "http://www.ibm.com/jp/page",
		"b":   true,
		"m":   map[string]any{"lang": "ja", "rank": int32(3)},
		"nil": nil,
	})
	cases := []struct {
		pred Predicate
		want bool
	}{
		{Eq("i", 42), true},
		{Eq("i", 41), false},
		{Ne("i", 41), true},
		{Lt("l", 0), true},
		{Le("l", -7), true},
		{Gt("d", 3), true},
		{Ge("d", 3.5), true},
		{Gt("d", 3.5), false},
		{Eq("b", true), true},
		{Between("i", 40, 45), true},
		{Between("i", 43, 45), false},
		{HasPrefix("s", "http://www.ibm.com"), true},
		{HasPrefix("s", "https://"), false},
		{KeyExists("m", "lang"), true},
		{KeyExists("m", "missing"), false},
		{IsNull("nil"), true},
		{IsNull("i"), false},
		{NotNull("i"), true},
		{Eq("nil", 1), false}, // null fails comparisons
		{And(Eq("i", 42), Gt("d", 3)), true},
		{And(Eq("i", 42), Gt("d", 4)), false},
		{Or(Eq("i", 0), HasPrefix("s", "http")), true},
		{Not(Eq("i", 42)), false},
		{And(), true},
		{Or(), false},
	}
	for _, c := range cases {
		got, err := c.pred.Eval(rec)
		if err != nil {
			t.Errorf("%s: %v", c.pred, err)
			continue
		}
		if got != c.want {
			t.Errorf("%s = %v, want %v", c.pred, got, c.want)
		}
	}
}

func TestEvalTypeMismatch(t *testing.T) {
	rec := recGetter(map[string]any{"s": "x", "m": map[string]any{}})
	if _, err := Eq("s", 5).Eval(rec); err == nil {
		t.Error("comparing string column with int literal should error")
	}
	if _, err := HasPrefix("m", "x").Eval(rec); err == nil {
		t.Error("prefix on map column should error")
	}
	if _, err := KeyExists("s", "k").Eval(rec); err == nil {
		t.Error("exists on string column should error")
	}
}

func statsFor(m map[string]*ColStats) StatsFunc {
	return func(col string) *ColStats { return m[col] }
}

func TestPruneCmp(t *testing.T) {
	st := statsFor(map[string]*ColStats{
		"i": {Rows: 10, HasMinMax: true, Min: int32(100), Max: int32(200)},
	})
	cases := []struct {
		pred Predicate
		want Tri
	}{
		{Eq("i", 150), MayMatch},
		{Eq("i", 99), NoMatch},
		{Eq("i", 201), NoMatch},
		{Lt("i", 100), NoMatch},
		{Lt("i", 101), MayMatch},
		{Le("i", 99), NoMatch},
		{Le("i", 100), MayMatch},
		{Gt("i", 200), NoMatch},
		{Gt("i", 199), MayMatch},
		{Ge("i", 201), NoMatch},
		{Between("i", 300, 400), NoMatch},
		{Between("i", 0, 99), NoMatch},
		{Between("i", 150, 160), MayMatch},
		{Ne("i", 150), MayMatch},
		{IsNull("i"), NoMatch},
		{NotNull("i"), MayMatch},
		// Unknown column: no stats, cannot prune.
		{Eq("x", 1), MayMatch},
	}
	for _, c := range cases {
		if got := c.pred.Prune(st); got != c.want {
			t.Errorf("Prune(%s) = %v, want %v", c.pred, got, c.want)
		}
	}
}

func TestPruneNotUsesMatchAll(t *testing.T) {
	// Every value in [100, 200] is > 50, so !(i > 50) prunes.
	st := statsFor(map[string]*ColStats{
		"i": {Rows: 10, HasMinMax: true, Min: int32(100), Max: int32(200)},
	})
	if got := Not(Gt("i", 50)).Prune(st); got != NoMatch {
		t.Errorf("Not(i > 50).Prune = %v, want NoMatch", got)
	}
	if got := Not(Gt("i", 150)).Prune(st); got != MayMatch {
		t.Errorf("Not(i > 150).Prune = %v, want MayMatch", got)
	}
	// Double negation restores pruning of the inner predicate.
	if got := Not(Not(Gt("i", 200))).Prune(st); got != NoMatch {
		t.Errorf("Not(Not(i > 200)).Prune = %v, want NoMatch", got)
	}
}

func TestPruneConstantGroupNe(t *testing.T) {
	st := statsFor(map[string]*ColStats{
		"i": {Rows: 10, HasMinMax: true, Min: int32(7), Max: int32(7)},
	})
	if got := Ne("i", 7).Prune(st); got != NoMatch {
		t.Errorf("Ne on constant group = %v, want NoMatch", got)
	}
}

func TestPrunePrefix(t *testing.T) {
	st := statsFor(map[string]*ColStats{
		"s": {Rows: 10, HasMinMax: true, Min: "http://a.com", Max: "http://z.com"},
	})
	if got := HasPrefix("s", "ftp://").Prune(st); got != NoMatch {
		t.Errorf("prefix below range = %v, want NoMatch", got)
	}
	if got := HasPrefix("s", "https://").Prune(st); got != NoMatch {
		t.Errorf("prefix above range = %v, want NoMatch", got)
	}
	if got := HasPrefix("s", "http://m").Prune(st); got != MayMatch {
		t.Errorf("prefix inside range = %v, want MayMatch", got)
	}
	// All values share the prefix: Not(prefix) prunes.
	if got := Not(HasPrefix("s", "http://")).Prune(st); got != NoMatch {
		t.Errorf("Not(shared prefix) = %v, want NoMatch", got)
	}
}

func TestPruneKeys(t *testing.T) {
	complete := statsFor(map[string]*ColStats{
		"m": {Rows: 10, HasKeys: true, Keys: []string{"alpha", "beta"}},
	})
	capped := statsFor(map[string]*ColStats{
		"m": {Rows: 10, HasKeys: true, Keys: []string{"alpha"}, KeysCapped: true},
	})
	if got := KeyExists("m", "gamma").Prune(complete); got != NoMatch {
		t.Errorf("missing key with complete universe = %v, want NoMatch", got)
	}
	if got := KeyExists("m", "alpha").Prune(complete); got != MayMatch {
		t.Errorf("present key = %v, want MayMatch", got)
	}
	if got := KeyExists("m", "gamma").Prune(capped); got != MayMatch {
		t.Errorf("missing key with capped universe = %v, want MayMatch", got)
	}
}

// roundTripPreds spans every predicate form String can print; each must
// parse back to its own String. FuzzParse seeds from them too.
func roundTripPreds() []Predicate {
	return []Predicate{
		Eq("int0", 42),
		Ne("str0", "abc"),
		Lt("d", -1.5),
		Ge("t", 1234567),
		Between("int0", 10, 99),
		HasPrefix("url", `http://"quoted"`),
		KeyExists("metadata", "content-type"),
		IsNull("x"),
		NotNull("x"),
		And(Eq("a", 1), Or(Gt("b", 2.5), Not(HasPrefix("c", "p"))), Eq("d", true)),
		Not(And(Eq("a", 1), Eq("b", 2))),
		And(),
		Or(),
		// Non-finite floats round-trip via keyword spellings.
		Gt("d", math.Inf(1)),
		Le("d", math.Inf(-1)),
		Ne("d", math.NaN()),
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, p := range roundTripPreds() {
		src := p.String()
		back, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		if back.String() != src {
			t.Errorf("round trip: %q -> %q", src, back.String())
		}
	}
}

// parseGood and parseBad are expressions Parse must accept and reject.
var (
	parseGood = []string{
		"int0 <= 100",
		"a == 1 && b == 2 || c == 3",
		"!(a == 1) && prefix(url, \"http://\")",
		"between(x, -5, 5) || exists(m, \"key\")",
		"isnull(a)",
		"notnull(a) && a > 1e3",
		" a  ==  1 ",
	}
	parseBad = []string{
		"",
		"a ==",
		"a = 1",
		"(a == 1",
		"a == 1 &&",
		"prefix(url)",
		"exists(m, 5)",
		"a == 1 extra",
		"between(x, 1)",
	}
)

func TestParseExpressions(t *testing.T) {
	for _, src := range parseGood {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
	for _, src := range parseBad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	// && binds tighter than ||.
	p := MustParse("a == 1 || b == 2 && c == 3")
	want := Or(Eq("a", 1), And(Eq("b", 2), Eq("c", 3)))
	if p.String() != want.String() {
		t.Errorf("precedence: got %s, want %s", p, want)
	}
}

func TestColumns(t *testing.T) {
	p := And(Eq("a", 1), Or(Gt("b", 2), Eq("a", 3)), Not(KeyExists("c", "k")))
	got := p.Columns(nil)
	if strings.Join(got, ",") != "a,b,c" {
		t.Errorf("Columns = %v, want [a b c]", got)
	}
}

func TestNaNTotalOrder(t *testing.T) {
	nan := math.NaN()
	rec := recGetter(map[string]any{"d": nan})
	// NaN sorts below every number (total order), so == never matches a
	// real literal and < matches any of them — deterministically.
	for _, c := range []struct {
		pred Predicate
		want bool
	}{
		{Eq("d", 5.0), false},
		{Ne("d", 5.0), true},
		{Lt("d", 5.0), true},
		{Gt("d", 5.0), false},
		{Eq("d", nan), true},
	} {
		got, err := c.pred.Eval(rec)
		if err != nil || got != c.want {
			t.Errorf("%s over NaN = (%v, %v), want %v", c.pred, got, err, c.want)
		}
	}
	// An all-NaN group must not let MatchAll prove equality with a real
	// literal (which would wrongly prune its negation).
	st := statsFor(map[string]*ColStats{
		"d": {Rows: 3, HasMinMax: true, Min: nan, Max: nan},
	})
	if Not(Eq("d", 5.0)).Prune(st) == NoMatch {
		t.Error("Not(d == 5) pruned an all-NaN group")
	}
	if got := Eq("d", nan).Prune(st); got != MayMatch {
		t.Errorf("Eq(NaN) over NaN group = %v, want MayMatch", got)
	}
}

func TestUnsignedLiterals(t *testing.T) {
	rec := recGetter(map[string]any{"i": int32(5), "l": int64(9)})
	for _, c := range []struct {
		pred Predicate
		want bool
	}{
		{Eq("i", uint(5)), true},
		{Eq("l", uint64(9)), true},
		{Lt("l", uint64(math.MaxUint64)), true},
	} {
		got, err := c.pred.Eval(rec)
		if err != nil || got != c.want {
			t.Errorf("%s = (%v, %v), want %v", c.pred, got, err, c.want)
		}
	}
}

func TestCrossTypeNumericCompare(t *testing.T) {
	rec := recGetter(map[string]any{"i": int32(5), "l": int64(5), "d": 5.0})
	for _, p := range []Predicate{Eq("i", 5), Eq("l", 5), Eq("d", 5), Eq("d", 5.0), Ge("i", 4.5)} {
		ok, err := p.Eval(rec)
		if err != nil || !ok {
			t.Errorf("%s = (%v, %v), want true", p, ok, err)
		}
	}
}

func TestColStatsMerge(t *testing.T) {
	// Two value-bearing groups: bounds widen, keys union, distinct becomes
	// a capped lower bound.
	a := ColStats{Rows: 10, Distinct: 4, HasMinMax: true, Min: int64(5), Max: int64(20),
		HasKeys: true, Keys: []string{"a", "c"}}
	b := ColStats{Rows: 6, Nulls: 1, Distinct: 6, HasMinMax: true, Min: int64(-3), Max: int64(7),
		HasKeys: true, Keys: []string{"b", "c"}}
	m := a // copy
	m.Merge(&b)
	if m.Rows != 16 || m.Nulls != 1 {
		t.Errorf("rows/nulls = %d/%d, want 16/1", m.Rows, m.Nulls)
	}
	if !m.HasMinMax || m.Min != int64(-3) || m.Max != int64(20) {
		t.Errorf("bounds = %v/%v, want -3/20", m.Min, m.Max)
	}
	if m.Distinct != 6 || !m.DistinctCapped {
		t.Errorf("distinct = %d capped=%v, want 6 capped", m.Distinct, m.DistinctCapped)
	}
	if !m.HasKeys || m.KeysCapped {
		t.Fatalf("keys = %+v, want complete union", m)
	}
	for _, k := range []string{"a", "b", "c"} {
		if !m.HasKey(k) {
			t.Errorf("merged universe misses %q", k)
		}
	}
	if m.HasKey("d") {
		t.Error("merged universe invents a key")
	}

	// Merging into the zero value adopts the group wholesale (the
	// file-aggregate bootstrap case).
	var z ColStats
	z.Merge(&a)
	if z.Rows != 10 || !z.HasMinMax || z.Min != int64(5) || !z.HasKeys || z.HasKey("b") {
		t.Errorf("zero-merge = %+v, want a copy of the group", z)
	}

	// An all-null group contributes rows but neither bounds nor keys.
	nulls := ColStats{Rows: 5, Nulls: 5}
	m2 := a
	m2.Merge(&nulls)
	if m2.Rows != 15 || m2.Nulls != 5 || !m2.HasMinMax || m2.Min != int64(5) || !m2.HasKeys {
		t.Errorf("null-merge = %+v, want unchanged bounds over 15 rows", m2)
	}

	// A value-bearing group without bounds (complex type) poisons bounds.
	complexG := ColStats{Rows: 3, DistinctCapped: true}
	m3 := a
	m3.Merge(&complexG)
	if m3.HasMinMax {
		t.Error("bounds survived a boundless value-bearing group")
	}
	// ... and a capped key universe propagates the cap.
	capped := ColStats{Rows: 3, HasKeys: true, Keys: []string{"z"}, KeysCapped: true}
	m4 := a
	m4.Merge(&capped)
	if !m4.HasKeys || !m4.KeysCapped || !m4.HasKey("z") {
		t.Errorf("capped-merge = %+v, want capped union containing z", m4)
	}
}
