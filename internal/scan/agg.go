package scan

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"

	"colmr/internal/serde"
)

// Aggregation pushdown: a typed aggregate specification carried on
// scan.Spec, answered inside the scan without materializing rows. The
// fold sites, cheapest first:
//
//   - zone stats: when a group's zone map proves the predicate holds for
//     every record (Prune answers AllMatch) and every function is stats-answerable, the group folds
//     from its ColStats entries — count from row counts, MIN/MAX from the
//     recorded bounds — with zero bytes decoded (FoldStats).
//   - vectors: batches that need evaluation fold straight from the
//     selection bitmap and the decoded column vectors (FoldBatch); the
//     rows never become records.
//   - records: the scalar fallback folds materialized values (FoldRecord),
//     identical in result, used when vectorized execution is off or the
//     input format cannot push the aggregate down.
//
// All three sites produce bit-identical results: the fold order is
// commutative (count/sum additions, CompareValues min/max), so the only
// ordering that matters — the group output order — is fixed by Rows().

// AggKind names one aggregate function.
type AggKind int

// Aggregate functions. AggCount is COUNT(*): it counts selected rows and
// reads no column. AggCountCol counts non-null values of its column;
// AggMin/AggMax/AggSum/AggAvg ignore nulls, as in SQL. AggAvg derives from
// sum and non-null-count partials, so it merges across tasks exactly like
// its components (the division happens once, at output).
const (
	AggCount AggKind = iota
	AggCountCol
	AggMin
	AggMax
	AggSum
	AggAvg
)

// String returns the function name.
func (k AggKind) String() string {
	switch k {
	case AggCount, AggCountCol:
		return "count"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	default:
		return "sum"
	}
}

// AggFunc is one aggregate function application.
type AggFunc struct {
	Kind AggKind
	Col  string // empty for AggCount
}

// String renders the function in the form ParseAggregate accepts.
func (f AggFunc) String() string {
	if f.Kind == AggCount {
		return "count"
	}
	return fmt.Sprintf("%s(%s)", f.Kind, f.Col)
}

// Aggregate is the typed aggregate specification: the functions to
// compute and an optional low-cardinality grouping column.
type Aggregate struct {
	Funcs   []AggFunc
	GroupBy string // empty = one global group
}

// maxAggGroups bounds the grouping hash: GROUP BY is specified for
// low-cardinality columns, and a runaway key space should fail loudly
// rather than absorb the heap.
const maxAggGroups = 1 << 16

// String renders the spec in the form ParseAggregate accepts, e.g.
// "count,min(price) group by site".
func (a *Aggregate) String() string {
	parts := make([]string, len(a.Funcs))
	for i, f := range a.Funcs {
		parts[i] = f.String()
	}
	s := strings.Join(parts, ",")
	if a.GroupBy != "" {
		s += " group by " + a.GroupBy
	}
	return s
}

// Clone returns a deep copy.
func (a *Aggregate) Clone() *Aggregate {
	if a == nil {
		return nil
	}
	return &Aggregate{Funcs: append([]AggFunc(nil), a.Funcs...), GroupBy: a.GroupBy}
}

// Equal reports whether two specs describe the same aggregation.
func (a *Aggregate) Equal(o *Aggregate) bool {
	if a == nil || o == nil {
		return a == o
	}
	if a.GroupBy != o.GroupBy || len(a.Funcs) != len(o.Funcs) {
		return false
	}
	for i := range a.Funcs {
		if a.Funcs[i] != o.Funcs[i] {
			return false
		}
	}
	return true
}

// Validate checks the spec is well formed.
func (a *Aggregate) Validate() error {
	if a == nil {
		return nil
	}
	if len(a.Funcs) == 0 {
		return fmt.Errorf("scan: aggregate with no functions")
	}
	for _, f := range a.Funcs {
		switch f.Kind {
		case AggCount:
			if f.Col != "" {
				return fmt.Errorf("scan: count takes its column via count(col)")
			}
		case AggCountCol, AggMin, AggMax, AggSum, AggAvg:
			if f.Col == "" {
				return fmt.Errorf("scan: %s requires a column", f.Kind)
			}
		default:
			return fmt.Errorf("scan: unknown aggregate kind %d", int(f.Kind))
		}
	}
	return nil
}

// Columns appends the distinct columns the aggregation reads (function
// arguments plus the grouping column), preserving first-appearance order.
func (a *Aggregate) Columns(dst []string) []string {
	if a == nil {
		return dst
	}
	for _, f := range a.Funcs {
		if f.Col != "" {
			dst = appendColumn(dst, f.Col)
		}
	}
	if a.GroupBy != "" {
		dst = appendColumn(dst, a.GroupBy)
	}
	return dst
}

// ParseAggregate reads an aggregate spec from its string form: a
// comma-separated function list — count, count(col), min(col), max(col),
// sum(col) — optionally followed by "group by col".
func ParseAggregate(src string) (*Aggregate, error) {
	s := strings.TrimSpace(src)
	if s == "" {
		return nil, fmt.Errorf("scan: empty aggregate spec")
	}
	a := &Aggregate{}
	if i := strings.Index(s, " group by "); i >= 0 {
		a.GroupBy = strings.TrimSpace(s[i+len(" group by "):])
		if a.GroupBy == "" || strings.ContainsAny(a.GroupBy, " ,()") {
			return nil, fmt.Errorf("scan: bad group-by column %q", a.GroupBy)
		}
		s = s[:i]
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "count" {
			a.Funcs = append(a.Funcs, AggFunc{Kind: AggCount})
			continue
		}
		open := strings.IndexByte(part, '(')
		if open < 0 || !strings.HasSuffix(part, ")") {
			return nil, fmt.Errorf("scan: bad aggregate function %q", part)
		}
		name, col := part[:open], strings.TrimSpace(part[open+1:len(part)-1])
		if col == "" {
			return nil, fmt.Errorf("scan: %s() requires a column", name)
		}
		var kind AggKind
		switch name {
		case "count":
			kind = AggCountCol
		case "min":
			kind = AggMin
		case "max":
			kind = AggMax
		case "sum":
			kind = AggSum
		case "avg":
			kind = AggAvg
		default:
			return nil, fmt.Errorf("scan: unknown aggregate function %q", name)
		}
		a.Funcs = append(a.Funcs, AggFunc{Kind: kind, Col: col})
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// gkey is the comparable identity of one group in the form every fold site
// can produce: it is how Merge finds another state's groups in this one and
// what Rows sorts by. Float keys store their bit pattern so NaN groups
// collapse into one key (Go map semantics would otherwise make every NaN
// insertion distinct).
type gkey struct {
	kind byte // 'n' null, 'b' bool/int, 'f' float, 's' string/bytes
	i    int64
	s    string
}

func groupKeyOf(v any) (gkey, error) {
	switch x := v.(type) {
	case nil:
		return gkey{kind: 'n'}, nil
	case bool:
		if x {
			return gkey{kind: 'b', i: 1}, nil
		}
		return gkey{kind: 'b'}, nil
	case int32:
		return gkey{kind: 'b', i: int64(x)}, nil
	case int64:
		return gkey{kind: 'b', i: x}, nil
	case float64:
		return gkey{kind: 'f', i: int64(math.Float64bits(x))}, nil
	case string:
		return gkey{kind: 's', s: x}, nil
	case []byte:
		return gkey{kind: 's', s: string(x)}, nil
	}
	return gkey{}, queryErrorf("scan: group by value of unsupported type %T", v)
}

// aggAcc accumulates one function over one group.
type aggAcc struct {
	count  int64
	hasVal bool
	bound  any // MIN/MAX so far, boxed in the column's own Go type
	sumI   int64
	sumF   float64
	sumIsF bool
}

// AggState folds an aggregation incrementally: per batch from vectors,
// per group from zone stats, per record from materialized values, and
// across tasks via Merge. It is not goroutine-safe; each task folds its
// own state and the engine merges them.
type AggState struct {
	agg *Aggregate

	// Groups are numbered in first-seen order: group g has key keys[g], boxed
	// output value vals[g] and one accumulator per function at
	// accs[g*len(Funcs):].
	keys []gkey
	vals []any
	accs []aggAcc

	// The group index, one map per key kind, so that a batch fold probes with
	// the grouping column's own representation — the arena bytes of a string
	// row, an integer, a float's bit pattern — and never builds a gkey or
	// boxes a value for a group it has seen.
	byStr   map[string]int32
	byInt   map[int64]int32
	byFloat map[int64]int32
	nullID  int32 // the null key's group; -1 until one is seen

	// FoldBatch's scratch, kept on the state so a steady-state batch fold
	// allocates nothing: the per-call vector table, the selected rows, the
	// non-null ones among them for the column being folded, and each batch
	// row's group.
	vecScratch  []*Vector
	rows, valid []int32
	gids        []int32
	// bx boxes the rows a batch fold keeps — new groups' values, MIN/MAX
	// bounds — from chunks the state holds for as long as it folds.
	bx serde.Boxer
}

// NewAggState returns an empty fold state for the spec.
func NewAggState(a *Aggregate) *AggState {
	return &AggState{
		agg:     a,
		byStr:   make(map[string]int32),
		byInt:   make(map[int64]int32),
		byFloat: make(map[int64]int32),
		nullID:  -1,
	}
}

// Agg returns the spec the state folds.
func (s *AggState) Agg() *Aggregate { return s.agg }

// groupID returns the number of key's group, adding it — with val as its
// output value — when key is new.
func (s *AggState) groupID(key gkey, val any) (int32, error) {
	var id int32
	var ok bool
	switch key.kind {
	case 'n':
		id, ok = s.nullID, s.nullID >= 0
	case 's':
		id, ok = s.byStr[key.s]
	case 'f':
		id, ok = s.byFloat[key.i]
	default:
		id, ok = s.byInt[key.i]
	}
	if ok {
		return id, nil
	}
	return s.addGroup(key, val)
}

// addGroup numbers a group whose key the index does not hold yet.
func (s *AggState) addGroup(key gkey, val any) (int32, error) {
	if len(s.keys) >= maxAggGroups {
		return 0, queryErrorf("scan: group by %q exceeds %d groups", s.agg.GroupBy, maxAggGroups)
	}
	id := int32(len(s.keys))
	switch key.kind {
	case 'n':
		s.nullID = id
	case 's':
		s.byStr[key.s] = id
	case 'f':
		s.byFloat[key.i] = id
	default:
		s.byInt[key.i] = id
	}
	s.keys = append(s.keys, key)
	s.vals = append(s.vals, copyBoundValue(val))
	s.accs = append(s.accs, make([]aggAcc, len(s.agg.Funcs))...)
	return id, nil
}

// groupAccs returns group id's accumulators, one per function.
func (s *AggState) groupAccs(id int32) []aggAcc {
	nf := len(s.agg.Funcs)
	return s.accs[int(id)*nf:][:nf]
}

// copyBoundValue deep-copies mutable values retained past the fold call.
func copyBoundValue(v any) any {
	if b, ok := v.([]byte); ok {
		return append([]byte(nil), b...)
	}
	return v
}

// improves reports whether a value that compares c against a MIN/MAX bound
// replaces it. Ties keep the bound, so the first of equal values — which
// may differ in Go type, or be -0 and +0 — is the one reported.
func (k AggKind) improves(c int) bool {
	return (k == AggMin && c < 0) || (k == AggMax && c > 0)
}

// foldValue folds one non-null boxed value into the accumulator: the single
// entry for record folds, stats folds, merges, and batch rows that have no
// typed kernel.
func (acc *aggAcc) foldValue(kind AggKind, col string, v any) error {
	switch kind {
	case AggCountCol:
		acc.count++
		return nil
	case AggMin, AggMax:
		if acc.hasVal {
			c, ok := CompareValues(v, acc.bound)
			if !ok {
				return queryErrorf("scan: cannot compare %s(%s) value %T with %T", kind, col, v, acc.bound)
			}
			if !kind.improves(c) {
				return nil
			}
		}
		acc.hasVal = true
		acc.bound = copyBoundValue(v)
		return nil
	default: // AggSum, AggAvg: sum partials (avg also counts its non-nulls)
		switch x := v.(type) {
		case int32:
			acc.sumI += int64(x)
		case int64:
			acc.sumI += x
		case float64:
			acc.sumF += x
			acc.sumIsF = true
		default:
			return queryErrorf("scan: %s(%s) over non-numeric value %T", kind, col, v)
		}
		if kind == AggAvg {
			acc.count++
		}
		acc.hasVal = true
		return nil
	}
}

// value returns the accumulator's final value (nil for an empty MIN/MAX/
// SUM, SQL-style).
func (acc *aggAcc) value(kind AggKind) any {
	switch kind {
	case AggCount, AggCountCol:
		return acc.count
	case AggMin, AggMax:
		if !acc.hasVal {
			return nil
		}
		return acc.bound
	case AggAvg:
		if !acc.hasVal {
			return nil
		}
		sum := float64(acc.sumI)
		if acc.sumIsF {
			sum = acc.sumF
		}
		return sum / float64(acc.count)
	default:
		if !acc.hasVal {
			return nil
		}
		if acc.sumIsF {
			return acc.sumF
		}
		return acc.sumI
	}
}

// FoldBatch folds every selected row of the current batch from its column
// vectors, returning the number of rows folded. Columns are resolved
// through src once per call, so the decoded-vector cache and lazy decode
// apply exactly as they do for predicate evaluation.
//
// The fold runs a column at a time: one pass resolves each selected row's
// group (none for an ungrouped aggregation), then each function runs one
// typed loop over its column's flat storage. No row is boxed unless it
// becomes a new group's value or a new MIN/MAX bound, so a batch that meets
// no new group and moves no bound allocates nothing. Within a group every
// function still sees its rows in row order: float sums and MIN/MAX ties
// come out bit-identical to FoldRecord's.
func (s *AggState) FoldBatch(sel *Selection, src VecSource) (int64, error) {
	n := sel.Count()
	if n == 0 {
		return 0, nil
	}
	var groupVec *Vector
	var err error
	if s.agg.GroupBy != "" {
		if groupVec, err = src.ColVec(s.agg.GroupBy); err != nil {
			return 0, err
		}
	}
	// Resolve each function's vector once; AggCount reads none.
	if cap(s.vecScratch) < len(s.agg.Funcs) {
		s.vecScratch = make([]*Vector, len(s.agg.Funcs))
	}
	vecs := s.vecScratch[:len(s.agg.Funcs)]
	// An ungrouped count needs only the bitmaps; everything else walks the
	// selected rows as a list, built once.
	needRows := groupVec != nil
	for fi, f := range s.agg.Funcs {
		vecs[fi] = nil
		if f.Col == "" {
			continue
		}
		if vecs[fi], err = src.ColVec(f.Col); err != nil {
			return 0, err
		}
		if f.Kind != AggCountCol || vecs[fi].Kind == VecAny {
			needRows = true
		}
	}
	var rows []int32
	if needRows {
		rows = sel.appendRows(s.rows[:0])
		s.rows = rows
	}
	t := accSlot{nf: len(s.agg.Funcs), bx: &s.bx}
	if groupVec != nil {
		if t.gids, err = s.resolveGroups(groupVec, rows); err != nil {
			return 0, err
		}
		t.accs = s.accs
	} else {
		one, err := s.groupID(gkey{kind: 'n'}, nil)
		if err != nil {
			return 0, err
		}
		t.accs = s.groupAccs(one)
	}
	for fi, f := range s.agg.Funcs {
		t.fi = fi
		if err := s.foldColumn(t, f, vecs[fi], sel, rows); err != nil {
			return 0, err
		}
	}
	return int64(n), nil
}

// resolveGroups numbers the group of every row of rows by its key in v,
// returning the numbers indexed by batch row. Keys probe the index in v's
// own representation; a row whose key equals the previous row's — sorted
// and clustered grouping columns are mostly that — skips the probe.
func (s *AggState) resolveGroups(v *Vector, rows []int32) ([]int32, error) {
	if cap(s.gids) < v.Len() {
		s.gids = make([]int32, v.Len())
	}
	gids := s.gids[:v.Len()]
	nulls := v.HasNulls()
	id := int32(-1) // the previous non-null row's group
	var err error
	switch v.Kind {
	case VecString, VecBytes:
		var prev []byte
		for _, i := range rows {
			if nulls && v.IsNull(int(i)) {
				if gids[i], err = s.groupID(gkey{kind: 'n'}, nil); err != nil {
					return nil, err
				}
				continue
			}
			if b := v.BytesAt(int(i)); id < 0 || !bytes.Equal(b, prev) {
				var ok bool
				if id, ok = s.byStr[string(b)]; !ok { // the conversion in a map index does not allocate
					if id, err = s.addGroup(gkey{kind: 's', s: string(b)}, v.Value(&s.bx, int(i))); err != nil {
						return nil, err
					}
				}
				prev = b
			}
			gids[i] = id
		}
	case VecBool, VecInt32, VecInt64, VecFloat64:
		// Fixed-width keys: by value, or by bit pattern for floats.
		index, kind := s.byInt, byte('b')
		if v.Kind == VecFloat64 {
			index, kind = s.byFloat, 'f'
		}
		var prev int64
		for _, i := range rows {
			if nulls && v.IsNull(int(i)) {
				if gids[i], err = s.groupID(gkey{kind: 'n'}, nil); err != nil {
					return nil, err
				}
				continue
			}
			var x int64
			if kind == 'f' {
				x = int64(math.Float64bits(v.Floats[i]))
			} else {
				x = v.Ints[i]
			}
			if id < 0 || x != prev {
				var ok bool
				if id, ok = index[x]; !ok {
					if id, err = s.addGroup(gkey{kind: kind, i: x}, v.Value(&s.bx, int(i))); err != nil {
						return nil, err
					}
				}
				prev = x
			}
			gids[i] = id
		}
	default: // boxed rows key themselves as records' values do
		for _, i := range rows {
			val := v.Value(&s.bx, int(i))
			key, err := groupKeyOf(val)
			if err != nil {
				return nil, err
			}
			if gids[i], err = s.groupID(key, val); err != nil {
				return nil, err
			}
		}
	}
	return gids, nil
}

// accSlot addresses one function's accumulators across a batch: group
// gids[i]'s for batch row i, or the only group's when the aggregation is
// ungrouped (gids nil, accs that group's).
type accSlot struct {
	accs   []aggAcc
	nf, fi int
	gids   []int32
	bx     *serde.Boxer // the state's
}

func (t accSlot) at(i int32) *aggAcc {
	if t.gids == nil {
		return &t.accs[t.fi]
	}
	return &t.accs[int(t.gids[i])*t.nf+t.fi]
}

// addCount counts rows: each to its group, or all n of them at once to the
// only group.
func (t accSlot) addCount(rows []int32, n int) {
	if t.gids == nil {
		t.accs[t.fi].count += int64(n)
		return
	}
	for _, i := range rows {
		t.accs[int(t.gids[i])*t.nf+t.fi].count++
	}
}

// foldColumn folds function f over v's selected rows (rows lists them when
// the fold needs a list) with the typed loop for f and v's representation.
func (s *AggState) foldColumn(t accSlot, f AggFunc, v *Vector, sel *Selection, rows []int32) error {
	switch {
	case f.Kind == AggCount:
		t.addCount(rows, sel.Count())
		return nil
	case v.Kind == VecAny:
		// Boxed rows are objects already, and one can be nil with no null
		// bit: they fold as record values do.
		return foldBoxed(t, f, v, rows)
	case f.Kind == AggCountCol && t.gids == nil:
		t.addCount(nil, sel.countWithout(v.null))
		return nil
	}
	if v.HasNulls() {
		s.valid = s.valid[:0]
		for _, i := range rows {
			if !v.IsNull(int(i)) {
				s.valid = append(s.valid, i)
			}
		}
		rows = s.valid
	}
	switch f.Kind {
	case AggCountCol:
		t.addCount(rows, len(rows))
	case AggMin, AggMax:
		return t.foldBounds(f, v, rows)
	default: // AggSum, AggAvg
		switch v.Kind {
		case VecInt32, VecInt64:
			t.sumInts(v.Ints, rows)
		case VecFloat64:
			t.sumFloats(v.Floats, rows)
		default:
			return foldBoxed(t, f, v, rows) // not a number: foldValue words the error
		}
		if f.Kind == AggAvg {
			t.addCount(rows, len(rows))
		}
	}
	return nil
}

// foldBoxed is the batch fold's row loop: each row boxed and folded as a
// record's value would be.
func foldBoxed(t accSlot, f AggFunc, v *Vector, rows []int32) error {
	for _, i := range rows {
		if val := v.Value(t.bx, int(i)); val != nil {
			if err := t.at(i).foldValue(f.Kind, f.Col, val); err != nil {
				return err
			}
		}
	}
	return nil
}

func (t accSlot) sumInts(ints []int64, rows []int32) {
	if len(rows) == 0 {
		return
	}
	if t.gids == nil {
		var sum int64
		for _, i := range rows {
			sum += ints[i]
		}
		acc := &t.accs[t.fi]
		acc.sumI += sum
		acc.hasVal = true
		return
	}
	for _, i := range rows {
		acc := &t.accs[int(t.gids[i])*t.nf+t.fi]
		acc.sumI += ints[i]
		acc.hasVal = true
	}
}

// sumFloats adds one value at a time, in row order, into the running sum:
// float addition does not reassociate, and the record fold adds in this
// order.
func (t accSlot) sumFloats(floats []float64, rows []int32) {
	for _, i := range rows {
		acc := t.at(i)
		acc.sumF += floats[i]
		acc.hasVal, acc.sumIsF = true, true
	}
}

// foldBounds folds MIN or MAX over non-null rows, comparing in v's own
// representation and boxing a row only when it becomes the bound. A bound
// of another type — possible only where earlier folds saw the column under
// a different schema — takes the row through foldValue, which compares
// across numeric types and words the error for incomparable ones.
func (t accSlot) foldBounds(f AggFunc, v *Vector, rows []int32) error {
	for _, i := range rows {
		acc := t.at(i)
		if acc.hasVal {
			c, ok := v.compareBound(int(i), acc.bound)
			if !ok {
				if err := acc.foldValue(f.Kind, f.Col, v.Value(t.bx, int(i))); err != nil {
					return err
				}
				continue
			}
			if !f.Kind.improves(c) {
				continue
			}
		}
		acc.hasVal = true
		acc.bound = v.Value(t.bx, int(i))
	}
	return nil
}

// FoldRecord folds one record's values — the scalar site, identical in
// result to FoldBatch over a one-row selection.
func (s *AggState) FoldRecord(ev Evaluator) error {
	var gv any
	if s.agg.GroupBy != "" {
		var err error
		if gv, err = ev.Value(s.agg.GroupBy); err != nil {
			return err
		}
	}
	key, err := groupKeyOf(gv)
	if err != nil {
		return err
	}
	g, err := s.groupID(key, gv)
	if err != nil {
		return err
	}
	accs := s.groupAccs(g)
	for fi, f := range s.agg.Funcs {
		if f.Kind == AggCount {
			accs[fi].count++
			continue
		}
		val, err := ev.Value(f.Col)
		if err != nil {
			return err
		}
		if val == nil {
			continue
		}
		if err := accs[fi].foldValue(f.Kind, f.Col, val); err != nil {
			return err
		}
	}
	return nil
}

// StatsAnswerable reports whether a record group whose zone map already
// proves every row matches can be folded from its ColStats alone — the
// zero-decode path. rows is the group's row extent; every consulted
// column's stats entry must cover exactly those rows (the caller aligns
// extents). The conditions, per function:
//
//   - count: always (rows is the answer).
//   - count(col): the column's stats are present (rows - nulls).
//   - min(col)/max(col): the column records bounds (HasMinMax), or is
//     entirely null (contributes nothing). The bounds are exact values
//     present in the group, not approximations, so folding them equals
//     folding every row.
//   - sum(col): only when the column is entirely null — there is no sum
//     statistic, so any non-null row forces a decode.
//
// With GROUP BY, the grouping column must additionally be constant across
// the group (Min == Max with no nulls, or all rows null): otherwise rows
// cannot be attributed to keys without decoding.
func (s *AggState) StatsAnswerable(rows int64, stats StatsFunc) bool {
	if s.agg.GroupBy != "" {
		gst := stats(s.agg.GroupBy)
		if gst == nil || gst.Rows != rows {
			return false
		}
		switch {
		case gst.Nulls == rows:
			// Constant null key.
		case gst.Nulls == 0 && gst.HasMinMax:
			c, ok := CompareValues(gst.Min, gst.Max)
			if !ok || c != 0 {
				return false
			}
		default:
			return false
		}
	}
	for _, f := range s.agg.Funcs {
		if f.Kind == AggCount {
			continue
		}
		st := stats(f.Col)
		if st == nil || st.Rows != rows {
			return false
		}
		switch f.Kind {
		case AggCountCol:
			// rows - nulls is exact.
		case AggMin, AggMax:
			if st.Nulls != rows && !st.HasMinMax {
				return false
			}
		case AggSum, AggAvg:
			if st.Nulls != rows {
				return false
			}
		}
	}
	return true
}

// FoldStats folds an AllMatch-decided group of rows records from its zone
// stats with zero bytes decoded. The caller must have checked
// StatsAnswerable with the same arguments.
func (s *AggState) FoldStats(rows int64, stats StatsFunc) error {
	var gv any
	if s.agg.GroupBy != "" {
		if gst := stats(s.agg.GroupBy); gst.Nulls != rows {
			gv = gst.Min
		}
	}
	key, err := groupKeyOf(gv)
	if err != nil {
		return err
	}
	g, err := s.groupID(key, gv)
	if err != nil {
		return err
	}
	accs := s.groupAccs(g)
	for fi, f := range s.agg.Funcs {
		acc := &accs[fi]
		switch f.Kind {
		case AggCount:
			acc.count += rows
		case AggCountCol:
			st := stats(f.Col)
			acc.count += rows - st.Nulls
		case AggMin, AggMax:
			st := stats(f.Col)
			if st.Nulls == rows {
				continue
			}
			bound := st.Min
			if f.Kind == AggMax {
				bound = st.Max
			}
			if err := acc.foldValue(f.Kind, f.Col, bound); err != nil {
				return err
			}
		case AggSum, AggAvg:
			// All null: nothing to fold (StatsAnswerable guaranteed it).
		}
	}
	return nil
}

// Merge folds another state (over disjoint rows) into s — the cross-task
// combine. Both states must fold the same spec.
func (s *AggState) Merge(o *AggState) error {
	if o == nil {
		return nil
	}
	for og, key := range o.keys {
		g, err := s.groupID(key, o.vals[og])
		if err != nil {
			return err
		}
		accs, oaccs := s.groupAccs(g), o.groupAccs(int32(og))
		for fi, f := range s.agg.Funcs {
			acc, oacc := &accs[fi], &oaccs[fi]
			switch f.Kind {
			case AggCount, AggCountCol:
				acc.count += oacc.count
			case AggMin, AggMax:
				if oacc.hasVal {
					if err := acc.foldValue(f.Kind, f.Col, oacc.bound); err != nil {
						return err
					}
				}
			case AggSum, AggAvg:
				if oacc.hasVal {
					acc.hasVal = true
					acc.sumI += oacc.sumI
					acc.sumF += oacc.sumF
					acc.sumIsF = acc.sumIsF || oacc.sumIsF
					acc.count += oacc.count // avg's non-null count (0 for sum)
				}
			}
		}
	}
	return nil
}

// AggRow is one output row: the group value (nil for the global group of
// an ungrouped aggregation) and one value per function.
type AggRow struct {
	Group  any
	Values []any
}

// Rows returns the aggregation's output, one row per group, ordered by
// group value (nulls first) so results are deterministic across task
// scheduling and merge order. A global aggregate (no GROUP BY) over zero
// rows still yields its one row — COUNT 0, MIN/MAX/SUM null — the SQL
// convention; an empty GROUP BY result yields no rows.
func (s *AggState) Rows() []AggRow {
	if s.agg.GroupBy == "" && len(s.keys) == 0 {
		vals := make([]any, len(s.agg.Funcs))
		for i, f := range s.agg.Funcs {
			var zero aggAcc
			vals[i] = zero.value(f.Kind)
		}
		return []AggRow{{Values: vals}}
	}
	ids := make([]int32, len(s.keys))
	for i := range ids {
		ids[i] = int32(i)
	}
	sort.Slice(ids, func(i, j int) bool { return gkeyLess(s.keys[ids[i]], s.keys[ids[j]]) })
	out := make([]AggRow, 0, len(ids))
	for _, g := range ids {
		accs := s.groupAccs(g)
		row := AggRow{Group: s.vals[g], Values: make([]any, len(accs))}
		for fi, f := range s.agg.Funcs {
			row.Values[fi] = accs[fi].value(f.Kind)
		}
		out = append(out, row)
	}
	return out
}

func gkeyLess(a, b gkey) bool {
	if a.kind != b.kind {
		// One group-by column yields one value kind, so mixed kinds can
		// only be null vs value: nulls sort first.
		return a.kind == 'n'
	}
	switch a.kind {
	case 'n':
		return false
	case 'f':
		af, bf := math.Float64frombits(uint64(a.i)), math.Float64frombits(uint64(b.i))
		c := cmpFloat(af, bf)
		return c < 0
	case 's':
		return a.s < b.s
	default:
		return a.i < b.i
	}
}
