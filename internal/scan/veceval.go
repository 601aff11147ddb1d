package scan

import (
	"bytes"
	"math"

	"colmr/internal/serde"
)

// Vectorized predicate evaluation. VecEval narrows a Selection over a batch
// instead of deciding one record at a time; AND is bitmap intersection with
// short-circuit (an empty running selection stops evaluating — and so stops
// decoding — further children's columns), OR is bitmap union over the rows
// the earlier children left undecided.
//
// Equivalence with the scalar path is exact on the rows it matters for:
// VecEval examines exactly the (row, subpredicate) pairs the scalar
// short-circuit order would examine, so nulls, type-mismatch errors, and
// verdicts all agree with per-record Eval — the property the vectorize
// on/off test dimension asserts.

// VecSource provides column vectors for the rows of the current batch. It
// is the batch analogue of Evaluator: ColVec resolves (and lazily decodes)
// a whole column, KeyVec answers map-key existence from storage-level
// capabilities (the DCSL window dictionary) without decoding the maps.
type VecSource interface {
	// ColVec returns the column's vector for the batch, decoding it on
	// first use. The vector is read-only.
	ColVec(column string) (*Vector, error)
	// KeyVec decides key existence for the selected rows, returning the
	// subset of sel whose maps contain key. answered reports whether the
	// store could decide; when false the caller falls back to ColVec.
	// sel is not mutated.
	KeyVec(column, key string, sel *Selection) (res *Selection, answered bool, err error)
}

// cmpFloat mirrors CompareValues' float branch: a total order with NaN
// below -Inf and NaN == NaN.
func cmpFloat(a, b float64) int {
	aN, bN := math.IsNaN(a), math.IsNaN(b)
	switch {
	case aN && bN:
		return 0
	case aN:
		return -1
	case bN:
		return 1
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// vecComparer returns a per-row comparator of v's rows against lit, chosen
// once per batch so the row loop is branch-light and allocation-free, or
// nil when rows of this representation cannot uniformly compare with lit
// (the caller then falls back to boxed CompareValues per row, which yields
// the exact scalar-path verdicts and errors). Null rows must be handled by
// the caller before invoking the comparator.
func vecComparer(v *Vector, lit any) func(i int) int {
	switch v.Kind {
	case VecBool:
		if b, ok := lit.(bool); ok {
			lb := int64(0)
			if b {
				lb = 1
			}
			return func(i int) int {
				switch x := v.Ints[i]; {
				case x == lb:
					return 0
				case x == 0:
					return -1
				default:
					return 1
				}
			}
		}
	case VecInt32, VecInt64:
		if li, ok := asInt(lit); ok {
			return func(i int) int {
				switch x := v.Ints[i]; {
				case x < li:
					return -1
				case x > li:
					return 1
				default:
					return 0
				}
			}
		}
		if lf, ok := asFloat(lit); ok {
			return func(i int) int { return cmpFloat(float64(v.Ints[i]), lf) }
		}
	case VecFloat64:
		if lf, ok := asFloat(lit); ok {
			return func(i int) int { return cmpFloat(v.Floats[i], lf) }
		}
	case VecString, VecBytes:
		var lb []byte
		switch x := lit.(type) {
		case string:
			lb = []byte(x)
		case []byte:
			lb = x
		default:
			return nil
		}
		return func(i int) int { return bytes.Compare(v.BytesAt(i), lb) }
	}
	return nil
}

// VecEval implements Predicate.
func (p *cmpPred) VecEval(src VecSource, in *Selection) (*Selection, error) {
	out := GetEmptySelection(in.Len())
	if in.Empty() {
		return out, nil
	}
	// Equality and inequality against a string literal try the
	// dictionary-id space first: on DCSL columns the batch's ids decode
	// without the strings, the needle resolves once per window, and the
	// row loop compares integers (scan/idvec.go).
	if p.op == OpEq || p.op == OpNe {
		if needle, isStr := litAsString(p.lit); isStr {
			if ids, ok := src.(IDSource); ok {
				iv, err := ids.IDVec(p.col)
				if err != nil {
					PutSelection(out)
					return nil, err
				}
				if iv != nil {
					PutSelection(out)
					return p.vecEvalIDs(src, iv, in, needle), nil
				}
			}
		}
	}
	v, err := src.ColVec(p.col)
	if err != nil {
		return nil, err
	}
	cmp := vecComparer(v, p.lit)
	var bx serde.Boxer // rows boxed here are compared, never kept
	for i := in.Next(0); i >= 0; i = in.Next(i + 1) {
		if v.IsNull(i) {
			continue
		}
		if cmp != nil {
			if opHolds(p.op, cmp(i)) {
				out.Set(i)
			}
			continue
		}
		val := v.Value(&bx, i)
		if val == nil {
			continue
		}
		c, ok := CompareValues(val, p.lit)
		if !ok {
			return nil, queryErrorf("scan: cannot compare column %q value %T with literal %T", p.col, val, p.lit)
		}
		if opHolds(p.op, c) {
			out.Set(i)
		}
	}
	return out, nil
}

// VecEval implements Predicate.
func (p *rangePred) VecEval(src VecSource, in *Selection) (*Selection, error) {
	out := GetEmptySelection(in.Len())
	if in.Empty() {
		return out, nil
	}
	v, err := src.ColVec(p.col)
	if err != nil {
		return nil, err
	}
	cmpLo, cmpHi := vecComparer(v, p.lo), vecComparer(v, p.hi)
	var bx serde.Boxer // rows boxed here are compared, never kept
	for i := in.Next(0); i >= 0; i = in.Next(i + 1) {
		if v.IsNull(i) {
			continue
		}
		if cmpLo != nil && cmpHi != nil {
			if cmpLo(i) >= 0 && cmpHi(i) <= 0 {
				out.Set(i)
			}
			continue
		}
		val := v.Value(&bx, i)
		if val == nil {
			continue
		}
		cLo, okLo := CompareValues(val, p.lo)
		cHi, okHi := CompareValues(val, p.hi)
		if !okLo || !okHi {
			return nil, queryErrorf("scan: cannot compare column %q value %T with range [%T, %T]", p.col, val, p.lo, p.hi)
		}
		if cLo >= 0 && cHi <= 0 {
			out.Set(i)
		}
	}
	return out, nil
}

// VecEval implements Predicate.
func (p *prefixPred) VecEval(src VecSource, in *Selection) (*Selection, error) {
	out := GetEmptySelection(in.Len())
	if in.Empty() {
		return out, nil
	}
	v, err := src.ColVec(p.col)
	if err != nil {
		return nil, err
	}
	pb := []byte(p.prefix)
	if v.Kind == VecString || v.Kind == VecBytes {
		for i := in.Next(0); i >= 0; i = in.Next(i + 1) {
			if v.IsNull(i) {
				continue
			}
			if bytes.HasPrefix(v.BytesAt(i), pb) {
				out.Set(i)
			}
		}
		return out, nil
	}
	var bx serde.Boxer // rows boxed here are compared, never kept
	for i := in.Next(0); i >= 0; i = in.Next(i + 1) {
		if v.IsNull(i) {
			continue
		}
		switch s := v.Value(&bx, i).(type) {
		case nil:
		case string:
			if bytes.HasPrefix([]byte(s), pb) {
				out.Set(i)
			}
		case []byte:
			if bytes.HasPrefix(s, pb) {
				out.Set(i)
			}
		default:
			return nil, queryErrorf("scan: prefix on non-string column %q (%T)", p.col, s)
		}
	}
	return out, nil
}

// VecEval implements Predicate.
func (p *nullPred) VecEval(src VecSource, in *Selection) (*Selection, error) {
	if in.Empty() {
		return GetEmptySelection(in.Len()), nil
	}
	// A dictionary-encoded column answers nullness from its id vector's
	// null bitmap — no value bytes decoded.
	if ids, ok := src.(IDSource); ok {
		iv, err := ids.IDVec(p.col)
		if err != nil {
			return nil, err
		}
		if iv != nil {
			out := GetEmptySelection(in.Len())
			for i := in.Next(0); i >= 0; i = in.Next(i + 1) {
				if iv.IsNull(i) != p.negate {
					out.Set(i)
				}
			}
			return out, nil
		}
	}
	v, err := src.ColVec(p.col)
	if err != nil {
		return nil, err
	}
	if v.Kind == VecAny {
		// Boxed rows represent SQL NULL as a nil value, like the scalar
		// path, whether or not the validity bitmap tags them.
		out := GetEmptySelection(in.Len())
		for i := in.Next(0); i >= 0; i = in.Next(i + 1) {
			if (v.IsNull(i) || v.Anys[i] == nil) != p.negate {
				out.Set(i)
			}
		}
		return out, nil
	}
	if !v.HasNulls() {
		if p.negate {
			return in.cloneFromPool(), nil
		}
		return GetEmptySelection(in.Len()), nil
	}
	out := GetEmptySelection(in.Len())
	for i := in.Next(0); i >= 0; i = in.Next(i + 1) {
		if v.IsNull(i) != p.negate {
			out.Set(i)
		}
	}
	return out, nil
}

// VecEval implements Predicate.
func (p *keyPred) VecEval(src VecSource, in *Selection) (*Selection, error) {
	if in.Empty() {
		return GetEmptySelection(in.Len()), nil
	}
	if res, answered, err := src.KeyVec(p.col, p.key, in); err != nil {
		return nil, err
	} else if answered {
		return res, nil
	}
	v, err := src.ColVec(p.col)
	if err != nil {
		return nil, err
	}
	out := GetEmptySelection(in.Len())
	var bx serde.Boxer // rows boxed here are compared, never kept
	for i := in.Next(0); i >= 0; i = in.Next(i + 1) {
		if v.IsNull(i) {
			continue
		}
		val := v.Value(&bx, i)
		if val == nil {
			continue
		}
		m, ok := val.(map[string]any)
		if !ok {
			return nil, queryErrorf("scan: exists on non-map column %q (%T)", p.col, val)
		}
		if _, has := m[p.key]; has {
			out.Set(i)
		}
	}
	return out, nil
}

// VecEval implements Predicate: bitmap intersection with short-circuit —
// child k+1 sees only the rows child k accepted, so its column is never
// decoded for a batch the running selection already emptied (ColVec is
// lazy), and type errors on rows an earlier child rejected never surface,
// exactly like the scalar && order.
func (p *andPred) VecEval(src VecSource, in *Selection) (*Selection, error) {
	cur := in
	for _, k := range p.kids {
		if cur.Empty() {
			break
		}
		res, err := k.VecEval(src, cur)
		if err != nil {
			if cur != in {
				PutSelection(cur)
			}
			return nil, err
		}
		if cur != in {
			PutSelection(cur)
		}
		cur = res
	}
	if cur == in {
		cur = in.cloneFromPool()
	}
	return cur, nil
}

// VecEval implements Predicate: bitmap union over the rows the earlier
// children left undecided — child k+1 evaluates only where children 1..k
// were all false, exactly the rows the scalar || order would reach it on.
func (p *orPred) VecEval(src VecSource, in *Selection) (*Selection, error) {
	out := GetEmptySelection(in.Len())
	rem := in.cloneFromPool()
	for _, k := range p.kids {
		if rem.Empty() {
			break
		}
		res, err := k.VecEval(src, rem)
		if err != nil {
			PutSelection(rem)
			PutSelection(out)
			return nil, err
		}
		out.Or(res)
		rem.AndNot(res)
		PutSelection(res)
	}
	PutSelection(rem)
	return out, nil
}

// VecEval implements Predicate: the strict complement within in. The child
// is evaluated on every candidate row, like the scalar path.
func (p *notPred) VecEval(src VecSource, in *Selection) (*Selection, error) {
	res, err := p.kid.VecEval(src, in)
	if err != nil {
		return nil, err
	}
	out := in.cloneFromPool()
	out.AndNot(res)
	PutSelection(res)
	return out, nil
}

// EagerColumns returns the columns a vectorized evaluation of p is certain
// to decode for any batch with a non-empty candidate selection — the set a
// batch builder can prefetch in parallel without ever decoding a column the
// short-circuit order would have skipped. Conjunctions contribute only
// their first child (later children may be short-circuited away);
// disjunctions contribute every child (each sees at least the rows all
// earlier children rejected — only emptiness, unknowable up front, stops
// them); exists() columns are excluded because probing layouts answer them
// without decoding.
func EagerColumns(p Predicate) []string {
	if p == nil {
		return nil
	}
	return eagerColumns(p, nil)
}

func eagerColumns(p Predicate, dst []string) []string {
	switch q := p.(type) {
	case *cmpPred:
		return appendColumn(dst, q.col)
	case *rangePred:
		return appendColumn(dst, q.col)
	case *prefixPred:
		return appendColumn(dst, q.col)
	case *nullPred:
		return appendColumn(dst, q.col)
	case *keyPred:
		return dst
	case *andPred:
		if len(q.kids) > 0 {
			return eagerColumns(q.kids[0], dst)
		}
		return dst
	case *orPred:
		for _, k := range q.kids {
			dst = eagerColumns(k, dst)
		}
		return dst
	case *notPred:
		return eagerColumns(q.kid, dst)
	}
	return dst
}

// ProbeOnlyColumns returns the columns the given predicates read through
// exactly one key-existence test and never by value — the candidates for
// batch key probing (VecSource.KeyVec). A batch probe consumes the column's
// stream for the whole batch without producing values, which is safe only
// when no other evaluation site will ask the same cursor for a value or a
// second probe within the batch: a second exists() or any comparison — in
// any of the predicates sharing the cursor set — disqualifies the column
// here, and the caller must additionally exclude projected columns. Nil
// predicates are ignored.
func ProbeOnlyColumns(ps ...Predicate) []string {
	key := map[string]int{}
	val := map[string]int{}
	var cols []string
	for _, p := range ps {
		if p == nil {
			continue
		}
		cols = p.Columns(cols)
		countColumnUses(p, key, val)
	}
	var out []string
	for _, col := range cols {
		if key[col] == 1 && val[col] == 0 {
			out = append(out, col)
		}
	}
	return out
}

// IDOnlyColumns returns the columns whose every use across the given
// predicates is answerable in dictionary-id space: equality or inequality
// against a string-ish literal, and null tests (the id vector carries the
// null bitmap). Decoding a column's id vector consumes its stream for the
// batch without producing values, so the capability is safe only when no
// evaluation site will ask the same cursor for values — any range, prefix,
// non-string comparison, or key probe on the column, in any of the
// predicates sharing the cursor set, disqualifies it, and the caller must
// additionally exclude projected and aggregated columns. Nil predicates
// are ignored.
func IDOnlyColumns(ps ...Predicate) []string {
	idu := map[string]int{}
	other := map[string]int{}
	var cols []string
	for _, p := range ps {
		if p == nil {
			continue
		}
		cols = p.Columns(cols)
		countIDUses(p, idu, other)
	}
	var out []string
	for _, col := range cols {
		if idu[col] >= 1 && other[col] == 0 {
			out = append(out, col)
		}
	}
	return out
}

func countIDUses(p Predicate, idu, other map[string]int) {
	switch q := p.(type) {
	case *cmpPred:
		if q.op == OpEq || q.op == OpNe {
			if _, ok := litAsString(q.lit); ok {
				idu[q.col]++
				return
			}
		}
		other[q.col]++
	case *rangePred:
		other[q.col]++
	case *prefixPred:
		other[q.col]++
	case *nullPred:
		idu[q.col]++
	case *keyPred:
		other[q.col]++
	case *andPred:
		for _, k := range q.kids {
			countIDUses(k, idu, other)
		}
	case *orPred:
		for _, k := range q.kids {
			countIDUses(k, idu, other)
		}
	case *notPred:
		countIDUses(q.kid, idu, other)
	}
}

func countColumnUses(p Predicate, key, val map[string]int) {
	switch q := p.(type) {
	case *cmpPred:
		val[q.col]++
	case *rangePred:
		val[q.col]++
	case *prefixPred:
		val[q.col]++
	case *nullPred:
		val[q.col]++
	case *keyPred:
		key[q.col]++
	case *andPred:
		for _, k := range q.kids {
			countColumnUses(k, key, val)
		}
	case *orPred:
		for _, k := range q.kids {
			countColumnUses(k, key, val)
		}
	case *notPred:
		countColumnUses(q.kid, key, val)
	}
}
