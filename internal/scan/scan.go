package scan

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// QueryError is an error the query caused rather than the data: it names a
// column the dataset lacks, or compares, folds or groups values as a type
// they are not. The scan server answers it as a bad request.
type QueryError struct{ Err error }

func (e *QueryError) Error() string { return e.Err.Error() }
func (e *QueryError) Unwrap() error { return e.Err }

func queryErrorf(format string, args ...any) error {
	return &QueryError{fmt.Errorf(format, args...)}
}

// Tri is the zone-map verdict on a record group, ordered NoMatch <
// MayMatch < AllMatch. NoMatch and AllMatch are proofs; MayMatch is not a
// promise.
type Tri int

const (
	// NoMatch proves no record in the group satisfies the predicate.
	NoMatch Tri = iota
	// MayMatch means the statistics prove neither extreme.
	MayMatch
	// AllMatch proves every record in the group satisfies the predicate.
	AllMatch
)

// negate is a negation's verdict: the two proofs swap.
func (t Tri) negate() Tri { return AllMatch - t }

// String returns a short name for the verdict.
func (t Tri) String() string {
	switch t {
	case NoMatch:
		return "no-match"
	case AllMatch:
		return "all-match"
	}
	return "may-match"
}

// ColStats are zone-map statistics for one column over one record group —
// the per-skip-block metadata PowerDrill-style engines use to skip chunks.
// internal/colfile writes one ColStats per group into each column file's
// stats footer and exposes it through colfile.StatsSource.
type ColStats struct {
	// Rows is the number of records in the group.
	Rows int64
	// Nulls is the number of null values (always 0 for datasets loaded by
	// COF, which rejects unset fields; kept for completeness).
	Nulls int64
	// Distinct is the number of distinct values observed, exact unless
	// DistinctCapped, in which case it is a lower bound.
	Distinct       int64
	DistinctCapped bool
	// HasMinMax reports whether Min and Max are populated. It is true for
	// ordered primitive columns (bool, int, long, time, double, string)
	// and false for complex types.
	HasMinMax bool
	// Min and Max are the smallest and largest values in the group, using
	// the serde Go representations.
	Min, Max any
	// HasKeys reports whether Keys is populated (map columns only). Keys
	// is the sorted union of map keys present in the group, complete
	// unless KeysCapped, in which case it is a subset.
	HasKeys    bool
	Keys       []string
	KeysCapped bool
	// Bloom is an optional membership filter over the group's byte
	// strings: column values for string/bytes columns, map keys for map
	// columns (so Bloom != nil on a HasMinMax column means values, and on
	// a HasKeys column means keys — the storage layer never blooms other
	// kinds). A negative probe is a proof of absence; nil means no filter
	// (older footers, non-bloomed kinds, or a filter dropped for
	// saturation) and refutes nothing.
	Bloom *Bloom
	// BloomFill is the filter's fill fraction recorded at write time (CFS4
	// sections), in (0, 1]; 0 means unrecorded, and estimation falls back
	// to counting the decoded filter's bits. It weights bloom-positive
	// equality estimates by the filter's false-positive confidence.
	BloomFill float64
	// Hist is an optional equi-depth histogram over the group's non-null
	// values (CFS4 file-level aggregates). nil means no histogram: range
	// and equality estimation fall back to the uniform-spread model.
	// Histograms never participate in pruning — they are built from a
	// sample and prove nothing.
	Hist *Histogram
}

// HasKey reports whether the group's key universe contains key. It is only
// meaningful when HasKeys is true. The Bloom filter, when present, is
// consulted first: a negative probe refutes membership without walking the
// key list (and stays exact even when the list itself is capped, because
// the filter covers every key observed, not just the retained subset).
func (s *ColStats) HasKey(key string) bool {
	if s.Bloom != nil && !s.Bloom.MayContainString(key) {
		return false
	}
	i := sort.SearchStrings(s.Keys, key)
	return i < len(s.Keys) && s.Keys[i] == key
}

// Merge widens s to also cover the records o describes, keeping every
// conservative property pruning relies on: the merged Min/Max bound the
// union, the merged key universe is complete only if both inputs' were, and
// Distinct degrades to a capped lower bound (distinct sets may overlap, so
// neither sum nor max is exact). Merging per-group entries yields the
// whole-file aggregate the scheduler tier prunes splits with.
func (s *ColStats) Merge(o *ColStats) {
	sVals := s.Nulls < s.Rows // s covers at least one non-null value
	oVals := o.Nulls < o.Rows
	s.Rows += o.Rows
	s.Nulls += o.Nulls
	if o.Distinct > s.Distinct {
		s.Distinct = o.Distinct
	}
	if sVals && oVals {
		// Overlap between the two distinct sets is unknown.
		s.DistinctCapped = true
	} else {
		s.DistinctCapped = s.DistinctCapped || o.DistinctCapped
	}
	switch {
	case !oVals:
		// o contributes no values: bounds, key universe, and filter are
		// unchanged.
	case !sVals:
		// s contributed no values: adopt o's wholesale.
		s.HasMinMax, s.Min, s.Max = o.HasMinMax, o.Min, o.Max
		s.HasKeys, s.KeysCapped = o.HasKeys, o.KeysCapped
		s.Keys = append([]string(nil), o.Keys...)
		s.Bloom = o.Bloom.Clone()
		s.BloomFill = o.BloomFill
		s.Hist = o.Hist // histograms are immutable once built
	default:
		if s.HasMinMax && o.HasMinMax {
			if c, ok := CompareValues(o.Min, s.Min); ok && c < 0 {
				s.Min = o.Min
			}
			if c, ok := CompareValues(o.Max, s.Max); ok && c > 0 {
				s.Max = o.Max
			}
		} else {
			s.HasMinMax, s.Min, s.Max = false, nil, nil
		}
		if s.HasKeys && o.HasKeys {
			s.Keys = mergeSortedKeys(s.Keys, o.Keys)
			s.KeysCapped = s.KeysCapped || o.KeysCapped
		} else if s.HasKeys || o.HasKeys {
			// One side has values but tracked no universe: the union is
			// incomplete, so it can no longer disprove key existence.
			s.Keys = mergeSortedKeys(s.Keys, o.Keys)
			s.HasKeys = true
			s.KeysCapped = true
		}
		// The merged filter must may-contain every byte string either side
		// may-contain: OR when both carry compatible filters, nil (no
		// statistic) when either is missing or the union saturates. This
		// is how per-group filters roll up into the whole-file aggregate
		// that split elision reads.
		s.Bloom = mergeBlooms(s.Bloom, o.Bloom)
		s.BloomFill = s.Bloom.FillFraction()
		// Two histograms over different row sets cannot be merged without
		// resampling (bucket boundaries disagree); degrade to "no
		// histogram" and let estimation fall back to the uniform model.
		s.Hist = nil
	}
}

// mergeSortedKeys unions two sorted string slices into a fresh slice.
func mergeSortedKeys(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// Evaluator resolves the current record's values for exact predicate
// evaluation. Every leaf, exists() included, decides from Value; deciding
// from a storage layer's encoding (a DCSL window dictionary) is the batch
// path's job (VecSource.KeyVec).
type Evaluator interface {
	// Value resolves a column name to the current record's value. A nil
	// value with a nil error represents SQL NULL.
	Value(column string) (any, error)
}

// Getter adapts a plain column-value function to Evaluator. A nil value
// with a nil error represents SQL NULL.
type Getter func(column string) (any, error)

// Value implements Evaluator.
func (g Getter) Value(column string) (any, error) { return g(column) }

// StatsFunc resolves a column name to the zone-map statistics of the record
// group under consideration. Returning nil means "no statistics available",
// which pruning treats as MayMatch.
type StatsFunc func(column string) *ColStats

// Predicate is a pushdown filter over records. Implementations are closed
// to this package so that every predicate serializes through String and
// Parse.
type Predicate interface {
	// Eval decides the predicate exactly for one record. Comparisons,
	// prefix, and key tests against a null value are false (no
	// three-valued logic: Not(x) is the strict complement of x).
	Eval(ev Evaluator) (bool, error)
	// VecEval decides the predicate for a whole batch: it returns the
	// subset of in whose rows match, examining exactly the
	// (row, subpredicate) pairs the scalar short-circuit order would, so
	// verdicts and errors agree with per-record Eval. in is not mutated.
	VecEval(src VecSource, in *Selection) (*Selection, error)
	// Prune decides conservatively, from per-column zone maps, whether no
	// record of a group matches (NoMatch), every record does (AllMatch),
	// or the statistics cannot tell (MayMatch).
	Prune(stats StatsFunc) Tri
	// Columns appends the distinct top-level columns the predicate reads,
	// preserving first-appearance order.
	Columns(dst []string) []string
	// String renders the predicate in the expression language accepted by
	// Parse.
	String() string
}

// Op is a comparison operator.
type Op int

// Comparison operators.
const (
	OpEq Op = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String returns the operator's expression-language spelling.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "=="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Builders. Literals may be any Go integer or float type, string, bool, or
// []byte; integers normalize to int64 and floats to float64, and compare
// across the column's native width (an int64 literal matches an int32
// column).

// Cmp returns the comparison predicate "col op lit".
func Cmp(col string, op Op, lit any) Predicate {
	return &cmpPred{col: col, op: op, lit: normLiteral(lit)}
}

// Eq returns "col == lit".
func Eq(col string, lit any) Predicate { return Cmp(col, OpEq, lit) }

// Ne returns "col != lit".
func Ne(col string, lit any) Predicate { return Cmp(col, OpNe, lit) }

// Lt returns "col < lit".
func Lt(col string, lit any) Predicate { return Cmp(col, OpLt, lit) }

// Le returns "col <= lit".
func Le(col string, lit any) Predicate { return Cmp(col, OpLe, lit) }

// Gt returns "col > lit".
func Gt(col string, lit any) Predicate { return Cmp(col, OpGt, lit) }

// Ge returns "col >= lit".
func Ge(col string, lit any) Predicate { return Cmp(col, OpGe, lit) }

// Between returns the inclusive range predicate lo <= col <= hi.
func Between(col string, lo, hi any) Predicate {
	return &rangePred{col: col, lo: normLiteral(lo), hi: normLiteral(hi)}
}

// HasPrefix returns the string-prefix predicate on col.
func HasPrefix(col, prefix string) Predicate {
	return &prefixPred{col: col, prefix: prefix}
}

// KeyExists returns the predicate "map column col contains key".
func KeyExists(col, key string) Predicate {
	return &keyPred{col: col, key: key}
}

// IsNull returns the predicate "col is null".
func IsNull(col string) Predicate { return &nullPred{col: col} }

// NotNull returns the predicate "col is not null".
func NotNull(col string) Predicate { return &nullPred{col: col, negate: true} }

// And returns the conjunction of kids (true when empty).
func And(kids ...Predicate) Predicate {
	if len(kids) == 1 {
		return kids[0]
	}
	return &andPred{kids: kids}
}

// Or returns the disjunction of kids (false when empty).
func Or(kids ...Predicate) Predicate {
	if len(kids) == 1 {
		return kids[0]
	}
	return &orPred{kids: kids}
}

// Not returns the negation of p.
func Not(p Predicate) Predicate { return &notPred{kid: p} }

// normLiteral maps a builder-supplied literal to the canonical comparison
// representation.
func normLiteral(v any) any {
	switch x := v.(type) {
	case int:
		return int64(x)
	case int8:
		return int64(x)
	case int16:
		return int64(x)
	case int32:
		return int64(x)
	case uint8:
		return int64(x)
	case uint16:
		return int64(x)
	case uint32:
		return int64(x)
	case uint:
		return normUint64(uint64(x))
	case uint64:
		return normUint64(x)
	case float32:
		return float64(x)
	default:
		return v
	}
}

// normUint64 keeps unsigned literals comparable: int64 when they fit,
// float64 (approximate) beyond.
func normUint64(x uint64) any {
	if x <= math.MaxInt64 {
		return int64(x)
	}
	return float64(x)
}

// CompareValues totally orders two values when they are comparable:
// booleans, strings, byte slices (and string-vs-bytes), and any mix of
// int32/int64/float64. ok is false for incomparable pairs.
//
// Doubles use a total order with NaN below -Inf (and NaN == NaN), not the
// IEEE partial order: zone-map Min/Max are computed with this same
// ordering, so Eval and Prune stay mutually consistent — and
// deterministic — even for NaN-bearing columns.
func CompareValues(a, b any) (int, bool) {
	switch av := a.(type) {
	case bool:
		bv, ok := b.(bool)
		if !ok {
			return 0, false
		}
		switch {
		case av == bv:
			return 0, true
		case !av:
			return -1, true
		default:
			return 1, true
		}
	case string:
		switch bv := b.(type) {
		case string:
			return strings.Compare(av, bv), true
		case []byte:
			return bytes.Compare([]byte(av), bv), true
		}
		return 0, false
	case []byte:
		switch bv := b.(type) {
		case []byte:
			return bytes.Compare(av, bv), true
		case string:
			return bytes.Compare(av, []byte(bv)), true
		}
		return 0, false
	}
	ai, aInt := asInt(a)
	bi, bInt := asInt(b)
	if aInt && bInt {
		switch {
		case ai < bi:
			return -1, true
		case ai > bi:
			return 1, true
		default:
			return 0, true
		}
	}
	af, aNum := asFloat(a)
	bf, bNum := asFloat(b)
	if aNum && bNum {
		return cmpFloat(af, bf), true
	}
	return 0, false
}

func asInt(v any) (int64, bool) {
	switch x := v.(type) {
	case int32:
		return int64(x), true
	case int64:
		return x, true
	}
	return 0, false
}

func asFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case int32:
		return float64(x), true
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

// appendColumn appends col to dst unless already present.
func appendColumn(dst []string, col string) []string {
	for _, c := range dst {
		if c == col {
			return dst
		}
	}
	return append(dst, col)
}

// cmpPred is "col op lit".
type cmpPred struct {
	col string
	op  Op
	lit any
}

func (p *cmpPred) Eval(ev Evaluator) (bool, error) {
	v, err := ev.Value(p.col)
	if err != nil {
		return false, err
	}
	if v == nil {
		return false, nil
	}
	c, ok := CompareValues(v, p.lit)
	if !ok {
		return false, queryErrorf("scan: cannot compare column %q value %T with literal %T", p.col, v, p.lit)
	}
	return opHolds(p.op, c), nil
}

func opHolds(op Op, c int) bool {
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	default:
		return c >= 0
	}
}

func (p *cmpPred) Prune(stats StatsFunc) Tri {
	st := stats(p.col)
	if st == nil {
		return MayMatch
	}
	if st.Nulls == st.Rows {
		return NoMatch // comparisons never match null
	}
	if !st.HasMinMax {
		return MayMatch
	}
	// Equality first probes the Bloom filter: on unsorted high-cardinality
	// string columns [Min, Max] spans the whole domain and proves nothing,
	// but a negative membership probe is a proof of absence. Gating on
	// HasMinMax keeps the probe sound: an ordered column's filter holds
	// values (a map column's holds keys, and map columns never set
	// HasMinMax), and MayContainValue refutes only string/bytes literals —
	// the spellings the writer inserted.
	if p.op == OpEq && st.Bloom != nil && !st.Bloom.MayContainValue(p.lit) {
		return NoMatch
	}
	cMin, okMin := CompareValues(st.Min, p.lit)
	cMax, okMax := CompareValues(st.Max, p.lit)
	if !okMin || !okMax {
		return MayMatch
	}
	// none: no value in [Min, Max] satisfies the operator; all: every one
	// does.
	var none, all bool
	switch p.op {
	case OpEq:
		none, all = cMin > 0 || cMax < 0, cMin == 0 && cMax == 0
	case OpNe:
		// Only a constant group equal to the literal has no mismatches.
		none, all = cMin == 0 && cMax == 0 && st.Nulls == 0, cMin > 0 || cMax < 0
	case OpLt:
		none, all = cMin >= 0, cMax < 0
	case OpLe:
		none, all = cMin > 0, cMax <= 0
	case OpGt:
		none, all = cMax <= 0, cMin > 0
	default:
		none, all = cMax < 0, cMin >= 0
	}
	switch {
	case none:
		return NoMatch
	case all && st.Nulls == 0:
		return AllMatch
	}
	return MayMatch
}

func (p *cmpPred) Columns(dst []string) []string { return appendColumn(dst, p.col) }

func (p *cmpPred) String() string {
	return fmt.Sprintf("%s %s %s", p.col, p.op, literalString(p.lit))
}

// rangePred is "lo <= col <= hi".
type rangePred struct {
	col    string
	lo, hi any
}

func (p *rangePred) Eval(ev Evaluator) (bool, error) {
	v, err := ev.Value(p.col)
	if err != nil {
		return false, err
	}
	if v == nil {
		return false, nil
	}
	cLo, okLo := CompareValues(v, p.lo)
	cHi, okHi := CompareValues(v, p.hi)
	if !okLo || !okHi {
		return false, queryErrorf("scan: cannot compare column %q value %T with range [%T, %T]", p.col, v, p.lo, p.hi)
	}
	return cLo >= 0 && cHi <= 0, nil
}

func (p *rangePred) Prune(stats StatsFunc) Tri {
	st := stats(p.col)
	if st == nil {
		return MayMatch
	}
	if st.Nulls == st.Rows {
		return NoMatch
	}
	if !st.HasMinMax {
		return MayMatch
	}
	// Matches are possible only if [Min, Max] intersects [lo, hi].
	cMaxLo, ok1 := CompareValues(st.Max, p.lo)
	cMinHi, ok2 := CompareValues(st.Min, p.hi)
	if !ok1 || !ok2 {
		return MayMatch
	}
	if cMaxLo < 0 || cMinHi > 0 {
		return NoMatch
	}
	// Every record matches if [Min, Max] lies inside [lo, hi].
	cMinLo, ok1 := CompareValues(st.Min, p.lo)
	cMaxHi, ok2 := CompareValues(st.Max, p.hi)
	if st.Nulls == 0 && ok1 && ok2 && cMinLo >= 0 && cMaxHi <= 0 {
		return AllMatch
	}
	return MayMatch
}

func (p *rangePred) Columns(dst []string) []string { return appendColumn(dst, p.col) }

func (p *rangePred) String() string {
	return fmt.Sprintf("between(%s, %s, %s)", p.col, literalString(p.lo), literalString(p.hi))
}

// prefixPred is "string column col starts with prefix".
type prefixPred struct {
	col    string
	prefix string
}

func (p *prefixPred) Eval(ev Evaluator) (bool, error) {
	v, err := ev.Value(p.col)
	if err != nil {
		return false, err
	}
	switch s := v.(type) {
	case nil:
		return false, nil
	case string:
		return strings.HasPrefix(s, p.prefix), nil
	case []byte:
		return bytes.HasPrefix(s, []byte(p.prefix)), nil
	}
	return false, queryErrorf("scan: prefix on non-string column %q (%T)", p.col, v)
}

// prefixUpper returns the smallest string greater than every string with
// the given prefix, when one exists.
func prefixUpper(prefix string) (string, bool) {
	b := []byte(prefix)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] < 0xff {
			b[i]++
			return string(b[:i+1]), true
		}
	}
	return "", false
}

func (p *prefixPred) Prune(stats StatsFunc) Tri {
	st := stats(p.col)
	if st == nil {
		return MayMatch
	}
	if st.Nulls == st.Rows {
		return NoMatch
	}
	if !st.HasMinMax {
		return MayMatch
	}
	// Strings with the prefix occupy [prefix, prefixUpper). Outside that
	// range no match is possible.
	if cMax, ok := CompareValues(st.Max, p.prefix); ok && cMax < 0 {
		return NoMatch
	}
	if up, bounded := prefixUpper(p.prefix); bounded {
		if cMin, ok := CompareValues(st.Min, up); ok && cMin >= 0 {
			return NoMatch
		}
	}
	// If Min and Max both carry the prefix, everything between them does.
	minS, okMin := st.Min.(string)
	maxS, okMax := st.Max.(string)
	if st.Nulls == 0 && okMin && okMax && strings.HasPrefix(minS, p.prefix) && strings.HasPrefix(maxS, p.prefix) {
		return AllMatch
	}
	return MayMatch
}

func (p *prefixPred) Columns(dst []string) []string { return appendColumn(dst, p.col) }

func (p *prefixPred) String() string {
	return fmt.Sprintf("prefix(%s, %s)", p.col, strconv.Quote(p.prefix))
}

// nullPred is "col is (not) null".
type nullPred struct {
	col    string
	negate bool
}

func (p *nullPred) Eval(ev Evaluator) (bool, error) {
	v, err := ev.Value(p.col)
	if err != nil {
		return false, err
	}
	return (v == nil) != p.negate, nil
}

func (p *nullPred) Prune(stats StatsFunc) Tri {
	st := stats(p.col)
	if st == nil {
		return MayMatch
	}
	accepted := st.Nulls // the rows the test accepts
	if p.negate {
		accepted = st.Rows - st.Nulls
	}
	switch accepted {
	case 0:
		return NoMatch
	case st.Rows:
		return AllMatch
	}
	return MayMatch
}

func (p *nullPred) Columns(dst []string) []string { return appendColumn(dst, p.col) }

func (p *nullPred) String() string {
	if p.negate {
		return fmt.Sprintf("notnull(%s)", p.col)
	}
	return fmt.Sprintf("isnull(%s)", p.col)
}

// keyPred is "map column col has key".
type keyPred struct {
	col string
	key string
}

func (p *keyPred) Eval(ev Evaluator) (bool, error) {
	v, err := ev.Value(p.col)
	if err != nil {
		return false, err
	}
	return p.has(v)
}

// has decides the test on one decoded value: a null has no keys.
func (p *keyPred) has(v any) (bool, error) {
	if v == nil {
		return false, nil
	}
	m, ok := v.(map[string]any)
	if !ok {
		return false, queryErrorf("scan: exists on non-map column %q (%T)", p.col, v)
	}
	_, has := m[p.key]
	return has, nil
}

// Prune never answers AllMatch: keys are a union over the group, so presence
// proves nothing about individual records.
func (p *keyPred) Prune(stats StatsFunc) Tri {
	st := stats(p.col)
	if st == nil {
		return MayMatch
	}
	if st.Nulls == st.Rows {
		return NoMatch
	}
	// A map column's Bloom filter covers every key observed in the group —
	// including keys the capped universe dropped — so a negative probe is a
	// proof even when the key list cannot be. Gating on HasKeys keeps the
	// probe off value filters: only map columns set HasKeys, and a map
	// column's filter holds keys.
	if st.HasKeys && st.Bloom != nil && !st.Bloom.MayContainString(p.key) {
		return NoMatch
	}
	// The stats footer stores the group's key universe; a key outside a
	// complete universe cannot exist in any record of the group.
	if st.HasKeys && !st.KeysCapped && !st.HasKey(p.key) {
		return NoMatch
	}
	return MayMatch
}

func (p *keyPred) Columns(dst []string) []string { return appendColumn(dst, p.col) }

func (p *keyPred) String() string {
	return fmt.Sprintf("exists(%s, %s)", p.col, strconv.Quote(p.key))
}

// andPred is the conjunction of its children.
type andPred struct {
	kids []Predicate
}

func (p *andPred) Eval(ev Evaluator) (bool, error) {
	for _, k := range p.kids {
		ok, err := k.Eval(ev)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// Prune is the least of the children's verdicts: one empty child empties the
// group, and only full children fill it. The empty And is constant true.
func (p *andPred) Prune(stats StatsFunc) Tri {
	return allOf(p.kids, func(k Predicate) Tri { return k.Prune(stats) })
}

// allOf is a conjunction's verdict over its children's, asked of verdict in
// order: the least of them, stopping at the first NoMatch.
func allOf(kids []Predicate, verdict func(Predicate) Tri) Tri {
	t := AllMatch
	for _, k := range kids {
		if t = min(t, verdict(k)); t == NoMatch {
			return NoMatch
		}
	}
	return t
}

func (p *andPred) Columns(dst []string) []string {
	for _, k := range p.kids {
		dst = k.Columns(dst)
	}
	return dst
}

func (p *andPred) String() string { return render(p) }

// orPred is the disjunction of its children.
type orPred struct {
	kids []Predicate
}

func (p *orPred) Eval(ev Evaluator) (bool, error) {
	for _, k := range p.kids {
		ok, err := k.Eval(ev)
		if err != nil || ok {
			return ok, err
		}
	}
	return false, nil
}

// Prune is the greatest of the children's verdicts: one full child fills the
// group, and only empty children empty it. The empty Or is constant false.
func (p *orPred) Prune(stats StatsFunc) Tri {
	return anyOf(p.kids, func(k Predicate) Tri { return k.Prune(stats) })
}

// anyOf is a disjunction's verdict over its children's, asked of verdict in
// order: the greatest of them, stopping at the first AllMatch.
func anyOf(kids []Predicate, verdict func(Predicate) Tri) Tri {
	t := NoMatch
	for _, k := range kids {
		if t = max(t, verdict(k)); t == AllMatch {
			return AllMatch
		}
	}
	return t
}

func (p *orPred) Columns(dst []string) []string {
	for _, k := range p.kids {
		dst = k.Columns(dst)
	}
	return dst
}

func (p *orPred) String() string { return render(p) }

// notPred negates its child.
type notPred struct {
	kid Predicate
}

func (p *notPred) Eval(ev Evaluator) (bool, error) {
	ok, err := p.kid.Eval(ev)
	return !ok, err
}

// Prune swaps the child's proofs: no record matches !kid exactly when every
// record matches kid. The verdicts are ordered symmetrically about MayMatch.
func (p *notPred) Prune(stats StatsFunc) Tri {
	return p.kid.Prune(stats).negate()
}

func (p *notPred) Columns(dst []string) []string { return p.kid.Columns(dst) }

func (p *notPred) String() string { return render(p) }

// render prints a predicate tree into one builder, so printing is linear in
// the tree's size: the composite predicates are walked here, and each leaf
// prints through its own String.
func render(p Predicate) string {
	var b strings.Builder
	writePred(&b, p)
	return b.String()
}

func writePred(b *strings.Builder, p Predicate) {
	switch p := p.(type) {
	case *andPred:
		writeJoin(b, p.kids, " && ", "true")
	case *orPred:
		writeJoin(b, p.kids, " || ", "false")
	case *notPred:
		// A conjunction or disjunction prints its own parentheses.
		b.WriteByte('!')
		switch p.kid.(type) {
		case *andPred, *orPred:
			writePred(b, p.kid)
		default:
			b.WriteByte('(')
			writePred(b, p.kid)
			b.WriteByte(')')
		}
	default:
		b.WriteString(p.String())
	}
}

func writeJoin(b *strings.Builder, kids []Predicate, sep, empty string) {
	if len(kids) == 0 {
		b.WriteString(empty)
		return
	}
	b.WriteByte('(')
	for i, k := range kids {
		if i > 0 {
			b.WriteString(sep)
		}
		writePred(b, k)
	}
	b.WriteByte(')')
}

// literalString renders a literal in the expression language.
func literalString(v any) string {
	switch x := v.(type) {
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		// Non-finite floats get keyword spellings the parser accepts.
		switch {
		case math.IsNaN(x):
			return "nan"
		case math.IsInf(x, 1):
			return "inf"
		case math.IsInf(x, -1):
			return "-inf"
		}
		s := strconv.FormatFloat(x, 'g', -1, 64)
		// Keep floats distinguishable from ints on re-parse.
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	case string:
		return strconv.Quote(x)
	case bool:
		return strconv.FormatBool(x)
	case []byte:
		return strconv.Quote(string(x))
	default:
		return fmt.Sprintf("%v", x)
	}
}
