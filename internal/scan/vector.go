package scan

import (
	"bytes"
	"cmp"
	"math/bits"
	"strings"

	"colmr/internal/serde"
)

// Column vectors and selection bitmaps — the data shapes of vectorized
// execution. A Vector holds one column's values for a contiguous batch of
// records in flat typed storage (no per-value boxing); a Selection is a
// bitmap over the batch's rows. Predicates evaluate batch-at-a-time via
// VecEval, narrowing a Selection instead of deciding one record at a time.

// VecKind is the physical representation of a Vector.
type VecKind int

// Vector representations. Primitive serde kinds map to dedicated typed
// storage; complex kinds (arrays, maps, nested records) fall back to boxed
// VecAny storage, which vectorizes control flow but not object churn.
const (
	VecBool VecKind = iota
	VecInt32
	VecInt64
	VecFloat64
	VecString
	VecBytes
	VecAny
)

// String returns a short name for the representation.
func (k VecKind) String() string {
	switch k {
	case VecBool:
		return "bool"
	case VecInt32:
		return "int32"
	case VecInt64:
		return "int64"
	case VecFloat64:
		return "float64"
	case VecString:
		return "string"
	case VecBytes:
		return "bytes"
	default:
		return "any"
	}
}

// Vector is one column's values for rows [0, Len()) of a batch, in flat
// typed storage. Integer kinds (bool, int32, int64) share Ints; string and
// bytes values share the Data/Offs arena (value i is Data[Offs[i]:Offs[i+1]]);
// complex values are boxed in Anys. Nulls are tracked in a bitmap whose zero
// value means "no nulls", so fully-valid columns pay nothing for validity.
//
// A Vector decoded by the storage layer is append-only during decode and
// read-only afterwards; vectors admitted to a cache are shared between
// scans and must never be mutated.
type Vector struct {
	Kind VecKind
	// Boxed marks a vector whose rows are decoded only to be boxed into
	// records (Box). The storage layer charges such a decode at the
	// per-object rates a record-at-a-time decode of the same values pays —
	// CPUStats.IntBytes/StringBytes/…, ValuesMaterialized — and not at the
	// vector rates, so the cost model prices an eager scan the same however
	// its records are assembled. A Boxed vector is good for Box only: its
	// string/bytes rows longer than BoxArenaMax bypass the arena (they sit in
	// Anys, boxed at append; BytesAt shows them empty). Reset clears it.
	Boxed bool

	Ints   []int64   // VecBool (0/1), VecInt32, VecInt64
	Floats []float64 // VecFloat64
	Data   []byte    // VecString / VecBytes payload arena
	Offs   []int32   // len == Len()+1 for VecString / VecBytes
	Anys   []any     // VecAny

	null []uint64 // validity bitmap, bit set = null; nil when all valid
	n    int
}

// NewVector returns an empty vector of the given representation with
// capacity hints applied.
func NewVector(kind VecKind, capacity int) *Vector {
	v := &Vector{Kind: kind}
	v.Reset(kind, capacity)
	return v
}

// Reset empties the vector for reuse, switching it to the given
// representation and growing storage toward capacity. Buffers are retained
// across resets, so a pooled vector's arena warms up to its working size.
func (v *Vector) Reset(kind VecKind, capacity int) {
	v.Kind = kind
	v.Boxed = false
	v.n = 0
	v.null = v.null[:0]
	v.Ints = v.Ints[:0]
	v.Floats = v.Floats[:0]
	v.Data = v.Data[:0]
	v.Offs = v.Offs[:0]
	clear(v.Anys) // a pooled vector must not keep the last batch's objects alive
	v.Anys = v.Anys[:0]
	switch kind {
	case VecBool, VecInt32, VecInt64:
		if cap(v.Ints) < capacity {
			v.Ints = make([]int64, 0, capacity)
		}
	case VecFloat64:
		if cap(v.Floats) < capacity {
			v.Floats = make([]float64, 0, capacity)
		}
	case VecString, VecBytes:
		if cap(v.Offs) < capacity+1 {
			v.Offs = make([]int32, 0, capacity+1)
		}
		v.Offs = append(v.Offs, 0)
	case VecAny:
		if cap(v.Anys) < capacity {
			v.Anys = make([]any, 0, capacity)
		}
	}
}

// Len returns the number of rows.
func (v *Vector) Len() int { return v.n }

// AppendInt appends an integer-kind row (bool rows append 0/1).
func (v *Vector) AppendInt(x int64) {
	v.Ints = append(v.Ints, x)
	v.n++
}

// AppendFloat appends a float64 row.
func (v *Vector) AppendFloat(x float64) {
	v.Floats = append(v.Floats, x)
	v.n++
}

// BoxArenaMax is the longest string/bytes payload the storage layer appends
// to a Boxed vector's arena, for Box to carve out of one allocation per
// column. A longer one it allocates singly, straight from the decode buffer
// (AppendSingle): past a few hundred bytes a second copy costs more than
// the allocation it saves, a page-sized row would pin its whole batch, and
// an arena of such rows — unlike one of short strings — outgrows what a
// recycled vector keeps warm.
const BoxArenaMax = 256

// AppendSingle appends a string/bytes row to a Boxed vector as the finished
// boxed value x (a string or a []byte the vector may keep), leaving its
// arena extent empty.
func (v *Vector) AppendSingle(x any) {
	if rows := cap(v.Offs) - 1; cap(v.Anys) < rows {
		v.Anys = append(make([]any, 0, rows), v.Anys...) // once, at the batch's size
	}
	// Reset left everything past len(Anys) nil: the rows in between read as
	// arena rows.
	v.Anys = append(v.Anys[:v.n], x)
	v.Offs = append(v.Offs, int32(len(v.Data)))
	v.n++
}

// AppendBytes appends a string/bytes row into the arena.
func (v *Vector) AppendBytes(b []byte) {
	v.Data = append(v.Data, b...)
	v.Offs = append(v.Offs, int32(len(v.Data)))
	v.n++
}

// AppendString appends a string row into the arena without an intermediate
// []byte allocation.
func (v *Vector) AppendString(s string) {
	v.Data = append(v.Data, s...)
	v.Offs = append(v.Offs, int32(len(v.Data)))
	v.n++
}

// AppendAny appends a boxed row.
func (v *Vector) AppendAny(x any) {
	v.Anys = append(v.Anys, x)
	v.n++
}

// AppendNull appends a null row (zero-valued storage, null bit set).
func (v *Vector) AppendNull() {
	switch v.Kind {
	case VecBool, VecInt32, VecInt64:
		v.Ints = append(v.Ints, 0)
	case VecFloat64:
		v.Floats = append(v.Floats, 0)
	case VecString, VecBytes:
		v.Offs = append(v.Offs, int32(len(v.Data)))
	case VecAny:
		v.Anys = append(v.Anys, nil)
	}
	v.setNull(v.n)
	v.n++
}

func (v *Vector) setNull(i int) {
	w := i >> 6
	for len(v.null) <= w {
		v.null = append(v.null, 0)
	}
	v.null[w] |= 1 << (uint(i) & 63)
}

// IsNull reports whether row i is null.
func (v *Vector) IsNull(i int) bool {
	w := i >> 6
	if w >= len(v.null) {
		return false
	}
	return v.null[w]&(1<<(uint(i)&63)) != 0
}

// HasNulls reports whether any row is null.
func (v *Vector) HasNulls() bool {
	for _, w := range v.null {
		if w != 0 {
			return true
		}
	}
	return false
}

// BytesAt returns the arena view of string/bytes row i. The view aliases
// the vector's storage and must not be mutated or retained past it.
func (v *Vector) BytesAt(i int) []byte {
	return v.Data[v.Offs[i]:v.Offs[i+1]]
}

// Value boxes row i into the serde dynamic representation the scalar path
// produces: bool, int32, int64, float64, string, a copied []byte, or the
// boxed complex value; nil for null rows. Byte-identical materialization
// from vectors depends on this mapping matching serde.Decoder.Value. One row
// is one allocation, as the compiler's conversion was; Box and BoxRange share
// a chunk between rows.
func (v *Vector) Value(i int) any {
	if v.IsNull(i) {
		return nil
	}
	var bx serde.Boxer // one value: a chunk of one slot
	switch v.Kind {
	case VecBool:
		return v.Ints[i] != 0
	case VecInt32:
		return bx.Int32(int32(v.Ints[i]))
	case VecInt64:
		return bx.Int64(v.Ints[i])
	case VecFloat64:
		return bx.Float64(v.Floats[i])
	case VecString:
		return bx.String(string(v.BytesAt(i)))
	case VecBytes:
		b := v.BytesAt(i)
		out := make([]byte, len(b))
		copy(out, b)
		return bx.Bytes(out)
	default:
		return v.Anys[i]
	}
}

// compareBound orders non-null row i against a boxed value of the row's own
// Go type (the type Value boxes it to), as CompareValues orders the two, and
// without boxing the row. ok is false for a value of any other type.
func (v *Vector) compareBound(i int, bound any) (c int, ok bool) {
	switch v.Kind {
	case VecBool:
		if y, ok := bound.(bool); ok {
			var yi int64
			if y {
				yi = 1
			}
			return cmp.Compare(v.Ints[i], yi), true
		}
	case VecInt32:
		if y, ok := bound.(int32); ok {
			return cmp.Compare(v.Ints[i], int64(y)), true
		}
	case VecInt64:
		if y, ok := bound.(int64); ok {
			return cmp.Compare(v.Ints[i], y), true
		}
	case VecFloat64:
		if y, ok := bound.(float64); ok {
			return cmpFloat(v.Floats[i], y), true
		}
	case VecString:
		if y, ok := bound.(string); ok {
			// Conversions in a comparison do not allocate.
			switch b := v.BytesAt(i); {
			case string(b) < y:
				return -1, true
			case string(b) > y:
				return 1, true
			}
			return 0, true
		}
	case VecBytes:
		if y, ok := bound.([]byte); ok {
			return bytes.Compare(v.BytesAt(i), y), true
		}
	}
	return 0, false
}

// Box boxes rows of v for a reader assembling records column by column: the
// k-th boxed row lands in dst[k*stride], in row order, in the representation
// Value produces. sel picks the rows (nil boxes every row); the count of
// boxed rows is returned. Where Value allocates a payload per string or
// bytes row, Box carves a column's rows out of one arena — substrings of one
// string, capacity-clipped slices of one buffer — sized to exactly the boxed
// rows and allocated once, and where Value allocates a box per row, Box draws
// the rows' boxes from chunks cut to the boxed rows (serde.Boxer: 256 int32s
// are one allocation, 256 strings eight). Arena and chunks are allocated here
// for these values alone, so they never alias v's own storage and v can go
// back to a pool.
func (v *Vector) Box(sel *Selection, dst []any, stride int) int {
	return v.box(sel, 0, v.n, dst, stride)
}

// BoxRange is Box for the adjacent rows [lo, hi), every one of them, into
// dst[0:hi-lo].
func (v *Vector) BoxRange(lo, hi int, dst []any) {
	v.box(nil, lo, hi, dst, 1)
}

// box boxes the rows of [lo, hi) that sel picks (nil: all of them).
func (v *Vector) box(sel *Selection, lo, hi int, dst []any, stride int) int {
	nulls := v.HasNulls()
	rows := hi - lo
	if sel != nil {
		rows = sel.Count() // only Box selects, and over the whole vector
	}
	var bx serde.Boxer
	bx.Expect(rows)
	k, off := 0, 0
	var strs string
	var raw []byte
	switch v.Kind {
	case VecString:
		var sb strings.Builder
		sb.Grow(v.payloadLen(sel, lo, hi))
		if sel == nil {
			sb.Write(v.Data[v.Offs[lo]:v.Offs[hi]])
		} else {
			for i := nextRow(sel, lo, hi); i >= 0; i = nextRow(sel, i+1, hi) {
				sb.Write(v.BytesAt(i))
			}
		}
		strs = sb.String()
	case VecBytes:
		raw = make([]byte, 0, v.payloadLen(sel, lo, hi))
	}
	for i := nextRow(sel, lo, hi); i >= 0; i = nextRow(sel, i+1, hi) {
		if nulls && v.IsNull(i) {
			dst[k*stride] = nil
			k++
			continue
		}
		var x any
		if i < len(v.Anys) {
			x = v.Anys[i] // a complex value, or a payload too long for the arena
		}
		if x == nil {
			switch v.Kind {
			case VecBool:
				x = v.Ints[i] != 0
			case VecInt32:
				x = bx.Int32(int32(v.Ints[i]))
			case VecInt64:
				x = bx.Int64(v.Ints[i])
			case VecFloat64:
				x = bx.Float64(v.Floats[i])
			case VecString:
				end := off + int(v.Offs[i+1]-v.Offs[i])
				x = bx.String(strs[off:end])
				off = end
			case VecBytes:
				raw = append(raw, v.BytesAt(i)...)
				x = bx.Bytes(raw[off:len(raw):len(raw)])
				off = len(raw)
			}
		}
		dst[k*stride] = x
		k++
	}
	return k
}

// nextRow returns the first row in [i, hi) that sel picks (every row when sel
// is nil), or -1.
func nextRow(sel *Selection, i, hi int) int {
	if sel != nil {
		i = sel.Next(i)
	}
	if i >= 0 && i < hi {
		return i
	}
	return -1
}

// payloadLen sums the string/bytes payload of the rows of [lo, hi) that sel
// picks.
func (v *Vector) payloadLen(sel *Selection, lo, hi int) int {
	if sel == nil {
		return int(v.Offs[hi] - v.Offs[lo])
	}
	total := 0
	for i := nextRow(sel, lo, hi); i >= 0; i = nextRow(sel, i+1, hi) {
		total += int(v.Offs[i+1] - v.Offs[i])
	}
	return total
}

// MemBytes estimates the vector's resident size, the unit vector-cache
// budgets are accounted in.
func (v *Vector) MemBytes() int64 {
	s := int64(len(v.Ints))*8 + int64(len(v.Floats))*8 +
		int64(len(v.Data)) + int64(len(v.Offs))*4 + int64(len(v.null))*8
	for _, a := range v.Anys {
		s += boxedSize(a)
	}
	return s
}

// boxedSize is a coarse per-object footprint estimate for VecAny rows.
func boxedSize(a any) int64 {
	switch x := a.(type) {
	case nil:
		return 8
	case string:
		return 16 + int64(len(x))
	case []byte:
		return 24 + int64(len(x))
	case map[string]any:
		s := int64(48)
		for k, v := range x {
			s += 16 + int64(len(k)) + boxedSize(v)
		}
		return s
	case []any:
		s := int64(24)
		for _, e := range x {
			s += boxedSize(e)
		}
		return s
	default:
		return 16
	}
}

// Selection is a bitmap over the rows of a batch. Operations never extend
// past the batch length.
type Selection struct {
	words []uint64
	n     int
}

// NewSelection returns a selection of n rows, all selected.
func NewSelection(n int) *Selection {
	s := &Selection{words: make([]uint64, (n+63)/64), n: n}
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
	return s
}

// NewEmptySelection returns a selection of n rows, none selected.
func NewEmptySelection(n int) *Selection {
	return &Selection{words: make([]uint64, (n+63)/64), n: n}
}

// trim clears bits beyond the row count so whole-word operations stay exact.
func (s *Selection) trim() {
	if tail := uint(s.n) & 63; tail != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << tail) - 1
	}
}

// Len returns the number of rows the selection covers.
func (s *Selection) Len() int { return s.n }

// Count returns the number of selected rows.
func (s *Selection) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// countWithout returns the number of selected rows whose bit in mask (a
// bitmap that may be shorter than the selection) is clear.
func (s *Selection) countWithout(mask []uint64) int {
	c := 0
	for i, w := range s.words {
		if i < len(mask) {
			w &^= mask[i]
		}
		c += bits.OnesCount64(w)
	}
	return c
}

// appendRows appends the selected rows to dst, in order.
func (s *Selection) appendRows(dst []int32) []int32 {
	for wi, w := range s.words {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, int32(wi<<6+bits.TrailingZeros64(w)))
		}
	}
	return dst
}

// Empty reports whether no row is selected.
func (s *Selection) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Test reports whether row i is selected.
func (s *Selection) Test(i int) bool {
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Set selects row i.
func (s *Selection) Set(i int) {
	s.words[i>>6] |= 1 << (uint(i) & 63)
}

// Clear deselects row i.
func (s *Selection) Clear(i int) {
	s.words[i>>6] &^= 1 << (uint(i) & 63)
}

// Clone returns an independent copy.
func (s *Selection) Clone() *Selection {
	return &Selection{words: append([]uint64(nil), s.words...), n: s.n}
}

// And intersects s with o in place (bitmap AND).
func (s *Selection) And(o *Selection) {
	for i := range s.words {
		s.words[i] &= o.words[i]
	}
}

// Or unions o into s in place (bitmap OR).
func (s *Selection) Or(o *Selection) {
	for i := range s.words {
		s.words[i] |= o.words[i]
	}
}

// AndNot removes o's rows from s in place (s &^= o).
func (s *Selection) AndNot(o *Selection) {
	for i := range s.words {
		s.words[i] &^= o.words[i]
	}
}

// Next returns the first selected row >= i, or -1 when none remains. It is
// the iteration primitive batch consumers drain matches with.
func (s *Selection) Next(i int) int {
	if i < 0 {
		i = 0
	}
	for i < s.n {
		w := s.words[i>>6] >> (uint(i) & 63)
		if w != 0 {
			return i + bits.TrailingZeros64(w)
		}
		i = (i>>6 + 1) << 6
	}
	return -1
}
