package scan

// Dictionary-id predicate evaluation. A DCSL column stores each window's
// values as ids into a per-window dictionary; equality against a literal
// does not need the strings back. The storage layer decodes the batch's
// ids (a fraction of the string bytes) into an IDVector, the needle is
// resolved to its id once per window, and the row loop compares integers.
// A window whose dictionary lacks the needle decides every row without
// touching a single value byte.

// IDResolver resolves a literal to its id within one dictionary window.
// colfile's window dictionaries (compress.Dictionary) implement it.
type IDResolver interface {
	// ResolveID returns the needle's id and whether the window's
	// dictionary contains it at all.
	ResolveID(needle string) (uint32, bool)
}

// IDSegment is one dictionary window's slice of an IDVector: rows
// [Start, End) of the batch share the Dict id space.
type IDSegment struct {
	Start, End int
	Dict       IDResolver
}

// IDVector holds one column's dictionary ids for a contiguous batch of
// records, split into per-window segments. Like a Vector it is
// append-only during decode and read-only afterwards; cached id vectors
// are shared between scans and must never be mutated.
type IDVector struct {
	IDs  []uint32
	Segs []IDSegment

	null []uint64 // bit set = null; nil when all valid
	n    int
}

// NewIDVector returns an empty id vector with capacity for n rows.
func NewIDVector(n int) *IDVector {
	return &IDVector{IDs: make([]uint32, 0, n)}
}

// Reset empties the vector for the next batch, keeping its storage. Only
// the owner of a vector no cache holds may reset it.
func (v *IDVector) Reset() {
	clear(v.Segs) // the last batch's dictionaries
	v.IDs, v.Segs, v.null, v.n = v.IDs[:0], v.Segs[:0], v.null[:0], 0
}

// Len returns the number of rows.
func (v *IDVector) Len() int { return v.n }

// AppendID appends one row's id.
func (v *IDVector) AppendID(id uint32) {
	v.IDs = append(v.IDs, id)
	v.n++
}

// AppendNull appends a null row.
func (v *IDVector) AppendNull() {
	v.IDs = append(v.IDs, 0)
	w := v.n >> 6
	for len(v.null) <= w {
		v.null = append(v.null, 0)
	}
	v.null[w] |= 1 << (uint(v.n) & 63)
	v.n++
}

// IsNull reports whether row i is null.
func (v *IDVector) IsNull(i int) bool {
	w := i >> 6
	if w >= len(v.null) {
		return false
	}
	return v.null[w]&(1<<(uint(i)&63)) != 0
}

// CloseSegment records that rows [start, Len()) belong to the window with
// the given dictionary. Decoders call it at each window boundary so
// segments tile the vector.
func (v *IDVector) CloseSegment(start int, dict IDResolver) {
	if start >= v.n {
		return
	}
	v.Segs = append(v.Segs, IDSegment{Start: start, End: v.n, Dict: dict})
}

// MemBytes estimates the vector's resident size for cache accounting.
// Dictionaries are shared with the reader and not charged here.
func (v *IDVector) MemBytes() int64 {
	return int64(len(v.IDs))*4 + int64(len(v.null))*8 + int64(len(v.Segs))*24
}

// IDSource is optionally implemented by a VecSource whose storage keeps
// dictionary-encoded columns — the capability hook dictionary-id
// evaluation probes for.
type IDSource interface {
	// IDVec returns the column's id vector for the batch, decoding it on
	// first use, or nil (with nil error) when the column's storage is not
	// dictionary-encoded. The vector is read-only.
	IDVec(column string) (*IDVector, error)
}

// DictCompareCounter is optionally implemented by a VecSource to receive
// the number of id-space comparisons performed, for cost accounting
// (sim.TaskStats.DictIdCompares).
type DictCompareCounter interface {
	CountDictIDCompares(n int64)
}

// litAsString views an equality literal as a dictionary needle.
func litAsString(lit any) (string, bool) {
	switch x := lit.(type) {
	case string:
		return x, true
	case []byte:
		return string(x), true
	}
	return "", false
}

// vecEvalIDs decides == / != over dictionary ids: one needle resolution
// per window, integer compares per row, and zero value bytes decoded.
// Verdicts match the string path exactly — ids are injective within a
// window, so id equality is value equality.
func (p *cmpPred) vecEvalIDs(src VecSource, iv *IDVector, in *Selection, needle string) *Selection {
	out := GetEmptySelection(in.Len())
	var compares int64
	for _, seg := range iv.Segs {
		id, present := seg.Dict.ResolveID(needle)
		if !present && p.op == OpEq {
			// Absent needle: no row in this window can match.
			continue
		}
		for i := in.Next(seg.Start); i >= 0 && i < seg.End; i = in.Next(i + 1) {
			if iv.IsNull(i) {
				continue
			}
			if !present {
				out.Set(i) // != against an absent needle holds everywhere
				continue
			}
			compares++
			if (iv.IDs[i] == id) == (p.op == OpEq) {
				out.Set(i)
			}
		}
	}
	if c, ok := src.(DictCompareCounter); ok && compares > 0 {
		c.CountDictIDCompares(compares)
	}
	return out
}
