package serde

import (
	"fmt"
	"slices"
)

// Record is the generic record abstraction map functions are written
// against (paper, Appendix A). Both the eager generic record here and the
// lazy column-backed record in internal/core implement it, so a map
// function is oblivious to the materialization strategy — the property
// Section 5.1 requires.
type Record interface {
	// Schema returns the record's (possibly projected) schema.
	Schema() *Schema
	// Get returns the value of the named field. Values use the Go
	// representations documented on GenericRecord.
	Get(name string) (any, error)
}

// GenericRecord is an eagerly materialized record.
//
// Field value representations:
//
//	bool    -> bool
//	int     -> int32
//	long    -> int64
//	time    -> int64 (epoch milliseconds)
//	double  -> float64
//	string  -> string
//	bytes   -> []byte
//	array   -> []any
//	map     -> map[string]any
//	record  -> *GenericRecord
//
// A record handed out by a reader is never reused, so it may be kept for as
// long as the caller likes. Records built together by NewRecords share two
// allocations, and a batch-assembling reader (core.Reader) also carves one
// batch's string and bytes values out of one arena per column and boxes a
// column's values from chunks of that batch's own (Boxer): keeping any one of
// them keeps at most that one batch reachable. A record decoded by a Decoder
// shares chunks of boxes with the values the same decoder produced just before
// and after it: keeping it keeps at most a chunk (1 KiB or less) per primitive
// kind reachable, and through a chunk of strings or bytes at most 31
// neighbouring payloads of 256 bytes or less.
type GenericRecord struct {
	schema *Schema
	values []any
}

// NewRecord returns an empty record of the given record schema.
func NewRecord(s *Schema) *GenericRecord {
	return &GenericRecord{schema: s, values: make([]any, len(s.Fields))}
}

// NewRecords returns n empty records of the record schema s carved from two
// allocations, one slab of records and one of field values, for readers
// that assemble a batch of records column by column. vals is the records'
// field storage, row-major: field j of recs[i] is vals[i*len(s.Fields)+j],
// so a column is filled with one strided walk. Each record's fields are
// capped to its own row; &recs[i] is an ordinary *GenericRecord.
func NewRecords(s *Schema, n int) (recs []GenericRecord, vals []any) {
	w := len(s.Fields)
	recs = make([]GenericRecord, n)
	vals = make([]any, n*w)
	for i := range recs {
		recs[i] = GenericRecord{schema: s, values: vals[i*w : (i+1)*w : (i+1)*w]}
	}
	return recs, vals
}

// Schema implements Record.
func (r *GenericRecord) Schema() *Schema { return r.schema }

// Get implements Record.
func (r *GenericRecord) Get(name string) (any, error) {
	i := r.schema.FieldIndex(name)
	if i < 0 {
		return nil, fmt.Errorf("serde: record %s has no field %q", r.schema.Name, name)
	}
	return r.values[i], nil
}

// GetAt returns the value at field position i.
func (r *GenericRecord) GetAt(i int) any { return r.values[i] }

// Set assigns the named field. The value must already use the documented
// representation; SetAt is the unchecked positional variant.
func (r *GenericRecord) Set(name string, v any) error {
	i := r.schema.FieldIndex(name)
	if i < 0 {
		return fmt.Errorf("serde: record %s has no field %q", r.schema.Name, name)
	}
	if err := checkValue(r.schema.Fields[i].Type, v); err != nil {
		return fmt.Errorf("serde: set %s.%s: %w", r.schema.Name, name, err)
	}
	r.values[i] = v
	return nil
}

// SetAt assigns field position i without type checking.
func (r *GenericRecord) SetAt(i int, v any) { r.values[i] = v }

// checkValue validates that v matches the schema's Go representation.
func checkValue(s *Schema, v any) error {
	if v == nil {
		return fmt.Errorf("nil value")
	}
	switch s.Kind {
	case KindBool:
		_, ok := v.(bool)
		return okErr(ok, s, v)
	case KindInt:
		_, ok := v.(int32)
		return okErr(ok, s, v)
	case KindLong, KindTime:
		_, ok := v.(int64)
		return okErr(ok, s, v)
	case KindDouble:
		_, ok := v.(float64)
		return okErr(ok, s, v)
	case KindString:
		_, ok := v.(string)
		return okErr(ok, s, v)
	case KindBytes:
		_, ok := v.([]byte)
		return okErr(ok, s, v)
	case KindArray:
		arr, ok := v.([]any)
		if !ok {
			return okErr(false, s, v)
		}
		for i, e := range arr {
			if err := checkValue(s.Elem, e); err != nil {
				return fmt.Errorf("element %d: %w", i, err)
			}
		}
		return nil
	case KindMap:
		m, ok := v.(map[string]any)
		if !ok {
			return okErr(false, s, v)
		}
		for k, e := range m {
			if err := checkValue(s.Elem, e); err != nil {
				return fmt.Errorf("key %q: %w", k, err)
			}
		}
		return nil
	case KindRecord:
		rec, ok := v.(*GenericRecord)
		if !ok {
			return okErr(false, s, v)
		}
		if !rec.schema.Equal(s) {
			return fmt.Errorf("record schema mismatch")
		}
		return nil
	}
	return fmt.Errorf("unknown kind %v", s.Kind)
}

func okErr(ok bool, s *Schema, v any) error {
	if ok {
		return nil
	}
	return fmt.Errorf("value %T does not match schema %s", v, s.Kind)
}

// ValuesEqual compares two values of the same schema for deep equality.
// Used by tests and the lazy-vs-eager equivalence checks.
func ValuesEqual(s *Schema, a, b any) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	switch s.Kind {
	case KindBool:
		return a.(bool) == b.(bool)
	case KindInt:
		return a.(int32) == b.(int32)
	case KindLong, KindTime:
		return a.(int64) == b.(int64)
	case KindDouble:
		return a.(float64) == b.(float64)
	case KindString:
		return a.(string) == b.(string)
	case KindBytes:
		ab, bb := a.([]byte), b.([]byte)
		if len(ab) != len(bb) {
			return false
		}
		for i := range ab {
			if ab[i] != bb[i] {
				return false
			}
		}
		return true
	case KindArray:
		aa, ba := a.([]any), b.([]any)
		if len(aa) != len(ba) {
			return false
		}
		for i := range aa {
			if !ValuesEqual(s.Elem, aa[i], ba[i]) {
				return false
			}
		}
		return true
	case KindMap:
		am, bm := a.(map[string]any), b.(map[string]any)
		if len(am) != len(bm) {
			return false
		}
		for k, av := range am {
			bv, ok := bm[k]
			if !ok || !ValuesEqual(s.Elem, av, bv) {
				return false
			}
		}
		return true
	case KindRecord:
		ar, br := a.(*GenericRecord), b.(*GenericRecord)
		for i, f := range s.Fields {
			if !ValuesEqual(f.Type, ar.values[i], br.values[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// RecordsEqual compares the fields common to both records' schemas.
func RecordsEqual(a, b Record) bool {
	for _, f := range a.Schema().Fields {
		av, aerr := a.Get(f.Name)
		bv, berr := b.Get(f.Name)
		if aerr != nil || berr != nil {
			return aerr != nil && berr != nil
		}
		if !ValuesEqual(f.Type, av, bv) {
			return false
		}
	}
	return true
}

// sortedKeys appends a map's keys to keys, sorted, for deterministic
// encoding.
func sortedKeys(keys []string, m map[string]any) []string {
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
