package serde

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary encoding (Avro-style):
//
//	bool        one byte, 0 or 1
//	int/long    zig-zag varint
//	time        zig-zag varint (epoch milliseconds)
//	double      8 bytes, IEEE 754 little-endian
//	string      uvarint byte length + UTF-8 bytes
//	bytes       uvarint length + raw bytes
//	array       uvarint count + encoded elements
//	map         uvarint count + (string key, encoded value) pairs,
//	            keys in sorted order for deterministic output
//	record      fields encoded in declaration order
//
// The encoding is self-delimiting given the schema, which is what allows
// per-record skipping in plain column files and offset arithmetic in skip
// lists.

// AppendValue appends the encoding of v (which must match s) to dst.
func AppendValue(dst []byte, s *Schema, v any) ([]byte, error) {
	switch s.Kind {
	case KindBool:
		b, ok := v.(bool)
		if !ok {
			return dst, encTypeErr(s, v)
		}
		if b {
			return append(dst, 1), nil
		}
		return append(dst, 0), nil
	case KindInt:
		iv, ok := v.(int32)
		if !ok {
			return dst, encTypeErr(s, v)
		}
		return binary.AppendVarint(dst, int64(iv)), nil
	case KindLong, KindTime:
		lv, ok := v.(int64)
		if !ok {
			return dst, encTypeErr(s, v)
		}
		return binary.AppendVarint(dst, lv), nil
	case KindDouble:
		dv, ok := v.(float64)
		if !ok {
			return dst, encTypeErr(s, v)
		}
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(dv)), nil
	case KindString:
		sv, ok := v.(string)
		if !ok {
			return dst, encTypeErr(s, v)
		}
		dst = binary.AppendUvarint(dst, uint64(len(sv)))
		return append(dst, sv...), nil
	case KindBytes:
		bv, ok := v.([]byte)
		if !ok {
			return dst, encTypeErr(s, v)
		}
		dst = binary.AppendUvarint(dst, uint64(len(bv)))
		return append(dst, bv...), nil
	case KindArray:
		av, ok := v.([]any)
		if !ok {
			return dst, encTypeErr(s, v)
		}
		dst = binary.AppendUvarint(dst, uint64(len(av)))
		var err error
		for _, e := range av {
			dst, err = AppendValue(dst, s.Elem, e)
			if err != nil {
				return dst, err
			}
		}
		return dst, nil
	case KindMap:
		mv, ok := v.(map[string]any)
		if !ok {
			return dst, encTypeErr(s, v)
		}
		dst = binary.AppendUvarint(dst, uint64(len(mv)))
		var err error
		var few [16]string // a small map's keys sort without leaving the stack
		for _, k := range sortedKeys(few[:0], mv) {
			dst = binary.AppendUvarint(dst, uint64(len(k)))
			dst = append(dst, k...)
			dst, err = AppendValue(dst, s.Elem, mv[k])
			if err != nil {
				return dst, err
			}
		}
		return dst, nil
	case KindRecord:
		rv, ok := v.(*GenericRecord)
		if !ok {
			return dst, encTypeErr(s, v)
		}
		return AppendRecord(dst, rv)
	}
	return dst, fmt.Errorf("serde: encode: unknown kind %v", s.Kind)
}

// AppendRecord appends the encoding of all fields of r in schema order.
func AppendRecord(dst []byte, r *GenericRecord) ([]byte, error) {
	var err error
	for i, f := range r.schema.Fields {
		v := r.values[i]
		if v == nil {
			return dst, fmt.Errorf("serde: encode: record %s field %q is unset", r.schema.Name, f.Name)
		}
		dst, err = AppendValue(dst, f.Type, v)
		if err != nil {
			return dst, fmt.Errorf("serde: encode: field %q: %w", f.Name, err)
		}
	}
	return dst, nil
}

// EncodeRecord returns the binary encoding of r.
func EncodeRecord(r *GenericRecord) ([]byte, error) {
	return AppendRecord(nil, r)
}

func encTypeErr(s *Schema, v any) error {
	return fmt.Errorf("serde: encode: value %T does not match schema %s", v, s.Kind)
}
