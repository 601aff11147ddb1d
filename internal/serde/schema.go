// Package serde implements the record abstraction and binary serialization
// framework the paper assumes (Appendix A): an Avro-like schema language
// with primitive and complex types (arrays, maps, nested records), generic
// records accessed by field name, and a compact binary encoding.
//
// Decoders accumulate per-type deserialization counters (sim.CPUStats) so
// the cost model can price "boxed" Java-style object creation against
// "view" C++-style direct buffer access — the contrast measured by the
// paper's Figure 8.
//
// Every primitive a decoder or a column vector hands out as an `any` is boxed
// by a Boxer: its backing word is a slot of a small write-once chunk instead
// of an allocation of its own. The ownership rule: a boxed value is immutable,
// is never backed by pooled, cached or otherwise reused storage, and kept
// alive keeps at most one chunk of 1 KiB or less reachable plus — for a string
// or []byte — the payloads its chunk-mates share with it (its batch's arena,
// or up to 31 payloads of at most 256 bytes). docs/VECTORIZED.md, "Boxing".
package serde

import (
	"fmt"
	"strings"
)

// Kind enumerates schema types.
type Kind int

// Schema kinds. Time is a logical type stored as a long, used by the
// paper's URLInfo.fetchTime field.
const (
	KindBool Kind = iota
	KindInt
	KindLong
	KindDouble
	KindString
	KindBytes
	KindTime
	KindArray
	KindMap
	KindRecord
)

// String returns the DSL spelling of the kind.
func (k Kind) String() string {
	switch k {
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindLong:
		return "long"
	case KindDouble:
		return "double"
	case KindString:
		return "string"
	case KindBytes:
		return "bytes"
	case KindTime:
		return "time"
	case KindArray:
		return "array"
	case KindMap:
		return "map"
	case KindRecord:
		return "record"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// IsComplex reports whether the kind is one of the paper's complex types
// (array, map, nested record), which are stored as a single column and are
// the expensive ones to deserialize.
func (k Kind) IsComplex() bool {
	return k == KindArray || k == KindMap || k == KindRecord
}

// Schema is a type descriptor. Schemas are immutable after construction.
type Schema struct {
	Kind Kind
	// Name is the record name (KindRecord only).
	Name string
	// Elem is the array element type or map value type.
	Elem *Schema
	// Fields are the record fields, in declaration order.
	Fields []Field

	index map[string]int
}

// Field is a named field of a record schema.
type Field struct {
	Name string
	Type *Schema
}

// Primitive schema constructors.
func Bool() *Schema   { return &Schema{Kind: KindBool} }
func Int() *Schema    { return &Schema{Kind: KindInt} }
func Long() *Schema   { return &Schema{Kind: KindLong} }
func Double() *Schema { return &Schema{Kind: KindDouble} }
func String() *Schema { return &Schema{Kind: KindString} }
func Bytes() *Schema  { return &Schema{Kind: KindBytes} }
func Time() *Schema   { return &Schema{Kind: KindTime} }

// ArrayOf returns an array schema with the given element type.
func ArrayOf(elem *Schema) *Schema { return &Schema{Kind: KindArray, Elem: elem} }

// MapOf returns a map schema with string keys and the given value type,
// matching the paper's Map<String, T> columns.
func MapOf(value *Schema) *Schema { return &Schema{Kind: KindMap, Elem: value} }

// linearFields is the widest record whose fields FieldIndex finds by
// comparing names in declaration order. The records map functions read are
// usually this narrow — a projection of a column or two — and there a few
// string compares cost a third of hashing the name (5 ns against 13 for one
// field). The width is where the ordered search stops winning in its worst
// case, names all of one length, so that no record pays for it; names of
// mixed lengths would carry it further. Wider records get a name index.
const linearFields = 4

// RecordOf returns a record schema with the given name and fields. Every
// record schema is made here (Parse, FromJSON and Project included), and the
// name index is built here or never: a schema is shared between the planner
// and every task that scans its dataset, so nothing may write to it later.
func RecordOf(name string, fields ...Field) *Schema {
	s := &Schema{Kind: KindRecord, Name: name, Fields: fields}
	if len(fields) > linearFields {
		s.index = make(map[string]int, len(fields))
		for i, f := range fields {
			// First declaration wins, as in the ordered search (Validate
			// rejects duplicate names; lookups just must not disagree).
			if _, dup := s.index[f.Name]; !dup {
				s.index[f.Name] = i
			}
		}
	}
	return s
}

// FieldIndex returns the position of the named field, or -1. It only reads
// the schema, so one schema may serve any number of goroutines. A record
// literal built without RecordOf has no index and is searched in order,
// whatever its width.
func (s *Schema) FieldIndex(name string) int {
	if s == nil || s.Kind != KindRecord {
		return -1
	}
	if s.index != nil {
		if i, ok := s.index[name]; ok {
			return i
		}
		return -1
	}
	for i := range s.Fields {
		if s.Fields[i].Name == name {
			return i
		}
	}
	return -1
}

// Field returns the schema of the named field, or nil.
func (s *Schema) Field(name string) *Schema {
	i := s.FieldIndex(name)
	if i < 0 {
		return nil
	}
	return s.Fields[i].Type
}

// FieldNames returns the record's field names in declaration order.
func (s *Schema) FieldNames() []string {
	names := make([]string, len(s.Fields))
	for i, f := range s.Fields {
		names[i] = f.Name
	}
	return names
}

// Project returns a record schema containing only the named fields, in the
// order given. It is the schema seen by a map function after projection
// pushdown (ColumnInputFormat.setColumns).
func (s *Schema) Project(names ...string) (*Schema, error) {
	if s.Kind != KindRecord {
		return nil, fmt.Errorf("serde: project on non-record schema %s", s.Kind)
	}
	fields := make([]Field, 0, len(names))
	for _, n := range names {
		i := s.FieldIndex(n)
		if i < 0 {
			return nil, fmt.Errorf("serde: project: no field %q in record %s", n, s.Name)
		}
		fields = append(fields, s.Fields[i])
	}
	return RecordOf(s.Name, fields...), nil
}

// Equal reports deep structural equality. Writers check it per record, and
// a record almost always carries the dataset's own schema object, so the
// identical-pointer case returns before walking either tree.
func (s *Schema) Equal(o *Schema) bool {
	if s == o {
		return true
	}
	if s == nil || o == nil {
		return false
	}
	if s.Kind != o.Kind || s.Name != o.Name || len(s.Fields) != len(o.Fields) {
		return false
	}
	if (s.Elem == nil) != (o.Elem == nil) {
		return false
	}
	if s.Elem != nil && !s.Elem.Equal(o.Elem) {
		return false
	}
	for i := range s.Fields {
		if s.Fields[i].Name != o.Fields[i].Name || !s.Fields[i].Type.Equal(o.Fields[i].Type) {
			return false
		}
	}
	return true
}

// Validate checks structural well-formedness: arrays and maps have element
// types, records have uniquely named fields, and no nil children exist.
func (s *Schema) Validate() error {
	if s == nil {
		return fmt.Errorf("serde: nil schema")
	}
	switch s.Kind {
	case KindArray, KindMap:
		if s.Elem == nil {
			return fmt.Errorf("serde: %s schema missing element type", s.Kind)
		}
		return s.Elem.Validate()
	case KindRecord:
		if len(s.Fields) == 0 {
			return fmt.Errorf("serde: record %q has no fields", s.Name)
		}
		seen := make(map[string]bool, len(s.Fields))
		for _, f := range s.Fields {
			if f.Name == "" {
				return fmt.Errorf("serde: record %q has an unnamed field", s.Name)
			}
			if seen[f.Name] {
				return fmt.Errorf("serde: record %q has duplicate field %q", s.Name, f.Name)
			}
			seen[f.Name] = true
			if err := f.Type.Validate(); err != nil {
				return fmt.Errorf("serde: field %q: %w", f.Name, err)
			}
		}
		return nil
	case KindBool, KindInt, KindLong, KindDouble, KindString, KindBytes, KindTime:
		return nil
	default:
		return fmt.Errorf("serde: unknown kind %d", int(s.Kind))
	}
}

// String renders the schema in the DSL accepted by Parse, so
// Parse(s.String()) reproduces s.
func (s *Schema) String() string {
	var b strings.Builder
	s.render(&b, 0)
	return b.String()
}

func (s *Schema) render(b *strings.Builder, depth int) {
	switch s.Kind {
	case KindArray:
		s.Elem.render(b, depth)
		b.WriteString("[]")
	case KindMap:
		b.WriteString("map<")
		s.Elem.render(b, depth)
		b.WriteString(">")
	case KindRecord:
		if s.Name != "" {
			b.WriteString(s.Name)
			b.WriteString(" ")
		}
		b.WriteString("{\n")
		indent := strings.Repeat("  ", depth+1)
		for i, f := range s.Fields {
			b.WriteString(indent)
			f.Type.render(b, depth+1)
			b.WriteString(" ")
			b.WriteString(f.Name)
			if i < len(s.Fields)-1 {
				b.WriteString(",")
			}
			b.WriteString("\n")
		}
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString("}")
	default:
		b.WriteString(s.Kind.String())
	}
}
