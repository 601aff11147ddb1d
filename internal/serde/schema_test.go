package serde

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"colmr/internal/race"
)

// urlInfoDSL is the paper's Figure 2 schema.
const urlInfoDSL = `
URLInfo {
  string url,
  string srcUrl,
  time fetchTime,
  string[] inlink,
  map<string> metadata,
  map<string> annotations,
  bytes content
}`

func TestParseURLInfo(t *testing.T) {
	s, err := Parse(urlInfoDSL)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "URLInfo" || len(s.Fields) != 7 {
		t.Fatalf("parsed %q with %d fields", s.Name, len(s.Fields))
	}
	checks := []struct {
		field string
		kind  Kind
	}{
		{"url", KindString},
		{"srcUrl", KindString},
		{"fetchTime", KindTime},
		{"inlink", KindArray},
		{"metadata", KindMap},
		{"annotations", KindMap},
		{"content", KindBytes},
	}
	for _, c := range checks {
		f := s.Field(c.field)
		if f == nil {
			t.Errorf("missing field %q", c.field)
			continue
		}
		if f.Kind != c.kind {
			t.Errorf("field %q kind = %v, want %v", c.field, f.Kind, c.kind)
		}
	}
	if s.Field("inlink").Elem.Kind != KindString {
		t.Error("inlink should be string[]")
	}
	if s.Field("metadata").Elem.Kind != KindString {
		t.Error("metadata should be map<string>")
	}
}

func TestParseJavaStyleMap(t *testing.T) {
	// The paper's Java schema writes Map<String,String>.
	s, err := Parse(`X { map<string,string> metadata }`)
	if err != nil {
		t.Fatal(err)
	}
	if s.Field("metadata").Kind != KindMap || s.Field("metadata").Elem.Kind != KindString {
		t.Errorf("metadata = %v", s.Field("metadata"))
	}
	if _, err := Parse(`X { map<int,string> m }`); err == nil {
		t.Error("non-string map keys should be rejected")
	}
}

func TestParseNestedAndArrays(t *testing.T) {
	s, err := Parse(`
Doc {
  string id,
  Inner { int a, double b } nested,
  map<long> counts,
  int[][] matrix, // comment survives
}`)
	if err != nil {
		t.Fatal(err)
	}
	n := s.Field("nested")
	if n.Kind != KindRecord || n.Name != "Inner" || len(n.Fields) != 2 {
		t.Errorf("nested = %+v", n)
	}
	m := s.Field("matrix")
	if m.Kind != KindArray || m.Elem.Kind != KindArray || m.Elem.Elem.Kind != KindInt {
		t.Errorf("matrix = %v", m)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"X {",
		"X { string }",
		"X { wibble x }",
		"X { string a string b }",
		"X { map<string a }",
		"X {} trailing {}",
		"X { }",                    // empty record fails validation
		"X { string a, string a }", // duplicate field
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestSchemaStringRoundTrip(t *testing.T) {
	s := MustParse(urlInfoDSL)
	again, err := Parse(s.String())
	if err != nil {
		t.Fatalf("re-parsing rendered schema: %v\n%s", err, s.String())
	}
	if !s.Equal(again) {
		t.Errorf("round-trip schema differs:\n%s\nvs\n%s", s, again)
	}
}

func TestProject(t *testing.T) {
	s := MustParse(urlInfoDSL)
	p, err := s.Project("url", "metadata")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Fields) != 2 || p.Fields[0].Name != "url" || p.Fields[1].Name != "metadata" {
		t.Errorf("projection = %v", p.FieldNames())
	}
	if _, err := s.Project("nope"); err == nil {
		t.Error("projecting a missing field should fail")
	}
	if _, err := Int().Project("x"); err == nil {
		t.Error("projecting a non-record should fail")
	}
}

func TestEqualAndValidate(t *testing.T) {
	a := MustParse(urlInfoDSL)
	b := MustParse(urlInfoDSL)
	if !a.Equal(b) {
		t.Error("identical schemas not Equal")
	}
	c := RecordOf("URLInfo", Field{Name: "url", Type: String()})
	if a.Equal(c) {
		t.Error("different schemas Equal")
	}
	if err := (&Schema{Kind: KindArray}).Validate(); err == nil {
		t.Error("array without element type should fail validation")
	}
	if err := (&Schema{Kind: KindMap}).Validate(); err == nil {
		t.Error("map without value type should fail validation")
	}
	var nilSchema *Schema
	if err := nilSchema.Validate(); err == nil {
		t.Error("nil schema should fail validation")
	}
}

func TestFieldIndexOnNonRecord(t *testing.T) {
	if Int().FieldIndex("x") != -1 {
		t.Error("FieldIndex on non-record should be -1")
	}
	var s *Schema
	if s.FieldIndex("x") != -1 {
		t.Error("FieldIndex on nil should be -1")
	}
}

func TestKindString(t *testing.T) {
	for k := KindBool; k <= KindRecord; k++ {
		if strings.Contains(k.String(), "kind(") {
			t.Errorf("kind %d has no name", int(k))
		}
	}
	if !KindMap.IsComplex() || !KindArray.IsComplex() || !KindRecord.IsComplex() {
		t.Error("complex kinds misclassified")
	}
	if KindInt.IsComplex() || KindBytes.IsComplex() {
		t.Error("primitive kinds misclassified as complex")
	}
}

// wideRecord returns a record of n int fields f0..f(n-1), built the way every
// record schema is (RecordOf), and their names.
func wideRecord(n int) (*Schema, []string) {
	fields := make([]Field, n)
	names := make([]string, n)
	for i := range fields {
		names[i] = fmt.Sprintf("f%d", i)
		fields[i] = Field{Name: names[i], Type: Int()}
	}
	return RecordOf("Wide", fields...), names
}

// TestSchemaSharedFieldIndex: one schema object serves the planner and every
// task of a batch at once (the metadata catalog hands the same parse to all
// of them), so name lookups may only read it. Several goroutines hammer
// FieldIndex and Field on shared schemas on both sides of the linear-scan
// width — and on a record literal, which has no index at all — and every
// answer must be the declaration position. Run under -race: a lookup that
// writes to the schema (the index was once built on first use) is a report.
func TestSchemaSharedFieldIndex(t *testing.T) {
	var schemas []*Schema
	for _, n := range []int{1, 5, linearFields, linearFields + 1, 13, 40} {
		s, _ := wideRecord(n)
		schemas = append(schemas, s)
		parsed, err := Parse(s.String())
		if err != nil {
			t.Fatal(err)
		}
		schemas = append(schemas, parsed, &Schema{Kind: KindRecord, Name: s.Name, Fields: s.Fields})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				for _, s := range schemas {
					for i, f := range s.Fields {
						if got := s.FieldIndex(f.Name); got != i {
							t.Errorf("%d-field record: FieldIndex(%q) = %d, want %d", len(s.Fields), f.Name, got, i)
							return
						}
						if s.Field(f.Name) != f.Type {
							t.Errorf("%d-field record: Field(%q) is not the declared type", len(s.Fields), f.Name)
							return
						}
					}
					if got := s.FieldIndex("absent"); got != -1 {
						t.Errorf("%d-field record: FieldIndex of an absent name = %d", len(s.Fields), got)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkFieldIndex looks up every field of a record once per iteration:
// the per-Get cost under LazyRecord.Get. One field is what a projected record
// often has and is found by comparing names; 5 is just past that width, 13
// the synthetic dataset's full width, 40 a wide table — all three through the
// name index.
func BenchmarkFieldIndex(b *testing.B) {
	for _, n := range []int{1, 5, 13, 40} {
		s, names := wideRecord(n)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			sum := 0
			for i := 0; i < b.N; i++ {
				for _, name := range names {
					sum += s.FieldIndex(name)
				}
			}
			if want := b.N * n * (n - 1) / 2; sum != want {
				b.Fatalf("index sum %d, want %d", sum, want)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/lookup")
		})
	}
}

// TestFieldIndexAllocCeiling: a lookup allocates nothing at any width.
func TestFieldIndexAllocCeiling(t *testing.T) {
	for _, n := range []int{1, 5, 13, 40} {
		s, names := wideRecord(n)
		allocs := testing.AllocsPerRun(100, func() {
			for _, name := range names {
				if s.FieldIndex(name) < 0 {
					t.Fatalf("field %q not found", name)
				}
			}
		})
		race.AllocCeiling(t, fmt.Sprintf("FieldIndex over a %d-field record", n), allocs, 0)
	}
}
