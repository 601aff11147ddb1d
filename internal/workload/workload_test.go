package workload

import (
	"math"
	"strings"
	"testing"

	"colmr/internal/serde"
)

func TestSyntheticMatchesPaperShape(t *testing.T) {
	g := NewSynthetic(1)
	s := g.Schema()
	if len(s.Fields) != 13 {
		t.Fatalf("fields = %d, want 13 (6 strings + 6 ints + 1 map)", len(s.Fields))
	}
	rec := g.Record(42)
	for i := 0; i < 6; i++ {
		v := rec.GetAt(i).(string)
		if len(v) < 20 || len(v) > 40 {
			t.Errorf("str%d length %d outside [20,40]", i, len(v))
		}
	}
	for i := 6; i < 12; i++ {
		v := rec.GetAt(i).(int32)
		if v < 1 || v > 10000 {
			t.Errorf("int%d = %d outside [1,10000]", i-6, v)
		}
	}
	m := rec.GetAt(12).(map[string]any)
	if len(m) != 10 {
		t.Errorf("map has %d entries, want 10", len(m))
	}
	for k := range m {
		if len(k) != 4 {
			t.Errorf("map key %q length %d, want 4", k, len(k))
		}
	}
}

func TestDeterminismAndIndexAddressability(t *testing.T) {
	g1 := NewSynthetic(7)
	g2 := NewSynthetic(7)
	// Same index, independent generators, any order.
	a := g1.Record(100)
	g2.Record(3)
	b := g2.Record(100)
	if !serde.RecordsEqual(a, b) {
		t.Error("synthetic generator is not index-addressable")
	}
	if serde.RecordsEqual(g1.Record(1), g1.Record(2)) {
		t.Error("adjacent records identical")
	}
	if serde.RecordsEqual(NewSynthetic(1).Record(5), NewSynthetic(2).Record(5)) {
		t.Error("different seeds produced identical records")
	}
}

func TestCrawlSchemaIsFigure2(t *testing.T) {
	c := NewCrawl(CrawlOptions{Seed: 1})
	s := c.Schema()
	want := []string{"url", "srcUrl", "fetchTime", "inlink", "metadata", "annotations", "content"}
	got := s.FieldNames()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("fields = %v, want %v", got, want)
	}
	if s.Field("metadata").Kind != serde.KindMap || s.Field("inlink").Kind != serde.KindArray {
		t.Error("complex types wrong")
	}
}

// TestCrawlSelectivity generates 500 records; the benchmark of the same name
// generates 20 000.
func TestCrawlSelectivity(t *testing.T) { checkCrawlSelectivity(t, 500) }

func BenchmarkCrawlSelectivity(b *testing.B) {
	for range b.N {
		checkCrawlSelectivity(b, 20000)
	}
}

func checkCrawlSelectivity(t testing.TB, n int64) {
	c := NewCrawl(CrawlOptions{Seed: 3, Selectivity: 0.06})
	matches := 0
	for i := int64(0); i < n; i++ {
		rec := c.Record(i)
		url, _ := rec.Get("url")
		has := strings.Contains(url.(string), MatchPattern)
		if has != c.Matches(i) {
			t.Fatalf("Matches(%d) disagrees with generated URL", i)
		}
		if has {
			matches++
		}
	}
	frac := float64(matches) / float64(n)
	if math.Abs(frac-0.06) > 0.01 {
		t.Errorf("selectivity = %.4f, want ~0.06", frac)
	}
}

func TestCrawlContentDominates(t *testing.T) {
	c := NewCrawl(CrawlOptions{Seed: 5})
	var contentBytes, totalBytes int64
	for i := int64(0); i < 200; i++ {
		rec := c.Record(i)
		enc, err := serde.EncodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		totalBytes += int64(len(enc))
		ct, _ := rec.Get("content")
		contentBytes += int64(len(ct.([]byte)))
	}
	if frac := float64(contentBytes) / float64(totalBytes); frac < 0.6 {
		t.Errorf("content is %.2f of record bytes; paper's content column dominates", frac)
	}
	rec := c.Record(0)
	md, _ := rec.Get("metadata")
	if md.(map[string]any)["content-type"] == nil {
		t.Error("metadata missing content-type")
	}
}

func TestCrawlContentCompressible(t *testing.T) {
	// The content column must be mildly compressible, like real pages —
	// the SEQ-custom and CIF-LZO variants depend on it.
	c := NewCrawl(CrawlOptions{Seed: 9})
	rec := c.Record(1)
	ct, _ := rec.Get("content")
	content := ct.([]byte)
	if len(content) < 1000 {
		t.Fatalf("content only %d bytes", len(content))
	}
	counts := map[byte]int{}
	for _, b := range content {
		counts[b]++
	}
	if len(counts) > 120 {
		t.Errorf("content uses %d distinct bytes; should be readable-ish", len(counts))
	}
}

func TestWide(t *testing.T) {
	for _, cols := range []int{20, 40, 80} {
		w := NewWide(1, cols)
		if len(w.Schema().Fields) != cols {
			t.Fatalf("columns = %d, want %d", len(w.Schema().Fields), cols)
		}
		rec := w.Record(9)
		for i := 0; i < cols; i++ {
			if len(rec.GetAt(i).(string)) != 30 {
				t.Fatalf("column %d length != 30", i)
			}
		}
	}
}

func TestTypedFracSizes(t *testing.T) {
	for _, kind := range []TypedKind{TypedInts, TypedDoubles, TypedMaps} {
		for _, f := range []float64{0, 0.2, 0.6, 1.0} {
			g := NewTypedFrac(11, kind, f)
			rec := g.Record(3)
			enc, err := serde.EncodeRecord(rec)
			if err != nil {
				t.Fatal(err)
			}
			// Encoded size should be within 30% of the nominal 1000 bytes.
			if len(enc) < 700 || len(enc) > 1400 {
				t.Errorf("%v f=%.1f: encoded %d bytes, want ~%d", kind, f, len(enc), RecordBytes)
			}
			pad, _ := rec.Get("pad")
			wantPad := int(float64(RecordBytes) * (1 - f))
			if math.Abs(float64(len(pad.([]byte))-wantPad)) > 1 {
				t.Errorf("%v f=%.1f: pad = %d, want %d", kind, f, len(pad.([]byte)), wantPad)
			}
		}
	}
}

func TestTypedFracZeroHasNoTyped(t *testing.T) {
	g := NewTypedFrac(1, TypedMaps, 0)
	rec := g.Record(0)
	typed, _ := rec.Get("typed")
	if len(typed.([]any)) != 0 {
		t.Errorf("f=0 produced %d typed values", len(typed.([]any)))
	}
}

func TestTypedKindString(t *testing.T) {
	if TypedInts.String() != "integers" || TypedMaps.String() != "maps" {
		t.Error("kind names wrong")
	}
}
