package compress

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"colmr/internal/sim"
)

func codecs(t *testing.T) []Codec {
	t.Helper()
	var out []Codec
	for _, name := range []string{"none", "lzo", "zlib"} {
		c, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
	}
	return out
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("snappy"); err == nil {
		t.Error("unknown codec should fail")
	}
	if c, err := ByName(""); err != nil || c.Name() != "none" {
		t.Errorf("empty name = %v, %v; want none", c, err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	for _, c := range codecs(t) {
		c := c
		f := func(data []byte) bool {
			comp, err := c.Compress(nil, data)
			if err != nil {
				return false
			}
			out, err := c.Decompress(nil, comp, len(data))
			if err != nil {
				t.Logf("%s: decompress: %v", c.Name(), err)
				return false
			}
			return bytes.Equal(out, data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}

func TestRoundTripCompressibleData(t *testing.T) {
	// Highly repetitive data exercises long matches and extended lengths.
	data := []byte(strings.Repeat("content-type: text/html; charset=utf-8\n", 2000))
	for _, c := range codecs(t) {
		comp, err := c.Compress(nil, data)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if c.Name() != "none" && len(comp) >= len(data)/4 {
			t.Errorf("%s: repetitive data compressed to %d/%d bytes; want < 25%%", c.Name(), len(comp), len(data))
		}
		out, err := c.Decompress(nil, comp, len(data))
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if !bytes.Equal(out, data) {
			t.Errorf("%s: round-trip mismatch", c.Name())
		}
	}
}

func TestRoundTripOverlappingMatches(t *testing.T) {
	// "aaaa..." forces matches that overlap their own output.
	data := bytes.Repeat([]byte{'a'}, 100_000)
	comp, err := LZO{}.Compress(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) > 1000 {
		t.Errorf("run of a's compressed to %d bytes", len(comp))
	}
	out, err := LZO{}.Decompress(nil, comp, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Error("overlapping-match round trip failed")
	}
}

// LZO decodes straight into the tail of the buffer it is handed: what the
// buffer already holds is neither touched nor reachable by a match offset, a
// block that would outgrow its raw length fails at the sequence that does it,
// every failure hands the buffer back as it came, and a buffer with room costs
// no allocation (the block reader hands the same frame back every time).
func TestLZODecompressIntoTail(t *testing.T) {
	data := []byte(strings.Repeat("GET /index.html HTTP/1.1 ", 400) + "tail")
	comp, err := LZO{}.Compress(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("already here|")
	out, err := LZO{}.Decompress(append([]byte(nil), prefix...), comp, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], data) {
		t.Fatal("decompressing after a prefix changed the prefix or the block")
	}

	// One literal, then a match reaching four bytes back: before the block's
	// own start, whatever the buffer holds ahead of it.
	reachesBack := []byte{0x10, 'x', 0x03, 0x00}
	// Sixteen literals declared for a block of eight.
	outgrows := append([]byte{0xF0, 0x01}, "0123456789abcdef"...)
	for name, tc := range map[string]struct {
		src    []byte
		rawLen int
	}{
		"match before block start": {reachesBack, 9},
		"literals past raw length": {outgrows, 8},
		"one short of raw length":  {comp, len(data) + 1},
		"one past raw length":      {comp, len(data) - 1},
		"negative raw length":      {comp, -1},
	} {
		dst := append(make([]byte, 0, 64), prefix...)
		got, err := LZO{}.Decompress(dst, tc.src, tc.rawLen)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if len(got) != len(prefix) || !bytes.Equal(got, prefix) {
			t.Errorf("%s: the caller's buffer came back as %q", name, got)
		}
	}

	frame := make([]byte, 0, len(data))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := (LZO{}).Decompress(frame[:0], comp, len(data)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("decompressing into a buffer with room allocates %.0f objects, want 0", allocs)
	}
}

func TestRoundTripRandomIncompressible(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 300_000)
	rng.Read(data)
	for _, c := range codecs(t) {
		comp, _ := c.Compress(nil, data)
		out, err := c.Decompress(nil, comp, len(data))
		if err != nil || !bytes.Equal(out, data) {
			t.Errorf("%s: incompressible round trip failed: %v", c.Name(), err)
		}
	}
}

func TestCompressionRatioOrdering(t *testing.T) {
	// ZLIB should compress structured text better than the LZ77 codec,
	// which should beat none — the ratio ordering the paper's Table 1
	// depends on (CIF-ZLIB reads 36 GB < CIF-LZO 54 GB < CIF 96 GB).
	var data []byte
	rng := rand.New(rand.NewSource(2))
	headers := []string{"content-type", "content-length", "last-modified", "server", "etag"}
	for i := 0; i < 5000; i++ {
		data = append(data, headers[rng.Intn(len(headers))]...)
		data = append(data, ": value"...)
		data = append(data, byte('0'+rng.Intn(10)))
		data = append(data, '\n')
	}
	sizes := map[string]int{}
	for _, c := range codecs(t) {
		comp, _ := c.Compress(nil, data)
		sizes[c.Name()] = len(comp)
	}
	if !(sizes["zlib"] < sizes["lzo"] && sizes["lzo"] < sizes["none"]) {
		t.Errorf("ratio ordering violated: %v", sizes)
	}
}

func TestDecompressCorrupt(t *testing.T) {
	data := []byte(strings.Repeat("abcdefgh", 100))
	for _, c := range codecs(t) {
		comp, _ := c.Compress(nil, data)
		// Wrong rawLen must be detected.
		if _, err := c.Decompress(nil, comp, len(data)+1); err == nil {
			t.Errorf("%s: wrong rawLen accepted", c.Name())
		}
		// Truncated input must error, not panic.
		if len(comp) > 4 {
			if _, err := c.Decompress(nil, comp[:len(comp)/2], len(data)); err == nil && c.Name() != "none" {
				t.Errorf("%s: truncated input accepted", c.Name())
			}
		}
	}
	// Garbage offsets must be rejected.
	if _, err := (LZO{}).Decompress(nil, []byte{0x0F, 0xFF, 0xFF}, 100); err == nil {
		t.Error("lzo: garbage input accepted")
	}
}

func TestDictionary(t *testing.T) {
	d := NewDictionary()
	a := d.Add("content-type")
	b := d.Add("server")
	if a2 := d.Add("content-type"); a2 != a {
		t.Errorf("re-Add returned %d, want %d", a2, a)
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
	if s, err := d.Lookup(b); err != nil || s != "server" {
		t.Errorf("Lookup(%d) = %q, %v", b, s, err)
	}
	if _, err := d.Lookup(99); err == nil {
		t.Error("Lookup out of range should fail")
	}
	if id, ok := d.ID("server"); !ok || id != b {
		t.Errorf("ID(server) = %d, %v", id, ok)
	}
	if _, ok := d.ID("missing"); ok {
		t.Error("ID of missing string should report false")
	}
}

func TestDictionarySerializationRoundTrip(t *testing.T) {
	d := NewDictionary()
	for _, s := range []string{"a", "bb", "", "content-type", "ccc"} {
		d.Add(s)
	}
	buf := d.Append(nil)
	buf = append(buf, 0xAA, 0xBB) // trailing bytes must be left alone
	got, n, err := ParseDictionary(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf)-2 {
		t.Errorf("consumed %d bytes, want %d", n, len(buf)-2)
	}
	if got.Len() != d.Len() {
		t.Fatalf("parsed %d entries, want %d", got.Len(), d.Len())
	}
	for i := 0; i < d.Len(); i++ {
		a, _ := d.Lookup(uint32(i))
		b, _ := got.Lookup(uint32(i))
		if a != b {
			t.Errorf("entry %d: %q != %q", i, a, b)
		}
	}
}

func TestParseDictionaryCorrupt(t *testing.T) {
	for _, buf := range [][]byte{
		{},
		{5},          // count 5, no entries
		{1, 10, 'a'}, // entry shorter than declared
		{255, 255, 255, 255, 255, 255, 255, 255, 255, 2}, // absurd count
	} {
		if _, _, err := ParseDictionary(buf); err == nil {
			t.Errorf("ParseDictionary(%v) succeeded, want error", buf)
		}
	}
}

func TestChargeHelpers(t *testing.T) {
	var st sim.CPUStats
	ChargeDecomp(&st, "zlib", 10)
	ChargeDecomp(&st, "lzo", 20)
	ChargeDecomp(&st, "dict", 30)
	ChargeDecomp(&st, "none", 40) // identity costs nothing
	ChargeDecomp(nil, "zlib", 50) // nil sink is safe
	if st.ZlibBytes != 10 || st.LzoBytes != 20 || st.DictBytes != 30 {
		t.Errorf("decomp charges = %+v", st)
	}
	ChargeComp(&st, "zlib", 1)
	ChargeComp(&st, "lzo", 2)
	ChargeComp(&st, "dict", 3)
	if st.ZlibCompBytes != 1 || st.LzoCompBytes != 2 || st.DictCompBytes != 3 {
		t.Errorf("comp charges = %+v", st)
	}
}
