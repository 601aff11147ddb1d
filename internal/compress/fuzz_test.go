package compress

import (
	"bytes"
	"math/rand"
	"testing"
)

// Decompressors consume on-disk bytes and must never panic or over-read.

func FuzzLZODecompress(f *testing.F) {
	good, _ := LZO{}.Compress(nil, []byte("hello hello hello hello world"))
	f.Add(good, 29)
	f.Add([]byte{}, 0)
	f.Add([]byte{0xF0, 0xFF}, 100)
	f.Fuzz(func(t *testing.T, data []byte, rawLen int) {
		if rawLen < 0 || rawLen > 1<<20 {
			return
		}
		_, _ = LZO{}.Decompress(nil, data, rawLen) // must not panic
	})
}

func FuzzLZORoundTrip(f *testing.F) {
	f.Add([]byte("the quick brown fox jumps over the lazy dog"))
	f.Add(bytes.Repeat([]byte{0}, 1000))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		comp, err := LZO{}.Compress(nil, data)
		if err != nil {
			t.Fatal(err)
		}
		out, err := LZO{}.Decompress(nil, comp, len(data))
		if err != nil {
			t.Fatalf("decompress own output: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatal("round trip mismatch")
		}
	})
}

func FuzzParseDictionary(f *testing.F) {
	d := NewDictionary()
	d.Add("content-type")
	d.Add("server")
	f.Add(d.Append(nil))
	f.Add([]byte{255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, n, err := ParseDictionary(data) // must not panic
		if err != nil {
			return
		}
		// What parses re-encodes through the writer to the bytes it came
		// from, but for two spellings the writer never produces: a repeated
		// entry (TestDictViewPositionalIDs pins those ids), and a count or
		// length prefix longer than it needs to be — re-encoded, that one
		// must still read back entry for entry.
		w := NewDictionary()
		for id := range v.Len() {
			e, err := v.Lookup(uint32(id))
			if err != nil {
				t.Fatalf("entry %d of %d: %v", id, v.Len(), err)
			}
			w.Add(string(e))
		}
		if w.Len() < v.Len() {
			return
		}
		again := w.Append(nil)
		if len(again) == n {
			if !bytes.Equal(again, data[:n]) {
				t.Fatalf("re-encoded %x\nfrom %x", again, data[:n])
			}
			return
		}
		back, m, err := ParseDictionary(again)
		if err != nil || m != len(again) || back.Len() != v.Len() {
			t.Fatalf("re-encoded %x: %d bytes read, %v", again, m, err)
		}
		for id := range v.Len() {
			a, _ := v.Lookup(uint32(id))
			b, _ := back.Lookup(uint32(id))
			if !bytes.Equal(a, b) {
				t.Fatalf("entry %d: %q re-encodes as %q", id, a, b)
			}
		}
	})
}

// TestLZODecompressRandomGarbage is the deterministic complement.
func TestLZODecompressRandomGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 2000; i++ {
		buf := make([]byte, rng.Intn(300))
		rng.Read(buf)
		_, _ = LZO{}.Decompress(nil, buf, rng.Intn(1000))
	}
}
