package serde

import (
	"fmt"
	"math/rand"
	"testing"
)

// Decoders are exposed to on-disk bytes and must never panic, whatever the
// input. The fuzz targets run their seed corpus under plain `go test` and
// explore further under `go test -fuzz`.

func FuzzDecodeRecord(f *testing.F) {
	schema := MustParse(`
T { string s, int i, double d, bytes b, string[] a, map<long> m, map<string> sm, Inner { int x } n }`)
	good, _ := EncodeRecord(RandomRecord(rand.New(rand.NewSource(1)), schema))
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Add(good[:len(good)/2])
	// One decoder serves every input, as a column reader's does every value:
	// what it decoded from an earlier input — after a failed attempt at a
	// window cut short, like the ones stream.decodeRetry retries — must read
	// the same once it has moved on.
	var reused Decoder
	var last *GenericRecord
	var lastPrinted string
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data, nil)
		_, _ = d.Record(schema) // must not panic
		d.Reset(data)
		_ = d.Scan(schema)
		d.Reset(data)
		_ = d.Skip(schema)

		reused.Init(data[:len(data)/2], nil)
		_, _ = reused.Record(schema)
		reused.Reset(data)
		rec, err := reused.Record(schema)
		if last != nil && fmt.Sprint(last) != lastPrinted {
			t.Fatalf("an earlier record reads %v after the decoder moved on, was %s", last, lastPrinted)
		}
		if err == nil {
			last, lastPrinted = rec, fmt.Sprint(rec)
		}
	})
}

func FuzzParseSchema(f *testing.F) {
	f.Add("URLInfo { string url, map<string> metadata }")
	f.Add("X { int[][] m }")
	f.Add("{}{}{}")
	f.Add("map<map<map<string>>>")
	f.Fuzz(func(t *testing.T, src string) {
		if s, err := Parse(src); err == nil {
			// Anything that parses must render and re-parse to an equal
			// schema.
			again, err := Parse(s.String())
			if err != nil {
				t.Fatalf("re-parse of %q failed: %v", s.String(), err)
			}
			if !s.Equal(again) {
				t.Fatalf("round trip changed schema: %q", src)
			}
		}
	})
}

// TestDecodeRandomGarbage hammers the decoder with seeded random bytes —
// a deterministic complement to the fuzz targets.
func TestDecodeRandomGarbage(t *testing.T) {
	schema := MustParse(`T { string s, map<string> m, bytes b, int[] a }`)
	rng := rand.New(rand.NewSource(1234))
	for i := 0; i < 2000; i++ {
		buf := make([]byte, rng.Intn(200))
		rng.Read(buf)
		d := NewDecoder(buf, nil)
		_, _ = d.Record(schema)
	}
}
