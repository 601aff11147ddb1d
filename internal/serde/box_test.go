package serde

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"colmr/internal/race"
)

// boxPair draws one primitive of a random kind and returns it boxed by the
// compiler and by bx.
func boxPair(rng *rand.Rand, bx *Boxer) (plain, boxed any) {
	switch rng.Intn(5) {
	case 0:
		x := int32(rng.Uint32())
		if rng.Intn(4) == 0 {
			x = int32(rng.Intn(256)) // the runtime's own small-value table
		}
		return x, bx.Int32(x)
	case 1:
		x := int64(rng.Uint64())
		return x, bx.Int64(x)
	case 2:
		x := []float64{rng.NormFloat64(), math.NaN(), 0, math.Copysign(0, -1), math.Inf(1)}[rng.Intn(5)]
		return x, bx.Float64(x)
	case 3:
		x := randString(rng, []int{0, 24, 24, 300}[rng.Intn(4)]) // empty and past singleMax too
		if rng.Intn(2) == 0 {
			return x, bx.String(bx.CopyString([]byte(x))) // its bytes from the payload chunk
		}
		return x, bx.String(x)
	default:
		x := []byte(randString(rng, []int{0, 24, 24, 300}[rng.Intn(4)]))
		switch rng.Intn(8) {
		case 0:
			x = nil
		case 1, 2, 3:
			return x, bx.Bytes(bx.CopyBytes(x))
		}
		return x, bx.Bytes(x)
	}
}

// A boxed value is a value: nothing that can be asked of any(x) tells the two
// apart.
func TestBoxedValuesBehaveAsValues(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var bx Boxer
	seen := map[any]int{}
	for i := 0; i < 5000; i++ {
		if i%97 == 0 {
			bx = Boxer{}
			bx.Expect(1 + rng.Intn(40))
		}
		plain, boxed := boxPair(rng, &bx)
		if reflect.TypeOf(plain) != reflect.TypeOf(boxed) {
			t.Fatalf("%T boxed as %T", plain, boxed)
		}
		if !reflect.DeepEqual(plain, boxed) {
			if f, ok := plain.(float64); !ok || !math.IsNaN(f) || !math.IsNaN(boxed.(float64)) {
				t.Fatalf("%#v boxed as %#v", plain, boxed)
			}
		}
		if a, b := fmt.Sprintf("%v %#v %T", plain, plain, plain), fmt.Sprintf("%v %#v %T", boxed, boxed, boxed); a != b {
			t.Fatalf("prints %q, boxed %q", a, b)
		}
		ja, errA := json.Marshal(plain)
		jb, errB := json.Marshal(boxed)
		if string(ja) != string(jb) || (errA == nil) != (errB == nil) {
			t.Fatalf("marshals %s (%v), boxed %s (%v)", ja, errA, jb, errB)
		}
		switch x := boxed.(type) {
		case int32:
			if y, ok := boxed.(int32); !ok || y != plain.(int32) || x != y {
				t.Fatalf("int32 %d asserts to %d", plain, y)
			}
		case int64:
			if x != plain.(int64) {
				t.Fatalf("int64 %d switches to %d", plain, x)
			}
		case float64:
			if math.Float64bits(x) != math.Float64bits(plain.(float64)) {
				t.Fatalf("float64 %v switches to %v", plain, x)
			}
		case string:
			if x != plain.(string) {
				t.Fatalf("string %q switches to %q", plain, x)
			}
		case []byte:
			if string(x) != string(plain.([]byte)) || (x == nil) != (plain.([]byte) == nil) {
				t.Fatalf("bytes %q switches to %q", plain, x)
			}
			continue // not comparable, boxed by whom ever
		default:
			t.Fatalf("boxed %T matches no case", boxed)
		}
		// == and map keys: NaN equals nothing, itself included; -0 equals +0.
		if f, ok := plain.(float64); ok && math.IsNaN(f) {
			if boxed == boxed || boxed == plain {
				t.Fatal("a boxed NaN compares equal")
			}
			continue
		}
		if boxed != plain || plain != boxed || boxed != boxed {
			t.Fatalf("%#v != its boxed self %#v", plain, boxed)
		}
		seen[boxed]++
		seen[plain]++
		if seen[boxed]%2 != 0 {
			t.Fatalf("%#v and its boxed self are two map keys", plain)
		}
	}
	if _, ok := seen[bx.Float64(math.Copysign(0, -1))]; !ok {
		t.Error("boxed -0 does not find the key 0")
	}
}

// Chunks are ordinary garbage-collected memory, each kept alive by any one of
// its values: one value a chunk survives everything else being dropped and
// the heap being churned, strings' payloads and map keys included.
func TestBoxedValuesSurviveGC(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	rng := rand.New(rand.NewSource(7))
	type kept struct {
		boxed any
		want  string
	}
	var keep []kept
	var bx Boxer
	for i := 0; i < 40000; i++ {
		if i%5000 == 0 {
			bx = Boxer{} // a boxer's last chunk lives on in its values
		}
		plain, boxed := boxPair(rng, &bx)
		if i%37 == 0 { // at most one a chunk, and many chunks none
			keep = append(keep, kept{boxed, fmt.Sprintf("%#v", plain)})
		}
		if i%1013 == 0 { // a map whose keys share the payload chunk with other values
			plain, boxed := map[string]any{}, map[string]any{}
			for range 3 {
				k := randString(rng, 1+rng.Intn(8))
				v, bv := boxPair(rng, &bx)
				plain[k], boxed[bx.CopyString([]byte(k))] = v, bv
			}
			keep = append(keep, kept{boxed, fmt.Sprintf("%#v", plain)})
		}
	}
	bx = Boxer{}
	var sink [][]byte
	for round := 0; round < 4; round++ {
		for i := 0; i < 2000; i++ {
			sink = append(sink, make([]byte, 16+rng.Intn(1024)))
		}
		sink = sink[:0]
		runtime.GC()
	}
	for i, k := range keep {
		if got := fmt.Sprintf("%#v", k.boxed); got != k.want {
			t.Fatalf("kept value %d reads %s after GC, was %s", i, got, k.want)
		}
	}
}

// Chunk lengths: told how many values are coming a Boxer cuts its first chunk
// to their slots, in chunks of at most 1 KiB (512 B of string headers); told
// nothing it starts from one slot; either way each type's chunks at least
// double from one to the next, so a decoder used once costs what the
// compiler's conversion cost and one that lives reaches full chunks and stays
// there — Expect is a floor: a short call announced later, or chunks of
// another type cut in between, never shrink the next chunk. Payloads go the
// same way in bytes: the first chunk is the first payload (times the values
// announced, up to 1 KiB), later ones double to 1 KiB, and one past
// singleMax is an allocation of its own.
func TestBoxerChunkLengths(t *testing.T) {
	p8, p24, p40, p300 := make([]byte, 8), make([]byte, 24), make([]byte, 40), make([]byte, 300)
	for _, tc := range []struct {
		name    string
		expect  int
		box     func(*Boxer)
		n       int
		ceiling float64
		payload int // the payload chunk's length after the run
	}{
		{"256 int32 expected", 256, func(b *Boxer) { b.Int32(1 << 20) }, 256, 1, 0},
		{"300 int32 expected", 300, func(b *Boxer) { b.Int32(1 << 20) }, 300, 2, 0},
		{"256 strings expected", 256, func(b *Boxer) { b.String("x") }, 256, 8, 0},
		{"1 int64 unannounced", 0, func(b *Boxer) { b.Int64(1 << 40) }, 1, 1, 0},
		{"1000 float64 unannounced", 0, func(b *Boxer) { b.Float64(1.5) }, 1000, 7 + 7, 0}, // 1+2+…+64, then 128s
		{"1 payload of 24 B", 0, func(b *Boxer) { b.CopyBytes(p24) }, 1, 1, 24},
		{"1000 payloads of 8 B", 0, func(b *Boxer) { b.CopyString(p8) }, 1000, 8 + 6, 1024}, // 8+16+…+1024 B, then 1 KiB
		{"16 payloads of 40 B expected", 16, func(b *Boxer) { b.CopyBytes(p40) }, 16, 1, 640},
		{"10 payloads of 300 B", 0, func(b *Boxer) { b.CopyBytes(p300) }, 10, 10, 0},
	} {
		bx := new(Boxer) // it escapes through tc.box: not an allocation of the run's
		allocs := testing.AllocsPerRun(20, func() {
			*bx = Boxer{}
			bx.Expect(tc.expect)
			for i := 0; i < tc.n; i++ {
				tc.box(bx)
			}
		})
		race.AllocCeiling(t, tc.name, allocs, tc.ceiling)
		if cap(bx.pay) != tc.payload {
			t.Errorf("%s: payload chunk of %d B, want %d", tc.name, cap(bx.pay), tc.payload)
		}
	}

	// The length of the int32 chunk a Boxer cuts next, after prime and an
	// Expect(expect).
	fill := func(b *Boxer, n int, box func(*Boxer)) {
		b.Expect(n)
		for i := 0; i < n; i++ {
			box(b)
		}
	}
	i32 := func(b *Boxer) { b.Int32(1 << 20) }
	for _, tc := range []struct {
		name   string
		prime  func(*Boxer)
		expect int
		slots  int
	}{
		{"Expect(2) after a full chunk", func(b *Boxer) { fill(b, 256, i32) }, 2, 256},
		{"Expect(1024) on a fresh Boxer", func(*Boxer) {}, 1024, 256},
		{"Expect(2) on a fresh Boxer", func(*Boxer) {}, 2, 2},
		{"Expect(2) after a 24-slot chunk", func(b *Boxer) { fill(b, 24, i32) }, 2, 48},
		{"Expect(100) after a 24-slot chunk", func(b *Boxer) { fill(b, 24, i32) }, 100, 100},
		{"Expect(2) after a full chunk and 16 string chunks", func(b *Boxer) {
			fill(b, 256, i32)
			for i := 0; i < 256; i++ {
				fill(b, 2, func(b *Boxer) { b.String("x") })
			}
		}, 2, 256},
	} {
		bx := new(Boxer)
		tc.prime(bx)
		for len(bx.i32.free) > 0 { // use up the primed chunk
			i32(bx)
		}
		bx.Expect(tc.expect)
		i32(bx)
		if got := 1 + len(bx.i32.free); got != tc.slots {
			t.Errorf("%s: next int32 chunk of %d slots, want %d", tc.name, got, tc.slots)
		}
	}
}

// A copied byte slice ends where it ends: appending to one moves it, and the
// payloads carved from the same chunk before and after it read as they did.
func TestBoxerCopiedBytesCapped(t *testing.T) {
	var bx Boxer
	before := bx.CopyString([]byte("before"))
	b := bx.CopyBytes([]byte("middle"))
	after := bx.CopyBytes([]byte("after"))
	if len(b) != 6 || cap(b) != len(b) {
		t.Fatalf("copied %q has len %d, cap %d", b, len(b), cap(b))
	}
	grown := append(b, "-and-more"...)
	grown[0] = 'M'
	if before != "before" || string(b) != "middle" || string(after) != "after" || string(grown) != "Middle-and-more" {
		t.Fatalf("after an append to its chunk-mate: %q %q %q (grown %q)", before, b, after, grown)
	}
	for i := range b {
		b[i] = 'x' // writing inside its own bytes is the caller's own business
	}
	if before != "before" || string(after) != "after" {
		t.Fatalf("a write to one payload reached its chunk-mates: %q %q", before, after)
	}
}

// tenEntryMap encodes a map<int> of ten entries, the paper's synthetic map
// column.
func tenEntryMap(tb testing.TB) (*Schema, []byte) {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	m := map[string]any{}
	for len(m) < 10 {
		m[randString(rng, 4)] = int32(1<<20 + rng.Intn(10000))
	}
	schema := MapOf(Int())
	buf, err := AppendValue(nil, schema, m)
	if err != nil {
		tb.Fatal(err)
	}
	return schema, buf
}

// A map's values and its keys' bytes come out of the decoder's chunks: what
// is left to allocate is the map itself.
func TestDecodeMapValueAllocCeiling(t *testing.T) {
	schema, buf := tenEntryMap(t)
	var d Decoder
	allocs := testing.AllocsPerRun(200, func() {
		d.Init(buf, nil)
		if _, err := d.Value(schema); err != nil {
			t.Fatal(err)
		}
	})
	race.AllocCeiling(t, "Decoder.Value of a 10-entry map<int>", allocs, 5)
}

// BenchmarkDecodeMapValue decodes the ten-entry map through one re-Inited
// decoder, as a column reader does.
func BenchmarkDecodeMapValue(b *testing.B) {
	schema, buf := tenEntryMap(b)
	var d Decoder
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		d.Init(buf, nil)
		if _, err := d.Value(schema); err != nil {
			b.Fatal(err)
		}
	}
}

// Pointing a decoder at new input — a fresh Init, a Reset, a retry after a
// window that ended mid-value — leaves every earlier result as it was decoded.
func TestDecoderReuseLeavesEarlierResults(t *testing.T) {
	schema := MustParse(`T { string s, int i, long l, double d, bytes b, string[] a, map<long> m, map<string> sm }`)
	rng := rand.New(rand.NewSource(99))
	var d Decoder
	type kept struct {
		rec  *GenericRecord
		want *GenericRecord
	}
	var keep []kept
	for i := 0; i < 400; i++ {
		want := RandomRecord(rng, schema)
		buf, err := EncodeRecord(want)
		if err != nil {
			t.Fatal(err)
		}
		if cut := rng.Intn(len(buf)); i%3 == 0 {
			d.Init(buf[:cut], nil) // the short window: fails somewhere inside the record
			if _, err := d.Record(schema); err == nil && cut < len(buf) {
				t.Fatalf("record %d decoded from %d of %d bytes", i, cut, len(buf))
			}
			d.Reset(buf)
		} else {
			d.Init(buf, nil)
		}
		rec, err := d.Record(schema)
		if err != nil {
			t.Fatal(err)
		}
		keep = append(keep, kept{rec, want})
	}
	for i, k := range keep {
		if !ValuesEqual(schema, k.rec, k.want) {
			t.Fatalf("record %d read back as %v after %d later decodes, was %v", i, k.rec, len(keep)-1-i, k.want)
		}
	}
}
