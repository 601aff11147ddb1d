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
		return x, bx.String(x)
	default:
		x := []byte(randString(rng, []int{0, 24, 24, 300}[rng.Intn(4)]))
		if rng.Intn(8) == 0 {
			x = nil
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
// the heap being churned, strings' payloads included.
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

// Chunk lengths: told how many values are coming a Boxer allocates exactly
// their slots in chunks of at most 1 KiB (512 B of string headers); told
// nothing it doubles from one slot, so a decoder used once costs what the
// compiler's conversion cost and one that lives reaches full chunks.
func TestBoxerChunkLengths(t *testing.T) {
	for _, tc := range []struct {
		name    string
		expect  int
		box     func(*Boxer)
		n       int
		ceiling float64
	}{
		{"256 int32 expected", 256, func(b *Boxer) { b.Int32(1 << 20) }, 256, 1},
		{"300 int32 expected", 300, func(b *Boxer) { b.Int32(1 << 20) }, 300, 2},
		{"256 strings expected", 256, func(b *Boxer) { b.String("x") }, 256, 8},
		{"1 int64 unannounced", 0, func(b *Boxer) { b.Int64(1 << 40) }, 1, 1},
		{"1000 float64 unannounced", 0, func(b *Boxer) { b.Float64(1.5) }, 1000, 7 + 7}, // 1+2+…+64, then 128s
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

// A map's values come out of the decoder's chunks: what is left to allocate
// is the map and its ten key strings.
func TestDecodeMapValueAllocCeiling(t *testing.T) {
	schema, buf := tenEntryMap(t)
	var d Decoder
	allocs := testing.AllocsPerRun(200, func() {
		d.Init(buf, nil)
		if _, err := d.Value(schema); err != nil {
			t.Fatal(err)
		}
	})
	race.AllocCeiling(t, "Decoder.Value of a 10-entry map<int>", allocs, 15)
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
