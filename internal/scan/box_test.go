package scan_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"colmr/internal/race"
	"colmr/internal/scan"
)

// boxTestColumn builds a vector of kind over n rows and the column as the
// compiler boxes it: any(x) of each row's Go value, nil for a null.
func boxTestColumn(rng *rand.Rand, kind scan.VecKind, n int) (*scan.Vector, []any) {
	v := scan.NewVector(kind, n)
	want := make([]any, n)
	for i := range want {
		if rng.Intn(6) == 0 {
			v.AppendNull()
			continue
		}
		switch kind {
		case scan.VecBool:
			x := rng.Intn(2) == 0
			want[i] = x
			if x {
				v.AppendInt(1)
			} else {
				v.AppendInt(0)
			}
		case scan.VecInt32:
			x := int32(rng.Uint32())
			want[i] = x
			v.AppendInt(int64(x))
		case scan.VecInt64:
			x := int64(rng.Uint64())
			want[i] = x
			v.AppendInt(x)
		case scan.VecFloat64:
			x := []float64{rng.NormFloat64(), math.NaN(), 0, math.Copysign(0, -1)}[rng.Intn(4)]
			want[i] = x
			v.AppendFloat(x)
		case scan.VecString:
			x := fmt.Sprint("s", 1000+rng.Intn(1000))[:rng.Intn(5)]
			want[i] = x
			v.AppendString(x)
		case scan.VecBytes:
			x := []byte(fmt.Sprint("b", 1000+rng.Intn(1000))[:rng.Intn(5)])
			want[i] = x
			v.AppendBytes(x)
		}
	}
	return v, want
}

// sameBoxed reports whether got is want as far as Go can tell: type, value
// (bit for bit, for a float), nil-ness.
func sameBoxed(got, want any) bool {
	if f, ok := want.(float64); ok {
		g, ok := got.(float64)
		return ok && math.Float64bits(f) == math.Float64bits(g)
	}
	if _, ok := want.([]byte); !ok && got != want { // == itself, where it is defined
		return false
	}
	return reflect.TypeOf(got) == reflect.TypeOf(want) && reflect.DeepEqual(got, want)
}

// What Box, BoxRange and Value hand out is what the compiler's own conversion
// of the same Go values is — nulls as nil — on every kind with typed storage,
// under any selection, and still so once the vector has been reset and
// refilled underneath (a pooled vector's fate) and the heap collected.
func TestBoxMatchesCompilerBoxing(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	kinds := []scan.VecKind{scan.VecBool, scan.VecInt32, scan.VecInt64, scan.VecFloat64, scan.VecString, scan.VecBytes}
	for round := 0; round < 300; round++ {
		kind := kinds[round%len(kinds)]
		n := 1 + rng.Intn(400)
		v, want := boxTestColumn(rng, kind, n)
		sel := scan.NewEmptySelection(n)
		var picked []any
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				sel.Set(i)
				picked = append(picked, want[i])
			}
		}
		all, some := make([]any, n), make([]any, len(picked))
		v.Box(nil, all, 1)
		if k := v.Box(sel, some, 1); k != len(picked) {
			t.Fatalf("%v: boxed %d selected rows, want %d", kind, k, len(picked))
		}
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo+1)
		ranged := make([]any, hi-lo)
		v.BoxRange(lo, hi, ranged)
		single := make([]any, n)
		for i := range single {
			single[i] = v.Value(i)
		}
		v.Reset(kind, n)
		for i := 0; i < n; i++ {
			switch kind {
			case scan.VecFloat64:
				v.AppendFloat(-1)
			case scan.VecString, scan.VecBytes:
				v.AppendString("~~~~~")
			default:
				v.AppendInt(-1)
			}
		}
		if round%50 == 0 {
			runtime.GC()
		}
		for _, c := range []struct {
			name      string
			got, want []any
		}{{"Box(nil)", all, want}, {"Box(sel)", some, picked}, {"BoxRange", ranged, want[lo:hi]}, {"Value", single, want}} {
			for i := range c.want {
				if !sameBoxed(c.got[i], c.want[i]) {
					t.Fatalf("%v %s row %d: %T %#v, the value is %T %#v", kind, c.name, i, c.got[i], c.got[i], c.want[i], c.want[i])
				}
			}
		}
	}
}

// boxBenchVector is 256 rows of kind, strings and bytes about a URL long.
func boxBenchVector(kind scan.VecKind) *scan.Vector {
	v := scan.NewVector(kind, 256)
	for i := 0; i < 256; i++ {
		switch kind {
		case scan.VecInt32:
			v.AppendInt(int64(1<<20 + i))
		default:
			v.AppendString(fmt.Sprintf("http://host%03d.example.com/a/%d", i, i*7919))
		}
	}
	return v
}

// Boxing a column costs its chunks, not its rows: one for 256 int32s; for 256
// short strings the arena and eight chunks of 32 headers.
func TestBoxAllocCeilings(t *testing.T) {
	dst := make([]any, 256)
	for _, c := range []struct {
		kind    scan.VecKind
		ceiling float64
	}{{scan.VecInt32, 1}, {scan.VecString, 10}, {scan.VecBytes, 14}} {
		v := boxBenchVector(c.kind)
		allocs := testing.AllocsPerRun(50, func() { v.Box(nil, dst, 1) })
		race.AllocCeiling(t, fmt.Sprintf("Vector.Box of 256 %v rows", c.kind), allocs, c.ceiling)
	}
}

// BenchmarkBox times Vector.Box alone — a decoded 256-row column into a
// record slab's stride — per kind, every row and every other row.
func BenchmarkBox(b *testing.B) {
	half := scan.NewEmptySelection(256)
	for i := 0; i < 256; i += 2 {
		half.Set(i)
	}
	dst := make([]any, 256)
	for _, kind := range []scan.VecKind{scan.VecInt32, scan.VecString, scan.VecBytes} {
		v := boxBenchVector(kind)
		for _, c := range []struct {
			name string
			sel  *scan.Selection
			rows int
		}{{"full", nil, 256}, {"half", half, 128}} {
			b.Run(fmt.Sprint(kind, "/", c.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					v.Box(c.sel, dst, 1)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.rows), "ns/row")
			})
		}
	}
}
