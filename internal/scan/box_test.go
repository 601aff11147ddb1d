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
	"colmr/internal/serde"
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
// under any selection, through a fresh Boxer or one that has boxed many
// vectors before, and still so once the vector has been reset and refilled
// underneath (a pooled vector's fate), the Boxer has boxed the next rounds,
// and the heap collected.
func TestBoxMatchesCompilerBoxing(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	kinds := []scan.VecKind{scan.VecBool, scan.VecInt32, scan.VecInt64, scan.VecFloat64, scan.VecString, scan.VecBytes}
	type kept struct {
		kind      scan.VecKind
		name      string
		got, want []any
	}
	var keep []kept
	bx := new(serde.Boxer)
	for round := 0; round < 300; round++ {
		if round%7 == 0 {
			bx = new(serde.Boxer)
		}
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
		v.Box(bx, nil, all, 1)
		if k := v.Box(bx, sel, some, 1); k != len(picked) {
			t.Fatalf("%v: boxed %d selected rows, want %d", kind, k, len(picked))
		}
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo+1)
		ranged := make([]any, hi-lo)
		v.BoxRange(bx, lo, hi, ranged)
		single := make([]any, n)
		for i := range single {
			single[i] = v.Value(bx, i)
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
		keep = append(keep, kept{kind, "Box(nil)", all, want}, kept{kind, "Box(sel)", some, picked},
			kept{kind, "BoxRange", ranged, want[lo:hi]}, kept{kind, "Value", single, want})
	}
	runtime.GC()
	for _, c := range keep {
		for i := range c.want {
			if !sameBoxed(c.got[i], c.want[i]) {
				t.Fatalf("%v %s row %d: %T %#v, the value is %T %#v", c.kind, c.name, i, c.got[i], c.got[i], c.want[i], c.want[i])
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

// Boxing a column costs its chunks, not its rows: through a fresh Boxer, one
// for 256 int32s; for 256 short strings the arena and eight chunks of 32
// headers. Through one long-lived Boxer, boxing the column in short ranges —
// 8 of 32 rows, or 128 of 2 rows as a selective lazy scan's runs are — costs
// the chunks of its 256 rows, not a set per call: one for the int32s; for
// URL-length strings 8 of headers and about 9 KiB of payload (a 32-row range
// of them is just over 1 KiB, so it takes an arena of its own instead); for
// byte slices 13 of headers and the same payload.
func TestBoxAllocCeilings(t *testing.T) {
	dst := make([]any, 256)
	for _, c := range []struct {
		kind    scan.VecKind
		ceiling float64
	}{{scan.VecInt32, 1}, {scan.VecString, 10}, {scan.VecBytes, 14}} {
		v := boxBenchVector(c.kind)
		bx := new(serde.Boxer)
		allocs := testing.AllocsPerRun(50, func() {
			*bx = serde.Boxer{}
			v.Box(bx, nil, dst, 1)
		})
		race.AllocCeiling(t, fmt.Sprintf("Vector.Box of 256 %v rows through a fresh Boxer", c.kind), allocs, c.ceiling)
	}
	for _, c := range []struct {
		kind    scan.VecKind
		width   int
		ceiling float64
	}{
		{scan.VecInt32, 32, 1}, {scan.VecInt32, 2, 1},
		{scan.VecString, 32, 8 + 8}, {scan.VecString, 2, 8 + 10},
		{scan.VecBytes, 32, 13 + 8}, {scan.VecBytes, 2, 13 + 10},
	} {
		v := boxBenchVector(c.kind)
		bx := new(serde.Boxer)
		allocs := testing.AllocsPerRun(50, func() {
			for lo := 0; lo < 256; lo += c.width {
				v.BoxRange(bx, lo, lo+c.width, dst)
			}
		})
		race.AllocCeiling(t, fmt.Sprintf("Vector.BoxRange of 256 %v rows, %d at a time, through one Boxer", c.kind, c.width), allocs, c.ceiling)
	}
}

// BenchmarkBox times Vector.Box alone — a decoded 256-row column into a
// record slab's stride, through a Boxer kept across calls as a reader keeps
// one — per kind, every row and every other row; and BoxRange over the same
// column in 2-row runs.
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
		}{{"full", nil, 256}, {"half", half, 128}, {"runs_of_2", nil, 256}} {
			b.Run(fmt.Sprint(kind, "/", c.name), func(b *testing.B) {
				var bx serde.Boxer
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if c.name != "runs_of_2" {
						v.Box(&bx, c.sel, dst, 1)
						continue
					}
					for lo := 0; lo < 256; lo += 2 {
						v.BoxRange(&bx, lo, lo+2, dst)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.rows), "ns/row")
			})
		}
	}
}
