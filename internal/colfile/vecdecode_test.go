package colfile

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
)

// Batch decode equivalence: DecodeVector over arbitrary sub-ranges must box
// to exactly the values the scalar Value loop produces, for every layout and
// every primitive (and boxed) schema — with the cursor advanced to the range
// end, interleaving correctly with scalar reads between ranges.

func vecDecodeSchemas() map[string]struct {
	schema *serde.Schema
	gen    func(rng *rand.Rand, i int) any
} {
	return map[string]struct {
		schema *serde.Schema
		gen    func(rng *rand.Rand, i int) any
	}{
		"bool":   {serde.Bool(), func(rng *rand.Rand, i int) any { return rng.Intn(2) == 0 }},
		"int":    {serde.Int(), func(rng *rand.Rand, i int) any { return int32(rng.Intn(1000)) }},
		"long":   {serde.Long(), func(rng *rand.Rand, i int) any { return int64(i) * 37 }},
		"double": {serde.Double(), func(rng *rand.Rand, i int) any { return float64(rng.Intn(100)) / 8 }},
		"string": {serde.String(), func(rng *rand.Rand, i int) any { return "v" + string(rune('a'+rng.Intn(26))) }},
		"bytes":  {serde.Bytes(), func(rng *rand.Rand, i int) any { return []byte{byte(i), byte(rng.Intn(256))} }},
		"map": {serde.MapOf(serde.Int()), func(rng *rand.Rand, i int) any {
			if rng.Intn(5) == 0 {
				return map[string]any{}
			}
			return map[string]any{"k": int32(i)}
		}},
	}
}

func TestVectorDecodeEquivalence(t *testing.T) {
	const n = 437
	rng := rand.New(rand.NewSource(42))
	for name, tc := range vecDecodeSchemas() {
		for _, opts := range allLayouts() {
			if opts.Layout == DCSL && tc.schema.Kind != serde.KindMap {
				continue
			}
			lname := name + "/" + opts.Layout.String() + "/" + opts.Codec
			f, vals := writeColumn(t, tc.schema, opts, n, func(i int) any { return tc.gen(rng, i) })

			r, err := NewReader(f.reader(), tc.schema, nil)
			if err != nil {
				t.Fatalf("%s: %v", lname, err)
			}
			dec, ok := r.(VectorDecoder)
			if !ok {
				t.Fatalf("%s: reader %T does not batch-decode", lname, r)
			}
			kind := VecKindOf(tc.schema)

			// Walk the file as interleaved scalar reads and batch decodes of
			// random widths, comparing boxed values throughout.
			pos := int64(0)
			for pos < n {
				if rng.Intn(3) == 0 {
					if err := r.SkipTo(pos); err != nil {
						t.Fatalf("%s: skip to %d: %v", lname, pos, err)
					}
					v, err := r.Value()
					if err != nil {
						t.Fatalf("%s: scalar value %d: %v", lname, pos, err)
					}
					if !serde.ValuesEqual(tc.schema, v, vals[pos]) {
						t.Fatalf("%s: scalar record %d: %v vs %v", lname, pos, v, vals[pos])
					}
					pos++
					continue
				}
				end := pos + 1 + int64(rng.Intn(120))
				if end > n {
					end = n
				}
				vec := scan.NewVector(kind, int(end-pos))
				if err := dec.DecodeVector(pos, end, vec, nil); err != nil {
					t.Fatalf("%s: decode [%d,%d): %v", lname, pos, end, err)
				}
				if vec.Len() != int(end-pos) {
					t.Fatalf("%s: decode [%d,%d) produced %d rows", lname, pos, end, vec.Len())
				}
				var bx serde.Boxer
				for i := 0; i < vec.Len(); i++ {
					if got := vec.Value(&bx, i); !serde.ValuesEqual(tc.schema, got, vals[pos+int64(i)]) {
						t.Fatalf("%s: batch record %d: %v vs %v", lname, pos+int64(i), got, vals[pos+int64(i)])
					}
				}
				pos = end
			}

			// Decoding behind the cursor must fail loudly, not rewind.
			vec := scan.NewVector(kind, 1)
			if err := dec.DecodeVector(0, 1, vec, nil); err == nil {
				t.Fatalf("%s: decode behind cursor succeeded", lname)
			}
		}
	}
}

func TestVectorKeyProbeEquivalence(t *testing.T) {
	const n = 437
	rng := rand.New(rand.NewSource(7))
	schema := mapSchema()
	keys := []string{"content-type", "server", "etag", "absent"}
	gen := func(i int) any {
		m := map[string]any{}
		for _, k := range keys[:rng.Intn(4)] {
			m[k] = int32(i)
		}
		return m
	}
	f, vals := writeColumn(t, schema, Options{Layout: DCSL, Levels: []int{100, 10}, StatsEvery: 20}, n, gen)

	for _, key := range keys {
		r, err := NewReader(f.reader(), schema, nil)
		if err != nil {
			t.Fatal(err)
		}
		kp, ok := r.(KeyVecProber)
		if !ok {
			t.Fatalf("DCSL reader %T does not probe", r)
		}
		pos := int64(0)
		for pos < n {
			end := pos + 1 + int64(rng.Intn(150))
			if end > n {
				end = n
			}
			// A random candidate subset, as AND chains hand the prober; the
			// probe narrows it in place.
			in := scan.NewEmptySelection(int(end - pos))
			for i := 0; i < in.Len(); i++ {
				if rng.Intn(3) > 0 {
					in.Set(i)
				}
			}
			res := in.Clone()
			answered, err := kp.ProbeKeys(key, pos, end, res, nil)
			if err != nil {
				t.Fatalf("key %q probe [%d,%d): %v", key, pos, end, err)
			}
			if !answered {
				t.Fatalf("key %q probe [%d,%d): unanswered on DCSL", key, pos, end)
			}
			for i := 0; i < in.Len(); i++ {
				_, has := vals[pos+int64(i)].(map[string]any)[key]
				want := in.Test(i) && has
				if res.Test(i) != want {
					t.Fatalf("key %q record %d: probe %v, want %v", key, pos+int64(i), res.Test(i), want)
				}
			}
			pos = end
		}
	}

	// A non-DCSL reader must decline, not guess.
	f2, _ := writeColumn(t, schema, Options{Layout: SkipList, Levels: []int{100, 10}}, 10, genMap)
	r2, err := NewReader(f2.reader(), schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	if kp2, ok := r2.(KeyVecProber); ok {
		if answered, err := kp2.ProbeKeys("server", 0, 10, scan.NewSelection(10), nil); err != nil {
			t.Fatal(err)
		} else if answered {
			t.Fatal("skip-list reader answered a key probe")
		}
	}
}

// refillLog records a stream's physical refills, so two readers can be held
// to the same reads.
type refillLog []int

func (l *refillLog) options(chunk int) ReaderOptions {
	return ReaderOptions{Chunk: chunk, OnRefill: func(bytes, chunk int) { *l = append(*l, bytes, chunk) }}
}

// asVectorCharges restates what the scalar cursor charged for primitive
// values as an unboxed vector decode of the same values is charged: every
// value's encoded bytes to VecBytes, one VecValues each.
func asVectorCharges(c sim.CPUStats) sim.CPUStats {
	c.VecBytes = c.IntBytes + c.DoubleBytes + c.StringBytes + c.RawBytes
	c.VecValues = c.ValuesMaterialized
	c.IntBytes, c.DoubleBytes, c.StringBytes, c.RawBytes, c.ValuesMaterialized = 0, 0, 0, 0, 0
	return c
}

// TestSkipListRunDecodeEquivalence holds the skip-list run decoder to the
// scalar cursor: over random primitive columns, walked as ranges that start
// and end inside skip groups with skipped gaps between them, through windows
// from one far smaller than a group (nearly every value straddles a refill)
// to one that holds the file, a batch decode yields the Value loop's values,
// charges what it charges, refills where it refills — and where the file's
// last value is cut short, fails with its error after the same rows.
func TestSkipListRunDecodeEquivalence(t *testing.T) {
	const n = 613
	opts := Options{Layout: SkipList, Levels: []int{100, 10}}
	for name, tc := range vecDecodeSchemas() {
		if VecKindOf(tc.schema) == scan.VecAny {
			continue
		}
		rng := rand.New(rand.NewSource(77))
		gen := tc.gen
		if tc.schema.Kind == serde.KindString {
			// Lengths on both sides of the one-byte prefix and of the
			// boxing arena's cut-off.
			gen = func(rng *rand.Rand, i int) any { return strings.Repeat("s", []int{0, 3, 40, 130, 300}[rng.Intn(5)]) }
		}
		f, _ := writeColumn(t, tc.schema, opts, n, func(i int) any { return gen(rng, i) })
		data := f.Bytes()
		for _, truncated := range []bool{false, true} {
			if truncated {
				// Lengthen the last value's length prefix: its body now runs
				// past the end of the data region.
				probe, err := NewReader(bytes.NewReader(data), tc.schema, nil)
				if err != nil {
					t.Fatal(err)
				}
				last := probe.(*slReader)
				if err := last.SkipTo(n - 1); err != nil {
					t.Fatal(err)
				}
				if err := last.align(); err != nil {
					t.Fatal(err)
				}
				data = bytes.Clone(data)
				data[last.s.pos()] += 9
			}
			for _, chunk := range []int{0, 64, 7, 1} {
				for _, boxed := range []bool{false, true} {
					ctx := fmt.Sprintf("%s chunk %d boxed %v truncated %v", name, chunk, boxed, truncated)
					var wantCPU, gotCPU sim.CPUStats
					var wantRefills, gotRefills refillLog
					scalar, err := NewReaderOpts(bytes.NewReader(data), tc.schema, wantRefills.options(chunk), &wantCPU)
					if err != nil {
						t.Fatal(err)
					}
					batch, err := NewReaderOpts(bytes.NewReader(data), tc.schema, gotRefills.options(chunk), nil)
					if err != nil {
						t.Fatal(err)
					}
					walk := rand.New(rand.NewSource(int64(chunk)))
					for pos := int64(0); pos < n; {
						start := pos + int64(walk.Intn(25))
						end := start + 1 + int64(walk.Intn(90))
						if walk.Intn(6) == 0 || end > n {
							end = n
						}
						if start >= end {
							start = end - 1
						}
						pos = end

						var want []any
						var wantErr error
						if wantErr = scalar.SkipTo(start); wantErr == nil {
							for i := start; i < end; i++ {
								var x any
								if x, wantErr = scalar.Value(); wantErr != nil {
									break
								}
								want = append(want, x)
							}
						}
						v := scan.NewVector(VecKindOf(tc.schema), int(end-start))
						v.Boxed = boxed
						gotErr := batch.(VectorDecoder).DecodeVector(start, end, v, &gotCPU)

						if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
							t.Fatalf("%s [%d,%d): batch error %v, scalar error %v", ctx, start, end, gotErr, wantErr)
						}
						if (wantErr != nil) != (truncated && end == n) {
							t.Fatalf("%s [%d,%d): scalar error %v", ctx, start, end, wantErr)
						}
						if v.Len() != len(want) {
							t.Fatalf("%s [%d,%d): batch decoded %d rows, scalar %d", ctx, start, end, v.Len(), len(want))
						}
						got := make([]any, v.Len())
						var bx serde.Boxer
						if boxed {
							v.Box(&bx, nil, got, 1)
						} else {
							for i := range got {
								got[i] = v.Value(&bx, i)
							}
						}
						for i := range want {
							if !serde.ValuesEqual(tc.schema, got[i], want[i]) {
								t.Fatalf("%s [%d,%d): record %d: batch %v, scalar %v", ctx, start, end, start+int64(i), got[i], want[i])
							}
						}
						wantCharges := wantCPU
						if !boxed {
							wantCharges = asVectorCharges(wantCPU)
						}
						if gotCPU != wantCharges {
							t.Fatalf("%s [%d,%d): batch charged\n%+v\nscalar\n%+v", ctx, start, end, gotCPU, wantCharges)
						}
						if !slices.Equal(gotRefills, wantRefills) {
							t.Fatalf("%s [%d,%d): batch refills (bytes, chunk) %v, scalar %v", ctx, start, end, gotRefills, wantRefills)
						}
						if wantErr == nil && batch.Record() != scalar.Record() {
							t.Fatalf("%s [%d,%d): batch cursor at %d, scalar at %d", ctx, start, end, batch.Record(), scalar.Record())
						}
					}
				}
			}
		}
	}
}

// TestBoxedDecodeChargesValue holds every layout's batch decode of a range
// bound for boxing — a VecAny column, or a primitive vector marked Boxed —
// to the scalar cursor's charges: over a random range, a fresh reader's
// DecodeVector charges exactly the CPUStats that another fresh reader's
// SkipTo and Value loop charge over the same range.
func TestBoxedDecodeChargesValue(t *testing.T) {
	const n = 437
	rng := rand.New(rand.NewSource(39))
	for name, tc := range vecDecodeSchemas() {
		for _, opts := range allLayouts() {
			if _, err := NewWriter(&memFile{}, tc.schema, opts, nil); err != nil {
				continue // a layout this kind cannot be stored in
			}
			lname := name + "/" + opts.Layout.String() + "/" + opts.Codec
			f, _ := writeColumn(t, tc.schema, opts, n, func(i int) any { return tc.gen(rng, i) })
			for trial := 0; trial < 4; trial++ {
				start := int64(rng.Intn(n))
				end := start + 1 + int64(rng.Intn(n-int(start)))

				var scalar sim.CPUStats
				r, err := NewReader(f.reader(), tc.schema, &scalar)
				if err != nil {
					t.Fatal(err)
				}
				if err := r.SkipTo(start); err != nil {
					t.Fatalf("%s: skip to %d: %v", lname, start, err)
				}
				for r.Record() < end {
					if _, err := r.Value(); err != nil {
						t.Fatalf("%s: value %d: %v", lname, r.Record(), err)
					}
				}

				var batch sim.CPUStats
				r2, err := NewReader(f.reader(), tc.schema, nil)
				if err != nil {
					t.Fatal(err)
				}
				v := scan.NewVector(VecKindOf(tc.schema), int(end-start))
				v.Boxed = true
				if err := r2.(VectorDecoder).DecodeVector(start, end, v, &batch); err != nil {
					t.Fatalf("%s: decode [%d,%d): %v", lname, start, end, err)
				}
				if batch != scalar {
					t.Errorf("%s [%d,%d): batch decode charged\n%+v\nValue charged\n%+v", lname, start, end, batch, scalar)
				}
				r.Release()
				r2.Release()
			}
		}
	}
}

// TestRangeEntryErrors gives every range entry point — each layout's
// DecodeVector, DCSL's DecodeIDVector and ProbeKeys — a range behind the
// cursor and one past the end: each is refused with its own words, the
// cursor unmoved.
func TestRangeEntryErrors(t *testing.T) {
	const n = 50
	str := func(i int) any { return fmt.Sprint("s", i%7) }
	type call func(r Reader, start, end int64) error
	decode := func(r Reader, start, end int64) error {
		return r.(VectorDecoder).DecodeVector(start, end, scan.NewVector(VecKindOf(serde.String()), 1), nil)
	}
	for _, tc := range []struct {
		name   string
		schema *serde.Schema
		opts   Options
		gen    func(int) any
		what   string
		call   call
	}{
		{"plain DecodeVector", serde.String(), Options{Layout: Plain}, str, "vector decode", decode},
		{"block DecodeVector", serde.String(), Options{Layout: Block, Codec: "lzo"}, str, "vector decode", decode},
		{"skiplist DecodeVector", serde.String(), Options{Layout: SkipList, Levels: []int{20, 10}}, str, "vector decode", decode},
		{"dcsl DecodeIDVector", serde.String(), Options{Layout: DCSL, Levels: []int{20, 10}}, str, "id decode",
			func(r Reader, start, end int64) error {
				_, err := r.(IDVectorDecoder).DecodeIDVector(start, end, scan.NewIDVector(1), nil)
				return err
			}},
		{"dcsl ProbeKeys", mapSchema(), Options{Layout: DCSL, Levels: []int{20, 10}}, genMap, "key probe",
			func(r Reader, start, end int64) error {
				_, err := r.(KeyVecProber).ProbeKeys("server", start, end, scan.NewSelection(int(end-start)), nil)
				return err
			}},
	} {
		f, _ := writeColumn(t, tc.schema, tc.opts, n, tc.gen)
		r, err := NewReader(f.reader(), tc.schema, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.SkipTo(5); err != nil {
			t.Fatal(err)
		}
		for _, row := range []struct {
			start, end int64
			want       string
		}{
			{4, 6, fmt.Sprintf("colfile: %s from 4 behind cursor 5", tc.what)},
			{5, n + 1, fmt.Sprintf("colfile: %s to %d past end %d", tc.what, n+1, n)},
		} {
			err := tc.call(r, row.start, row.end)
			if err == nil || err.Error() != row.want {
				t.Errorf("%s [%d,%d): error %v, want %q", tc.name, row.start, row.end, err, row.want)
			}
			if r.Record() != 5 {
				t.Errorf("%s [%d,%d): cursor moved to %d", tc.name, row.start, row.end, r.Record())
			}
		}
		r.Release()
	}
}
