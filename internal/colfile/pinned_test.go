package colfile

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"colmr/internal/serde"
	"colmr/internal/sim"
)

// Pinned bytes: the write path may be rearranged freely, but never what it
// writes. Every case below writes one deterministic column and compares the
// SHA-256 of the file and the writer's CPUStats with literals recorded from
// the commit before the one-pass statistics and pooled staging landed
// (go test -v -run TestWriterPinnedBytes ./internal/colfile -args
// -pinned.print prints the table in the form it is stored in).

var pinnedPrint = flag.Bool("pinned.print", false, "print the pinned-bytes table instead of checking it")

// pinnedColumn is one value kind of the pinned matrix.
type pinnedColumn struct {
	name   string
	schema *serde.Schema
	dcsl   bool // the kind is legal under DCSL
	gen    func(rng *rand.Rand, i int) any
}

func pinnedWord(rng *rand.Rand, universe int) string {
	return fmt.Sprintf("w%04d-%s", rng.Intn(universe), strings.Repeat("x", rng.Intn(9)))
}

func pinnedColumns() []pinnedColumn {
	inner := serde.RecordOf("Inner",
		serde.Field{Name: "a", Type: serde.Int()},
		serde.Field{Name: "b", Type: serde.String()})
	return []pinnedColumn{
		{name: "int", schema: serde.Int(), gen: func(rng *rand.Rand, i int) any {
			if i < 700 {
				return int32(rng.Intn(40)) // fewer than 64 distincts per group and file prefix
			}
			return int32(rng.Intn(1 << 20))
		}},
		{name: "long", schema: serde.Long(), gen: func(rng *rand.Rand, i int) any {
			return int64(i/3)*7919 - 100000
		}},
		{name: "double", schema: serde.Double(), gen: func(rng *rand.Rand, i int) any {
			switch rng.Intn(12) {
			case 0:
				return math.NaN()
			case 1:
				return math.Copysign(0, -1)
			case 2:
				return 0.0
			}
			return rng.NormFloat64() * 1000
		}},
		{name: "string", schema: serde.String(), dcsl: true, gen: func(rng *rand.Rand, i int) any {
			if i%500 < 120 {
				return pinnedWord(rng, 30)
			}
			return pinnedWord(rng, 5000)
		}},
		{name: "bytes1k", schema: serde.Bytes(), dcsl: true, gen: func(rng *rand.Rand, i int) any {
			b := make([]byte, 1000)
			if i%7 == 3 {
				rng = rand.New(rand.NewSource(int64(i % 5))) // a few repeated pages
			}
			rng.Read(b)
			return b
		}},
		{name: "map", schema: serde.MapOf(serde.String()), dcsl: true, gen: func(rng *rand.Rand, i int) any {
			m := map[string]any{}
			universe := 12
			if i >= 1200 {
				universe = 90 // more than statsMaxKeys
			}
			for k := rng.Intn(7); k >= 0; k-- {
				m[fmt.Sprintf("key-%02d", rng.Intn(universe))] = pinnedWord(rng, 50)
			}
			return m
		}},
		{name: "array", schema: serde.ArrayOf(serde.String()), gen: func(rng *rand.Rand, i int) any {
			a := make([]any, rng.Intn(4))
			for k := range a {
				a[k] = pinnedWord(rng, 100)
			}
			return a
		}},
		{name: "record", schema: inner, gen: func(rng *rand.Rand, i int) any {
			r := serde.NewRecord(inner)
			r.Set("a", int32(rng.Intn(1000)))
			r.Set("b", pinnedWord(rng, 100))
			return r
		}},
		{name: "nullstring", schema: serde.String(), dcsl: true, gen: func(rng *rand.Rand, i int) any {
			if rng.Intn(4) == 0 {
				return nil // only DCSL spells a null
			}
			return pinnedWord(rng, 200)
		}},
	}
}

func pinnedLayouts() []Options {
	return []Options{
		{Layout: Plain},
		{Layout: SkipList},
		{Layout: Block, Codec: "lzo"},
		{Layout: DCSL},
	}
}

// pinnedRows spans two full default windows and a partial third.
const pinnedRows = 2300

// pinnedTable writes every case and renders one line per case.
func pinnedTable(t *testing.T) []string {
	var lines []string
	for _, col := range pinnedColumns() {
		for _, layout := range pinnedLayouts() {
			if layout.Layout == DCSL && !col.dcsl {
				continue
			}
			if col.name == "nullstring" && layout.Layout != DCSL {
				continue
			}
			for _, every := range []int{0, 64, -1} {
				for _, noBloom := range []bool{false, true} {
					opts := layout
					opts.StatsEvery = every
					opts.NoBloom = noBloom
					var cpu sim.CPUStats
					f := &memFile{}
					w, err := NewWriter(f, col.schema, opts, &cpu)
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(2011))
					for i := 0; i < pinnedRows; i++ {
						if err := w.Append(col.gen(rng, i)); err != nil {
							t.Fatal(err)
						}
					}
					if err := w.Close(); err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256(f.Bytes())
					lines = append(lines, fmt.Sprintf("%s/%s/every=%d/nobloom=%t %d %x raw=%d lzo=%d dict=%d",
						col.name, layout.Layout, every, noBloom, f.Len(), sum[:12],
						cpu.RawBytes, cpu.LzoCompBytes, cpu.DictCompBytes))
					if other := (sim.CPUStats{RawBytes: cpu.RawBytes, LzoCompBytes: cpu.LzoCompBytes, DictCompBytes: cpu.DictCompBytes}); other != cpu {
						t.Fatalf("%s: writer charged a counter the table does not pin: %+v", lines[len(lines)-1], cpu)
					}
				}
			}
		}
	}
	return lines
}

func TestWriterPinnedBytes(t *testing.T) {
	lines := pinnedTable(t)
	if *pinnedPrint {
		fmt.Println(strings.Join(lines, "\n"))
		return
	}
	want := strings.Split(strings.TrimSpace(pinnedColumnBytes), "\n")
	if len(lines) != len(want) {
		t.Fatalf("%d cases, %d pinned", len(lines), len(want))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("written bytes or charges moved:\n got %s\nwant %s", lines[i], want[i])
		}
	}
}
