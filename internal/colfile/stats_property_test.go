package colfile

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"colmr/internal/race"
	"colmr/internal/serde"
)

// statsColumn is one random column of the oracle property: a schema and a
// generator whose value universe is sized by the trial.
type statsColumn struct {
	name   string
	schema *serde.Schema
	gen    func(rng *rand.Rand, universe int) any
}

func statsColumns() []statsColumn {
	rec := serde.RecordOf("R", serde.Field{Name: "a", Type: serde.Int()})
	bytesOf := func(rng *rand.Rand, universe int) []byte {
		// The universe member's bytes are a function of its number, so
		// duplicates are exact; one member in ten is a kilobyte.
		k := rng.Intn(universe)
		n := k % 23
		if k%10 == 9 {
			n = 1000
		}
		b := make([]byte, n)
		rand.New(rand.NewSource(int64(k))).Read(b)
		return b
	}
	return []statsColumn{
		{"bool", serde.Bool(), func(rng *rand.Rand, _ int) any { return rng.Intn(2) == 0 }},
		{"int", serde.Int(), func(rng *rand.Rand, u int) any { return int32(rng.Intn(u) - u/2) }},
		{"long", serde.Long(), func(rng *rand.Rand, u int) any { return int64(rng.Intn(u)) << 33 }},
		{"double", serde.Double(), func(rng *rand.Rand, u int) any {
			switch rng.Intn(8) {
			case 0:
				return math.NaN()
			case 1:
				return math.Copysign(0, -1)
			case 2:
				return 0.0
			}
			return float64(rng.Intn(u)) / 4
		}},
		{"string", serde.String(), func(rng *rand.Rand, u int) any { return string(bytesOf(rng, u)) }},
		{"bytes", serde.Bytes(), func(rng *rand.Rand, u int) any { return bytesOf(rng, u) }},
		{"nullable_string", serde.String(), func(rng *rand.Rand, u int) any {
			if rng.Intn(3) == 0 {
				return nil
			}
			return string(bytesOf(rng, u))
		}},
		{"nullable_bytes", serde.Bytes(), func(rng *rand.Rand, u int) any {
			if rng.Intn(3) == 0 {
				return nil
			}
			return bytesOf(rng, u)
		}},
		{"map", serde.MapOf(serde.Int()), func(rng *rand.Rand, u int) any {
			m := map[string]any{}
			for k := rng.Intn(6); k > 0; k-- {
				m[fmt.Sprintf("k%03d", rng.Intn(u))] = int32(k)
			}
			return m
		}},
		{"array", serde.ArrayOf(serde.Int()), func(rng *rand.Rand, u int) any { return []any{int32(rng.Intn(u))} }},
		{"record", rec, func(rng *rand.Rand, u int) any {
			r := serde.NewRecord(rec)
			r.SetAt(0, int32(rng.Intn(u)))
			return r
		}},
	}
}

// TestStatsWriterMatchesOracle holds the one-pass statsWriter to the
// value-at-a-time collector pair it replaced: on random columns — every
// kind, duplicates, nulls, NaNs and signed zeros, value universes below and
// above the distinct cap, key universes below and above the key cap, Bloom
// caps small enough that groups and files abandon their filters mid-stream,
// histogram buffers small enough to halve, record cadences and external
// cuts, and a caller that overwrites its []byte once Append returns — the
// two must encode the same stats section, byte for byte. One statsWriter
// serves every trial, reset in between as the pool would hand it on.
func TestStatsWriterMatchesOracle(t *testing.T) {
	trials := 600
	if testing.Short() || race.Enabled {
		trials = 150
	}
	cols := statsColumns()
	sw := new(statsWriter)
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		col := cols[trial%len(cols)]
		every := []int{0, 1, 7, 64, 100}[rng.Intn(5)]
		universe := []int{3, 40, 64, 65, 90, 5000}[rng.Intn(6)]
		groupMax := []int{0, 64, bloomMaxGroupBytes}[rng.Intn(3)]
		fileMax := []int{64, 256, bloomMaxFileBytes}[rng.Intn(3)]
		if groupMax == 0 {
			fileMax = 0 // NoBloom
		}
		histMax := []int{16, statsHistSamples}[rng.Intn(2)]
		rows := rng.Intn(2500)
		what := fmt.Sprintf("trial %d: %s, %d rows over %d values, every %d, bloom caps %d/%d, %d samples",
			trial, col.name, rows, universe, every, groupMax, fileMax, histMax)

		got := newStatsWriter(sw, col.schema, every, groupMax == 0)
		got.group.bloomMax, got.file.bloomMax, got.histMax = groupMax, fileMax, histMax
		want := &oracleStatsWriter{
			group: newStatsCollector(col.schema, every, groupMax),
			file:  newStatsCollector(col.schema, 0, fileMax),
		}
		want.file.histMax = histMax
		for i := 0; i < rows; i++ {
			v := col.gen(rng, universe)
			got.observe(v)
			want.observe(v)
			if b, ok := v.([]byte); ok && len(b) > 0 {
				b[rng.Intn(len(b))] ^= 0x5a // the caller reuses its buffer
			}
			if every == 0 && rng.Intn(150) == 0 {
				got.cut()
				want.cut()
			}
		}
		gotBlob, gotErr := got.finish(nil)
		wantBlob, wantErr := want.finish()
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%s: finish errors differ: %v, oracle %v", what, gotErr, wantErr)
		}
		if !bytes.Equal(gotBlob, wantBlob) {
			t.Fatalf("%s: the stats section differs from the oracle's (%d bytes, oracle %d)", what, len(gotBlob), len(wantBlob))
		}
		if rows > 0 && wantErr == nil {
			if _, _, err := parseStatsSection(gotBlob, col.schema); err != nil {
				t.Fatalf("%s: the section does not parse: %v", what, err)
			}
		}
		sw.reset()
	}
}
