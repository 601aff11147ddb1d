package scan_test

// Property test for zone-map verdicts: for random schemas, records and
// predicates, a group-tier verdict is a proof about every record it
// covers. Each column is written through colfile at its own small stats
// cadence, so a predicate over several columns meets mixed group
// geometries, and a verdict covers only the narrowest group it consulted.

import (
	"bytes"
	"math/rand"
	"testing"

	"colmr/internal/colfile"
	"colmr/internal/scan"
	"colmr/internal/serde"
)

func TestZoneVerdictProperty(t *testing.T) {
	t.Parallel()
	checkZoneVerdictProperty(t, 40)
}

func BenchmarkZoneVerdictProperty(b *testing.B) {
	for range b.N {
		checkZoneVerdictProperty(b, 400)
	}
}

func checkZoneVerdictProperty(t testing.TB, rounds int) {
	const records = 120
	rng := rand.New(rand.NewSource(49))
	var proved [2]int // NoMatch and AllMatch verdicts checked
	for round := 0; round < rounds; round++ {
		schema := randSchema(rng)
		// Values come in runs, so some groups are constant and the
		// statistics can prove a group full as well as empty.
		recs := make([]*serde.GenericRecord, records)
		for i := range recs {
			recs[i] = serde.NewRecord(schema)
		}
		zones := make(map[string]*colfile.Zones, len(schema.Fields))
		for _, f := range schema.Fields {
			var buf bytes.Buffer
			w, err := colfile.NewWriter(&buf, f.Type, colfile.Options{Layout: colfile.Plain, StatsEvery: 2 + rng.Intn(12)}, nil)
			if err != nil {
				t.Fatal(err)
			}
			var v any
			run := 0
			for _, rec := range recs {
				if run == 0 {
					v, run = randValue(rng, f.Type), 1+rng.Intn(8)
				}
				run--
				if err := rec.Set(f.Name, v); err != nil {
					t.Fatal(err)
				}
				if err := w.Append(v); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if zones[f.Name], err = colfile.ReadZones(bytes.NewReader(buf.Bytes()), f.Type); err != nil {
				t.Fatal(err)
			}
		}
		for range 4 {
			pred := randPredicate(rng, schema, 2)
			for rec := int64(0); rec < records; {
				// The group tier's view at rec: the verdict covers the
				// smallest group extent consulted.
				end := int64(records)
				verdict := pred.Prune(func(col string) *scan.ColStats {
					st, gEnd := zones[col].GroupStats(rec)
					if st != nil && gEnd < end {
						end = gEnd
					}
					return st
				})
				switch verdict {
				case scan.NoMatch:
					proved[0]++
					checkVerdictRegion(t, pred, recs[rec:end], false)
				case scan.AllMatch:
					proved[1]++
					checkVerdictRegion(t, pred, recs[rec:end], true)
				}
				rec = end
			}
		}
	}
	if proved[0] == 0 || proved[1] == 0 {
		t.Fatalf("verdicts proved %d groups empty and %d full; the property needs both", proved[0], proved[1])
	}
}

// checkVerdictRegion fails unless every record of region evaluates to want.
func checkVerdictRegion(t testing.TB, pred scan.Predicate, region []*serde.GenericRecord, want bool) {
	t.Helper()
	for i, rec := range region {
		ok, err := pred.Eval(scan.Getter(func(col string) (any, error) { return rec.Get(col) }))
		if err != nil {
			t.Fatalf("%s: %v", pred, err)
		}
		if ok != want {
			t.Fatalf("%s: record %d of a %d-record region evaluates %v against a zone-map proof of %v", pred, i, len(region), ok, want)
		}
	}
}
