package scan_test

// Property test for the scan subsystem: for random schemas, datasets, and
// predicates, a pushdown scan must return exactly the records a full scan
// plus an in-memory filter returns — across all four column layouts, both
// record-construction modes, and arbitrary projections.

import (
	"fmt"
	"math/rand"
	"testing"

	"colmr/internal/colfile"
	"colmr/internal/core"
	"colmr/internal/hdfs"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
)

// randSchema builds a record schema of 2-5 columns over kinds the scan
// subsystem must handle, always including at least one map column so the
// DCSL variant is exercised.
func randSchema(rng *rand.Rand) *serde.Schema {
	kinds := []func() *serde.Schema{
		serde.Int, serde.Long, serde.Double, serde.String,
		serde.Bool, serde.Time, serde.Bytes,
		func() *serde.Schema { return serde.MapOf(serde.Int()) },
		func() *serde.Schema { return serde.ArrayOf(serde.Long()) },
	}
	n := 2 + rng.Intn(4)
	fields := make([]serde.Field, 0, n+1)
	for i := 0; i < n; i++ {
		fields = append(fields, serde.Field{
			Name: fmt.Sprintf("c%d", i),
			Type: kinds[rng.Intn(len(kinds))](),
		})
	}
	fields = append(fields, serde.Field{Name: "m", Type: serde.MapOf(serde.String())})
	return serde.RecordOf("Prop", fields...)
}

// Small value domains keep random predicates meaningfully selective: an
// equality over a 40-value domain matches, a prefix over a 4-prefix pool
// matches, a key over an 8-key pool exists.
var (
	propPrefixes = []string{"alpha/", "beta/", "gamma/", "delta/"}
	propKeys     = []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"}
)

func randValue(rng *rand.Rand, s *serde.Schema) any {
	switch s.Kind {
	case serde.KindBool:
		return rng.Intn(2) == 0
	case serde.KindInt:
		return int32(rng.Intn(40))
	case serde.KindLong, serde.KindTime:
		return int64(rng.Intn(1000))
	case serde.KindDouble:
		return float64(rng.Intn(100)) / 4
	case serde.KindString:
		return propPrefixes[rng.Intn(len(propPrefixes))] + string(rune('a'+rng.Intn(26)))
	case serde.KindBytes:
		b := make([]byte, 1+rng.Intn(6))
		for i := range b {
			b[i] = byte('a' + rng.Intn(4))
		}
		return b
	case serde.KindMap:
		n := rng.Intn(4)
		m := make(map[string]any, n)
		for i := 0; i < n; i++ {
			m[propKeys[rng.Intn(len(propKeys))]] = randValue(rng, s.Elem)
		}
		return m
	case serde.KindArray:
		n := rng.Intn(3)
		arr := make([]any, n)
		for i := range arr {
			arr[i] = randValue(rng, s.Elem)
		}
		return arr
	}
	panic("unhandled kind")
}

// randLeaf builds a random leaf predicate suited to a random column's
// kind. Literals are drawn from the same domains as the data, so matches
// happen at useful rates.
func randLeaf(rng *rand.Rand, schema *serde.Schema) scan.Predicate {
	f := schema.Fields[rng.Intn(len(schema.Fields))]
	ops := []scan.Op{scan.OpEq, scan.OpNe, scan.OpLt, scan.OpLe, scan.OpGt, scan.OpGe}
	op := ops[rng.Intn(len(ops))]
	switch f.Type.Kind {
	case serde.KindBool:
		return scan.Cmp(f.Name, op, rng.Intn(2) == 0)
	case serde.KindInt:
		if rng.Intn(3) == 0 {
			lo := rng.Intn(40)
			return scan.Between(f.Name, lo, lo+rng.Intn(10))
		}
		return scan.Cmp(f.Name, op, rng.Intn(40))
	case serde.KindLong, serde.KindTime:
		return scan.Cmp(f.Name, op, int64(rng.Intn(1000)))
	case serde.KindDouble:
		return scan.Cmp(f.Name, op, float64(rng.Intn(100))/4)
	case serde.KindString:
		if rng.Intn(2) == 0 {
			p := propPrefixes[rng.Intn(len(propPrefixes))]
			// Sometimes a longer, rarer prefix.
			if rng.Intn(2) == 0 {
				p += string(rune('a' + rng.Intn(26)))
			}
			return scan.HasPrefix(f.Name, p)
		}
		return scan.Cmp(f.Name, op, propPrefixes[rng.Intn(len(propPrefixes))]+string(rune('a'+rng.Intn(26))))
	case serde.KindBytes:
		b := []byte{byte('a' + rng.Intn(4)), byte('a' + rng.Intn(4))}
		return scan.Cmp(f.Name, op, b)
	case serde.KindMap:
		return scan.KeyExists(f.Name, propKeys[rng.Intn(len(propKeys))])
	default: // arrays: only null tests apply
		if rng.Intn(2) == 0 {
			return scan.NotNull(f.Name)
		}
		return scan.IsNull(f.Name)
	}
}

// randPredicate builds a random tree of depth <= 2 over leaves.
func randPredicate(rng *rand.Rand, schema *serde.Schema, depth int) scan.Predicate {
	if depth <= 0 || rng.Intn(3) == 0 {
		return randLeaf(rng, schema)
	}
	switch rng.Intn(3) {
	case 0:
		kids := make([]scan.Predicate, 2+rng.Intn(2))
		for i := range kids {
			kids[i] = randPredicate(rng, schema, depth-1)
		}
		return scan.And(kids...)
	case 1:
		kids := make([]scan.Predicate, 2+rng.Intn(2))
		for i := range kids {
			kids[i] = randPredicate(rng, schema, depth-1)
		}
		return scan.Or(kids...)
	default:
		return scan.Not(randPredicate(rng, schema, depth-1))
	}
}

// layoutVariants are the four layout configurations under test. The DCSL
// variant applies DCSL to map columns and skip lists elsewhere.
func layoutVariants(schema *serde.Schema) []core.LoadOptions {
	dcslPer := map[string]colfile.Options{}
	for _, f := range schema.Fields {
		if f.Type.Kind == serde.KindMap {
			dcslPer[f.Name] = colfile.Options{Layout: colfile.DCSL, StatsEvery: 20}
		}
	}
	return []core.LoadOptions{
		{Default: colfile.Options{Layout: colfile.Plain, StatsEvery: 20}},
		{Default: colfile.Options{Layout: colfile.SkipList, Levels: []int{100, 10}, StatsEvery: 20}},
		{Default: colfile.Options{Layout: colfile.Block, Codec: "zlib", BlockBytes: 2 << 10}},
		{Default: colfile.Options{Layout: colfile.SkipList, Levels: []int{100, 10}, StatsEvery: 20}, PerColumn: dcslPer},
	}
}

func variantName(i int) string {
	return []string{"plain", "skiplist", "block", "dcsl"}[i]
}

func TestPushdownEquivalenceProperty(t *testing.T) {
	rounds := 30
	records := 250
	if testing.Short() {
		rounds = 8
	}
	rng := rand.New(rand.NewSource(20110407))
	for round := 0; round < rounds; round++ {
		schema := randSchema(rng)
		recs := make([]*serde.GenericRecord, records)
		for i := range recs {
			rec := serde.NewRecord(schema)
			for _, f := range schema.Fields {
				if err := rec.Set(f.Name, randValue(rng, f.Type)); err != nil {
					t.Fatal(err)
				}
			}
			recs[i] = rec
		}
		pred := randPredicate(rng, schema, 2)

		// Brute-force reference: evaluate over the in-memory records.
		var want []*serde.GenericRecord
		for _, rec := range recs {
			ok, err := pred.Eval(scan.Getter(func(col string) (any, error) { return rec.Get(col) }))
			if err != nil {
				t.Fatalf("round %d: pred %s: %v", round, pred, err)
			}
			if ok {
				want = append(want, rec)
			}
		}

		// Random projection of 1..all columns (filter columns may or may
		// not overlap it).
		names := schema.FieldNames()
		rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		proj := names[:1+rng.Intn(len(names))]
		lazy := rng.Intn(2) == 0

		for vi, opts := range layoutVariants(schema) {
			opts.SplitRecords = int64(records/3 + 1)
			cfg := sim.SingleNode()
			fs := hdfs.New(cfg, int64(round))
			w, err := core.NewWriter(fs, "/p", schema, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range recs {
				if err := w.Append(rec); err != nil {
					t.Fatalf("round %d %s: %v", round, variantName(vi), err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			// The vectorize dimension: batch and record-at-a-time execution
			// must return identical records in identical order.
			c := core.ScanDataset("/p").Columns(proj...).Lazy(lazy).Where(pred).Vectorize(rng.Intn(2) == 0).Conf()
			conf := &c
			in := &core.InputFormat{}
			splits, err := in.Splits(fs, conf)
			if err != nil {
				t.Fatal(err)
			}
			var got int
			for _, sp := range splits {
				rr, err := in.Open(fs, conf, sp, hdfs.AnyNode, nil)
				if err != nil {
					t.Fatalf("round %d %s: pred %s: %v", round, variantName(vi), pred, err)
				}
				for {
					_, v, ok, err := rr.Next()
					if err != nil {
						t.Fatalf("round %d %s: pred %s: %v", round, variantName(vi), pred, err)
					}
					if !ok {
						break
					}
					if got >= len(want) {
						t.Fatalf("round %d %s: pred %s: extra record %d", round, variantName(vi), pred, got)
					}
					rec := v.(serde.Record)
					for _, col := range proj {
						gv, err := rec.Get(col)
						if err != nil {
							t.Fatal(err)
						}
						wv, _ := want[got].Get(col)
						if !serde.ValuesEqual(schema.Field(col), gv, wv) {
							t.Fatalf("round %d %s: pred %s: match %d column %s differs: got %v want %v",
								round, variantName(vi), pred, got, col, gv, wv)
						}
					}
					got++
				}
				if err := rr.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if got != len(want) {
				t.Fatalf("round %d %s: pred %s: pushdown returned %d records, brute force %d",
					round, variantName(vi), pred, got, len(want))
			}
		}
	}
}
