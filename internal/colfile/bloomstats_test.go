package colfile

import (
	"fmt"
	"math/rand"
	"testing"

	"colmr/internal/scan"
	"colmr/internal/serde"
)

// TestBloomRoundTripStrings writes a high-cardinality string column in
// every layout and checks the recovered filters: every written value
// probes positive in its group and in the whole-file aggregate, and an
// absent value is refuted by (nearly) every group.
func TestBloomRoundTripStrings(t *testing.T) {
	schema := serde.String()
	const n = 400
	val := func(i int) string { return fmt.Sprintf("http://host-%03d.example.com/%d", i%211, i) }
	for _, opts := range allLayouts() {
		if opts.Layout == DCSL {
			continue // map-only layout
		}
		opts.StatsEvery = 50
		name := opts.Layout.String() + "/" + opts.Codec
		f, _ := writeColumn(t, schema, opts, n, func(i int) any { return val(i) })
		r, err := NewReader(f.reader(), schema, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		src := statsSource(t, r, name)

		agg, err := FileStats(f.reader(), schema)
		if err != nil || agg == nil {
			t.Fatalf("%s: no file aggregate (%v)", name, err)
		}
		if agg.Bloom == nil {
			t.Fatalf("%s: aggregate carries no bloom filter", name)
		}

		negGroups, groups := 0, 0
		for rec := int64(0); rec < n; {
			st, end := src.GroupStats(rec)
			if st == nil {
				t.Fatalf("%s: no stats for record %d", name, rec)
			}
			if st.Bloom == nil {
				t.Fatalf("%s: group at %d carries no bloom filter", name, rec)
			}
			for i := rec; i < end; i++ {
				if !st.Bloom.MayContainString(val(int(i))) {
					t.Fatalf("%s: group [%d,%d) refutes its own value %q", name, rec, end, val(int(i)))
				}
			}
			if !st.Bloom.MayContainString("definitely-not-a-written-url") {
				negGroups++
			}
			groups++
			rec = end
		}
		if negGroups == 0 {
			t.Errorf("%s: no group refuted an absent value (%d groups)", name, groups)
		}
		for i := 0; i < n; i++ {
			if !agg.Bloom.MayContainString(val(i)) {
				t.Fatalf("%s: aggregate refutes written value %q", name, val(i))
			}
		}
		if agg.Bloom.MayContainString("definitely-not-a-written-url") &&
			agg.Bloom.MayContainString("another-absent-value") &&
			agg.Bloom.MayContainString("and-one-more-absent") {
			t.Errorf("%s: aggregate filter refutes nothing", name)
		}
	}
}

// TestBloomRoundTripMapKeys: a DCSL map column blooms its keys, including
// keys past the statsMaxKeys cap, so key-existence stays refutable when
// the key list is capped.
func TestBloomRoundTripMapKeys(t *testing.T) {
	schema := mapSchema()
	const n = 200
	// > statsMaxKeys distinct keys per group forces KeysCapped.
	gen := func(i int) any {
		m := map[string]any{}
		for j := 0; j < 3; j++ {
			m[fmt.Sprintf("key-%03d", (i*3+j)%150)] = int32(i)
		}
		return m
	}
	opts := Options{Layout: DCSL, Levels: []int{100, 10}, StatsEvery: 50}
	f, _ := writeColumn(t, schema, opts, n, gen)
	r, err := NewReader(f.reader(), schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := statsSource(t, r, "dcsl")
	capped := false
	for rec := int64(0); rec < n; {
		st, end := src.GroupStats(rec)
		if st == nil || st.Bloom == nil {
			t.Fatalf("group at %d missing stats or bloom", rec)
		}
		capped = capped || st.KeysCapped
		if st.HasKey("key-that-never-existed") {
			t.Fatalf("group at %d claims an absent key", rec)
		}
		rec = end
	}
	if !capped {
		t.Fatal("test never exercised a capped key universe")
	}
}

// TestBloomDisabledAbsent: Options.NoBloom writes a section without
// filters, which parses to filter-less group and file statistics.
func TestBloomDisabledAbsent(t *testing.T) {
	schema := serde.String()
	const n = 100
	opts := Options{Layout: Plain, StatsEvery: 25, NoBloom: true}
	f, _ := writeColumn(t, schema, opts, n, func(i int) any { return fmt.Sprintf("v%d", i) })
	r, err := NewReader(f.reader(), schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := statsSource(t, r, "plain")
	for rec := int64(0); rec < n; {
		st, end := src.GroupStats(rec)
		if st == nil {
			t.Fatalf("no stats at %d", rec)
		}
		if st.Bloom != nil {
			t.Fatalf("NoBloom section carries a filter at %d", rec)
		}
		rec = end
	}
	agg, err := FileStats(f.reader(), schema)
	if err != nil || agg == nil {
		t.Fatalf("no aggregate (%v)", err)
	}
	if agg.Bloom != nil {
		t.Fatal("NoBloom aggregate carries a filter")
	}
}

// TestBloomAbandonsPastCap: a collector whose distinct count guarantees a
// saturated filter at the size cap stops collecting and yields no filter,
// instead of building one buildBloom would drop anyway.
func TestBloomAbandonsPastCap(t *testing.T) {
	schema := serde.String()
	c := newStatsCollector(schema, 0, 64) // 512-bit cap: abandons past 128 distinct
	for i := 0; i < 1000; i++ {
		c.observe(fmt.Sprintf("distinct-%d", i))
	}
	if !c.bloomAbandoned {
		t.Fatal("collector never abandoned past the saturation-certain threshold")
	}
	if c.bloomSet != nil {
		t.Fatal("abandoned collector retains its dedup set")
	}
	c.cut()
	if c.entries[0].st.Bloom != nil {
		t.Fatal("abandoned group still produced a filter")
	}
	// The next group starts fresh.
	c.observe("one-value")
	c.cut()
	if c.entries[1].st.Bloom == nil {
		t.Fatal("abandonment leaked into the next group")
	}
}

// TestBloomSaturatedAggregate: merging many disjoint group filters into a
// whole-file aggregate saturates and drops to nil — the aggregate still
// parses and prunes by zone maps alone.
func TestBloomSaturatedAggregate(t *testing.T) {
	schema := serde.String()
	mk := func(tag string, n int) statsEntry {
		c := newStatsCollector(schema, 0, 64) // one-block cap: saturates fast
		for i := 0; i < n; i++ {
			c.observe(fmt.Sprintf("%s-%d", tag, i))
		}
		c.cut()
		return c.entries[0]
	}
	var entries []statsEntry
	for g := 0; g < 12; g++ {
		e := mk(fmt.Sprintf("g%d", g), 40)
		if e.st.Bloom == nil {
			t.Fatalf("group %d built no filter", g)
		}
		entries = append(entries, e)
	}
	agg := &scan.ColStats{}
	for i := range entries {
		agg.Merge(&entries[i].st)
	}
	if agg.Bloom != nil {
		t.Fatal("aggregate of 12 overfull one-block filters did not saturate to nil")
	}
	// A saturated (nil) filter round-trips as "absent".
	blob, err := appendStatsSectionV4(nil, schema, agg, entries)
	if err != nil {
		t.Fatal(err)
	}
	got, gotAgg, err := parseStatsSection(blob, schema)
	if err != nil {
		t.Fatal(err)
	}
	if gotAgg.Bloom != nil {
		t.Fatal("saturated aggregate decoded a filter")
	}
	for i := range got {
		if got[i].st.Bloom == nil {
			t.Fatalf("group %d lost its filter in the round trip", i)
		}
	}
}

// TestDCSLProberBloomConsistency: the key prober and the group Bloom
// filter must agree — wherever the filter refutes a key, ProbeKeys clears
// the row, and every verdict equals the materialized map's, with or without
// the bloom fast path.
func TestDCSLProberBloomConsistency(t *testing.T) {
	schema := mapSchema()
	const n = 150
	rng := rand.New(rand.NewSource(7))
	keys := make([]string, 40)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
	}
	vals := make([]any, n)
	for i := range vals {
		m := map[string]any{}
		for j := 0; j < rng.Intn(4); j++ {
			m[keys[rng.Intn(len(keys))]] = int32(i)
		}
		vals[i] = m
	}
	opts := Options{Layout: DCSL, Levels: []int{100, 10}, StatsEvery: 20}
	f, _ := writeColumn(t, schema, opts, n, func(i int) any { return vals[i] })

	// Batches of 37 straddle groups (20) and windows (10, 100).
	const batch = 37
	probes := append(append([]string(nil), keys...), "absent-a", "absent-b")
	for _, noBloom := range []bool{false, true} {
		for _, key := range probes {
			r, err := NewReaderOpts(f.reader(), schema, ReaderOptions{NoBloom: noBloom}, nil)
			if err != nil {
				t.Fatal(err)
			}
			src := statsSource(t, r, "dcsl")
			for start := int64(0); start < n; start += batch {
				end := min(start+batch, n)
				sel := scan.NewSelection(int(end - start))
				answered, err := r.(KeyVecProber).ProbeKeys(key, start, end, sel, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !answered {
					t.Fatalf("noBloom=%v key %q [%d,%d): prober did not answer", noBloom, key, start, end)
				}
				for rec := start; rec < end; rec++ {
					has := sel.Test(int(rec - start))
					_, want := vals[rec].(map[string]any)[key]
					if has != want {
						t.Fatalf("noBloom=%v record %d key %q: prober says %v, map says %v",
							noBloom, rec, key, has, want)
					}
					st, _ := src.GroupStats(rec)
					if st == nil || st.Bloom == nil {
						t.Fatalf("record %d: missing group bloom", rec)
					}
					if !st.Bloom.MayContainString(key) {
						// Bloom-negative is a proof: the row must be cleared.
						if has {
							t.Fatalf("noBloom=%v record %d key %q: bloom refutes but the row stayed selected",
								noBloom, rec, key)
						}
						if want {
							t.Fatalf("record %d key %q: bloom refutes a present key", rec, key)
						}
					}
				}
			}
			r.Release()
		}
	}
}
