package colfile

import (
	"encoding/binary"
	"testing"

	"colmr/internal/scan"
	"colmr/internal/serde"
)

// statsSource asserts a reader exposes zone maps and returns it typed.
func statsSource(t *testing.T, r Reader, name string) StatsSource {
	t.Helper()
	src, ok := r.(StatsSource)
	if !ok {
		t.Fatalf("%s: reader %T does not implement StatsSource", name, r)
	}
	return src
}

// TestStatsFooterRoundTripInt writes a monotonically increasing int column
// in every layout and checks the recovered per-group min/max/rows.
func TestStatsFooterRoundTripInt(t *testing.T) {
	schema := serde.Int()
	const n = 437
	for _, opts := range allLayouts() {
		if opts.Layout == DCSL {
			continue // map-only layout
		}
		opts.StatsEvery = 50
		name := opts.Layout.String() + "/" + opts.Codec
		f, _ := writeColumn(t, schema, opts, n, func(i int) any { return int32(i * 3) })
		r, err := NewReader(f.reader(), schema, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		src := statsSource(t, r, name)

		// Walk every record; each must be covered by a group whose bounds
		// contain it, and groups must tile [0, n).
		var covered int64
		for rec := int64(0); rec < n; {
			st, end := src.GroupStats(rec)
			if st == nil {
				t.Fatalf("%s: no stats for record %d", name, rec)
			}
			start := end - st.Rows
			if end <= rec || start != rec {
				t.Fatalf("%s: bad group geometry at %d: start=%d end=%d rows=%d", name, rec, start, end, st.Rows)
			}
			if !st.HasMinMax {
				t.Fatalf("%s: int group [%d,%d) missing min/max", name, start, end)
			}
			wantMin, wantMax := int32(start*3), int32((end-1)*3)
			if st.Min != wantMin || st.Max != wantMax {
				t.Errorf("%s: group [%d,%d): min/max = %v/%v, want %v/%v",
					name, start, end, st.Min, st.Max, wantMin, wantMax)
			}
			if st.Nulls != 0 {
				t.Errorf("%s: group [%d,%d): nulls = %d", name, start, end, st.Nulls)
			}
			if !st.DistinctCapped && st.Distinct != st.Rows {
				t.Errorf("%s: group [%d,%d): distinct = %d, want %d (all values unique)",
					name, start, end, st.Distinct, st.Rows)
			}
			covered += st.Rows
			rec = end
		}
		if covered != n {
			t.Errorf("%s: groups cover %d records, want %d", name, covered, n)
		}
		if st, _ := src.GroupStats(n); st != nil {
			t.Errorf("%s: stats past end should be nil", name)
		}
	}
}

// TestStatsFooterMapKeys checks the per-group key universe of map columns,
// including the DCSL layout.
func TestStatsFooterMapKeys(t *testing.T) {
	schema := mapSchema()
	const n = 120
	gen := func(i int) any {
		m := map[string]any{"always": int32(i)}
		if i < 60 {
			m["early"] = int32(i)
		} else {
			m["late"] = int32(i)
		}
		return m
	}
	for _, opts := range allLayouts() {
		opts.StatsEvery = 60
		name := opts.Layout.String() + "/" + opts.Codec
		f, _ := writeColumn(t, schema, opts, n, gen)
		r, err := NewReader(f.reader(), schema, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		src := statsSource(t, r, name)
		st, end := src.GroupStats(0)
		if st == nil || !st.HasKeys {
			t.Fatalf("%s: first group missing keys (%+v)", name, st)
		}
		if st.KeysCapped {
			t.Fatalf("%s: small key universe should not be capped", name)
		}
		if !st.HasKey("always") || st.HasKey("nothere") {
			t.Errorf("%s: first group keys = %v", name, st.Keys)
		}
		// Block frames may cut at different boundaries than 60; only the
		// cadence-based layouts are asserted on the early/late split.
		if opts.Layout != Block && end == 60 {
			if !st.HasKey("early") || st.HasKey("late") {
				t.Errorf("%s: first group keys = %v, want early but not late", name, st.Keys)
			}
			late, _ := src.GroupStats(60)
			if late == nil || !late.HasKey("late") || late.HasKey("early") {
				t.Errorf("%s: second group keys missing late/early split: %+v", name, late)
			}
		}
	}
}

// TestStatsDisabled checks that a negative StatsEvery yields no section
// and a nil GroupStats.
func TestStatsDisabled(t *testing.T) {
	schema := serde.Int()
	for _, opts := range allLayouts() {
		if opts.Layout == DCSL {
			continue
		}
		opts.StatsEvery = -1
		name := opts.Layout.String() + "/" + opts.Codec
		f, _ := writeColumn(t, schema, opts, 50, func(i int) any { return int32(i) })
		r, err := NewReader(f.reader(), schema, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st, _ := statsSource(t, r, name).GroupStats(0); st != nil {
			t.Errorf("%s: disabled stats returned %+v", name, st)
		}
		// Values still round-trip.
		for i := 0; i < 50; i++ {
			v, err := r.Value()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if v != int32(i) {
				t.Fatalf("%s: value %d = %v", name, i, v)
			}
		}
	}
}

// TestStatsNoZeroRowGroup: a zero-row statistics entry, which would satisfy
// a predicate's NoMatch and AllMatch proofs at once, never reaches the group
// tier. The writer cuts no empty group — an empty file carries no stats
// section, and a count that fills its last group exactly ends on no
// trailing entry — and Zones.GroupStats serves no entry covering no record,
// even from a section another writer produced.
func TestStatsNoZeroRowGroup(t *testing.T) {
	schema := serde.Int()
	check := func(name string, z *Zones, n int64) {
		t.Helper()
		for rec := int64(0); rec <= n; rec++ {
			if st, end := z.GroupStats(rec); st != nil && (st.Rows == 0 || end <= rec || rec == n) {
				t.Errorf("%s: GroupStats(%d) = %d rows ending at %d", name, rec, st.Rows, end)
			}
		}
	}
	for _, opts := range allLayouts() {
		if opts.Layout == DCSL {
			continue
		}
		opts.StatsEvery = 20
		name := opts.Layout.String() + "/" + opts.Codec
		for _, n := range []int{0, 40} {
			f, _ := writeColumn(t, schema, opts, n, func(i int) any { return int32(i) })
			z, err := ReadZones(f.reader(), schema)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if n == 0 && z.Agg() != nil {
				t.Errorf("%s: an empty file carries aggregate %+v", name, z.Agg())
			}
			check(name, z, int64(n))
		}
	}
	foreign := &Zones{entries: []statsEntry{
		{start: 0, st: scan.ColStats{Rows: 10}},
		{start: 10},
		{start: 10, st: scan.ColStats{Rows: 5}},
		{start: 15},
	}}
	check("foreign section", foreign, 15)
}

// TestStatsPruneIntegration drives scan predicates against file-recovered
// stats: the combination the CIF reader uses.
func TestStatsPruneIntegration(t *testing.T) {
	schema := serde.String()
	opts := Options{Layout: SkipList, Levels: []int{100, 10}, StatsEvery: 50}
	// Two sorted runs: "aaa..." prefixed then "zzz..." prefixed.
	f, _ := writeColumn(t, schema, opts, 100, func(i int) any {
		if i < 50 {
			return "aaa-" + string(rune('a'+i%26))
		}
		return "zzz-" + string(rune('a'+i%26))
	})
	r, err := NewReader(f.reader(), schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := r.(StatsSource)
	statsAt := func(rec int64) scan.StatsFunc {
		return func(string) *scan.ColStats {
			st, _ := src.GroupStats(rec)
			return st
		}
	}
	if got := scan.HasPrefix("c", "zzz").Prune(statsAt(0)); got != scan.NoMatch {
		t.Errorf("prefix zzz over aaa-group = %v, want NoMatch", got)
	}
	// Min and Max both carry the prefix, so every value between them does.
	if got := scan.HasPrefix("c", "aaa").Prune(statsAt(0)); got != scan.AllMatch {
		t.Errorf("prefix aaa over aaa-group = %v, want AllMatch", got)
	}
	if got := scan.HasPrefix("c", "aaa-b").Prune(statsAt(0)); got != scan.MayMatch {
		t.Errorf("prefix aaa-b over aaa-group = %v, want MayMatch", got)
	}
	if got := scan.HasPrefix("c", "aaa").Prune(statsAt(50)); got != scan.NoMatch {
		t.Errorf("prefix aaa over zzz-group = %v, want NoMatch", got)
	}
	if got := scan.Eq("c", "zzz-a").Prune(statsAt(50)); got != scan.MayMatch {
		t.Errorf("eq inside zzz-group = %v, want MayMatch", got)
	}
}

// TestStatsBytesColumn checks []byte min/max bounds survive the footer.
func TestStatsBytesColumn(t *testing.T) {
	schema := serde.Bytes()
	opts := Options{Layout: Plain, StatsEvery: 25}
	f, _ := writeColumn(t, schema, opts, 50, func(i int) any {
		return []byte{byte('a' + i%26), byte(i)}
	})
	r, err := NewReader(f.reader(), schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, end := r.(StatsSource).GroupStats(0)
	if st == nil || !st.HasMinMax || end != 25 {
		t.Fatalf("bytes group stats = %+v end=%d", st, end)
	}
	if _, ok := st.Min.([]byte); !ok {
		t.Fatalf("bytes min decoded as %T", st.Min)
	}
}

// TestFileStatsAggregateRoundTrip writes a monotone int column in every
// layout and checks the whole-file aggregate both through the parsed stats
// image (ReadZones) and through the footer-only package entry point.
func TestFileStatsAggregateRoundTrip(t *testing.T) {
	schema := serde.Int()
	const n = 437
	for _, opts := range allLayouts() {
		if opts.Layout == DCSL {
			continue // map-only layout
		}
		opts.StatsEvery = 50
		name := opts.Layout.String() + "/" + opts.Codec
		f, _ := writeColumn(t, schema, opts, n, func(i int) any { return int32(i * 3) })

		check := func(st *scan.ColStats, via string) {
			if st == nil {
				t.Fatalf("%s: no aggregate via %s", name, via)
			}
			if st.Rows != n || st.Nulls != 0 {
				t.Errorf("%s via %s: rows/nulls = %d/%d, want %d/0", name, via, st.Rows, st.Nulls, n)
			}
			if !st.HasMinMax || st.Min != int32(0) || st.Max != int32((n-1)*3) {
				t.Errorf("%s via %s: min/max = %v/%v, want 0/%d", name, via, st.Min, st.Max, (n-1)*3)
			}
			if !st.DistinctCapped {
				t.Errorf("%s via %s: %d distinct values should exceed the per-group cap", name, via, n)
			}
		}
		st, err := FileStats(f.reader(), schema)
		if err != nil {
			t.Fatalf("%s: FileStats: %v", name, err)
		}
		check(st, "FileStats")

		z, err := ReadZones(f.reader(), schema)
		if err != nil {
			t.Fatalf("%s: ReadZones: %v", name, err)
		}
		check(z.Agg(), "ReadZones")
		if z.Records() != n {
			t.Errorf("%s: image records %d, want %d", name, z.Records(), n)
		}
	}
}

// TestFileStatsAggregateKeys checks the whole-file key universe of a DCSL
// map column: the aggregate unions the per-window universes, so a key
// absent from the union is disprovable at the file tier.
func TestFileStatsAggregateKeys(t *testing.T) {
	schema := mapSchema()
	const n = 120
	f, _ := writeColumn(t, schema, Options{Layout: DCSL, Levels: []int{100, 10}, StatsEvery: 40}, n, func(i int) any {
		m := map[string]any{"always": int32(i)}
		if i < 60 {
			m["early"] = int32(i)
		} else {
			m["late"] = int32(i)
		}
		return m
	})
	st, err := FileStats(f.reader(), schema)
	if err != nil {
		t.Fatal(err)
	}
	if st == nil || !st.HasKeys || st.KeysCapped {
		t.Fatalf("aggregate = %+v, want complete key universe", st)
	}
	for _, k := range []string{"always", "early", "late"} {
		if !st.HasKey(k) {
			t.Errorf("aggregate key universe misses %q", k)
		}
	}
	if st.HasKey("never") {
		t.Error("aggregate key universe claims a key no record has")
	}
}

// statsSectionOf returns the stats section of a column file's bytes, as a
// window into them: writing it patches the file.
func statsSectionOf(t testing.TB, file []byte) []byte {
	t.Helper()
	if len(file) < footerSize {
		t.Fatalf("%d-byte file has no footer", len(file))
	}
	n := int(binary.LittleEndian.Uint32(file[len(file)-footerSize+8:]))
	end := len(file) - footerSize
	if n == 0 || n > end {
		t.Fatalf("file has no stats section (length %d)", n)
	}
	return file[end-n : end]
}

// TestForeignStatsSectionDegrades: a column file whose stats section bears
// a magic this package does not read — an older generation's "CFS3" or a
// newer "CFS9" — still opens and returns every value, and serves no
// statistics at all: no group stats, no file stats, and FileStats answers
// (nil, nil), which the planner reads as "nothing to prune with".
func TestForeignStatsSectionDegrades(t *testing.T) {
	schema := serde.Int()
	const n = 100
	for _, magic := range []string{"CFS3", "CFS9"} {
		for _, opts := range allLayouts() {
			if opts.Layout == DCSL {
				continue // map-only layout
			}
			opts.StatsEvery = 40
			name := magic + "/" + opts.Layout.String() + "/" + opts.Codec
			f, vals := writeColumn(t, schema, opts, n, func(i int) any { return int32(i) })
			section := statsSectionOf(t, f.Bytes())
			if string(section[:4]) != statsMagicV4 {
				t.Fatalf("%s: section starts %q", name, section[:4])
			}
			copy(section, magic)

			r, err := NewReader(f.reader(), schema, nil)
			if err != nil {
				t.Fatalf("%s: file with a foreign stats section does not open: %v", name, err)
			}
			if st, _ := statsSource(t, r, name).GroupStats(0); st != nil {
				t.Fatalf("%s: foreign section served group stats %+v", name, st)
			}
			if z, err := ReadZones(f.reader(), schema); err != nil || z.Agg() != nil {
				t.Fatalf("%s: foreign section's image: %v, file stats %+v", name, err, z.Agg())
			}
			for i := 0; i < n; i++ {
				v, err := r.Value()
				if err != nil {
					t.Fatalf("%s: record %d: %v", name, i, err)
				}
				if v != vals[i] {
					t.Fatalf("%s: record %d = %v, want %v", name, i, v, vals[i])
				}
			}
			if st, err := FileStats(f.reader(), schema); st != nil || err != nil {
				t.Fatalf("%s: FileStats = %+v, %v; want nil, nil", name, st, err)
			}
		}
	}
}

// TestStatsEntryUndefinedFlag: an entry setting a flag bit past the defined
// seven is rejected, whether it stands alone or beside defined bits — the
// bit announces a payload this parser cannot skip — and a file carrying it
// serves no statistics.
func TestStatsEntryUndefinedFlag(t *testing.T) {
	for _, flags := range []byte{0x80, 0x81} {
		blob := []byte(statsMagicV4)
		blob = append(blob, 1, 0, 1, flags) // rows=1 nulls=0 distinct=1
		if _, _, err := parseStatsSection(append(blob, 0), serde.Int()); err == nil {
			t.Fatalf("aggregate with flags %#x accepted", flags)
		}
	}

	// The same bit on a group entry of a real section.
	schema := serde.Int()
	f, _ := writeColumn(t, schema, Options{Layout: Plain, StatsEvery: 40}, 100, func(i int) any { return int32(i) })
	section := statsSectionOf(t, f.Bytes())
	entries, agg, err := parseStatsSection(section, schema)
	if err != nil || len(entries) == 0 {
		t.Fatalf("written section parses to %d entries: %v", len(entries), err)
	}
	head, err := appendStatsSectionV4(nil, schema, agg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// head ends with its group count (0); the first group entry follows the
	// aggregate and the real count, and its flags byte follows three
	// uvarints.
	c := &statsCursor{buf: section, pos: len(head) - 1}
	if _, err := c.uvarint("entry count"); err != nil {
		t.Fatal(err)
	}
	for _, what := range []string{"rows", "nulls", "distinct"} {
		if _, err := c.uvarint(what); err != nil {
			t.Fatal(err)
		}
	}
	section[c.pos] |= 0x80
	if _, _, err := parseStatsSection(section, schema); err == nil {
		t.Fatal("group entry with flag bit 7 accepted")
	}
	r, err := NewReader(f.reader(), schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := statsSource(t, r, "plain").GroupStats(0); st != nil {
		t.Fatal("section with an undefined flag served group stats")
	}
	if st, err := FileStats(f.reader(), schema); st == nil || err != nil {
		// The aggregate leads the section and is intact: FileStats reads
		// only it, so the file tier keeps its statistics.
		t.Fatalf("FileStats = %+v, %v; want the intact aggregate", st, err)
	}
}
