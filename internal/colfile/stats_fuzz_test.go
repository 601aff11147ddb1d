package colfile

import (
	"bytes"
	"math/rand"
	"testing"

	"colmr/internal/serde"
)

// The stats-section parser is exposed to on-disk bytes (and, through
// FileStats, to bytes no reader has validated) and must never panic. The
// seed corpus is what the writer emits: the CFS4 section of every pinned
// column kind in every layout it is legal in (pinned_test.go; layouts that
// cut groups alike write identical sections, seeded once), each whole,
// truncated mid-entry and cut after its magic, each parsed under its own
// schema — plus hand-built entries for the edges a writer never reaches
// (saturated and absurd Bloom geometry, degenerate and implausible
// histograms, an undefined flag bit) and foreign magics. Runs under plain
// `go test`; explores further under `go test -fuzz FuzzStatsSection`.

// fuzzSectionRows keeps the seed sections a few groups long: enough to
// carry every entry feature, short enough to mutate quickly.
const fuzzSectionRows = 300

func FuzzStatsSection(f *testing.F) {
	cols := pinnedColumns()
	schemas := make([]*serde.Schema, len(cols))
	seen := map[string]bool{}
	for ci, col := range cols {
		schemas[ci] = col.schema
		for _, opts := range pinnedLayouts() {
			if opts.Layout == DCSL && !col.dcsl || col.name == "nullstring" && opts.Layout != DCSL {
				continue
			}
			opts.StatsEvery = 64
			file := &memFile{}
			w, err := NewWriter(file, col.schema, opts, nil)
			if err != nil {
				f.Fatal(err)
			}
			rng := rand.New(rand.NewSource(2011))
			for i := 0; i < fuzzSectionRows; i++ {
				if err := w.Append(col.gen(rng, i)); err != nil {
					f.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				f.Fatal(err)
			}
			s := statsSectionOf(f, file.Bytes())
			if seen[string(s)] {
				continue
			}
			seen[string(s)] = true
			kind := uint8(ci)
			f.Add(s, kind)
			f.Add(s[:len(s)/2], kind) // truncated mid-entry
			f.Add(s[:5], kind)        // magic plus one byte
		}
	}

	str := uint8(3) // pinnedColumns()[3] is the string column
	if cols[str].schema.Kind != serde.KindString {
		f.Fatalf("pinned column %d is %s, not a string", str, cols[str].name)
	}
	// An aggregate whose filter is all ones (saturated on disk: a parser
	// must take it as-is, saturation is a write-side policy).
	sat := []byte(statsMagicV4)
	sat = append(sat, 1, 0, 1) // rows=1 nulls=0 distinct=1
	sat = append(sat, 1<<4)    // flags: bloom only
	sat = append(sat, 7, 8)    // k=7, 8 words (one block)
	for i := 0; i < 64; i++ {
		sat = append(sat, 0xFF)
	}
	sat = append(sat, 0) // zero groups
	f.Add(sat, str)
	// Absurd bloom geometry: word count far past the file cap.
	huge := []byte(statsMagicV4)
	huge = append(huge, 1, 0, 1, 1<<4, 7, 0xFF, 0xFF, 0xFF, 0x7F)
	f.Add(huge, str)
	// A degenerate aggregate: one-bucket histogram whose single bucket
	// covers one value — the smallest histogram a writer can emit.
	deg := []byte(statsMagicV4)
	deg = append(deg, 5, 0, 1) // rows=5 nulls=0 distinct=1
	deg = append(deg, 1|1<<5)  // flags: minmax + hist
	lit := func(dst []byte) []byte {
		// A length-prefixed serde bound, the same spelling appendStatsEntry
		// uses for min/max and histogram bucket bounds.
		enc, err := serde.AppendValue(nil, serde.String(), "a")
		if err != nil {
			f.Fatal(err)
		}
		dst = append(dst, byte(len(enc)))
		return append(dst, enc...)
	}
	deg = lit(deg)       // min
	deg = lit(deg)       // max
	deg = append(deg, 1) // one bucket
	deg = append(deg, 5) // bucket count=5
	deg = lit(deg)       // bucket lo
	deg = lit(deg)       // bucket hi
	deg = append(deg, 0) // zero groups
	f.Add(deg, str)
	// Same aggregate with an implausible bucket count (0): must be rejected
	// or tolerated without panic, never trusted.
	badHist := []byte(statsMagicV4)
	badHist = append(badHist, 5, 0, 1, 1<<5, 0xFF, 0xFF, 0x7F)
	f.Add(badHist, str)
	// Flag bit 7 is undefined: a newer writer's payload follows it.
	f.Add(append([]byte(statsMagicV4), 1, 0, 1, 0x80, 0), str)
	// A well-formed frame under an older generation's magic.
	f.Add(append([]byte("CFS3"), deg[len(statsMagicV4):]...), str)
	f.Add([]byte("CFS9junk"), str)
	f.Add([]byte{}, str)

	f.Fuzz(func(t *testing.T, data []byte, kind uint8) {
		schema := schemas[int(kind)%len(schemas)]
		entries, agg, err := parseStatsSection(data, schema)
		if err != nil {
			return
		}
		// Whatever parses re-encodes, re-parses to the same geometry, and
		// from then on round-trips byte for byte — the round trip the writer
		// depends on.
		blob, err := appendStatsSectionV4(nil, schema, agg, entries)
		if err != nil {
			t.Fatalf("parsed section does not re-encode: %v", err)
		}
		again, againAgg, err := parseStatsSection(blob, schema)
		if err != nil {
			t.Fatalf("re-encoded section does not parse: %v", err)
		}
		if len(again) != len(entries) {
			t.Fatalf("round trip changed entry count: %d -> %d", len(entries), len(again))
		}
		for i := range again {
			if again[i].st.Rows != entries[i].st.Rows ||
				(again[i].st.Bloom == nil) != (entries[i].st.Bloom == nil) ||
				(again[i].st.Hist == nil) != (entries[i].st.Hist == nil) {
				t.Fatalf("round trip changed entry %d", i)
			}
		}
		blob2, err := appendStatsSectionV4(nil, schema, againAgg, again)
		if err != nil {
			t.Fatalf("re-parsed section does not re-encode: %v", err)
		}
		if !bytes.Equal(blob, blob2) {
			t.Fatal("second round trip changed the bytes")
		}
	})
}
