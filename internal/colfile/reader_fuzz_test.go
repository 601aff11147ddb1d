package colfile

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"colmr/internal/scan"
	"colmr/internal/serde"
)

// The layout readers are exposed to on-disk bytes and must never panic: on
// any file, under any schema, every cursor and range call either works or
// returns an error. The seed corpus is what writeColumn emits — a short
// column of every vecDecodeSchemas kind in every layout and codec the writer
// accepts it in — and the start of every pinned-bytes column written as
// TestWriterPinnedBytes' every=64/nobloom=false cases are, so that stats
// sections with several groups, Bloom words and key universes are in it for
// every layout; each file is driven by one op sequence that touches every
// entry point. Runs under plain `go test`; explores further under
// `go test -fuzz FuzzColumnReader`.

// fuzzReaderRows spans two DCSL windows and several skip groups and frames,
// and keeps the seed files short enough to mutate quickly.
const fuzzReaderRows = 150

// fuzzSchemas are the schemas a fuzz input's kind byte picks from: the
// vecDecodeSchemas kinds and the pinned-bytes columns' ("pinned/<name>").
func fuzzSchemas() map[string]*serde.Schema {
	out := map[string]*serde.Schema{}
	for name, tc := range vecDecodeSchemas() {
		out[name] = tc.schema
	}
	for _, col := range pinnedColumns() {
		out["pinned/"+col.name] = col.schema
	}
	return out
}

// fuzzSchemaNames fixes the order in which a fuzz input's kind byte picks
// one of fuzzSchemas.
func fuzzSchemaNames() []string {
	var names []string
	for name := range fuzzSchemas() {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

func FuzzColumnReader(f *testing.F) {
	schemas := fuzzSchemas()
	names := fuzzSchemaNames()
	// Two bytes an op: which call, and its argument.
	ops := []byte{0, 0, 1, 15, 2, 20, 2, 33, 3, 10, 4, 7, 5, 1, 0, 0, 1, 39, 2, 49, 3, 60, 4, 90}
	seed := func(name string, opts Options, gen func(*rand.Rand, int) any) {
		schema := schemas[name]
		if _, err := NewWriter(&memFile{}, schema, opts, nil); err != nil {
			return // a layout this kind cannot be stored in
		}
		rng := rand.New(rand.NewSource(2011))
		file, _ := writeColumn(f, schema, opts, fuzzReaderRows, func(i int) any { return gen(rng, i) })
		f.Add(file.Bytes(), uint8(slices.Index(names, name)), ops)
	}
	kinds := vecDecodeSchemas()
	for _, name := range names {
		if tc, ok := kinds[name]; ok {
			for _, opts := range allLayouts() {
				seed(name, opts, tc.gen)
			}
		}
	}
	for _, col := range pinnedColumns() {
		for _, opts := range pinnedLayouts() {
			if col.name == "nullstring" && opts.Layout != DCSL {
				continue // only DCSL spells a null
			}
			opts.StatsEvery = 64
			seed("pinned/"+col.name, opts, col.gen)
		}
	}
	keys := []string{"k", "absent", "", "key-03", "content-type"}
	f.Fuzz(func(t *testing.T, file []byte, kind uint8, ops []byte) {
		schema := schemas[names[int(kind)%len(names)]]
		r, err := NewReader(bytes.NewReader(file), schema, nil)
		if err != nil {
			return
		}
		defer r.Release()
		if len(ops) > 64 {
			ops = ops[:64]
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], int64(ops[i+1])
			rec := r.Record()
			// Ranges start at or a little past the cursor and may run past
			// the end, so the entry checks are driven too.
			start, end := rec+arg%8, rec+arg%8+arg%50
			switch op % 6 {
			case 0:
				_, _ = r.Value()
			case 1:
				_ = r.SkipTo(rec + arg%40)
			case 2:
				v := scan.NewVector(VecKindOf(schema), int(end-start))
				v.Boxed = arg&1 == 1
				_ = r.(VectorDecoder).DecodeVector(start, end, v, nil)
			case 3:
				if d, ok := r.(IDVectorDecoder); ok {
					_, _ = d.DecodeIDVector(start, end, scan.NewIDVector(int(end-start)), nil)
				}
			case 4:
				if p, ok := r.(KeyVecProber); ok {
					_, _ = p.ProbeKeys(keys[arg%int64(len(keys))], start, end, scan.NewSelection(int(end-start)), nil)
				}
			case 5:
				if p, ok := r.(KeyProber); ok {
					_, _, _ = p.HasKey(keys[arg%int64(len(keys))])
				}
			}
		}
	})
}
