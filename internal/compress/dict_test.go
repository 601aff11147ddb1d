package compress

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"colmr/internal/race"
)

type writerWindow struct {
	name  string
	dict  *Dictionary
	added []string
}

// writerWindows returns dictionaries built the two ways a DCSL writer builds
// them: a string column's window adds its distinct values sorted, and a map
// column's adds each record's keys, sorted within the record, in order of
// first appearance. Each comes with every string the window added.
func writerWindows() []writerWindow {
	rng := rand.New(rand.NewSource(47))
	word := func() string {
		switch rng.Intn(8) {
		case 0:
			return ""
		case 1:
			return strings.Repeat("long-", 60+rng.Intn(10)) // past a boxer's singleMax
		case 2:
			return string([]byte{0, 0xff, byte(rng.Intn(4)), 0x80})
		}
		return fmt.Sprintf("tag-%020d", rng.Intn(40))
	}
	var out []writerWindow
	for w := range 6 {
		// A string column: the window's values, sorted, each added once.
		vals := make([]string, 1+rng.Intn(200))
		for i := range vals {
			vals[i] = word()
		}
		slices.Sort(vals)
		vals = slices.Compact(vals)
		sw := writerWindow{name: fmt.Sprintf("strings/%d", w), dict: NewDictionary()}
		for _, v := range vals {
			sw.dict.Add(v)
			sw.added = append(sw.added, v)
		}
		// A map column: each record's sorted keys, added as they come.
		mw := writerWindow{name: fmt.Sprintf("map-keys/%d", w), dict: NewDictionary()}
		for range 1 + rng.Intn(50) {
			keys := make([]string, rng.Intn(6))
			for i := range keys {
				keys[i] = word()
			}
			slices.Sort(keys)
			for _, k := range slices.Compact(keys) {
				mw.dict.Add(k)
				mw.added = append(mw.added, k)
			}
		}
		out = append(out, sw, mw)
	}
	return out
}

// The view reads what the writer wrote: every id's entry is the writer's
// string for it, and ResolveID agrees with the writer's ID on every needle
// the window holds and on needles it does not — after the parsed buffer is
// overwritten, since the view owns its bytes.
func TestDictViewMatchesWriter(t *testing.T) {
	absent := []string{"tag-", "tag-00000000000000000040", "long-", "\x00", "absent"}
	for _, w := range writerWindows() {
		blob := w.dict.Append(nil)
		v, n, err := ParseDictionary(blob)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if n != len(blob) || v.Len() != w.dict.Len() {
			t.Fatalf("%s: %d entries in %d of %d bytes; want %d entries", w.name, v.Len(), n, len(blob), w.dict.Len())
		}
		for i := range blob {
			blob[i] = 0xff
		}
		for _, s := range w.added {
			id, _ := w.dict.ID(s)
			if e, err := v.Lookup(id); err != nil || string(e) != s {
				t.Errorf("%s: Lookup(%d) = %q, %v; the writer's id for %q", w.name, id, e, err, s)
			}
			if got, ok := v.ResolveID(s); !ok || got != id {
				t.Errorf("%s: ResolveID(%q) = %d, %v; writer's id %d", w.name, s, got, ok, id)
			}
		}
		for _, s := range absent {
			want, wok := w.dict.ID(s)
			if got, ok := v.ResolveID(s); ok != wok || got != want {
				t.Errorf("%s: ResolveID(%q) = %d, %v; writer says %d, %v", w.name, s, got, ok, want, wok)
			}
		}
		if _, err := v.Lookup(uint32(v.Len())); err == nil {
			t.Errorf("%s: Lookup past the last entry succeeded", w.name)
		}
	}
}

// Ids are positions. A repeated entry — which no writer produces, so only a
// corrupt file has one — keeps its place: the entries after it keep their
// ids instead of shifting down into a neighbour's string.
func TestDictViewPositionalIDs(t *testing.T) {
	blob := []byte{4}
	for _, s := range []string{"a", "b", "a", "c"} {
		blob = append(binary.AppendUvarint(blob, uint64(len(s))), s...)
	}
	v, _, err := ParseDictionary(blob)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 4 {
		t.Fatalf("%d entries, want 4", v.Len())
	}
	for id, want := range []string{"a", "b", "a", "c"} {
		if e, err := v.Lookup(uint32(id)); err != nil || string(e) != want {
			t.Errorf("Lookup(%d) = %q, %v; want %q", id, e, err, want)
		}
	}
	for needle, want := range map[string]uint32{"a": 0, "b": 1, "c": 3} {
		if id, ok := v.ResolveID(needle); !ok || id != want {
			t.Errorf("ResolveID(%q) = %d, %v; want %d, the first entry that holds it", needle, id, ok, want)
		}
	}
}

// tagDictionary is a DCSL string window of n entries of 24 bytes, as the
// scan_filter workload's tag column writes them.
func tagDictionary(n int) []byte {
	d := NewDictionary()
	for i := range n {
		d.Add(fmt.Sprintf("tag-%020d", i))
	}
	return d.Append(nil)
}

var viewSink *DictView

// A window dictionary costs a reader the view and its one buffer, whatever
// its entry count.
func TestParseDictionaryAllocGuard(t *testing.T) {
	for _, n := range []int{1, 64, 1000} {
		blob := tagDictionary(n)
		allocs := testing.AllocsPerRun(100, func() {
			v, _, err := ParseDictionary(blob)
			if err != nil {
				t.Fatal(err)
			}
			viewSink = v
		})
		race.AllocCeiling(t, fmt.Sprintf("ParseDictionary of %d entries", n), allocs, 2)
	}
}

// BenchmarkParseDictionary parses the 64-entry, 24-byte-entry window a
// DCSL tag column loads at every window start.
func BenchmarkParseDictionary(b *testing.B) {
	blob := tagDictionary(64)
	b.ReportAllocs()
	b.SetBytes(int64(len(blob)))
	for range b.N {
		v, _, err := ParseDictionary(blob)
		if err != nil {
			b.Fatal(err)
		}
		viewSink = v
	}
}
