package catalog_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"colmr/internal/catalog"
	"colmr/internal/colfile"
	"colmr/internal/hdfs"
	"colmr/internal/serde"
	"colmr/internal/sim"
)

const twoFields = "R {\n  long x,\n  string s\n}"

// writeColumn writes n longs base, base+1, ... as a column file at path.
func writeColumn(t testing.TB, fs *hdfs.FileSystem, path string, base, n int64) {
	t.Helper()
	var buf bytes.Buffer
	w, err := colfile.NewWriter(&buf, serde.Long(), colfile.Options{Layout: colfile.SkipList, StatsEvery: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < n; i++ {
		if err := w.Append(base + i); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(path, buf.Bytes(), hdfs.AnyNode); err != nil {
		t.Fatal(err)
	}
}

// TestCatalogGenerationKeyed: an answer is resident for the generation it
// was loaded from and no other. The same file answers with the same parse;
// the path removed and rewritten answers from the new bytes, with nobody
// having invalidated anything.
func TestCatalogGenerationKeyed(t *testing.T) {
	fs := hdfs.New(sim.SingleNode(), 1)
	cat := catalog.New(fs)
	if err := fs.WriteFile("/d/s0/_schema", []byte(twoFields), hdfs.AnyNode); err != nil {
		t.Fatal(err)
	}
	writeColumn(t, fs, "/d/s0/x", 100, 50)

	s1, err := cat.Schema("/d/s0/_schema")
	if err != nil {
		t.Fatal(err)
	}
	if s2, _ := cat.Schema("/d/s0/_schema"); s2 != s1 {
		t.Error("a second lookup of the same schema file parsed it again")
	}
	st1, n, ok := cat.FileStats("/d/s0/x", serde.Long())
	if !ok || n != 50 || st1 == nil || st1.Min != int64(100) || st1.Max != int64(149) {
		t.Fatalf("FileStats = %+v, %d records, ok=%v; want [100,149] over 50", st1, n, ok)
	}
	if st2, _, _ := cat.FileStats("/d/s0/x", serde.Long()); st2 != st1 {
		t.Error("a second lookup of the same column file parsed its footer again")
	}
	if cat.Len() != 2 {
		t.Errorf("%d entries resident, want 2", cat.Len())
	}

	for _, p := range []string{"/d/s0/_schema", "/d/s0/x"} {
		if err := fs.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cat.Schema("/d/s0/_schema"); err == nil {
		t.Error("a removed schema file still answers")
	}
	if _, _, ok := cat.FileStats("/d/s0/x", serde.Long()); ok {
		t.Error("a removed column file still answers")
	}
	if err := fs.WriteFile("/d/s0/_schema", []byte("R {\n  long x\n}"), hdfs.AnyNode); err != nil {
		t.Fatal(err)
	}
	writeColumn(t, fs, "/d/s0/x", 7, 20)
	if s, err := cat.Schema("/d/s0/_schema"); err != nil || len(s.Fields) != 1 {
		t.Errorf("rewritten schema file answered %v, %v; want the one-field record", s, err)
	}
	if st, n, ok := cat.FileStats("/d/s0/x", serde.Long()); !ok || n != 20 || st.Min != int64(7) {
		t.Errorf("rewritten column file answered %+v, %d records; want min 7 over 20", st, n)
	}
	if cat.Len() != 2 {
		t.Errorf("%d entries resident after the rewrite, want 2: a new generation replaces its predecessor", cat.Len())
	}
}

// TestCatalogUnclosedFileReadThrough: a file its writer has not closed has
// no fixed contents to key on; it is read, and read again.
func TestCatalogUnclosedFileReadThrough(t *testing.T) {
	fs := hdfs.New(sim.SingleNode(), 1)
	cat := catalog.New(fs)
	w, err := fs.Create("/d/s0/_schema", hdfs.AnyNode)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("R {\n  long x\n}")); err != nil {
		t.Fatal(err)
	}
	s1, err := cat.Schema("/d/s0/_schema")
	if err != nil {
		t.Fatal(err)
	}
	if cat.Len() != 0 {
		t.Fatal("an unclosed file was catalogued")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := cat.Schema("/d/s0/_schema")
	if err != nil || s2 == s1 || cat.Len() != 1 {
		t.Fatalf("closed file: schema %p (unclosed read %p), err %v, %d entries; want a fresh parse, catalogued", s2, s1, err, cat.Len())
	}
}

// TestCatalogInvalidatePrefix: Invalidate drops a file or a directory tree,
// and a sibling whose name merely starts the same way stays.
func TestCatalogInvalidatePrefix(t *testing.T) {
	fs := hdfs.New(sim.SingleNode(), 1)
	cat := catalog.New(fs)
	for _, dir := range []string{"/d/s1", "/d/s10", "/d/s2", "/e/s1"} {
		if err := fs.WriteFile(dir+"/_schema", []byte(twoFields), hdfs.AnyNode); err != nil {
			t.Fatal(err)
		}
		writeColumn(t, fs, dir+"/x", 0, 10)
		if _, err := cat.Schema(dir + "/_schema"); err != nil {
			t.Fatal(err)
		}
		cat.FileStats(dir+"/x", serde.Long())
	}
	for _, step := range []struct {
		prefix string
		left   int
	}{
		{"/d/s1", 6},    // not /d/s10
		{"/d/s2/x", 5},  // one file
		{"/nowhere", 5}, // nothing
		{"/d", 2},       // the rest of the dataset
		{"/e", 0},
	} {
		cat.Invalidate(step.prefix)
		if cat.Len() != step.left {
			t.Fatalf("after Invalidate(%q): %d entries, want %d", step.prefix, cat.Len(), step.left)
		}
	}
}

// TestCatalogEntryCap: a server nobody invalidates, planning over ten
// thousand distinct split-directories, holds MaxEntries entries and no more
// — and what it holds is what it used last.
func TestCatalogEntryCap(t *testing.T) {
	fs := hdfs.New(sim.SingleNode(), 1)
	cat := catalog.New(fs)
	const dirs = 10_000
	path := func(i int) string { return fmt.Sprintf("/big/s%d/_schema", i) }
	for i := 0; i < dirs; i++ {
		if err := fs.WriteFile(path(i), []byte(twoFields), hdfs.AnyNode); err != nil {
			t.Fatal(err)
		}
		if _, err := cat.Schema(path(i)); err != nil {
			t.Fatal(err)
		}
		if n := cat.Len(); n > catalog.MaxEntries {
			t.Fatalf("%d entries after %d directories, cap %d", n, i+1, catalog.MaxEntries)
		}
	}
	if n := cat.Len(); n != catalog.MaxEntries {
		t.Fatalf("%d entries after %d directories, want a full catalog of %d", n, dirs, catalog.MaxEntries)
	}
	last, _ := cat.Schema(path(dirs - 1))
	if again, _ := cat.Schema(path(dirs - 1)); again != last {
		t.Error("the most recently used entry was not resident")
	}
	first, _ := cat.Schema(path(0)) // long evicted: parsed anew, and admitted
	if again, _ := cat.Schema(path(0)); again != first {
		t.Error("a re-read entry was not admitted")
	}
	if n := cat.Len(); n != catalog.MaxEntries {
		t.Fatalf("%d entries after re-reading an evicted one, want %d", n, catalog.MaxEntries)
	}
}

// TestCatalogConcurrentUse hammers one catalog from several goroutines —
// planner and map tasks share it by construction — while one of them
// invalidates directories under the others. Run under -race.
func TestCatalogConcurrentUse(t *testing.T) {
	fs := hdfs.New(sim.SingleNode(), 1)
	cat := catalog.New(fs)
	const dirs = 8
	for d := 0; d < dirs; d++ {
		if err := fs.WriteFile(fmt.Sprintf("/c/s%d/_schema", d), []byte(twoFields), hdfs.AnyNode); err != nil {
			t.Fatal(err)
		}
		writeColumn(t, fs, fmt.Sprintf("/c/s%d/x", d), int64(d), 30)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				d := (g + i) % dirs
				s, err := cat.Schema(fmt.Sprintf("/c/s%d/_schema", d))
				if err != nil || s.FieldIndex("s") != 1 {
					t.Errorf("schema of s%d: %v, %v", d, s, err)
					return
				}
				st, n, ok := cat.FileStats(fmt.Sprintf("/c/s%d/x", d), s.Field("x"))
				if !ok || n != 30 || st == nil || st.Min != int64(d) {
					t.Errorf("stats of s%d/x: %+v, %d, %v", d, st, n, ok)
					return
				}
				if g == 0 && i%50 == 0 {
					cat.Invalidate(fmt.Sprintf("/c/s%d", d))
				}
			}
		}(g)
	}
	wg.Wait()
	if n := cat.Len(); n > 2*dirs {
		t.Errorf("%d entries for %d files", n, 2*dirs)
	}
}
