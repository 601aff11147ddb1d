package catalog_test

import (
	"fmt"
	"sync"
	"testing"

	"colmr/internal/catalog"
	"colmr/internal/colfile"
	"colmr/internal/hdfs"
	"colmr/internal/serde"
	"colmr/internal/sim"
)

// zoneSource is what core's per-column cursor is to its column reader: the
// catalog's image of the file one open FileReader holds.
type zoneSource struct {
	cat *catalog.Catalog
	hr  *hdfs.FileReader
	col *serde.Schema
}

func (s *zoneSource) Zones() *colfile.Zones { return s.cat.Zones(s.hr, s.col) }

// openLongs opens the long column file at path as a reader that takes its
// stats image from cat.
func openLongs(t testing.TB, cat *catalog.Catalog, fs *hdfs.FileSystem, path string) colfile.StatsSource {
	t.Helper()
	hr, err := fs.Open(path, hdfs.AnyNode)
	if err != nil {
		t.Fatal(err)
	}
	col := serde.Long()
	r, err := colfile.NewReaderOpts(hr, col, colfile.ReaderOptions{Chunk: 4096, Zones: &zoneSource{cat, hr, col}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Release)
	return r.(colfile.StatsSource)
}

// TestCatalogZonesShared: the planner's footer look-up and every reader's
// group look-ups answer from one parse of the file — the same statistics,
// pointer for pointer.
func TestCatalogZonesShared(t *testing.T) {
	fs := hdfs.New(sim.SingleNode(), 1)
	cat := catalog.Of(fs)
	writeColumn(t, fs, "/d/s0/x", 100, 50)

	agg, n, ok := cat.FileStats("/d/s0/x", serde.Long())
	if !ok || n != 50 || agg == nil {
		t.Fatalf("FileStats = %+v, %d records, ok=%v", agg, n, ok)
	}
	a, b := openLongs(t, cat, fs, "/d/s0/x"), openLongs(t, cat, fs, "/d/s0/x")
	for rec := int64(0); rec < 50; {
		sa, ea := a.GroupStats(rec)
		sb, eb := b.GroupStats(rec)
		if sa == nil || sa != sb || ea != eb || sa.Min != 100+rec {
			t.Fatalf("record %d: readers answered %p (min %v, end %d) and %p (end %d); want one shared group from 100+rec", rec, sa, sa.Min, ea, sb, eb)
		}
		rec = ea
	}
	hr, _ := fs.Open("/d/s0/x", hdfs.AnyNode)
	if z := cat.Zones(hr, serde.Long()); z.Agg() != agg {
		t.Error("the readers' image holds another aggregate than the planner's")
	}
	if cat.Len() != 1 {
		t.Errorf("%d entries for one file", cat.Len())
	}
}

// TestCatalogZonesWarmReaderAllocs: a reader of a file whose image is
// resident takes it on its first GroupStats allocating nothing — no read,
// no parse, no closure.
func TestCatalogZonesWarmReaderAllocs(t *testing.T) {
	fs := hdfs.New(sim.SingleNode(), 1)
	cat := catalog.Of(fs)
	writeColumn(t, fs, "/d/s0/x", 0, 50)
	cat.FileStats("/d/s0/x", serde.Long())
	const runs = 50
	readers := make([]colfile.StatsSource, runs+1) // AllocsPerRun warms up once
	for i := range readers {
		readers[i] = openLongs(t, cat, fs, "/d/s0/x")
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if st, _ := readers[i].GroupStats(20); st == nil {
			t.Fatal("no group statistics at record 20")
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("a warm reader's first GroupStats allocates %.1f objects, want 0", allocs)
	}
}

// TestCatalogZonesKeepOpenedGeneration: a task that opened a file answers
// from that file's zones, even when the path is rewritten before its first
// group look-up and the new file's image is already resident.
func TestCatalogZonesKeepOpenedGeneration(t *testing.T) {
	fs := hdfs.New(sim.SingleNode(), 1)
	cat := catalog.Of(fs)
	writeColumn(t, fs, "/d/s0/x", 100, 50)
	old := openLongs(t, cat, fs, "/d/s0/x")

	if err := fs.Remove("/d/s0/x"); err != nil {
		t.Fatal(err)
	}
	writeColumn(t, fs, "/d/s0/x", 7, 20)
	if st, n, _ := cat.FileStats("/d/s0/x", serde.Long()); st == nil || st.Min != int64(7) || n != 20 {
		t.Fatalf("rewritten file's stats %+v over %d records; want min 7 over 20", st, n)
	}
	if st, end := old.GroupStats(0); st == nil || st.Min != int64(100) || end != 16 {
		t.Fatalf("reader of the first file answered %+v, end %d; want its own group [100,115] ending at 16", st, end)
	}
	if st, _ := old.GroupStats(40); st == nil || st.Min != int64(132) {
		t.Fatalf("reader of the first file answered %+v at record 40; want min 132", st)
	}
	if st, _ := openLongs(t, cat, fs, "/d/s0/x").GroupStats(0); st == nil || st.Min != int64(7) {
		t.Errorf("a reader of the rewritten file answered %+v; want min 7", st)
	}
}

// TestCatalogZonesConcurrent runs many tasks' readers over the same files at
// once — each takes the shared image on its first group look-up — while
// one goroutine keeps invalidating them. Run under -race.
func TestCatalogZonesConcurrent(t *testing.T) {
	fs := hdfs.New(sim.SingleNode(), 1)
	cat := catalog.Of(fs)
	const files = 2
	for f := 0; f < files; f++ {
		writeColumn(t, fs, fmt.Sprintf("/z/s%d/x", f), int64(1000*f), 64)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				f := (g + i) % files
				path := fmt.Sprintf("/z/s%d/x", f)
				hr, err := fs.Open(path, hdfs.AnyNode)
				if err != nil {
					t.Error(err)
					return
				}
				col := serde.Long()
				r, err := colfile.NewReaderOpts(hr, col, colfile.ReaderOptions{Chunk: 4096, Zones: &zoneSource{cat, hr, col}}, nil)
				if err != nil {
					t.Error(err)
					return
				}
				for rec := int64(0); rec < 64; {
					st, end := r.(colfile.StatsSource).GroupStats(rec)
					if st == nil || st.Min != int64(1000*f)+rec || end <= rec {
						t.Errorf("%s record %d: %+v, end %d", path, rec, st, end)
						break
					}
					rec = end
				}
				r.Release()
				if g == 0 && i%5 == 0 {
					cat.Invalidate(path)
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkCatalogZonesWarmReader opens a reader and takes its first group
// look-up, with the file's image resident in the catalog and, for contrast,
// with the reader parsing the section itself.
func BenchmarkCatalogZonesWarmReader(b *testing.B) {
	fs := hdfs.New(sim.SingleNode(), 1)
	cat := catalog.Of(fs)
	writeColumn(b, fs, "/d/s0/x", 0, 1000)
	cat.FileStats("/d/s0/x", serde.Long())
	col := serde.Long()
	for _, tc := range []struct {
		name    string
		catalog bool
	}{{"catalog", true}, {"own_parse", false}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hr, err := fs.Open("/d/s0/x", hdfs.AnyNode)
				if err != nil {
					b.Fatal(err)
				}
				opts := colfile.ReaderOptions{Chunk: 4096}
				if tc.catalog {
					opts.Zones = &zoneSource{cat, hr, col}
				}
				r, err := colfile.NewReaderOpts(hr, col, opts, nil)
				if err != nil {
					b.Fatal(err)
				}
				if st, _ := r.(colfile.StatsSource).GroupStats(500); st == nil {
					b.Fatal("no group statistics at record 500")
				}
				r.Release()
			}
		})
	}
}
