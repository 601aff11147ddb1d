// Package catalog keeps the parsed metadata of immutable files resident
// for the life of the filesystem they live on: one catalog per
// hdfs.FileSystem (Of), shared by every planner, every task it schedules,
// every job and every query that follows.
//
// CIF keeps a schema file and self-describing column files in every
// split-directory (paper Section 4.2, Appendix A) because a Hadoop job
// plans once and scans for minutes. A scan server plans a batch of queries
// every few milliseconds, and without a catalog each member of each batch
// re-reads and re-parses every directory's schema and every footer its
// predicate consults, serially, before the first map task starts. The
// catalog makes that cost once per file: interactive column stores keep
// their per-chunk metadata resident between queries for the same reason
// (Hall et al., "Processing a Trillion Cells per Mouse Click").
//
// What is catalogued is exactly what is a pure function of one closed
// file: a split-directory's parsed schema, and a column file's whole stats
// image (colfile.Zones: every group's zone maps and Bloom filters, the
// whole-file aggregate, and the footer's record count). The planner's
// file-tier look-ups (FileStats) and every map task's group-tier look-ups
// (Zones, through colfile.ReaderOptions.Zones) answer from the same entry,
// so a file's section is read and parsed once between them. An entry
// answers only for the namenode generation it was loaded from (the keying
// argument of hdfs.ScanCache and vec.Cache), so a dataset rebuilt at the
// same paths is re-read, never served stale; a task keeps the generation it
// opened even after the path is rewritten under it; and a file still being
// written has no generation to key on and is read through. That is what
// makes one catalog per filesystem as safe as one per job: nothing it holds
// can go stale, and MaxBytes bounds what it holds for as long as the
// filesystem lives (internal/lru's policy, shared with the scan and vector
// caches). Dataset layouts — the manifest's directory list — change with
// every commit and are never catalogued: they stay per-plan snapshots.
//
// The catalog removes parsing, not accounting. Everything it reads is
// planning metadata the readers never charged (schema files, footers, stats
// sections through the uncharged path), and what a caller counts per
// consultation (scan.PruneReport.FilesChecked) it counts whether or not the
// answer was resident.
package catalog

import (
	"fmt"

	"colmr/internal/colfile"
	"colmr/internal/hdfs"
	"colmr/internal/lru"
	"colmr/internal/scan"
	"colmr/internal/serde"
)

// MaxBytes bounds a catalog by the bytes on disk its entries were parsed
// from: a schema costs its file's length, a column file's image its stats
// section and footer. Past it the least recently used entries are dropped,
// so a catalog nobody invalidates, living as long as its filesystem, cannot
// grow without bound; a section larger than the whole budget is read
// through and never admitted. A section is about ten bytes of bounds per
// record group, plus up to 4 KB of Bloom filter per group and 128 KB for
// the whole file on string and map columns. Parsed, bounds take about
// twelve times their bytes on disk and a filter about its own, so a full
// catalog is some tens to two hundred megabytes of heap: the schemas and
// filter columns of a few thousand split-directories.
const MaxBytes = 16 << 20

// Catalog is the metadata catalog of one filesystem, safe for concurrent
// use. What it returns is shared between every caller and strictly
// read-only.
type Catalog struct {
	fs  *hdfs.FileSystem
	lru *lru.Cache[string, entry] // keyed by path
}

// entry is one file's catalogued facts for generation gen: schema for a
// schema file, zones for a column file.
type entry struct {
	gen    int64
	schema *serde.Schema
	zones  *colfile.Zones
}

// Of returns the filesystem's catalog, made empty on first use.
func Of(fs *hdfs.FileSystem) *Catalog {
	return fs.Meta(func() any { return newCatalog(fs, MaxBytes) }).(*Catalog)
}

func newCatalog(fs *hdfs.FileSystem, budget int64) *Catalog {
	return &Catalog{fs: fs, lru: lru.New[string, entry](budget, func(p string) string { return p })}
}

// lookup returns path's resident entry when one answers for generation gen.
func (c *Catalog) lookup(path string, gen int64) (entry, bool) {
	if e, ok := c.lru.Get(path); ok && e.gen == gen {
		return e, true
	}
	return entry{}, false
}

// Schema returns the parsed schema file at path. The schema is immutable
// (serde.RecordOf) and shared: the planner's parse is every task's parse.
func (c *Catalog) Schema(path string) (*serde.Schema, error) {
	gen, cacheable := c.fs.Generation(path)
	if cacheable {
		if e, hit := c.lookup(path, gen); hit && e.schema != nil {
			return e.schema, nil
		}
	}
	data, err := c.fs.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("catalog: reading %s: %w", path, err)
	}
	s, err := serde.Parse(string(data))
	if err != nil {
		return nil, fmt.Errorf("catalog: parsing schema %s: %w", path, err)
	}
	if cacheable {
		c.lru.Add(path, entry{gen: gen, schema: s}, int64(len(data)))
	}
	return s, nil
}

// FileStats returns the whole-file aggregate statistics and the record
// count of the column file at path, whose values have schema col — the
// planner's footer view, answered from the file's catalogued image. ok is
// false when the file cannot be opened; a file that opens but carries no
// (or unreadable) statistics answers nil stats: planning degrades, it does
// not fail, and real I/O errors surface in the task that scans the file.
func (c *Catalog) FileStats(path string, col *serde.Schema) (stats *scan.ColStats, records int64, ok bool) {
	if gen, cacheable := c.fs.Generation(path); cacheable {
		if e, hit := c.lookup(path, gen); hit && e.zones != nil {
			return e.zones.Agg(), e.zones.Records(), true
		}
	}
	hr, err := c.fs.Open(path, hdfs.AnyNode)
	if err != nil {
		return nil, 0, false
	}
	defer hr.Close()
	z := c.Zones(hr, col)
	return z.Agg(), z.Records(), true
}

// Zones returns the parsed stats image of the column file hr has open,
// whose values have schema col, for the generation hr opened — never a
// newer file since written at the same path. It is nil when the footer or
// the section cannot be read; a file without (or with unreadable)
// statistics answers an image that knows none.
func (c *Catalog) Zones(hr *hdfs.FileReader, col *serde.Schema) *colfile.Zones {
	path, gen, closed := hr.Identity()
	if closed {
		if e, hit := c.lookup(path, gen); hit && e.zones != nil {
			return e.zones
		}
	}
	z, err := colfile.ReadZones(hr, col)
	if err != nil {
		return nil
	}
	if closed {
		c.lru.Add(path, entry{gen: gen, zones: z}, z.Bytes())
	}
	return z
}

// Invalidate drops the entries of the file or directory tree at prefix.
// Generations already make a stale answer impossible; this releases the
// entries of a dataset known dead (retired by compaction, removed) ahead of
// the LRU.
func (c *Catalog) Invalidate(prefix string) { c.lru.Invalidate(prefix) }

// Len returns the number of resident entries.
func (c *Catalog) Len() int { return c.lru.Len() }
