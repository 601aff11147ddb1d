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
// file: a split-directory's parsed schema, and a column file's whole-file
// aggregate statistics and record count. An entry answers only for the
// namenode generation it was loaded from (the keying argument of
// hdfs.ScanCache and vec.Cache), so a dataset rebuilt at the same paths is
// re-read, never served stale; a file still being written has no generation
// to key on and is read through. That is what makes one catalog per
// filesystem as safe as one per job: nothing it holds can go stale, and
// MaxEntries bounds what it holds for as long as the filesystem lives
// (internal/lru's policy, shared with the scan and vector caches).
// Dataset layouts — the manifest's directory list — change with every
// commit and are never catalogued: they stay per-plan snapshots.
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

// MaxEntries bounds a catalog, in files: past it the least recently used
// entry is dropped, so a catalog nobody invalidates, living as long as its
// filesystem, cannot grow without bound. An entry is a parsed schema or one
// column's aggregate — bounds, a 16-bucket histogram and, for string and map
// columns, the file's Bloom filter, which is the bulk of it: 12 bits per
// distinct key, a few KB for a split-directory's worth, never more than the
// writer's 128 KB cap. A full catalog is the schema and three filter
// columns of a thousand split-directories, some tens of megabytes.
const MaxEntries = 1 << 12

// Catalog is the metadata catalog of one filesystem, safe for concurrent
// use. What it returns is shared between every caller and strictly
// read-only.
type Catalog struct {
	fs  *hdfs.FileSystem
	lru *lru.Cache[string, entry] // keyed by path; each entry costs 1
}

// entry is one file's catalogued facts for generation gen: schema for a
// schema file; stats (nil for a file without statistics) and records for a
// column file.
type entry struct {
	gen     int64
	schema  *serde.Schema
	stats   *scan.ColStats
	records int64
}

// Of returns the filesystem's catalog, made empty on first use.
func Of(fs *hdfs.FileSystem) *Catalog {
	return fs.Meta(func() any {
		return &Catalog{fs: fs, lru: lru.New[string, entry](MaxEntries, func(p string) string { return p })}
	}).(*Catalog)
}

// lookup returns path's resident entry when one answers for the path's
// current generation (hit), and otherwise an empty entry of that generation
// for the caller to fill and admit. cacheable is false for a path with no
// generation to key on (missing, or not yet closed).
func (c *Catalog) lookup(path string) (e entry, hit, cacheable bool) {
	gen, ok := c.fs.Generation(path)
	if !ok {
		return entry{}, false, false
	}
	if e, ok := c.lru.Get(path); ok && e.gen == gen {
		return e, true, true
	}
	return entry{gen: gen}, false, true
}

// Schema returns the parsed schema file at path. The schema is immutable
// (serde.RecordOf) and shared: the planner's parse is every task's parse.
func (c *Catalog) Schema(path string) (*serde.Schema, error) {
	e, hit, cacheable := c.lookup(path)
	if hit && e.schema != nil {
		return e.schema, nil
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
		c.lru.Add(path, entry{gen: e.gen, schema: s}, 1)
	}
	return s, nil
}

// FileStats returns the whole-file aggregate statistics and the record
// count of the column file at path, whose values have schema col — the
// footer-only view of colfile.FileStats and colfile.RecordCount. ok is false
// when the file cannot be opened; a file that opens but carries no (or
// unreadable) statistics answers nil stats: planning degrades, it does not
// fail, and real I/O errors surface in the task that scans the file.
func (c *Catalog) FileStats(path string, col *serde.Schema) (stats *scan.ColStats, records int64, ok bool) {
	e, hit, cacheable := c.lookup(path)
	if hit && e.schema == nil {
		return e.stats, e.records, true
	}
	hr, err := c.fs.Open(path, hdfs.AnyNode)
	if err != nil {
		return nil, 0, false
	}
	defer hr.Close()
	// Both degrade to "nothing known" on a malformed file, as above.
	stats, _ = colfile.FileStats(hr, col)
	records, _ = colfile.RecordCount(hr)
	if cacheable {
		c.lru.Add(path, entry{gen: e.gen, stats: stats, records: records}, 1)
	}
	return stats, records, true
}

// Invalidate drops the entries of the file or directory tree at prefix.
// Generations already make a stale answer impossible; this releases the
// entries of a dataset known dead (retired by compaction, removed) ahead of
// the LRU.
func (c *Catalog) Invalidate(prefix string) { c.lru.Invalidate(prefix) }

// Len returns the number of resident entries.
func (c *Catalog) Len() int { return c.lru.Len() }
