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
// MaxEntries bounds what it holds for as long as the filesystem lives.
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
	"container/list"
	"fmt"
	"strings"
	"sync"

	"colmr/internal/colfile"
	"colmr/internal/hdfs"
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
	fs      *hdfs.FileSystem
	mu      sync.Mutex
	ll      *list.List // front = most recently used
	entries map[string]*list.Element
}

// entry is one file's catalogued facts: schema for a schema file; stats
// (nil for a file without statistics) and records for a column file.
type entry struct {
	path    string
	gen     int64
	schema  *serde.Schema
	stats   *scan.ColStats
	records int64
}

// Of returns the filesystem's catalog, made empty on first use.
func Of(fs *hdfs.FileSystem) *Catalog {
	return fs.Meta(func() any {
		return &Catalog{fs: fs, ll: list.New(), entries: make(map[string]*list.Element)}
	}).(*Catalog)
}

// lookup returns path's current generation and, when one is resident for
// that generation, its entry. cacheable is false for a path with no
// generation to key on (missing, or not yet closed).
func (c *Catalog) lookup(path string) (e *entry, gen int64, cacheable bool) {
	gen, ok := c.fs.Generation(path)
	if !ok {
		return nil, 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[path]; ok {
		if e := el.Value.(*entry); e.gen == gen {
			c.ll.MoveToFront(el)
			return e, gen, true
		}
	}
	return nil, gen, true
}

// admit makes e the resident entry of its path, replacing an older
// generation's, and drops least-recently-used entries past MaxEntries.
func (c *Catalog) admit(e *entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[e.path]; ok {
		el.Value = e
		c.ll.MoveToFront(el)
		return
	}
	c.entries[e.path] = c.ll.PushFront(e)
	for len(c.entries) > MaxEntries {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.entries, el.Value.(*entry).path)
	}
}

// Schema returns the parsed schema file at path. The schema is immutable
// (serde.RecordOf) and shared: the planner's parse is every task's parse.
func (c *Catalog) Schema(path string) (*serde.Schema, error) {
	e, gen, cacheable := c.lookup(path)
	if e != nil && e.schema != nil {
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
		c.admit(&entry{path: path, gen: gen, schema: s})
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
	e, gen, cacheable := c.lookup(path)
	if e != nil && e.schema == nil {
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
		c.admit(&entry{path: path, gen: gen, stats: stats, records: records})
	}
	return stats, records, true
}

// Invalidate drops the entries of the file or directory tree at prefix.
// Generations already make a stale answer impossible; this releases the
// entries of a dataset known dead (retired by compaction, removed) ahead of
// the LRU.
func (c *Catalog) Invalidate(prefix string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for path, el := range c.entries {
		if path == prefix || strings.HasPrefix(path, prefix+"/") {
			c.ll.Remove(el)
			delete(c.entries, path)
		}
	}
}

// Len returns the number of resident entries.
func (c *Catalog) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
