// Package colfile implements the per-column file formats underlying CIF/COF
// (paper Sections 4.2, 5.2, 5.3). A column file stores the values of one
// column of one split, in one of four layouts:
//
//	Plain     concatenated self-delimiting values. Skipping a record
//	          requires walking its encoding, so lazy access yields no
//	          deserialization or I/O savings — the degradation mode the
//	          paper describes for non-skip-list files.
//	SkipList  values interleaved with skip blocks at 10/100/1000-record
//	          boundaries holding byte offsets ("Skip10 = 1099" in the
//	          paper's Figure 6), enabling O(1) skips per level.
//	Block     compressed blocks: frames of contiguous values compressed
//	          with LZO or ZLIB. A frame's header allows skipping it
//	          wholesale (lazy decompression), but touching any value in a
//	          frame decompresses the entire frame.
//	DCSL      dictionary compressed skip list, for map-typed columns: a
//	          skip list whose map values carry dictionary-compressed keys,
//	          with one key dictionary embedded per largest-level window.
//	          Values are accessible without decompressing a whole block.
//
// Every file is framed by a fixed header (magic "CF01": layout,
// parameters) and a fixed-size footer (magic "CFE2": record count plus the
// length of the statistics section that precedes it), so files are
// self-describing. Between the data region and the footer sits the stats
// section — per-record-group zone maps, key universes, and Bloom filters,
// led by a whole-file aggregate — written by all four layouts and read
// back footer-first without touching data. The section has one generation,
// "CFS4": any other magic, or an entry flag bit it does not define, reads
// as "no statistics". The byte-level specification of every layout and the
// versioning rule live in docs/FORMAT.md; the format-spec CI check keeps
// that document covering every magic this package reads and writes.
//
// The three layouts' readers share one readerBase (reader.go), as their
// writers share one writerBase: the record cursor and its end checks, the
// value decoder, and the one entry every range call goes through
// (vecdecode.go). A batch decode of a complex column appends the layout's
// own Value results, so each layout has one boxed decode path; only its
// typed primitive loop is its own.
//
// Role in the scheduler→file→group→value pipeline: this package is the
// statistics *storage* side. ReadZones parses a file's stats section into
// one read-only image (Zones) that the metadata catalog keeps per file and
// generation: its Agg serves the scheduler and file tiers, and its
// GroupStats — through a reader's StatsSource, which takes the image from
// ReaderOptions.Zones — the group tier. FileStats is the head-only view
// (the aggregate alone) for callers without a catalog, and the DCSL
// reader's KeyProber serves the value tier (window-dictionary and
// group-Bloom key probes without materializing maps). The pruning
// *decisions* live in internal/scan; the readers here only expose
// statistics and never interpret predicates.
//
// Invariants the tests defend:
//
//   - Round trip (stats_test.go, bloomstats_test.go): every layout writes
//     a section whose decoded groups tile the record space exactly, whose
//     bounds contain every value they cover, and whose Bloom filters
//     may-contain every written value — with Options.NoBloom files parsing
//     to filter-less statistics.
//   - Foreign sections degrade (stats_test.go): a file whose section bears
//     another magic opens, returns every value, and serves no statistics.
//   - Parser totality (stats_fuzz_test.go): the stats parser never panics
//     on arbitrary bytes, and whatever parses re-encodes and re-parses to
//     the same geometry.
//   - Prober soundness (bloomstats_test.go): wherever a group's Bloom
//     filter refutes a map key, the DCSL prober and the materialized map
//     agree the key is absent, with the bloom fast path on or off.
//   - Reader equivalence (colfile_test.go, stream_test.go): all layouts
//     return identical values and honor SkipTo geometry, which is what
//     lets the cost model compare them fairly.
//   - Reader totality (reader_fuzz_test.go, colfile_test.go): on arbitrary
//     file bytes every cursor and range call returns an error rather than
//     panicking, and no corrupt length sizes an allocation.
package colfile
