// Package core implements the paper's primary contribution: CIF/COF, the
// column-oriented storage format for MapReduce (Sections 4 and 5).
//
// A dataset loaded with COF (ColumnOutputFormat) is a directory of
// split-directories named s0, s1, ... Each split-directory holds one file
// per top-level column plus a _schema file, and is the unit of scheduling:
// CIF (ColumnInputFormat) assigns one or more split-directories to each map
// task. Installing hdfs.ColumnPlacementPolicy co-locates every file of a
// split-directory on the same replica set, so map tasks read all columns
// locally (Section 4.2, Figure 3b).
//
// Projection is pushed into CIF with the ScanDataset builder (or the
// legacy SetColumns wrapper), after which unprojected column files are
// never opened — the I/O elimination that drives the paper's
// order-of-magnitude speedups. Record materialization is either eager
// (every projected column deserialized per record) or lazy (Section 5): a
// LazyRecord tracks the split-level curPos and per-column lastPos,
// deserializing a column only when the map function calls Get, with
// skip-list column layouts making the intervening skips cheap. A column
// Get is called on row after row is decoded a short run at a time instead
// (lazy.go), at the same modeled cost.
//
// Role in the scheduler→file→group→value pipeline: this package *hosts*
// three of the four tiers, driving the shared scan.Planner at each.
// InputFormat.PlannedSplits runs the scheduler tier (split-directories
// elided from whole-file footer statistics before any task exists);
// Reader.openDir runs the file tier (an opened directory skipped from the
// same aggregates before any header parse); Reader.qualifies runs the
// group tier (zone-map and Bloom proofs jump curPos past whole groups)
// and the value tier (exact evaluation over filter columns only, with
// DCSL map-key tests routed to the column reader's prober). SharedReader
// replays the same consultation sequence per member job of a co-scheduled
// batch so every member's logical accounting matches its solo run.
//
// The value tier executes batch-at-a-time by default (vecexec.go): a
// may-match extent is decoded per filter column into scan.Vectors (fanned
// across a bounded goroutine pool, or served whole from a session's
// vec.Cache), the predicate runs once per batch via VecEval, and only
// selected rows are materialized into the usual Next record shape. Batch
// boundaries never cross a zone-map consultation boundary, so the pruning
// trajectory and logical counters are bit-for-bit the scalar loop's. The
// solo Reader assembles its eager records a batch at a time too — a scan
// with no predicate is a full selection — column by column out of per-batch
// slabs and arenas, charging exactly what the record-at-a-time loop charges.
// Any shape the batch path cannot take (Spec.NoVec, a lazy scan with no
// predicate, a layout without VectorDecoder, a shared set with a scalar
// member) falls back to the record-at-a-time loop per directory. See
// docs/VECTORIZED.md.
//
// Jobs that only fold an aggregate skip records entirely (aggexec.go,
// docs/AGGREGATION.md): with scan.Spec.Agg set, Reader.DrainAggregate
// answers whole MatchAll regions from zone statistics with zero bytes
// decoded, folds batch survivors straight from selection bitmaps and
// vectors, and falls back to per-record folding where batching cannot
// run — same pruning trajectory, RecordsProcessed zero. Equality
// predicates on DCSL string/bytes columns evaluate over window-local
// dictionary ids (colfile.DecodeIDVector) when no consumer needs the
// strings themselves, turning string decode into integer compares.
//
// Invariants the property tests defend (with internal/scan's and
// internal/mapred's property suites, which drive this package):
//
//   - Tier placement never changes results: a split judged by the
//     scheduler (Split.Judged) skips the reader's redundant file tier and
//     still returns exactly what an unjudged split would.
//   - Per-record cursor caching: each column of each record is
//     deserialized at most once, however many consumers ask (lazy Get,
//     predicate evaluation, eager materialization, shared members).
//   - Wrapper/builder parity (query_test.go): the legacy Set* wrappers
//     and the ScanDataset builder produce identical scan.Specs, and a
//     typed field always beats its leftover string prop.
//   - Accounting: "records pruned at any tier + records filtered +
//     records returned == dataset size" per job, in solo, elided,
//     bloom-on/off, and shared-scan modes alike.
package core
