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
// Projection is pushed into CIF with the ScanDataset builder — its Columns
// is the paper's ColumnInputFormat.setColumns — after which unprojected
// column files are never opened, the I/O elimination that drives the
// paper's order-of-magnitude speedups. The builder fills in the job's
// scan.Spec (JobConf.Scan), the only configuration CIF reads.
//
// There is one reader, and one batch loop. InputFormat.Open returns a
// one-member Reader; OpenShared hands the same Reader the N jobs of a
// co-scheduled batch (shared.go). Either opens cursors against its split's
// scan plan (plan.go) — the members' projections and planners, the union
// planner and eval groups, the cursor set — which SharedSplits builds once
// per co-admission cluster and directory schema, Splits and PlannedSplits
// once per schema, and Open itself for a hand-built split; the reader keeps
// only the task's own state. Each step of the loop (vecexec.go) plans a
// batch with the union zone-map tier, decodes its columns on demand into
// scan.Vectors (or serves them from a session's vec.Cache), runs each
// residual once through VecEval, and hands every member its matches through
// its sink: eager records assembled column by column out of per-batch slabs,
// lazy records (Section 5, lazy.go) whose Get decodes a value only when the
// map function asks — skipping ahead with the skip lists, or a run at a time
// for a column read row after row — or an aggregate fold (aggexec.go) that
// builds no record at all, answering MatchAll regions from zone statistics
// with zero bytes decoded. Spec.NoVec runs the same loop a row at a time as
// the test oracle; batch boundaries never cross a zone-map consultation, so
// the logical counters are identical either way. See docs/VECTORIZED.md.
//
// Role in the scheduler→file→group→value pipeline: this package *hosts*
// three of the four tiers, driving the shared scan.Planner at each.
// InputFormat.PlannedSplits runs the scheduler tier (split-directories
// elided from footer statistics before any task exists); Reader.openDir the
// file tier (a directory skipped from the same aggregates before any header
// parse); Reader.step the group tier (zone-map and Bloom proofs jump whole
// groups) and the value tier (exact evaluation over filter columns only,
// with DCSL map-key tests routed to the column's prober and string equality
// over window dictionary ids). With N > 1 members each member's own planner
// replays its solo consultation sequence, so its logical accounting matches
// its solo run.
//
// The write side is COF: Writer cuts a record stream into split-directories,
// each written by a SplitWriter (splitwriter.go). A round of records fans
// its columns out across GOMAXPROCS goroutines; each column logs its writes,
// and the logs replay in the record-at-a-time order, so every file, block
// placement and charge is that loop's (docs/INGEST.md, "Writing a
// partition").
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
//   - Builder/spec parity (query_test.go): the ScanDataset builder
//     produces exactly the scan.Spec a literal spells, and a conf without
//     one resolves to the zero spec.
//   - Accounting: "records pruned at any tier + records filtered +
//     records returned == dataset size" per job, in solo, elided,
//     bloom-on/off, and shared-scan modes alike.
//   - Rounds never change what is written: a split-directory written in
//     rounds of any length is the record-at-a-time loop's, byte for byte,
//     block for block and charge for charge, and fails with its error.
package core
