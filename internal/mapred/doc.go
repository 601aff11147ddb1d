// Package mapred implements a Hadoop-like MapReduce engine over the
// simulated HDFS: InputFormat/RecordReader/OutputFormat extension points
// (the same abstractions the paper's CIF/COF plug into, Section 2), a
// locality-aware split scheduler, parallel map execution, and a
// hash-partitioned sort-merge shuffle feeding reduce tasks.
//
// Map and reduce tasks execute for real, in-process; every task fills a
// sim.TaskStats with its I/O and CPU counters, which the benchmark
// harnesses price with the cluster cost model.
//
// Role in the scheduler→file→group→value pipeline: this package owns the
// scheduler seat. Run asks a PlannedInputFormat for its splits, which is
// where CIF's scheduler tier elides split-directories before any map task
// exists (Result.Plan records the scan.PruneReport); the reader-hosted
// tiers then run inside the map tasks this engine schedules. JobConf.Scan
// carries the typed scan.Spec — projection, predicate, laziness, elision
// and Bloom switches, task sizing, aggregation — as the only way to
// configure a scan; the builder (core.ScanDataset) fills it in, and
// string-typed inputs such as `colscan -where` reach it through
// scan.Parse.
//
// Beyond solo Run, the package batches and persists:
//
//   - RunBatch / Engine.Submit+Wait co-schedule jobs whose inputs support
//     shared scanning (SharedInputFormat): one map task per shared
//     split-directory group, one cursor set serving every member job,
//     physical I/O charged once to BatchResult.Shared.
//   - Session owns an LRU scan cache (hdfs.ScanCache) keyed by file
//     generation, so repeated Submit/Wait rounds reuse hot column-file
//     regions across batches without co-submission.
//
// Invariants the property tests defend:
//
//   - Shared-scan equivalence (sharedscan_property_test.go): every job of
//     a batch produces byte-identical output files and solo-equal logical
//     counters (records processed/pruned/filtered, groups and
//     bloom-pruned, splits pruned, output) versus running it alone —
//     sharing is an optimization, never a semantics change — across
//     random schemas, predicates, lazy/eager mixes, reducers, combiners,
//     and elision/bloom on/off dimensions.
//   - Session equivalence (session_test.go): cache off, ample, and
//     starved produce byte-identical outputs and identical logical
//     counters over multi-round batch sequences; file generations make
//     stale hits impossible after dataset reload.
//   - Engine/Run parity: a single-job batch is deep-equal to the solo
//     path, so callers can adopt the batch API without re-verifying
//     results.
package mapred
