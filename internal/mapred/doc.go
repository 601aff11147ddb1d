// Package mapred implements a Hadoop-like MapReduce engine over the
// simulated HDFS: InputFormat/RecordReader/OutputFormat extension points
// (the same abstractions the paper's CIF/COF plug into, Section 2), a
// locality-aware split scheduler, parallel map execution, and a
// hash-partitioned sort-merge shuffle feeding reduce tasks. Tasks execute
// for real, in-process, each filling a sim.TaskStats that the benchmark
// harnesses price with the cluster cost model.
//
// There is one engine (batch.go) and four ways in: RunBatch and Run (a
// batch of one) for one-shot runs, Session.RunBatch and Session.Run for a
// long-lived session's rounds. Jobs whose inputs share scans
// (SharedInputFormat) over the same datasets are co-scheduled behind one
// cursor set per task; every other job is a group of one, planned and read
// through its own format. A Session adds a cross-batch scan cache
// (hdfs.ScanCache) keyed by file generation.
//
// Role in the scheduler→file→group→value pipeline: this package owns the
// scheduler seat. Planning is where CIF's scheduler tier elides
// split-directories before any map task exists (Result.Plan records the
// scan.PruneReport); the reader-hosted tiers run inside the map tasks.
// JobConf.Scan carries the typed scan.Spec — projection, predicate,
// laziness, elision and Bloom switches, task sizing, aggregation — as the
// only way to configure a scan; the builder (core.ScanDataset) fills it in,
// and string inputs such as `colscan -where` reach it through scan.Parse.
//
// Invariants the tests defend:
//
//   - Shared-scan equivalence (sharedscan_property_test.go): every job of a
//     batch produces byte-identical output files and solo-equal logical
//     counters versus running it alone — sharing is an optimization, never a
//     semantics change — across random schemas, predicates, lazy/eager
//     mixes, reducers, combiners, and elision/bloom dimensions.
//   - Session equivalence (session_test.go): cache off, ample, and starved
//     produce byte-identical outputs and identical logical counters over
//     multi-round batch sequences; file generations make stale hits
//     impossible after dataset reload.
//   - Pinned results (pinned_engine_test.go). Run and a one-job RunBatch
//     take the same path, so they agree by construction.
package mapred
