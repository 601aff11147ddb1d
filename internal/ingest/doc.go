// Package ingest is the streaming write path over the CIF storage layer: a
// continuously-fed crawl dataset that stays scannable — with the full
// pruning machinery and correct upsert semantics — while it is being
// written.
//
// The paper's loader (core.Writer) assumes a finished record set: the
// dataset is immutable once loaded, and every scan capability (zone
// statistics, Bloom filters, split elision) exists because the files are
// complete before the first query. A crawler does not work that way: pages
// arrive continuously, and the same URL arrives again on every recrawl.
// This package closes that gap with an LSM-shaped arrangement built
// entirely from the repository's existing pieces:
//
//   - Appends buffer in a bounded memtable keyed by an upsert column (the
//     URL). A recrawl arriving while its predecessor is still buffered
//     tombstones the old version in place.
//   - A full memtable flushes into small time-partitioned partitions
//     (dt=<bucket>/seq-<N> split-directories) written through the ordinary
//     colfile writers, so even the freshest partition carries the complete
//     CFS4 statistics zone — Bloom filters and zone maps from birth.
//   - A recrawl whose predecessor was already flushed cannot rewrite an
//     immutable column file; the old row's ordinal joins the partition's
//     position delete vector, carried by the next commit record, and every
//     scan masks it out — merge-on-read.
//   - Each flush commits a new generation of the dataset layout as one
//     immutable _manifest.<N> record (core.ManifestLog): an edit — the
//     partitions added, the ordinals deleted — over a checkpoint of the
//     whole layout, written again once the edits would outweigh it. Scans
//     plan against the highest complete generation, so a reader racing a
//     commit sees the previous layout, never a torn one.
//   - Background compaction merges the accumulated fresh partitions into
//     large statistics-rich split-directories (c<N>/s<k>) — and it is
//     itself a MapReduce job over the engine: a map-only job whose input is
//     the merge-on-read scan of the fresh partitions and whose mapper
//     appends the surfaced records to a core.Writer a round at a time
//     (core.SplitWriter writes a round's columns in parallel). Because the
//     scan already masks superseded rows, the mapper needs no key
//     resolution; compaction is an identity pass that makes the masking
//     physical.
//
// Scans never see buffered records: the unit of visibility is the manifest
// commit. Everything a scan can observe — partitions and commit records —
// is immutable once written, which is what makes concurrent
// serving safe without any reader-side locking.
package ingest
