package sim

// IOStats accumulates disk and network traffic observed by one or more HDFS
// streams. Bytes are charged at transfer-unit granularity by the filesystem
// layer, so ChargedBytes >= LogicalBytes whenever reads are short or
// scattered; the gap is exactly the prefetch waste the paper attributes to
// RCFile (Section 4.1).
type IOStats struct {
	// LocalBytes is bytes served from a replica on the reading node,
	// charged at transfer-unit granularity.
	LocalBytes int64
	// RemoteBytes is bytes served over the network from another node,
	// charged at transfer-unit granularity.
	RemoteBytes int64
	// LogicalBytes is the bytes actually delivered to the caller.
	LogicalBytes int64
	// Seeks is the number of disk seeks (intra-stream jumps and
	// multi-stream interleave switches). Seeks grow linearly with data
	// volume for a fixed layout, so they extrapolate cleanly.
	Seeks int64
	// InterleavedBytes counts bytes fetched while other column streams of
	// the same scan were active on the same disks. They are priced as
	// fractional seek time per readahead window (one arm movement per
	// refill), a formulation that is exactly linear in data volume and so
	// survives scale extrapolation without rounding artifacts.
	InterleavedBytes int64
	// Opens counts first reads of a stream. They are tracked separately
	// from Seeks because they are a per-file constant: extrapolating them
	// linearly from a laptop-scale sample (whose files are much smaller
	// than production blocks) would fabricate seek time. The cost model
	// leaves them unpriced; at production geometry they are bounded by
	// files-per-dataset x seek time, which is negligible next to refill
	// seeks.
	Opens int64
	// BytesWritten is bytes written through the filesystem (load paths).
	BytesWritten int64
}

// counters lists every counter of s once: Add and Scale range over it.
func (s *IOStats) counters() [7]*int64 {
	return [...]*int64{&s.LocalBytes, &s.RemoteBytes, &s.LogicalBytes, &s.Seeks,
		&s.InterleavedBytes, &s.Opens, &s.BytesWritten}
}

// Add accumulates o into s.
func (s *IOStats) Add(o IOStats) {
	dst, src := s.counters(), o.counters()
	for i := range dst {
		*dst[i] += *src[i]
	}
}

// Scale multiplies every counter by k. Used to extrapolate a laptop-scale
// measurement to the paper's dataset size; all counters are linear in
// dataset size for a fixed layout geometry.
func (s *IOStats) Scale(k float64) {
	for _, p := range s.counters() {
		*p = scaleInt(*p, k)
	}
}

// TotalChargedBytes is the total traffic charged to disks and network.
func (s IOStats) TotalChargedBytes() int64 { return s.LocalBytes + s.RemoteBytes }

// CPUStats accumulates deserialization, parsing, and decompression work
// performed by decoders. Each counter is in bytes of *output* (decoded or
// decompressed) data, except the record/value counters.
type CPUStats struct {
	// RawBytes is bytes moved without element-wise decoding (byte-array
	// columns, block copies).
	RawBytes int64
	// IntBytes is bytes decoded as boxed integers/longs.
	IntBytes int64
	// DoubleBytes is bytes decoded as boxed doubles.
	DoubleBytes int64
	// StringBytes is bytes decoded into string objects.
	StringBytes int64
	// MapBytes is bytes decoded into map/array/nested-record structures
	// (object-churn-heavy complex types).
	MapBytes int64
	// TextBytes is bytes parsed from delimited text (TXT format).
	TextBytes int64
	// SkippedBytes is bytes skipped via skip lists without deserialization.
	SkippedBytes int64
	// ZlibBytes / LzoBytes / DictBytes are bytes of decompressed output
	// produced by each codec.
	ZlibBytes int64
	LzoBytes  int64
	DictBytes int64
	// ZlibCompBytes / LzoCompBytes / DictCompBytes are bytes of input
	// consumed by each compressor (load paths).
	ZlibCompBytes int64
	LzoCompBytes  int64
	DictCompBytes int64
	// RecordsMaterialized is the number of record objects constructed.
	RecordsMaterialized int64
	// ValuesMaterialized is the number of field values deserialized into
	// objects.
	ValuesMaterialized int64
	// VecBytes is bytes of encoded primitive data decoded into typed column
	// vectors (vectorized execution). Vector decode writes into flat typed
	// arrays — no per-value object — so it is priced near memory bandwidth
	// rather than at the boxed rates.
	VecBytes int64
	// VecValues is the number of vector entries appended by vectorized
	// decode (the per-value loop overhead that remains after boxing is
	// eliminated).
	VecValues int64
}

// counters lists every counter of s once: Add and Scale range over it.
func (s *CPUStats) counters() [17]*int64 {
	return [...]*int64{&s.RawBytes, &s.IntBytes, &s.DoubleBytes, &s.StringBytes,
		&s.MapBytes, &s.TextBytes, &s.SkippedBytes, &s.ZlibBytes, &s.LzoBytes,
		&s.DictBytes, &s.ZlibCompBytes, &s.LzoCompBytes, &s.DictCompBytes,
		&s.RecordsMaterialized, &s.ValuesMaterialized, &s.VecBytes, &s.VecValues}
}

// Add accumulates o into s.
func (s *CPUStats) Add(o CPUStats) {
	dst, src := s.counters(), o.counters()
	for i := range dst {
		*dst[i] += *src[i]
	}
}

// Scale multiplies every counter by k.
func (s *CPUStats) Scale(k float64) {
	for _, p := range s.counters() {
		*p = scaleInt(*p, k)
	}
}

// TaskStats is the complete work profile of one task (or one scan).
type TaskStats struct {
	IO  IOStats
	CPU CPUStats
	// RecordsProcessed is the number of records delivered to the map
	// function (curPos advances, whether or not fields were deserialized).
	RecordsProcessed int64
	// OutputBytes is the bytes of map output emitted (drives shuffle cost).
	OutputBytes int64
	// OutputRecords is the number of key/value pairs emitted.
	OutputRecords int64
	// GroupsPruned is the number of record groups a pushdown predicate
	// proved irrelevant from per-group statistics alone; RecordsPruned is
	// the records those groups held. Pruned records are charged skips,
	// not reads: no filter-column value is deserialized for them.
	GroupsPruned  int64
	RecordsPruned int64
	// BloomPruned is the subset of GroupsPruned whose proof needed a Bloom
	// filter: the same statistics with filters stripped could not prune
	// the group. It splits bloom wins out of the zone maps' so the bloom
	// sweep can attribute its savings; it is zero when scan.Spec.NoBloom
	// disables consultation.
	BloomPruned int64
	// RecordsFiltered is the number of records a pushdown predicate
	// rejected after evaluating filter-column values (the zone maps could
	// not rule their group out).
	RecordsFiltered int64
	// SplitsPruned is the number of split-directories the scheduler tier
	// dropped from whole-file footer statistics before any map task was
	// created (recorded in the job's aggregate stats; elided splits have
	// no task of their own).
	SplitsPruned int64
	// FilesPruned is the number of column files an opened reader skipped
	// wholesale at the file tier: its whole-file aggregate proved the
	// split-directory irrelevant, so no group index was built and no data
	// byte was read.
	FilesPruned int64
	// SharedReads is the number of member-job column cursors a shared scan
	// served from an already-open cursor instead of a fresh one: a column
	// stream read for k co-scheduled jobs counts k-1. Attributed once, on
	// the shared cursor set's stats — never on the member jobs'.
	SharedReads int64
	// BytesSaved is the charged bytes co-scheduling avoided: each shared
	// column stream's charged bytes times the additional member jobs it
	// served. Like SharedReads it is attributed once, on the shared stats.
	BytesSaved int64
	// CacheHits is the number of column-file regions (transfer units) a
	// session scan cache served instead of the disk subsystem; those
	// regions charge no local/remote bytes. BytesFromCache is the bytes
	// those regions held. Both are zero unless a mapred.Session with a
	// non-zero cache budget ran the task (hdfs.ScanCache).
	CacheHits      int64
	BytesFromCache int64
	// VecBatches is the number of column-vector batches the vectorized
	// execution path built and evaluated; RowsVectorized is the records
	// those batches covered (each record counted once, however many column
	// vectors were decoded for it). Both are zero on the scalar path.
	VecBatches     int64
	RowsVectorized int64
	// VecCacheHits is the number of per-column decoded vectors a session's
	// vector cache served instead of re-decoding; DecodeSavedValues is the
	// vector entries those hits held (decode work skipped entirely — the
	// bytes charge neither I/O nor decode CPU).
	VecCacheHits      int64
	DecodeSavedValues int64
	// AggBatches is the number of vector batches an aggregation pushdown
	// folded straight from selection bitmaps and column vectors;
	// RowsAggregated is the rows folded into aggregate state at any fold
	// site (batch, stats shortcut, or scalar) — none of them ever became a
	// record object.
	AggBatches     int64
	RowsAggregated int64
	// AggGroupsShortcut is the number of record groups an aggregation
	// answered from zone statistics alone: the zone map proved every row
	// matches and every function was stats-answerable, so the group
	// contributed to the aggregate with zero value bytes decoded.
	AggGroupsShortcut int64
	// DictIdCompares is the number of dictionary-id comparisons performed in
	// place of string equality on dictionary-encoded columns: the needle is
	// resolved to its window id once and rows compare as integers, never
	// materializing the strings.
	DictIdCompares int64
	// FlushedFiles is the number of files the streaming ingest path wrote
	// while flushing memtables into fresh time-partitioned split-directories
	// (schema, column, and delete files all count: each is a real create).
	FlushedFiles int64
	// CompactionBytes is the bytes of column data a compaction job wrote
	// while merging small fresh partitions into large statistics-rich ones.
	CompactionBytes int64
	// UpsertsResolved is the number of superseded record versions the ingest
	// path retired — a recrawl arrival shadowing an earlier version of the
	// same key, whether resolved in the memtable, against a flushed
	// partition, or at compaction time.
	UpsertsResolved int64
	// FreshPartitionsScanned is the number of not-yet-compacted ingest
	// partitions (seq-N split-directories) a scan read through the
	// merge-on-read path.
	FreshPartitionsScanned int64
}

// counters lists every counter of s outside IO and CPU once: Add and Scale
// range over it.
func (s *TaskStats) counters() [25]*int64 {
	return [...]*int64{&s.RecordsProcessed, &s.OutputBytes, &s.OutputRecords,
		&s.GroupsPruned, &s.RecordsPruned, &s.BloomPruned, &s.RecordsFiltered,
		&s.SplitsPruned, &s.FilesPruned, &s.SharedReads, &s.BytesSaved,
		&s.CacheHits, &s.BytesFromCache, &s.VecBatches, &s.RowsVectorized,
		&s.VecCacheHits, &s.DecodeSavedValues, &s.AggBatches, &s.RowsAggregated,
		&s.AggGroupsShortcut, &s.DictIdCompares, &s.FlushedFiles,
		&s.CompactionBytes, &s.UpsertsResolved, &s.FreshPartitionsScanned}
}

// Add accumulates o into s.
func (s *TaskStats) Add(o TaskStats) {
	s.IO.Add(o.IO)
	s.CPU.Add(o.CPU)
	dst, src := s.counters(), o.counters()
	for i := range dst {
		*dst[i] += *src[i]
	}
}

// Scale multiplies every counter by k.
func (s *TaskStats) Scale(k float64) {
	s.IO.Scale(k)
	s.CPU.Scale(k)
	for _, p := range s.counters() {
		*p = scaleInt(*p, k)
	}
}

func scaleInt(v int64, k float64) int64 {
	return int64(float64(v)*k + 0.5)
}
