package ingest

import (
	"cmp"
	"fmt"
	"path"
	"slices"
	"sync"

	"colmr/internal/core"
	"colmr/internal/hdfs"
	"colmr/internal/serde"
	"colmr/internal/sim"
)

// Options configures an Ingester.
type Options struct {
	// Dataset is the dataset directory the ingester owns.
	Dataset string
	// Schema is the record schema; every appended record must match it.
	Schema *serde.Schema
	// Key names the string-typed upsert column (the crawl URL): a record
	// whose key was seen before supersedes the earlier version.
	Key string
	// TimeColumn names the int64 millisecond-timestamp column that assigns
	// records to time partitions. Arrivals are expected to be roughly
	// time-ordered; a flush cuts a new partition whenever the bucket
	// changes, so heavily out-of-order streams produce more, smaller
	// partitions (never wrong results).
	TimeColumn string
	// BucketMillis is the time-partition width (default: one hour).
	BucketMillis int64
	// MemtableRecords caps buffered arrivals before an automatic flush
	// (default 512).
	MemtableRecords int
	// CompactEvery triggers compaction after that many flushes; 0 means
	// compaction runs only when Compact is called.
	CompactEvery int
	// Load configures the column layouts of both flushed partitions and
	// compacted output (core.LoadOptions split bounds apply to compaction
	// output; flush partitions are bounded by the memtable instead).
	Load core.LoadOptions
	// Stats receives the ingester's accounting; nil allocates one
	// internally (see Ingester.Stats).
	Stats *sim.TaskStats
}

func (o *Options) withDefaults() (Options, error) {
	opts := *o
	if opts.Dataset == "" {
		return opts, fmt.Errorf("ingest: no dataset directory")
	}
	// The namenode's spelling, which GC compares listed paths with.
	opts.Dataset = path.Clean("/" + opts.Dataset)
	if err := opts.Load.Validate(opts.Schema); err != nil {
		return opts, err
	}
	ki := opts.Schema.FieldIndex(opts.Key)
	if ki < 0 {
		return opts, fmt.Errorf("ingest: key column %q not in schema", opts.Key)
	}
	if opts.Schema.FieldIndex(opts.TimeColumn) < 0 {
		return opts, fmt.Errorf("ingest: time column %q not in schema", opts.TimeColumn)
	}
	if opts.BucketMillis <= 0 {
		opts.BucketMillis = 3600 * 1000
	}
	if opts.MemtableRecords <= 0 {
		opts.MemtableRecords = 512
	}
	if opts.Stats == nil {
		opts.Stats = &sim.TaskStats{}
	}
	return opts, nil
}

// loc addresses one written record: its partition and ordinal.
type loc struct {
	part *part
	ord  int64
}

// entry is one buffered arrival; rec is nil when a later arrival of the
// same key tombstoned it in place.
type entry struct {
	key    string
	bucket int64
	rec    *serde.GenericRecord
}

// part is one live partition of the dataset.
type part struct {
	dir     string // absolute
	records int64
	idx     int // the partition's position in Ingester.parts
	// dels is the partition's superseded ordinals as of the last
	// checkpoint, deleted the ones superseded since. A row is superseded at
	// most once (its key's location moves on when it is), so no ordinal is
	// in both. The first committed of deleted are in the committed layout;
	// a commit sorts the rest before it records them.
	dels      *core.DelSet
	deleted   []int64
	committed int
	touched   bool // listed in Ingester.touched
}

// Ingester is the streaming writer for one dataset. Its methods are safe
// for one writer goroutine (guarded by a mutex against Compact/GC from
// another); scans need no coordination with it at all — they read only
// committed, immutable state.
type Ingester struct {
	mu   sync.Mutex
	fs   *hdfs.FileSystem
	opts Options
	keyI int
	tmI  int

	memtable []entry
	buffered map[string]int         // key -> index into memtable
	arrivals int                    // arrivals since last flush
	round    []*serde.GenericRecord // a flushed partition's records, being written

	parts   []*part
	seq     int // next fresh-partition number
	compact int // next compaction-output number
	flushes int // flushes since last compaction

	keyLoc  map[string]loc // live flushed record per key
	retired []string       // dirs replaced by compaction, pending GC (relative)

	// log writes the commit records. The committed layout is parts'
	// first layoutLen partitions, less the ones at the indices retiring
	// lists (a compaction's, until it commits); flushes only append past
	// them. touched lists the partitions whose deletes grew since the last
	// commit. So an edit costs what changed, however many partitions the
	// dataset has.
	log       *core.ManifestLog
	layoutLen int
	retiring  []int
	touched   []*part
	// edit and runs are commit scratch, reused across commits.
	edit core.ManifestEdit
	runs []core.DelRun

	onCommit []func(gen int64, retired []string)
}

// New opens a streaming ingester over an empty dataset directory. The first
// manifest generation is committed at the first flush; until then the
// dataset is not scannable.
func New(fs *hdfs.FileSystem, o Options) (*Ingester, error) {
	opts, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	fs.MkdirAll(opts.Dataset)
	return &Ingester{
		fs:       fs,
		opts:     opts,
		keyI:     opts.Schema.FieldIndex(opts.Key),
		tmI:      opts.Schema.FieldIndex(opts.TimeColumn),
		buffered: make(map[string]int),
		keyLoc:   make(map[string]loc),
		log:      core.NewManifestLog(fs, opts.Dataset),
	}, nil
}

// Stats returns the ingester's accounting (flush files, compaction bytes,
// upserts resolved, plus the IO/CPU of everything it wrote).
func (ing *Ingester) Stats() *sim.TaskStats { return ing.opts.Stats }

// Generation returns the committed manifest generation (0 before the first
// flush).
func (ing *Ingester) Generation() int64 {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return ing.log.Generation()
}

// OnCommit registers a callback invoked after every manifest commit (flush
// and compaction) with the committed generation and the directories the
// commit newly retired (absolute paths; empty for flush commits). Callbacks
// run on the committing goroutine and must not call back into the ingester.
func (ing *Ingester) OnCommit(fn func(gen int64, retired []string)) {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	ing.onCommit = append(ing.onCommit, fn)
}

// Append buffers one arrival, superseding any buffered record with the same
// key in place, and flushes when the memtable fills.
func (ing *Ingester) Append(rec *serde.GenericRecord) error {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if !rec.Schema().Equal(ing.opts.Schema) {
		return fmt.Errorf("ingest: record schema does not match dataset schema")
	}
	key, ok := rec.GetAt(ing.keyI).(string)
	if !ok {
		return fmt.Errorf("ingest: key column %q is not a string", ing.opts.Key)
	}
	tm, ok := rec.GetAt(ing.tmI).(int64)
	if !ok {
		return fmt.Errorf("ingest: time column %q is not an int64", ing.opts.TimeColumn)
	}
	if i, seen := ing.buffered[key]; seen {
		// Recrawl of a still-buffered page: tombstone the old version in
		// place; only the latest survives to flush.
		ing.memtable[i].rec = nil
		ing.opts.Stats.UpsertsResolved++
	}
	ing.memtable = append(ing.memtable, entry{key: key, bucket: tm / ing.opts.BucketMillis, rec: rec})
	ing.buffered[key] = len(ing.memtable) - 1
	ing.arrivals++
	if ing.arrivals >= ing.opts.MemtableRecords {
		return ing.flushLocked()
	}
	return nil
}

// Flush writes the buffered records out as fresh partitions and commits a
// new manifest generation. A no-op when nothing is buffered.
func (ing *Ingester) Flush() error {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return ing.flushLocked()
}

func (ing *Ingester) flushLocked() error {
	if !slices.ContainsFunc(ing.memtable, func(e entry) bool { return e.rec != nil }) {
		ing.memtable = ing.memtable[:0]
		clear(ing.buffered)
		ing.arrivals = 0
		if ing.log.Failed() {
			// A failed commit's partitions and deletes are still to publish.
			return ing.commitLocked(nil, true)
		}
		return nil
	}
	// Write the survivors in arrival order, cutting a new partition at
	// every bucket change so scan order (manifest order, then ordinal)
	// remains arrival order. Each partition is one round of its writer.
	mt := ing.memtable
	for i := 0; i < len(mt); {
		if mt[i].rec == nil {
			i++
			continue
		}
		j := i + 1
		for j < len(mt) && (mt[j].rec == nil || mt[j].bucket == mt[i].bucket) {
			j++
		}
		if err := ing.writePart(mt[i:j]); err != nil {
			ing.keepMemtable(i)
			return err
		}
		i = j
	}
	ing.memtable = ing.memtable[:0]
	clear(ing.buffered)
	ing.arrivals = 0
	if err := ing.commitLocked(nil, false); err != nil {
		return err
	}
	ing.flushes++
	if ing.opts.CompactEvery > 0 && ing.flushes >= ing.opts.CompactEvery {
		return ing.compactLocked()
	}
	return nil
}

// keepMemtable drops the memtable's first n entries, which a failed flush
// has already written, so that the next flush writes only the rest.
func (ing *Ingester) keepMemtable(n int) {
	ing.memtable = ing.memtable[:copy(ing.memtable, ing.memtable[n:])]
	clear(ing.buffered)
	for i, e := range ing.memtable {
		if e.rec != nil {
			ing.buffered[e.key] = i
		}
	}
	ing.arrivals = len(ing.memtable)
}

// writePart writes the live arrivals among entries, all of the first one's
// bucket, as a fresh partition in one round, and moves their keys'
// locations to it.
func (ing *Ingester) writePart(entries []entry) error {
	dir := fmt.Sprintf("%s/dt=%d/seq-%d", ing.opts.Dataset, entries[0].bucket*ing.opts.BucketMillis/1000, ing.seq)
	ing.seq++
	if err := ing.writeRound(dir, entries); err != nil {
		return err // nothing names the partial partition; GC removes it
	}
	ing.opts.Stats.FlushedFiles += int64(1 + len(ing.opts.Schema.Fields))
	p := &part{dir: dir, idx: len(ing.parts)}
	ing.parts = append(ing.parts, p)
	for _, e := range entries {
		if e.rec == nil {
			continue
		}
		if old, ok := ing.keyLoc[e.key]; ok {
			// Recrawl of a flushed page: the old row is immutable, so it is
			// superseded by position — masked out of every scan from the
			// next commit on, removed physically at compaction.
			old.part.deleted = append(old.part.deleted, old.ord)
			if !old.part.touched {
				old.part.touched = true
				ing.touched = append(ing.touched, old.part)
			}
			ing.opts.Stats.UpsertsResolved++
		}
		ing.keyLoc[e.key] = loc{part: p, ord: p.records}
		p.records++
	}
	return nil
}

// writeRound writes the live arrivals among entries as the partition dir.
func (ing *Ingester) writeRound(dir string, entries []entry) error {
	pw, err := core.NewSplitWriter(ing.fs, dir, ing.opts.Schema, ing.opts.Load, ing.opts.Stats)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.rec != nil {
			ing.round = append(ing.round, e.rec)
		}
	}
	err = pw.AppendRecords(ing.round)
	clear(ing.round)
	ing.round = ing.round[:0]
	if err != nil {
		return err
	}
	return pw.Close()
}

// commitLocked publishes the current layout as the next generation: one
// commit record, an edit against the committed layout unless checkpoint
// asks for a checkpoint or the log decides one is due.
func (ing *Ingester) commitLocked(newRetired []string, checkpoint bool) error {
	var e *core.ManifestEdit
	if !checkpoint {
		e = ing.nextEdit()
	}
	if _, err := ing.log.Commit(e, ing.checkpoint); err != nil {
		return err
	}
	ing.layoutLen, ing.retiring = len(ing.parts), ing.retiring[:0]
	for _, p := range ing.touched {
		p.committed, p.touched = len(p.deleted), false
	}
	clear(ing.touched)
	ing.touched = ing.touched[:0]
	gen := ing.log.Generation()
	for _, fn := range ing.onCommit {
		fn(gen, newRetired)
	}
	return nil
}

// nextEdit returns the change from the committed layout to the current
// one: the partitions retiring, those past the committed ones that remain,
// and the ordinals superseded since.
func (ing *Ingester) nextEdit() *core.ManifestEdit {
	e := &ing.edit
	e.Retire = append(e.Retire[:0], ing.retiring...)
	e.Append = e.Append[:0]
	for _, p := range ing.parts[ing.layoutLen-len(ing.retiring):] {
		e.Append = append(e.Append, core.ManifestPartition{Dir: ing.rel(p.dir), Records: p.records})
	}
	slices.SortFunc(ing.touched, func(a, b *part) int { return cmp.Compare(a.idx, b.idx) })
	e.Deletes = e.Deletes[:0]
	runs := ing.runs[:0]
	for _, p := range ing.touched {
		if p.idx >= len(ing.parts) || ing.parts[p.idx] != p {
			continue // compacted away: its deletes are physical now
		}
		added := p.deleted[p.committed:]
		slices.Sort(added)
		from := len(runs)
		runs = core.AppendDelRuns(runs, added)
		e.Deletes = append(e.Deletes, core.PartitionDeletes{Partition: p.idx, Runs: runs[from:len(runs):len(runs)]})
	}
	ing.runs = runs
	return e
}

// checkpoint returns generation gen's whole layout, folding every
// partition's deletes since the last checkpoint into its set. (Should the
// checkpoint not commit, the next commit is a checkpoint again.)
func (ing *Ingester) checkpoint(gen int64) *core.Manifest {
	m := &core.Manifest{Generation: gen, Retired: ing.retired, Partitions: make([]core.ManifestPartition, len(ing.parts))}
	for i, p := range ing.parts {
		p.dels, p.deleted, p.committed = p.dels.Union(p.deleted), p.deleted[:0], 0
		m.Partitions[i] = core.ManifestPartition{Dir: ing.rel(p.dir), Records: p.records, Deletes: p.dels}
	}
	return m
}

// rel returns dir relative to the dataset root.
func (ing *Ingester) rel(dir string) string { return dir[len(ing.opts.Dataset)+1:] }
