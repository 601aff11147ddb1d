package ingest

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"colmr/internal/core"
	"colmr/internal/hdfs"
	"colmr/internal/mapred"
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
	// Session, when set, runs compaction jobs and receives cache
	// invalidation for retired directories. Nil runs compaction through
	// the plain engine.
	Session *mapred.Session
	// Stats receives the ingester's accounting; nil allocates one
	// internally (see Ingester.Stats).
	Stats *sim.TaskStats
}

func (o *Options) withDefaults() (Options, error) {
	opts := *o
	if opts.Dataset == "" {
		return opts, fmt.Errorf("ingest: no dataset directory")
	}
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
	delFile string // current delete-file name ("" when none)
	// deleted is the partition's superseded ordinals, cumulative. A row is
	// superseded at most once (its key's location moves on when it is), so
	// the list holds no duplicates; a commit sorts what flushes appended.
	deleted []int64
	dirty   bool // deleted grew since delFile was written
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
	buffered map[string]int // key -> index into memtable
	arrivals int            // arrivals since last flush

	parts   []*part
	seq     int   // next fresh-partition number
	compact int   // next compaction-output number
	gen     int64 // committed manifest generation (0 = none yet)
	flushes int   // flushes since last compaction

	keyLoc  map[string]loc // live flushed record per key
	retired []string       // dirs replaced by compaction, pending GC (relative)

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
	return ing.gen
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
	live := 0
	for i := range ing.memtable {
		if ing.memtable[i].rec != nil {
			live++
		}
	}
	if live == 0 {
		ing.memtable = ing.memtable[:0]
		ing.buffered = make(map[string]int)
		ing.arrivals = 0
		return nil
	}
	// Write the survivors in arrival order, cutting a new partition at
	// every bucket change so scan order (manifest order, then ordinal)
	// remains arrival order.
	var pw *core.SplitWriter
	var cur *part
	curBucket := int64(0)
	closePart := func() error {
		if pw == nil {
			return nil
		}
		if err := pw.Close(); err != nil {
			return err
		}
		ing.parts = append(ing.parts, cur)
		pw = nil
		return nil
	}
	for i := range ing.memtable {
		e := &ing.memtable[i]
		if e.rec == nil {
			continue
		}
		if pw == nil || e.bucket != curBucket {
			if err := closePart(); err != nil {
				return err
			}
			dir := fmt.Sprintf("%s/dt=%d/seq-%d", ing.opts.Dataset, e.bucket*ing.opts.BucketMillis/1000, ing.seq)
			ing.seq++
			curBucket = e.bucket
			var err error
			if pw, err = core.NewSplitWriter(ing.fs, dir, ing.opts.Schema, ing.opts.Load, ing.opts.Stats); err != nil {
				return err
			}
			ing.opts.Stats.FlushedFiles += int64(1 + len(ing.opts.Schema.Fields))
			cur = &part{dir: dir}
		}
		if err := pw.Append(e.rec); err != nil {
			return err
		}
		if old, ok := ing.keyLoc[e.key]; ok {
			// Recrawl of a flushed page: the old row is immutable, so it is
			// superseded by position — masked out of every scan from the
			// next commit on, removed physically at compaction.
			old.part.deleted = append(old.part.deleted, old.ord)
			old.part.dirty = true
			ing.opts.Stats.UpsertsResolved++
		}
		ing.keyLoc[e.key] = loc{part: cur, ord: cur.records}
		cur.records++
	}
	if err := closePart(); err != nil {
		return err
	}
	ing.memtable = ing.memtable[:0]
	ing.buffered = make(map[string]int)
	ing.arrivals = 0
	if err := ing.commitLocked(nil); err != nil {
		return err
	}
	ing.flushes++
	if ing.opts.CompactEvery > 0 && ing.flushes >= ing.opts.CompactEvery {
		return ing.compactLocked()
	}
	return nil
}

// commitLocked publishes the current layout: rewrite the delete file of
// every partition whose superseded set grew, then write the next manifest
// generation in one atomic step.
func (ing *Ingester) commitLocked(newRetired []string) error {
	gen := ing.gen + 1
	m := &core.Manifest{Generation: gen, Retired: ing.retired}
	prefix := ing.opts.Dataset + "/"
	for _, p := range ing.parts {
		if p.dirty {
			slices.Sort(p.deleted)
			name := core.DeletesPrefix + strconv.FormatInt(gen, 10)
			if err := core.WriteDeletes(ing.fs, p.dir+"/"+name, p.deleted); err != nil {
				return err
			}
			p.delFile, p.dirty = name, false
			ing.opts.Stats.FlushedFiles++
		}
		m.Partitions = append(m.Partitions, core.ManifestPartition{
			Dir:     p.dir[len(prefix):],
			Deletes: p.delFile,
			Records: p.records,
		})
	}
	if err := core.WriteManifest(ing.fs, ing.opts.Dataset, m); err != nil {
		return err
	}
	ing.gen = gen
	for _, fn := range ing.onCommit {
		fn(gen, newRetired)
	}
	return nil
}
