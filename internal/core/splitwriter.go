package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"colmr/internal/colfile"
	"colmr/internal/hdfs"
	"colmr/internal/serde"
	"colmr/internal/sim"
)

// SplitWriter writes one split-directory: the schema file, then one column
// file per top-level field (Figure 4), each through the layout the load
// options give its column. It is the single place a record is taken apart
// into column appends — the bulk loader rotates through a sequence of them,
// the streaming ingester flushes each fresh partition through one.
//
// Records arrive in rounds: AppendRecords is one round, Append a round of
// one. A round of one is written inline, column by column, straight to the
// files. The columns of a longer round are independent work (each is its own
// file, §4.2), so they fan out across GOMAXPROCS goroutines, as Close's
// finishing does: each column's colfile writer appends the round's values on
// its own, charging a private CPU bucket and writing into a private log
// rather than its file. After the barrier the buckets fold into the caller's
// stats, and the logs replay into the files in exactly the order the
// record-at-a-time loop writes — record by record, columns in schema order
// within a record, then each column's close. Block placement draws on the
// filesystem's one random generator and its per-node usage, so it follows
// that order alone: the files, where their blocks land and every charge are
// the record-at-a-time loop's. (A round of one charges the same buckets; its
// CPU charges reach the caller's stats with the next barrier, at Close at
// the latest.)
type SplitWriter struct {
	dir    string
	schema *serde.Schema
	cpu    *sim.CPUStats // the caller's, or nil
	cols   []column
	one    [1]*serde.GenericRecord // Append's round
	count  int64
	// order is the order the fan-out hands columns out in: heaviest first,
	// weighed by the last fanned-out round's first record (see weigh).
	order []int
	next  atomic.Int32 // the fan-out's next column, as an index into order
	wg    sync.WaitGroup
}

// column is one column file of a split-directory: the colfile writer over
// it, the CPU bucket that writer charges, and, while a round fans out, the
// log its writes wait in.
type column struct {
	name string
	file *hdfs.FileWriter
	w    colfile.Writer
	cpu  sim.CPUStats

	weight int // weigh(the column's value in the last round's first record)

	log   *writeLog // nil: writes go straight to the file
	at    int       // the round's record being appended: its writes' tag
	err   error     // the column's first error in the round, at record errAt
	errAt int
	next  int // replay position in log.ents
}

// Write implements io.Writer for the column's colfile writer.
func (c *column) Write(p []byte) (int, error) {
	if c.log == nil {
		return c.file.Write(p)
	}
	c.log.buf = append(c.log.buf, p...)
	c.log.ents = append(c.log.ents, logEntry{at: c.at, end: len(c.log.buf)})
	return len(p), nil
}

// writeLog holds one column's writes of a fanned-out round back to back,
// each tagged with the record of the round that issued it.
type writeLog struct {
	buf  []byte
	ents []logEntry
}

type logEntry struct{ at, end int }

// writeLogs recycles a round's logs, one per column, across rounds and
// split-directories (a flush writes a fresh partition every few hundred
// records). Column i takes log i, so each log settles at its column's size.
var writeLogs = sync.Pool{New: func() any { return new([]writeLog) }}

// NewSplitWriter creates dir's schema file and opens its column files, in
// schema order. opts supplies the layouts and the writer node; its split
// bounds are the caller's business.
func NewSplitWriter(fs *hdfs.FileSystem, dir string, schema *serde.Schema, opts LoadOptions, stats *sim.TaskStats) (*SplitWriter, error) {
	var ioStats *sim.IOStats
	var cpu *sim.CPUStats
	if stats != nil {
		ioStats, cpu = &stats.IO, &stats.CPU
	}
	schemaWriter, err := fs.Create(dir+"/"+SchemaFile, opts.WriterNode)
	if err != nil {
		return nil, err
	}
	schemaWriter.SetStats(ioStats)
	if _, err := schemaWriter.Write([]byte(schema.String())); err != nil {
		return nil, err
	}
	if err := schemaWriter.Close(); err != nil {
		return nil, err
	}
	w := &SplitWriter{dir: dir, schema: schema, cpu: cpu,
		cols: make([]column, len(schema.Fields)), order: make([]int, len(schema.Fields))}
	for i, f := range schema.Fields {
		w.order[i] = i
		c := &w.cols[i]
		c.name = f.Name
		if c.file, err = fs.Create(dir+"/"+f.Name, opts.WriterNode); err != nil {
			return nil, err
		}
		c.file.SetStats(ioStats)
		var bucket *sim.CPUStats
		if cpu != nil {
			bucket = &c.cpu
		}
		if c.w, err = colfile.NewWriter(c, f.Type, opts.layoutFor(f.Name), bucket); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// Append writes one record of the split's schema (the caller has checked
// that it is) as one value per column file: a round of one.
func (w *SplitWriter) Append(rec *serde.GenericRecord) error {
	w.one[0] = rec
	err := w.AppendRecords(w.one[:])
	w.one[0] = nil
	return err
}

// AppendRecords writes recs, records of the split's schema, as one round.
// A record with an unset field is refused before any value of the round is
// written, and the records after it with it; those before it are written.
// The call keeps no reference to recs or their records once it returns.
func (w *SplitWriter) AppendRecords(recs []*serde.GenericRecord) error {
	n, err := checkRound(w.schema, recs, false)
	if werr := w.round(recs[:n]); werr != nil {
		return werr
	}
	return err
}

// checkRound returns how many of recs lead the round with every field set
// (and, when dataset is set, with the split's schema), and the error the
// record-at-a-time loop gives the first one that does not.
func checkRound(schema *serde.Schema, recs []*serde.GenericRecord, dataset bool) (int, error) {
	for r, rec := range recs {
		if dataset && !rec.Schema().Equal(schema) {
			return r, fmt.Errorf("core: record schema does not match dataset schema")
		}
		for i := range schema.Fields {
			if rec.GetAt(i) == nil {
				return r, fmt.Errorf("core: field %q is unset", schema.Fields[i].Name)
			}
		}
	}
	return len(recs), nil
}

// round writes recs, already checked, as one round.
func (w *SplitWriter) round(recs []*serde.GenericRecord) error {
	var err error
	switch len(recs) {
	case 0:
		return nil
	case 1:
		for i := range w.cols {
			if err = w.cols[i].append(recs[0].GetAt(i)); err != nil {
				break
			}
		}
	default:
		for i := range w.cols {
			w.cols[i].weight = weigh(recs[0].GetAt(i))
		}
		slices.SortStableFunc(w.order, func(a, b int) int { return w.cols[b].weight - w.cols[a].weight })
		err = w.fanOut(func(c *column, i int) {
			for r, rec := range recs {
				c.at = r
				if c.err = c.append(rec.GetAt(i)); c.err != nil {
					c.errAt = r
					return
				}
			}
		})
	}
	if err == nil {
		w.count += int64(len(recs))
	}
	return err
}

// weigh estimates what writing v costs against the other columns' values:
// its bytes, roughly. A round ends when its last column does, so the
// heaviest — a page's content against its URL and headers — go out first.
func weigh(v any) int {
	switch x := v.(type) {
	case string:
		return len(x)
	case []byte:
		return len(x)
	case map[string]any:
		n := 0
		for k, e := range x {
			n += len(k) + weigh(e)
		}
		return n
	case []any:
		n := 0
		for _, e := range x {
			n += weigh(e)
		}
		return n
	}
	return 8
}

// append writes one value to the column.
func (c *column) append(v any) error {
	if err := c.w.Append(v); err != nil {
		return fmt.Errorf("core: column %q: %w", c.name, err)
	}
	return nil
}

// fanOut runs step(column, its index) for every column across a pool of
// GOMAXPROCS goroutines, each column's writes held in its log, then replays
// the logs into the files in the record-at-a-time loop's order. It returns
// the error that loop meets first — at the lowest (tag, column) a step failed
// at — having replayed only the writes that loop makes before it.
func (w *SplitWriter) fanOut(step func(c *column, i int)) error {
	logs := writeLogs.Get().(*[]writeLog)
	if len(*logs) < len(w.cols) {
		*logs = append(*logs, make([]writeLog, len(w.cols)-len(*logs))...)
	}
	for i := range w.cols {
		c := &w.cols[i]
		c.log, c.at, c.err, c.errAt, c.next = &(*logs)[i], 0, nil, 0, 0
	}
	w.next.Store(0)
	for range min(runtime.GOMAXPROCS(0), len(w.cols)) {
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			for k := int(w.next.Add(1)) - 1; k < len(w.order); k = int(w.next.Add(1)) - 1 {
				i := w.order[k]
				step(&w.cols[i], i)
			}
		}()
	}
	w.wg.Wait()

	stopAt, stopCol := math.MaxInt, len(w.cols)
	var err error
	for i := range w.cols {
		if c := &w.cols[i]; c.err != nil && c.errAt < stopAt {
			stopAt, stopCol, err = c.errAt, i, c.err
		}
	}
	if werr := w.replay(stopAt, stopCol); werr != nil {
		err = werr
	}
	for i := range w.cols {
		c := &w.cols[i]
		c.log.buf, c.log.ents = c.log.buf[:0], c.log.ents[:0]
		c.log = nil
	}
	writeLogs.Put(logs)
	w.fold()
	return err
}

// replay writes the logs into the files by tag, and by column within a tag,
// up to (not including) column stopCol's writes tagged stopAt.
func (w *SplitWriter) replay(stopAt, stopCol int) error {
	for {
		at := math.MaxInt // the lowest tag still to replay
		for i := range w.cols {
			if c := &w.cols[i]; c.next < len(c.log.ents) {
				at = min(at, c.log.ents[c.next].at)
			}
		}
		if at == math.MaxInt || at > stopAt {
			return nil
		}
		for i := range w.cols {
			if at == stopAt && i == stopCol {
				return nil
			}
			c := &w.cols[i]
			for ents := c.log.ents; c.next < len(ents) && ents[c.next].at == at; c.next++ {
				lo := 0
				if c.next > 0 {
					lo = ents[c.next-1].end
				}
				if _, err := c.file.Write(c.log.buf[lo:ents[c.next].end]); err != nil {
					return err
				}
			}
		}
	}
}

// fold moves what the columns charged since the last fold into the caller's
// stats. It runs at every fan-out's barrier: a round of one charges its
// column buckets, which reach the caller's stats with the next fanned-out
// round or at Close.
func (w *SplitWriter) fold() {
	if w.cpu == nil {
		return
	}
	for i := range w.cols {
		w.cpu.Add(w.cols[i].cpu)
		w.cols[i].cpu = sim.CPUStats{}
	}
}

// Dir returns the split-directory's path.
func (w *SplitWriter) Dir() string { return w.dir }

// Count returns the number of records appended.
func (w *SplitWriter) Count() int64 { return w.count }

// Bytes returns the bytes the column files hold so far.
func (w *SplitWriter) Bytes() int64 {
	var total int64
	for i := range w.cols {
		total += w.cols[i].file.Size()
	}
	return total
}

// Close finalizes every column file, the columns finishing side by side.
func (w *SplitWriter) Close() error {
	err := w.fanOut(func(c *column, _ int) { c.err = c.w.Close() })
	for i := range w.cols {
		if c := &w.cols[i]; c.err != nil {
			break
		} else if cerr := c.file.Close(); cerr != nil {
			return cerr
		}
	}
	return err
}
