package ingest

import (
	"fmt"
	"path"
	"slices"
	"strconv"

	"colmr/internal/catalog"
	"colmr/internal/core"
	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/serde"
	"colmr/internal/sim"
)

// Compact merges every fresh (seq-N) partition into large compacted
// split-directories and commits the result as a new manifest generation.
//
// The merge is a MapReduce job over the engine itself: its input is the
// ordinary merge-on-read scan of the fresh partitions (a hand-built CIF
// split carrying their delete sets), and its mapper appends the surfaced
// records to a core.Writer in rounds. The scan masks superseded rows before
// they reach the mapper, so the job needs no shuffle and no key resolution —
// records never transit the shuffle (whose key encoding could not carry
// them anyway); the job is map-only with a NullOutput, and the writer is
// the side effect. A compaction that fails removes what it wrote.
//
// Replaced directories are retired in the manifest, not removed: a scan
// planned against an older generation finishes against intact files. GC
// removes them once the caller knows no such scan is in flight.
func (ing *Ingester) Compact() error {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return ing.compactLocked()
}

func (ing *Ingester) compactLocked() error {
	ing.flushes = 0
	var fresh []*part
	var keep []*part
	for _, p := range ing.parts {
		if core.IsFreshPartition(p.dir) {
			fresh = append(fresh, p)
		} else {
			keep = append(keep, p)
		}
	}
	if len(fresh) == 0 {
		return nil
	}
	// All fresh partitions follow all compacted ones in arrival order
	// (compaction consumes every fresh partition), so appending the new
	// output after the kept partitions preserves scan order.
	outDir := ing.opts.Dataset + "/c" + strconv.Itoa(ing.compact)
	ing.compact++
	if err := ing.compactInto(outDir, fresh, keep); err != nil {
		// Nothing names the output: remove it, or no GC ever will. The
		// compaction's error is the one to report.
		_ = ing.fs.RemoveAll(outDir)
		return err
	}
	// Budget release only: generations already make stale hits impossible,
	// but the retired directories' catalogued metadata — and, under a
	// session, their cached regions and vectors — will never be touched
	// again. The compaction's own scan put their entries in the
	// filesystem's catalog, session or not.
	for _, p := range fresh {
		if ing.opts.Session != nil {
			ing.opts.Session.Invalidate(p.dir) // the catalog's entries too
		} else {
			catalog.Of(ing.fs).Invalidate(p.dir)
		}
	}
	return nil
}

// compactRound is how many surfaced records the compaction mapper collects
// before writing them as one round (see core.SplitWriter).
const compactRound = 1024

// compactInto runs the compaction job over the fresh partitions, writing
// outDir, and commits the layout that replaces them with it. On an error the
// committed layout is the one before.
func (ing *Ingester) compactInto(outDir string, fresh, keep []*part) error {
	var cstats sim.TaskStats
	w, err := core.NewWriter(ing.fs, outDir, ing.opts.Schema, ing.opts.Load, &cstats)
	if err != nil {
		return err
	}
	dirs := make([]string, len(fresh))
	dels := make([]*core.DelSet, len(fresh))
	for i, p := range fresh {
		dirs[i] = p.dir
		dels[i] = p.dels.Union(slices.Clone(p.deleted))
	}
	// Every surfaced key, in the order the writer writes its record; the
	// scan's eager records are never reused, so a round may hold them.
	var keys []string
	round := make([]*serde.GenericRecord, 0, compactRound)
	write := func() error {
		err := w.AppendRecords(round)
		clear(round)
		round = round[:0]
		return err
	}
	mapper := func(_, v any, _ mapred.Emit) error {
		rec, ok := v.(*serde.GenericRecord)
		if !ok {
			return fmt.Errorf("ingest: compaction scan produced %T, want a record", v)
		}
		keys = append(keys, rec.GetAt(ing.keyI).(string))
		if round = append(round, rec); len(round) == compactRound {
			return write()
		}
		return nil
	}
	job := &mapred.Job{
		Conf: mapred.JobConf{InputPaths: []string{ing.opts.Dataset}},
		Input: &sealedInput{
			inner: &core.InputFormat{},
			split: &core.Split{Dirs: dirs, Dels: dels, Judged: true},
		},
		Output: mapred.NullOutput{},
		Mapper: mapred.MapperFunc(mapper),
	}
	var res *mapred.Result
	if ing.opts.Session != nil {
		res, err = ing.opts.Session.Run(job)
	} else {
		res, err = mapred.Run(ing.fs, job)
	}
	if err != nil {
		return err
	}
	ing.opts.Stats.Add(res.Total)
	if err := write(); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	ing.opts.Stats.Add(cstats)
	ing.opts.Stats.CompactionBytes += cstats.IO.BytesWritten

	// The new layout: kept partitions (they precede every fresh one, so
	// they keep their indices), then the compacted output's
	// split-directories in order. The old fresh directories are retired
	// (their deletes are now physical); one no commit published is only
	// dropped.
	parts, retired := ing.parts, ing.retired
	ing.parts = keep
	for _, ws := range w.Written() {
		ing.parts = append(ing.parts, &part{dir: ws.Dir, records: ws.Records, idx: len(ing.parts)})
	}
	newRetired := make([]string, len(fresh))
	for i, p := range fresh {
		newRetired[i] = p.dir
		if p.idx < ing.layoutLen {
			ing.retiring = append(ing.retiring, p.idx)
			ing.retired = append(ing.retired, ing.rel(p.dir))
		}
	}
	if err := ing.commitLocked(newRetired, false); err != nil {
		ing.parts, ing.retired, ing.retiring = parts, retired, ing.retiring[:0]
		return err
	}
	// Where every surfaced key now lives: the keys are in write order.
	i := 0
	for _, p := range ing.parts[len(keep):] {
		for ord := range p.records {
			ing.keyLoc[keys[i]] = loc{part: p, ord: ord}
			i++
		}
	}
	return nil
}

// GC collects what no committed layout names any more. Unless the head
// record is already a checkpoint that retires nothing, it first commits a
// checkpoint of the current layout with the retired list cleared; then, new
// record first and removals after, it removes every other commit record and
// every file and directory of the dataset that no live partition holds — the
// retired directories, and whatever a failed flush or compaction left. What
// the dataset stores afterwards is its live partitions and one record,
// however many commits came before, and a second GC does nothing. Call it
// only at a quiesce point: a scan still planning against an older
// generation would find its files gone. (Scans already running keep their
// open readers — removal does not affect them.)
func (ing *Ingester) GC() error {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if ing.log.Generation() == 0 {
		return nil
	}
	if retired := ing.retired; !ing.log.Settled() || len(retired) > 0 {
		ing.retired = nil
		if err := ing.commitLocked(nil, true); err != nil {
			ing.retired = retired
			return err
		}
	}
	// Every partition (true) and every directory above one (false).
	live := make(map[string]bool, 2*len(ing.parts))
	for _, p := range ing.parts {
		live[p.dir] = true
		for dir := path.Dir(p.dir); len(dir) > len(ing.opts.Dataset); dir = path.Dir(dir) {
			if _, ok := live[dir]; ok {
				break
			}
			live[dir] = false
		}
	}
	return ing.sweep(ing.opts.Dataset, live, core.ManifestPrefix+strconv.FormatInt(ing.log.Generation(), 10))
}

// sweep removes everything under dir but the live partitions and, in the
// dataset directory, the commit record keep.
func (ing *Ingester) sweep(dir string, live map[string]bool, keep string) error {
	infos, err := ing.fs.List(dir)
	if err != nil {
		return err
	}
	for _, fi := range infos {
		partition, ok := live[fi.Path]
		switch {
		case fi.IsDir && !ok:
			if err := ing.fs.RemoveAll(fi.Path); err != nil {
				return err
			}
		case fi.IsDir && !partition:
			if err := ing.sweep(fi.Path, live, keep); err != nil {
				return err
			}
		case fi.IsDir:
		case fi.Name() != keep || dir != ing.opts.Dataset:
			if err := ing.fs.Remove(fi.Path); err != nil {
				return err
			}
		}
	}
	return nil
}

// sealedInput is an InputFormat whose split set is fixed at construction:
// the compaction scan must read exactly the fresh partitions of the
// generation being compacted, not whatever the dataset lists when the job
// happens to plan.
type sealedInput struct {
	inner *core.InputFormat
	split *core.Split
}

func (s *sealedInput) Splits(fs *hdfs.FileSystem, conf *mapred.JobConf) ([]mapred.Split, error) {
	return []mapred.Split{s.split}, nil
}

func (s *sealedInput) Open(fs *hdfs.FileSystem, conf *mapred.JobConf, split mapred.Split, node hdfs.NodeID, stats *sim.TaskStats) (mapred.RecordReader, error) {
	return s.inner.Open(fs, conf, split, node, stats)
}
