package ingest

import (
	"fmt"
	"strconv"
	"strings"

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
// split carrying their delete files), and its mapper appends every surfaced
// record to a core.Writer. The scan masks superseded rows before they reach
// the mapper, so the job needs no shuffle and no key resolution — records
// never transit the shuffle (whose key encoding could not carry them
// anyway); the job is map-only with a NullOutput, and the writer is the
// side effect.
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
		if isFresh(p.dir) {
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

	var cstats sim.TaskStats
	load := ing.opts.Load
	w, err := core.NewWriter(ing.fs, outDir, ing.opts.Schema, load, &cstats)
	if err != nil {
		return err
	}
	dirs := make([]string, len(fresh))
	dels := make([]string, len(fresh))
	for i, p := range fresh {
		dirs[i] = p.dir
		if p.delFile != "" {
			dels[i] = p.dir + "/" + p.delFile
		}
	}
	// The output partitions, in the order the writer opens them, and where
	// every surfaced key now lives.
	var out []*part
	newLoc := make(map[string]loc)
	mapper := func(_, v any, _ mapred.Emit) error {
		rec, ok := v.(*serde.GenericRecord)
		if !ok {
			return fmt.Errorf("ingest: compaction scan produced %T, want a record", v)
		}
		dir, ord := w.Tell()
		if err := w.Append(rec); err != nil {
			return err
		}
		if len(out) == 0 || out[len(out)-1].dir != dir {
			out = append(out, &part{dir: dir})
		}
		p := out[len(out)-1]
		p.records++
		newLoc[rec.GetAt(ing.keyI).(string)] = loc{part: p, ord: ord}
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
	if err := w.Close(); err != nil {
		return err
	}
	ing.opts.Stats.Add(cstats)
	ing.opts.Stats.CompactionBytes += cstats.IO.BytesWritten

	// The new layout: kept partitions, then the compacted output's
	// split-directories in order. The old fresh directories (and the delete
	// files inside them — the masking is now physical) are retired.
	ing.parts = append(keep, out...)
	prefix := ing.opts.Dataset + "/"
	newRetired := make([]string, len(fresh))
	for i, p := range fresh {
		newRetired[i] = p.dir
		ing.retired = append(ing.retired, p.dir[len(prefix):])
	}
	for k, l := range newLoc {
		ing.keyLoc[k] = l
	}
	if err := ing.commitLocked(newRetired); err != nil {
		return err
	}
	if ing.opts.Session != nil {
		// Budget release only: generations already make stale hits
		// impossible, but the retired directories' cached regions and
		// vectors will never be touched again.
		for _, dir := range newRetired {
			ing.opts.Session.Invalidate(dir)
		}
	}
	return nil
}

// GC collects what no committed layout names any more. If compaction has
// retired directories it first commits a manifest with the retired list
// cleared (an unchanged layout gets no new generation); then, new manifest
// first and removals after, it removes the retired directories, every
// manifest generation below the committed one, and every delete file a live
// partition's manifest entry does not name. What the dataset stores
// afterwards is its live partitions and one manifest, however many commits
// came before. Call it only at a quiesce point: a scan still planning
// against an older generation would find its files gone. (Scans already
// running keep their open readers — removal does not affect them.)
func (ing *Ingester) GC() error {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	retired := ing.retired
	if len(retired) > 0 {
		ing.retired = nil
		if err := ing.commitLocked(nil); err != nil {
			return err
		}
	}
	for _, rel := range retired {
		if err := ing.fs.RemoveAll(ing.opts.Dataset + "/" + rel); err != nil {
			return err
		}
	}
	current := core.ManifestPrefix + strconv.FormatInt(ing.gen, 10)
	if err := ing.sweep(ing.opts.Dataset, core.ManifestPrefix, current); err != nil {
		return err
	}
	for _, p := range ing.parts {
		if err := ing.sweep(p.dir, core.DeletesPrefix, p.delFile); err != nil {
			return err
		}
	}
	return nil
}

// sweep removes dir's files whose names begin with prefix, but for keep.
func (ing *Ingester) sweep(dir, prefix, keep string) error {
	infos, err := ing.fs.List(dir)
	if err != nil {
		return err
	}
	for _, fi := range infos {
		if name := fi.Name(); !fi.IsDir && name != keep && strings.HasPrefix(name, prefix) {
			if err := ing.fs.Remove(fi.Path); err != nil {
				return err
			}
		}
	}
	return nil
}

// isFresh mirrors the core reader's fresh-partition test: the directory
// base is a seq-N name.
func isFresh(dir string) bool {
	base := dir
	if i := strings.LastIndexByte(dir, '/'); i >= 0 {
		base = dir[i+1:]
	}
	return strings.HasPrefix(base, "seq-")
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
