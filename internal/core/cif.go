package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"colmr/internal/catalog"
	"colmr/internal/colfile"
	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
	"colmr/internal/vec"
)

// resolveSpec returns a job's effective scan spec: a copy of conf.Scan (the
// zero spec when the conf carries none), with its aggregation validated.
func resolveSpec(conf *mapred.JobConf) (scan.Spec, error) {
	var spec scan.Spec
	if conf.Scan != nil {
		spec = *conf.Scan
	}
	return spec, spec.Agg.Validate()
}

// Split is a CIF split: one or more whole split-directories.
type Split struct {
	Dirs []string
	// Dels holds each directory's delete set, parallel to Dirs (nil or a
	// short slice means no deletes), taken from the planner's layout
	// snapshot so the reader never re-reads the manifest.
	Dels []*DelSet
	// Columns is the projection captured at split-generation time, used
	// for locality ranking (only projected files matter).
	Columns []string
	// Judged records that the scheduler tier already tested every directory
	// against the job's predicate, so the reader skips its file tier — the
	// same planner over the same aggregates cannot reach another verdict —
	// while hand-built splits keep it.
	Judged bool
	// plan is the scan plan the split's task opens (plan.go); nil for a
	// hand-built split, which Open plans itself.
	plan *scanPlan
}

// String implements mapred.Split.
func (s *Split) String() string { return strings.Join(s.Dirs, ",") }

// Hosts implements mapred.Split: nodes are ranked by how many of the
// split's (projected) column-file bytes they hold locally. With the column
// placement policy installed, the top candidates hold every block of every
// file.
func (s *Split) Hosts(fs *hdfs.FileSystem) []hdfs.NodeID {
	local := map[hdfs.NodeID]int64{}
	for _, dir := range s.Dirs {
		for _, p := range s.files(fs, dir) {
			locs, err := fs.BlockLocations(p)
			if err != nil {
				continue
			}
			size := fs.TotalSize(p)
			nblocks := int64(len(locs))
			if nblocks == 0 {
				continue
			}
			per := size / nblocks
			for _, nodes := range locs {
				for _, n := range nodes {
					local[n] += per
				}
			}
		}
	}
	out := make([]hdfs.NodeID, 0, len(local))
	for n := range local {
		out = append(out, n)
	}
	slices.SortFunc(out, func(a, b hdfs.NodeID) int {
		return cmp.Or(cmp.Compare(local[b], local[a]), cmp.Compare(a, b))
	})
	return out
}

// files returns the column-file paths the split will read in dir.
func (s *Split) files(fs *hdfs.FileSystem, dir string) []string {
	if len(s.Columns) > 0 {
		out := make([]string, len(s.Columns))
		for i, c := range s.Columns {
			out[i] = dir + "/" + c
		}
		return out
	}
	infos, err := fs.List(dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, fi := range infos {
		if !fi.IsDir && !strings.HasPrefix(fi.Name(), "_") {
			// "_"-prefixed files are metadata (the schema), not columns.
			out = append(out, fi.Path)
		}
	}
	return out
}

// AutoDirsPerSplit, as scan.Spec.DirsPerSplit, sizes splits from
// estimated predicate selectivity instead of a fixed constant: the
// scheduler tier already reads each surviving directory's whole-file
// aggregates, so the expected qualifying rows are known before any task
// exists, and highly selective scans merge many directories into one task
// rather than scheduling a task per directory that each return a handful
// of records.
const AutoDirsPerSplit = -1

// InputFormat is CIF, the ColumnInputFormat. It has no configuration of
// its own: the job's scan.Spec carries the projection, the predicate and
// the task sizing (Spec.DirsPerSplit: Section 4.2's "CIF can actually
// assign one or more split-directories to a single split").
type InputFormat struct{}

// Splits implements mapred.InputFormat. The report-free interface cannot
// hand its caller the elided splits' accounting, so elision is reserved
// for PlannedSplits (the engine's path): Splits callers get every
// split-directory and rely on the reader-side tiers, keeping their
// aggregated TaskStats sums complete.
func (f *InputFormat) Splits(fs *hdfs.FileSystem, conf *mapred.JobConf) ([]mapred.Split, error) {
	splits, _, err := f.plannedSplits(fs, conf, false)
	return splits, err
}

// PlannedSplits implements mapred.PlannedInputFormat: split-directory
// listing plus the scan planner's scheduler tier. When the job carries a
// predicate (and its spec has not disabled elision), each
// split-directory's filter-column files are judged by their whole-file
// aggregate statistics — read from footers, never data — and directories
// proven irrelevant are dropped before a map task exists for them. This is
// the PowerDrill chunk-skip lifted to the scheduling unit the paper built
// CIF around.
func (f *InputFormat) PlannedSplits(fs *hdfs.FileSystem, conf *mapred.JobConf) ([]mapred.Split, scan.PruneReport, error) {
	return f.plannedSplits(fs, conf, true)
}

func (f *InputFormat) plannedSplits(fs *hdfs.FileSystem, conf *mapred.JobConf, allowElide bool) ([]mapred.Split, scan.PruneReport, error) {
	cat := catalog.Of(fs)
	plan, err := f.planDirs(fs, cat, conf, allowElide, nil)
	if err != nil {
		return nil, plan.report, err
	}
	var out []mapred.Split
	ms, union := []memberSpec{plan.memberSpec}, scan.NewUnion([]scan.Predicate{plan.spec.Predicate})
	var built []*scanPlan // the job's plans, one per directory schema
	for _, ds := range plan.datasets {
		per := splitSize(cat, plan.spec.DirsPerSplit, plan.spec.Predicate, plan.spec.Bloom(), ds.kept)
		for i := 0; i < len(ds.kept); i += per {
			j := min(i+per, len(ds.kept))
			s := &Split{Dirs: ds.kept[i:j], Dels: ds.keptDels[i:j], Columns: plan.columns, Judged: plan.elide}
			s.plan = planFor(&built, cat, ms, union, s)
			out = append(out, s)
		}
	}
	return out, plan.report, nil
}

// dirPlan is one job's split-directory planning outcome: the directories
// that survived the scheduler tier, per dataset, plus what split assembly
// and shared-scan co-scheduling need from the planning pass.
type dirPlan struct {
	memberSpec
	datasets []datasetDirs
	columns  []string // locality columns: projection plus filter columns
	elide    bool
	report   scan.PruneReport
}

// datasetDirs is one input dataset's directory listing: all
// split-directories in scan order (with their delete sets, parallel), and
// the subset the scheduler kept.
type datasetDirs struct {
	path     string
	all      []string
	allDels  []*DelSet
	kept     []string
	keptDels []*DelSet
}

// planDirs runs split-directory listing and the scheduler pruning tier for
// one job — everything plannedSplits does short of chunking directories
// into splits. SharedSplits reuses it per member job, which is what makes
// per-job elision accounting in a batch identical to a solo run; layouts,
// when non-nil, pins every member to one layout snapshot per dataset so a
// manifest commit cannot land between their planning passes.
func (f *InputFormat) planDirs(fs *hdfs.FileSystem, cat *catalog.Catalog, conf *mapred.JobConf, allowElide bool, layouts map[string]dsLayout) (dirPlan, error) {
	var plan dirPlan
	var err error
	if plan.memberSpec, err = resolveMember(conf); err != nil {
		return plan, err
	}
	spec, pred, planner := plan.spec, plan.spec.Predicate, plan.planner
	plan.columns = taskColumns(spec)
	plan.report = scan.PruneReport{
		Columns:    planner.FilterColumns(),
		Vectorized: pred != nil && spec.Vectorize(),
	}
	plan.elide = allowElide && pred != nil && spec.Elide()
	for _, dataset := range conf.InputPaths {
		layout, err := layoutCached(fs, dataset, layouts)
		if err != nil {
			return plan, err
		}
		dirs, dels := layout.dirs, layout.dels
		plan.report.SplitsTotal += len(dirs)
		kept, keptDels := dirs, dels
		if plan.elide {
			kept = make([]string, 0, len(dirs))
			keptDels = make([]*DelSet, 0, len(dirs))
			for i, dir := range dirs {
				if pruneSplitDir(cat, dir, planner, &plan.report) {
					plan.report.SplitsPruned++
					continue
				}
				kept = append(kept, dir)
				keptDels = append(keptDels, dels[i])
			}
		}
		plan.datasets = append(plan.datasets, datasetDirs{path: dataset, all: dirs, allDels: dels, kept: kept, keptDels: keptDels})
	}
	return plan, nil
}

// taskColumns returns the column files a map task of spec opens (nil: every
// column): the projection plus any filter-only predicate columns (Columns
// dedups against the slice it extends). An aggregation narrows an empty
// projection to its own columns and widens a set one with them.
func taskColumns(spec scan.Spec) []string {
	cols := spec.Columns
	if spec.Agg != nil && len(cols) == 0 {
		cols = spec.Agg.Columns(nil)
	} else if spec.Agg != nil {
		cols = spec.Agg.Columns(append([]string(nil), cols...))
	}
	if spec.Predicate != nil && len(cols) > 0 {
		cols = spec.Predicate.Columns(append([]string(nil), cols...))
	}
	return cols
}

// splitSize resolves the directories-per-split for one run of directories:
// the configured constant, or the selectivity-estimated size in auto mode.
func splitSize(cat *catalog.Catalog, dps int, pred scan.Predicate, bloom bool, dirs []string) int {
	if dps == AutoDirsPerSplit {
		return autoDirsPerSplit(cat, pred, bloom, dirs)
	}
	if dps < 1 {
		return 1
	}
	return dps
}

// autoDirsPerSplit sizes splits so each map task covers roughly one
// split-directory's worth of *qualifying* work: estimated matches per
// directory shrink with selectivity, so the directories-per-task ratio
// grows as rows/matches, clamped to the surviving run. Estimation failure
// (no statistics, unreadable footers) falls back to the constant default —
// sizing is a costing decision, never a correctness one.
func autoDirsPerSplit(cat *catalog.Catalog, pred scan.Predicate, bloom bool, dirs []string) int {
	if pred == nil || len(dirs) < 2 {
		return 1
	}
	rows, matches, ok := runMatches(cat, dirs, pred, bloom)
	if !ok || rows <= 0 {
		return 1
	}
	return min(max(int(rows/max(matches, 1)), 1), len(dirs))
}

// runMatches sums estimateDirMatches over a run of split-directories, false
// when any directory cannot be estimated.
func runMatches(cat *catalog.Catalog, dirs []string, pred scan.Predicate, bloom bool) (rows, est float64, ok bool) {
	for _, dir := range dirs {
		r, e, ok := estimateDirMatches(cat, dir, pred, bloom)
		if !ok {
			return 0, 0, false
		}
		rows += r
		est += e
	}
	return rows, est, true
}

// estimateDirMatches estimates one split-directory's row count and
// qualifying rows from whole-file footer statistics. Sizing is a costing
// phase, not a pruning one: its footer reads are uncharged metadata (and
// not counted in PruneReport.FilesChecked, which reports the scheduler
// tier's consultations).
func estimateDirMatches(cat *catalog.Catalog, dir string, pred scan.Predicate, bloom bool) (rows, est float64, ok bool) {
	schema, err := readSplitSchema(cat, dir)
	if err != nil {
		return 0, 0, false
	}
	ds := dirStats{cat: cat, dir: dir, schema: schema}
	var maxRows int64
	wrapped := func(col string) *scan.ColStats {
		st := ds.stats(col)
		if st != nil && st.Rows > maxRows {
			maxRows = st.Rows
		}
		return st
	}
	view := scan.StatsFunc(wrapped)
	if !bloom {
		view = scan.StripBloom(view)
	}
	frac := scan.EstimateFraction(pred, view)
	if maxRows == 0 {
		// The estimate consulted no statistics; count records directly from
		// any column's footer so the row total stays real.
		if maxRows = ds.recordCount(); maxRows == 0 {
			return 0, 0, false
		}
	}
	return float64(maxRows), frac * float64(maxRows), true
}

// pruneSplitDir decides the scheduler tier for one split-directory. Filter
// columns resolve lazily, so only the files the predicate's Prune
// traversal actually consults are looked up. A directory the planner
// cannot judge is scheduled. The record-count fallback covers proofs that
// consulted no statistics (a constant-false predicate): the elided records
// still need accounting.
func pruneSplitDir(cat *catalog.Catalog, dir string, planner *scan.Planner, report *scan.PruneReport) bool {
	schema, err := readSplitSchema(cat, dir)
	if err != nil {
		return false
	}
	ds := dirStats{cat: cat, dir: dir, schema: schema, checked: &report.FilesChecked}
	pruned, rows := planner.PruneFileRows(ds.stats, ds.recordCount)
	if pruned {
		report.RecordsPruned += rows
	}
	return pruned
}

// Open implements mapred.InputFormat: a one-member scan of the split.
func (f *InputFormat) Open(fs *hdfs.FileSystem, conf *mapred.JobConf, split mapred.Split, node hdfs.NodeID, stats *sim.TaskStats) (mapred.RecordReader, error) {
	r, err := openReader(fs, []*mapred.JobConf{conf}, []int{0}, split, node, []*sim.TaskStats{stats}, stats)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Reader scans a CIF split for one or more member jobs through one cursor
// set and one batch loop (vecexec.go). InputFormat.Open returns a
// one-member Reader; OpenShared an N-member one, behind SharedReader. It is
// also usable directly (outside MapReduce) for scans. With a predicate set
// it returns only qualifying records (see scanexec.go).
type Reader struct {
	// The reader opens cursors against its plan, which it shares with every
	// other task of its batch cluster and never writes.
	*scanPlan
	fs   *hdfs.FileSystem
	node hdfs.NodeID
	// task receives the scan's physical work — I/O, decode, vector and
	// sharing counters, and the union tier's verdicts. A one-member scan's
	// member stats are usually the same TaskStats; OpenShared keeps the
	// members' logical counters apart from it.
	task    *sim.TaskStats
	members []*member
	// zones is groupStats bound once: a method value handed to the planners
	// per consultation would allocate.
	zones    scan.GroupStatsFunc
	cache    *hdfs.ScanCache // session scan cache, attached to every stream
	vecCache *vec.Cache
	// countCachedGets makes a lazy Get count its record materialized even
	// when the cursor cache already held the value: an OpenShared member's
	// value may have been decoded for another member's residual.
	countCachedGets bool

	dirs    []string
	delSets []*DelSet // each directory's delete set, parallel to dirs (nil: none)
	dirIdx  int
	// dels is the open directory's delete set (nil when it has none):
	// superseded rows are skipped before evaluation and counted nowhere.
	dels    *DelSet
	cursors []*cursor
	byName  map[string]*cursor
	total   int64 // records in the open split-directory
	curPos  int64 // the record most recently surfaced
	// batch is the active batch rows are drawn from (nil between batches);
	// surfaced counts the rows surfaced so far, for lazy runs' streaks.
	batch    *colBatch
	surfaced int64
	done     bool
	// pruneValidTo bounds the records covered by the last union zone-map
	// verdict; pruning re-runs only once a batch starts past it.
	pruneValidTo int64
	// matCounted is the record most recently counted as materialized (once
	// per record, however many members or Gets consumed it).
	matCounted int64
	// aggEntries, parallel to the sole member's aggregate columns, holds the
	// stats entries of the region the stats shortcut is considering.
	aggEntries []*scan.ColStats
	aggEntry   scan.StatsFunc

	// sels are the active batch's selections, pooled when it retires.
	sels    []*scan.Selection
	verdict []*scan.Selection
	boxSrc  []boxSource
	// box boxes what the reader serves from vectors — lazy runs, batch rows,
	// a lazy Get inside an evaluated batch — for as long as the task runs, on
	// the reader's own goroutine (prefetch decodes through the cursors'
	// decoders, never through it). Its values outlive their run, their batch
	// and Close.
	box serde.Boxer
	// outVals and outIdx are a shared scan's per-row delivery, reused across
	// SharedReader.Next calls; a one-member scan's fits in val1 and idx1, so
	// it allocates nothing the solo scan does not.
	outVals []any
	outIdx  []int
	val1    [1]any
	idx1    [1]int
}

// cursor is one column's file reader plus the per-record value cache that
// makes repeated Get calls on the same record free.
type cursor struct {
	name      string
	schema    *serde.Schema
	hr        *hdfs.FileReader
	cat       *catalog.Catalog
	r         colfile.Reader
	cached    any
	cachedPos int64
	// Lazy runs (Reader.startRun): run holds the values of records
	// [runStart, runEnd), decoded and boxed ahead of the Gets that will ask
	// for them; streak counts the consecutive surfaced rows the cursor has
	// been read on, the last of them being the servedAt-th the scan surfaced.
	run              []any
	runStart, runEnd int64
	streak           int
	servedAt         int64
	// phys is the cursor's physical accounting bucket: its stream's I/O and
	// cache hits, and its batch decodes, which prefetch fans out across
	// goroutines. closeCursors folds it into the task's stats.
	phys sim.TaskStats
}

// Zones implements colfile.ZoneSource: the column reader's zone maps are
// the filesystem catalog's image of the file the cursor opened, parsed once
// for every task that reads it.
func (c *cursor) Zones() *colfile.Zones { return c.cat.Zones(c.hr, c.schema) }

// close releases the cursor's stream window for the next file and closes its
// file. Values it handed out stay valid.
func (c *cursor) close() {
	c.r.Release()
	c.hr.Close()
}

// openReader opens a scan of split for the member jobs confs[members[k]],
// member k charging its logical counters to memberStats[k] (nil only for a
// one-member scan that keeps no stats) and the cursor set's physical work to
// task. The split's plan serves when it was planned for these jobs; else the
// split is planned here. Everything the reader sets up is the task's own.
func openReader(fs *hdfs.FileSystem, confs []*mapred.JobConf, members []int, split mapred.Split, node hdfs.NodeID, memberStats []*sim.TaskStats, task *sim.TaskStats) (*Reader, error) {
	csplit, ok := split.(*Split)
	if !ok {
		return nil, fmt.Errorf("core: unexpected split type %T", split)
	}
	if len(csplit.Dirs) == 0 {
		return nil, fmt.Errorf("core: empty split")
	}
	if len(members) == 0 || len(members) != len(memberStats) {
		return nil, fmt.Errorf("core: %d members with %d stats sinks", len(members), len(memberStats))
	}
	p := csplit.plan
	if !p.fits(confs, members) {
		p = openPlan(fs, confs, members, csplit)
	}
	if p.err != nil {
		return nil, p.err
	}
	if task == nil {
		task = &sim.TaskStats{}
	}
	r := &Reader{
		scanPlan:   p,
		fs:         fs,
		node:       node,
		task:       task,
		dirs:       csplit.Dirs,
		delSets:    csplit.Dels,
		dirIdx:     -1,
		matCounted: -1,
		members:    make([]*member, len(p.jobs)),
		verdict:    make([]*scan.Selection, len(p.groupPred)),
	}
	r.outVals, r.outIdx = r.val1[:0], r.idx1[:0]
	for k := range p.jobs {
		mp := &p.jobs[k]
		m := &member{memberPlan: mp, stats: cmp.Or(memberStats[k], task)}
		switch {
		case mp.folder:
			m.fold = scan.NewAggState(mp.spec.Agg)
		case mp.spec.Agg != nil:
			m.fold = r.members[mp.foldOwner].fold
		case mp.spec.Lazy:
			m.lrec = &LazyRecord{r: r, m: m}
		}
		r.members[k] = m
		// All members of a session batch carry the same caches; taking the
		// first present keeps hand-mixed batches working.
		conf := confs[members[k]]
		r.cache = cmp.Or(r.cache, conf.Cache)
		r.vecCache = cmp.Or(r.vecCache, conf.VecCache)
	}
	r.zones = r.groupStats
	if err := r.nextDir(); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// nextDir closes the current split-directory's cursors and opens the next
// one the file tier cannot disprove: a directory proved empty is crossed
// touching only footers and stats sections (uncharged metadata).
func (r *Reader) nextDir() error {
	r.finishDir()
	for {
		r.releaseBatch()
		r.closeCursors()
		r.dirIdx++
		if r.dirIdx >= len(r.dirs) {
			r.done = true
			return nil
		}
		dir := r.dirs[r.dirIdx]
		pruned, err := r.openDir(dir)
		if err != nil {
			return err
		}
		if pruned {
			continue
		}
		r.dels = delSetAt(r.delSets, r.dirIdx)
		if IsFreshPartition(dir) {
			r.task.FreshPartitionsScanned++
		}
		r.curPos = -1
		r.pruneValidTo = 0
		r.matCounted = -1
		for _, m := range r.members {
			m.acctPos, m.validTo = 0, 0
		}
		return nil
	}
}

// openDir opens dir's column files and builds cursors, unless the file
// pruning tier proves the directory irrelevant first (pruned=true, no
// cursors left open).
func (r *Reader) openDir(dir string) (pruned bool, err error) {
	selective := r.planner.Predicate() != nil
	ropts, collide := dirCursorOptions(r.fs, len(r.allCols), selective)
	ropts.NoBloom = r.noBloom
	files := make([]*hdfs.FileReader, 0, len(r.allCols))
	// closeAll undoes a partly opened directory: built cursors return their
	// pooled stream windows now; the files past them have no reader yet.
	closeAll := func() {
		built := len(r.cursors)
		r.closeCursors()
		for _, hr := range files[built:] {
			hr.Close()
		}
	}
	for _, col := range r.allCols {
		hr, err := r.fs.Open(dir+"/"+col, r.node)
		if err != nil {
			closeAll()
			return false, fmt.Errorf("core: opening column %q: %w", col, err)
		}
		files = append(files, hr)
	}
	// File tier: judge the filter columns' whole-file aggregates before any
	// reader parses a header or charges a byte (off with Spec.NoElide).
	if selective && r.fileTier && r.pruneDirFiles(dir) {
		closeAll()
		return true, nil
	}
	r.byName = make(map[string]*cursor, len(r.allCols))
	cat := catalog.Of(r.fs)
	for i, col := range r.allCols {
		hr := files[i]
		c := &cursor{name: col, schema: r.schema.Field(col), hr: hr, cat: cat, cachedPos: -1}
		hr.SetStats(&c.phys.IO)
		if r.cache != nil {
			hr.SetCache(r.cache, &c.phys)
		}
		opts := ropts
		opts.Zones = c
		if collide > 0 {
			opts.OnRefill = func(n, cur int) {
				hr.ChargeInterleaved(int64(float64(n)*collide*float64(sim.ReadaheadBytes)/float64(cur) + 0.5))
			}
		}
		if c.r, err = colfile.NewReaderOpts(hr, c.schema, opts, &r.task.CPU); err != nil {
			closeAll()
			return false, fmt.Errorf("core: column %q: %w", col, err)
		}
		r.cursors = append(r.cursors, c)
		r.byName[col] = c
	}
	r.total = r.cursors[0].r.Total()
	for _, c := range r.cursors {
		if c.r.Total() != r.total {
			err := fmt.Errorf("core: column %q has %d records, %q has %d", c.name, c.r.Total(), r.cursors[0].name, r.total)
			closeAll()
			return false, err
		}
	}
	return false, nil
}

// pruneDirFiles decides the file tier for dir from the filter columns'
// whole-file aggregates, read through the catalog, and counts a NoMatch
// proof's records and skipped files. The scheduler usually elides such
// directories first; this tier fires for unjudged splits (elision off,
// hand-built splits) and when DirsPerSplit groups directories.
func (r *Reader) pruneDirFiles(dir string) bool {
	ds := dirStats{cat: catalog.Of(r.fs), dir: dir, schema: r.schema}
	pruned, rows := r.planner.PruneFileRows(ds.stats, ds.recordCount)
	if pruned {
		r.task.FilesPruned += int64(len(r.allCols))
		r.unionPruned(false, rows, false)
	}
	return pruned
}

// closeCursors closes the open directory's streams and folds their physical
// accounting into the task's stats — including the sharing savings: a
// stream that served k members replaced k-1 solo cursors and their bytes.
func (r *Reader) closeCursors() {
	for i, c := range r.cursors {
		c.close()
		r.task.Add(c.phys)
		if r.needers == nil {
			continue
		}
		if extra := int64(r.needers[i] - 1); extra > 0 {
			r.task.SharedReads += extra
			r.task.BytesSaved += extra * c.phys.IO.TotalChargedBytes()
		}
	}
	r.cursors = nil
	r.byName = nil
}

// Next implements mapred.RecordReader. In lazy mode the returned Record is
// reused across calls (like Hadoop Writables): use it before the next call.
// An eager record is never reused and may be kept indefinitely — past the
// next call, past Close — but the records of one batch share their backing
// storage (see serde.GenericRecord), so keeping one keeps at most its batch
// reachable.
func (r *Reader) Next() (any, any, bool, error) {
	if ok, err := r.advance(); !ok {
		return nil, nil, false, err
	}
	// A lone member takes every row the batch surfaces. Its lazy record is
	// returned here, not through deliver: this is the per-row path of the
	// paper's Section 5 job, where a call per row shows.
	m := r.members[0]
	if m.lrec != nil {
		return nil, m.lrec, true, nil
	}
	v, err := r.deliver(m)
	return nil, v, err == nil, err
}

// Close implements mapred.RecordReader.
func (r *Reader) Close() error {
	r.releaseBatch()
	r.closeCursors()
	r.done = true
	return nil
}

// Schema returns the (first member's) projected record schema.
func (r *Reader) Schema() *serde.Schema { return r.members[0].proj }

// readerMemoryBudget caps the total buffer memory of one CIF reader; wide
// projections divide it among their column streams.
const readerMemoryBudget = 32 << 20

// dirCursorOptions computes the physical model of one cursor set over a
// split-directory — one model whatever the member count, so co-scheduling
// never changes how a byte is priced.
//
// Column streams refill at readahead granularity: large enough to amortize
// the inter-file arm movement of a multi-column scan (the paper's ~25%
// full-scan overhead vs SEQ), small enough that skip-list jumps beyond it
// still eliminate I/O. A fixed reader memory budget is divided among the
// streams, so very wide records get smaller buffers and proportionally more
// arm movement — the growing column-storage overhead the paper measures in
// Appendix B.5.
//
// With a predicate set, adaptive readahead applies: a selective scan jumps
// between qualifying groups instead of streaming, so a full window mostly
// prefetches bytes the next jump discards. Once a jump is observed, refills
// shrink below the transfer unit — trading unit-granular charges for the
// chance that the next jump clears a whole unit — and sequential refills
// ramp back to the full window, so a dense (unselective) predicate costs
// exactly a plain scan.
//
// collide is the probability a refill seeks because another stream moved
// the arm of this stream's disk since its last refill. With blocks spread
// round-robin over D disks and S streams refilling in rotation, that
// probability is 1-(1-1/D)^(S-1): negligible for two streams, near-certain
// for the thirteen-column full scan (DESIGN.md, decision 4; this is why the
// paper's CIF full-record scan trails SEQ by ~25%). Charged per byte —
// normalized to the model's readahead window so smaller buffers cost
// proportionally more (the ramp reports its granularity per refill) — so it
// extrapolates exactly across scales.
func dirCursorOptions(fs *hdfs.FileSystem, streams int, selective bool) (colfile.ReaderOptions, float64) {
	chunk := sim.ReadaheadBytes
	if budget := readerMemoryBudget / streams; chunk > budget {
		chunk = budget
	}
	if tu := int(fs.Config().TransferUnit); chunk < tu {
		chunk = tu
	}
	ropts := colfile.ReaderOptions{Chunk: chunk}
	if selective && sim.SelectiveReadaheadBytes < chunk {
		ropts.ChunkMin = sim.SelectiveReadaheadBytes
	}
	return ropts, interleaveFactor(streams, fs.Config().DisksPerNode)
}

// interleaveFactor is the probability that a stream's refill requires an
// arm movement, given streams concurrent streams over disks spindles.
func interleaveFactor(streams, disks int) float64 {
	if streams <= 1 {
		return 0
	}
	if disks < 1 {
		disks = 1
	}
	p := 1.0
	for i := 0; i < streams-1; i++ {
		p *= 1 - 1/float64(disks)
	}
	return 1 - p
}

// cursorFor returns the cursor of an open column (projected or
// filter-only).
func (r *Reader) cursorFor(name string) (*cursor, error) {
	if c, ok := r.byName[name]; ok {
		return c, nil
	}
	return nil, fmt.Errorf("core: column %q is not in the projection %v", name, r.allCols)
}
