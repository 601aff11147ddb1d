package core

import (
	"fmt"

	"colmr/internal/catalog"
	"colmr/internal/colfile"
	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
	"colmr/internal/vec"
)

// Shared scans (the batch engine's storage side). A SharedReader drives one
// cursor set over a split's directories for N co-scheduled member jobs:
//
//   - the cursors cover the union of the members' projected and filter
//     columns, and the pushdown predicate is the union (OR) of the members'
//     predicates, so group pruning jumps only the regions *no* member can
//     match and the scan runs at the union's selectivity;
//   - each record surfacing from the union scan is demultiplexed by the
//     members' residual predicates (identical residuals share one verdict
//     per record via scan.Union's eval groups), and qualifying members
//     receive the record under their own projection and materialization
//     mode;
//   - each member keeps solo-exact logical accounting. The member's own
//     planner replays the solo reader's group-tier consultation sequence —
//     the same positions, the same verdicts, the same extents — so per-job
//     GroupsPruned / RecordsPruned / RecordsFiltered match a solo run
//     exactly and "pruned + filtered + returned == dataset size" holds per
//     job. This works because a position inside any member's established
//     may-match region can never be skipped by the union tier: the union
//     OR prunes only where every member's subtree proves NoMatch over the
//     same statistics.
//
// Physical work is attributed once: every column stream charges a per-column
// I/O bucket which Close folds into the shared TaskStats, along with
// SharedReads (cursor opens avoided) and BytesSaved (charged bytes times the
// additional members each stream served). Member TaskStats carry logical
// counters only.

// SharedSplits implements mapred.SharedInputFormat: per-job split planning
// (scheduler-tier elision with each job's own predicate) followed by
// co-scheduling. Directories surviving for the same member set are merged
// into shared splits in global directory order, so each member's record
// order across the batch equals its solo split order. Each run then passes
// cost-based admission (admitRun): members whose union predicate would
// destroy a selective member's pruning are split into separate shared
// groups, with the declined pairings counted in each member's PruneReport.
func (f *InputFormat) SharedSplits(fs *hdfs.FileSystem, confs []*mapred.JobConf) ([]mapred.SharedSplit, []scan.PruneReport, error) {
	reports := make([]scan.PruneReport, len(confs))
	plans := make([]dirPlan, len(confs))
	// One layout snapshot per dataset for the whole batch: a manifest commit
	// landing mid-planning must not hand members different generations of
	// one cursor set. Layouts are the one planning input that is mutable;
	// the schemas and footer statistics below them are not, and come through
	// the batch's catalog, parsed once however many members consult them.
	layouts := make(map[string]dsLayout)
	cat := catalogOf(fs, confs...)
	for i, conf := range confs {
		plan, err := f.planDirs(fs, cat, conf, true, layouts)
		if err != nil {
			return nil, nil, fmt.Errorf("core: planning batch member %d: %w", i, err)
		}
		plans[i] = plan
		reports[i] = plan.report
	}
	// Global directory order: datasets in first-appearance order across
	// members, directories in scan order within each dataset.
	var datasetOrder []string
	allOf := make(map[string][]string)
	delOf := make(map[string]string)
	membersOf := make(map[string][]int)
	for i := range plans {
		for _, ds := range plans[i].datasets {
			if _, ok := allOf[ds.path]; !ok {
				datasetOrder = append(datasetOrder, ds.path)
				allOf[ds.path] = ds.all
				for di, dir := range ds.all {
					delOf[dir] = ds.allDels[di]
				}
			}
			for _, dir := range ds.kept {
				membersOf[dir] = append(membersOf[dir], i)
			}
		}
	}
	var out []mapred.SharedSplit
	for _, dataset := range datasetOrder {
		dirs := allOf[dataset]
		for i := 0; i < len(dirs); {
			ms := membersOf[dirs[i]]
			if len(ms) == 0 {
				i++
				continue
			}
			// A run of consecutive directories with an identical member set
			// is one co-scheduling unit; the member-set boundary is also a
			// task boundary so per-member accounting stays per-plan.
			j := i + 1
			for j < len(dirs) && sameMembers(membersOf[dirs[j]], ms) {
				j++
			}
			run := dirs[i:j]
			// Cost-based admission: split the member set into clusters whose
			// union predicates keep each member's pruning intact. Declined
			// pairings are reported per member (a member in a cluster of c
			// lost len(ms)-c potential co-scan partners).
			for _, cl := range f.admitRun(cat, plans, ms, run) {
				if declined := len(ms) - len(cl); declined > 0 {
					for _, m := range cl {
						reports[m].SharedDeclined += declined
					}
				}
				runPreds := make([]scan.Predicate, len(cl))
				for k, m := range cl {
					runPreds[k] = plans[m].pred
				}
				union := scan.NewUnion(runPreds)
				// The cluster's task sizing follows its first member's
				// resolved directories-per-split (and its bloom setting,
				// which only sharpens the estimate); the batch scheduler only
				// groups jobs whose sizing agrees.
				per := f.splitSize(cat, plans[cl[0]].dps, union.Shared, plans[cl[0]].bloom, run)
				cols := unionColumns(plans, cl)
				for a := 0; a < len(run); a += per {
					b := a + per
					if b > len(run) {
						b = len(run)
					}
					dels := make([]string, b-a)
					for di, dir := range run[a:b] {
						dels[di] = delOf[dir]
					}
					out = append(out, mapred.SharedSplit{
						Split:   &Split{Dirs: run[a:b], Dels: dels, Columns: cols, Judged: true},
						Members: append([]int(nil), cl...),
					})
				}
			}
			i = j
		}
	}
	return out, reports, nil
}

// admitRun partitions a run's member set into co-admission clusters:
// greedily, in member order, a member joins the first cluster whose
// widened union predicate stays scan.AdmissionCompatible with the
// cluster's most selective member, else opens its own. Splitting the set
// never changes any member's output or logical counters (each member's
// replay accounting is solo-exact regardless of co-members) — only which
// cursor sets are shared — so admission is purely a cost decision. When
// selectivity estimation fails for any member, the whole set stays one
// cluster, which is the pre-cost-model behavior.
func (f *InputFormat) admitRun(cat *catalog.Catalog, plans []dirPlan, ms []int, run []string) [][]int {
	if len(ms) < 2 {
		return [][]int{ms}
	}
	fracs := make(map[int]float64, len(ms))
	for _, m := range ms {
		fr := 1.0
		if plans[m].pred != nil {
			var ok bool
			if fr, ok = runFraction(cat, run, plans[m].pred, plans[m].bloom); !ok {
				return [][]int{ms}
			}
		}
		fracs[m] = fr
	}
	var clusters [][]int
	for _, m := range ms {
		placed := false
		for ci, cl := range clusters {
			cand := append(append([]int(nil), cl...), m)
			preds := make([]scan.Predicate, len(cand))
			minFrac := 1.0
			for k, cm := range cand {
				preds[k] = plans[cm].pred
				if fracs[cm] < minFrac {
					minFrac = fracs[cm]
				}
			}
			// A nil union predicate means some candidate member takes every
			// record: the shared cursors run unfiltered.
			uf := 1.0
			if u := scan.NewUnion(preds); u.Shared != nil {
				var ok bool
				if uf, ok = runFraction(cat, run, u.Shared, plans[cand[0]].bloom); !ok {
					uf = 1.0
				}
			}
			if scan.AdmissionCompatible(uf, minFrac) {
				clusters[ci] = cand
				placed = true
				break
			}
		}
		if !placed {
			clusters = append(clusters, []int{m})
		}
	}
	return clusters
}

// runFraction estimates the qualifying fraction of pred over a run of
// split-directories from footer statistics, false when any directory
// cannot be estimated.
func runFraction(cat *catalog.Catalog, dirs []string, pred scan.Predicate, bloom bool) (float64, bool) {
	var rows, est float64
	for _, dir := range dirs {
		r, e, ok := estimateDirMatches(cat, dir, pred, bloom)
		if !ok {
			return 0, false
		}
		rows += r
		est += e
	}
	if rows == 0 {
		return 0, false
	}
	return est / rows, true
}

// sameMembers reports whether two (sorted, append-ordered) member lists are
// identical.
func sameMembers(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// unionColumns merges the members' locality columns; nil (all columns) wins.
func unionColumns(plans []dirPlan, ms []int) []string {
	var cols []string
	for _, m := range ms {
		if plans[m].columns == nil {
			return nil
		}
		for _, c := range plans[m].columns {
			cols = appendColumnName(cols, c)
		}
	}
	return cols
}

func appendColumnName(dst []string, col string) []string {
	for _, c := range dst {
		if c == col {
			return dst
		}
	}
	return append(dst, col)
}

// OpenShared implements mapred.SharedInputFormat.
func (f *InputFormat) OpenShared(fs *hdfs.FileSystem, confs []*mapred.JobConf, split mapred.Split, members []int, node hdfs.NodeID, memberStats []*sim.TaskStats, shared *sim.TaskStats) (mapred.SharedRecordReader, error) {
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
	cat := catalogOf(fs, confs...)
	schema, err := readSplitSchema(cat, csplit.Dirs[0])
	if err != nil {
		return nil, err
	}
	sr := &SharedReader{
		fs:       fs,
		cat:      cat,
		node:     node,
		shared:   shared,
		schema:   schema,
		dirs:     csplit.Dirs,
		delFiles: csplit.Dels,
		dirIdx:   -1,
	}
	sr.cpu = &shared.CPU
	preds := make([]scan.Predicate, len(members))
	anyNoBloom := false
	allVec := true
	for k, mi := range members {
		conf := confs[mi]
		spec, err := resolveSpec(conf)
		if err != nil {
			return nil, err
		}
		if spec.NoBloom {
			anyNoBloom = true
		}
		if spec.NoVec {
			// One scalar member makes the whole cursor set scalar: the
			// switch is an A/B lever, and mixing modes inside one batch
			// would blur what it measures.
			allVec = false
		}
		if sr.cache == nil {
			// All members of a session batch carry the same cache; take the
			// first one present so hand-mixed batches still behave.
			sr.cache = conf.Cache
		}
		if sr.vecCache == nil {
			sr.vecCache = conf.VecCache
		}
		cols := spec.Columns
		proxyOnly := false
		if spec.Agg != nil && len(cols) == 0 {
			// An aggregating member materializes nothing; its cursor needs
			// are the aggregate's inputs (or any one column, for pure COUNT,
			// to pace the scan).
			if cols = spec.Agg.Columns(nil); len(cols) == 0 {
				proxyOnly = true
				if fc := scan.NewPlanner(spec.Predicate).FilterColumns(); len(fc) > 0 {
					cols = fc[:1]
				} else if len(schema.Fields) > 0 {
					cols = []string{schema.Fields[0].Name}
				}
			}
		}
		proj := schema
		if len(cols) > 0 {
			if proj, err = schema.Project(cols...); err != nil {
				return nil, err
			}
		} else {
			cols = schema.FieldNames()
		}
		pred := spec.Predicate
		need := make(map[string]bool, len(cols))
		for _, c := range cols {
			need[c] = true
		}
		if pred != nil {
			for _, col := range pred.Columns(nil) {
				if schema.Field(col) == nil {
					return nil, fmt.Errorf("core: predicate references unknown column %q", col)
				}
				need[col] = true
			}
		}
		preds[k] = pred
		m := &sharedMember{
			proj:      proj,
			columns:   cols,
			need:      need,
			lazy:      spec.Lazy,
			planner:   scan.NewPlanner(pred),
			stats:     memberStats[k],
			proxyOnly: proxyOnly,
		}
		if spec.Agg != nil {
			m.aggCols = spec.Agg.Columns(nil)
			for _, col := range m.aggCols {
				if schema.Field(col) == nil {
					return nil, fmt.Errorf("core: aggregate references unknown column %q", col)
				}
				need[col] = true
			}
			m.aggState = scan.NewAggState(spec.Agg)
		}
		// The member's replay planner carries the member's own bloom
		// setting, so its counters match a solo run exactly.
		m.planner.SetBloom(spec.Bloom())
		m.lrec = &sharedLazyRecord{sr: sr, m: m}
		sr.members = append(sr.members, m)
	}
	union := scan.NewUnion(preds)
	sr.planner = scan.NewPlanner(union.Shared)
	// The union tier may prune a region only where every member's own
	// replay also proves it empty (the region-consistency argument above).
	// A member that disabled bloom consultation prunes less, so the union
	// must not out-prune it: one dissenter disables the union's blooms
	// (and the cursor set's DCSL prober, whose physical charges would
	// otherwise differ from that member's solo run).
	sr.noBloom = anyNoBloom
	sr.planner.SetBloom(!anyNoBloom)
	sr.evalPos = make([]int64, union.NumGroups)
	sr.evalOK = make([]bool, union.NumGroups)
	for k, m := range sr.members {
		m.evalGroup = union.EvalGroups[k]
	}
	// Vectorized demux state: one residual predicate per evaluation group
	// (identical residuals share one batch verdict, like the scalar
	// evalPos/evalOK dedup). Vectorization needs every member filtered —
	// union.Shared nil means some member takes every record, and the batch
	// path has nothing to evaluate.
	sr.vectorize = allVec && union.Shared != nil
	// With no union predicate the scalar loop below surfaces every undeleted
	// row if some member takes every record as a record (an aggregating
	// member folds its rows and surfaces none).
	for _, m := range sr.members {
		if allVec && m.planner.Predicate() == nil && m.aggState == nil {
			sr.everyRow = true
		}
	}
	sr.groupPred = make([]scan.Predicate, union.NumGroups)
	for k, m := range sr.members {
		if g := m.evalGroup; g >= 0 && sr.groupPred[g] == nil {
			sr.groupPred[g] = preds[k]
		}
	}
	sr.memberSel = make([]*scan.Selection, len(sr.members))
	if sr.vectorize {
		sr.probeOnly = make(map[string]bool)
		for _, col := range scan.ProbeOnlyColumns(sr.groupPred...) {
			sr.probeOnly[col] = true
		}
		// Dictionary-id eligibility is judged across every member's residual
		// and needs at once: any member materializing or aggregating a
		// column needs its values, so the shared cursor must not spend its
		// stream on ids.
		sr.idOnly = make(map[string]bool)
		for _, col := range scan.IDOnlyColumns(sr.groupPred...) {
			sr.idOnly[col] = true
		}
		for _, m := range sr.members {
			if !m.proxyOnly {
				for _, col := range m.columns {
					delete(sr.probeOnly, col)
					delete(sr.idOnly, col)
				}
			}
			for _, col := range m.aggCols {
				delete(sr.idOnly, col)
			}
		}
	}
	// The cursor set covers the union of the members' needs: projected
	// columns first (member order), then filter-only and aggregate-only
	// columns.
	for _, m := range sr.members {
		for _, c := range m.columns {
			sr.allCols = appendColumnName(sr.allCols, c)
		}
		for _, c := range m.aggCols {
			sr.allCols = appendColumnName(sr.allCols, c)
		}
	}
	for _, c := range union.Columns {
		sr.allCols = appendColumnName(sr.allCols, c)
	}
	sr.needers = make([]int, len(sr.allCols))
	for ci, col := range sr.allCols {
		for _, m := range sr.members {
			if m.need[col] {
				sr.needers[ci]++
			}
		}
	}
	for _, m := range sr.members {
		m.colCursor = make([]int, len(m.columns))
		for i, col := range m.columns {
			for ci, c := range sr.allCols {
				if c == col {
					m.colCursor[i] = ci
					break
				}
			}
		}
	}
	if err := sr.nextDir(); err != nil {
		sr.Close()
		return nil, err
	}
	return sr, nil
}

// SharedReader iterates a shared split for several member jobs at once,
// implementing mapred.SharedRecordReader.
type SharedReader struct {
	fs      *hdfs.FileSystem
	cat     *catalog.Catalog // the batch's metadata catalog (directory schemas)
	node    hdfs.NodeID
	shared  *sim.TaskStats
	cache   *hdfs.ScanCache
	schema  *serde.Schema
	members []*sharedMember
	planner *scan.Planner // union predicate
	noBloom bool          // true when any member disabled bloom consultation
	allCols []string
	needers []int // members needing each column

	dirs []string
	// delFiles / scanPos.dels: superseded-row masking, as in the solo Reader.
	// Deleted rows never surface or fold; unlike the solo path, a deleted
	// row inside a member's may-match region lands in that member's
	// defensive RecordsFiltered count (advanceMember crosses it), an
	// accepted counter divergence on ingest datasets.
	delFiles []string
	dirIdx   int
	// scanPos is the scan's position in the open directory (lazy.go); its
	// batch is the evaluated batch of the vectorized demux below.
	scanPos
	cursors      []*cursor
	colIO        []sim.IOStats // per-cursor physical I/O for the open dir
	byName       map[string]*cursor
	pruneValidTo int64
	done         bool

	// Residual-evaluation dedup: one verdict per eval group per record.
	evalPos []int64
	evalOK  []bool
	// matCounted is the record most recently counted as materialized
	// (once per record, however many members consumed it).
	matCounted int64

	// Vectorized demux (vecexec.go): groupPred holds one residual per eval
	// group; per batch, memberSel[i] is member i's match bitmap. vecOK
	// narrows vectorize per directory.
	vectorize bool
	vecOK     bool
	vecCache  *vec.Cache
	probeOnly map[string]bool
	idOnly    map[string]bool
	groupPred []scan.Predicate
	memberSel []*scan.Selection

	outVals []any
	outIdx  []int
}

// sharedMember is one job's sink within a shared scan.
type sharedMember struct {
	proj      *serde.Schema
	columns   []string // projected columns, record field order
	colCursor []int    // cursor index of each projected column
	need      map[string]bool
	lazy      bool
	planner   *scan.Planner // the member's own predicate
	stats     *sim.TaskStats
	evalGroup int
	lrec      *sharedLazyRecord

	// Aggregating members fold matches instead of receiving records; their
	// records never surface from Next. Shared folds take no zone-stats
	// shortcut (the union cursor must visit the region for the other
	// members anyway), so a shared member's AggGroupsShortcut stays zero —
	// an accepted physical difference from its solo run; the folded values
	// and logical pruning counters still match exactly.
	aggState *scan.AggState
	aggCols  []string
	// proxyOnly marks a projection invented for a pure COUNT: the column
	// paces the scan but its values are never read, so it does not
	// disqualify probe-only or dictionary-id evaluation.
	proxyOnly bool

	// Solo-replay accounting state, reset per directory: acctPos is the
	// next unaccounted record, validTo bounds the current may-match region.
	acctPos int64
	validTo int64
}

// nextDir folds the finished directory's physical accounting and opens the
// next one. Unlike the solo reader there is no file pruning tier here: the
// member set already encodes each job's scheduler-tier verdict for every
// directory of the split.
func (sr *SharedReader) nextDir() error {
	sr.releaseBatch()
	sr.vecOK = false
	sr.closeCursors()
	sr.dirIdx++
	if sr.dirIdx >= len(sr.dirs) {
		sr.done = true
		return nil
	}
	dir := sr.dirs[sr.dirIdx]
	if sr.dirIdx > 0 {
		s, err := readSplitSchema(sr.cat, dir)
		if err != nil {
			return err
		}
		if !s.Equal(sr.schema) {
			return fmt.Errorf("core: split-directory %s schema differs from %s", dir, sr.dirs[0])
		}
	}
	if err := sr.openDir(dir); err != nil {
		return err
	}
	var err error
	if sr.dels, err = loadDelSet(sr.fs, delFileAt(sr.delFiles, sr.dirIdx)); err != nil {
		return err
	}
	if isFreshPartition(dir) {
		sr.shared.FreshPartitionsScanned++
	}
	sr.curPos = -1
	sr.pruneValidTo = 0
	sr.matCounted = -1
	for i := range sr.evalPos {
		sr.evalPos[i] = -1
	}
	for _, m := range sr.members {
		m.acctPos, m.validTo = 0, 0
	}
	sr.vecOK = sr.vecEligible()
	return nil
}

// openDir opens the union cursor set over dir, each stream charging its own
// I/O bucket so Close can attribute sharing savings per column.
func (sr *SharedReader) openDir(dir string) error {
	selective := sr.planner.Predicate() != nil
	ropts, collide := dirCursorOptions(sr.fs, len(sr.allCols), selective)
	ropts.NoBloom = sr.noBloom
	sr.colIO = make([]sim.IOStats, len(sr.allCols))
	closeAll := func() {
		for _, c := range sr.cursors {
			c.close()
		}
		sr.cursors = nil
		sr.colIO = nil
	}
	for i, col := range sr.allCols {
		hr, err := sr.fs.Open(dir+"/"+col, sr.node)
		if err != nil {
			closeAll()
			return fmt.Errorf("core: opening column %q: %w", col, err)
		}
		hr.SetStats(&sr.colIO[i])
		if sr.cache != nil {
			// Hits are physical accounting, credited once to the shared
			// stats like every other byte of the cursor set.
			hr.SetCache(sr.cache, sr.shared)
		}
		opts := ropts
		if collide > 0 {
			hr := hr
			opts.OnRefill = func(n, cur int) {
				hr.ChargeInterleaved(int64(float64(n)*collide*float64(sim.ReadaheadBytes)/float64(cur) + 0.5))
			}
		}
		cr, err := colfile.NewReaderOpts(hr, sr.schema.Field(col), opts, &sr.shared.CPU)
		if err != nil {
			hr.Close()
			closeAll()
			return fmt.Errorf("core: column %q: %w", col, err)
		}
		sr.cursors = append(sr.cursors, &cursor{name: col, schema: sr.schema.Field(col), hr: hr, r: cr, cachedPos: -1})
	}
	sr.byName = make(map[string]*cursor, len(sr.cursors))
	for _, c := range sr.cursors {
		sr.byName[c.name] = c
	}
	sr.total = sr.cursors[0].r.Total()
	for _, c := range sr.cursors {
		if c.r.Total() != sr.total {
			return fmt.Errorf("core: column %q has %d records, %q has %d", c.name, c.r.Total(), sr.cursors[0].name, sr.total)
		}
	}
	return nil
}

// closeCursors closes the open directory's streams and folds their physical
// accounting into the shared stats — including the sharing savings: a
// stream that served k members replaced k-1 solo cursors and their bytes.
func (sr *SharedReader) closeCursors() {
	for i, c := range sr.cursors {
		c.close()
		io := sr.colIO[i]
		sr.shared.IO.Add(io)
		if extra := sr.needers[i] - 1; extra > 0 {
			sr.shared.SharedReads += int64(extra)
			sr.shared.BytesSaved += int64(extra) * io.TotalChargedBytes()
		}
	}
	sr.cursors = nil
	sr.byName = nil
	sr.colIO = nil
}

// Next implements mapred.SharedRecordReader. The returned slices are reused
// across calls; lazy member records are valid until the next call, like the
// solo reader's.
func (sr *SharedReader) Next() (any, []any, []int, bool, error) {
	for {
		if sr.done {
			return nil, nil, nil, false, nil
		}
		// Pop the next match of the active batch; demux it by the members'
		// match bitmaps computed at batch evaluation.
		if b := sr.batch; b != nil {
			idx := b.sel.Next(b.next)
			if idx < 0 {
				sr.curPos = b.end - 1
				sr.releaseBatch()
				continue
			}
			b.next = idx + 1
			sr.curPos = b.start + int64(idx)
			sr.outVals = sr.outVals[:0]
			sr.outIdx = sr.outIdx[:0]
			for mi, m := range sr.members {
				if sr.memberSel[mi] == nil || !sr.memberSel[mi].Test(idx) {
					continue
				}
				v, err := sr.deliver(m)
				if err != nil {
					return nil, nil, nil, false, err
				}
				sr.outVals = append(sr.outVals, v)
				sr.outIdx = append(sr.outIdx, mi)
			}
			// The union selection is the OR of the member bitmaps, so at
			// least one member took the record.
			sr.surfaced++
			return nil, sr.outVals, sr.outIdx, true, nil
		}
		if sr.curPos+1 >= sr.total {
			sr.finishDir()
			if err := sr.nextDir(); err != nil {
				return nil, nil, nil, false, err
			}
			continue
		}
		if sr.vecOK {
			if err := sr.vecAdvance(); err != nil {
				return nil, nil, nil, false, err
			}
			continue
		}
		sr.curPos++
		pos := sr.curPos
		// Superseded rows are stepped over before any zone map is consulted,
		// as in the solo loop: no verdict is asked for, or counted from, one.
		if sr.dels.has(pos) {
			continue
		}
		// Union group tier: skip regions no member can match. The union
		// extent is the narrowest group consulted across every member's
		// filter columns, so each member's own accounting re-proves (and
		// counts) the skip at its own granularity below.
		if sr.planner.Predicate() != nil && pos >= sr.pruneValidTo {
			tri, end, byBloom := sr.planner.PruneGroup(pos, sr.total, sr.groupStats)
			if tri == scan.NoMatch {
				sr.shared.GroupsPruned++
				sr.shared.RecordsPruned += end - pos
				if byBloom {
					sr.shared.BloomPruned++
				}
				sr.curPos = end - 1
				continue
			}
			sr.pruneValidTo = end
		}
		sr.outVals = sr.outVals[:0]
		sr.outIdx = sr.outIdx[:0]
		for mi, m := range sr.members {
			if !sr.memberWants(m, pos) {
				continue
			}
			match, err := sr.memberMatch(m, pos)
			if err != nil {
				return nil, nil, nil, false, err
			}
			m.acctPos = pos + 1
			if !match {
				m.stats.RecordsFiltered++
				continue
			}
			if m.aggState != nil {
				if err := m.aggState.FoldRecord(sharedEval{sr}); err != nil {
					return nil, nil, nil, false, err
				}
				m.stats.RowsAggregated++
				continue
			}
			v, err := sr.deliver(m)
			if err != nil {
				return nil, nil, nil, false, err
			}
			sr.outVals = append(sr.outVals, v)
			sr.outIdx = append(sr.outIdx, mi)
		}
		if len(sr.outIdx) > 0 {
			sr.surfaced++
			return nil, sr.outVals, sr.outIdx, true, nil
		}
	}
}

// advanceMember replays m's solo group-tier consultation sequence until
// every record below limit is accounted: consult at the next unaccounted
// position, count and jump NoMatch extents (which may legitimately
// overshoot limit — the proof covers the whole extent), extend may-match
// regions. May-match records below limit were crossed by the union cursor
// without evaluation — unreachable by the region-consistency argument in
// the package comment — and are counted filtered defensively so the
// per-job sum invariant cannot silently break.
func (sr *SharedReader) advanceMember(m *sharedMember, limit int64) {
	for m.acctPos < limit {
		// Superseded rows are invisible to the solo reader: it steps over
		// them before it consults a zone map, and counts them nowhere.
		if sr.dels.has(m.acctPos) {
			m.acctPos++
			continue
		}
		if m.acctPos < m.validTo {
			m.stats.RecordsFiltered++
			m.acctPos++
			continue
		}
		tri, end, byBloom := m.planner.PruneGroup(m.acctPos, sr.total, sr.groupStats)
		if tri == scan.NoMatch {
			m.stats.GroupsPruned++
			m.stats.RecordsPruned += end - m.acctPos
			if byBloom {
				m.stats.BloomPruned++
			}
			m.acctPos = end
			continue
		}
		if end <= m.acctPos {
			end = m.acctPos + 1
		}
		m.validTo = end
	}
}

// memberWants advances m's solo-replay accounting to pos and reports
// whether the member must evaluate the record exactly — so per-member
// counters are independent of the union cursor's path.
func (sr *SharedReader) memberWants(m *sharedMember, pos int64) bool {
	sr.advanceMember(m, pos)
	if m.acctPos > pos {
		return false // the member's own tier pruned past pos
	}
	if m.acctPos >= m.validTo {
		tri, end, byBloom := m.planner.PruneGroup(pos, sr.total, sr.groupStats)
		if tri == scan.NoMatch {
			m.stats.GroupsPruned++
			m.stats.RecordsPruned += end - pos
			if byBloom {
				m.stats.BloomPruned++
			}
			m.acctPos = end
			return false
		}
		if end <= pos {
			end = pos + 1
		}
		m.validTo = end
	}
	return true
}

// memberMatch decides m's residual predicate for the current record,
// sharing verdicts between members with identical residuals.
func (sr *SharedReader) memberMatch(m *sharedMember, pos int64) (bool, error) {
	p := m.planner.Predicate()
	if p == nil {
		return true, nil
	}
	g := m.evalGroup
	if g >= 0 && sr.evalPos[g] == pos {
		return sr.evalOK[g], nil
	}
	ok, err := p.Eval(sharedEval{sr})
	if err != nil {
		return false, err
	}
	if g >= 0 {
		sr.evalPos[g] = pos
		sr.evalOK[g] = ok
	}
	return ok, nil
}

// deliver materializes the current record for one member, under the
// member's own projection and materialization mode. Values flow through the
// shared per-cursor cache, so a column consumed by several members (or by a
// residual and a projection) is deserialized once.
func (sr *SharedReader) deliver(m *sharedMember) (any, error) {
	if m.lazy {
		return m.lrec, nil
	}
	rec := serde.NewRecord(m.proj)
	for i, ci := range m.colCursor {
		v, err := sr.valueAt(sr.cursors[ci])
		if err != nil {
			return nil, err
		}
		rec.SetAt(i, v)
	}
	sr.countMaterialized()
	return rec, nil
}

// countMaterialized counts record-object construction once per record,
// however many members consumed it — the object churn is shared through
// the cursor cache, so charging it per member would overstate CPU work.
func (sr *SharedReader) countMaterialized() {
	if sr.matCounted != sr.curPos {
		sr.shared.CPU.RecordsMaterialized++
		sr.matCounted = sr.curPos
	}
}

// finishDir flushes every member's accounting to the end of the open
// directory: trailing regions the union tier skipped are counted with each
// member's own group-tier verdicts, exactly as the solo reader would have.
func (sr *SharedReader) finishDir() {
	if sr.cursors == nil {
		return
	}
	for _, m := range sr.members {
		sr.advanceMember(m, sr.total)
	}
}

// AggStates implements mapred.AggSharedRecordReader: the folded state of
// each aggregating member (nil entries for members that surface records),
// indexed like the members slice. Valid after the reader is exhausted.
func (sr *SharedReader) AggStates() []*scan.AggState {
	out := make([]*scan.AggState, len(sr.members))
	for i, m := range sr.members {
		out[i] = m.aggState
	}
	return out
}

// Close implements mapred.SharedRecordReader.
func (sr *SharedReader) Close() error {
	sr.releaseBatch()
	sr.closeCursors()
	sr.done = true
	return nil
}

// groupStats resolves one column's zone maps for the union and member
// planners.
func (sr *SharedReader) groupStats(col string, rec int64) (*scan.ColStats, int64) {
	c, ok := sr.byName[col]
	if !ok {
		return nil, 0
	}
	src, ok := c.r.(colfile.StatsSource)
	if !ok {
		return nil, 0
	}
	return src.GroupStats(rec)
}

// sharedEval adapts the SharedReader to scan.Evaluator for residual
// evaluation (cf. evalCtx in scanexec.go).
type sharedEval struct {
	sr *SharedReader
}

// Value implements scan.Evaluator.
func (e sharedEval) Value(col string) (any, error) {
	c, ok := e.sr.byName[col]
	if !ok {
		return nil, fmt.Errorf("core: column %q is not in the shared cursor set %v", col, e.sr.allCols)
	}
	return e.sr.valueAt(c)
}

// HasKey implements scan.Evaluator: map-key tests on probing layouts are
// decided without materializing the map value.
func (e sharedEval) HasKey(col, key string) (bool, bool, error) {
	sr := e.sr
	c, ok := sr.byName[col]
	if !ok {
		return false, false, fmt.Errorf("core: column %q is not in the shared cursor set %v", col, sr.allCols)
	}
	if c.cachedPos == sr.curPos {
		return false, false, nil
	}
	kp, ok := c.r.(colfile.KeyProber)
	if !ok {
		return false, false, nil
	}
	if err := c.r.SkipTo(sr.curPos); err != nil {
		return false, false, fmt.Errorf("core: column %q skip to %d: %w", c.name, sr.curPos, err)
	}
	return kp.HasKey(key)
}

// sharedLazyRecord is one member's lazy view over the shared cursor set —
// the shared-scan analogue of LazyRecord, scoped to the member's projection.
type sharedLazyRecord struct {
	sr *SharedReader
	m  *sharedMember
}

// Schema implements serde.Record.
func (l *sharedLazyRecord) Schema() *serde.Schema { return l.m.proj }

// Get implements serde.Record.
func (l *sharedLazyRecord) Get(name string) (any, error) {
	sr, m := l.sr, l.m
	// One lookup: the member's projection index names its cursor (colCursor).
	i := m.proj.FieldIndex(name)
	if i < 0 || len(sr.cursors) == 0 {
		return nil, fmt.Errorf("core: column %q is not in the projection %v", name, m.columns)
	}
	v, err := sr.valueAt(sr.cursors[m.colCursor[i]])
	if err != nil {
		return nil, err
	}
	sr.countMaterialized()
	return v, nil
}
