package core

import (
	"fmt"
	"slices"

	"colmr/internal/catalog"
	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
)

// Shared scans: the batch engine's storage side. There is one reader. A solo
// scan is a one-member scan; OpenShared hands the same Reader N co-scheduled
// member jobs, and the batch loop (vecexec.go) serves them all:
//
//   - the cursors cover the union of the members' projected, filter and
//     aggregate columns, and the union tier prunes with the OR of their
//     predicates, so the scan runs at the union's selectivity;
//   - each batch reaches each member as wants ∧ verdict — its wants are the
//     rows its own planner does not prune, its verdict its eval group's
//     residual (identical residuals are evaluated once) — through its sink;
//   - with N > 1 each member's own planner replays the solo reader's
//     group-tier consultations (advanceMember, wantRows): the same
//     positions, verdicts and extents, so GroupsPruned / RecordsPruned /
//     RecordsFiltered match a solo run and "pruned + filtered + returned ==
//     dataset size" holds per job. The union OR prunes only where every
//     member proves NoMatch over the same statistics, so it never skips a
//     position inside any member's may-match region. A lone member's planner
//     *is* the union planner, and replays nothing.
//
// Physical work is attributed once: each stream charges a per-cursor bucket
// that closeCursors folds into the task's (for OpenShared, the batch's
// shared) TaskStats, with SharedReads (cursor opens avoided) and BytesSaved
// (charged bytes times the extra members each stream served). Member
// TaskStats carry logical counters only.

// SharedSplits implements mapred.SharedInputFormat: per-job split planning
// (scheduler-tier elision with each job's own predicate), then
// co-scheduling. Directories surviving for the same member set merge into
// shared splits in global directory order, so each member's record order
// equals its solo split order. Cost-based admission (admitRun) splits off
// members whose union predicate would destroy a selective member's pruning,
// counting the declined pairings in each member's PruneReport.
func (f *InputFormat) SharedSplits(fs *hdfs.FileSystem, confs []*mapred.JobConf) ([]mapred.SharedSplit, []scan.PruneReport, error) {
	reports := make([]scan.PruneReport, len(confs))
	plans := make([]dirPlan, len(confs))
	// One layout snapshot per dataset for the whole batch: a manifest commit
	// landing mid-planning must not hand members different generations of
	// one cursor set. Schemas and footer statistics are immutable and come
	// through the batch's catalog, parsed once however many members ask.
	layouts := make(map[string]dsLayout)
	cat := catalog.Of(fs)
	for i, conf := range confs {
		plan, err := f.planDirs(fs, cat, conf, true, layouts)
		if err != nil {
			return nil, nil, fmt.Errorf("core: planning batch member %d: %w", i, err)
		}
		plans[i] = plan
		reports[i] = plan.report
	}
	// The batch's one union: it prints each member's predicate once, and
	// every candidate and cluster union below reuses its eval groups.
	preds := make([]scan.Predicate, len(plans))
	for i := range plans {
		preds[i] = plans[i].spec.Predicate
	}
	batch := scan.NewUnion(preds)
	// Global directory order: datasets in first-appearance order across
	// members, directories in scan order within each dataset.
	var datasetOrder []string
	allOf := make(map[string][]string)
	delOf := make(map[string]*DelSet)
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
			// A run of consecutive directories with one member set is a
			// co-scheduling unit, and its boundary a task boundary.
			j := i + 1
			for j < len(dirs) && slices.Equal(membersOf[dirs[j]], ms) {
				j++
			}
			run := dirs[i:j]
			// A member in a cluster of c declined len(ms)-c co-scan partners.
			for _, cl := range f.admitRun(cat, plans, batch, ms, run) {
				if declined := len(ms) - len(cl); declined > 0 {
					for _, m := range cl {
						reports[m].SharedDeclined += declined
					}
				}
				union := batch.Sub(cl)
				// Task sizing follows the first member's directories-per-split
				// (the batch scheduler groups only jobs whose sizing agrees).
				per := splitSize(cat, plans[cl[0]].spec.DirsPerSplit, union.Shared, plans[cl[0]].spec.Bloom(), run)
				cols := unionColumns(plans, cl)
				specs := make([]memberSpec, len(cl))
				for k, m := range cl {
					specs[k] = plans[m].memberSpec
				}
				var built []*scanPlan // the cluster's plans, one per schema
				for a := 0; a < len(run); a += per {
					b := min(a+per, len(run))
					dels := make([]*DelSet, b-a)
					for di, dir := range run[a:b] {
						dels[di] = delOf[dir]
					}
					s := &Split{Dirs: run[a:b], Dels: dels, Columns: cols, Judged: true}
					s.plan = planFor(&built, cat, specs, union, s)
					out = append(out, mapred.SharedSplit{Split: s, Members: append([]int(nil), cl...)})
				}
			}
			i = j
		}
	}
	return out, reports, nil
}

// admitRun partitions a run's member set into co-admission clusters:
// greedily, in member order, a member joins the first cluster whose widened
// union predicate stays scan.AdmissionCompatible with the cluster's most
// selective member, else opens its own. Clustering changes no member's
// output or logical counters, only which cursor sets are shared. When any
// member's selectivity cannot be estimated the set stays one cluster.
// Candidate unions are taken from the batch's union (Sub).
func (f *InputFormat) admitRun(cat *catalog.Catalog, plans []dirPlan, batch *scan.Union, ms []int, run []string) [][]int {
	if len(ms) < 2 {
		return [][]int{ms}
	}
	fracs := make(map[int]float64, len(ms))
	for _, m := range ms {
		fr := 1.0
		if pred := plans[m].spec.Predicate; pred != nil {
			var ok bool
			if fr, ok = runFraction(cat, run, pred, plans[m].spec.Bloom()); !ok {
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
			minFrac := 1.0
			for _, cm := range cand {
				if fracs[cm] < minFrac {
					minFrac = fracs[cm]
				}
			}
			// A nil union predicate means some candidate member takes every
			// record: the shared cursors run unfiltered.
			uf := 1.0
			if u := batch.Sub(cand); u.Shared != nil {
				var ok bool
				if uf, ok = runFraction(cat, run, u.Shared, plans[cand[0]].spec.Bloom()); !ok {
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
	rows, est, ok := runMatches(cat, dirs, pred, bloom)
	return est / rows, ok && rows > 0
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
	if slices.Contains(dst, col) {
		return dst
	}
	return append(dst, col)
}

// OpenShared implements mapred.SharedInputFormat: an N-member scan of the
// split (see Reader).
func (f *InputFormat) OpenShared(fs *hdfs.FileSystem, confs []*mapred.JobConf, split mapred.Split, members []int, node hdfs.NodeID, memberStats []*sim.TaskStats, shared *sim.TaskStats) (mapred.SharedRecordReader, error) {
	r, err := openReader(fs, confs, members, split, node, memberStats, shared)
	if err != nil {
		return nil, err
	}
	r.countCachedGets = true
	return (*SharedReader)(r), nil
}

// SharedReader is a Reader seen through mapred.SharedRecordReader.
type SharedReader Reader

// Next implements mapred.SharedRecordReader. The returned slices are reused
// across calls; lazy member records are valid until the next call, like the
// solo reader's.
func (s *SharedReader) Next() (any, []any, []int, bool, error) {
	r := (*Reader)(s)
	if ok, err := r.advance(); !ok {
		return nil, nil, nil, false, err
	}
	if err := r.demux(); err != nil {
		return nil, nil, nil, false, err
	}
	return nil, r.outVals, r.outIdx, true, nil
}

// Close implements mapred.SharedRecordReader.
func (s *SharedReader) Close() error { return (*Reader)(s).Close() }

// member is one job's share of a task's scan: its plan (projection,
// planner, sink) and the task's own state for it — logical accounting, lazy
// record, fold state, replay positions and batch matches.
type member struct {
	*memberPlan
	stats *sim.TaskStats
	lrec  *LazyRecord // set for a lazy member
	// fold is an aggregating member's state, its folder's when it shares one.
	fold *scan.AggState
	// Replay accounting state, reset per directory: acctPos is the next
	// unaccounted record, validTo bounds the current may-match region.
	acctPos int64
	validTo int64
	// sel picks the rows of the active batch the member takes; ready holds
	// an eager member's records of them not yet handed out.
	sel   *scan.Selection
	ready []serde.GenericRecord
}

// eager reports whether the member takes eager records.
func (m *member) eager() bool { return m.fold == nil && m.lrec == nil }

// unionPruned counts a union-tier proof over rows records: a group's, or a
// whole directory's (group false) from the file tier. A sole member's
// planner is the union's, so the count is that member's too — once, when its
// stats are the task's.
func (r *Reader) unionPruned(group bool, rows int64, byBloom bool) {
	countPruned(r.task, group, rows, byBloom)
	if m := r.members[0]; len(r.members) == 1 && m.stats != r.task {
		countPruned(m.stats, group, rows, byBloom)
	}
}

func countPruned(st *sim.TaskStats, group bool, rows int64, byBloom bool) {
	st.RecordsPruned += rows
	if group {
		st.GroupsPruned++
	}
	if byBloom {
		st.BloomPruned++
	}
}

// consult asks m's own planner for its group-tier verdict at pos, as its solo
// scan would: a NoMatch extent is counted and jumped (acctPos moves past
// it, possibly beyond the caller's limit — the proof covers the whole
// extent), a may-match one bounds the member's region. It reports whether
// pos may match.
func (r *Reader) consult(m *member, pos int64) bool {
	tri, end, byBloom := m.planner.PruneGroup(pos, r.total, r.zones)
	if tri == scan.NoMatch {
		countPruned(m.stats, true, end-pos, byBloom)
		m.acctPos = end
		return false
	}
	m.validTo = max(end, pos+1)
	return true
}

// advanceMember replays m's solo consultation sequence until every record
// below limit is accounted. Superseded rows are invisible to the solo reader
// — it steps over them before it consults a zone map — and count nowhere.
// May-match records below limit were crossed by the union cursor without
// evaluation — unreachable by the region-consistency argument above — and
// are counted filtered defensively so the per-job sum invariant cannot
// silently break.
func (r *Reader) advanceMember(m *member, limit int64) {
	for m.acctPos < limit {
		switch {
		case r.dels.has(m.acctPos):
			m.acctPos++
		case m.acctPos < m.validTo:
			m.stats.RecordsFiltered++
			m.acctPos++
		default:
			r.consult(m, m.acctPos)
		}
	}
}

// wantRows replays m's consultations across the batch [start, end) and marks
// in w the live rows the member must evaluate exactly.
func (r *Reader) wantRows(m *member, start, end int64, w *scan.Selection) {
	r.advanceMember(m, start)
	for pos := m.acctPos; pos < end; pos++ {
		if r.dels.has(pos) {
			continue
		}
		if pos >= m.validTo && !r.consult(m, pos) {
			pos = m.acctPos - 1 // the member's own tier pruned past pos
			continue
		}
		w.Set(int(pos - start))
		m.acctPos = pos + 1
	}
}

// finishDir flushes every member's replay to the end of the open directory:
// trailing regions the union tier skipped are counted with each member's own
// group-tier verdicts, exactly as its solo reader would have.
func (r *Reader) finishDir() {
	if len(r.members) == 1 || r.cursors[0].r == nil { // nil: no directory open
		return
	}
	for _, m := range r.members {
		r.advanceMember(m, r.total)
	}
}
