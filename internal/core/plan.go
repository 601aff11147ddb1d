package core

import (
	"fmt"
	"slices"

	"colmr/internal/catalog"
	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/serde"
)

// The scan plan. What a scan decides before it reads a byte depends on its
// member jobs and its directories' schema, not on which directories one
// task reads. SharedSplits plans once per co-admission cluster and schema,
// Splits and PlannedSplits once per schema, and each split points at its
// plan; a task only opens cursors against it. Open plans a split that
// carries no plan for its jobs (hand-built, or planned for others) with the
// same function. A plan lives as long as its batch's splits.

// memberSpec is one job resolved for planning, once per batch (planDirs).
type memberSpec struct {
	src     *scan.Spec // the conf's Scan: a task's conf fits a plan by it
	spec    scan.Spec
	planner *scan.Planner // the job's own predicate; immutable
}

// resolveMember resolves a job's spec and builds its own planner.
func resolveMember(conf *mapred.JobConf) (memberSpec, error) {
	spec, err := resolveSpec(conf)
	if err != nil {
		return memberSpec{}, err
	}
	planner := scan.NewPlanner(spec.Predicate)
	// The member's planner carries its own bloom setting, so its pruning
	// and replayed counters match a solo run exactly.
	planner.SetBloom(spec.Bloom())
	return memberSpec{src: conf.Scan, spec: spec, planner: planner}, nil
}

// scanPlan is the plan of one member set's scan over directories of one
// schema. Every task that opens it reads it concurrently, so nothing writes
// it once it is built.
type scanPlan struct {
	// err is the error planning met — a column the schema lacks, a schema
	// that cannot be read or that the split's directories disagree on —
	// returned by every task that opens the plan, and by none when none does.
	err    error
	schema *serde.Schema // full dataset schema
	jobs   []memberPlan  // one per member, in member order
	// planner drives the union predicate (the OR of the members'; a single
	// member's own) through the file and group tiers.
	planner *scan.Planner
	// groupPred holds one residual predicate per eval group: members with
	// identical predicates share one verdict per batch.
	groupPred []scan.Predicate
	allCols   []string // cursor set: projected, then filter, then aggregate columns
	needers   []int    // members needing each cursor's column (N > 1)
	// probeOnly marks filter columns safe for batch key probing, idOnly those
	// safe for dictionary-id evaluation: read by the residuals alone, never
	// projected (nor, for ids, aggregated), so consuming their stream without
	// producing values cannot starve a later value access.
	probeOnly map[string]bool
	idOnly    map[string]bool
	eager     int // members taking eager records
	// noBloom is set when any member disabled Bloom consultation: the union
	// tier must not out-prune that member's own replay, and the DCSL key
	// prober's physical charges must be that member's solo ones.
	noBloom bool
	// vectorize selects batch-at-a-time evaluation and eager assembly; unset
	// when any member set Spec.NoVec, which runs the loop a row at a time.
	vectorize bool
	// fileTier turns on the file pruning tier, which reads footers through
	// the filesystem's catalog: for one filtering member that keeps elision,
	// over splits the scheduler has not judged (over N, a directory the union
	// predicate proved empty would skip the member replay that accounts it
	// per job).
	fileTier bool
}

// memberPlan is one job's share of a plan: its projection, its planner and
// its sink.
type memberPlan struct {
	memberSpec
	proj      *serde.Schema
	columns   []string // projected columns, record field order
	colCursor []int    // cursor index of each projected column
	evalGroup int
	aggCols   []string
	// Members with the same aggregate in one eval group share a fold, and
	// the first of them, the folder, folds for all: foldOwner.
	folder    bool
	foldOwner int
	// proxyOnly marks a projection invented for a pure COUNT: the column
	// paces the scan but its values are never read, so it does not
	// disqualify probe-only or dictionary-id evaluation.
	proxyOnly bool
}

// fits reports whether p was planned for the jobs confs[members[k]].
func (p *scanPlan) fits(confs []*mapred.JobConf, members []int) bool {
	ok := p != nil && len(p.jobs) == len(members)
	for k := 0; ok && k < len(members); k++ {
		ok = confs[members[k]].Scan == p.jobs[k].src
	}
	return ok
}

// planFor returns split s's plan for the members ms under their union u:
// one in built for the same schema, else a new one added to it.
func planFor(built *[]*scanPlan, cat *catalog.Catalog, ms []memberSpec, u *scan.Union, s *Split) *scanPlan {
	schema, err := splitSchema(cat, s.Dirs)
	if err != nil {
		return planScan(ms, u, schema, err, s)
	}
	for _, p := range *built {
		if p.schema.Equal(schema) {
			return p
		}
	}
	p := planScan(ms, u, schema, nil, s)
	*built = append(*built, p)
	return p
}

// openPlan plans split s at Open through the filesystem's catalog.
func openPlan(fs *hdfs.FileSystem, confs []*mapred.JobConf, members []int, s *Split) *scanPlan {
	ms := make([]memberSpec, len(members))
	preds := make([]scan.Predicate, len(members))
	for k, mi := range members {
		var err error
		if ms[k], err = resolveMember(confs[mi]); err != nil {
			return &scanPlan{err: err}
		}
		preds[k] = ms[k].spec.Predicate
	}
	schema, err := splitSchema(catalog.Of(fs), s.Dirs)
	return planScan(ms, scan.NewUnion(preds), schema, err, s)
}

// splitSchema returns the schema of a split's directories: the first one's,
// which every other must share.
func splitSchema(cat *catalog.Catalog, dirs []string) (*serde.Schema, error) {
	schema, err := readSplitSchema(cat, dirs[0])
	for i := 1; i < len(dirs) && err == nil; i++ {
		var other *serde.Schema
		if other, err = readSplitSchema(cat, dirs[i]); err == nil && !other.Equal(schema) {
			err = fmt.Errorf("core: split-directory %s schema differs from %s", dirs[i], dirs[0])
		}
	}
	return schema, err
}

// planScan joins the members into one scan of split's directories, of
// schema (err when that could not be settled): each member's projection and
// columns, the union planner and the eval groups (from u, the members'
// union), the cursor set, each member's sink, and which filter columns a
// batch may answer by key probe or dictionary id.
func planScan(ms []memberSpec, u *scan.Union, schema *serde.Schema, err error, split *Split) *scanPlan {
	p := &scanPlan{schema: schema, jobs: make([]memberPlan, len(ms)), vectorize: true,
		fileTier: len(ms) == 1 && ms[0].spec.Predicate != nil && ms[0].spec.Elide() && !split.Judged}
	for k := range ms {
		s := &ms[k].spec
		if p.jobs[k].memberSpec = ms[k]; err == nil {
			// A record-taking member with no projection of its own reads the
			// split's locality columns.
			err = p.jobs[k].plan(schema, split.Columns)
		}
		p.noBloom = p.noBloom || !s.Bloom()
		// One scalar member makes the whole cursor set scalar: the switch is
		// an A/B lever, and mixing modes inside one batch would blur what it
		// measures.
		p.vectorize = p.vectorize && s.Vectorize()
	}
	if err != nil {
		// Every member still names its spec: a task of these jobs opens the
		// plan and returns err.
		return &scanPlan{schema: schema, jobs: p.jobs, err: err}
	}
	p.groupPred = u.Groups
	for k := range p.jobs {
		p.jobs[k].evalGroup = u.EvalGroups[k]
	}
	// A lone member's planner is the union's — the same predicate, the same
	// Bloom setting. N members plan the OR of theirs.
	if p.planner = p.jobs[0].planner; len(p.jobs) > 1 {
		p.planner = scan.NewPlanner(u.Shared)
		p.planner.SetBloom(!p.noBloom)
	}
	// Projected columns first, in member order — a lone member's cursors
	// then start with its projection, in order — then filter and aggregate
	// columns, which feed evaluation and folding but never appear in a
	// returned record.
	for _, m := range p.jobs {
		for _, c := range m.columns {
			p.allCols = appendColumnName(p.allCols, c)
		}
	}
	for _, m := range p.jobs {
		for _, c := range m.planner.FilterColumns() {
			p.allCols = appendColumnName(p.allCols, c)
		}
	}
	for _, m := range p.jobs {
		for _, c := range m.aggCols {
			p.allCols = appendColumnName(p.allCols, c)
		}
	}
	// Probe and id eligibility is judged across every residual and every
	// member's needs at once: a column any member materializes or
	// aggregates needs its values, so the shared cursor must not spend its
	// stream on a probe or on ids.
	if len(p.groupPred) > 0 {
		p.probeOnly, p.idOnly = make(map[string]bool), make(map[string]bool)
		for _, col := range scan.ProbeOnlyColumns(p.groupPred...) {
			p.probeOnly[col] = true
		}
		for _, col := range scan.IDOnlyColumns(p.groupPred...) {
			p.idOnly[col] = true
		}
	}
	for k := range p.jobs {
		m := &p.jobs[k]
		m.colCursor = make([]int, len(m.columns))
		for i, col := range m.columns {
			m.colCursor[i] = slices.Index(p.allCols, col)
			if !m.proxyOnly {
				delete(p.probeOnly, col)
				delete(p.idOnly, col)
			}
		}
		for _, col := range m.aggCols {
			delete(p.idOnly, col)
		}
		switch {
		case m.spec.Agg != nil:
			m.folder, m.foldOwner = true, k
			for o, om := range p.jobs[:k] {
				if om.folder && om.evalGroup == m.evalGroup && om.spec.Agg.Equal(m.spec.Agg) {
					m.folder, m.foldOwner = false, o
					break
				}
			}
		case !m.spec.Lazy:
			p.eager++
		}
	}
	if len(p.jobs) > 1 {
		p.needers = make([]int, len(p.allCols))
		for ci, col := range p.allCols {
			for _, m := range p.jobs {
				if slices.Contains(m.columns, col) || slices.Contains(m.planner.FilterColumns(), col) || slices.Contains(m.aggCols, col) {
					p.needers[ci]++
				}
			}
		}
	}
	return p
}

// plan resolves one job's projection and columns against the dataset
// schema.
func (m *memberPlan) plan(schema *serde.Schema, splitCols []string) error {
	spec := &m.spec
	columns := spec.Columns
	if len(columns) == 0 && spec.Agg == nil {
		columns = splitCols
	}
	if spec.Agg != nil && len(columns) == 0 {
		// An aggregation with no explicit projection reads only its own
		// columns; a pure COUNT reads none, so any one column (the
		// narrowest proxy for the record count) stands in.
		if columns = spec.Agg.Columns(nil); len(columns) == 0 {
			m.proxyOnly = true
			if fc := m.planner.FilterColumns(); len(fc) > 0 {
				columns = fc[:1]
			} else if len(schema.Fields) > 0 {
				columns = []string{schema.Fields[0].Name}
			}
		}
	}
	m.proj = schema
	if len(columns) > 0 {
		var err error
		if m.proj, err = schema.Project(columns...); err != nil {
			return &scan.QueryError{Err: err}
		}
	} else {
		columns = schema.FieldNames()
	}
	m.columns = columns
	for _, col := range m.planner.FilterColumns() {
		if schema.Field(col) == nil {
			return &scan.QueryError{Err: fmt.Errorf("core: predicate references unknown column %q", col)}
		}
	}
	m.aggCols = spec.Agg.Columns(nil)
	for _, col := range m.aggCols {
		if schema.Field(col) == nil {
			return &scan.QueryError{Err: fmt.Errorf("core: aggregate references unknown column %q", col)}
		}
	}
	return nil
}
