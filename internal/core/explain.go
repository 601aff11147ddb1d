package core

import (
	"fmt"
	"strings"

	"colmr/internal/catalog"
	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/sim"
)

// EXPLAIN: the cost-based plan for one job, built from the same footer
// statistics the scheduler tier prunes with, plus — after the run — the
// estimated-vs-actual comparison per pruning tier. Explain never touches
// data regions and never mutates the job; Apply installs the plan's
// choices into the job's spec, honoring anything the caller pinned.

// QueryPlan is the plan Explain builds for one job before it runs.
type QueryPlan struct {
	// Predicate is the rendered predicate ("" when the scan is
	// unfiltered); FilterCols are its filter columns.
	Predicate  string
	FilterCols []string

	// Scheduler-tier estimate: of SplitsTotal listed split-directories,
	// SplitsEst are expected to survive footer pruning.
	SplitsTotal int
	SplitsEst   int

	// Row estimates. RowsTotal counts every listed directory; RowsKept
	// counts the directories expected to survive; RowsEst of those are
	// expected to qualify, a Fraction of RowsKept.
	RowsTotal int64
	RowsKept  int64
	RowsEst   float64
	Fraction  float64
	// Estimated reports whether footer statistics informed the numbers;
	// false means estimation failed and every choice fell back to its
	// default.
	Estimated bool

	// The cost-based choices (scan.ChoosePlan), and whether the caller
	// pinned each one (a pinned setting is reported, never overridden).
	Lazy       bool
	LazyPinned bool
	AutoSize   bool
	SizePinned bool

	// Modeled cost of the chosen plan: the bytes it expects to charge and
	// sim.CostModel.PlannedScanSeconds over them.
	EstBytes   int64
	EstSeconds float64

	// Reasons records why each choice fell the way it did, one line per
	// decision.
	Reasons []string
}

// Explain builds the cost-based plan for one job without running it. All
// reads are planning metadata (footers, stats sections, schema files) —
// never data. Estimation failure is not an error: the plan degrades to
// the defaults and says so.
func (f *InputFormat) Explain(fs *hdfs.FileSystem, conf *mapred.JobConf, model sim.CostModel) (*QueryPlan, error) {
	m, err := resolveMember(conf)
	if err != nil {
		return nil, err
	}
	spec, pred, planner := m.spec, m.spec.Predicate, m.planner
	p := &QueryPlan{
		FilterCols: planner.FilterColumns(),
		LazyPinned: spec.Lazy,
		SizePinned: spec.DirsPerSplit != 0,
		Estimated:  true,
	}
	if pred != nil {
		p.Predicate = pred.String()
	}

	// The columns a map task will open, as planDirs ranks locality by.
	cols := taskColumns(spec)
	filter := make(map[string]bool, len(p.FilterCols))
	for _, c := range p.FilterCols {
		filter[c] = true
	}

	cat := catalog.Of(fs)
	var filterBytes, otherBytes int64
	for _, dataset := range conf.InputPaths {
		layout, err := layoutCached(fs, dataset, nil)
		if err != nil {
			return nil, err
		}
		for _, dir := range layout.dirs {
			p.SplitsTotal++
			rows, est, ok := estimateDirMatches(cat, dir, pred, spec.Bloom())
			if !ok {
				p.Estimated = false
				p.SplitsEst++
				continue
			}
			p.RowsTotal += int64(rows)
			if pred != nil && spec.Elide() && est == 0 {
				continue // expected to be pruned at the scheduler tier
			}
			p.SplitsEst++
			p.RowsKept += int64(rows)
			p.RowsEst += est
			fb, ob := dirColumnBytes(fs, cat, dir, cols, filter)
			filterBytes += fb
			otherBytes += ob
		}
	}
	if p.RowsKept > 0 {
		p.Fraction = p.RowsEst / float64(p.RowsKept)
	}

	choice := scan.ChoosePlan(scan.PlanInputs{
		HasPredicate: pred != nil,
		Fraction:     p.Fraction,
		Estimated:    p.Estimated,
		Dirs:         p.SplitsEst,
	})
	p.Lazy, p.AutoSize, p.Reasons = choice.Lazy, choice.AutoSize, choice.Reasons
	if p.LazyPinned {
		p.Lazy = true
		p.Reasons = append(p.Reasons, "materialization pinned by the caller: lazy")
	}
	if p.SizePinned {
		p.AutoSize = spec.DirsPerSplit == AutoDirsPerSplit
		p.Reasons = append(p.Reasons, fmt.Sprintf("task sizing pinned by the caller: DirsPerSplit=%d", spec.DirsPerSplit))
	}

	// Byte model of the chosen plan: filter columns stream regardless; a
	// lazy scan touches only the qualifying fraction of the remaining
	// projected bytes, an eager one all of them.
	p.EstBytes = filterBytes + otherBytes
	if p.Lazy && pred != nil {
		p.EstBytes = filterBytes + int64(p.Fraction*float64(otherBytes))
	}
	p.EstSeconds = model.PlannedScanSeconds(p.EstBytes, int64(p.RowsEst+0.5))
	return p, nil
}

// dirColumnBytes sums one directory's column-file sizes, split into the
// predicate's filter columns and the rest. cols nil means every column of
// the split schema. Missing files contribute nothing — the task that opens
// them will surface the error.
func dirColumnBytes(fs *hdfs.FileSystem, cat *catalog.Catalog, dir string, cols []string, filter map[string]bool) (filterBytes, otherBytes int64) {
	names := cols
	if names == nil {
		schema, err := readSplitSchema(cat, dir)
		if err != nil {
			return 0, 0
		}
		names = schema.FieldNames()
	}
	for _, col := range names {
		hr, err := fs.Open(dir+"/"+col, hdfs.AnyNode)
		if err != nil {
			continue
		}
		if filter[col] {
			filterBytes += hr.Size()
		} else {
			otherBytes += hr.Size()
		}
		hr.Close()
	}
	return filterBytes, otherBytes
}

// Apply installs the plan's choices into the job's spec. Pinned settings
// are untouched: Apply upgrades defaults, it never overrides the caller.
func (p *QueryPlan) Apply(conf *mapred.JobConf) {
	if conf.Scan == nil {
		conf.Scan = &scan.Spec{}
	}
	spec := conf.Scan
	if !p.LazyPinned {
		spec.Lazy = p.Lazy
	}
	if !p.SizePinned && p.AutoSize {
		spec.DirsPerSplit = AutoDirsPerSplit
	}
}

// Summary renders the chosen plan in one line.
func (p *QueryPlan) Summary() string {
	mat := "eager"
	if p.Lazy {
		mat = "lazy"
	}
	sizing := "constant task sizing"
	if p.AutoSize {
		sizing = "auto task sizing"
	}
	if p.Predicate == "" {
		return fmt.Sprintf("unfiltered scan, %s materialization, %s", mat, sizing)
	}
	return fmt.Sprintf("where %s: %s materialization, %s, estimated fraction %.4f", p.Predicate, mat, sizing, p.Fraction)
}

// String renders the full pre-run plan: the choices, the estimates they
// came from, and the reasons.
func (p *QueryPlan) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan: %s\n", p.Summary())
	fmt.Fprintf(&sb, "  scheduler: %d/%d split-directories estimated to survive footer pruning\n", p.SplitsEst, p.SplitsTotal)
	fmt.Fprintf(&sb, "  records:   ~%.0f of %d estimated to qualify\n", p.RowsEst, p.RowsTotal)
	fmt.Fprintf(&sb, "  modeled:   ~%.4fs over ~%.2f MB charged\n", p.EstSeconds, float64(p.EstBytes)/(1<<20))
	sb.WriteString("  why:\n")
	for _, r := range p.Reasons {
		fmt.Fprintf(&sb, "   - %s\n", r)
	}
	return strings.TrimRight(sb.String(), "\n")
}

// Report renders the estimated-vs-actual comparison per pruning tier after
// the job ran: scheduler-tier survival, qualifying records, skipped
// records, and modeled time. This is the accountability half of EXPLAIN —
// a plan that mis-estimated shows it here, in the same units it planned
// in.
func (p *QueryPlan) Report(res *mapred.Result, model sim.CostModel) string {
	var sb strings.Builder
	sb.WriteString("explain: estimated vs actual\n")
	actualKept := res.Plan.SplitsTotal - res.Plan.SplitsPruned
	fmt.Fprintf(&sb, "  scheduler: estimated %d/%d split-directories survive; actual %d/%d (%d pruned, %d footers read)\n",
		p.SplitsEst, p.SplitsTotal, actualKept, res.Plan.SplitsTotal, res.Plan.SplitsPruned, res.Plan.FilesChecked)
	fmt.Fprintf(&sb, "  records:   estimated ~%.0f qualify; actual %d matched\n",
		p.RowsEst, res.Total.RecordsProcessed)
	fmt.Fprintf(&sb, "  pruned:    estimated ~%.0f skipped; actual %d pruned (groups+splits) + %d filtered\n",
		float64(p.RowsTotal)-p.RowsEst, res.Total.RecordsPruned, res.Total.RecordsFiltered)
	fmt.Fprintf(&sb, "  modeled:   estimated ~%.4fs; actual %.4fs",
		p.EstSeconds, model.ScanSeconds(res.Total))
	if res.Plan.SharedDeclined > 0 {
		fmt.Fprintf(&sb, "\n  admission: %d shared-scan co-members declined (union would destroy pruning)", res.Plan.SharedDeclined)
	}
	return sb.String()
}
