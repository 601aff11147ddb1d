package scan

// Spec is the typed scan specification — the format-independent query
// contract (projection + selection + materialization + task sizing) that
// travels with a job as one first-class value on mapred.JobConf.Scan. It is
// the only way to configure a scan: the builder (core.ScanDataset) fills
// one in, string-typed inputs such as `colscan -where` go through Parse and
// ParseAggregate into its fields, and the CIF planner and readers consume
// it directly.
type Spec struct {
	// Columns is the projection: the columns materialized into the records
	// handed to the map function. Empty means every column.
	Columns []string
	// Predicate is the pushdown selection; nil scans unfiltered.
	Predicate Predicate
	// Lazy selects lazy record construction (paper Section 5).
	Lazy bool
	// NoElide disables scheduler-tier split elision (and the reader's file
	// tier). The zero value — elision on — is the default; the switch
	// exists so output equivalence is testable and regressions bisectable.
	NoElide bool
	// NoBloom disables Bloom-filter consultation at every pruning tier
	// (scheduler, file, group, and the DCSL key prober), restoring
	// zone-map-only pruning. The zero value — blooms on — is the default.
	// Like NoElide it is a read-side switch: filters already written into
	// stats footers are simply not consulted, so outputs must be identical
	// either way (the property tests' bloom dimension).
	NoBloom bool
	// NoVec disables vectorized batch execution, forcing the record-at-a-
	// time scalar path. The zero value — vectorize on — is the default.
	// Like NoElide/NoBloom it is a read-side switch with identical outputs
	// either way (the property tests' vectorize dimension); it exists as
	// the escape hatch and the A/B lever for the vectorization benchmarks.
	NoVec bool
	// DirsPerSplit assigns this many split-directories to one map task,
	// overriding the input format's own setting when non-zero
	// (core.AutoDirsPerSplit sizes tasks from estimated selectivity).
	DirsPerSplit int
	// Agg, when set, turns the scan into an aggregation: the functions are
	// answered inside the scan — from zone stats or decoded vectors — and
	// no records reach the map function. The job's Result carries the
	// aggregate rows instead.
	Agg *Aggregate
}

// Elide reports whether scheduler-tier split elision is enabled.
func (s *Spec) Elide() bool { return !s.NoElide }

// Bloom reports whether Bloom-filter consultation is enabled.
func (s *Spec) Bloom() bool { return !s.NoBloom }

// Vectorize reports whether vectorized batch execution is enabled.
func (s *Spec) Vectorize() bool { return !s.NoVec }

// Clone returns a copy sharing the (immutable) predicate and a fresh
// projection slice.
func (s *Spec) Clone() *Spec {
	if s == nil {
		return nil
	}
	out := *s
	out.Columns = append([]string(nil), s.Columns...)
	out.Agg = s.Agg.Clone()
	return &out
}

// Equal reports whether two specs describe the same scan. Predicates are
// compared by their expression serialization (Predicate.String), which
// Parse reads back to the same string.
func (s *Spec) Equal(o *Spec) bool {
	if s == nil || o == nil {
		return s == o
	}
	if len(s.Columns) != len(o.Columns) {
		return false
	}
	for i := range s.Columns {
		if s.Columns[i] != o.Columns[i] {
			return false
		}
	}
	if (s.Predicate == nil) != (o.Predicate == nil) {
		return false
	}
	if s.Predicate != nil && s.Predicate.String() != o.Predicate.String() {
		return false
	}
	if !s.Agg.Equal(o.Agg) {
		return false
	}
	return s.Lazy == o.Lazy && s.NoElide == o.NoElide && s.NoBloom == o.NoBloom &&
		s.NoVec == o.NoVec && s.DirsPerSplit == o.DirsPerSplit
}
