// Package scan implements the selection-aware scan subsystem: typed
// predicates that CIF pushes below record materialization, the per-group
// statistics vocabulary (zone maps, key universes, Bloom filters) that
// lets a predicate prove a whole record group irrelevant without
// decompressing or deserializing it, and the hierarchical Planner that
// applies those proofs at every tier of the scheduler→file→group→value
// pipeline.
//
// The paper's CIF format (Sections 4-5) pushes *projection* into the
// storage layer; this package adds *selection*. A Predicate is a tree of
// comparisons, ranges, string-prefix tests, null checks, map-key-exists
// tests, and boolean connectives. It supports three progressively cheaper
// evaluation modes:
//
//	Eval      exact, per record, over materialized column values;
//	VecEval   exact, per batch: the same verdicts as Eval computed over
//	          column vectors (Vector) and selection bitmaps (Selection),
//	          with AND/OR as narrowing/union bitmap arithmetic so a
//	          column alive only under an empty selection is never
//	          decoded — see docs/VECTORIZED.md;
//	Prune     conservative, per record group, over ColStats — one
//	          three-valued verdict, NoMatch < MayMatch < AllMatch: NoMatch
//	          proves the group holds no qualifying record, AllMatch that
//	          every record qualifies (And takes the least of its children,
//	          Or the greatest, and Not swaps the two proofs).
//
// ColStats carries the statistics one record group (or one whole file,
// after Merge) exposes to Prune: Min/Max bounds, null and distinct
// counts, the map-key universe, and an optional blocked Bloom filter over
// the group's byte strings (values for string/bytes columns, keys for map
// columns). Zone maps decide range shapes; the filter decides equality on
// unsorted high-cardinality data, where [Min, Max] spans everything and
// proves nothing. A bloom-negative probe is a proof of absence, so it
// slots into Prune beside the bounds; Spec.NoBloom (the builder's
// Bloom(false)) disables consultation for a job without touching written
// files.
//
// Predicates print to a small expression language (String/Parse round
// trip), which is how the colscan -where flag and the scan server's
// POST /query spell them; the typed Spec on mapred.JobConf.Scan is the only
// form a job carries (see conf.go).
//
// Aggregate carries the other pushdown (agg.go, docs/AGGREGATION.md): a
// parsed function list (count/count(col)/min/max/sum, optional GROUP BY)
// whose AggState folds rows at whichever site the readers find cheapest —
// whole record groups from ColStats alone (StatsAnswerable/FoldStats),
// batch survivors from a Selection and its Vectors (FoldBatch), or single
// records (FoldRecord) — with Merge combining per-task partial states.
// All sites and any merge order produce identical rows (agg_test.go). For
// equality predicates on dictionary-encoded string columns, IDVector
// (idvec.go) lets VecEval compare window-local dictionary ids instead of
// decoded strings.
//
// Roles in the scheduler→file→group→value pipeline: Planner is the single
// pruning implementation every consumer drives — the split scheduler's
// elision tier (core.InputFormat.PlannedSplits), the reader's file tier,
// and both readers' group tiers — so a proof is identical wherever it
// fires. EstimateFraction turns the same statistics into selectivity
// estimates for task sizing and batch costing; estimates never affect
// correctness, only granularity.
//
// Invariants the property tests defend:
//
//   - Pushdown equivalence (property_test.go): a pushdown scan returns
//     exactly the records a full scan plus an in-memory filter returns,
//     over random schemas, predicates, layouts, projections, and both
//     execution modes (the vectorize dimension is randomized) — a Prune
//     verdict is a proof, never a heuristic.
//   - Verdict soundness (verdict_property_test.go): over random records
//     written through colfile at mixed group geometries, no record of a
//     NoMatch region satisfies Eval and every record of an AllMatch
//     region does.
//   - Vectorized equivalence (vector_test.go): VecEval's selection
//     bitmaps equal per-record Eval verdicts — including which inputs
//     error — over random vectors with nulls, type-mismatched literals,
//     and empty selections.
//   - Elision equivalence (elision_property_test.go): scans with
//     scheduler-tier elision on and off, and with Bloom consultation on
//     and off, return identical records; "records pruned at any tier +
//     records filtered + records returned == dataset size" holds in every
//     mode; BloomPruned stays within GroupsPruned and is zero when
//     consultation is off.
//   - Parser totality (parse_fuzz_test.go): Parse and ParseAggregate
//     never panic, and whatever they accept prints to a form that parses
//     back to the same print.
package scan
