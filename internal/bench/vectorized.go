package bench

import (
	"fmt"
	"text/tabwriter"

	"colmr/internal/colfile"
	"colmr/internal/core"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
	"colmr/internal/workload"
)

// Vectorized measures the batch execution path: the same scans run
// record-at-a-time (scan.Spec vectorization off), vectorized cold, and
// vectorized through a session whose vector cache stays warm across rounds.
// The sweep crosses predicate selectivity with the column layouts.
//
// The filter column is adversarial to the pruning stack on purpose: str1
// cycles through vecTagCycle distinct values, so every stats window spans
// the whole domain (zone maps never prune) and every window contains every
// value (Bloom filters never prune, the needle is everywhere). Both modes
// therefore decode the filter column in full over identical bytes — the
// comparison isolates execution, with pruning and I/O held fixed:
//
//	scalar     one boxed object per value through Predicate.Eval
//	           (CostModel.StringRate + ValueCost per record);
//	vectorized the same bytes decoded into flat vectors
//	           (CostModel.VecRate + VecValueCost per row, VecBatchCost
//	           per batch) and one VecEval per batch;
//	warm       rounds 2..VectorizedRounds of a session: the filter
//	           column's vectors serve from the vec.Cache — no read, no
//	           decode — visible as VecCacheHits/DecodeSavedValues.
//
// The projection is the narrow int0 column, so the comparison is not
// diluted by projection work common to both modes. The layout dimension
// spans the regimes: plain and skip-list isolate the decode loop itself;
// the compressed blocks put a decompression term — identical in both modes
// — under the ratio, LZO lightly and ZLIB heavily (inflate at 90 MB/s is
// slower than boxed string decode, so ZLIB's ratio is decompression-bound
// by construction and stays well under the uncompressed layouts').
//
// Record counts must agree across all modes and rounds; the experiment
// fails otherwise. The shape test additionally pins the acceptance floor:
// >= 2x modeled-CPU reduction on the selective string-equality arm at equal
// charged bytes, and warm rounds saving exactly Records decoded values each.

// VectorizedRounds is the number of rounds each warm session runs.
const VectorizedRounds = 3

// vectorizedSplits is the number of split-directories in the swept dataset.
const vectorizedSplits = 16

// vecTagCycle is the cardinality of the cyclic filter column: any run of
// >= vecTagCycle consecutive records contains every value, which is what
// defeats window statistics of every kind.
const vecTagCycle = 64

// tagValue renders tag v of a string filter column. Zero-padding keeps
// lexicographic order numeric, so range predicates select exact fractions
// of the tag domain.
func tagValue(v int64) string { return fmt.Sprintf("tag-%020d", v) }

// cyclicTagGen wraps the synthetic generator, replacing str1 with the
// cyclic tag.
type cyclicTagGen struct {
	*workload.Synthetic
	idx int // str1's field index, resolved from the schema
}

func (g cyclicTagGen) Record(i int64) *serde.GenericRecord {
	rec := g.Synthetic.Record(i)
	rec.SetAt(g.idx, tagValue(i%vecTagCycle))
	return rec
}

// VectorizedRound is one warm-session round of a cell.
type VectorizedRound struct {
	Cost ScanCost
	// CPU is the round's modeled decode/evaluate seconds.
	CPU float64
	// VecCacheHits and DecodeSaved are the round's vector-cache counters:
	// batches served without decoding, and the values that skipped.
	VecCacheHits int64
	DecodeSaved  int64
}

// VectorizedCell is one (layout, arm) comparison.
type VectorizedCell struct {
	Layout string
	Arm    string
	// Matches is the number of qualifying records (identical in all modes).
	Matches int64
	// Scalar and Vector are the record-at-a-time and cold vectorized costs.
	Scalar ScanCost
	Vector ScanCost
	// ScalarCPU and VectorCPU are the modeled decode/evaluate seconds the
	// acceptance ratio is judged on (I/O excluded; charged bytes are equal
	// by construction).
	ScalarCPU float64
	VectorCPU float64
	// CPURatio is ScalarCPU / VectorCPU.
	CPURatio float64
	// VecBatches and RowsVectorized are the cold vectorized run's batch
	// counters.
	VecBatches     int64
	RowsVectorized int64
	// Warm holds the session rounds (round 1 warms the empty cache).
	Warm []VectorizedRound
}

// VectorizedResult holds the sweep.
type VectorizedResult struct {
	Cells   []VectorizedCell
	Records int64
	Rounds  int
	// VecCacheBytes is each warm session's vector-cache budget.
	VecCacheBytes int64
}

// Get returns the cell for a layout and arm.
func (r *VectorizedResult) Get(layout, arm string) VectorizedCell {
	for _, c := range r.Cells {
		if c.Layout == layout && c.Arm == arm {
			return c
		}
	}
	return VectorizedCell{}
}

// vectorizedJob builds one arm's job: filter on str1, project int0, with
// the execution mode chosen through the typed builder.
func vectorizedJob(dataset string, pred scan.Predicate, vectorize bool) *mapred.Job {
	return core.ScanDataset(dataset).
		Columns("int0").
		Where(pred).
		Vectorize(vectorize).
		Job(mapred.MapperFunc(func(_, v any, emit mapred.Emit) error {
			_, err := v.(serde.Record).Get("int0")
			return err
		}))
}

// Vectorized runs the sweep.
func Vectorized(cfg Config) (*VectorizedResult, error) {
	n := cfg.records(100_000)
	syn := workload.NewSynthetic(cfg.Seed)
	idx := syn.Schema().FieldIndex("str1")
	if idx < 0 {
		return nil, fmt.Errorf("bench: synthetic schema has no str1 column")
	}
	gen := memo(cyclicTagGen{syn, idx}, n)
	cluster := sim.SingleNode()
	model := sim.DefaultModelFor(cluster)
	fs := newFS(cluster, cfg.Seed, true)

	layouts := []struct {
		name string
		opts colfile.Options
	}{
		{"plain", colfile.Options{Layout: colfile.Plain, StatsEvery: 256}},
		{"skiplist", colfile.Options{Layout: colfile.SkipList, StatsEvery: 256}},
		{"block-lzo", colfile.Options{Layout: colfile.Block, Codec: "lzo", StatsEvery: 256}},
		{"block-zlib", colfile.Options{Layout: colfile.Block, Codec: "zlib", StatsEvery: 256}},
	}
	arms := []struct {
		name string
		pred scan.Predicate
	}{
		// The headline string-equality arm: 1 in vecTagCycle records match,
		// and the needle's presence in every window keeps every byte read.
		{"eq 1/64", scan.Eq("str1", tagValue(7))},
		{"range 1/4", scan.Between("str1", tagValue(16), tagValue(31))},
		{"most 63/64", scan.Not(scan.Eq("str1", tagValue(7)))},
	}

	res := &VectorizedResult{
		Records:       n,
		Rounds:        VectorizedRounds,
		VecCacheBytes: 64 << 20,
	}
	cpu := func(st sim.TaskStats) float64 {
		return model.CPUSeconds(st.CPU) + model.VecSeconds(st)
	}
	for _, lay := range layouts {
		dir := "/vectorized/" + lay.name
		opts := core.LoadOptions{
			Default:      lay.opts,
			SplitRecords: (n + vectorizedSplits - 1) / vectorizedSplits,
		}
		if _, err := writeCIF(fs, dir, gen, n, opts, nil); err != nil {
			return nil, fmt.Errorf("loading %s: %w", lay.name, err)
		}
		for _, arm := range arms {
			scalar, err := mapred.Run(fs, vectorizedJob(dir, arm.pred, false))
			if err != nil {
				return nil, fmt.Errorf("%s %s (scalar): %w", lay.name, arm.name, err)
			}
			cold, err := mapred.Run(fs, vectorizedJob(dir, arm.pred, true))
			if err != nil {
				return nil, fmt.Errorf("%s %s (vectorized): %w", lay.name, arm.name, err)
			}
			if cold.Total.RecordsProcessed != scalar.Total.RecordsProcessed {
				return nil, fmt.Errorf("%s %s: vectorized matched %d records, scalar %d",
					lay.name, arm.name, cold.Total.RecordsProcessed, scalar.Total.RecordsProcessed)
			}
			cell := VectorizedCell{
				Layout:         lay.name,
				Arm:            arm.name,
				Matches:        scalar.Total.RecordsProcessed,
				Scalar:         scanCost(scalar.Total, model),
				Vector:         scanCost(cold.Total, model),
				ScalarCPU:      cpu(scalar.Total),
				VectorCPU:      cpu(cold.Total),
				VecBatches:     cold.Total.VecBatches,
				RowsVectorized: cold.Total.RowsVectorized,
			}
			cell.CPURatio = ratio(cell.ScalarCPU, cell.VectorCPU)

			// A fresh session per cell: round 1 warms an empty vector cache,
			// later rounds must serve the filter column entirely from it.
			session := mapred.NewSession(fs, mapred.SessionOptions{VecCacheBytes: res.VecCacheBytes})
			for round := 1; round <= VectorizedRounds; round++ {
				br, err := session.RunBatch(vectorizedJob(dir, arm.pred, true))
				if err != nil {
					return nil, fmt.Errorf("%s %s (warm round %d): %w", lay.name, arm.name, round, err)
				}
				warm := br.Results[0]
				if warm.Total.RecordsProcessed != cell.Matches {
					return nil, fmt.Errorf("%s %s: warm round %d matched %d records, scalar %d",
						lay.name, arm.name, round, warm.Total.RecordsProcessed, cell.Matches)
				}
				work := br.Work()
				cell.Warm = append(cell.Warm, VectorizedRound{
					Cost:         scanCost(warm.Total, model),
					CPU:          cpu(warm.Total),
					VecCacheHits: work.VecCacheHits,
					DecodeSaved:  work.DecodeSavedValues,
				})
			}
			res.Cells = append(res.Cells, cell)
		}
	}

	cfg.printf("Vectorized execution sweep: batch evaluation + vector cache vs record-at-a-time (%d records, %d split-directories, filter on cyclic str1 — unprunable by construction — project int0, %d warm rounds, %d MB vector cache)\n",
		n, vectorizedSplits, VectorizedRounds, res.VecCacheBytes>>20)
	cfg.table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "layout\tarm\tmatches\tscalar CPU\tvec CPU\tratio\tbatches\trows vec\tcharged MB\twarm CPU (last)\twarm hits\tdecode saved")
		for _, c := range res.Cells {
			last := c.Warm[len(c.Warm)-1]
			fmt.Fprintf(w, "%s\t%s\t%d\t%.4fs\t%.4fs\t%.1fx\t%d\t%d\t%.2f\t%.4fs\t%d\t%d\n",
				c.Layout, c.Arm, c.Matches,
				c.ScalarCPU, c.VectorCPU, c.CPURatio,
				c.VecBatches, c.RowsVectorized,
				float64(c.Vector.ChargedBytes)/(1<<20),
				last.CPU, last.VecCacheHits, last.DecodeSaved)
		}
	})
	cfg.printf("\n")
	return res, nil
}
