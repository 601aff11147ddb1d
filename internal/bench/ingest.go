package bench

import (
	"fmt"
	"text/tabwriter"

	"colmr/internal/colfile"
	"colmr/internal/core"
	"colmr/internal/ingest"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
	"colmr/internal/workload"
)

// Ingest sweeps the streaming write path: arrival rate x compaction cadence
// x recrawl fraction over the crawl workload. Each cell replays the same
// arrival stream twice —
//
//	streamed   through ingest.Ingester: memtable flushes into fresh
//	           time-partitioned partitions, recrawl upserts resolved by
//	           position deletes, compaction (cadence > 0) folding the
//	           fresh partitions into large statistics-rich ones;
//	bulk       the stream's final record set (latest version per URL, in
//	           last-arrival order) loaded once through core.NewWriter —
//	           the batch-era control the streamed dataset is judged
//	           against.
//
// Both datasets then serve an identical selective query (the most recent
// ~10% of fetchTimes, projecting url), which must return the same matches;
// for compacted cells the streamed dataset must prune at least as many
// records from zone statistics as the bulk control — compaction's whole
// point is that streamed data converges to bulk-loaded statistics quality.
//
// The content arm exercises adaptive readahead (PR 2) inside the
// multi-KB content column: the same selective predicate projecting content
// jumps between qualifying record groups, shrinking the refill window, while
// the dense control (no pushdown, filter in the visit function) streams the
// whole column at full readahead. The gap is the within-file I/O the
// selective path avoided.

// IngestRates are the swept mean arrival rates (arrivals per modeled second).
var IngestRates = []float64{100, 400}

// IngestCadences are the swept compaction cadences in flushes per
// compaction; 0 never compacts, leaving every partition fresh
// (merge-on-read at scan time).
var IngestCadences = []int{0, 4}

// IngestRecrawls are the swept recrawl fractions.
var IngestRecrawls = []float64{0, 0.3}

// IngestCell is one (rate, cadence, recrawl) run.
type IngestCell struct {
	Rate    float64
	Cadence int
	Recrawl float64
	// Arrivals is the stream length; LiveRows the distinct URLs surviving
	// it; Upserts the superseded versions the ingest path retired.
	Arrivals int64
	LiveRows int64
	Upserts  int64
	// FlushedFiles / Generations / CompactionBytes profile the write path.
	FlushedFiles    int64
	Generations     int64
	CompactionBytes int64
	// WriteAmp is ingest bytes written (flushes + compaction rewrites) over
	// the bulk control's bytes written.
	WriteAmp float64
	// Streamed / Bulk are the selective url query over each dataset;
	// FreshScanned is the fresh partitions the streamed scan merged on read.
	Streamed     ScanCost
	Bulk         ScanCost
	FreshScanned int64
	// ContentSelective / ContentDense are the content-column readahead
	// arms over the streamed dataset; ReadaheadSaved is the charged bytes
	// the selective path avoided within the content files.
	ContentSelective ScanCost
	ContentDense     ScanCost
	ReadaheadSaved   int64
}

// IngestResult holds the sweep.
type IngestResult struct {
	Cells    []IngestCell
	Arrivals int64
}

// Get returns the cell for a (rate, cadence, recrawl) triple.
func (r *IngestResult) Get(rate float64, cadence int, recrawl float64) IngestCell {
	for _, c := range r.Cells {
		if c.Rate == rate && c.Cadence == cadence && c.Recrawl == recrawl {
			return c
		}
	}
	return IngestCell{}
}

// ingestLoad is the shared load geometry: skip-listed scalars, DCSL on the
// metadata map, splits and record groups small enough that benchmark-scale
// datasets (including the shape test's) still have several groups to
// prune.
func ingestLoad() core.LoadOptions {
	return core.LoadOptions{
		Default:      colfile.Options{Layout: colfile.SkipList, StatsEvery: 64},
		PerColumn:    map[string]colfile.Options{"metadata": {Layout: colfile.DCSL, StatsEvery: 64}},
		SplitRecords: 512,
	}
}

// Ingest runs the sweep.
func Ingest(cfg Config) (*IngestResult, error) {
	n := cfg.records(2500)
	cluster := sim.SingleNode()
	model := sim.DefaultModelFor(cluster)
	res := &IngestResult{Arrivals: n}

	for _, rate := range IngestRates {
		for _, cadence := range IngestCadences {
			for _, recrawl := range IngestRecrawls {
				cell, err := ingestCell(cfg, cluster, model, n, rate, cadence, recrawl)
				if err != nil {
					return nil, fmt.Errorf("ingest rate=%g cadence=%d recrawl=%g: %w",
						rate, cadence, recrawl, err)
				}
				res.Cells = append(res.Cells, *cell)
			}
		}
	}

	cfg.printf("Streaming ingest sweep: rate x compaction cadence x recrawl (%d arrivals/cell, crawl schema, query = most recent 10%% of fetchTimes)\n", n)
	cfg.table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "rate/s\tcadence\trecrawl\tlive\tupserts\tfiles\tcompact MB\twrite amp\tstream charged MB\tbulk charged MB\tpruned s/b\tfresh\tcontent sel MB\tcontent dense MB\treadahead saved MB")
		for _, c := range res.Cells {
			fmt.Fprintf(w, "%.0f\t%d\t%.1f\t%d\t%d\t%d\t%.2f\t%.2fx\t%.2f\t%.2f\t%d/%d\t%d\t%.2f\t%.2f\t%.2f\n",
				c.Rate, c.Cadence, c.Recrawl, c.LiveRows, c.Upserts,
				c.FlushedFiles, float64(c.CompactionBytes)/(1<<20), c.WriteAmp,
				float64(c.Streamed.ChargedBytes)/(1<<20),
				float64(c.Bulk.ChargedBytes)/(1<<20),
				c.Streamed.RecordsPruned, c.Bulk.RecordsPruned,
				c.FreshScanned,
				float64(c.ContentSelective.ChargedBytes)/(1<<20),
				float64(c.ContentDense.ChargedBytes)/(1<<20),
				float64(c.ReadaheadSaved)/(1<<20))
		}
	})
	cfg.printf("\n")
	return res, nil
}

func ingestCell(cfg Config, cluster sim.ClusterConfig, model sim.CostModel, n int64, rate float64, cadence int, recrawl float64) (*IngestCell, error) {
	fs := newFS(cluster, cfg.Seed, true)
	stream := workload.NewArrivalStream(workload.ArrivalOptions{
		// Content must outsize the 1MB readahead window per split even at
		// the shape test's scale, or the first refill swallows the whole
		// file and adaptive shrink has nothing left to save.
		Crawl:           workload.CrawlOptions{Seed: cfg.Seed, ContentBytes: 6000, Inlinks: 2},
		Seed:            cfg.Seed,
		RatePerSec:      rate,
		RecrawlFraction: recrawl,
	})
	schema := stream.Crawl().Schema()
	urlI := schema.FieldIndex("url")

	const streamed = "/ingest/streamed"
	var istats sim.TaskStats
	ing, err := ingest.New(fs, ingest.Options{
		Dataset:         streamed,
		Schema:          schema,
		Key:             "url",
		TimeColumn:      "fetchTime",
		BucketMillis:    4000,
		MemtableRecords: 256,
		CompactEvery:    cadence,
		Load:            ingestLoad(),
		Stats:           &istats,
	})
	if err != nil {
		return nil, err
	}

	// Replay the stream, tracking the final record set: latest version per
	// URL, positioned at its last arrival — the order a bulk load of "what
	// the stream left behind" would use.
	type slot struct{ rec *serde.GenericRecord }
	var order []*slot
	last := map[string]*slot{}
	var firstMs, lastMs int64
	for i := int64(0); i < n; i++ {
		a := stream.Next()
		if i == 0 {
			firstMs = a.Millis
		}
		lastMs = a.Millis
		if err := ing.Append(a.Rec); err != nil {
			return nil, err
		}
		key := a.Rec.GetAt(urlI).(string)
		if s := last[key]; s != nil {
			s.rec = nil
		}
		s := &slot{rec: a.Rec}
		last[key] = s
		order = append(order, s)
	}
	if err := ing.Flush(); err != nil {
		return nil, err
	}
	if cadence > 0 {
		if err := ing.Compact(); err != nil {
			return nil, err
		}
		if err := ing.GC(); err != nil {
			return nil, err
		}
	}

	// The bulk control: the same final set loaded batch-style.
	const bulk = "/ingest/bulk"
	var bstats sim.TaskStats
	w, err := core.NewWriter(fs, bulk, schema, ingestLoad(), &bstats)
	if err != nil {
		return nil, err
	}
	var live int64
	for _, s := range order {
		if s.rec == nil {
			continue
		}
		live++
		if err := w.Append(s.rec); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}

	cell := &IngestCell{
		Rate:            rate,
		Cadence:         cadence,
		Recrawl:         recrawl,
		Arrivals:        n,
		LiveRows:        live,
		Upserts:         istats.UpsertsResolved,
		FlushedFiles:    istats.FlushedFiles,
		Generations:     ing.Generation(),
		CompactionBytes: istats.CompactionBytes,
		WriteAmp:        ratio(float64(istats.IO.BytesWritten), float64(bstats.IO.BytesWritten)),
	}
	if cell.Upserts != n-live {
		return nil, fmt.Errorf("resolved %d upserts, stream superseded %d", cell.Upserts, n-live)
	}

	// The selective query: the most recent ~10% of fetchTimes.
	cutoff := firstMs + (lastMs-firstMs)*9/10
	pred := scan.Gt("fetchTime", cutoff)
	urlScan := func(dir string) (sim.TaskStats, int64, error) {
		conf := core.ScanDataset(dir).Columns("url").Where(pred).Conf()
		return scanSplits(fs, &core.InputFormat{}, &conf, nil)
	}
	sSt, sMatches, err := urlScan(streamed)
	if err != nil {
		return nil, err
	}
	bSt, bMatches, err := urlScan(bulk)
	if err != nil {
		return nil, err
	}
	if sMatches != bMatches {
		return nil, fmt.Errorf("streamed scan matched %d records, bulk %d", sMatches, bMatches)
	}
	cell.Streamed = scanCost(sSt, model)
	cell.Bulk = scanCost(bSt, model)
	cell.FreshScanned = sSt.FreshPartitionsScanned
	if cadence > 0 {
		if cell.FreshScanned != 0 {
			return nil, fmt.Errorf("compacted dataset scanned %d fresh partitions", cell.FreshScanned)
		}
		// Compaction's acceptance bar: streamed-then-compacted data prunes
		// at least as well as the bulk-loaded control.
		if cell.Streamed.RecordsPruned < cell.Bulk.RecordsPruned {
			return nil, fmt.Errorf("compacted scan pruned %d records, bulk control %d",
				cell.Streamed.RecordsPruned, cell.Bulk.RecordsPruned)
		}
	}

	// The content arm: same predicate projecting the multi-KB content
	// column (pushdown + adaptive readahead) vs the dense control that
	// streams content for every row and filters in the visit function.
	selConf := core.ScanDataset(streamed).Columns("content").Where(pred).Conf()
	selSt, selMatches, err := scanSplits(fs, &core.InputFormat{}, &selConf, nil)
	if err != nil {
		return nil, err
	}
	if selMatches != sMatches {
		return nil, fmt.Errorf("content scan matched %d records, url scan %d", selMatches, sMatches)
	}
	denseConf := core.ScanDataset(streamed).Columns("content", "fetchTime").Conf()
	var denseMatches int64
	denseSt, _, err := scanSplits(fs, &core.InputFormat{}, &denseConf, func(rec serde.Record) error {
		v, err := rec.Get("fetchTime")
		if err != nil {
			return err
		}
		if v.(int64) > cutoff {
			denseMatches++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if denseMatches != sMatches {
		return nil, fmt.Errorf("dense content scan matched %d records, url scan %d", denseMatches, sMatches)
	}
	cell.ContentSelective = scanCost(selSt, model)
	cell.ContentDense = scanCost(denseSt, model)
	cell.ReadaheadSaved = cell.ContentDense.ChargedBytes - cell.ContentSelective.ChargedBytes
	return cell, nil
}
