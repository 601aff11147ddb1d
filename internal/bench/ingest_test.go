package bench

import "testing"

// TestIngestSweepShape is the acceptance gate of the streaming write path:
// every cell's streamed dataset answers the selective query with the same
// matches as its bulk control (checked inside Ingest), compacted cells
// prune at least as well as bulk and scan zero fresh partitions (also
// checked inside), and across the sweep recrawls resolve upserts, cadence-0
// cells exercise merge-on-read, and the content column's pushdown +
// adaptive readahead saves real charged bytes against the dense control.
func TestIngestSweepShape(t *testing.T) {
	t.Parallel()
	shape(t, Ingest, 0.15, checkIngestSweep)
}

func BenchmarkIngestSweepShape(b *testing.B) {
	for range b.N {
		shape(b, Ingest, 0.4, checkIngestSweep)
	}
}

func checkIngestSweep(t testing.TB, res *IngestResult) {
	wantCells := len(IngestRates) * len(IngestCadences) * len(IngestRecrawls)
	if len(res.Cells) != wantCells {
		t.Fatalf("got %d cells, want %d", len(res.Cells), wantCells)
	}

	for _, c := range res.Cells {
		if c.FlushedFiles == 0 || c.Generations == 0 {
			t.Errorf("cell %+v: write path never flushed (%d files, gen %d)",
				c, c.FlushedFiles, c.Generations)
		}
		if c.Recrawl == 0 && c.Upserts != 0 {
			t.Errorf("rate %g cadence %d: resolved %d upserts with no recrawls",
				c.Rate, c.Cadence, c.Upserts)
		}
		if c.Recrawl > 0 && c.Upserts == 0 {
			t.Errorf("rate %g cadence %d recrawl %g: no upserts resolved",
				c.Rate, c.Cadence, c.Recrawl)
		}
		if c.Cadence == 0 {
			if c.FreshScanned == 0 {
				t.Errorf("rate %g recrawl %g: cadence-0 scan read no fresh partitions",
					c.Rate, c.Recrawl)
			}
			if c.CompactionBytes != 0 {
				t.Errorf("rate %g recrawl %g: cadence 0 wrote %d compaction bytes",
					c.Rate, c.Recrawl, c.CompactionBytes)
			}
		} else {
			if c.CompactionBytes == 0 {
				t.Errorf("rate %g recrawl %g: cadence %d never compacted",
					c.Rate, c.Recrawl, c.Cadence)
			}
			if c.WriteAmp <= 1 {
				t.Errorf("rate %g recrawl %g: compacting cell write amp %.2fx, want > 1x",
					c.Rate, c.Recrawl, c.WriteAmp)
			}
		}
		if c.ReadaheadSaved <= 0 {
			t.Errorf("rate %g cadence %d recrawl %g: selective content scan saved %d bytes vs dense",
				c.Rate, c.Cadence, c.Recrawl, c.ReadaheadSaved)
		}
	}
}
