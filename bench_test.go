package colmr

import (
	"testing"

	"colmr/internal/bench"
	"colmr/internal/compress"
	"colmr/internal/serde"
	"colmr/internal/sim"
	"colmr/internal/workload"
)

// One testing.B benchmark per table/figure in the paper's evaluation. Each
// iteration regenerates the experiment end to end at reduced scale:
// dataset synthesis, format encoding into the simulated HDFS, real scans
// or MapReduce jobs, and cost-model pricing. Run the full-scale versions
// with cmd/colbench.

func benchCfg() bench.Config {
	return bench.Config{Scale: 0.05, Seed: 2011}
}

// BenchmarkFigure7 regenerates the Section 6.2 scan microbenchmark
// (TXT vs SEQ vs CIF vs RCFile across five projections).
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure7(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates the Section 6.3 crawl-job comparison over
// eleven storage-format variants.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table1(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColocation regenerates the Section 6.4 placement-policy
// ablation.
func BenchmarkColocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Colocation(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8 regenerates the Appendix B.1 deserialization-rate
// microbenchmark.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure8(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure9 regenerates the Appendix B.2 RCFile row-group tuning
// sweep.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure9(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates the Appendix B.3 load-time comparison.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table2(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure10 regenerates the Appendix B.4 selectivity sweep.
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure10(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure11 regenerates the Appendix B.5 record-width sweep.
func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure11(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVectorized regenerates the vectorized-execution sweep (batch
// evaluation + vector cache vs the record-at-a-time loop).
func BenchmarkVectorized(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Vectorized(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestVectorizedCPUGuard is the repo-level perf regression gate on the
// batch execution path: on every layout and selectivity arm, the vectorized
// run's modeled decode CPU must not exceed the scalar run's (the two read
// identical bytes, so a regression here is pure execution-loop cost). The
// stronger >= 2x floor on the selective string-equality arm lives in the
// bench package's shape test. The test runs the sweep at scale 0.01; the
// benchmark of the same name runs it at 0.05.
func TestVectorizedCPUGuard(t *testing.T) {
	t.Parallel()
	checkVectorizedCPUGuard(t, 0.01)
}

func BenchmarkVectorizedCPUGuard(b *testing.B) {
	for range b.N {
		checkVectorizedCPUGuard(b, benchCfg().Scale)
	}
}

func checkVectorizedCPUGuard(t testing.TB, scale float64) {
	res, err := bench.Vectorized(bench.Config{Scale: scale, Seed: benchCfg().Seed})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		if c.VectorCPU > c.ScalarCPU {
			t.Errorf("%s/%s: vectorized CPU %.5fs exceeds scalar %.5fs",
				c.Layout, c.Arm, c.VectorCPU, c.ScalarCPU)
		}
	}
}

// Component microbenchmarks: the hot paths the experiments exercise.

func BenchmarkSerdeEncodeRecord(b *testing.B) {
	gen := workload.NewCrawl(workload.CrawlOptions{Seed: 1})
	rec := gen.Record(0)
	b.ReportAllocs()
	b.ResetTimer()
	var buf []byte
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = serde.AppendRecord(buf[:0], rec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
}

func BenchmarkSerdeDecodeRecord(b *testing.B) {
	gen := workload.NewCrawl(workload.CrawlOptions{Seed: 1})
	buf, err := serde.EncodeRecord(gen.Record(0))
	if err != nil {
		b.Fatal(err)
	}
	schema := gen.Schema()
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := serde.NewDecoder(buf, nil).Record(schema); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSerdeScanRecord(b *testing.B) {
	gen := workload.NewCrawl(workload.CrawlOptions{Seed: 1})
	buf, err := serde.EncodeRecord(gen.Record(0))
	if err != nil {
		b.Fatal(err)
	}
	schema := gen.Schema()
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := serde.NewDecoder(buf, nil).Scan(schema); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkCodec(b *testing.B, name string) {
	codec, err := compress.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewCrawl(workload.CrawlOptions{Seed: 1})
	var data []byte
	for i := int64(0); i < 16; i++ {
		enc, _ := serde.EncodeRecord(gen.Record(i))
		data = append(data, enc...)
	}
	comp, err := codec.Compress(nil, data)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("compress", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := codec.Compress(nil, data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decompress", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := codec.Decompress(nil, comp, len(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkCodecLZO(b *testing.B)  { benchmarkCodec(b, "lzo") }
func BenchmarkCodecZLIB(b *testing.B) { benchmarkCodec(b, "zlib") }

// BenchmarkCrawlJobCIFLazy runs the paper's example job end to end over a
// CIF dataset with lazy records — the full stack in one number.
func BenchmarkCrawlJobCIFLazy(b *testing.B) {
	fs := NewFileSystem(DefaultCluster(), 1)
	fs.SetPlacementPolicy(NewColumnPlacementPolicy())
	gen := NewCrawl(CrawlOptions{Seed: 1, ContentBytes: 2000})
	w, err := NewColumnWriter(fs, "/bench/crawl", gen.Schema(), LoadOptions{SplitRecords: 256}, nil)
	if err != nil {
		b.Fatal(err)
	}
	const n = 2048
	for i := int64(0); i < n; i++ {
		if err := w.Append(gen.Record(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	conf := ScanDataset("/bench/crawl").Columns("url", "metadata").Lazy(true).Conf()
	conf.NumReducers = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job := &Job{
			Conf:  conf,
			Input: &ColumnInputFormat{},
			Mapper: MapperFunc(func(key, value any, emit Emit) error {
				rec := value.(Record)
				url, err := rec.Get("url")
				if err != nil {
					return err
				}
				if len(url.(string)) == 0 {
					return nil
				}
				return nil
			}),
			Output: NullOutput{},
		}
		if _, err := RunJob(fs, job); err != nil {
			b.Fatal(err)
		}
	}
	_ = sim.DefaultModel()
}
