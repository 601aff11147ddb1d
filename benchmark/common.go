package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"colmr/internal/colfile"
	"colmr/internal/core"
	"colmr/internal/hdfs"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
	"colmr/internal/workload"
)

// config is what one run of one workload is parameterised by. Everything a
// workload generates — rows, needles, ranges, arrival order — derives from
// seed, so the program under test only ever sees generated inputs.
type config struct {
	seed    int64
	scale   string  // "full", "probe" (a tenth, for other workloads' probes) or "tiny" (selftest)
	seconds float64 // measured-window length
}

// rows scales a workload's full-size row count. Op counts are never fixed:
// the window is timed, so a smaller dataset simply completes more ops.
func (c config) rows(full int64) int64 {
	switch c.scale {
	case "tiny":
		return 2000
	case "probe":
		if r := full / 10; r > 4000 {
			return r
		}
		return 4000
	}
	return full
}

// newFS is every workload's store: the in-memory HDFS of a single node with
// the paper's column placement policy.
func newFS(seed int64) *hdfs.FileSystem {
	fs := hdfs.New(sim.SingleNode(), seed)
	fs.SetPlacementPolicy(hdfs.NewColumnPlacementPolicy())
	return fs
}

// generator is the shape the workload generators share.
type generator interface {
	Schema() *serde.Schema
	Record(i int64) *serde.GenericRecord
}

// tagCycle is the cardinality of the planted cyclic column: any run of 64
// consecutive rows holds every tag, so zone maps and Bloom filters over
// str1 can never prune — scans of it measure execution, not pruning.
const tagCycle = 64

// tag renders cyclic value v; zero padding keeps lexicographic order
// numeric so range predicates select exact fractions of the cycle.
func tag(v int64) string { return fmt.Sprintf("tag-%020d", v) }

// planted wraps the paper's synthetic generator (6 strings, 6 ints, 1 map)
// and overwrites up to three columns with values whose selectivity and
// clustering the oracles can reason about:
//
//	str1 = tag(i % 64)        cyclic: unprunable by construction
//	int5 = i                  row index: perfectly clustered
//	int0 = 1 + i*10000/n      clustered over the synthetic domain [1,10000]
type planted struct {
	*workload.Synthetic
	n                   int64
	cyclic, seq, domain bool
}

func newPlanted(seed, n int64, cyclic, seq, domain bool) planted {
	return planted{workload.NewSynthetic(seed), n, cyclic, seq, domain}
}

// Field positions in the synthetic schema: str0..str5, int0..int5, map0.
const (
	fStr0 = 0
	fStr1 = 1
	fInt0 = 6
	fInt1 = 7
	fInt5 = 11
	fMap0 = 12
)

func (g planted) Record(i int64) *serde.GenericRecord {
	rec := g.Synthetic.Record(i)
	if g.cyclic {
		rec.SetAt(fStr1, tag(i%tagCycle))
	}
	if g.seq {
		rec.SetAt(fInt5, int32(i))
	}
	if g.domain {
		rec.SetAt(fInt0, g.domainOf(i))
	}
	return rec
}

func (g planted) domainOf(i int64) int32 { return int32(1 + i*10000/g.n) }

// loaded accounts for what a set-up stored: the denominators and
// numerators of the two space metrics.
type loaded struct {
	userBytes    int64 // sum of serde-encoded record bytes of the live rows
	writtenBytes int64 // IO.BytesWritten of the loaders
}

// stored is what a read workload scans: a bulk-loaded dataset (or the tree
// holding its copies) and the account of loading it. It has nothing to stop.
type stored struct {
	fs  *hdfs.FileSystem
	dir string
	ld  loaded
}

func (d *stored) storage() (storedBytes, written, user int64) {
	return d.fs.TreeSize(d.dir), d.ld.writtenBytes, d.ld.userBytes
}

func (d *stored) close() {}

// loadCIF writes gen's first n rows into every (dir, options) target at
// once — each row is generated and encoded once however many layouts take
// it — calling visit on each row so the workload can build its oracle from
// the same generated values.
func loadCIF(fs *hdfs.FileSystem, gen generator, n int64, targets map[string]core.LoadOptions, visit func(i int64, rec *serde.GenericRecord)) (loaded, error) {
	var out loaded
	dirs := make([]string, 0, len(targets))
	for dir := range targets {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	stats := make([]sim.TaskStats, len(dirs))
	writers := make([]*core.Writer, len(dirs))
	for k, dir := range dirs {
		w, err := core.NewWriter(fs, dir, gen.Schema(), targets[dir], &stats[k])
		if err != nil {
			return out, fmt.Errorf("loading %s: %w", dir, err)
		}
		writers[k] = w
	}
	err := generate(gen, n, func(i int64, rec *serde.GenericRecord, size int64) error {
		out.userBytes += size * int64(len(dirs))
		for k, w := range writers {
			if err := w.Append(rec); err != nil {
				return fmt.Errorf("loading %s: %w", dirs[k], err)
			}
		}
		if visit != nil {
			visit(i, rec)
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	for k, w := range writers {
		if err := w.Close(); err != nil {
			return out, fmt.Errorf("loading %s: %w", dirs[k], err)
		}
		out.writtenBytes += stats[k].IO.BytesWritten
	}
	return out, nil
}

// generate calls each on gen's first n rows in order, with each row's
// serde-encoded size. Rows are generated a chunk at a time on every core the
// run may use — generation, not loading, is most of set-up, and set-up runs
// three times per measured run — while each runs on the caller's goroutine.
func generate(gen generator, n int64, each func(i int64, rec *serde.GenericRecord, size int64) error) error {
	const chunk = 256
	type rows struct {
		recs  []*serde.GenericRecord
		sizes []int64
	}
	workers := int64(runtime.GOMAXPROCS(0))
	outs := make([]chan rows, workers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := range outs {
		outs[w] = make(chan rows, 2) // one chunk in hand, one ready: the consumer never waits on a busy worker
		wg.Add(1)
		go func(w int64) {
			defer wg.Done()
			var buf []byte
			for c := w; c*chunk < n; c += workers {
				var r rows
				for i := c * chunk; i < min((c+1)*chunk, n); i++ {
					rec := gen.Record(i)
					buf, _ = serde.AppendRecord(buf[:0], rec) // generated records always encode
					r.recs = append(r.recs, rec)
					r.sizes = append(r.sizes, int64(len(buf)))
				}
				select {
				case outs[w] <- r:
				case <-stop:
					return
				}
			}
		}(int64(w))
	}
	var err error
	for c := int64(0); c*chunk < n && err == nil; c++ {
		r := <-outs[c%workers]
		for k, rec := range r.recs {
			if err = each(c*chunk+int64(k), rec, r.sizes[k]); err != nil {
				break
			}
		}
	}
	close(stop)
	wg.Wait()
	return err
}

// splitRecords sizes split-directories so n rows fill the given number.
func splitRecords(n int64, splits int) int64 { return (n + int64(splits) - 1) / int64(splits) }

// skipListLoad is the layout most workloads share: skip-list columns with
// zone statistics every 256 rows.
func skipListLoad(n int64, splits int) core.LoadOptions {
	return core.LoadOptions{
		Default:      colfile.Options{Layout: colfile.SkipList, StatsEvery: 256},
		SplitRecords: splitRecords(n, splits),
	}
}

// renderAgg flattens aggregate rows to one comparable string per row:
// "group|v0|v1..." with numbers in decimal whatever their Go width, so the
// hand-computed oracle need not mirror the engine's result types.
func renderAgg(rows []scan.AggRow) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, 0, 1+len(r.Values))
		parts = append(parts, fmt.Sprint(r.Group))
		for _, v := range r.Values {
			parts = append(parts, fmt.Sprint(v))
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}
