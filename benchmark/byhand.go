package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"colmr/internal/core"
	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
)

// handScan is the scan an instance's op asks core for, in a form the
// benchmark can drive itself one layer below mapred.Run: the typed conf and
// the benchmark's own per-record callback (nil for an aggregation, which no
// record ever leaves).
type handScan struct {
	fs    *hdfs.FileSystem
	conf  mapred.JobConf
	visit func(rec serde.Record) error
	rows  int64 // rows of input the scan covers
}

// handScanner is implemented by every workload.
type handScanner interface {
	handScan() handScan
}

// handResult is where a hand-driven scan's time went.
type handResult struct {
	total time.Duration
	drain time.Duration // Next loops or DrainAggregate, benchmark callback included
	visit time.Duration // the benchmark callback (estimated from one call in 16)
	out   int64         // rows delivered to the callback, or folded
}

// driveByHand runs the scan serially the way a map task would — plan, then
// per split open, drain, close — with a span around each call into core.
// Per-record calls are never spans of their own: Next is one span per
// split, and the callback's time is accumulated into one child span.
func driveByHand(hs handScan, tr *opTrace) (handResult, error) {
	var r handResult
	in := &core.InputFormat{}
	conf := hs.conf
	agg := conf.Scan != nil && conf.Scan.Agg != nil

	root := tr.begin("bench", "op.byhand")
	t := tr.under(root)
	t0 := time.Now()
	id := t.begin("core", "PlannedSplits")
	splits, _, err := in.PlannedSplits(hs.fs, &conf)
	t.end(id, map[string]int64{"splits": int64(len(splits))})
	if err != nil {
		return r, err
	}
	for _, sp := range splits {
		var st sim.TaskStats
		id = t.begin("core", "Open")
		rr, err := in.Open(hs.fs, &conf, sp, 0, &st)
		t.end(id, nil)
		if err != nil {
			return r, err
		}
		var rows, calls int64
		var busy time.Duration
		ts := time.Now()
		if agg {
			id = t.begin("core", "DrainAggregate")
			ar, ok := rr.(mapred.AggRecordReader)
			if !ok {
				return r, fmt.Errorf("benchmark: %T cannot drain an aggregate", rr)
			}
			_, err = ar.DrainAggregate()
			rows = st.RowsAggregated
		} else {
			id = t.begin("core", "Next*")
			for {
				_, v, ok, nerr := rr.Next()
				if nerr != nil || !ok {
					err = nerr
					break
				}
				rows++
				if hs.visit == nil {
					continue
				}
				calls++
				if calls%mapperSample != 0 {
					err = hs.visit(v.(serde.Record))
				} else {
					tv := time.Now()
					err = hs.visit(v.(serde.Record))
					busy += time.Since(tv) * mapperSample
				}
				if err != nil {
					break
				}
			}
		}
		t.end(id, map[string]int64{"rows": rows, "bytes": st.IO.TotalChargedBytes()})
		if tr != nil && calls > 0 {
			layer, name := callbackSpan(conf.Scan != nil && conf.Scan.Lazy)
			tr.t.busy(tr.trace, id, layer, name, busy, 1, map[string]int64{"calls": calls})
		}
		r.drain += time.Since(ts)
		r.visit += busy
		r.out += rows
		if err != nil {
			rr.Close()
			return r, err
		}
		id = t.begin("core", "Close")
		err = rr.Close()
		t.end(id, nil)
		if err != nil {
			return r, err
		}
	}
	r.total = time.Since(t0)
	tr.end(root, map[string]int64{"rows": r.out, "splits": int64(len(splits))})
	return r, nil
}

// job turns the scan back into what mapred.Run takes, so the engine's
// parallel run can be compared with the serial hand drive.
func (hs handScan) job() *mapred.Job {
	job := &mapred.Job{Conf: hs.conf, Input: &core.InputFormat{}}
	if hs.visit != nil {
		job.Mapper = mapred.MapperFunc(func(_, v any, _ mapred.Emit) error { return hs.visit(v.(serde.Record)) })
		job.Output = mapred.NullOutput{}
	}
	return job
}

func noEmit(any, any) error { return nil }

func (w *crawlJob) handScan() handScan {
	return handScan{
		fs:    w.fs,
		conf:  core.ScanDataset(w.dir).Columns("url", "metadata").Lazy(true).Conf(),
		visit: func(rec serde.Record) error { return crawlMapper(nil, rec, noEmit) },
		rows:  w.n,
	}
}

func (w *scanWide) handScan() handScan {
	var sum atomic.Int64
	return handScan{
		fs:   w.fs,
		conf: core.ScanDataset(w.dir).Conf(),
		visit: func(rec serde.Record) error {
			sum.Add(wideSum(rec.(*serde.GenericRecord).GetAt))
			return nil
		},
		rows: w.n,
	}
}

// readInt0Str0 is the callback of scan_filter's scans.
func readInt0Str0(sum *atomic.Int64) func(rec serde.Record) error {
	return func(rec serde.Record) error {
		i, err := rec.Get("int0")
		if err != nil {
			return err
		}
		s, err := rec.Get("str0")
		if err != nil {
			return err
		}
		sum.Add(int64(i.(int32)) + int64(len(s.(string))))
		return nil
	}
}

// handScan of scan_filter is its skip-list equality arm.
func (w *scanFilter) handScan() handScan {
	a := w.arm("skiplist_eq")
	return handScan{
		fs:    w.fs,
		conf:  core.ScanDataset(a.dir).Columns("int0", "str0").Where(a.pred).Lazy(true).Conf(),
		visit: readInt0Str0(new(atomic.Int64)),
		rows:  w.n,
	}
}

func (w *scanFilter) arm(name string) filterArm {
	for _, a := range w.arms {
		if a.name == name {
			return a
		}
	}
	panic("benchmark: no scan_filter arm " + name) // a bug in this directory
}

// handScan of agg_pushdown is its GROUP BY arm: a full-scan fold.
func (w *aggPushdown) handScan() handScan {
	a := w.arm("agg_groupby")
	return handScan{fs: w.fs, conf: core.ScanDataset(w.dir).Where(a.pred).Aggregate(a.agg).Conf(), rows: w.n}
}

func (w *aggPushdown) arm(name string) aggArm {
	for _, a := range w.arms {
		if a.name == name {
			return a
		}
	}
	panic("benchmark: no agg_pushdown arm " + name) // a bug in this directory
}

// readStr0 is the callback of serve_burst's record scans.
func readStr0(sum *atomic.Int64) func(rec serde.Record) error {
	return func(rec serde.Record) error {
		s, err := rec.Get("str0")
		if err != nil {
			return err
		}
		sum.Add(int64(len(s.(string))))
		return nil
	}
}

// prefixConf is serve_burst's k-th nested-prefix record scan.
func (w *serveBurst) prefixConf(k int32) mapred.JobConf {
	return core.ScanDataset(w.dir).Columns("str0").Where(scan.Le("int0", 2500+100*k)).Lazy(true).Conf()
}

func (w *serveBurst) handScan() handScan {
	return handScan{fs: w.fs, conf: w.prefixConf(0), visit: readStr0(new(atomic.Int64)), rows: w.n}
}

// handScan of ingest_compact is its verification scan over whatever has
// been ingested so far.
func (w *ingestCompact) handScan() handScan {
	var rows int64
	for _, log := range w.appended {
		rows += int64(len(log))
	}
	return handScan{
		fs:   w.fs,
		conf: core.ScanDataset(w.dir).Columns("url", "fetchTime").Conf(),
		visit: func(rec serde.Record) error {
			if _, err := rec.Get("url"); err != nil {
				return err
			}
			_, err := rec.Get("fetchTime")
			return err
		},
		rows: rows,
	}
}
