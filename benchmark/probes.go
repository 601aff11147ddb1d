package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"colmr/internal/colfile"
	"colmr/internal/compress"
	"colmr/internal/core"
	"colmr/internal/hdfs"
	"colmr/internal/mapred"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
	"colmr/internal/vec"
)

// env is what a traced run probes: all six workloads' environments, the
// run's own at full scale and the other five at a tenth, so that every
// per-layer metric has the files and rows of the workload it belongs to.
type env struct {
	cfg    config
	crawl  *crawlJob
	wide   *scanWide
	filter *scanFilter
	agg    *aggPushdown
	serve  *serveBurst
	ingest *ingestCompact

	m     *metricSet
	tr    *tracer
	root  int // the probe parent span
	model sim.CostModel
	pairs []orderPair
}

// newEnv sets up the five environments the run does not already have; own
// is the instance of the workload called ownName.
func newEnv(cfg config, ownName string, own instance, m *metricSet, tr *tracer) (*env, error) {
	e := &env{cfg: cfg, m: m, tr: tr, model: sim.DefaultModelFor(sim.SingleNode())}
	small := cfg
	if small.scale == "full" {
		small.scale = "probe"
	}
	for _, def := range workloads() {
		inst := own
		if def.name != ownName {
			var err error
			if inst, err = def.setup(small); err != nil {
				return nil, fmt.Errorf("probe environment %s: %w", def.name, err)
			}
		}
		switch w := inst.(type) {
		case *crawlJob:
			e.crawl = w
		case *scanWide:
			e.wide = w
		case *scanFilter:
			e.filter = w
		case *aggPushdown:
			e.agg = w
		case *serveBurst:
			e.serve = w
		case *ingestCompact:
			e.ingest = w
		}
	}
	// The ingest environment needs ingested rows before it can be scanned.
	for len(e.ingest.appended) < 8 {
		if e.ingest.prepared() == 0 {
			e.ingest.prepare()
		}
		if _, err := e.ingest.op(0, 0, nil); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// close stops every environment except the run's own.
func (e *env) close(own instance) {
	for _, inst := range []instance{e.crawl, e.wide, e.filter, e.agg, e.serve, e.ingest} {
		if inst != own {
			inst.close()
		}
	}
}

// firstError keeps the first error of a run of calls that are all reported
// the same way, so a probe's timed closure need not return one.
type firstError struct{ err error }

func (f *firstError) note(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

// noopMapper is the map function of jobs run for their scan alone.
var noopMapper = mapred.MapperFunc(func(_, _ any, _ mapred.Emit) error { return nil })

// probeBudget is how long a probe keeps repeating its measurement.
var probeBudget = 25 * time.Millisecond

// timed runs fn at least three times, and on until probeBudget has passed
// (at most 200 runs), and returns the median duration of a run.
func timed(fn func()) time.Duration {
	var ds []float64
	start := time.Now()
	for len(ds) < 3 || (time.Since(start) < probeBudget && len(ds) < 200) {
		t0 := time.Now()
		fn()
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds))
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func per(d time.Duration, n int64) float64 { return float64(d) / float64(max(n, 1)) }

func micros(d time.Duration) float64 { return float64(d) / 1e3 }

func millis(d time.Duration) float64 { return float64(d) / 1e6 }

func mbPerSec(n int, d time.Duration) float64 { return float64(n) / (1 << 20) / d.Seconds() }

// sampleRows generates gen's first k rows.
func sampleRows(gen generator, k int64) []*serde.GenericRecord {
	recs := make([]*serde.GenericRecord, 0, k)
	_ = generate(gen, k, func(_ int64, rec *serde.GenericRecord, _ int64) error { // each never fails
		recs = append(recs, rec)
		return nil
	})
	return recs
}

// probe runs one layer's probes under a span of that layer beneath the
// probe parent.
func (e *env) probe(layer string, fn func() error) error {
	id := e.tr.begin(0, e.root, layer, "probes")
	err := fn()
	e.tr.end(id, nil)
	if err != nil {
		return fmt.Errorf("%s probes: %w", layer, err)
	}
	return nil
}

// runProbes measures every per-layer metric that does not come from the
// run's own ops.
func (e *env) runProbes() error {
	e.root = e.tr.begin(0, 0, "bench", "probe")
	defer func() { e.tr.end(e.root, nil) }()
	for _, p := range []struct {
		layer string
		fn    func() error
	}{
		{"serde", e.probeSerde},
		{"compress", e.probeCompress},
		{"colfile", e.probeColfileScanVec},
		{"hdfs", e.probeHDFS},
		{"core", e.probeCore},
		{"mapred", e.probeMapred},
		{"serve", e.probeServe},
		{"ingest", e.probeIngest},
		{"formats", e.probeFormats},
		{"sim", e.probeOrder},
	} {
		if err := e.probe(p.layer, p.fn); err != nil {
			return err
		}
	}
	return nil
}

// ---- serde ---------------------------------------------------------------

// probeSerde times record encode, decode and scan on scan_wide's rows — the
// workload whose op is dominated by them.
func (e *env) probeSerde() error {
	k := min(e.wide.n, 4000)
	recs := sampleRows(e.wide.gen, k)
	schema := e.wide.gen.Schema()
	bufs := make([][]byte, len(recs))
	for i, r := range recs {
		b, err := serde.EncodeRecord(r)
		if err != nil {
			return err
		}
		bufs[i] = b
	}
	var buf []byte
	var err error
	e.m.set("serde.encode_ns_per_row", per(timed(func() {
		for _, r := range recs {
			buf, err = serde.AppendRecord(buf[:0], r)
		}
	}), k))
	decode := func() {
		for _, b := range bufs {
			if _, derr := serde.NewDecoder(b, nil).Record(schema); derr != nil {
				err = derr
			}
		}
	}
	e.m.set("serde.decode_ns_per_row", per(timed(decode), k))
	m0 := mallocs()
	decode()
	e.m.set("serde.decode_allocs_per_row", float64(mallocs()-m0)/float64(k))
	e.m.set("serde.scan_ns_per_row", per(timed(func() {
		for _, b := range bufs {
			if serr := serde.NewDecoder(b, nil).Scan(schema); serr != nil {
				err = serr
			}
		}
	}), k))
	return err
}

// ---- compress ------------------------------------------------------------

// probeCompress runs both codecs over real column bytes: the head of the
// crawl dataset's content column, in the 128 KB blocks the Block layout
// cuts. zlib's inflate rate also checks the cost model's 90 MB/s.
func (e *env) probeCompress() error {
	data, err := e.crawl.fs.ReadFile(e.crawl.dir + "/s0/content")
	if err != nil {
		return err
	}
	data = data[:min(len(data), 1<<20)]
	const block = colfile.DefaultBlockBytes
	for _, name := range []string{"lzo", "zlib"} {
		codec, err := compress.ByName(name)
		if err != nil {
			return err
		}
		var comp [][]byte
		var cerr error
		deflate := timed(func() {
			comp = comp[:0]
			for off := 0; off < len(data); off += block {
				c, err := codec.Compress(nil, data[off:min(off+block, len(data))])
				if err != nil {
					cerr = err
				}
				comp = append(comp, c)
			}
		})
		var raw []byte
		inflate := timed(func() {
			for i, c := range comp {
				n := min(block, len(data)-i*block)
				if raw, err = codec.Decompress(raw[:0], c, n); err != nil {
					cerr = err
				}
			}
		})
		if cerr != nil {
			return cerr
		}
		e.m.set("compress."+name+"_deflate_mb_s", mbPerSec(len(data), deflate))
		e.m.set("compress."+name+"_inflate_mb_s", mbPerSec(len(data), inflate))
	}
	return nil
}

// ---- colfile, scan, vec ---------------------------------------------------

// memSource is the benchmark-owned scan.VecSource: pre-decoded vectors of
// one batch, so VecEval and FoldBatch are timed without any decode.
type memSource struct {
	cols map[string]*scan.Vector
}

func (s *memSource) ColVec(col string) (*scan.Vector, error) {
	if v := s.cols[col]; v != nil {
		return v, nil
	}
	return nil, fmt.Errorf("benchmark: no vector for column %q", col)
}

func (s *memSource) KeyVec(string, string, *scan.Selection) (*scan.Selection, bool, error) {
	return nil, false, nil
}

// idSource adds the dictionary-id capability (scan.IDSource).
type idSource struct {
	memSource
	ids map[string]*scan.IDVector
}

func (s *idSource) IDVec(col string) (*scan.IDVector, error) { return s.ids[col], nil }

// probeBatch is the batch size of the vector probes.
const probeBatch = 1024

// colfileOptions are the writer options of the four probed layouts.
func colfileOptions(layout string) colfile.Options {
	switch layout {
	case "skiplist":
		return colfile.Options{Layout: colfile.SkipList, StatsEvery: 256}
	case "block_lzo":
		return colfile.Options{Layout: colfile.Block, Codec: "lzo", StatsEvery: 256}
	case "dcsl":
		return colfile.Options{Layout: colfile.DCSL, StatsEvery: 2048}
	}
	return colfile.Options{Layout: colfile.Plain, StatsEvery: 256}
}

// writeColumn writes values as one column file in memory.
func writeColumn(schema *serde.Schema, opts colfile.Options, values []any) ([]byte, error) {
	var buf bytes.Buffer
	w, err := colfile.NewWriter(&buf, schema, opts, nil)
	if err != nil {
		return nil, err
	}
	for _, v := range values {
		if err := w.Append(v); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// probeColfileScanVec covers colfile, scan and vec on scan_filter's rows:
// its filter column str1 written in each of the four layouts and read back
// three ways, then the decoded vectors evaluated, folded and cached.
func (e *env) probeColfileScanVec() error {
	k := min(e.filter.n, 16*probeBatch) / probeBatch * probeBatch
	if k == 0 {
		return fmt.Errorf("scan_filter environment has %d rows, fewer than one batch", e.filter.n)
	}
	recs := sampleRows(e.filter.gen, k)
	column := func(f int) []any {
		vs := make([]any, len(recs))
		for i, r := range recs {
			vs[i] = r.GetAt(f)
		}
		return vs
	}
	str1, int0, int1 := column(fStr1), column(fInt0), column(fInt1)
	strSchema, intSchema := serde.String(), serde.Int()

	// colfile: write, cursor, vector per layout.
	files := map[string][]byte{}
	var first firstError
	fail := first.note
	for _, layout := range colfileLayouts {
		opts := colfileOptions(layout)
		e.m.set("colfile."+layout+".write_ns_per_row", per(timed(func() {
			data, werr := writeColumn(strSchema, opts, str1)
			fail(werr)
			files[layout] = data
		}), k))
		if first.err != nil {
			return first.err
		}
		data := files[layout]
		e.m.set("colfile."+layout+".cursor_ns_per_row", per(timed(func() {
			r, rerr := colfile.NewReader(bytes.NewReader(data), strSchema, nil)
			fail(rerr)
			for i := int64(0); i < k && rerr == nil; i++ {
				_, rerr = r.Value()
			}
			fail(rerr)
		}), k))
		v := scan.NewVector(scan.VecString, probeBatch)
		e.m.set("colfile."+layout+".vector_ns_per_row", per(timed(func() {
			r, rerr := colfile.NewReader(bytes.NewReader(data), strSchema, nil)
			fail(rerr)
			for s := int64(0); s < k && rerr == nil; s += probeBatch {
				v.Reset(scan.VecString, probeBatch)
				rerr = r.(colfile.VectorDecoder).DecodeVector(s, s+probeBatch, v, nil)
			}
			fail(rerr)
		}), k))
		if first.err != nil {
			return first.err
		}
	}
	e.m.set("colfile.dcsl.idvector_ns_per_row", per(timed(func() {
		r, rerr := colfile.NewReader(bytes.NewReader(files["dcsl"]), strSchema, nil)
		fail(rerr)
		for s := int64(0); s < k && rerr == nil; s += probeBatch {
			var ok bool
			if ok, rerr = r.(colfile.IDVectorDecoder).DecodeIDVector(s, s+probeBatch, scan.NewIDVector(probeBatch), nil); rerr == nil && !ok {
				rerr = fmt.Errorf("DCSL string column did not decode as ids")
			}
		}
		fail(rerr)
	}), k))
	jumps := (k - 1) / 100
	e.m.set("colfile.skiplist.skip_ns_per_jump", per(timed(func() {
		r, rerr := colfile.NewReader(bytes.NewReader(files["skiplist"]), strSchema, nil)
		fail(rerr)
		for t := int64(100); t < k && rerr == nil; t += 100 {
			rerr = r.SkipTo(t)
		}
		fail(rerr)
	}), jumps))
	e.m.set("colfile.stats_parse_us_per_file", micros(timed(func() {
		_, serr := colfile.FileStats(bytes.NewReader(files["skiplist"]), strSchema)
		fail(serr)
	})))
	share, serr := statsBytesShare(e.filter.fs, "/filter")
	fail(serr)
	e.m.set("colfile.stats_bytes_share", share)
	if first.err != nil {
		return first.err
	}

	// Pre-decoded batches for scan and vec.
	intFile, werr := writeColumn(intSchema, colfileOptions("skiplist"), int0)
	if werr != nil {
		return werr
	}
	var batches []*idSource
	plain, _ := colfile.NewReader(bytes.NewReader(files["plain"]), strSchema, nil)
	dcsl, _ := colfile.NewReader(bytes.NewReader(files["dcsl"]), strSchema, nil)
	for s := int64(0); s < k; s += probeBatch {
		sv := scan.NewVector(scan.VecString, probeBatch)
		fail(plain.(colfile.VectorDecoder).DecodeVector(s, s+probeBatch, sv, nil))
		iv := scan.NewIDVector(probeBatch)
		_, derr := dcsl.(colfile.IDVectorDecoder).DecodeIDVector(s, s+probeBatch, iv, nil)
		fail(derr)
		v0, v1 := scan.NewVector(scan.VecInt32, probeBatch), scan.NewVector(scan.VecInt32, probeBatch)
		for i := s; i < s+probeBatch; i++ {
			v0.AppendInt(int64(int0[i].(int32)))
			v1.AppendInt(int64(int1[i].(int32)))
		}
		batches = append(batches, &idSource{
			memSource{map[string]*scan.Vector{"str1": sv, "int0": v0, "int1": v1}},
			map[string]*scan.IDVector{"str1": iv},
		})
	}
	if first.err != nil {
		return first.err
	}

	// scan: VecEval per predicate kind.
	needle := str1[7].(string)
	eval := func(pred scan.Predicate, ids bool) func() {
		return func() {
			for _, b := range batches {
				var src scan.VecSource = &b.memSource
				if ids {
					src = b
				}
				sel := scan.GetFullSelection(probeBatch)
				out, verr := pred.VecEval(src, sel)
				fail(verr)
				scan.PutSelection(out)
				scan.PutSelection(sel)
			}
		}
	}
	eq := eval(scan.Eq("str1", needle), false)
	e.m.set("scan.veceval_eq_str_ns_per_row", per(timed(eq), k))
	m0 := mallocs()
	eq()
	e.m.set("scan.selection_allocs_per_batch", float64(mallocs()-m0)/float64(len(batches)))
	e.m.set("scan.veceval_range_str_ns_per_row", per(timed(eval(scan.Between("str1", tag(16), tag(31)), false)), k))
	e.m.set("scan.veceval_le_int_ns_per_row", per(timed(eval(scan.Le("int0", int32(5000)), false)), k))
	e.m.set("scan.veceval_dictid_eq_ns_per_row", per(timed(eval(scan.Eq("str1", needle), true)), k))

	// scan: folds.
	fold := func(spec string) (func(), error) {
		agg, perr := scan.ParseAggregate(spec)
		if perr != nil {
			return nil, perr
		}
		return func() {
			st := scan.NewAggState(agg)
			for _, b := range batches {
				sel := scan.GetFullSelection(probeBatch)
				_, ferr := st.FoldBatch(sel, &b.memSource)
				fail(ferr)
				scan.PutSelection(sel)
			}
		}, nil
	}
	for name, spec := range map[string]string{
		"scan.fold_count_ns_per_row":   "count",
		"scan.fold_sum_ns_per_row":     "sum(int0)",
		"scan.fold_groupby_ns_per_row": "count,sum(int1) group by str1",
	} {
		fn, perr := fold(spec)
		if perr != nil {
			return perr
		}
		e.m.set(name, per(timed(fn), k))
	}

	// scan: zone statistics — fold, prune, estimate, bloom.
	ir, rerr := colfile.NewReader(bytes.NewReader(intFile), intSchema, nil)
	if rerr != nil {
		return rerr
	}
	groupStats := ir.(colfile.StatsSource).GroupStats
	type group struct {
		st   *scan.ColStats
		rows int64
	}
	var groups []group
	for rec := int64(0); rec < k; {
		st, end := groupStats(rec)
		if st == nil || end <= rec {
			return fmt.Errorf("int0 probe file has no statistics at record %d", rec)
		}
		groups = append(groups, group{st, end - rec})
		rec = end
	}
	statsAgg, _ := scan.ParseAggregate("count,min(int0),max(int0)")
	e.m.set("scan.fold_stats_ns_per_group", per(timed(func() {
		st := scan.NewAggState(statsAgg)
		for _, g := range groups {
			stats := func(string) *scan.ColStats { return g.st }
			if st.StatsAnswerable(g.rows, stats) {
				fail(st.FoldStats(g.rows, stats))
			}
		}
	}), int64(len(groups))))
	planner := scan.NewPlanner(scan.Le("int0", int32(5000)))
	e.m.set("scan.prune_group_ns", per(timed(func() {
		for rec := int64(0); rec < k; {
			_, end, _ := planner.PruneGroup(rec, k, func(_ string, rec int64) (*scan.ColStats, int64) { return groupStats(rec) })
			rec = max(end, rec+1)
		}
	}), int64(len(groups))))
	intStats, _ := colfile.FileStats(bytes.NewReader(intFile), intSchema)
	strStats, _ := colfile.FileStats(bytes.NewReader(files["skiplist"]), strSchema)
	if intStats == nil || strStats == nil {
		return fmt.Errorf("probe column files carry no file statistics")
	}
	fileStats := func(col string) *scan.ColStats {
		if col == "int0" {
			return intStats
		}
		return strStats
	}
	pred := scan.And(scan.Le("int0", int32(5000)), scan.Eq("str1", needle))
	e.m.set("scan.estimate_us", micros(timed(func() {
		for i := 0; i < 100; i++ {
			scan.EstimateFraction(pred, fileStats)
		}
	}))/100)
	where := pred.String()
	e.m.set("scan.parse_us", micros(timed(func() {
		for i := 0; i < 20; i++ {
			_, perr := scan.Parse(where)
			fail(perr)
			_, perr = scan.ParseAggregate("count,sum(int1) group by str1")
			fail(perr)
		}
	}))/20)
	bloom := strStats.Bloom
	if bloom == nil {
		// The writer dropped a saturated filter: probe one of the same size
		// class built over the same values.
		bloom = scan.NewBloomSized(tagCycle, 1<<10)
		for t := int64(0); t < tagCycle; t++ {
			bloom.AddHash(scan.BloomHashString(tag(t)))
		}
	}
	probes := make([]string, 0, 2*tagCycle)
	for t := int64(0); t < tagCycle; t++ {
		probes = append(probes, tag(t), tag(t+1000))
	}
	var hits int
	e.m.set("scan.bloom_probe_ns", per(timed(func() {
		for _, p := range probes {
			if bloom.MayContainString(p) {
				hits++
			}
		}
	}), int64(len(probes))))

	// vec: the decoded-vector cache with the same vectors. No workload
	// routes through it today; the probe is the baseline for the PR that
	// wires it.
	keys := make([]vec.Key, len(batches))
	for i := range keys {
		keys[i] = vec.Key{Path: "/probe/str1", Gen: 1, Start: int64(i) * probeBatch}
	}
	var cache *vec.Cache
	e.m.set("vec.cache_add_ns", per(timed(func() {
		cache = vec.New(64 << 20)
		for i, b := range batches {
			cache.Add(keys[i], keys[i].Start+probeBatch, b.cols["str1"])
		}
	}), int64(len(batches))))
	e.m.set("vec.cache_hit_ns", per(timed(func() {
		for r := 0; r < 16; r++ {
			for i := range batches {
				if cache.Get(keys[i], keys[i].Start+probeBatch) == nil {
					fail(fmt.Errorf("vector cache missed a resident vector"))
				}
			}
		}
	}), int64(16*len(batches))))
	return first.err
}

// statsBytesShare is the share of a dataset tree's column-file bytes that
// the statistics sections take: each file's fixed footer (docs/FORMAT.md)
// ends record count u64, stats length u32, magic.
func statsBytesShare(fs *hdfs.FileSystem, root string) (float64, error) {
	var stats, total int64
	var walk func(dir string) error
	walk = func(dir string) error {
		infos, err := fs.List(dir)
		if err != nil {
			return err
		}
		for _, fi := range infos {
			if fi.IsDir {
				if err := walk(fi.Path); err != nil {
					return err
				}
				continue
			}
			if strings.HasPrefix(fi.Name(), "_") {
				continue // schema, manifest and delete files are not column files
			}
			r, err := fs.Open(fi.Path, 0)
			if err != nil {
				return err
			}
			var foot [16]byte
			if _, err := r.UnchargedReadAt(foot[:], r.Size()-int64(len(foot))); err != nil {
				return err
			}
			stats += int64(binary.LittleEndian.Uint32(foot[8:12]))
			total += r.Size()
		}
		return nil
	}
	if err := walk(root); err != nil {
		return 0, err
	}
	return float64(stats) / float64(max(total, 1)), nil
}

// ---- hdfs ----------------------------------------------------------------

func (e *env) probeHDFS() error {
	fs := e.crawl.fs
	path := e.crawl.dir + "/s0/content"
	var err error
	buf := make([]byte, 1<<20)
	var size int64
	read := timed(func() {
		r, oerr := fs.Open(path, 0)
		if oerr != nil {
			err = oerr
			return
		}
		size = r.Size()
		for off := int64(0); off < size; off += int64(len(buf)) {
			r.ReadAt(buf, off) // io.EOF on the short last read is expected
		}
	})
	e.m.set("hdfs.read_mb_s", mbPerSec(int(size), read))
	e.m.set("hdfs.open_us", micros(timed(func() {
		if _, oerr := fs.Open(path, 0); oerr != nil {
			err = oerr
		}
		if _, lerr := fs.List(e.crawl.dir + "/s0"); lerr != nil {
			err = lerr
		}
	})))
	const chunks = 4
	e.m.set("hdfs.write_mb_s", mbPerSec(chunks*len(buf), timed(func() {
		w, cerr := fs.Create("/probe/hdfs.bin", hdfs.AnyNode)
		if cerr != nil {
			err = cerr
			return
		}
		for i := 0; i < chunks; i++ {
			if _, werr := w.Write(buf); werr != nil {
				err = werr
			}
		}
		if cerr := w.Close(); cerr != nil {
			err = cerr
		}
		if rerr := fs.Remove("/probe/hdfs.bin"); rerr != nil {
			err = rerr
		}
	})))
	return err
}

// ---- core ----------------------------------------------------------------

// probeCore times planning, opening and draining below mapred.Run: the
// per-query fixed costs on serve_burst's dataset, the lazy Get on
// crawl_job's survivors, the aggregate drain on agg_pushdown's, the shared
// reader against the solo one, and the COF writer on crawl rows.
func (e *env) probeCore() error {
	in := &core.InputFormat{}
	sfs := e.serve.fs
	var first firstError
	fail := first.note

	point := core.ScanDataset(e.serve.dir).Columns("str0").Where(scan.Between("int0", int32(5000), int32(5009))).Lazy(true).Conf()
	e.m.set("core.plan_us", micros(timed(func() {
		conf := point
		_, _, perr := in.PlannedSplits(sfs, &conf)
		fail(perr)
	})))
	e.m.set("core.explain_us", micros(timed(func() {
		conf := point
		_, perr := in.Explain(sfs, &conf, e.model)
		fail(perr)
	})))
	prefix := e.serve.prefixConf(0)
	splits, _, perr := in.PlannedSplits(sfs, &prefix)
	if perr != nil {
		return perr
	}
	e.m.set("core.open_us_per_split", micros(timed(func() {
		for _, sp := range splits {
			var st sim.TaskStats
			rr, oerr := in.Open(sfs, &prefix, sp, 0, &st)
			if oerr != nil {
				fail(oerr)
				return
			}
			fail(rr.Close())
		}
	}))/float64(max(len(splits), 1)))
	if first.err != nil {
		return first.err
	}

	// Lazy Get on the rows that survive crawl_job's filter.
	var gets int64
	var getTime time.Duration
	lazy := e.crawl.handScan()
	lazy.visit = func(rec serde.Record) error {
		url, gerr := rec.Get("url")
		if gerr != nil || !strings.Contains(url.(string), "ibm.com/jp") {
			return gerr
		}
		t0 := time.Now()
		_, gerr = rec.Get("metadata")
		getTime += time.Since(t0)
		gets++
		return gerr
	}
	if _, derr := driveByHand(lazy, nil); derr != nil {
		return derr
	}
	e.m.set("core.lazy_get_ns", per(getTime, gets))

	ad, derr := driveByHand(e.agg.handScan(), nil)
	if derr != nil {
		return derr
	}
	e.m.set("core.agg_drain_ns_per_row", per(ad.drain, e.agg.n))

	// Shared reader: eight overlapping members, then one member against solo.
	shared := func(members int32) (time.Duration, int64) {
		confs := make([]*mapred.JobConf, members)
		for k := range confs {
			c := e.serve.prefixConf(int32(k))
			confs[k] = &c
		}
		var rows int64
		d := timed(func() {
			rows = 0
			ss, _, serr := in.SharedSplits(sfs, confs)
			fail(serr)
			for _, sp := range ss {
				memberStats := make([]*sim.TaskStats, len(sp.Members))
				for i := range memberStats {
					memberStats[i] = &sim.TaskStats{}
				}
				var sharedStats sim.TaskStats
				sr, oerr := in.OpenShared(sfs, confs, sp.Split, sp.Members, 0, memberStats, &sharedStats)
				if oerr != nil {
					fail(oerr)
					return
				}
				for {
					_, _, _, ok, nerr := sr.Next()
					if nerr != nil || !ok {
						fail(nerr)
						break
					}
					rows++
				}
				fail(sr.Close())
			}
		})
		return d, rows
	}
	d8, rows8 := shared(8)
	e.m.set("core.shared8_next_ns_per_row", per(d8, rows8))
	d1, _ := shared(1)
	solo := handScan{fs: sfs, conf: e.serve.prefixConf(0)}
	dSolo := timed(func() {
		_, derr := driveByHand(solo, nil)
		fail(derr)
	})
	e.m.set("core.shared1_over_solo", float64(d1)/float64(dSolo))

	// COF writer on crawl rows with the ingest layout.
	k := min(e.crawl.n/4, 2000)
	recs := sampleRows(e.crawl.gen, k)
	load := ingestLoad()
	e.m.set("core.write_ns_per_row", per(timed(func() {
		var st sim.TaskStats
		w, werr := core.NewWriter(e.crawl.fs, "/probe/cof", e.crawl.gen.Schema(), load, &st)
		if werr != nil {
			fail(werr)
			return
		}
		for _, r := range recs {
			fail(w.Append(r))
		}
		fail(w.Close())
		fail(e.crawl.fs.RemoveAll("/probe/cof"))
	}), k))
	return first.err
}

// ---- mapred --------------------------------------------------------------

func (e *env) probeMapred() error {
	var first firstError
	fail := first.note
	// A job whose predicate lies beyond int0's domain: every split is
	// elided from footers, so this is planning + scheduling and nothing else.
	e.m.set("mapred.empty_job_ms", millis(timed(func() {
		res, rerr := mapred.Run(e.serve.fs, core.ScanDataset(e.serve.dir).Columns("str0").Where(scan.Gt("int0", int32(20000))).Job(noopMapper))
		fail(rerr)
		if rerr == nil && len(res.MapTasks) != 0 {
			fail(fmt.Errorf("empty job ran %d map tasks", len(res.MapTasks)))
		}
	})))

	// crawl_job's phases, split at the last mapper return: everything after
	// it is shuffle, sort and reduce.
	var mapPhase, reducePhase []float64
	for i := 0; i < 5; i++ {
		var lastMap atomic.Int64
		out := &collectOutput{got: map[string]int64{}}
		job := e.crawl.job(out, nil, nil)
		job.Mapper = mapred.MapperFunc(func(k, v any, emit mapred.Emit) error {
			merr := crawlMapper(k, v, emit)
			lastMap.Store(int64(time.Now().UnixNano()))
			return merr
		})
		t0 := time.Now()
		_, rerr := mapred.Run(e.crawl.fs, job)
		end := time.Now()
		fail(rerr)
		mapPhase = append(mapPhase, float64(lastMap.Load()-t0.UnixNano())/1e6)
		reducePhase = append(reducePhase, float64(end.UnixNano()-lastMap.Load())/1e6)
	}
	e.m.set("mapred.map_phase_ms", median(mapPhase))
	e.m.set("mapred.shuffle_reduce_ms", median(reducePhase))

	// Eight overlapping jobs as one batch against the same eight run in turn.
	jobs := func() []*mapred.Job {
		out := make([]*mapred.Job, 8)
		for k := range out {
			hs := handScan{conf: e.serve.prefixConf(int32(k)), visit: readStr0(new(atomic.Int64))}
			out[k] = hs.job()
		}
		return out
	}
	batch := timed(func() {
		_, rerr := mapred.RunBatch(e.serve.fs, jobs()...)
		fail(rerr)
	})
	solo := timed(func() {
		for _, j := range jobs() {
			_, rerr := mapred.Run(e.serve.fs, j)
			fail(rerr)
		}
	})
	e.m.set("mapred.batch8_over_solo8", float64(batch)/float64(solo))

	// One number per arm of the two pass workloads.
	for _, a := range e.filter.arms {
		e.m.set("mapred.run_ms."+a.name, millis(timed(func() {
			_, rerr := e.filter.runArm(a, nil)
			fail(rerr)
		})))
	}
	for _, a := range e.agg.arms {
		e.m.set("mapred.run_ms."+a.name, millis(timed(func() {
			_, rerr := e.agg.runArm(a, nil)
			fail(rerr)
		})))
	}
	return first.err
}
