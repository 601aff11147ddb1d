package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"
)

// byHandTrace is the trace id of the op driven by hand one layer down; the
// traced ops take 1, 2, 3...
const byHandTrace = 1_000_000

// gcCPUSeconds and gcCycles read the collector's own account of its work.
func gcCounters() (cpuSeconds float64, cycles uint64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		cpuSeconds = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		cycles = s[1].Value.Uint64()
	}
	return cpuSeconds, cycles
}

// traced is the traced run. It takes a short untraced sample of the
// workload's ops, then the same ops with spans around every call the
// benchmark makes (the difference is the tracing overhead), then the same
// op driven by hand one layer below mapred.Run, then the direct probes of
// every layer. It reports the per-layer metrics and writes the span file.
func traced(def workloadDef, cfg config, spanFile string) (*metricSet, *runInfo, error) {
	info := newRunInfo(def, cfg, 1)
	m := newMetricSet(perLayer)
	tr := newTracer()

	inst, err := def.setup(cfg)
	if err != nil {
		return nil, &info, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	info.SetupRuns = 1
	if info.WarmupOps, err = warmUp(def, inst, cfg); err != nil {
		return nil, &info, err
	}

	sample := time.Duration(cfg.seconds * 0.15 * float64(time.Second))
	gcCPU0, gcCycles0 := gcCounters()
	u := runWindow(def, inst, sample, 3, 0, nil)
	gcCPU1, gcCycles1 := gcCounters()
	t := runWindow(def, inst, sample, 3, 0, tr)
	both := &window{
		samples: append(append([]opSample(nil), u.samples...), t.samples...), active: u.active + t.active,
		attempted: u.attempted + t.attempted, failed: u.failed + t.failed, firstErr: u.firstErr,
	}
	if both.firstErr == nil {
		both.firstErr = t.firstErr
	}
	info.account(both, append(u.refTimes(), t.refTimes()...))
	if len(u.samples) == 0 || len(t.samples) == 0 {
		return nil, &info, fmt.Errorf("no op completed: %v", both.firstErr)
	}

	// The harness itself.
	p50u, p50t := quantile(u.opMillis(true), 0.5), quantile(t.opMillis(true), 0.5)
	m.set("bench.trace_overhead_share", (p50t-p50u)/p50u)
	var mapperBusy int64
	for _, s := range tr.spans {
		mapperBusy += s.Counts["busy_ns"] // only callback spans carry it
	}
	m.set("bench.mapper_self_ms", float64(mapperBusy)/1e6/float64(len(t.samples)))
	m.set("bench.gc_cpu_share", (gcCPU1-gcCPU0)/max(u.used.cpu.Seconds(), 1e-9))
	m.set("bench.gc_cycles_per_op", float64(gcCycles1-gcCycles0)/float64(len(u.samples)))
	m.set("bench.noise_spin_cv", info.SpinCV)

	// The model against the clock, on this workload's own op.
	e, err := newEnv(cfg, def.name, inst, m, tr)
	if err != nil {
		return nil, &info, err
	}
	defer e.close(inst)
	ops := float64(len(u.samples))
	modeled := e.modeled(u.stats) / ops
	var busy time.Duration
	for _, s := range u.samples {
		busy += s.end - s.start
	}
	m.set("sim.modeled_s_per_op", modeled)
	m.set("sim.measured_over_modeled", busy.Seconds()/ops/modeled)

	// Useful-work ratios from the counters the ops returned.
	st, rows := u.stats, float64(u.rows)
	m.set("core.splits_pruned_share", float64(st.SplitsPruned)/float64(max(u.splits, 1)))
	m.set("core.groups_pruned_share", float64(st.GroupsPruned)*statsWindow/rows)
	m.set("core.records_pruned_share", float64(st.RecordsPruned)/rows)
	m.set("core.rows_vectorized_share", float64(st.RowsVectorized)/rows)
	m.set("core.agg_groups_shortcut_share", float64(st.AggGroupsShortcut)/float64(max(st.AggGroupsShortcut+st.AggBatches, 1)))

	// The same op by hand, one layer down. An aggregation surfaces no
	// record, so agg_pushdown's solo-reader figure comes from scan_filter's
	// scan; its own is still driven for the spans.
	hs := inst.(handScanner).handScan()
	hr, err := driveByHand(hs, &opTrace{t: tr, trace: byHandTrace})
	if err != nil {
		return nil, &info, fmt.Errorf("by hand: %w", err)
	}
	solo, soloRows := hr, hs.rows
	if hs.visit == nil {
		fhs := e.filter.handScan()
		if solo, err = driveByHand(fhs, nil); err != nil {
			return nil, &info, fmt.Errorf("by hand: %w", err)
		}
		soloRows = fhs.rows
	}
	m.set("core.solo_next_ns_per_row", per(solo.drain-solo.visit, soloRows))
	var runErr error
	serial := timed(func() {
		if _, err := driveByHand(hs, nil); err != nil {
			runErr = err
		}
	})
	engine := timed(func() {
		if _, err := runJob(hs.fs, hs.job(), nil, nil, ""); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		return nil, &info, runErr
	}
	m.set("mapred.speedup_vs_serial", float64(serial)/float64(engine))

	if err := e.runProbes(); err != nil {
		return nil, &info, err
	}

	fmt.Printf("%s seed %d: traced run, %d untraced ops (p50 %.3f ms) then %d traced ops (p50 %.3f ms)\n",
		def.name, cfg.seed, len(u.samples), p50u, len(t.samples), p50t)
	tr.summary(os.Stdout, "traced ops, through the public entry point", func(s span) bool { return s.TraceID > 0 && s.TraceID < byHandTrace })
	tr.summary(os.Stdout, "the same op by hand, one layer down (serial)", func(s span) bool { return s.TraceID == byHandTrace })

	if spanFile == "" {
		spanFile = filepath.Join(".bench_build", "spans_"+def.name+".json")
	}
	if err := tr.write(spanFile); err != nil {
		return nil, &info, fmt.Errorf("span file: %w", err)
	}
	info.SpanFile = spanFile
	return m, &info, nil
}

// statsWindow is the zone-statistics granularity the scan workloads load
// with: rows / statsWindow is the number of record groups a full scan
// could prune.
const statsWindow = 256
