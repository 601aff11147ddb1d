// Command benchmark is colmr's wall-clock benchmark: six workloads driven
// through the real code, every op checked against an oracle built from the
// generated inputs, end-to-end metrics from an untraced measured window and
// per-layer metrics from a separate traced run. README.md in this directory
// is the metric dictionary; BENCHMARK.json at the repository root declares
// what is measured.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// A run is marked noisy, for a reviewer to discard, when the reference's spin
// loop varied by more than noisyCV over the run, or when the machine as a
// whole ran slower than slowMachine times nominal: scaling is a correction
// for drift, not for a box that has lost two thirds of its speed.
const (
	noisyCV     = 0.05
	slowMachine = 1.6
)

// runInfo records the conditions of a run beside its metrics.
type runInfo struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Trace       int     `json:"trace"`
	Scale       string  `json:"scale"`
	NProc       int     `json:"nproc"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go"`
	Commit      string  `json:"commit"`
	Clients     int     `json:"clients"`
	SetupRuns   int     `json:"setup_runs"`
	WarmupOps   int     `json:"warmup_ops"`
	Ops         int     `json:"ops"` // completed and correct: the timing samples
	Attempted   int     `json:"attempted"`
	Failed      int     `json:"failed"`
	WindowS     float64 `json:"window_s"`
	FailedShare float64 `json:"failed_share"`
	SpinCV      float64 `json:"noise_spin_cv"`
	Noisy       bool    `json:"noisy"`
	// RefMs are the machine-speed reference times of the run and Raw the
	// timing metrics as measured, before scaling by refNominal/reference.
	RefMs      []float64          `json:"speed_ref_ms"`
	Raw        map[string]float64 `json:"raw,omitempty"`
	FirstError string             `json:"first_error,omitempty"`
	SpanFile   string             `json:"span_file,omitempty"`
}

func newRunInfo(def workloadDef, cfg config, trace int) runInfo {
	return runInfo{
		Workload: def.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: trace, Scale: cfg.scale,
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Clients: def.clients,
	}
}

// commit is the VCS revision the binary was built from, when the build saw
// one (a checkout without .git has none).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// setupRuns is how many times a measured run sets its workload up: setup_s
// is the median, so one slow set-up does not decide it.
const setupRuns = 3

// measure is the untraced run: set-up (timed, repeated), warm-up, the
// measured window, then the checks and accounts that need the window over.
func measure(def workloadDef, cfg config) (*metricSet, *runInfo, error) {
	info := newRunInfo(def, cfg, 0)

	runs := setupRuns
	if cfg.scale == "tiny" {
		runs = 1
	}
	// Set-up, timed each time; the reference is taken around every one and
	// their median scales all of them. The process's first reference is
	// thrown away: it pays for growing the heap.
	var inst instance
	var rawSetups []float64
	reference()
	refs := []refTimes{reference()}
	for k := 0; k < runs; k++ {
		if inst != nil {
			inst.close()
			inst = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if inst, err = def.setup(cfg); err != nil {
			return nil, &info, fmt.Errorf("set-up: %w", err)
		}
		rawSetups = append(rawSetups, time.Since(t0).Seconds())
		refs = append(refs, reference())
	}
	setup := median(rawSetups) * millis(refNominal) / median(wallMillis(refs))
	defer func() { inst.close() }()
	info.SetupRuns = runs

	var err error
	if info.WarmupOps, err = warmUp(def, inst, cfg); err != nil {
		return nil, &info, err
	}
	w := runWindow(def, inst, time.Duration(cfg.seconds*float64(time.Second)), 3, 0, nil)

	if f, ok := inst.(finisher); ok {
		w.attempted++
		if err := f.finish(); err != nil {
			w.failed++
			if w.firstErr == nil {
				w.firstErr = err
			}
		}
	}
	info.account(w, append(refs, w.refTimes()...))
	if len(w.samples) == 0 {
		return nil, &info, fmt.Errorf("no op completed: %v", w.firstErr)
	}

	m := newMetricSet(endToEnd)
	ms, rawMs := w.opMillis(true), w.opMillis(false)
	stored, written, user := inst.storage()
	rows := float64(w.rows)
	m.set("setup_s", setup)
	m.set("rows_per_s", w.rowsPerSecond(true))
	m.set("op_p50_ms", quantile(ms, 0.5))
	m.set("op_p90_ms", quantile(ms, 0.9))
	m.set("cpu_us_per_row", w.cpuMicrosPerRow(true))
	info.Raw = map[string]float64{
		"setup_s": median(rawSetups), "rows_per_s": w.rowsPerSecond(false),
		"op_p50_ms": quantile(rawMs, 0.5), "op_p90_ms": quantile(rawMs, 0.9),
		"cpu_us_per_row": w.cpuMicrosPerRow(false),
	}
	m.set("allocs_per_row", float64(w.used.mallocs)/rows)
	m.set("alloc_bytes_per_row", float64(w.used.bytes)/rows)
	m.set("heap_live_mb", float64(w.heapLive)/(1<<20))
	m.set("read_bytes_per_row", float64(w.readBytes)/rows)
	m.set("stored_bytes_per_user_byte", float64(stored)/float64(user))
	m.set("written_bytes_per_user_byte", float64(written)/float64(user))
	return m, &info, nil
}

// wallMillis lists the wall-clock references of the measurements, in ms.
func wallMillis(refs []refTimes) []float64 {
	out := make([]float64, len(refs))
	for i, r := range refs {
		out[i] = millis(r.wall())
	}
	return out
}

// account folds a window's op and failure counts and the run's reference
// measurements into the run record. The noise guard is the variation of the
// reference's spin loop, before, during and after the window.
func (info *runInfo) account(w *window, refs []refTimes) {
	info.Ops, info.Attempted, info.Failed = len(w.samples), w.attempted, w.failed
	info.WindowS = w.active.Seconds()
	info.FailedShare = float64(w.failed) / float64(max(w.attempted, 1))
	if w.firstErr != nil {
		info.FirstError = w.firstErr.Error()
	}
	info.RefMs = wallMillis(refs)
	spins := make([]float64, len(refs))
	for i, r := range refs {
		spins[i] = float64(r.spin)
	}
	info.SpinCV = cv(spins)
	info.Noisy = info.SpinCV > noisyCV || median(info.RefMs) > slowMachine*millis(refNominal)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see -list)")
		seed    = flag.Int64("seed", 2011, "seed every generated input derives from")
		seconds = flag.Float64("seconds", 10, "length of the measured window")
		trace   = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		scale   = flag.String("scale", "full", "dataset scale: full, or tiny (selftest)")
		spans   = flag.String("spans", "", "traced run: where to write the span file (default .bench_build/spans_<workload>.json)")
		repeat  = flag.String("repeat", "", "SETSxRUNS, e.g. 2x5: run every workload RUNS times per set and compare the sets against the bounds")
		list    = flag.Bool("list", false, "list workloads and exit")
		declare = flag.Bool("declare", false, "print BENCHMARK.json as the metric tables declare it and exit")
	)
	flag.Parse()
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	if *list {
		for _, w := range workloads() {
			fmt.Printf("%-16s %d client(s)  %s\n", w.name, w.clients, w.why)
		}
		return
	}
	if *declare {
		printDeclaration()
		return
	}
	if *repeat != "" {
		os.Exit(runRepeat(*repeat, *seed, *seconds))
	}
	def, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (try -list)\n", *name)
		os.Exit(2)
	}
	if *scale != "full" && *scale != "tiny" {
		fmt.Fprintf(os.Stderr, "benchmark: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	cfg := config{seed: *seed, scale: *scale, seconds: *seconds}
	if cfg.scale == "tiny" {
		quick()
	}
	os.Exit(runOne(def, cfg, *trace, *spans))
}

// quick trades precision for speed, for runs that only check that the
// benchmark works (tiny scale, the selftest): probes repeat the minimum
// number of times and a reference measurement is one round.
func quick() {
	probeBudget = 0
	refRounds = 1
}

// runSeconds is the measured window the driver asks for.
const runSeconds = 10

// printDeclaration writes BENCHMARK.json from the tables in this directory,
// the single source the selftest holds the committed file to.
func printDeclaration() {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type unbounded struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []bounded   `json:"end_to_end"`
		PerLayer   []unbounded `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads() {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, bounded{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, unbounded{d.name, d.unit, d.better})
	}
	out, _ := json.MarshalIndent(doc, "", "  ")
	fmt.Println(string(out))
}

// runOne runs one workload once and prints, last, the one-line result. The
// exit code is non-zero when an op failed or answered wrongly, or when a
// declared metric is missing.
func runOne(def workloadDef, cfg config, trace int, spanFile string) int {
	var m *metricSet
	var info *runInfo
	var err error
	if trace == 0 {
		m, info, err = measure(def, cfg)
	} else {
		m, info, err = traced(def, cfg, spanFile)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", def.name, err)
		return 1
	}
	title := fmt.Sprintf("%s seed %d: end-to-end metrics over %d ops in a %.2f s window", def.name, cfg.seed, info.Ops, info.WindowS)
	if trace != 0 {
		title = fmt.Sprintf("%s seed %d: per-layer metrics (traced run)", def.name, cfg.seed)
	}
	m.print(title)
	if info.Raw != nil {
		fmt.Printf("  timings are scaled to a machine on which the reference work takes %.2f ms; here it took %.2f ms (median of %d samples; spin loop cv %.3f); as measured: p50 %.4g ms, p90 %.4g ms, %.6g rows/s, %.4g us/row CPU, set-up %.4g s\n",
			float64(refNominal)/1e6, median(info.RefMs), len(info.RefMs), info.SpinCV,
			info.Raw["op_p50_ms"], info.Raw["op_p90_ms"], info.Raw["rows_per_s"], info.Raw["cpu_us_per_row"], info.Raw["setup_s"])
	}
	fmt.Printf("  %-40s %16.6g ratio (%d of %d ops)\n", "failed_share", info.FailedShare, info.Failed, info.Attempted)
	code := 0
	if miss := m.missing(); len(miss) > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: missing metrics %v\n", def.name, miss)
		code = 1
	}
	res := result{Correct: info.Failed == 0, Attempted: info.Attempted, Failed: info.Failed, Metrics: m.values}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d ops failed; first: %s\n", def.name, res.Failed, res.Attempted, info.FirstError)
		code = 1
	}
	line, _ := json.Marshal(struct {
		Run *runInfo `json:"run"`
	}{info})
	fmt.Println(string(line))
	if code != 0 {
		return code
	}
	line, _ = json.Marshal(res)
	fmt.Println(string(line))
	return 0
}
