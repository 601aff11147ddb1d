package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"colmr/internal/sim"
)

// usage is a snapshot of what the process has consumed so far.
type usage struct {
	cpu     time.Duration // user + system, getrusage
	mallocs uint64
	bytes   uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPU is the CPU time the calling thread has consumed
// (CLOCK_THREAD_CPUTIME_ID): unlike the process's, it does not include the
// collector's workers running beside the caller.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0 // cannot fail for this clock with a valid pointer
	}
	return time.Duration(ts.Nano())
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{cpuTime(), ms.Mallocs, ms.TotalAlloc}
}

func (u usage) sub(o usage) usage {
	return usage{u.cpu - o.cpu, u.mallocs - o.mallocs, u.bytes - o.bytes}
}

func (u usage) add(o usage) usage {
	return usage{u.cpu + o.cpu, u.mallocs + o.mallocs, u.bytes + o.bytes}
}

// heapLive is the heap still reachable after forced collections — two, so
// that what sync.Pools were holding (one collection only moves it to the
// pools' victim caches) is not counted as live.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// ---- the machine-speed reference -----------------------------------------

// The boxes this benchmark runs on are small shared VMs whose speed for
// allocation- and pointer-heavy code — which is what this system's hot
// paths are — moves by 20-50 % for tens of seconds at a time (README.md,
// "Noise"), far more than any bound a regression check could use. So every
// second the window pauses and times refUnit, a fixed piece of work made of
// the same primitives (small allocations, map inserts, pointer writes, and
// an integer loop), and every timing metric is scaled by refNominal over the
// reference time measured around it. What is reported is therefore time on
// a machine on which the reference takes refNominal; the figures as
// measured and the reference times are in the run record beside it.

// refNominal is the reference time on a quiet box of the class the benchmark
// was developed on. It only fixes the unit of the scaled metrics.
const refNominal = 2500 * time.Microsecond

type refNode struct {
	next *refNode
	v    [6]uint64
}

var refSink atomic.Uint64

// refUnit is the reference work: about two thirds allocation, map and
// pointer traffic, one third a spin loop of dependent integer arithmetic. It
// returns the time of the whole and of the spin loop alone.
func refUnit() (unit, spin time.Duration) {
	t0 := time.Now()
	var head *refNode
	m := make(map[int]*refNode)
	for i := 0; i < 24000; i++ {
		head = &refNode{next: head}
		m[i&4095] = head
	}
	t1 := time.Now()
	x := uint64(len(m)) + 88172645463325252
	for i := 0; i < 360_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	refSink.Store(x)
	return time.Since(t0), time.Since(t1)
}

// refTimes is one measurement of the machine's speed: refRounds rounds of
// refUnit on every core the run may use at once. unit is the time of one
// unit, which moves with how fast a busy core is; round is the time until a
// round's last unit ended, which also moves when the hypervisor takes a core
// away for a moment; cpu is the process CPU time one unit cost, which does
// not; spin is the time of the unit's spin loop alone, which moves only when
// the machine is in real trouble — its variation over a run is the noise
// guard. Each is the lower quartile over the rounds: a collection cycle the
// program's garbage started, still running behind the reference, only ever
// adds time to the rounds it overlaps.
type refTimes struct {
	unit, round, cpu, spin time.Duration
}

// refRounds is the number of rounds one reference measurement takes.
var refRounds = 9

func reference() refTimes {
	procs := runtime.GOMAXPROCS(0)
	var units, rounds, cpus, spins []float64
	for r := 0; r < refRounds; r++ {
		ts, cs, ss := make([]time.Duration, procs), make([]time.Duration, procs), make([]time.Duration, procs)
		var wg sync.WaitGroup
		start := time.Now()
		for g := range ts {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				runtime.LockOSThread() // so that threadCPU measures this unit
				defer runtime.UnlockOSThread()
				c0 := threadCPU()
				ts[g], ss[g] = refUnit()
				cs[g] = threadCPU() - c0
			}(g)
		}
		wg.Wait()
		rounds = append(rounds, float64(time.Since(start)))
		for g := range ts {
			units = append(units, float64(ts[g]))
			cpus = append(cpus, float64(cs[g]))
			spins = append(spins, float64(ss[g]))
		}
	}
	low := func(xs []float64) time.Duration {
		sort.Float64s(xs)
		return time.Duration(quantile(xs, 0.25))
	}
	return refTimes{unit: low(units), round: low(rounds), cpu: low(cpus), spin: low(spins)}
}

// wall is the reference for wall-clock time: an op is part serial and part
// fanned out over the cores, so half the unit time and half the round time.
// CPU time is scaled by the unit's CPU time.
func (r refTimes) wall() time.Duration { return (r.unit + r.round) / 2 }

// refSample is the reference measured at a moment of active time.
type refSample struct {
	at time.Duration
	refTimes
}

// speed returns the factor that scales a wall-clock time (or a CPU time)
// measured at active time t to the nominal machine: refNominal over the
// reference at t, interpolated between the samples around t.
func speed(refs []refSample, t time.Duration, cpu bool) float64 {
	of := func(r refSample) float64 {
		if cpu {
			return float64(r.cpu)
		}
		return float64(r.wall())
	}
	i := sort.Search(len(refs), func(i int) bool { return refs[i].at >= t })
	var ref float64
	switch {
	case len(refs) == 0:
		return 1
	case i == 0:
		ref = of(refs[0])
	case i == len(refs):
		ref = of(refs[len(refs)-1])
	default:
		a, b := refs[i-1], refs[i]
		ref = of(a) + (of(b)-of(a))*float64(t-a.at)/float64(max(b.at-a.at, 1))
	}
	return float64(refNominal) / ref
}

// ---- the measured window ---------------------------------------------------

// opSample is one completed op on the window's active-time axis.
type opSample struct {
	start, end time.Duration
	rows       int64
}

// mark pairs a moment of active time with the CPU consumed up to it.
type mark struct {
	at  time.Duration
	cpu time.Duration
}

// window is the outcome of a measured window.
type window struct {
	samples   []opSample
	marks     []mark
	refs      []refSample
	active    time.Duration // wall time inside the window, pauses excluded
	used      usage         // consumed inside the window, pauses excluded
	rows      int64
	readBytes int64
	splits    int64
	stats     sim.TaskStats
	attempted int
	failed    int
	firstErr  error
	heapLive  uint64
}

// slice is the granularity of the window: the reference is timed once per
// slice, and throughput and CPU are reported as the median slice, so a burst
// of interference from a neighbour costs one slice, not the run.
const slice = time.Second

// runWindow drives the workload's clients in a closed loop until the active
// clock passes d and minOps ops have started (or maxOps have, when maxOps >
// 0). Whatever
// the harness does for itself — timing the reference, preparing inputs,
// sampling the heap — happens with no op in flight and is a pause: it is
// taken off the clock and out of the CPU and allocation accounts.
func runWindow(def workloadDef, inst instance, d time.Duration, minOps, maxOps int, tr *tracer) *window {
	w := &window{}
	prep, _ := inst.(preparer)
	var (
		mu       sync.Mutex
		idle     = sync.NewCond(&mu) // signalled when inflight drops or a pause ends
		pausing  bool
		inflight int
		started  int
		nextRef  time.Duration
		paused   time.Duration
		excluded usage
	)
	t0 := time.Now()
	u0 := readUsage()
	active := func() time.Duration { return time.Since(t0) - paused }
	// pause runs fn off the clock. Callers hold mu with no op in flight.
	pause := func(fn func()) {
		ps, pu := time.Now(), readUsage()
		fn()
		excluded = excluded.add(readUsage().sub(pu))
		paused += time.Since(ps)
	}
	// exclusive holds new ops back, waits out those in flight, and pauses.
	exclusive := func(fn func()) {
		pausing = true
		for inflight > 0 {
			idle.Wait()
		}
		pause(fn)
		pausing = false
		idle.Broadcast()
	}

	var wg sync.WaitGroup
	for c := 0; c < def.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				mu.Lock()
				for pausing {
					idle.Wait()
				}
				if active() >= nextRef {
					exclusive(func() { w.refs = append(w.refs, refSample{active(), reference()}) })
					nextRef = active() + slice
				}
				if prep != nil && prep.prepared() == 0 {
					exclusive(prep.prepare)
				}
				if (active() >= d && started >= minOps) || (maxOps > 0 && started >= maxOps) {
					mu.Unlock()
					return
				}
				started++
				inflight++
				var ot *opTrace
				if tr != nil {
					ot = &opTrace{t: tr, trace: started}
				}
				mu.Unlock()

				root := ot.begin("bench", "op")
				start := active()
				res, err := inst.op(c, i, ot.under(root))
				end := active()
				ot.end(root, map[string]int64{"rows": res.rows, "bytes": res.readBytes})
				cpu := cpuTime()

				mu.Lock()
				inflight--
				w.attempted++
				if err != nil {
					w.failed++
					if w.firstErr == nil {
						w.firstErr = err
					}
				} else {
					w.samples = append(w.samples, opSample{start, end, res.rows})
					w.rows += res.rows
					w.readBytes += res.readBytes
					w.splits += res.splits
					w.stats.Add(res.stats)
				}
				w.marks = append(w.marks, mark{end, cpu - u0.cpu - excluded.cpu})
				if def.heapAfterOps > 0 && w.attempted == def.heapAfterOps {
					exclusive(func() { w.heapLive = heapLive() })
				}
				idle.Broadcast()
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	w.active = active()
	w.used = readUsage().sub(u0).sub(excluded)
	w.refs = append(w.refs, refSample{w.active, reference()})
	if w.heapLive == 0 {
		w.heapLive = heapLive()
	}
	return w
}

// quantile returns the q-quantile of sorted xs by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// opMillis returns the ops' wall-clock durations in ms, sorted: as measured,
// or scaled to the nominal machine by the reference around each op's end.
func (w *window) opMillis(scaled bool) []float64 {
	ms := make([]float64, len(w.samples))
	for i, s := range w.samples {
		ms[i] = float64(s.end-s.start) / 1e6
		if scaled {
			ms[i] *= speed(w.refs, s.end, false)
		}
	}
	sort.Float64s(ms)
	return ms
}

// sliced returns, for every whole slice of the window, the rows completed
// in it (each op's rows spread over the slices it overlaps, in proportion),
// the CPU consumed in it, and the moment of its middle.
func (w *window) sliced() (rows []float64, cpu []time.Duration, mid []time.Duration) {
	n := int(w.active / slice)
	if n < 3 {
		// Too short to slice: the whole window is the one slice.
		return []float64{float64(w.rows) * float64(slice) / float64(w.active)},
			[]time.Duration{time.Duration(float64(w.used.cpu) * float64(slice) / float64(w.active))},
			[]time.Duration{w.active / 2}
	}
	rows = make([]float64, n)
	for _, s := range w.samples {
		dur := float64(s.end - s.start)
		if dur <= 0 {
			continue
		}
		for k := int(s.start / slice); k <= int(s.end/slice) && k < n; k++ {
			lo, hi := max(s.start, time.Duration(k)*slice), min(s.end, time.Duration(k+1)*slice)
			rows[k] += float64(s.rows) * float64(hi-lo) / dur
		}
	}
	// CPU at each slice boundary, interpolated between the marks taken at
	// op completions.
	marks := append([]mark{{0, 0}}, w.marks...)
	sort.Slice(marks, func(i, j int) bool { return marks[i].at < marks[j].at })
	at := func(t time.Duration) time.Duration {
		i := sort.Search(len(marks), func(i int) bool { return marks[i].at >= t })
		if i == 0 {
			return marks[0].cpu
		}
		if i == len(marks) {
			return marks[len(marks)-1].cpu
		}
		a, b := marks[i-1], marks[i]
		if b.at == a.at {
			return b.cpu
		}
		return a.cpu + time.Duration(float64(b.cpu-a.cpu)*float64(t-a.at)/float64(b.at-a.at))
	}
	cpu = make([]time.Duration, n)
	mid = make([]time.Duration, n)
	for k := range cpu {
		cpu[k] = at(time.Duration(k+1)*slice) - at(time.Duration(k)*slice)
		mid[k] = time.Duration(k)*slice + slice/2
	}
	return rows, cpu, mid
}

// rowsPerSecond is the median slice's throughput, as measured or scaled to
// the nominal machine.
func (w *window) rowsPerSecond(scaled bool) float64 {
	rows, _, mid := w.sliced()
	per := make([]float64, len(rows))
	for k := range rows {
		per[k] = rows[k] / slice.Seconds()
		if scaled {
			per[k] /= speed(w.refs, mid[k], false)
		}
	}
	return median(per)
}

// cpuMicrosPerRow is the median slice's CPU per row, as measured or scaled.
func (w *window) cpuMicrosPerRow(scaled bool) float64 {
	rows, cpu, mid := w.sliced()
	per := make([]float64, 0, len(rows))
	for k := range rows {
		if rows[k] > 0 {
			v := float64(cpu[k]) / 1e3 / rows[k]
			if scaled {
				v *= speed(w.refs, mid[k], true)
			}
			per = append(per, v)
		}
	}
	return median(per)
}

// refTimes lists the window's reference measurements.
func (w *window) refTimes() []refTimes {
	out := make([]refTimes, len(w.refs))
	for i, r := range w.refs {
		out[i] = r.refTimes
	}
	return out
}

// cv is the coefficient of variation: standard deviation over mean.
func cv(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss/float64(len(xs)-1)) / mean
}

// warmUp runs untimed ops until ten per client have completed or a second
// has passed (three ops at least), so caches fill and lazy set-up finishes
// before the window opens.
func warmUp(def workloadDef, inst instance, cfg config) (ops int, err error) {
	limit := time.Second
	if cfg.scale == "tiny" {
		limit = 50 * time.Millisecond
	}
	w := runWindow(def, inst, limit, 3, 10*def.clients, nil)
	if w.firstErr != nil {
		return w.attempted, fmt.Errorf("warm-up: %w", w.firstErr)
	}
	return w.attempted, nil
}
