package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runRepeat is -repeat SETSxRUNS: every workload is run RUNS times per set,
// run k of every set on seed base+k, workloads alternating inside a set so
// slow drift of the machine hits all of them alike. It prints, per workload
// and end-to-end metric, each set's median and quartiles, the spread of a
// set (interquartile range over median) and the worsening of each later
// set's median against the first, and holds both against the metric's bound
// — the acceptance check a reviewer would otherwise do by hand. Each run is
// a fresh process, like the driver's.
func runRepeat(spec string, seed int64, seconds float64) int {
	sets, runs, ok := parseRepeat(spec)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: -repeat wants SETSxRUNS with both at least 2, e.g. 2x5; got %q\n", spec)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	defs := workloads()
	// values[workload][metric][set] = the runs' values
	values := map[string]map[string][][]float64{}
	noisy := 0
	for s := 0; s < sets; s++ {
		for r := 0; r < runs; r++ {
			for _, def := range defs {
				res, info, err := runChild(self, def.name, seed+int64(r), seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: set %d run %d of %s: %v\n", s+1, r+1, def.name, err)
					return 1
				}
				if info.Noisy {
					noisy++
				}
				byMetric := values[def.name]
				if byMetric == nil {
					byMetric = map[string][][]float64{}
					values[def.name] = byMetric
				}
				for name, v := range res.Metrics {
					if byMetric[name] == nil {
						byMetric[name] = make([][]float64, sets)
					}
					byMetric[name][s] = append(byMetric[name][s], v.Value)
				}
				fmt.Fprintf(os.Stderr, "set %d run %d %-15s %5d ops  p50 %8.3f ms (as measured %8.3f ms)  reference %.2f ms, spin cv %.3f\n",
					s+1, r+1, def.name, info.Ops, res.Metrics["op_p50_ms"].Value, info.Raw["op_p50_ms"], median(info.RefMs), info.SpinCV)
			}
		}
	}

	fmt.Printf("repeatability: %d sets x %d runs per workload, seeds %d..%d, %.0f s windows, %d of %d runs marked noisy (spin cv > %.2f or reference > %.1f x nominal)\n",
		sets, runs, seed, seed+int64(runs)-1, seconds, noisy, sets*runs*len(defs), noisyCV, slowMachine)
	fmt.Println("per set: median [q1, q3] spread = (q3-q1)/median; delta = worsening of the set's median against set 1; both are held against the bound (spread of setup_s is exempt)")
	misses := 0
	for _, def := range defs {
		fmt.Printf("\n%s\n", def.name)
		for _, d := range endToEnd {
			per := values[def.name][d.name]
			line := fmt.Sprintf("  %-28s bound %.2f", d.name, d.bound)
			var first float64
			verdict := "ok"
			for s, xs := range per {
				q1, q2, q3 := quartiles(xs)
				spread := (q3 - q1) / q2
				line += fmt.Sprintf(" | set %d: %.6g [%.6g, %.6g] spread %.4f", s+1, q2, q1, q3, spread)
				if spread > d.bound && d.name != "setup_s" {
					verdict = "MISS (spread)"
				}
				if s == 0 {
					first = q2
					continue
				}
				delta := (q2 - first) / first
				if d.better == "higher" {
					delta = -delta
				}
				line += fmt.Sprintf(" delta %+.4f", delta)
				if delta > d.bound {
					verdict = "MISS (delta)"
				}
			}
			if verdict != "ok" {
				misses++
			}
			fmt.Printf("%s | %s\n", line, verdict)
		}
	}
	if misses > 0 {
		fmt.Printf("\n%d metric x workload pairs missed their bound\n", misses)
		return 1
	}
	fmt.Println("\nevery metric of every workload is within its bound")
	return 0
}

func parseRepeat(spec string) (sets, runs int, ok bool) {
	a, b, found := strings.Cut(spec, "x")
	if !found {
		return 0, 0, false
	}
	sets, err1 := strconv.Atoi(a)
	runs, err2 := strconv.Atoi(b)
	return sets, runs, err1 == nil && err2 == nil && sets >= 2 && runs >= 2
}

// runChild runs one untraced run in a fresh process and parses the run
// record and the result, the last two lines of its output.
func runChild(self, workload string, seed int64, seconds float64) (*result, *runInfo, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child to end
	if err != nil {
		return nil, nil, err
	}
	var lines []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) < 2 {
		return nil, nil, fmt.Errorf("child printed %d lines", len(lines))
	}
	var res result
	var rec struct {
		Run runInfo `json:"run"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, nil, fmt.Errorf("result line: %w", err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rec); err != nil {
		return nil, nil, fmt.Errorf("run record line: %w", err)
	}
	return &res, &rec.Run, nil
}

// quartiles are the cut points Python's statistics.quantiles(xs, n=4) gives
// (its default, exclusive method), so spreads computed here are the
// spreads the driver computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
