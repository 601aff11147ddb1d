// Package prof gives a command the -cpuprofile and -memprofile flags: a CPU
// profile of the run and a heap profile written as it ends, both by the
// standard library's runtime/pprof in the format `go tool pprof` reads.
package prof

import (
	"errors"
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiles are the profiles one run writes.
type Profiles struct {
	cpuPath, memPath string
	cpu              *os.File // open while the CPU profile runs
}

// Register adds -cpuprofile and -memprofile to the command line's flags.
func Register() *Profiles {
	p := new(Profiles)
	flag.StringVar(&p.cpuPath, "cpuprofile", "", "write a CPU profile of the run to `file`")
	flag.StringVar(&p.memPath, "memprofile", "", "write a heap profile to `file` as the run ends (what it allocated, and what is live)")
	return p
}

// Start begins the CPU profile, if one was asked for, and with a heap profile
// asked for has every allocation from here on recorded, not one in 512 KiB:
// its object counts are then exact, and the run is slower for it. Call Start
// once flags are parsed, and Stop when the work is done.
func (p *Profiles) Start() error {
	if p.memPath != "" {
		runtime.MemProfileRate = 1
	}
	if p.cpuPath == "" {
		return nil
	}
	f, err := os.Create(p.cpuPath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		return errors.Join(err, f.Close())
	}
	p.cpu = f
	return nil
}

// Stop ends the CPU profile and writes the heap profile, each if asked for.
func (p *Profiles) Stop() error {
	var errs []error
	if p.cpu != nil {
		pprof.StopCPUProfile()
		errs = append(errs, p.cpu.Close())
		p.cpu = nil
	}
	if p.memPath != "" {
		f, err := os.Create(p.memPath)
		if err != nil {
			return errors.Join(append(errs, err)...)
		}
		runtime.GC() // the live figures as of the end of the run, not of the last cycle
		errs = append(errs, pprof.WriteHeapProfile(f), f.Close())
	}
	return errors.Join(errs...)
}
