package prof

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var sink []byte

// The flags name the files, Start and Stop write them: gzipped pprof
// protobufs, the CPU profile and the heap profile alike.
func TestProfilesWritten(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	p := Register()
	for name, path := range map[string]string{"cpuprofile": cpu, "memprofile": mem} {
		if err := flag.Set(name, path); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if runtime.MemProfileRate != 1 {
		t.Errorf("MemProfileRate %d with a heap profile asked for, want 1", runtime.MemProfileRate)
	}
	for i := range 1000 {
		sink = make([]byte, 64+i)
	}
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(b, []byte{0x1f, 0x8b}) {
			t.Errorf("%s: %d bytes, not a gzipped profile", filepath.Base(path), len(b))
		}
	}
}
