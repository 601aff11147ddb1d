package mapred

import (
	"testing"

	"colmr/internal/hdfs"
	"colmr/internal/sim"
)

func TestFileSplitHostsRankedByLocalBytes(t *testing.T) {
	cfg := sim.DefaultCluster()
	cfg.Nodes = 6
	cfg.BlockSize = 1 << 14
	fs := hdfs.New(cfg, 5)
	// Three blocks.
	if err := fs.WriteFile("/f", make([]byte, 3<<14), 2); err != nil {
		t.Fatal(err)
	}
	sp := &FileSplit{Path: "/f", Start: 0, End: 3 << 14}
	hosts := sp.Hosts(fs)
	if len(hosts) == 0 {
		t.Fatal("no hosts")
	}
	// The writer node holds every block's first replica: it must rank first.
	if hosts[0] != 2 {
		t.Errorf("top host = %d, want writer node 2", hosts[0])
	}
	// A sub-range split must only consider overlapped blocks.
	sub := &FileSplit{Path: "/f", Start: 0, End: 10}
	if len(sub.Hosts(fs)) == 0 {
		t.Error("sub-range split has no hosts")
	}
	// Missing file: no hosts, no panic.
	missing := &FileSplit{Path: "/nope", Start: 0, End: 10}
	if h := missing.Hosts(fs); h != nil {
		t.Errorf("missing file hosts = %v", h)
	}
}

func TestSplitFilesDirectoriesAndSizes(t *testing.T) {
	cfg := sim.DefaultCluster()
	cfg.Nodes = 4
	fs := hdfs.New(cfg, 1)
	fs.WriteFile("/in/a", make([]byte, 1000), 0)
	fs.WriteFile("/in/b", make([]byte, 2500), 0)
	fs.WriteFile("/in/empty", nil, 0)

	splits, err := SplitFiles(fs, []string{"/in"}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// a: 1 split; b: 3 splits; empty: none.
	if len(splits) != 4 {
		t.Fatalf("splits = %d, want 4: %v", len(splits), splits)
	}
	var total int64
	for _, sp := range splits {
		f := sp.(*FileSplit)
		if f.End <= f.Start {
			t.Errorf("empty split %v", f)
		}
		total += f.End - f.Start
	}
	if total != 3500 {
		t.Errorf("split bytes = %d, want 3500", total)
	}

	// Single file path and default target size.
	splits, err = SplitFiles(fs, []string{"/in/a"}, 0)
	if err != nil || len(splits) != 1 {
		t.Errorf("single file: %d splits, %v", len(splits), err)
	}
	// Missing path errors.
	if _, err := SplitFiles(fs, []string{"/missing"}, 0); err == nil {
		t.Error("missing input path accepted")
	}
}

func TestTextOutputRequiresPath(t *testing.T) {
	fs := testFS()
	if _, err := (TextOutput{}).Open(fs, &JobConf{}, 0, nil); err == nil {
		t.Error("TextOutput without output path accepted")
	}
}
