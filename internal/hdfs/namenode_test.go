package hdfs

import (
	"fmt"
	"math/rand"
	"path"
	"reflect"
	"sort"
	"strings"
	"testing"

	"colmr/internal/race"
)

// scanNamenode is the namenode as it was before the per-directory index: a
// flat table of files and one of directories, with List, RemoveAll and
// TreeSize answered by walking both whole. It survives here as the oracle
// the indexed namenode is compared with after every step.
type scanNamenode struct {
	files map[string]int64 // path -> size
	dirs  map[string]bool
}

func newScanNamenode() *scanNamenode {
	return &scanNamenode{files: map[string]int64{}, dirs: map[string]bool{"/": true}}
}

func (o *scanNamenode) mkdirAll(dir string) {
	for d := dir; d != "/"; d = path.Dir(d) {
		o.dirs[d] = true
	}
}

func (o *scanNamenode) create(p string, size int64) error {
	if _, ok := o.files[p]; ok {
		return fmt.Errorf("hdfs: create %s: file exists", p)
	}
	if o.dirs[p] {
		return fmt.Errorf("hdfs: create %s: is a directory", p)
	}
	o.mkdirAll(path.Dir(p))
	o.files[p] = size
	return nil
}

func (o *scanNamenode) stat(p string) (FileInfo, error) {
	if size, ok := o.files[p]; ok {
		return FileInfo{Path: p, Size: size}, nil
	}
	if o.dirs[p] {
		return FileInfo{Path: p, IsDir: true}, nil
	}
	return FileInfo{}, fmt.Errorf("hdfs: stat %s: no such file or directory", p)
}

func (o *scanNamenode) list(dir string) ([]FileInfo, error) {
	if !o.dirs[dir] {
		if _, ok := o.files[dir]; ok {
			return nil, fmt.Errorf("hdfs: list %s: not a directory", dir)
		}
		return nil, fmt.Errorf("hdfs: list %s: no such directory", dir)
	}
	seen := make(map[string]FileInfo)
	add := func(p string, isDir bool, size int64) {
		if path.Dir(p) != dir {
			return
		}
		if _, ok := seen[p]; !ok {
			seen[p] = FileInfo{Path: p, Size: size, IsDir: isDir}
		}
	}
	for p, size := range o.files {
		add(p, false, size)
	}
	for d := range o.dirs {
		if d != "/" {
			add(d, true, 0)
		}
	}
	out := make([]FileInfo, 0, len(seen))
	for _, fi := range seen {
		out = append(out, fi)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

func (o *scanNamenode) remove(p string) error {
	if _, ok := o.files[p]; !ok {
		return fmt.Errorf("hdfs: remove %s: no such file", p)
	}
	delete(o.files, p)
	return nil
}

func (o *scanNamenode) removeAll(p string) {
	for f := range o.files {
		if f == p || strings.HasPrefix(f, p+"/") {
			delete(o.files, f)
		}
	}
	for d := range o.dirs {
		if d == p || strings.HasPrefix(d, p+"/") {
			delete(o.dirs, d)
		}
	}
}

func (o *scanNamenode) treeSize(dir string) int64 {
	var total int64
	for p, size := range o.files {
		if p == dir || strings.HasPrefix(p, dir+"/") {
			total += size
		}
	}
	return total
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestNamenodeIndexMatchesScan drives random Create / MkdirAll / Remove /
// RemoveAll sequences, re-creations and file-versus-directory collisions
// included, over a small path universe, and after every step compares
// List (entries, order, sizes, error texts), Stat, Exists and TreeSize of
// every path in the universe with the scan-everything oracle.
//
// The root is the one place the two differ on purpose, and the sequences
// keep off it: the oracle's prefix test (p+"/" = "//") matches nothing, so
// its RemoveAll("/") dropped the root's entry and nothing under it and its
// TreeSize("/") was 0; the index treats the root as the directory it is.
func TestNamenodeIndexMatchesScan(t *testing.T) {
	var universe []string
	for _, a := range []string{"a", "b", "s0"} {
		universe = append(universe, "/"+a)
		for _, b := range []string{"a", "x", "seq-1"} {
			universe = append(universe, "/"+a+"/"+b)
			for _, c := range []string{"x", "y"} {
				universe = append(universe, "/"+a+"/"+b+"/"+c)
			}
		}
	}
	trials, steps := 40, 150
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		fs := New(testCluster(), int64(trial))
		oracle := newScanNamenode()
		for step := 0; step < steps; step++ {
			p := universe[rng.Intn(len(universe))]
			var op string
			switch k := rng.Intn(10); {
			case k < 4:
				size := rng.Intn(300)
				op = fmt.Sprintf("Create(%s, %d bytes)", p, size)
				got := fs.WriteFile(p, make([]byte, size), AnyNode)
				if want := oracle.create(p, int64(size)); errText(got) != errText(want) {
					t.Fatalf("trial %d step %d: %s = %q, oracle %q", trial, step, op, errText(got), errText(want))
				}
			case k < 6:
				op = fmt.Sprintf("MkdirAll(%s)", p)
				fs.MkdirAll(p)
				oracle.mkdirAll(p)
			case k < 8:
				op = fmt.Sprintf("Remove(%s)", p)
				if got, want := fs.Remove(p), oracle.remove(p); errText(got) != errText(want) {
					t.Fatalf("trial %d step %d: %s = %q, oracle %q", trial, step, op, errText(got), errText(want))
				}
			default:
				op = fmt.Sprintf("RemoveAll(%s)", p)
				if err := fs.RemoveAll(p); err != nil {
					t.Fatalf("trial %d step %d: %s: %v", trial, step, op, err)
				}
				oracle.removeAll(p)
			}
			for _, q := range append([]string{"/", "/missing"}, universe...) {
				got, gotErr := fs.List(q)
				want, wantErr := oracle.list(q)
				if errText(gotErr) != errText(wantErr) || !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d step %d: after %s List(%s) = %v, %q; oracle %v, %q",
						trial, step, op, q, got, errText(gotErr), want, errText(wantErr))
				}
				gotFi, gotErr := fs.Stat(q)
				wantFi, wantErr := oracle.stat(q)
				if errText(gotErr) != errText(wantErr) || gotFi != wantFi || fs.Exists(q) != (wantErr == nil) {
					t.Fatalf("trial %d step %d: after %s Stat(%s) = %+v, %q; oracle %+v, %q",
						trial, step, op, q, gotFi, errText(gotErr), wantFi, errText(wantErr))
				}
				if q != "/" && fs.TreeSize(q) != oracle.treeSize(q) {
					t.Fatalf("trial %d step %d: after %s TreeSize(%s) = %d, oracle %d",
						trial, step, op, q, fs.TreeSize(q), oracle.treeSize(q))
				}
			}
		}
		// Every removal, however it was reached, gave its bytes back.
		var usage, stored int64
		for _, u := range fs.usage {
			usage += u
		}
		for _, size := range oracle.files {
			stored += size
		}
		if want := stored * int64(fs.cfg.Replication); usage != want {
			t.Fatalf("trial %d: datanodes hold %d bytes, the namespace accounts for %d", trial, usage, want)
		}
	}
}

// TestNamenodeRoot pins what the index does at the root, where the oracle's
// prefix test never matched.
func TestNamenodeRoot(t *testing.T) {
	fs := New(testCluster(), 1)
	fs.WriteFile("/a/x", make([]byte, 10), AnyNode)
	fs.WriteFile("/y", make([]byte, 5), AnyNode)
	if got := fs.TreeSize("/"); got != 15 {
		t.Errorf("TreeSize(/) = %d, want 15", got)
	}
	if err := fs.RemoveAll("/"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/a/x") || fs.Exists("/a") || fs.Exists("/y") {
		t.Error("RemoveAll(/) left entries behind")
	}
	if err := fs.WriteFile("/z", nil, AnyNode); err != nil {
		t.Fatal(err)
	}
	infos, err := fs.List("/")
	if err != nil || len(infos) != 1 || infos[0].Path != "/z" {
		t.Errorf("List(/) after re-creating under an emptied root = %v, %v", infos, err)
	}
}

// BenchmarkNamenodeList lists one 8-file split-directory of a 50 000-file
// namespace, as the scheduler does for every split it places. The cost must
// be the directory's, not the namespace's: TestNamenodeListIgnoresNamespace
// holds the two apart.
func BenchmarkNamenodeList(b *testing.B) {
	fs := bigNamespace(b, 50_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if infos, err := fs.List("/data/p17/s3"); err != nil || len(infos) != 8 {
			b.Fatalf("List = %d entries, %v", len(infos), err)
		}
	}
}

// bigNamespace builds split-directories of 8 empty files, 16 to a partition,
// until the namespace holds files of them.
func bigNamespace(tb testing.TB, files int) *FileSystem {
	fs := New(testCluster(), 1)
	for i := 0; i < files; i++ {
		dir := i / 8
		p := fmt.Sprintf("/data/p%d/s%d/col%d", dir/16, dir%16, i%8)
		if err := fs.WriteFile(p, nil, AnyNode); err != nil {
			tb.Fatal(err)
		}
	}
	return fs
}

// TestNamenodeListIgnoresNamespace: listing a directory allocates the same
// whether the namespace around it holds a thousand files or fifty times as
// many — the walk over every file and directory is gone.
func TestNamenodeListIgnoresNamespace(t *testing.T) {
	var allocs [2]float64
	for i, files := range []int{1_000, 50_000} {
		fs := bigNamespace(t, files)
		allocs[i] = testing.AllocsPerRun(20, func() {
			if infos, err := fs.List("/data/p3/s3"); err != nil || len(infos) != 8 {
				t.Fatalf("List = %d entries, %v", len(infos), err)
			}
		})
	}
	if allocs[0] != allocs[1] {
		t.Errorf("List of an 8-file directory allocates %.0f objects in a 1 000-file namespace and %.0f in a 50 000-file one", allocs[0], allocs[1])
	}
	race.AllocCeiling(t, "List of an 8-file directory", allocs[1], 2)
}
