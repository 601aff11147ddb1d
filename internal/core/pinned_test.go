package core

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"colmr/internal/colfile"
	"colmr/internal/hdfs"
	"colmr/internal/sim"
)

// treeDigest hashes every file under dir — path, bytes and the datanodes of
// every block — in listing order: what a load wrote and where it put it.
func treeDigest(t *testing.T, fs *hdfs.FileSystem, dir string) (files int, digest string) {
	t.Helper()
	h := sha256.New()
	var walk func(dir string)
	walk = func(dir string) {
		infos, err := fs.List(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, fi := range infos {
			if fi.IsDir {
				walk(fi.Path)
				continue
			}
			data, err := fs.ReadFile(fi.Path)
			if err != nil {
				t.Fatal(err)
			}
			locs, err := fs.BlockLocations(fi.Path)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%s %d %x %v\n", fi.Path, fi.Size, sha256.Sum256(data), locs)
			files++
		}
	}
	walk(dir)
	return files, fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// TestWriterPinnedLoad pins what core.Writer writes, where the blocks land
// and what the load is charged, under both rotation rules, to literals
// recorded from the commit before the write path was rearranged: the
// split-directory writer, the colfile writers under it and the namenode may
// change how they work, never what they produce.
func TestWriterPinnedLoad(t *testing.T) {
	skipList := LoadOptions{
		SplitRecords: 300,
		Default:      colfile.Options{Layout: colfile.SkipList, StatsEvery: 64},
		PerColumn:    map[string]colfile.Options{"metadata": {Layout: colfile.DCSL}},
		WriterNode:   2,
	}
	for _, tc := range []struct {
		name  string
		opts  LoadOptions
		cpp   bool
		rows  int
		files int
		tree  string
		stats string
	}{
		{name: "split_records/skiplist+dcsl/default_placement", opts: skipList, rows: 1000,
			files: pinnedSplitRecordsFiles, tree: pinnedSplitRecordsTree, stats: pinnedSplitRecordsStats},
		{name: "split_bytes/plain/default_placement", opts: LoadOptions{WriterNode: hdfs.AnyNode}, rows: 1500,
			files: pinnedSplitBytesFiles, tree: pinnedSplitBytesTree, stats: pinnedSplitBytesStats},
		{name: "split_bytes/block_lzo/column_placement", cpp: true, rows: 1500,
			opts:  LoadOptions{Default: colfile.Options{Layout: colfile.Block, Codec: "lzo", BlockBytes: 8 << 10}, WriterNode: hdfs.AnyNode},
			files: pinnedBlockFiles, tree: pinnedBlockTree, stats: pinnedBlockStats},
	} {
		fs := testFS(t, 8)
		if tc.cpp {
			fs.SetPlacementPolicy(hdfs.NewColumnPlacementPolicy())
		}
		var st sim.TaskStats
		w, err := NewWriter(fs, "/pinned", crawlSchema, tc.opts, &st)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(77))
		for i := 0; i < tc.rows; i++ {
			if err := w.Append(makeRecord(rng, i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		files, tree := treeDigest(t, fs, "/pinned")
		stats := fmt.Sprintf("written=%d raw=%d lzo=%d dict=%d", st.IO.BytesWritten, st.CPU.RawBytes, st.CPU.LzoCompBytes, st.CPU.DictCompBytes)
		if pinned := (sim.CPUStats{RawBytes: st.CPU.RawBytes, LzoCompBytes: st.CPU.LzoCompBytes, DictCompBytes: st.CPU.DictCompBytes}); pinned != st.CPU {
			t.Errorf("%s: the load charged a counter the literals do not pin: %+v", tc.name, st.CPU)
		}
		if files != tc.files || tree != tc.tree || stats != tc.stats {
			t.Errorf("%s: the load moved:\n got %d files, tree %s, %s\nwant %d files, tree %s, %s",
				tc.name, files, tree, stats, tc.files, tc.tree, tc.stats)
		}
	}
}

// Recorded from the parent commit (7ab7321).
const (
	pinnedSplitRecordsFiles = 20
	pinnedSplitRecordsTree  = "f0ae6990b1c11d70f062c598"
	pinnedSplitRecordsStats = "written=670732 raw=1133778 lzo=0 dict=31331"
	pinnedSplitBytesFiles   = 20
	pinnedSplitBytesTree    = "c5b50ffe609e5898c47ecf51"
	pinnedSplitBytesStats   = "written=1002293 raw=894144 lzo=0 dict=0"
	pinnedBlockFiles        = 15
	pinnedBlockTree         = "4ca5aab60b1a23f1ebfc269b"
	pinnedBlockStats        = "written=945764 raw=894144 lzo=894144 dict=0"
)
