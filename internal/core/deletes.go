package core

import (
	"encoding/json"
	"fmt"

	"colmr/internal/hdfs"
	"colmr/internal/scan"
)

// Position delete vectors (the merge-on-read half of recrawl upserts). A
// recrawl arrival supersedes the earlier version of its key; the old row
// already sits inside an immutable flushed partition, so instead of
// rewriting the partition the ingest path records the row's ordinal in a
// delete file alongside it. Readers load the partition's delete set when
// they open the directory and skip the listed ordinals — scalar loops
// before predicate evaluation, vectorized loops by masking the batch's
// input selection — so a superseded row is never delivered, filtered, or
// folded. Compaction resolves the deletes physically (the merged partition
// carries none) and the files retire with their directories.
//
// Delete files are immutable and versioned like manifests: each flush that
// adds deletes to a partition writes the full cumulative set as a new
// _deletes.<N> file and points the next manifest generation at it, so a
// reader planned against an older generation keeps its older (complete)
// set. The files are uncharged metadata, like schemas: they are tiny next
// to the column data whose reads they mask.

// DeletesPrefix names delete files within a partition directory: the version
// written by the commit of generation N is the file DeletesPrefix + N.
const DeletesPrefix = "_deletes."

// delSet is one partition's loaded delete set.
type delSet struct {
	pos map[int64]bool
}

// has reports whether ordinal p is deleted.
func (d *delSet) has(p int64) bool {
	return d != nil && d.pos[p]
}

// mask clears the deleted ordinals of [start, end) from sel (whose bit i is
// ordinal start+i) and returns how many set bits it cleared.
func (d *delSet) mask(sel *scan.Selection, start, end int64) int64 {
	if d == nil {
		return 0
	}
	var n int64
	for p := range d.pos {
		if p < start || p >= end {
			continue
		}
		i := int(p - start)
		if sel.Test(i) {
			sel.Clear(i)
			n++
		}
	}
	return n
}

// WriteDeletes records ordinals as the delete file at path (the full
// cumulative set for its partition). The write is a single atomic call.
func WriteDeletes(fs *hdfs.FileSystem, path string, ordinals []int64) error {
	data, err := json.Marshal(ordinals)
	if err != nil {
		return fmt.Errorf("core: encoding deletes: %w", err)
	}
	return fs.WriteFile(path, data, hdfs.AnyNode)
}

// ReadDeletes loads the delete file at path.
func ReadDeletes(fs *hdfs.FileSystem, path string) ([]int64, error) {
	data, err := fs.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: reading deletes %s: %w", path, err)
	}
	var ordinals []int64
	if err := json.Unmarshal(data, &ordinals); err != nil {
		return nil, fmt.Errorf("core: parsing deletes %s: %w", path, err)
	}
	return ordinals, nil
}

// loadDelSet loads the delete set named by path ("" means none).
func loadDelSet(fs *hdfs.FileSystem, path string) (*delSet, error) {
	if path == "" {
		return nil, nil
	}
	ordinals, err := ReadDeletes(fs, path)
	if err != nil {
		return nil, err
	}
	if len(ordinals) == 0 {
		return nil, nil
	}
	d := &delSet{pos: make(map[int64]bool, len(ordinals))}
	for _, p := range ordinals {
		d.pos[p] = true
	}
	return d, nil
}

// delFileAt returns entry i of a split's parallel delete-file list, which
// hand-built splits may leave nil (no deletes).
func delFileAt(dels []string, i int) string {
	if i < len(dels) {
		return dels[i]
	}
	return ""
}
