package core

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"colmr/internal/hdfs"
)

// Generation-stamped dataset manifests (the streaming-ingest commit
// protocol). A bulk-loaded dataset is immutable, so its layout is its
// directory listing. A dataset written by the ingest subsystem changes
// shape while scans are running — flushes add fresh partitions, compaction
// replaces runs of them — so its layout is published through a manifest
// instead:
//
//   - every layout is an immutable file dataset/_manifest.<N>, written with
//     a single atomic Write; N is the generation;
//   - readers take the highest N that parses. A manifest file created but
//     not yet written parses as garbage and is skipped, so a reader racing
//     a commit sees the previous complete generation, never a torn one;
//   - the manifest lists partitions in arrival order — the authoritative
//     scan order — each with its current delete-file name, plus the
//     directories retired by compaction (kept on disk until GC, so a scan
//     planned against an older generation finishes against intact files).
//
// The session caches need no commit hook for correctness: cache keys carry
// file generations, and delete files mask rows at the selection level
// without changing any column byte. Invalidation after compaction is purely
// a budget release for retired directories.

// ManifestPrefix names manifest files within a dataset directory: generation
// N is the file ManifestPrefix + N.
const ManifestPrefix = "_manifest."

// ManifestPartition is one partition of a manifest-published dataset.
type ManifestPartition struct {
	// Dir is the partition directory, relative to the dataset root
	// (e.g. "dt=300/seq-2" or "c1/s0").
	Dir string
	// Deletes is the partition's current delete-file name ("" when the
	// partition has no superseded rows).
	Deletes string `json:",omitempty"`
	// Records is the partition's physical record count (deleted rows
	// included), recorded for scheduling and stats.
	Records int64
}

// Manifest is one published generation of a streaming dataset's layout.
type Manifest struct {
	Generation int64
	Partitions []ManifestPartition
	// Retired lists directories replaced by compaction and no longer part
	// of any live generation; they stay on disk until GC so in-flight scans
	// finish, then may be removed.
	Retired []string `json:",omitempty"`
}

// manifestPath returns the manifest file path for a generation.
func manifestPath(dataset string, gen int64) string {
	return dataset + "/" + ManifestPrefix + strconv.FormatInt(gen, 10)
}

// WriteManifest publishes m as generation m.Generation of the dataset. The
// write is a single atomic call, and the file is immutable once written.
func WriteManifest(fs *hdfs.FileSystem, dataset string, m *Manifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("core: encoding manifest: %w", err)
	}
	return fs.WriteFile(manifestPath(dataset, m.Generation), data, hdfs.AnyNode)
}

// ReadManifest returns the dataset's highest parseable manifest generation,
// or ok=false when the dataset publishes no manifest (a bulk-loaded
// dataset). Like schema files, manifests are uncharged metadata.
func ReadManifest(fs *hdfs.FileSystem, dataset string) (*Manifest, bool, error) {
	infos, err := fs.List(dataset)
	if err != nil {
		return nil, false, err
	}
	var gens []int64
	for _, fi := range infos {
		if fi.IsDir || !strings.HasPrefix(fi.Name(), ManifestPrefix) {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimPrefix(fi.Name(), ManifestPrefix), 10, 64)
		if err != nil {
			continue
		}
		gens = append(gens, n)
	}
	if len(gens) == 0 {
		return nil, false, nil
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
	for _, gen := range gens {
		data, err := fs.ReadFile(manifestPath(dataset, gen))
		if err != nil {
			continue
		}
		var m Manifest
		if json.Unmarshal(data, &m) != nil {
			// A racing commit's file exists but is not yet written; fall back
			// to the previous complete generation.
			continue
		}
		return &m, true, nil
	}
	return nil, false, fmt.Errorf("core: %s has manifest files but no parseable generation", dataset)
}

// dsLayout is one dataset's layout snapshot taken for one planning
// operation: split-directories in scan order, with each one's delete-file
// path ("" when none). Every directory and delete decision of a plan comes
// from one snapshot, so a batch member can never mix generations.
type dsLayout struct {
	dirs []string
	dels []string
}

// datasetLayout resolves a dataset's current layout: the manifest when one
// is published, else the plain split-directory listing (bulk-loaded
// datasets have no deletes and list in numeric order).
func datasetLayout(fs *hdfs.FileSystem, dataset string) (dsLayout, error) {
	m, ok, err := ReadManifest(fs, dataset)
	if err != nil {
		return dsLayout{}, err
	}
	if !ok {
		dirs, err := listSplitDirs(fs, dataset)
		if err != nil {
			return dsLayout{}, err
		}
		return dsLayout{dirs: dirs, dels: make([]string, len(dirs))}, nil
	}
	if len(m.Partitions) == 0 {
		return dsLayout{}, fmt.Errorf("core: %s manifest generation %d lists no partitions", dataset, m.Generation)
	}
	l := dsLayout{
		dirs: make([]string, len(m.Partitions)),
		dels: make([]string, len(m.Partitions)),
	}
	for i, p := range m.Partitions {
		dir := dataset + "/" + p.Dir
		l.dirs[i] = dir
		if p.Deletes != "" {
			l.dels[i] = dir + "/" + p.Deletes
		}
	}
	return l, nil
}

// layoutCached resolves a dataset's layout through a per-planning-operation
// cache, so the members of one shared batch plan against one snapshot even
// if a commit lands between their planning passes.
func layoutCached(fs *hdfs.FileSystem, dataset string, cache map[string]dsLayout) (dsLayout, error) {
	if cache != nil {
		if l, ok := cache[dataset]; ok {
			return l, nil
		}
	}
	l, err := datasetLayout(fs, dataset)
	if err != nil {
		return l, err
	}
	if cache != nil {
		cache[dataset] = l
	}
	return l, nil
}

// isFreshPartition reports whether dir is a not-yet-compacted ingest
// partition (a seq-N split-directory), for the merge-on-read counter.
func isFreshPartition(dir string) bool {
	base := dir
	if i := strings.LastIndexByte(dir, '/'); i >= 0 {
		base = dir[i+1:]
	}
	return strings.HasPrefix(base, "seq-")
}
