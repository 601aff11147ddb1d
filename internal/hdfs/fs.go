// Package hdfs implements an in-memory simulation of the Hadoop Distributed
// File System with the properties the paper's techniques depend on:
//
//   - files are split into fixed-size blocks, each replicated on R datanodes;
//   - block placement is delegated to a pluggable BlockPlacementPolicy
//     (Hadoop's dfs.block.replicator.classname extension point), which is
//     how the paper's ColumnPlacementPolicy co-locates column files;
//   - files are append-only (writers cannot rewrite earlier bytes), the
//     constraint that forces double-buffering when building skip lists;
//   - readers are tied to a reading node and charge traffic at transfer-unit
//     granularity, distinguishing local from remote bytes and counting disk
//     seeks, which is what makes I/O-elimination comparisons measurable.
//
// Block payloads are stored once in memory and shared across replicas;
// replication is a metadata-level property, which is all the experiments
// observe (locality, not durability of physical bytes).
package hdfs

import (
	"errors"
	"fmt"
	"math/rand"
	"path"
	"slices"
	"sort"
	"strings"
	"sync"

	"colmr/internal/sim"
)

// NodeID identifies a datanode. Valid IDs are 0..Nodes-1; AnyNode means
// "no particular node" (the scheduler or policy picks one).
type NodeID int

// AnyNode is the reader/writer node used when locality does not matter.
const AnyNode NodeID = -1

// FileSystem is the simulated namenode plus datanode state.
type FileSystem struct {
	mu     sync.Mutex
	cfg    sim.ClusterConfig
	policy BlockPlacementPolicy
	files  map[string]*fileMeta
	// dirs is the namenode's directory table and its index at once: every
	// directory maps to the set of its immediate children, files and
	// directories alike, by full path. Create, mkdirAll, Remove and
	// RemoveAll keep it, so List costs its directory and RemoveAll and
	// TreeSize their subtree, whatever else the namespace holds.
	dirs map[string]map[string]struct{}
	rng  *rand.Rand
	// usage tracks bytes stored per node, used by the default policy for
	// coarse balancing.
	usage []int64
	dead  []bool
	// nextGen numbers file creations; a path recreated after Remove gets a
	// fresh generation, which is what keys session scan caches (ScanCache)
	// so they can never serve a rebuilt file's predecessor.
	nextGen int64
	// mutations counts mutating calls (see FailNth); the failAt-th fails.
	mutations, failAt int
}

// ErrInjected is the error a call armed by FailNth fails with.
var ErrInjected = errors.New("injected fault")

// FailNth arms crash injection: the k-th mutating call from now on —
// Create, FileWriter.Write, FileWriter.Close, WriteFile or Remove, counted
// from 1 in call order — fails with an error wrapping ErrInjected, and every
// other call runs as usual. A failed Write appends the first half of its
// bytes before it fails, as a write torn by a crash would; any other failed
// call changes nothing. WriteFile counts once itself and once for each of
// the Create, Write and Close it makes. k <= 0 disarms the hook. The
// returned function reports how many mutating calls have been made since.
func (fs *FileSystem) FailNth(k int) (calls func() int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.mutations, fs.failAt = 0, k
	return func() int {
		fs.mu.Lock()
		defer fs.mu.Unlock()
		return fs.mutations
	}
}

// mutateLocked counts one mutating call and returns its injected fault, if
// the call is the one FailNth armed.
func (fs *FileSystem) mutateLocked(op, p string) error {
	fs.mutations++
	if fs.mutations != fs.failAt {
		return nil
	}
	return fmt.Errorf("hdfs: %s %s: %w", op, p, ErrInjected)
}

type fileMeta struct {
	path   string
	gen    int64
	blocks []*block
	size   int64
	closed bool
}

type block struct {
	data     []byte
	replicas []NodeID
}

// FileInfo describes a file or directory.
type FileInfo struct {
	Path  string
	Size  int64
	IsDir bool
}

// Name returns the base name of the entry.
func (fi FileInfo) Name() string { return path.Base(fi.Path) }

// New creates a filesystem over the given cluster with the default block
// placement policy. The seed makes placement deterministic.
func New(cfg sim.ClusterConfig, seed int64) *FileSystem {
	fs := &FileSystem{
		cfg:   cfg,
		files: make(map[string]*fileMeta),
		dirs:  map[string]map[string]struct{}{"/": {}},
		rng:   rand.New(rand.NewSource(seed)),
		usage: make([]int64, cfg.Nodes),
		dead:  make([]bool, cfg.Nodes),
	}
	fs.policy = NewDefaultPolicy()
	return fs
}

// Config returns the cluster configuration the filesystem was built with.
func (fs *FileSystem) Config() sim.ClusterConfig { return fs.cfg }

// SetPlacementPolicy installs a block placement policy, mirroring Hadoop's
// dfs.block.replicator.classname configuration property.
func (fs *FileSystem) SetPlacementPolicy(p BlockPlacementPolicy) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.policy = p
}

func clean(p string) string {
	if p == "" {
		return "/"
	}
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return path.Clean(p)
}

// MkdirAll creates a directory and all parents.
func (fs *FileSystem) MkdirAll(dir string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.mkdirAllLocked(clean(dir))
}

// mkdirAllLocked creates dir and its missing ancestors, entering each in
// its parent, and returns dir's child set.
func (fs *FileSystem) mkdirAllLocked(dir string) map[string]struct{} {
	if children, ok := fs.dirs[dir]; ok {
		return children
	}
	children := map[string]struct{}{}
	fs.dirs[dir] = children
	if dir != "/" {
		fs.mkdirAllLocked(path.Dir(dir))[dir] = struct{}{}
	}
	return children
}

// Create opens a new append-only file for writing from the given node.
// Parent directories are created implicitly. It is an error if the path
// already exists.
func (fs *FileSystem) Create(p string, writer NodeID) (*FileWriter, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	p = clean(p)
	if err := fs.mutateLocked("create", p); err != nil {
		return nil, err
	}
	if _, ok := fs.files[p]; ok {
		return nil, fmt.Errorf("hdfs: create %s: file exists", p)
	}
	if _, ok := fs.dirs[p]; ok {
		return nil, fmt.Errorf("hdfs: create %s: is a directory", p)
	}
	fs.mkdirAllLocked(path.Dir(p))[p] = struct{}{}
	fs.nextGen++
	meta := &fileMeta{path: p, gen: fs.nextGen}
	fs.files[p] = meta
	return &FileWriter{fs: fs, meta: meta, node: writer}, nil
}

// Open opens a file for reading from the given node. Reads served by a
// replica on that node are charged as local; all others as remote.
func (fs *FileSystem) Open(p string, reader NodeID) (*FileReader, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	p = clean(p)
	meta, ok := fs.files[p]
	if !ok {
		return nil, fmt.Errorf("hdfs: open %s: no such file", p)
	}
	return &FileReader{fs: fs, meta: meta, node: reader, chargedEnd: -1}, nil
}

// Generation returns the creation generation of the file at p (see
// FileReader.Generation) without opening it. ok is false when p is not a
// file, or is one its writer has not closed: a file is immutable only once
// closed, so only then does (path, generation) name fixed contents that a
// cache may key on.
func (fs *FileSystem) Generation(p string) (gen int64, ok bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	meta, found := fs.files[clean(p)]
	if !found || !meta.closed {
		return 0, false
	}
	return meta.gen, true
}

// Stat returns metadata for a path.
func (fs *FileSystem) Stat(p string) (FileInfo, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	p = clean(p)
	if meta, ok := fs.files[p]; ok {
		return FileInfo{Path: p, Size: meta.size}, nil
	}
	if _, ok := fs.dirs[p]; ok {
		return FileInfo{Path: p, IsDir: true}, nil
	}
	return FileInfo{}, fmt.Errorf("hdfs: stat %s: no such file or directory", p)
}

// Exists reports whether a file or directory exists.
func (fs *FileSystem) Exists(p string) bool {
	_, err := fs.Stat(p)
	return err == nil
}

// List returns the immediate children of a directory, sorted by name.
func (fs *FileSystem) List(dir string) ([]FileInfo, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dir = clean(dir)
	children, ok := fs.dirs[dir]
	if !ok {
		if _, ok := fs.files[dir]; ok {
			return nil, fmt.Errorf("hdfs: list %s: not a directory", dir)
		}
		return nil, fmt.Errorf("hdfs: list %s: no such directory", dir)
	}
	out := make([]FileInfo, 0, len(children))
	for p := range children {
		if m, ok := fs.files[p]; ok {
			out = append(out, FileInfo{Path: p, Size: m.size})
		} else {
			out = append(out, FileInfo{Path: p, IsDir: true})
		}
	}
	slices.SortFunc(out, func(a, b FileInfo) int { return strings.Compare(a.Path, b.Path) })
	return out, nil
}

// Remove deletes a file.
func (fs *FileSystem) Remove(p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	p = clean(p)
	if err := fs.mutateLocked("remove", p); err != nil {
		return err
	}
	if _, ok := fs.files[p]; !ok {
		return fmt.Errorf("hdfs: remove %s: no such file", p)
	}
	fs.removeFileLocked(p)
	return nil
}

// removeFileLocked drops the file at p, which must exist: its bytes leave
// the datanodes' usage and its name leaves the parent directory, unless a
// directory of the same name (MkdirAll over a file) still holds the entry.
func (fs *FileSystem) removeFileLocked(p string) {
	for _, b := range fs.files[p].blocks {
		for _, n := range b.replicas {
			fs.usage[n] -= int64(len(b.data))
		}
	}
	delete(fs.files, p)
	if _, ok := fs.dirs[p]; !ok {
		delete(fs.dirs[path.Dir(p)], p)
	}
}

// RemoveAll deletes a directory tree (or a single file).
func (fs *FileSystem) RemoveAll(p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.removeAllLocked(clean(p))
	return nil
}

func (fs *FileSystem) removeAllLocked(p string) {
	if children, ok := fs.dirs[p]; ok {
		for c := range children {
			fs.removeAllLocked(c)
		}
		delete(fs.dirs, p)
	}
	if _, ok := fs.files[p]; ok {
		fs.removeFileLocked(p)
	} else {
		delete(fs.dirs[path.Dir(p)], p)
	}
}

// BlockLocations returns, for each block of the file, the node IDs holding
// a replica.
func (fs *FileSystem) BlockLocations(p string) ([][]NodeID, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	meta, ok := fs.files[clean(p)]
	if !ok {
		return nil, fmt.Errorf("hdfs: locations %s: no such file", p)
	}
	out := make([][]NodeID, len(meta.blocks))
	for i, b := range meta.blocks {
		out[i] = append([]NodeID(nil), b.replicas...)
	}
	return out, nil
}

// HostsFor returns the set of nodes holding a replica of every block of
// every listed file — the nodes on which a task reading those files runs
// entirely locally. Used by locality-aware schedulers.
func (fs *FileSystem) HostsFor(paths []string) []NodeID {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	counts := make(map[NodeID]int)
	blocks := 0
	for _, p := range paths {
		meta, ok := fs.files[clean(p)]
		if !ok {
			continue
		}
		for _, b := range meta.blocks {
			blocks++
			for _, n := range b.replicas {
				counts[n]++
			}
		}
	}
	var out []NodeID
	for n, c := range counts {
		if c == blocks && !fs.dead[n] {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// KillNode marks a datanode dead. Reads fall back to surviving replicas;
// blocks with no surviving replica become unreadable.
func (fs *FileSystem) KillNode(n NodeID) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if int(n) >= 0 && int(n) < len(fs.dead) {
		fs.dead[n] = true
	}
}

// ReviveNode marks a datanode alive again.
func (fs *FileSystem) ReviveNode(n NodeID) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if int(n) >= 0 && int(n) < len(fs.dead) {
		fs.dead[n] = false
	}
}

// ReReplicate restores the replication factor of blocks that lost replicas
// to dead nodes, using the installed placement policy for the new targets.
// It returns the number of replicas created.
func (fs *FileSystem) ReReplicate() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	created := 0
	for p, meta := range fs.files {
		for i, b := range meta.blocks {
			var live []NodeID
			for _, n := range b.replicas {
				if !fs.dead[n] {
					live = append(live, n)
				}
			}
			if len(live) == 0 || len(live) >= fs.cfg.Replication {
				b.replicas = live
				continue
			}
			need := fs.cfg.Replication - len(live)
			exclude := make(map[NodeID]bool)
			for _, n := range live {
				exclude[n] = true
			}
			targets := fs.policy.ChooseReplicas(fs, p, i, AnyNode, need, exclude)
			for _, n := range targets {
				fs.usage[n] += int64(len(b.data))
			}
			b.replicas = append(live, targets...)
			created += len(targets)
		}
	}
	return created
}

// TotalSize returns the logical size of a file in bytes.
func (fs *FileSystem) TotalSize(p string) int64 {
	fi, err := fs.Stat(p)
	if err != nil {
		return 0
	}
	return fi.Size
}

// TreeSize returns the total logical size of all files under a directory.
func (fs *FileSystem) TreeSize(dir string) int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.treeSizeLocked(clean(dir))
}

func (fs *FileSystem) treeSizeLocked(p string) int64 {
	var total int64
	if m, ok := fs.files[p]; ok {
		total = m.size
	}
	for c := range fs.dirs[p] {
		total += fs.treeSizeLocked(c)
	}
	return total
}

// WriteFile creates p and writes data in one call.
func (fs *FileSystem) WriteFile(p string, data []byte, writer NodeID) error {
	fs.mu.Lock()
	err := fs.mutateLocked("writefile", clean(p))
	fs.mu.Unlock()
	if err != nil {
		return err
	}
	w, err := fs.Create(p, writer)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	return w.Close()
}

// ReadFile reads the entire contents of p (uncharged convenience path for
// metadata such as schema files; pass a stats-attached reader for measured
// scans).
func (fs *FileSystem) ReadFile(p string) ([]byte, error) {
	r, err := fs.Open(p, AnyNode)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, r.Size())
	if len(buf) == 0 {
		return buf, nil
	}
	if _, err := r.ReadAt(buf, 0); err != nil {
		return nil, err
	}
	return buf, nil
}

// aliveOrAny returns a replica to serve a read: the reader's node if it has
// a live replica (local), else the first live replica (remote), else -1.
func (fs *FileSystem) serveFrom(b *block, reader NodeID) (NodeID, bool) {
	for _, n := range b.replicas {
		if n == reader && !fs.dead[n] {
			return n, true
		}
	}
	for _, n := range b.replicas {
		if !fs.dead[n] {
			return n, false
		}
	}
	return -1, false
}
