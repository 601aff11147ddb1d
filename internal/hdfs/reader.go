package hdfs

import (
	"fmt"
	"io"

	"colmr/internal/sim"
)

// FileReader reads a file on behalf of a task running on a specific node.
//
// Traffic accounting models a real disk subsystem: bytes are charged in
// whole transfer units (io.file.buffer.size), a read that is not contiguous
// with the previously charged region costs a disk seek, and a transfer unit
// already fetched by the current contiguous run is never charged twice.
// Consequently a sequential scan of a column file is charged almost exactly
// its length with one seek, while scattered small reads (RCFile projecting
// one column out of interleaved row groups) are charged the enclosing
// transfer units plus a seek per jump — precisely the prefetch waste the
// paper measures with iostat in Section 6.2.
type FileReader struct {
	fs    *FileSystem
	meta  *fileMeta
	node  NodeID
	pos   int64
	stats *sim.IOStats
	// chargedStart/chargedEnd delimit the contiguous byte range already
	// charged to the accounting sink. chargedEnd == -1 means nothing has
	// been charged yet.
	chargedStart int64
	chargedEnd   int64
	// cache, when attached, intercepts byte charging at transfer-unit
	// granularity: resident units charge nothing and are credited to
	// cacheStats.CacheHits / BytesFromCache; missed units charge normally
	// and are admitted. Seek accounting is unaffected either way.
	cache      *ScanCache
	cacheStats *sim.TaskStats
}

// SetStats attaches an I/O accounting sink. A nil sink disables accounting.
func (r *FileReader) SetStats(s *sim.IOStats) { r.stats = s }

// SetCache attaches a session scan cache plus the task counters its hits are
// credited to. A nil cache restores plain charging.
func (r *FileReader) SetCache(c *ScanCache, stats *sim.TaskStats) {
	r.cache = c
	r.cacheStats = stats
}

// Generation returns the file's creation generation — the namenode counter
// value assigned when the path was created, which distinguishes a rebuilt
// file from its predecessor at the same path (ScanCache keys on it).
func (r *FileReader) Generation() int64 {
	r.fs.mu.Lock()
	defer r.fs.mu.Unlock()
	return r.meta.gen
}

// Identity returns the path the reader opened, the file's generation and
// whether its writer has closed it. Only a closed file's (path, generation)
// names fixed contents a cache may key on (FileSystem.Generation); unlike
// that look-up, this one answers for the file this reader holds, even once
// the path has been rewritten.
func (r *FileReader) Identity() (path string, gen int64, closed bool) {
	r.fs.mu.Lock()
	defer r.fs.mu.Unlock()
	return r.meta.path, r.meta.gen, r.meta.closed
}

// Size returns the file's logical size.
func (r *FileReader) Size() int64 {
	r.fs.mu.Lock()
	defer r.fs.mu.Unlock()
	return r.meta.size
}

// Read reads sequentially from the current position.
func (r *FileReader) Read(p []byte) (int, error) {
	n, err := r.ReadAt(p, r.pos)
	r.pos += int64(n)
	return n, err
}

// Seek repositions the sequential read cursor (io.SeekStart, io.SeekCurrent
// and io.SeekEnd are supported). Seeking itself is free; the cost is charged
// when the next non-contiguous read occurs.
func (r *FileReader) Seek(offset int64, whence int) (int64, error) {
	size := r.Size()
	var abs int64
	switch whence {
	case io.SeekStart:
		abs = offset
	case io.SeekCurrent:
		abs = r.pos + offset
	case io.SeekEnd:
		abs = size + offset
	default:
		return 0, fmt.Errorf("hdfs: seek %s: invalid whence %d", r.meta.path, whence)
	}
	if abs < 0 {
		return 0, fmt.Errorf("hdfs: seek %s: negative position", r.meta.path)
	}
	r.pos = abs
	return abs, nil
}

// ReadAt reads len(p) bytes from absolute offset off.
func (r *FileReader) ReadAt(p []byte, off int64) (int, error) {
	r.fs.mu.Lock()
	defer r.fs.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("hdfs: read %s: negative offset", r.meta.path)
	}
	if off >= r.meta.size {
		return 0, io.EOF
	}
	n := len(p)
	if rem := r.meta.size - off; int64(n) > rem {
		n = int(rem)
	}
	if err := r.copyRangeLocked(p[:n], off); err != nil {
		return 0, err
	}
	if err := r.chargeLocked(off, off+int64(n)); err != nil {
		return 0, err
	}
	if r.stats != nil {
		r.stats.LogicalBytes += int64(n)
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (r *FileReader) copyRangeLocked(p []byte, off int64) error {
	bs := r.fs.cfg.BlockSize
	copied := 0
	for copied < len(p) {
		idx := (off + int64(copied)) / bs
		if idx >= int64(len(r.meta.blocks)) {
			return fmt.Errorf("hdfs: read %s: offset beyond last block", r.meta.path)
		}
		blk := r.meta.blocks[idx]
		if _, ok := r.liveReplicaLocked(blk); ok {
		} else if len(blk.replicas) > 0 {
			return fmt.Errorf("hdfs: read %s: no live replica for block %d", r.meta.path, idx)
		}
		inBlock := int((off + int64(copied)) % bs)
		n := copy(p[copied:], blk.data[inBlock:])
		if n == 0 {
			return fmt.Errorf("hdfs: read %s: short block %d", r.meta.path, idx)
		}
		copied += n
	}
	return nil
}

func (r *FileReader) liveReplicaLocked(b *block) (NodeID, bool) {
	node, local := r.fs.serveFrom(b, r.node)
	if node < 0 {
		return -1, false
	}
	_ = local
	return node, true
}

// chargeLocked accounts the logical range [lo, hi) at transfer-unit
// granularity against the local/remote counters.
func (r *FileReader) chargeLocked(lo, hi int64) error {
	if r.stats == nil {
		return nil
	}
	tu := r.fs.cfg.TransferUnit
	if tu <= 0 {
		tu = 1
	}
	alo := lo - lo%tu
	ahi := ((hi + tu - 1) / tu) * tu
	if ahi > r.meta.size {
		ahi = r.meta.size
	}
	switch {
	case r.chargedEnd < 0:
		// First read of the stream: a per-file constant, tracked apart
		// from seeks so that scale extrapolation stays honest (see
		// sim.IOStats.Opens).
		r.stats.Opens++
		r.chargedStart = alo
		r.chargedEnd = alo
	case alo >= r.chargedStart && ahi <= r.chargedEnd:
		return nil // fully inside the already-charged run
	case alo > r.chargedEnd || alo < r.chargedStart:
		// Discontiguous jump: new seek, new run.
		r.stats.Seeks++
		r.chargedStart = alo
		r.chargedEnd = alo
	default:
		// Contiguous extension: charge only the new tail.
		alo = r.chargedEnd
	}
	if ahi <= alo {
		return nil
	}
	if err := r.chargeBytesLocked(alo, ahi); err != nil {
		return err
	}
	r.chargedEnd = ahi
	return nil
}

// chargeBytesLocked attributes [lo, hi) to the traffic counters. Without a
// cache attached this is exactly the plain span charge; with one, the range
// is walked per transfer unit (chargeLocked always hands over unit-aligned
// ranges, so unit boundaries are stable across read patterns): resident
// units are credited to the cache counters and charge no traffic, missed
// units charge normally and become resident.
func (r *FileReader) chargeBytesLocked(lo, hi int64) error {
	if r.cache == nil {
		return r.chargeSpanLocked(lo, hi)
	}
	tu := r.fs.cfg.TransferUnit
	if tu <= 0 {
		tu = 1
	}
	for lo < hi {
		end := lo - lo%tu + tu
		if end > hi {
			end = hi
		}
		key := regionKey{path: r.meta.path, gen: r.meta.gen, off: lo - lo%tu}
		if r.cache.lookup(key) {
			if r.cacheStats != nil {
				r.cacheStats.CacheHits++
				r.cacheStats.BytesFromCache += end - lo
			}
		} else {
			if err := r.chargeSpanLocked(lo, end); err != nil {
				return err
			}
			r.cache.admit(key, end-lo)
		}
		lo = end
	}
	return nil
}

// chargeSpanLocked attributes [lo, hi) to local or remote traffic,
// block by block.
func (r *FileReader) chargeSpanLocked(lo, hi int64) error {
	bs := r.fs.cfg.BlockSize
	for lo < hi {
		idx := lo / bs
		if idx >= int64(len(r.meta.blocks)) {
			return nil
		}
		blk := r.meta.blocks[idx]
		end := (idx + 1) * bs
		if end > hi {
			end = hi
		}
		n := end - lo
		served, local := r.fs.serveFrom(blk, r.node)
		if served < 0 && len(blk.replicas) > 0 {
			return fmt.Errorf("hdfs: read %s: no live replica for block %d", r.meta.path, idx)
		}
		if local {
			r.stats.LocalBytes += n
		} else {
			r.stats.RemoteBytes += n
		}
		lo = end
	}
	return nil
}

// UnchargedReadAt reads without touching the accounting sink or the
// charged-run state. Format readers use it for tiny self-description
// metadata (file footers) that a real deployment would cache at the
// namenode or in the task's footprint, and whose cost must not be
// extrapolated linearly with dataset size.
func (r *FileReader) UnchargedReadAt(p []byte, off int64) (int, error) {
	saved := r.stats
	savedStart, savedEnd := r.chargedStart, r.chargedEnd
	r.stats = nil
	n, err := r.ReadAt(p, off)
	r.stats = saved
	r.chargedStart, r.chargedEnd = savedStart, savedEnd
	return n, err
}

// ChargeInterleaved marks n bytes as read while sibling column streams were
// active: the cost model prices them as fractional arm movement per
// readahead window (DESIGN.md, "Key design decisions"). CIF readers call
// this on buffer refills during multi-column scans.
func (r *FileReader) ChargeInterleaved(n int64) {
	if r.stats != nil {
		r.stats.InterleavedBytes += n
	}
}

// Close releases the reader. It never fails; it exists so readers satisfy
// io.Closer in format code.
func (r *FileReader) Close() error { return nil }
