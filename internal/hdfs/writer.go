package hdfs

import (
	"fmt"

	"colmr/internal/sim"
)

// FileWriter is an append-only writer, matching HDFS semantics: bytes can
// only be appended, never rewritten. This constraint is why skip-list column
// files must be double-buffered at load time (paper, Appendix B.3).
type FileWriter struct {
	fs     *FileSystem
	meta   *fileMeta
	node   NodeID
	stats  *sim.IOStats
	closed bool
}

// SetStats attaches an I/O accounting sink; written bytes are recorded in
// stats.BytesWritten.
func (w *FileWriter) SetStats(s *sim.IOStats) { w.stats = s }

// Write appends p to the file, splitting it across blocks and placing each
// new block with the filesystem's placement policy.
func (w *FileWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("hdfs: write %s: writer closed", w.meta.path)
	}
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	fault := w.fs.mutateLocked("write", w.meta.path)
	if fault != nil {
		p = p[:len(p)/2]
	}
	written := 0
	for len(p) > 0 {
		blk := w.currentBlockLocked()
		room := int(w.fs.cfg.BlockSize) - len(blk.data)
		if room == 0 {
			blk = w.newBlockLocked()
			room = int(w.fs.cfg.BlockSize)
		}
		n := len(p)
		if n > room {
			n = room
		}
		blk.data = append(blk.data, p[:n]...)
		for _, node := range blk.replicas {
			w.fs.usage[node] += int64(n)
		}
		w.meta.size += int64(n)
		p = p[n:]
		written += n
	}
	if w.stats != nil {
		w.stats.BytesWritten += int64(written)
	}
	return written, fault
}

func (w *FileWriter) currentBlockLocked() *block {
	if len(w.meta.blocks) == 0 {
		return w.newBlockLocked()
	}
	return w.meta.blocks[len(w.meta.blocks)-1]
}

func (w *FileWriter) newBlockLocked() *block {
	idx := len(w.meta.blocks)
	replicas := w.fs.policy.ChooseReplicas(w.fs, w.meta.path, idx, w.node, w.fs.cfg.Replication, nil)
	blk := &block{replicas: replicas}
	w.meta.blocks = append(w.meta.blocks, blk)
	return blk
}

// Size returns the number of bytes written so far.
func (w *FileWriter) Size() int64 {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	return w.meta.size
}

// Close finalizes the file. Further writes fail.
func (w *FileWriter) Close() error {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	if err := w.fs.mutateLocked("close", w.meta.path); err != nil {
		return err
	}
	w.meta.closed = true
	w.closed = true
	return nil
}
