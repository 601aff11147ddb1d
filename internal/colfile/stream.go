package colfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// defaultChunk is the refill granularity of the buffered stream. It matches
// the cluster's default transfer unit so that skip-list jumps shorter than
// one transfer unit save no I/O (the readahead already fetched the bytes),
// while longer jumps genuinely eliminate reads — mirroring HDFS prefetch
// behaviour.
const defaultChunk = 128 << 10

// stream is a buffered forward reader over a ReaderAtSize with explicit
// seek support. It exposes a byte window for zero-copy decoding and retries
// decodes that run off the window's edge.
type stream struct {
	r     ReaderAtSize
	size  int64
	chunk int

	// Adaptive readahead (selective scans): when chunkMin is set below
	// chunk, a jump observed between refills shrinks the granularity to
	// chunkMin and sequential refills double it back up to chunkMax —
	// small prefetch while the cursor hops between qualifying groups,
	// full streaming when the scan is dense. A scan that never jumps
	// never shrinks, so an unselective predicate costs exactly a plain
	// scan.
	chunkMin int
	chunkMax int
	seqEnd   int64 // file offset one past the previous refill, -1 initially

	base int64  // file offset of buf[0]
	buf  []byte // buffered window
	off  int    // cursor within buf
	// win is the pooled window buf was cut from, nil until the first refill
	// and again after release.
	win *window

	// onRefill, when set, is invoked on every physical refill with the
	// number of bytes about to be fetched and the refill granularity in
	// effect. CIF uses it to charge multi-stream interleave cost
	// (hdfs.FileReader.ChargeInterleaved), normalized per granularity.
	onRefill func(bytes, chunk int)

	// dataEnd bounds reads: bytes at and after this offset (the footer)
	// are not part of the value stream.
	dataEnd int64
}

func newStream(r ReaderAtSize, chunk int) *stream {
	if chunk <= 0 {
		chunk = defaultChunk
	}
	size := r.Size()
	return &stream{r: r, size: size, chunk: chunk, chunkMin: chunk, chunkMax: chunk, dataEnd: size, seqEnd: -1}
}

// setShrink enables adaptive readahead with min bytes as the post-jump
// refill granularity.
func (s *stream) setShrink(min int) {
	if min > 0 && min < s.chunk {
		s.chunkMin = min
	}
}

// pos returns the stream cursor's absolute file offset.
func (s *stream) pos() int64 { return s.base + int64(s.off) }

// remainingInFile reports bytes left before dataEnd.
func (s *stream) remainingInFile() int64 { return s.dataEnd - s.pos() }

// seekTo moves the cursor to an absolute offset. If the target is inside
// the buffered window the move is free; otherwise the window is dropped.
func (s *stream) seekTo(p int64) error {
	if p < 0 || p > s.dataEnd {
		return fmt.Errorf("colfile: seek to %d outside data region [0,%d]", p, s.dataEnd)
	}
	if p >= s.base && p <= s.base+int64(len(s.buf)) {
		s.off = int(p - s.base)
		return nil
	}
	s.base = p
	s.buf = s.buf[:0]
	s.off = 0
	return nil
}

// skip advances the cursor n bytes forward.
func (s *stream) skip(n int64) error {
	if n < 0 {
		return fmt.Errorf("colfile: negative skip %d", n)
	}
	return s.seekTo(s.pos() + n)
}

// ensure makes at least n bytes available at the cursor, refilling from the
// underlying reader as needed. It fails with io.ErrUnexpectedEOF if fewer
// than n bytes remain before dataEnd.
func (s *stream) ensure(n int) error {
	if s.off+n <= len(s.buf) {
		return nil
	}
	if int64(n) > s.remainingInFile() {
		return io.ErrUnexpectedEOF
	}
	// Compact: drop consumed prefix.
	if s.off > 0 {
		rem := copy(s.buf, s.buf[s.off:])
		s.base += int64(s.off)
		s.buf = s.buf[:rem]
		s.off = 0
	}
	for len(s.buf) < n {
		readAt := s.base + int64(len(s.buf))
		if s.chunkMin < s.chunkMax {
			if s.seqEnd >= 0 && readAt != s.seqEnd {
				// The cursor jumped since the last refill: back to small
				// prefetch.
				s.chunk = s.chunkMin
			} else if s.chunk < s.chunkMax {
				// Sequential refill: ramp back toward full streaming.
				s.chunk *= 2
				if s.chunk > s.chunkMax {
					s.chunk = s.chunkMax
				}
			}
		}
		want := s.chunk
		if want < n-len(s.buf) {
			want = n - len(s.buf)
		}
		if max := s.dataEnd - readAt; int64(want) > max {
			want = int(max)
		}
		if want <= 0 {
			return io.ErrUnexpectedEOF
		}
		s.reserve(want)
		if s.onRefill != nil {
			s.onRefill(want, s.chunk)
		}
		// Straight into the window's spare capacity: the bytes are copied
		// once, by the reader underneath.
		m, err := s.r.ReadAt(s.buf[len(s.buf):len(s.buf)+want], readAt)
		s.buf = s.buf[:len(s.buf)+m]
		if err != nil && err != io.EOF {
			return err
		}
		if m == 0 {
			return io.ErrUnexpectedEOF
		}
		s.seqEnd = readAt + int64(m)
	}
	return nil
}

// window is a stream's byte window while it rests in windowPool. The pool
// holds the struct a stream took out, handed back, so a Put allocates nothing.
type window struct{ buf []byte }

// windowPool recycles windows across every column file the process opens: a
// scan opens a file per column per split-directory, and a window filled once
// per refill is still a fresh allocation per file without it. Pooled windows
// are dirty — a stream reads only below len(s.buf), which it has filled
// itself — and nothing a reader hands out may alias a window, since release
// gives it to the next file (decoded strings, byte slices, map keys and
// dictionary entries are all copies).
var windowPool = sync.Pool{New: func() any { return new(window) }}

// windowsOut counts the windows streams hold out of the pool.
var windowsOut atomic.Int64

// WindowsInUse reports how many pooled stream windows open readers hold
// right now: every reader's Release brings it down, and a reader dropped
// without one leaves it up for good — which is how tests of the layers above
// find a cursor that was built and never closed.
func WindowsInUse() int64 { return windowsOut.Load() }

// poisonReleased, set by tests, overwrites every window as it is released,
// so a value still aliasing one shows up corrupted.
var poisonReleased bool

// reserve makes room for want more bytes after len(s.buf), taking the
// stream's window from the pool on first use and replacing it with a larger
// one when the pooled one is too small (the pool's windows only ever grow
// toward the largest refill asked of them).
func (s *stream) reserve(want int) {
	need := len(s.buf) + want
	if need <= cap(s.buf) {
		return
	}
	if s.win == nil {
		s.win = windowPool.Get().(*window)
		windowsOut.Add(1)
		if need <= cap(s.win.buf) {
			s.buf = append(s.win.buf[:0], s.buf...)
			return
		}
	}
	// An eighth over: the bytes carried across a refill vary with where the
	// last value ended, and must not cost a new window each time they peak.
	grown := make([]byte, len(s.buf), need+need/8)
	copy(grown, s.buf)
	s.buf = grown
}

// release returns the window to the pool. The stream stays usable — its next
// read takes a new window and refills at the cursor — and releasing twice is
// a no-op.
func (s *stream) release() {
	if s.win == nil {
		return
	}
	if poisonReleased {
		full := s.buf[:cap(s.buf)]
		for i := range full {
			full[i] = 0xAA
		}
	}
	w := s.win
	w.buf = s.buf[:0]
	s.base, s.buf, s.off, s.win = s.pos(), nil, 0, nil
	windowPool.Put(w)
	windowsOut.Add(-1)
}

// view returns the currently buffered bytes at the cursor without
// consuming them.
func (s *stream) view() []byte { return s.buf[s.off:] }

// consume advances the cursor n bytes within the buffered window.
func (s *stream) consume(n int) { s.off += n }

// readFull returns exactly n bytes at the cursor and consumes them. The
// returned slice aliases the window and is valid until the next stream call.
func (s *stream) readFull(n int) ([]byte, error) {
	if err := s.ensure(n); err != nil {
		return nil, err
	}
	b := s.buf[s.off : s.off+n]
	s.off += n
	return b, nil
}

// readUvarint decodes a uvarint at the cursor.
func (s *stream) readUvarint() (uint64, error) {
	for need := 1; need <= binary.MaxVarintLen64; need++ {
		if err := s.ensure(need); err != nil {
			// The varint may simply end before `need` bytes; try decoding
			// what remains.
			v, n := binary.Uvarint(s.view())
			if n > 0 {
				s.off += n
				return v, nil
			}
			return 0, err
		}
		v, n := binary.Uvarint(s.view())
		if n > 0 {
			s.off += n
			return v, nil
		}
		if n < 0 {
			return 0, fmt.Errorf("colfile: uvarint overflow at offset %d", s.pos())
		}
	}
	return 0, io.ErrUnexpectedEOF
}

// peekUvarint decodes a uvarint at the cursor without consuming it,
// returning the value and its encoded width.
func (s *stream) peekUvarint() (uint64, int, error) {
	for need := 1; need <= binary.MaxVarintLen64; need++ {
		if err := s.ensure(need); err != nil {
			v, n := binary.Uvarint(s.view())
			if n > 0 {
				return v, n, nil
			}
			return 0, 0, err
		}
		v, n := binary.Uvarint(s.view())
		if n > 0 {
			return v, n, nil
		}
		if n < 0 {
			return 0, 0, fmt.Errorf("colfile: uvarint overflow at offset %d", s.pos())
		}
	}
	return 0, 0, io.ErrUnexpectedEOF
}

// peekAt returns n bytes starting skip bytes past the cursor, consuming
// nothing. The returned slice aliases the window and is valid until the
// next stream call.
func (s *stream) peekAt(skip, n int) ([]byte, error) {
	if err := s.ensure(skip + n); err != nil {
		return nil, err
	}
	return s.buf[s.off+skip : s.off+skip+n], nil
}

// errShortDecode marks decode attempts that ran off the buffered window and
// should be retried with more data.
var errShortDecode = errors.New("colfile: short decode")

// decodeRetry runs fn over the buffered window, growing the window and
// retrying when fn reports a truncation that more data could cure. fn
// returns the number of bytes it consumed.
func (s *stream) decodeRetry(fn func(buf []byte) (int, error)) error {
	need := 1
	for {
		avail := int(s.dataEnd - s.pos()) // bytes that could ever be visible
		if avail <= 0 {
			return io.ErrUnexpectedEOF
		}
		if need > avail {
			need = avail
		}
		if err := s.ensure(need); err != nil {
			return err
		}
		n, err := fn(s.view())
		if err == nil {
			s.off += n
			return nil
		}
		// More bytes can only cure the failure if the window does not
		// already extend to the end of the data region.
		if len(s.view()) >= avail {
			return err
		}
		need = len(s.view()) + s.chunk
	}
}
