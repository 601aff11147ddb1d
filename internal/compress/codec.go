// Package compress provides the block-compression codecs and the dictionary
// encoder used by the paper's two complex-type compression schemes
// (Section 5.3): compressed blocks (LZO / ZLIB) and dictionary compressed
// skip lists.
//
// ZLIB is the standard library's DEFLATE. "LZO" is an in-repo LZ77 byte
// codec with the same operating profile the paper relies on — moderate
// compression ratio, very fast decompression — because the real LZO library
// is a GPL C dependency (see DESIGN.md, substitutions).
package compress

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"

	"colmr/internal/sim"
)

// Codec compresses and decompresses byte blocks.
type Codec interface {
	// Name is the codec's registry name ("none", "lzo", "zlib").
	Name() string
	// Compress appends the compressed form of src to dst.
	Compress(dst, src []byte) ([]byte, error)
	// Decompress appends the decompressed form of src to dst. rawLen is
	// the expected decompressed size (stored in block headers) and is used
	// for allocation and validation.
	Decompress(dst, src []byte, rawLen int) ([]byte, error)
}

// ByName returns the named codec.
func ByName(name string) (Codec, error) {
	switch name {
	case "", "none":
		return None{}, nil
	case "lzo":
		return LZO{}, nil
	case "zlib":
		return ZLIB{}, nil
	default:
		return nil, fmt.Errorf("compress: unknown codec %q", name)
	}
}

// ChargeDecomp records n decompressed output bytes against the counter for
// the named codec.
func ChargeDecomp(stats *sim.CPUStats, codec string, n int64) {
	if stats == nil {
		return
	}
	switch codec {
	case "zlib":
		stats.ZlibBytes += n
	case "lzo":
		stats.LzoBytes += n
	case "dict":
		stats.DictBytes += n
	}
}

// ChargeComp records n compressed input bytes against the counter for the
// named codec (load paths).
func ChargeComp(stats *sim.CPUStats, codec string, n int64) {
	if stats == nil {
		return
	}
	switch codec {
	case "zlib":
		stats.ZlibCompBytes += n
	case "lzo":
		stats.LzoCompBytes += n
	case "dict":
		stats.DictCompBytes += n
	}
}

// deflateMaxRatio bounds DEFLATE's expansion: its densest code spends two
// bits on a 258-byte match, 1032 output bytes per input byte.
const deflateMaxRatio = 1032

// checkRawLen refuses a declared decompressed length that src cannot expand
// to — a codec expands each input byte to at most maxRatio output bytes — so
// a corrupt block header never sizes an allocation.
func checkRawLen(codec string, rawLen, srcLen, maxRatio int) error {
	if rawLen < 0 || rawLen/maxRatio > srcLen {
		return fmt.Errorf("compress: %s: raw length %d impossible from %d bytes", codec, rawLen, srcLen)
	}
	return nil
}

// None is the identity codec.
type None struct{}

// Name implements Codec.
func (None) Name() string { return "none" }

// Compress implements Codec.
func (None) Compress(dst, src []byte) ([]byte, error) { return append(dst, src...), nil }

// Decompress implements Codec.
func (None) Decompress(dst, src []byte, rawLen int) ([]byte, error) {
	if rawLen != len(src) {
		return dst, fmt.Errorf("compress: none: raw length %d != stored %d", rawLen, len(src))
	}
	return append(dst, src...), nil
}

// ZLIB is DEFLATE compression: excellent ratio, CPU-heavy decompression —
// the paper's heavyweight reference codec.
type ZLIB struct{}

// Name implements Codec.
func (ZLIB) Name() string { return "zlib" }

// Compress implements Codec.
func (ZLIB) Compress(dst, src []byte) ([]byte, error) {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		return dst, fmt.Errorf("compress: zlib: %w", err)
	}
	if _, err := w.Write(src); err != nil {
		return dst, fmt.Errorf("compress: zlib: %w", err)
	}
	if err := w.Close(); err != nil {
		return dst, fmt.Errorf("compress: zlib: %w", err)
	}
	return append(dst, buf.Bytes()...), nil
}

// Decompress implements Codec.
func (ZLIB) Decompress(dst, src []byte, rawLen int) ([]byte, error) {
	if err := checkRawLen("zlib", rawLen, len(src), deflateMaxRatio); err != nil {
		return dst, err
	}
	r := flate.NewReader(bytes.NewReader(src))
	defer r.Close()
	out := make([]byte, 0, rawLen)
	buf := make([]byte, 32*1024)
	for {
		n, err := r.Read(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			return dst, fmt.Errorf("compress: zlib: %w", err)
		}
	}
	if len(out) != rawLen {
		return dst, fmt.Errorf("compress: zlib: decompressed %d bytes, want %d", len(out), rawLen)
	}
	return append(dst, out...), nil
}
