package serde

import (
	"math"
	"unsafe"
)

// A Boxer turns decoded primitives into `any` without an allocation each: a
// value is stored in the next slot of a typed chunk and the interface is
// formed over that slot — the (type word, data pointer) pair the compiler's
// own conversion builds, minus its malloc. A slot is written once, before its
// interface exists, and no pointer to it leaves this file, so a boxed value is
// as immutable as any(x) is and stays valid for as long as anything holds it,
// whatever the Boxer boxes next. Chunks are fresh allocations of at most 1 KiB
// (512 B for string and []byte headers: a pointerful object past that carries
// a malloc header and leaves its size class), cut to a whole number of slots.
// A value the runtime boxes without allocating — a small integer, zero, the
// empty string — is left to it, and so is a string or []byte longer than
// singleMax: its own allocation dwarfs its box, and kept, it must not keep its
// chunk-mates' payloads too.
//
// The bytes of decoded strings, map keys and byte slices are copied the same
// way (CopyString, CopyBytes): into the payload chunk, a pointer-free []byte
// that is only ever appended to. Its first chunk is exactly as long as the
// first payload and later ones double up to PayloadChunk bytes. A payload
// longer than singleMax gets an allocation of its own, so a kept short payload
// pins at most a chunk of its chunk-mates. Byte slices come back capped at
// their length: appending to one moves it, never onto the bytes after it.
//
// A Boxer is meant to live as long as its owner — a decoder, a reader's task,
// an aggregation — and to box everything that owner boxes. Each type's chunks
// start at one slot, or at what Expect announced, and at least double from
// one to the next until they are full; a full chunk is followed by full ones.
// Chunks are then cut once per 32 strings or 256 int32s, however short the
// calls that fill them and whichever types they interleave with: Expect is a
// floor, never a cap, so a long-lived Boxer told of a short call keeps
// cutting full chunks, while one used once allocates little. The zero Boxer
// is ready; it is not safe for concurrent use.
type Boxer struct {
	i32 slots[int32]
	i64 slots[int64]
	f64 slots[float64]
	str slots[string]
	raw slots[[]byte]
	pay []byte // the payload chunk: written up to its length, cut at its capacity
	// want is the most values Expect has announced: no chunk is cut shorter
	// than that, save a full one.
	want int
}

// slots is one type's current chunk.
type slots[T any] struct {
	free []T // its unwritten slots
	cut  int // its length
}

// Expect says at least n values are about to be boxed, so that chunks are cut
// to at least n slots (up to a full one) instead of grown by guessing. It
// raises the expected count and never lowers it.
func (b *Boxer) Expect(n int) { b.want = max(b.want, n) }

// PayloadChunk is the longest payload chunk: the bytes CopyString and
// CopyBytes carve from one allocation.
const PayloadChunk = 1024

// singleMax is the longest payload boxed from a chunk (scan.BoxArenaMax draws
// the same line for a batch's arena).
const singleMax = 256

type eface struct{ typ, data unsafe.Pointer }

func typeWord(x any) unsafe.Pointer { return (*eface)(unsafe.Pointer(&x)).typ }

var typInt32, typInt64, typFloat64, typString, typBytes = typeWord(int32(0)),
	typeWord(int64(0)), typeWord(float64(0)), typeWord(""), typeWord([]byte(nil))

// put stores v in the next unwritten slot of s — the first of a new chunk of
// at most full slots when none is left — and returns the interface of type
// word typ over it.
func put[T any](b *Boxer, s *slots[T], full int, typ unsafe.Pointer, v T) any {
	if len(s.free) == 0 {
		s.cut = min(max(b.want, 2*s.cut, 1), full)
		s.free = make([]T, s.cut)
	}
	p := &s.free[0]
	s.free = s.free[1:]
	*p = v
	return *(*any)(unsafe.Pointer(&eface{typ, unsafe.Pointer(p)}))
}

// Int32 returns any(v).
func (b *Boxer) Int32(v int32) any {
	if uint32(v) < 256 {
		return v // boxed from the runtime's static table: free as it is
	}
	return put(b, &b.i32, 256, typInt32, v)
}

// Int64 returns any(v).
func (b *Boxer) Int64(v int64) any {
	if uint64(v) < 256 {
		return v
	}
	return put(b, &b.i64, 128, typInt64, v)
}

// Float64 returns any(v).
func (b *Boxer) Float64(v float64) any {
	if math.Float64bits(v) == 0 {
		return v
	}
	return put(b, &b.f64, 128, typFloat64, v)
}

// CopyBytes returns a copy of p, capped at its length and never nil.
func (b *Boxer) CopyBytes(p []byte) []byte {
	n := len(p)
	switch {
	case n == 0:
		return []byte{}
	case n > singleMax:
		q := make([]byte, n)
		copy(q, p)
		return q
	case cap(b.pay)-len(b.pay) < n:
		b.pay = make([]byte, 0, max(n, min(2*cap(b.pay), PayloadChunk)))
	}
	b.pay = append(b.pay, p...)
	return b.pay[len(b.pay)-n : len(b.pay) : len(b.pay)]
}

// CopyString returns string(p).
func (b *Boxer) CopyString(p []byte) string {
	q := b.CopyBytes(p)
	return unsafe.String(unsafe.SliceData(q), len(q))
}

// String returns any(v).
func (b *Boxer) String(v string) any {
	if v == "" || len(v) > singleMax {
		return v
	}
	return put(b, &b.str, 32, typString, v)
}

// Bytes returns any(v): the slice header is copied, its bytes are shared.
func (b *Boxer) Bytes(v []byte) any {
	if len(v) > singleMax {
		return v
	}
	return put(b, &b.raw, 20, typBytes, v)
}
