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
// as immutable as any(x) is. Chunks are fresh allocations of at most 1 KiB
// (512 B for string and []byte headers: a pointerful object past that carries
// a malloc header and leaves its size class), cut to a whole number of slots.
// A value the runtime boxes without allocating — a small integer, zero, the
// empty string — is left to it, and so is a string or []byte longer than
// singleMax: its own allocation dwarfs its box, and kept, it must not keep its
// chunk-mates' payloads too. The zero Boxer is ready; it is not safe for
// concurrent use.
type Boxer struct {
	i32 []int32 // unwritten slots of the current chunk, per type
	i64 []int64
	f64 []float64
	str []string
	raw [][]byte
	// want is how many more values are expected: what Expect promised, and
	// once that is used up — or if nothing was — as many again as the last
	// chunk held, so a short-lived Boxer allocates little and a long-lived
	// one reaches full chunks.
	want int
}

// Expect says n values are about to be boxed, so that chunks are cut to
// exactly n slots instead of grown by guessing.
func (b *Boxer) Expect(n int) { b.want = n }

// singleMax is the longest payload boxed from a chunk (scan.BoxArenaMax draws
// the same line for a batch's arena).
const singleMax = 256

type eface struct{ typ, data unsafe.Pointer }

func typeWord(x any) unsafe.Pointer { return (*eface)(unsafe.Pointer(&x)).typ }

var typInt32, typInt64, typFloat64, typString, typBytes = typeWord(int32(0)),
	typeWord(int64(0)), typeWord(float64(0)), typeWord(""), typeWord([]byte(nil))

// put stores v in the next unwritten slot of *free — the first of a new chunk
// of at most full slots when none is left — and returns the interface of type
// word typ over it.
func put[T any](b *Boxer, free *[]T, full int, typ unsafe.Pointer, v T) any {
	if len(*free) == 0 {
		n := min(max(b.want, 1), full)
		if b.want -= n; b.want <= 0 {
			b.want = 2 * n
		}
		*free = make([]T, n)
	}
	p := &(*free)[0]
	*free = (*free)[1:]
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
