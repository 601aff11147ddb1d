package scan

import "math/bits"

// Blocked Bloom filters for equality pruning on string/bytes columns (and
// map-key existence). Zone maps are nearly useless for `url == ...` over
// unsorted high-cardinality strings — every group's [Min, Max] spans the
// whole domain — which is exactly the crawl workload the paper targets.
// A per-group Bloom filter answers the one question zone maps cannot: "is
// this exact byte string possibly present?" A negative answer is a proof
// (Bloom filters have no false negatives), so it slots into the same
// three-valued Prune verdict as Min/Max: bloom-negative => NoMatch,
// bloom-positive => MayMatch (a filter never proves AllMatch).
//
// The layout is cache-line blocked (Putze et al., "Cache-, Hash- and
// Space-Efficient Bloom Filters"): a key selects one 512-bit block, then
// sets bloomK bits inside it by double hashing — all probes touch one
// cache line. Hashes are FNV-derived: h1 is 64-bit FNV-1a over the raw
// bytes; h2 is a mix of h1 forced odd, and probe i uses h1 + i*h2
// (Kirsch & Mitzenmacher double hashing).
//
// Sizing targets ~1% false positives: bloomBitsPerKey bits per distinct
// key, rounded up to a power-of-two block count so block selection is a
// mask, capped per group (the cap is the storage side's concern; a capped
// filter is merely weaker, never unsound).

const (
	// bloomBlockWords is the 64-bit words per block: 8 words = 64 bytes =
	// 512 bits, one cache line.
	bloomBlockWords = 8
	bloomBlockBits  = bloomBlockWords * 64

	// bloomK is the probes per key. With bloomBitsPerKey bits per distinct
	// key the fill fraction lands near 1-e^(-K*keys/bits) ~ 0.44 and the
	// false-positive probability near fill^K ~ 0.3-1% (block skew costs a
	// little over the unblocked ideal).
	bloomK          = 7
	bloomBitsPerKey = 12

	// bloomMaxFill is the saturation bound: a filter more than 3/4 full
	// answers "maybe" so often (fill^K ~ 13%) that carrying it is close to
	// pointless, and Merge keeps ORing group filters into the whole-file
	// aggregate only while the result stays useful. Beyond the bound the
	// filter drops to nil ("no statistic"), which pruning already treats
	// as MayMatch.
	bloomMaxFillNum = 3
	bloomMaxFillDen = 4
)

// FNV-1a 64-bit parameters.
const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

// BloomHash returns the filter key for a raw byte string — the hash the
// writer inserts and MayContain probes. Exposed so the storage layer can
// deduplicate observed values as hashes before sizing a filter.
func BloomHash(b []byte) uint64 { return bloomHashBytes(b) }

// BloomHashString is BloomHash for a string spelling of the bytes.
func BloomHashString(s string) uint64 { return bloomHashString(s) }

// bloomHashBytes is FNV-1a over b.
func bloomHashBytes(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// bloomHashString is bloomHashBytes without the []byte conversion, so a
// string value and its byte-slice spelling hash identically.
func bloomHashString(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// bloomFinalize avalanches an FNV hash (Murmur3 fmix64). FNV-1a mixes its
// low bits well but leaves the high bits of short keys skewed, and block
// selection reads high bits — without the finalizer, similar short keys
// pile into a few blocks and the false-positive rate triples.
func bloomFinalize(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Bloom is a blocked Bloom filter over the byte strings of one record
// group (column values for string/bytes columns, map keys for map
// columns). The zero value is unusable; filters are built by the storage
// layer (internal/colfile) or decoded from a stats section. A nil *Bloom
// means "no filter": every query answers MayContain = true.
type Bloom struct {
	k     uint8
	words []uint64 // power-of-two number of bloomBlockWords blocks
}

// NewBloomFromWords reconstructs a decoded filter. It returns nil (no
// filter) unless the geometry is valid: k in [1, 64], a power-of-two
// positive block count.
func NewBloomFromWords(k int, words []uint64) *Bloom {
	nblocks := len(words) / bloomBlockWords
	if k < 1 || k > 64 || nblocks == 0 || len(words)%bloomBlockWords != 0 ||
		nblocks&(nblocks-1) != 0 {
		return nil
	}
	return &Bloom{k: uint8(k), words: words}
}

// NewBloomSized returns an empty filter sized for n distinct keys, capped
// at maxBytes (both rounded to the power-of-two block geometry). nil when
// n is zero or the cap cannot hold even one block.
func NewBloomSized(n int, maxBytes int) *Bloom {
	if n <= 0 || maxBytes < bloomBlockWords*8 {
		return nil
	}
	blocks := 1
	for blocks*bloomBlockBits < n*bloomBitsPerKey && blocks*2*bloomBlockWords*8 <= maxBytes {
		blocks *= 2
	}
	return &Bloom{k: bloomK, words: make([]uint64, blocks*bloomBlockWords)}
}

// K returns the number of probes per key.
func (b *Bloom) K() int { return int(b.k) }

// Words exposes the filter's bit array for encoding. Callers must not
// mutate it.
func (b *Bloom) Words() []uint64 { return b.words }

// probe derives the key's block offset, first bit index, and odd
// double-hashing stride from its finalized hash: block from the high bits,
// probe sequence from the low bits, stride from the middle.
func (b *Bloom) probe(h uint64) (base int, g, stride uint64) {
	m := bloomFinalize(h)
	nblocks := uint64(len(b.words) / bloomBlockWords)
	base = int((m>>40)&(nblocks-1)) * bloomBlockWords
	return base, m, (m >> 17) | 1
}

// AddHash sets the key's bits (h is the key's BloomHash value).
func (b *Bloom) AddHash(h uint64) {
	base, g, stride := b.probe(h)
	for i := 0; i < int(b.k); i++ {
		bit := g % bloomBlockBits
		b.words[base+int(bit>>6)] |= 1 << (bit & 63)
		g += stride
	}
}

// mayContainHash reports whether the key's bits are all set. False is a
// proof of absence; true is not a promise.
func (b *Bloom) mayContainHash(h uint64) bool {
	base, g, stride := b.probe(h)
	for i := 0; i < int(b.k); i++ {
		bit := g % bloomBlockBits
		if b.words[base+int(bit>>6)]&(1<<(bit&63)) == 0 {
			return false
		}
		g += stride
	}
	return true
}

// MayContain reports whether the raw byte string may be present. A nil
// filter cannot refute anything.
func (b *Bloom) MayContain(key []byte) bool {
	if b == nil {
		return true
	}
	return b.mayContainHash(bloomHashBytes(key))
}

// MayContainString is MayContain for a string spelling of the bytes.
func (b *Bloom) MayContainString(key string) bool {
	if b == nil {
		return true
	}
	return b.mayContainHash(bloomHashString(key))
}

// MayContainValue applies the filter to a predicate literal: string and
// []byte literals probe their raw bytes (the same spelling the writer
// inserted); any other type cannot be refuted.
func (b *Bloom) MayContainValue(v any) bool {
	switch x := v.(type) {
	case string:
		return b.MayContainString(x)
	case []byte:
		return b.MayContain(x)
	}
	return true
}

// FillFraction returns the fraction of the filter's bits that are set, in
// [0, 1]. The expected false-positive probability of a probe is roughly
// fill^K, which is what confidence-weighted selectivity estimation reads:
// a filter near the saturation bound answers "maybe" so often that a
// positive probe carries little information. Zero for a nil filter.
func (b *Bloom) FillFraction() float64 {
	if b == nil || len(b.words) == 0 {
		return 0
	}
	return float64(b.setBits()) / float64(len(b.words)*64)
}

// setBits counts the filter's one bits.
func (b *Bloom) setBits() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Saturated reports whether the filter is past the useful fill bound.
func (b *Bloom) Saturated() bool {
	return b.setBits()*bloomMaxFillDen > len(b.words)*64*bloomMaxFillNum
}

// Clone returns an independent copy (nil for nil).
func (b *Bloom) Clone() *Bloom {
	if b == nil {
		return nil
	}
	return &Bloom{k: b.k, words: append([]uint64(nil), b.words...)}
}

// mergeBlooms ORs two filters into a fresh one, the union analogue
// ColStats.Merge needs: the result may-contain everything either input
// may-contain. It degrades to nil — "no statistic", sound by
// construction — when either input is missing, the geometries differ, or
// the union saturates past the useful fill bound.
func mergeBlooms(a, b *Bloom) *Bloom {
	if a == nil || b == nil || a.k != b.k || len(a.words) != len(b.words) {
		return nil
	}
	m := a.Clone()
	for i, w := range b.words {
		m.words[i] |= w
	}
	if m.Saturated() {
		return nil
	}
	return m
}
