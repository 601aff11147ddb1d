package scan

import (
	"fmt"
	"testing"
)

// TestBloomNoFalseNegatives: every inserted key must probe positive — the
// property all pruning soundness rests on.
func TestBloomNoFalseNegatives(t *testing.T) {
	for _, n := range []int{1, 7, 100, 5000} {
		b := NewBloomSized(n, 1<<20)
		if b == nil {
			t.Fatalf("n=%d: no filter", n)
		}
		for i := 0; i < n; i++ {
			b.AddHash(BloomHashString(fmt.Sprintf("key-%d", i)))
		}
		for i := 0; i < n; i++ {
			if !b.MayContainString(fmt.Sprintf("key-%d", i)) {
				t.Fatalf("n=%d: inserted key-%d probes negative", n, i)
			}
		}
		// String and byte-slice spellings must hash identically: a []byte
		// literal probes the value a string column inserted.
		if !b.MayContain([]byte("key-0")) {
			t.Error("bytes spelling of an inserted string probes negative")
		}
	}
}

// TestBloomFalsePositiveRate: at the sized geometry the FPP must land near
// the ~1% target (generously bounded; the assertion guards sizing
// regressions, not the exact constant).
func TestBloomFalsePositiveRate(t *testing.T) {
	const n = 10000
	b := NewBloomSized(n, 1<<20)
	for i := 0; i < n; i++ {
		b.AddHash(BloomHashString(fmt.Sprintf("in-%d", i)))
	}
	if b.Saturated() {
		t.Fatal("sized filter reports saturation")
	}
	fp := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		if b.MayContainString(fmt.Sprintf("out-%d", i)) {
			fp++
		}
	}
	if rate := float64(fp) / probes; rate > 0.03 {
		t.Errorf("false-positive rate %.3f exceeds 3%% (target ~1%%)", rate)
	}
}

// TestBloomSizeCap: the filter never exceeds its byte cap, and a capped
// filter stays sound (no false negatives) even when overfull.
func TestBloomSizeCap(t *testing.T) {
	const cap = 512 // bytes: 8 blocks
	b := NewBloomSized(100000, cap)
	if got := len(b.Words()) * 8; got > cap {
		t.Fatalf("filter is %d bytes, cap %d", got, cap)
	}
	for i := 0; i < 1000; i++ {
		b.AddHash(BloomHashString(fmt.Sprintf("k%d", i)))
	}
	for i := 0; i < 1000; i++ {
		if !b.MayContainString(fmt.Sprintf("k%d", i)) {
			t.Fatalf("capped filter lost key k%d", i)
		}
	}
}

// TestBloomMergeUnion: the OR of two filters may-contains everything
// either input may-contains; mismatched geometry or a missing side
// degrades to nil.
func TestBloomMergeUnion(t *testing.T) {
	a := NewBloomSized(100, 1<<16)
	b := NewBloomSized(100, 1<<16)
	for i := 0; i < 100; i++ {
		a.AddHash(BloomHashString(fmt.Sprintf("a%d", i)))
		b.AddHash(BloomHashString(fmt.Sprintf("b%d", i)))
	}
	m := mergeBlooms(a, b)
	if m == nil {
		t.Fatal("compatible merge returned nil")
	}
	for i := 0; i < 100; i++ {
		if !m.MayContainString(fmt.Sprintf("a%d", i)) || !m.MayContainString(fmt.Sprintf("b%d", i)) {
			t.Fatalf("merged filter lost an input key at %d", i)
		}
	}
	// The inputs must be untouched (Merge runs on shared stats entries).
	if a.MayContainString("b0") && a.MayContainString("b1") && a.MayContainString("b2") &&
		a.MayContainString("b3") && a.MayContainString("b4") {
		t.Error("merge appears to have mutated its first input")
	}
	if mergeBlooms(a, nil) != nil || mergeBlooms(nil, b) != nil {
		t.Error("merge with a missing side must degrade to nil")
	}
	small := NewBloomSized(1, 64)
	if mergeBlooms(a, small) != nil {
		t.Error("geometry-mismatched merge must degrade to nil")
	}
}

// TestBloomMergeSaturation: ORing filters past the fill bound drops the
// result — the whole-file aggregate degrades to "no statistic" rather than
// carrying a filter that answers "maybe" to everything.
func TestBloomMergeSaturation(t *testing.T) {
	mk := func(tag string) *Bloom {
		b := NewBloomSized(60, 64) // one block, deliberately undersized
		for i := 0; i < 60; i++ {
			b.AddHash(BloomHashString(fmt.Sprintf("%s-%d", tag, i)))
		}
		return b
	}
	m := mk("x")
	sawNil := false
	for round := 0; round < 20 && !sawNil; round++ {
		m = mergeBlooms(m, mk(fmt.Sprintf("t%d", round)))
		sawNil = m == nil
	}
	if !sawNil {
		t.Error("repeated merges never saturated to nil")
	}
}

// TestColStatsMergeBloom: Merge's bloom handling across the
// values/no-values cases, including that adopting a side clones rather
// than aliases.
func TestColStatsMergeBloom(t *testing.T) {
	withBloom := func(keys ...string) *ColStats {
		b := NewBloomSized(len(keys), 1<<16)
		for _, k := range keys {
			b.AddHash(BloomHashString(k))
		}
		return &ColStats{Rows: int64(len(keys)), HasMinMax: true, Min: keys[0], Max: keys[0], Bloom: b}
	}

	// Both sides carry values: filters OR.
	s := withBloom("p", "q")
	s.Merge(withBloom("r", "s"))
	for _, k := range []string{"p", "q", "r", "s"} {
		if !s.Bloom.MayContainString(k) {
			t.Fatalf("merged stats lost %q", k)
		}
	}

	// One side all-null: the other side's filter survives; adopting clones.
	nullSide := &ColStats{Rows: 3, Nulls: 3}
	src := withBloom("z")
	nullSide.Merge(src)
	if nullSide.Bloom == nil || !nullSide.Bloom.MayContainString("z") {
		t.Fatal("all-null side did not adopt the value side's filter")
	}
	if &nullSide.Bloom.words[0] == &src.Bloom.words[0] {
		t.Error("adopted filter aliases the source's bit array")
	}
	s2 := withBloom("w")
	s2.Merge(&ColStats{Rows: 2, Nulls: 2})
	if s2.Bloom == nil || !s2.Bloom.MayContainString("w") {
		t.Error("merging in an all-null side dropped the filter")
	}

	// A side without a filter poisons the union (can no longer refute).
	s3 := withBloom("a")
	s3.Merge(&ColStats{Rows: 1, HasMinMax: true, Min: "m", Max: "m"})
	if s3.Bloom != nil {
		t.Error("merge with a filterless side must drop the filter")
	}
}

// TestColStatsHasKeyBloom: HasKey consults the filter before the sorted
// list — and because the filter covers keys the capped list dropped, it
// still answers membership for them.
func TestColStatsHasKeyBloom(t *testing.T) {
	b := NewBloomSized(3, 1<<12)
	for _, k := range []string{"kept", "dropped", "alsodropped"} {
		b.AddHash(BloomHashString(k))
	}
	st := &ColStats{Rows: 1, HasKeys: true, Keys: []string{"kept"}, KeysCapped: true, Bloom: b}
	if !st.HasKey("kept") {
		t.Error("retained key refuted")
	}
	if st.HasKey("absent-key-the-filter-never-saw") {
		t.Error("bloom-negative key not refuted")
	}
}

// TestPruneBloomEquality: equality over a high-cardinality string column
// where zone maps are useless ([Min, Max] spans the literal) must prune on
// a bloom-negative, must not prune on a member, and must leave range and
// prefix predicates untouched.
func TestPruneBloomEquality(t *testing.T) {
	b := NewBloomSized(2, 1<<12)
	b.AddHash(BloomHashString("banana"))
	b.AddHash(BloomHashString("cherry"))
	st := &ColStats{Rows: 2, HasMinMax: true, Min: "banana", Max: "cherry", Bloom: b}
	stats := func(string) *ColStats { return st }

	// "candy" lies inside [banana, cherry], so only the filter can refute.
	if got := Eq("c", "candy").Prune(stats); got != NoMatch {
		t.Errorf("bloom-negative equality: %v, want no-match", got)
	}
	if got := Eq("c", "banana").Prune(stats); got != MayMatch {
		t.Errorf("bloom-positive equality: %v, want may-match", got)
	}
	// Range and prefix shapes never consult the filter: in-range literals
	// stay may-match whether or not the filter would refute them.
	if got := Between("c", "bx", "by").Prune(stats); got != MayMatch {
		t.Errorf("range inside bounds: %v, want may-match", got)
	}
	if got := HasPrefix("c", "che").Prune(stats); got != MayMatch {
		t.Errorf("prefix inside bounds: %v, want may-match", got)
	}
	// Ne must not be refuted by a value filter.
	if got := Ne("c", "candy").Prune(stats); got != MayMatch {
		t.Errorf("inequality: %v, want may-match", got)
	}

	// StripBloom restores zone-map-only behavior.
	if got := Eq("c", "candy").Prune(StripBloom(stats)); got != MayMatch {
		t.Errorf("stripped bloom-negative equality: %v, want may-match", got)
	}
}

// TestPruneBloomKeyExists: a map column's key filter refutes exists() even
// when the key universe is capped — the case the sorted list cannot
// decide.
func TestPruneBloomKeyExists(t *testing.T) {
	b := NewBloomSized(2, 1<<12)
	b.AddHash(BloomHashString("k0"))
	b.AddHash(BloomHashString("overflow"))
	st := &ColStats{Rows: 2, HasKeys: true, Keys: []string{"k0"}, KeysCapped: true, Bloom: b}
	stats := func(string) *ColStats { return st }

	if got := KeyExists("m", "nosuchkey").Prune(stats); got != NoMatch {
		t.Errorf("bloom-negative key with capped universe: %v, want no-match", got)
	}
	if got := KeyExists("m", "overflow").Prune(stats); got != MayMatch {
		t.Errorf("bloomed-but-dropped key: %v, want may-match", got)
	}
	// Without the filter a capped universe proves nothing.
	if got := KeyExists("m", "nosuchkey").Prune(StripBloom(stats)); got != MayMatch {
		t.Errorf("stripped capped universe: %v, want may-match", got)
	}
}

// TestEstimateBloomNegative: a bloom-refuted equality estimates to exactly
// zero, ahead of the 1/Distinct guess.
func TestEstimateBloomNegative(t *testing.T) {
	b := NewBloomSized(1, 1<<12)
	b.AddHash(BloomHashString("present"))
	st := &ColStats{Rows: 100, Distinct: 50, HasMinMax: true, Min: "a", Max: "z", Bloom: b}
	stats := func(string) *ColStats { return st }
	if got := EstimateFraction(Eq("c", "absent"), stats); got != 0 {
		t.Errorf("bloom-negative equality estimates %v, want 0", got)
	}
	// A positive probe keeps the 1/Distinct model, discounted by the
	// filter's false-positive confidence 1/(1+fill^K) — a nearly-empty
	// filter (one key in 4096 bits) keeps almost the full estimate.
	got := EstimateFraction(Eq("c", "present"), stats)
	if got <= 0 || got > 1.0/50 {
		t.Errorf("bloom-positive equality estimates %v, want in (0, 1/Distinct]", got)
	}
	if got < 0.9/50 {
		t.Errorf("bloom-positive equality estimates %v; a near-empty filter should keep ~1/Distinct", got)
	}
}

// TestPlannerBloomSwitchAndAttribution: SetBloom(false) restores
// zone-map-only verdicts, and PruneGroup attributes bloom-decisive proofs.
func TestPlannerBloomSwitchAndAttribution(t *testing.T) {
	b := NewBloomSized(1, 1<<12)
	b.AddHash(BloomHashString("present"))
	st := &ColStats{Rows: 10, HasMinMax: true, Min: "a", Max: "z", Bloom: b}
	group := func(string, int64) (*ColStats, int64) { return st, 10 }

	pl := NewPlanner(Eq("c", "absent"))
	tri, end, byBloom := pl.PruneGroup(0, 10, group)
	if tri != NoMatch || end != 10 || !byBloom {
		t.Errorf("bloom-decisive group prune: tri=%v end=%d byBloom=%v", tri, end, byBloom)
	}
	pl.SetBloom(false)
	if tri, _, byBloom = pl.PruneGroup(0, 10, group); tri != MayMatch || byBloom {
		t.Errorf("disabled planner still pruned: tri=%v byBloom=%v", tri, byBloom)
	}
	if pruned, _ := pl.PruneFileRows(func(string) *ColStats { return st }, nil); pruned {
		t.Error("disabled planner pruned at the file tier")
	}

	// A zone-map-decidable proof is not attributed to the filter.
	zm := NewPlanner(Eq("c", "zz"))
	if _, _, byBloom := zm.PruneGroup(0, 10, group); byBloom {
		t.Error("zone-map proof attributed to the bloom filter")
	}
}
