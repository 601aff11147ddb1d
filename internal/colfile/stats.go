package colfile

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"colmr/internal/scan"
	"colmr/internal/serde"
)

// Zone-map statistics (the scan subsystem's storage side). Every column
// file carries a stats section between its data region and its footer: one
// scan.ColStats per record group, where a group is a skip-list window
// (SkipList/DCSL), one compressed frame (Block), or a fixed record granule
// (Plain). Readers expose the section through StatsSource, letting a
// predicate prove a group irrelevant without decompressing or
// deserializing any of it — the PowerDrill/Parquet-style chunk-skipping
// the paper's CIF format predates.

// DefaultStatsEvery is the default record-group granularity of the stats
// section for Plain and SkipList/DCSL layouts. It matches the paper's
// middle skip level so that a pruned group is jumpable with one level-100
// pointer. Block layouts always cut one group per compressed frame.
const DefaultStatsEvery = 100

// statsMaxDistinct caps per-group distinct tracking; beyond the cap the
// count becomes a lower bound (DistinctCapped).
const statsMaxDistinct = 64

// statsMaxKeys caps the per-group map-key universe; beyond the cap the key
// list becomes a subset (KeysCapped) and can no longer disprove
// key-existence.
const statsMaxKeys = 64

// Bloom-filter size caps. A capped filter is sized below its ~1% FPP
// target and merely refutes less; it is never unsound. The group cap keeps
// the per-group entry small (groups hold ~100 records); the file cap
// bounds the whole-file aggregate that split elision reads, which must
// stay useful at crawl-scale distinct counts. Both are power-of-two block
// multiples (scan.NewBloomSized rounds to blocks).
const (
	bloomMaxGroupBytes = 4 << 10
	bloomMaxFileBytes  = 128 << 10
)

// Histogram collection bounds. The whole-file collector keeps a bounded
// systematic sample of non-null values (stride doubling when full, so the
// retained positions stay evenly spaced and deterministic) and cuts it
// into at most statsHistBuckets equi-depth buckets at finish. Group
// collectors never sample: a histogram's job is whole-file selectivity
// estimation, and per-group entries must stay small.
const (
	statsHistSamples = 1024
	statsHistBuckets = 16
)

// statsMaxHistBuckets bounds a decoded histogram's bucket count; anything
// larger is corruption, not a finer histogram (the builder emits at most
// 2*statsHistBuckets).
const statsMaxHistBuckets = 1024

// statsEntry locates one group's statistics in the record space.
type statsEntry struct {
	start int64 // first record of the group; Rows gives the extent
	st    scan.ColStats
}

// StatsSource is implemented by column readers whose file carries a
// zone-map stats section.
type StatsSource interface {
	// GroupStats returns the statistics of the record group containing rec
	// and the index one past the group's last record. It returns (nil, 0)
	// when no statistics cover rec.
	GroupStats(rec int64) (*scan.ColStats, int64)
}

// FileStatsSource is implemented by column readers whose file carries
// whole-file aggregate statistics (or per-group statistics they can be
// derived from). The scan planner's file tier uses it to skip an entire
// column file without touching its data region.
type FileStatsSource interface {
	// FileStats returns aggregate statistics covering every record in the
	// file, or nil when the file carries no statistics.
	FileStats() *scan.ColStats
}

// minMaxKind reports whether values of this schema kind carry min/max
// bounds in the stats section.
func minMaxKind(k serde.Kind) bool {
	switch k {
	case serde.KindBool, serde.KindInt, serde.KindLong, serde.KindTime,
		serde.KindDouble, serde.KindString, serde.KindBytes:
		return true
	}
	return false
}

// statsWriter builds a column file's stats section on the write path: one
// entry per record group and the whole-file aggregate that leads the
// section (the statistic the scheduler and file pruning tiers read without
// touching data). observe sees every appended value; cut closes the
// current group; finish closes the file. The writer prices nothing: zone
// maps are derived from values the writer already encoded, and their bytes
// are charged as ordinary written output.
//
// Each value is looked at once. What both the group and the file need from
// it — its Bloom hash, its sorted map keys, an owned copy of a caller's
// []byte — is derived once and shared; what the file needs that its groups
// already hold exactly (rows, nulls, min/max, the distinct set) is merged
// from each group as it closes. Only what cannot be merged exactly is kept
// per value for the file too: the Bloom hash set (a group may abandon its
// own), the key universe (the subset retained under the cap depends on
// arrival order) and the histogram sample.
type statsWriter struct {
	schema *serde.Schema
	every  int // cut cadence in records; 0 = external cuts only (Block)

	minMax    bool // the kind carries min/max bounds (and a histogram)
	bloomVals bool // string/bytes column filtering its values
	bloomKeys bool // map column filtering its keys

	entries  []statsEntry
	curStart int64
	group    zone
	file     zone

	// Histogram sampling, whole file only (group entries stay lean): a
	// systematic sample of non-null ordered values, kept evenly spaced by
	// doubling the stride whenever the buffer fills — deterministic by
	// arrival order, so identical data yields identical file bytes.
	histMax      int
	samples      []any
	sampleStride int64
	sampleSeen   int64

	own  any      // the value under observe in a form to keep; see owned
	keys []string // the map value under observe's keys, sorted
}

// zone is the statistics of one extent under construction — the current
// group, or the whole file.
type zone struct {
	// st carries rows, nulls, min/max and the key flags as they accumulate;
	// seal fills in the rest.
	st       scan.ColStats
	distinct distinctSet
	// keys is the map-key universe seen so far, sorted, at most
	// statsMaxKeys long.
	keys []string

	// Bloom collection. Observed byte strings dedup as hashes; the filter
	// is sized from the hash count at seal, capped at bloomMax bytes (0
	// disables). Once the distinct count guarantees a saturated (dropped)
	// filter even at the size cap, collection abandons: the extent yields
	// no filter and the dedup set stops growing — at crawl-scale distinct
	// counts the whole-file zone would otherwise burn memory building a
	// filter buildBloom is certain to discard.
	bloomMax       int
	bloomSet       map[uint64]struct{}
	bloomAbandoned bool
}

// bloomSetKeep bounds the hash set a zone carries from one extent (or one
// pooled writer) to the next: clearing a map costs its capacity, so a set
// that grew past this is dropped rather than cleared.
const bloomSetKeep = 1 << 12

// newStatsWriter readies a pooled writer cutting groups every `every`
// records (0 = external cuts only). A negative cadence disables statistics
// entirely: the nil writer accepts observe/cut and yields no section.
// noBloom suppresses Bloom filters while keeping the rest of the section.
// The file zone gets the larger size cap: its single filter covers every
// distinct value in the file, and it is what split elision probes.
func newStatsWriter(w *statsWriter, schema *serde.Schema, every int, noBloom bool) *statsWriter {
	if every < 0 {
		return nil
	}
	w.schema, w.every = schema, every
	w.minMax = minMaxKind(schema.Kind)
	w.bloomVals = !noBloom && (schema.Kind == serde.KindString || schema.Kind == serde.KindBytes)
	w.bloomKeys = !noBloom && schema.Kind == serde.KindMap
	w.group.bloomMax, w.file.bloomMax = bloomMaxGroupBytes, bloomMaxFileBytes
	w.group.distinct.float = schema.Kind == serde.KindDouble
	w.file.distinct.float = w.group.distinct.float
	w.histMax = statsHistSamples
	return w
}

// reset drops everything the writer holds of the file it has finished, and
// keeps the memory: the next file's writer starts from it.
func (w *statsWriter) reset() {
	clear(w.entries)
	clear(w.samples)
	w.entries, w.samples = w.entries[:0], w.samples[:0]
	w.curStart, w.sampleStride, w.sampleSeen = 0, 0, 0
	clear(w.keys)
	w.keys = w.keys[:0]
	w.group.reset()
	w.file.reset()
}

func (z *zone) reset() {
	z.st = scan.ColStats{}
	z.distinct.reset()
	clear(z.keys)
	z.keys = z.keys[:0]
	if len(z.bloomSet) > bloomSetKeep {
		z.bloomSet = nil
	} else {
		clear(z.bloomSet)
	}
	z.bloomAbandoned = false
}

// bloomAdd records one byte-string hash for the zone's filter.
func (z *zone) bloomAdd(h uint64) {
	if z.bloomAbandoned {
		return
	}
	if z.bloomSet == nil {
		z.bloomSet = make(map[uint64]struct{})
	}
	z.bloomSet[h] = struct{}{}
	// Past 1/4 of the capped filter's bit count, the expected fill
	// (1-e^(-k/4) ~ 0.83) is beyond the saturation bound buildBloom drops
	// at — abandon rather than keep paying 16 bytes per distinct value for
	// a filter that cannot survive. Abandoning early is sound: no filter
	// means MayMatch, never a wrong proof.
	if len(z.bloomSet) > z.bloomMax*8/4 {
		z.bloomAbandoned = true
		z.bloomSet = nil
	}
}

// addKey enters one map key into the zone's key universe, unless the
// universe is full: then the key list becomes a subset (KeysCapped) and
// nothing can enter it again. It reports whether the key was already in.
func (z *zone) addKey(k string) (seen bool) {
	i, seen := slices.BinarySearch(z.keys, k)
	if seen || z.st.KeysCapped {
		return seen
	}
	if len(z.keys) >= statsMaxKeys {
		z.st.KeysCapped = true
		return false
	}
	z.keys = slices.Insert(z.keys, i, k)
	return false
}

// seal finishes the zone's entry and empties the zone for the next extent.
func (z *zone) seal() scan.ColStats {
	st := z.st
	st.Distinct = int64(len(z.distinct.ids))
	st.DistinctCapped = z.distinct.capped
	if st.HasKeys {
		st.Keys = append(make([]string, 0, len(z.keys)), z.keys...)
	}
	st.Bloom = z.buildBloom()
	if st.Bloom != nil {
		// Record the fill fraction at write time: the estimator's
		// false-positive confidence weight, readable without a popcount
		// over the decoded filter.
		st.BloomFill = st.Bloom.FillFraction()
	}
	z.reset()
	return st
}

// buildBloom sizes a filter from the zone's deduplicated hashes and
// inserts them. Insertion order is irrelevant (bits OR together), so the
// random map iteration still yields deterministic file bytes. A filter
// still saturated at the size cap refutes too little to be worth its
// bytes and is dropped.
func (z *zone) buildBloom() *scan.Bloom {
	if len(z.bloomSet) == 0 {
		return nil
	}
	b := scan.NewBloomSized(len(z.bloomSet), z.bloomMax)
	if b == nil {
		return nil
	}
	for h := range z.bloomSet {
		b.AddHash(h)
	}
	if b.Saturated() {
		return nil
	}
	return b
}

// distinctSet is a zone's exact set of distinct values, up to
// statsMaxDistinct of them; one value more and the count becomes a lower
// bound (capped). A member is a 64-bit id and a byte string, and a
// membership test is a walk over at most that many ids. A scalar's id is
// its value and its byte string empty, so the id decides. A string or
// []byte value's id is the Bloom hash observe has computed anyway, and a
// match is confirmed against the set's own copy of the bytes: a value
// already present — or arriving after the cap — is neither hashed again
// nor copied.
type distinctSet struct {
	ids    []uint64
	arena  []byte // the members' bytes, back to back
	ends   []int  // where member i ends in arena
	float  bool   // ids are float64 bits: a NaN equals nothing, itself included
	capped bool
}

func (d *distinctSet) reset() {
	d.ids, d.arena, d.ends, d.capped = d.ids[:0], d.arena[:0], d.ends[:0], false
}

// add enters the member (id, v).
func add[T string | []byte](d *distinctSet, id uint64, v T) {
	if d.capped {
		return
	}
	if !d.float || !math.IsNaN(math.Float64frombits(id)) {
		lo := 0
		for i, member := range d.ids {
			hi := d.ends[i]
			if member == id && string(d.arena[lo:hi]) == string(v) {
				return
			}
			lo = hi
		}
	}
	if len(d.ids) >= statsMaxDistinct {
		d.capped = true
		return
	}
	d.ids = append(d.ids, id)
	d.arena = append(d.arena, v...)
	d.ends = append(d.ends, len(d.arena))
}

// scalarID maps a bool, int32, int64 or float64 to the id that is equal
// exactly when the values are: the integer itself, or a double's bits with
// -0 folded onto +0.
func scalarID(v any) (uint64, bool) {
	switch x := v.(type) {
	case bool:
		if x {
			return 1, true
		}
		return 0, true
	case int32:
		return uint64(x), true
	case int64:
		return uint64(x), true
	case float64:
		if x == 0 {
			x = 0
		}
		return math.Float64bits(x), true
	}
	return 0, false
}

// merge enters a closed group's members into the file's set. Exact: the
// file's members are the union of its groups' until one of them caps, and
// a capped group's members alone fill the file's set to the cap.
func (d *distinctSet) merge(g *distinctSet) {
	lo := 0
	for i, id := range g.ids {
		add(d, id, g.arena[lo:g.ends[i]])
		lo = g.ends[i]
	}
	d.capped = d.capped || g.capped
}

// owned returns v in a form the writer may keep: v itself, or for a
// caller's []byte — which the caller may overwrite once Append returns —
// one copy, made the first time some retainer (a bound, the histogram
// sample) asks and shared by all of them.
func (w *statsWriter) owned(v any) any {
	if w.own == nil {
		w.own = v
		if b, ok := v.([]byte); ok {
			w.own = append([]byte(nil), b...)
		}
	}
	return w.own
}

func (w *statsWriter) observe(v any) {
	if w == nil {
		return
	}
	g := &w.group
	g.st.Rows++
	if v == nil {
		g.st.Nulls++
	} else {
		if w.minMax {
			if !g.st.HasMinMax {
				g.st.HasMinMax = true
				g.st.Min, g.st.Max = w.owned(v), w.owned(v)
			} else {
				if cmp, ok := scan.CompareValues(v, g.st.Min); ok && cmp < 0 {
					g.st.Min = w.owned(v)
				}
				if cmp, ok := scan.CompareValues(v, g.st.Max); ok && cmp > 0 {
					g.st.Max = w.owned(v)
				}
			}
			w.histObserve(v)
			w.own = nil
		}
		switch x := v.(type) {
		case string:
			if w.wantsHash() {
				observeBytes(w, scan.BloomHashString(x), x)
			}
		case []byte:
			if w.wantsHash() {
				observeBytes(w, scan.BloomHash(x), x)
			}
		case map[string]any:
			g.distinct.capped = true
			if w.schema.Kind == serde.KindMap {
				w.observeKeys(x)
			}
		default:
			if id, ok := scalarID(v); ok {
				add(&g.distinct, id, "")
			} else {
				// Distinct is untracked for complex kinds: leave the count
				// a capped lower bound so consumers never treat it as exact.
				g.distinct.capped = true
			}
		}
	}
	if w.every > 0 && g.st.Rows >= int64(w.every) {
		w.cut()
	}
}

// wantsHash reports whether a string/[]byte value's Bloom hash has a taker:
// a filter still collecting, or the group's distinct set below its cap.
func (w *statsWriter) wantsHash() bool {
	return !w.group.distinct.capped ||
		w.bloomVals && !(w.group.bloomAbandoned && w.file.bloomAbandoned)
}

// observeBytes is observe's string/[]byte half: the one hash h serves the
// group's distinct set and both filters.
func observeBytes[T string | []byte](w *statsWriter, h uint64, x T) {
	add(&w.group.distinct, h, x)
	if w.bloomVals {
		w.group.bloomAdd(h)
		w.file.bloomAdd(h)
	}
}

// observeKeys is observe's map half. A key the current group already holds
// needs nothing more: when it entered the group it was hashed into both
// filters and offered to the file's universe, and none of the three forgets
// before the group closes. Map columns draw their keys from a small
// universe, so that is nearly every key of nearly every value, and a value
// made of such keys is not even sorted. A key new to the group takes the
// full path, in sorted order: sorted iteration keeps the subset retained
// under the cap deterministic (identical data must produce identical file
// bytes; the simulation replays by seed). Unlike the capped key lists, the
// filters see every key, so a negative probe stays a proof even when
// KeysCapped.
func (w *statsWriter) observeKeys(m map[string]any) {
	g, f := &w.group, &w.file
	g.st.HasKeys, f.st.HasKeys = true, true
	known := true
	for k := range m {
		if _, known = slices.BinarySearch(g.keys, k); !known {
			break
		}
	}
	if known {
		return
	}
	w.keys = appendSortedKeys(w.keys[:0], m)
	for _, k := range w.keys {
		if g.addKey(k) {
			continue
		}
		f.addKey(k)
		if w.bloomKeys && !(g.bloomAbandoned && f.bloomAbandoned) {
			h := scan.BloomHashString(k)
			g.bloomAdd(h)
			f.bloomAdd(h)
		}
	}
}

// histObserve feeds one non-null ordered value to the systematic sample.
// While the buffer has room every stride-th value is kept; when it fills,
// every other retained sample is dropped and the stride doubles, so the
// kept positions remain the multiples of the (new) stride. The sample is
// bounded by histMax values regardless of file size.
func (w *statsWriter) histObserve(v any) {
	if w.sampleStride == 0 {
		w.sampleStride = 1
	}
	if w.sampleSeen%w.sampleStride == 0 {
		if len(w.samples) >= w.histMax {
			keep := w.samples[:0]
			for i := 0; i < len(w.samples); i += 2 {
				keep = append(keep, w.samples[i])
			}
			clear(w.samples[len(keep):])
			w.samples = keep
			w.sampleStride *= 2
		}
		if w.sampleSeen%w.sampleStride == 0 {
			w.samples = append(w.samples, w.owned(v))
		}
	}
	w.sampleSeen++
}

// cut closes the current record group, if it has any rows: its rows,
// nulls, bounds and distinct members merge into the file's, and its entry
// joins the section.
func (w *statsWriter) cut() {
	if w == nil || w.group.st.Rows == 0 {
		return
	}
	g, f := &w.group.st, &w.file.st
	f.Rows += g.Rows
	f.Nulls += g.Nulls
	if g.HasMinMax {
		// Strict comparisons, groups in order: among equal bounds the file
		// keeps the first seen, as comparing value by value would.
		if !f.HasMinMax {
			f.HasMinMax, f.Min, f.Max = true, g.Min, g.Max
		} else {
			if cmp, ok := scan.CompareValues(g.Min, f.Min); ok && cmp < 0 {
				f.Min = g.Min
			}
			if cmp, ok := scan.CompareValues(g.Max, f.Max); ok && cmp > 0 {
				f.Max = g.Max
			}
		}
	}
	w.file.distinct.merge(&w.group.distinct)
	rows := g.Rows
	w.entries = append(w.entries, statsEntry{start: w.curStart, st: w.group.seal()})
	w.curStart += rows
}

// finish closes the trailing group and appends the encoded stats section
// to dst: the whole-file aggregate followed by the per-group entries
// (nothing when no records were observed).
func (w *statsWriter) finish(dst []byte) ([]byte, error) {
	if w == nil {
		return dst, nil
	}
	w.cut()
	if len(w.entries) == 0 {
		return dst, nil
	}
	agg := w.file.seal()
	if len(w.samples) > 0 {
		agg.Hist = scan.BuildHistogram(w.samples, statsHistBuckets)
	}
	return appendStatsSectionV4(dst, w.schema, &agg, w.entries)
}

// Stats section encoding (current, "CFS4"; see docs/FORMAT.md for the
// byte-level specification and lineage):
//
//	magic "CFS4"
//	aggregate entry covering every record in the file
//	uvarint groupCount
//	per group entry (same encoding as the aggregate):
//	  uvarint rows, uvarint nulls, uvarint distinct
//	  flags byte (hasMinMax | distinctCapped<<1 | hasKeys<<2 |
//	              keysCapped<<3 | hasBloom<<4 | hasHist<<5 |
//	              hasBloomFill<<6)
//	  [hasMinMax]    len-prefixed serde(min), len-prefixed serde(max)
//	  [hasKeys]      uvarint keyCount, len-prefixed keys
//	  [hasBloom]     uvarint k, uvarint wordCount, wordCount x u64 LE words
//	  [hasBloomFill] uvarint fill fraction in 1/10000ths
//	  [hasHist]      uvarint bucketCount, then per bucket:
//	                 uvarint count, len-prefixed serde(lo),
//	                 len-prefixed serde(hi)
//
// Group starts are implicit: groups tile the record space in order. The
// aggregate leads the section so split elision decides a whole file's
// relevance from the footer plus an O(1) parse — never data, never the
// group entries.
//
// Lineage, all still parsed: "CFST" (PR 1) holds groups only — consumers
// derive the aggregate by merging groups; "CFS2" (PR 2) added the leading
// aggregate; "CFS3" (PR 5) added the optional per-entry Bloom filter;
// "CFS4" (this PR) added the equi-depth histogram and the filter's
// recorded fill fraction. An entry using no new feature is byte-identical
// to its previous-generation spelling, so the flag bits are what version
// entries — the magic versions the section frame, and each encoder rejects
// entries carrying features its generation's parsers cannot skip.
const (
	statsMagic   = "CFST"
	statsMagicV2 = "CFS2"
	statsMagicV3 = "CFS3"
	statsMagicV4 = "CFS4"
)

const (
	statsFlagMinMax byte = 1 << iota
	statsFlagDistinctCapped
	statsFlagHasKeys
	statsFlagKeysCapped
	statsFlagBloom
	statsFlagHist
	statsFlagBloomFill
)

// statsMaxBloomWords bounds a decoded filter: the file-level cap in
// 64-bit words. Anything larger is corruption, not a huge filter.
const statsMaxBloomWords = bloomMaxFileBytes / 8

// entryFeatureError rejects an entry carrying a feature the given section
// generation's parsers cannot skip: Bloom filters arrived with CFS3,
// histograms and recorded fill fractions with CFS4. Encoders for older
// magics call it so a pre-feature section can never smuggle feature bytes
// past a pre-feature parser.
func entryFeatureError(magic string, st *scan.ColStats) error {
	if st.Bloom != nil && magic != statsMagicV3 && magic != statsMagicV4 {
		return fmt.Errorf("colfile: %s section cannot carry a Bloom filter", magic)
	}
	if (st.Hist != nil || st.BloomFill > 0) && magic != statsMagicV4 {
		return fmt.Errorf("colfile: %s section cannot carry a histogram or bloom fill fraction", magic)
	}
	return nil
}

// appendStatsSection encodes the legacy groups-only section ("CFST").
// Only backward-compat tests build it today; the writer emits
// appendStatsSectionV4. Like the CFS2 encoder, it rejects entries bearing
// newer-generation features: pre-feature sections must stay readable by
// pre-feature parsers.
func appendStatsSection(dst []byte, schema *serde.Schema, entries []statsEntry) ([]byte, error) {
	for i := range entries {
		if err := entryFeatureError(statsMagic, &entries[i].st); err != nil {
			return nil, err
		}
	}
	dst = append(dst, statsMagic...)
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	var err error
	for _, e := range entries {
		if dst, err = appendStatsEntry(dst, schema, &e.st); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// appendStatsSectionV2 encodes the legacy aggregate-first section
// ("CFS2"). Only backward-compat tests build it today; entries carrying a
// Bloom filter (or any later feature) would be unreadable by pre-feature
// parsers, so this encoder rejects them.
func appendStatsSectionV2(dst []byte, schema *serde.Schema, agg *scan.ColStats, entries []statsEntry) ([]byte, error) {
	if err := entryFeatureError(statsMagicV2, agg); err != nil {
		return nil, err
	}
	for i := range entries {
		if err := entryFeatureError(statsMagicV2, &entries[i].st); err != nil {
			return nil, err
		}
	}
	return appendAggSection(dst, statsMagicV2, schema, agg, entries)
}

// appendStatsSectionV3 encodes the legacy bloom-bearing section ("CFS3").
// It rejects entries carrying CFS4 features (histogram, recorded fill
// fraction): a CFS3 parser has no way to skip their payloads.
func appendStatsSectionV3(dst []byte, schema *serde.Schema, agg *scan.ColStats, entries []statsEntry) ([]byte, error) {
	if err := entryFeatureError(statsMagicV3, agg); err != nil {
		return nil, err
	}
	for i := range entries {
		if err := entryFeatureError(statsMagicV3, &entries[i].st); err != nil {
			return nil, err
		}
	}
	return appendAggSection(dst, statsMagicV3, schema, agg, entries)
}

// appendStatsSectionV4 encodes the current aggregate-first section
// ("CFS4") with optional per-entry Bloom filters, recorded fill fractions,
// and equi-depth histograms.
func appendStatsSectionV4(dst []byte, schema *serde.Schema, agg *scan.ColStats, entries []statsEntry) ([]byte, error) {
	return appendAggSection(dst, statsMagicV4, schema, agg, entries)
}

// appendAggSection encodes an aggregate-first section under the given
// magic (the CFS2 and CFS3 frames are identical; entries version
// themselves through flag bits).
func appendAggSection(dst []byte, magic string, schema *serde.Schema, agg *scan.ColStats, entries []statsEntry) ([]byte, error) {
	dst = append(dst, magic...)
	dst, err := appendStatsEntry(dst, schema, agg)
	if err != nil {
		return nil, err
	}
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	for _, e := range entries {
		if dst, err = appendStatsEntry(dst, schema, &e.st); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

func appendStatsEntry(dst []byte, schema *serde.Schema, st *scan.ColStats) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(st.Rows))
	dst = binary.AppendUvarint(dst, uint64(st.Nulls))
	dst = binary.AppendUvarint(dst, uint64(st.Distinct))
	var flags byte
	if st.HasMinMax {
		flags |= statsFlagMinMax
	}
	if st.DistinctCapped {
		flags |= statsFlagDistinctCapped
	}
	if st.HasKeys {
		flags |= statsFlagHasKeys
	}
	if st.KeysCapped {
		flags |= statsFlagKeysCapped
	}
	if st.Bloom != nil {
		flags |= statsFlagBloom
	}
	if st.Hist != nil {
		flags |= statsFlagHist
	}
	if st.BloomFill > 0 {
		flags |= statsFlagBloomFill
	}
	dst = append(dst, flags)
	if st.HasMinMax {
		for _, bound := range []any{st.Min, st.Max} {
			enc, err := serde.AppendValue(nil, schema, bound)
			if err != nil {
				return nil, fmt.Errorf("colfile: encoding stats bound: %w", err)
			}
			dst = binary.AppendUvarint(dst, uint64(len(enc)))
			dst = append(dst, enc...)
		}
	}
	if st.HasKeys {
		dst = binary.AppendUvarint(dst, uint64(len(st.Keys)))
		for _, k := range st.Keys {
			dst = binary.AppendUvarint(dst, uint64(len(k)))
			dst = append(dst, k...)
		}
	}
	if st.Bloom != nil {
		dst = binary.AppendUvarint(dst, uint64(st.Bloom.K()))
		words := st.Bloom.Words()
		dst = binary.AppendUvarint(dst, uint64(len(words)))
		for _, w := range words {
			dst = binary.LittleEndian.AppendUint64(dst, w)
		}
	}
	if st.BloomFill > 0 {
		fill := uint64(st.BloomFill*10000 + 0.5)
		if fill > 10000 {
			fill = 10000
		}
		if fill == 0 {
			fill = 1 // a recorded fill is never zero: the flag means "known"
		}
		dst = binary.AppendUvarint(dst, fill)
	}
	if st.Hist != nil {
		dst = binary.AppendUvarint(dst, uint64(st.Hist.Buckets()))
		for i := 0; i < st.Hist.Buckets(); i++ {
			lo, hi, count := st.Hist.Bucket(i)
			dst = binary.AppendUvarint(dst, uint64(count))
			for _, bound := range []any{lo, hi} {
				enc, err := serde.AppendValue(nil, schema, bound)
				if err != nil {
					return nil, fmt.Errorf("colfile: encoding histogram bound: %w", err)
				}
				dst = binary.AppendUvarint(dst, uint64(len(enc)))
				dst = append(dst, enc...)
			}
		}
	}
	return dst, nil
}

// statsCursor is a bounds-checked forward cursor over the stats blob.
type statsCursor struct {
	buf []byte
	pos int
}

func (c *statsCursor) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(c.buf[c.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("colfile: stats %s: truncated uvarint", what)
	}
	c.pos += n
	return v, nil
}

func (c *statsCursor) bytes(n int, what string) ([]byte, error) {
	if n < 0 || c.pos+n > len(c.buf) {
		return nil, fmt.Errorf("colfile: stats %s overruns section", what)
	}
	b := c.buf[c.pos : c.pos+n]
	c.pos += n
	return b, nil
}

// parseStatsSection decodes a stats section: the per-group entries plus
// the whole-file aggregate (nil for legacy sections written before the
// aggregate existed). Decoding charges nothing: like the footer and the
// split's schema file, zone maps are metadata.
func parseStatsSection(blob []byte, schema *serde.Schema) ([]statsEntry, *scan.ColStats, error) {
	agg, c, err := parseStatsHead(blob, schema)
	if err != nil {
		return nil, nil, err
	}
	n, err := c.uvarint("entry count")
	if err != nil {
		return nil, nil, err
	}
	// Every entry occupies at least 4 bytes (three uvarints + flags), so a
	// count beyond that bound is corruption, not a huge file — fail before
	// make() can panic on an absurd capacity.
	if n > uint64(len(blob))/4 {
		return nil, nil, fmt.Errorf("colfile: absurd stats entry count %d for %d-byte section", n, len(blob))
	}
	entries := make([]statsEntry, 0, n)
	var start int64
	for i := uint64(0); i < n; i++ {
		e := statsEntry{start: start}
		if err := parseStatsEntry(c, schema, &e.st); err != nil {
			return nil, nil, err
		}
		entries = append(entries, e)
		start += e.st.Rows
	}
	return entries, agg, nil
}

// parseStatsHead consumes the section magic and, for current sections,
// the leading aggregate entry, leaving the cursor at the group count.
func parseStatsHead(blob []byte, schema *serde.Schema) (*scan.ColStats, *statsCursor, error) {
	if len(blob) < len(statsMagic) {
		return nil, nil, fmt.Errorf("colfile: stats section too short")
	}
	c := &statsCursor{buf: blob, pos: len(statsMagic)}
	switch string(blob[:len(statsMagic)]) {
	case statsMagicV4, statsMagicV3, statsMagicV2:
		var agg scan.ColStats
		if err := parseStatsEntry(c, schema, &agg); err != nil {
			return nil, nil, err
		}
		return &agg, c, nil
	case statsMagic:
		return nil, c, nil // legacy: groups only (backward compat)
	}
	return nil, nil, fmt.Errorf("colfile: bad stats magic")
}

func parseStatsEntry(c *statsCursor, schema *serde.Schema, st *scan.ColStats) error {
	rows, err := c.uvarint("rows")
	if err != nil {
		return err
	}
	nulls, err := c.uvarint("nulls")
	if err != nil {
		return err
	}
	distinct, err := c.uvarint("distinct")
	if err != nil {
		return err
	}
	if rows > 1<<40 || nulls > rows || distinct > rows {
		return fmt.Errorf("colfile: implausible stats entry (rows=%d nulls=%d distinct=%d)", rows, nulls, distinct)
	}
	st.Rows, st.Nulls, st.Distinct = int64(rows), int64(nulls), int64(distinct)
	fb, err := c.bytes(1, "flags")
	if err != nil {
		return err
	}
	flags := fb[0]
	st.DistinctCapped = flags&statsFlagDistinctCapped != 0
	st.KeysCapped = flags&statsFlagKeysCapped != 0
	if flags&statsFlagMinMax != 0 {
		st.HasMinMax = true
		for _, bound := range []*any{&st.Min, &st.Max} {
			blen, err := c.uvarint("bound length")
			if err != nil {
				return err
			}
			enc, err := c.bytes(int(blen), "bound")
			if err != nil {
				return err
			}
			v, err := serde.NewDecoder(enc, nil).Value(schema)
			if err != nil {
				return fmt.Errorf("colfile: decoding stats bound: %w", err)
			}
			*bound = v
		}
	}
	if flags&statsFlagHasKeys != 0 {
		st.HasKeys = true
		kn, err := c.uvarint("key count")
		if err != nil {
			return err
		}
		if kn > statsMaxKeys {
			return fmt.Errorf("colfile: absurd stats key count %d", kn)
		}
		keys := make([]string, 0, kn)
		for j := uint64(0); j < kn; j++ {
			klen, err := c.uvarint("key length")
			if err != nil {
				return err
			}
			kb, err := c.bytes(int(klen), "key")
			if err != nil {
				return err
			}
			keys = append(keys, string(kb))
		}
		st.Keys = keys
	}
	if flags&statsFlagBloom != 0 {
		k, err := c.uvarint("bloom k")
		if err != nil {
			return err
		}
		nw, err := c.uvarint("bloom word count")
		if err != nil {
			return err
		}
		if k < 1 || k > 64 || nw == 0 || nw > statsMaxBloomWords {
			return fmt.Errorf("colfile: implausible bloom geometry (k=%d words=%d)", k, nw)
		}
		wb, err := c.bytes(int(nw)*8, "bloom words")
		if err != nil {
			return err
		}
		words := make([]uint64, nw)
		for j := range words {
			words[j] = binary.LittleEndian.Uint64(wb[j*8:])
		}
		// Invalid geometry (non-power-of-two blocks) yields a nil filter:
		// the entry stays usable, the filter just refutes nothing.
		st.Bloom = scan.NewBloomFromWords(int(k), words)
	}
	if flags&statsFlagBloomFill != 0 {
		fill, err := c.uvarint("bloom fill")
		if err != nil {
			return err
		}
		if fill == 0 || fill > 10000 {
			return fmt.Errorf("colfile: implausible bloom fill %d/10000", fill)
		}
		st.BloomFill = float64(fill) / 10000
	}
	if flags&statsFlagHist != 0 {
		hn, err := c.uvarint("histogram bucket count")
		if err != nil {
			return err
		}
		if hn == 0 || hn > statsMaxHistBuckets {
			return fmt.Errorf("colfile: implausible histogram bucket count %d", hn)
		}
		los := make([]any, 0, hn)
		his := make([]any, 0, hn)
		counts := make([]int64, 0, hn)
		for j := uint64(0); j < hn; j++ {
			count, err := c.uvarint("histogram count")
			if err != nil {
				return err
			}
			if count > rows {
				return fmt.Errorf("colfile: histogram bucket count %d exceeds rows %d", count, rows)
			}
			counts = append(counts, int64(count))
			for _, dst := range []*[]any{&los, &his} {
				blen, err := c.uvarint("histogram bound length")
				if err != nil {
					return err
				}
				enc, err := c.bytes(int(blen), "histogram bound")
				if err != nil {
					return err
				}
				v, err := serde.NewDecoder(enc, nil).Value(schema)
				if err != nil {
					return fmt.Errorf("colfile: decoding histogram bound: %w", err)
				}
				*dst = append(*dst, v)
			}
		}
		// Invalid geometry (zero counts, disordered bounds) yields a nil
		// histogram: the entry stays usable, estimation just falls back to
		// the uniform model.
		st.Hist = scan.NewHistogram(los, his, counts)
	}
	return nil
}

// statsLoader lazily reads and indexes a file's stats section, serving
// GroupStats and FileStats to all reader layouts. The section read is
// uncharged metadata, like the footer.
type statsLoader struct {
	src    ReaderAtSize
	schema *serde.Schema
	off    int64
	size   int64

	entries []statsEntry
	agg     *scan.ColStats
	loaded  bool
	failed  bool
}

// GroupStats implements StatsSource.
func (l *statsLoader) GroupStats(rec int64) (*scan.ColStats, int64) {
	if l == nil || l.size == 0 || l.failed {
		return nil, 0
	}
	if !l.loaded {
		l.load()
		if l.failed {
			return nil, 0
		}
	}
	// Find the last entry with start <= rec.
	i := sort.Search(len(l.entries), func(i int) bool { return l.entries[i].start > rec }) - 1
	if i < 0 {
		return nil, 0
	}
	e := &l.entries[i]
	end := e.start + e.st.Rows
	if rec >= end {
		return nil, 0
	}
	return &e.st, end
}

// FileStats implements FileStatsSource. For files written before the
// aggregate trailer existed it derives the aggregate by merging the
// per-group entries, so old datasets prune at the file tier too.
func (l *statsLoader) FileStats() *scan.ColStats {
	if l == nil || l.size == 0 || l.failed {
		return nil
	}
	if !l.loaded {
		l.load()
		if l.failed {
			return nil
		}
	}
	if l.agg == nil {
		l.agg = mergeEntries(l.entries)
	}
	return l.agg
}

// mergeEntries derives a whole-file aggregate from per-group entries (the
// legacy-section path shared by both file-tier consumers). nil when there
// are no entries.
func mergeEntries(entries []statsEntry) *scan.ColStats {
	if len(entries) == 0 {
		return nil
	}
	var m scan.ColStats
	for i := range entries {
		m.Merge(&entries[i].st)
	}
	return &m
}

func (l *statsLoader) load() {
	l.loaded = true
	blob := make([]byte, l.size)
	readAt := l.src.ReadAt
	if u, ok := l.src.(unchargedReaderAt); ok {
		readAt = u.UnchargedReadAt
	}
	if _, err := readAt(blob, l.off); err != nil && err != io.EOF {
		l.failed = true
		return
	}
	entries, agg, err := parseStatsSection(blob, l.schema)
	if err != nil {
		l.failed = true
		return
	}
	l.entries = entries
	l.agg = agg
}

// FileStats reads a column file's whole-file aggregate statistics using
// only the footer and the adjacent stats section — never the data region,
// and never the accounting sink. Current sections lead with the aggregate,
// so the parse is O(1) in the number of record groups; legacy sections
// fall back to merging their group entries. This is the scheduler tier's
// view: split elision decides a file's relevance from it before any map
// task exists. It returns (nil, nil) for files without (or with
// unreadable) statistics — planning degrades, it does not fail.
func FileStats(r ReaderAtSize, schema *serde.Schema) (*scan.ColStats, error) {
	_, statsLen, err := readFooter(r)
	if err != nil {
		return nil, err
	}
	if statsLen == 0 {
		return nil, nil
	}
	blob := make([]byte, statsLen)
	readAt := r.ReadAt
	if u, ok := r.(unchargedReaderAt); ok {
		readAt = u.UnchargedReadAt
	}
	if _, err := readAt(blob, r.Size()-footerSize-statsLen); err != nil && err != io.EOF {
		return nil, nil
	}
	agg, _, err := parseStatsHead(blob, schema)
	if err != nil {
		return nil, nil
	}
	if agg != nil {
		return agg, nil
	}
	// Legacy groups-only section: merge the entries.
	entries, _, err := parseStatsSection(blob, schema)
	if err != nil {
		return nil, nil
	}
	return mergeEntries(entries), nil
}
