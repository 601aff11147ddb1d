package colfile

import (
	"fmt"
	"sort"

	"colmr/internal/scan"
	"colmr/internal/serde"
)

// The write-side statistics as they were before statsWriter learned to look
// at each value once: a value-at-a-time collector, instantiated twice (one
// cutting groups, one covering the file) and fed every value separately.
// Nothing but tests uses it. It is the oracle TestStatsWriterMatchesOracle
// holds statsWriter.finish to, byte for byte, and the fixture builder of
// the section encode/parse tests.

// statsCollector accumulates per-group statistics on the write path.
// observe sees every appended value; cut closes the current group. The
// collector prices nothing: zone maps are derived from values the writer
// already encoded, and their bytes are charged as ordinary written output.
type statsCollector struct {
	schema *serde.Schema
	every  int // cut cadence in records; 0 = external cuts only (Block)

	entries  []statsEntry
	curStart int64
	cur      scan.ColStats
	distinct map[any]struct{}
	keys     map[string]struct{}

	minMax bool
	mapCol bool

	// Bloom collection: string/bytes columns filter their values, map
	// columns their keys (bloomVals and bloomKeys are mutually exclusive).
	// Observed byte strings dedup as hashes; the filter is sized from the
	// hash count at cut, capped at bloomMax bytes (0 disables). Once the
	// distinct count guarantees a saturated (dropped) filter even at the
	// size cap, collection abandons: the group yields no filter and the
	// dedup set stops growing — at crawl-scale distinct counts the
	// whole-file collector would otherwise burn memory building a filter
	// buildBloom is certain to discard.
	bloomVals      bool
	bloomKeys      bool
	bloomMax       int
	bloomSet       map[uint64]struct{}
	bloomAbandoned bool

	// Histogram sampling (whole-file collectors only; histMax 0 disables):
	// a systematic sample of non-null ordered values, kept evenly spaced by
	// doubling the stride whenever the buffer fills — deterministic by
	// arrival order, so identical data yields identical file bytes.
	histMax      int
	samples      []any
	sampleStride int64
	sampleSeen   int64
}

// newStatsCollector builds a collector cutting groups every `every`
// records (0 = external cuts only). A negative cadence disables statistics
// entirely: the nil collector accepts observe/cut and yields no section.
// bloomMax caps the per-group Bloom filter in bytes; 0 writes none.
func newStatsCollector(schema *serde.Schema, every, bloomMax int) *statsCollector {
	if every < 0 {
		return nil
	}
	c := &statsCollector{
		schema: schema,
		every:  every,
		minMax: minMaxKind(schema.Kind),
		mapCol: schema.Kind == serde.KindMap,
	}
	if bloomMax > 0 {
		c.bloomVals = schema.Kind == serde.KindString || schema.Kind == serde.KindBytes
		c.bloomKeys = c.mapCol
		c.bloomMax = bloomMax
	}
	return c
}

// bloomAdd records one byte-string hash for the current group's filter.
func (c *statsCollector) bloomAdd(h uint64) {
	if c.bloomAbandoned {
		return
	}
	if c.bloomSet == nil {
		c.bloomSet = make(map[uint64]struct{})
	}
	c.bloomSet[h] = struct{}{}
	// Past 1/4 of the capped filter's bit count, the expected fill
	// (1-e^(-k/4) ~ 0.83) is beyond the saturation bound buildBloom drops
	// at — abandon rather than keep paying 16 bytes per distinct value for
	// a filter that cannot survive. Abandoning early is sound: no filter
	// means MayMatch, never a wrong proof.
	if len(c.bloomSet) > c.bloomMax*8/4 {
		c.bloomAbandoned = true
		c.bloomSet = nil
	}
}

// distinctKey maps a value to a comparable key for distinct counting, or
// ok=false for kinds whose distinct count is not tracked.
func distinctKey(v any) (any, bool) {
	switch x := v.(type) {
	case bool, int32, int64, float64, string:
		return x, true
	case []byte:
		return string(x), true
	}
	return nil, false
}

func (c *statsCollector) observe(v any) {
	if c == nil {
		return
	}
	c.cur.Rows++
	if v == nil {
		c.cur.Nulls++
	} else {
		if c.minMax {
			if !c.cur.HasMinMax {
				c.cur.HasMinMax = true
				c.cur.Min, c.cur.Max = copyBound(v), copyBound(v)
			} else {
				if cmp, ok := scan.CompareValues(v, c.cur.Min); ok && cmp < 0 {
					c.cur.Min = copyBound(v)
				}
				if cmp, ok := scan.CompareValues(v, c.cur.Max); ok && cmp > 0 {
					c.cur.Max = copyBound(v)
				}
			}
		}
		if key, ok := distinctKey(v); ok {
			if !c.cur.DistinctCapped {
				if c.distinct == nil {
					c.distinct = make(map[any]struct{}, statsMaxDistinct)
				}
				if _, seen := c.distinct[key]; !seen {
					if len(c.distinct) >= statsMaxDistinct {
						c.cur.DistinctCapped = true
					} else {
						c.distinct[key] = struct{}{}
					}
				}
			}
		} else {
			// Distinct is untracked for complex kinds: leave the count a
			// capped lower bound so consumers never treat it as exact.
			c.cur.DistinctCapped = true
		}
		if c.bloomVals {
			switch x := v.(type) {
			case string:
				c.bloomAdd(scan.BloomHashString(x))
			case []byte:
				c.bloomAdd(scan.BloomHash(x))
			}
		}
		if c.histMax > 0 && c.minMax {
			c.histObserve(v)
		}
		if c.mapCol {
			if m, ok := v.(map[string]any); ok {
				c.cur.HasKeys = true
				if c.keys == nil {
					c.keys = make(map[string]struct{}, statsMaxKeys)
				}
				if c.bloomKeys {
					// Unlike the capped key list below, the filter sees
					// every key, so a negative probe stays a proof even
					// when KeysCapped.
					for k := range m {
						c.bloomAdd(scan.BloomHashString(k))
					}
				}
				// Sorted iteration keeps the retained subset under the
				// cap deterministic: identical data must produce
				// identical file bytes (the simulation replays by seed).
				for _, k := range mapKeysSorted(m) {
					if _, seen := c.keys[k]; seen {
						continue
					}
					if len(c.keys) >= statsMaxKeys {
						c.cur.KeysCapped = true
						break
					}
					c.keys[k] = struct{}{}
				}
			}
		}
	}
	if c.every > 0 && c.cur.Rows >= int64(c.every) {
		c.cut()
	}
}

// histObserve feeds one non-null ordered value to the systematic sample.
// While the buffer has room every stride-th value is kept; when it fills,
// every other retained sample is dropped and the stride doubles, so the
// kept positions remain the multiples of the (new) stride. The sample is
// bounded by histMax values regardless of file size.
func (c *statsCollector) histObserve(v any) {
	if c.sampleStride == 0 {
		c.sampleStride = 1
	}
	if c.sampleSeen%c.sampleStride == 0 {
		if len(c.samples) >= c.histMax {
			keep := c.samples[:0]
			for i := 0; i < len(c.samples); i += 2 {
				keep = append(keep, c.samples[i])
			}
			c.samples = keep
			c.sampleStride *= 2
		}
		if c.sampleSeen%c.sampleStride == 0 {
			c.samples = append(c.samples, copyBound(v))
		}
	}
	c.sampleSeen++
}

// copyBound deep-copies mutable bound values so later caller mutations
// cannot corrupt recorded statistics.
func copyBound(v any) any {
	if b, ok := v.([]byte); ok {
		return append([]byte(nil), b...)
	}
	return v
}

// cut closes the current group, if it has any rows.
func (c *statsCollector) cut() {
	if c == nil || c.cur.Rows == 0 {
		return
	}
	c.cur.Distinct = int64(len(c.distinct))
	if c.cur.HasKeys {
		keys := make([]string, 0, len(c.keys))
		for k := range c.keys {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		c.cur.Keys = keys
	}
	c.cur.Bloom = c.buildBloom()
	if c.cur.Bloom != nil {
		// Record the fill fraction at write time: the estimator's
		// false-positive confidence weight, readable without a popcount
		// over the decoded filter.
		c.cur.BloomFill = c.cur.Bloom.FillFraction()
	}
	if len(c.samples) > 0 {
		c.cur.Hist = scan.BuildHistogram(c.samples, statsHistBuckets)
		c.samples = nil
		c.sampleSeen = 0
		c.sampleStride = 0
	}
	c.entries = append(c.entries, statsEntry{start: c.curStart, st: c.cur})
	c.curStart += c.cur.Rows
	c.cur = scan.ColStats{}
	c.distinct = nil
	c.keys = nil
	c.bloomSet = nil
	c.bloomAbandoned = false
}

// buildBloom sizes a filter from the group's deduplicated hashes and
// inserts them. Insertion order is irrelevant (bits OR together), so the
// random map iteration still yields deterministic file bytes. A filter
// still saturated at the size cap refutes too little to be worth its
// bytes and is dropped.
func (c *statsCollector) buildBloom() *scan.Bloom {
	if len(c.bloomSet) == 0 {
		return nil
	}
	b := scan.NewBloomSized(len(c.bloomSet), c.bloomMax)
	if b == nil {
		return nil
	}
	for h := range c.bloomSet {
		b.AddHash(h)
	}
	if b.Saturated() {
		return nil
	}
	return b
}

// oracleStatsWriter pairs the per-group collector with a whole-file collector.
// The file collector cuts exactly once, at finish, so its single entry is
// the aggregate over every record — the statistic the scheduler and file
// pruning tiers read without touching data. Observing into two collectors
// costs two min/max comparisons per value on the load path; like the group
// collector, it prices nothing.
type oracleStatsWriter struct {
	group *statsCollector
	file  *statsCollector
}

// newOracleStatsWriter builds the collector pair cutting groups every `every`
// records (0 = external cuts only). A negative cadence disables statistics
// entirely: the nil writer accepts observe/cut and yields no section.
// noBloom suppresses Bloom filters while keeping the rest of the section.
// The file collector gets the larger size cap: its single filter covers
// every distinct value in the file, and it is what split elision probes.
func newOracleStatsWriter(schema *serde.Schema, every int, noBloom bool) *oracleStatsWriter {
	if every < 0 {
		return nil
	}
	groupMax, fileMax := bloomMaxGroupBytes, bloomMaxFileBytes
	if noBloom {
		groupMax, fileMax = 0, 0
	}
	w := &oracleStatsWriter{
		group: newStatsCollector(schema, every, groupMax),
		file:  newStatsCollector(schema, 0, fileMax),
	}
	// Only the whole-file collector samples for a histogram: its single
	// entry is what selectivity estimation reads, and group entries stay
	// lean.
	w.file.histMax = statsHistSamples
	return w
}

func (w *oracleStatsWriter) observe(v any) {
	if w == nil {
		return
	}
	w.group.observe(v)
	w.file.observe(v)
}

// cut closes the current record group (the file collector never cuts until
// finish).
func (w *oracleStatsWriter) cut() {
	if w == nil {
		return
	}
	w.group.cut()
}

// finish closes the trailing group and returns the encoded stats section:
// per-group entries followed by the whole-file aggregate trailer (empty
// when no records were observed).
func (w *oracleStatsWriter) finish() ([]byte, error) {
	if w == nil {
		return nil, nil
	}
	w.group.cut()
	w.file.cut()
	if len(w.group.entries) == 0 {
		return nil, nil
	}
	if len(w.file.entries) != 1 {
		return nil, fmt.Errorf("colfile: file aggregate collector produced %d entries, want 1", len(w.file.entries))
	}
	return appendStatsSectionV4(nil, w.group.schema, &w.file.entries[0].st, w.group.entries)
}

// mapKeysSorted is the oracle's own key sort, as it was.
func mapKeysSorted(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
