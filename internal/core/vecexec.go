package core

import (
	"fmt"
	"slices"
	"sync"

	"colmr/internal/colfile"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/vec"
)

// The batch loop. Every scan — solo or shared, eager, lazy or aggregating —
// runs one loop (Reader.step): plan the batch at the scan position (the union
// zone-map tier; a batch never crosses the verdict's validity, pruneValidTo),
// decode it per column into typed vectors on demand, evaluate each eval
// group's residual once over the rows its members want (scan.VecEval over
// selection bitmaps), and hand each member its matches through its sink:
//
//   - aggregate fold (aggexec.go): FoldBatch straight from the selection and
//     the vectors, once per distinct aggregate and eval group;
//   - eager records (Reader.assemble): built column by column out of a
//     handful of allocations per batch instead of several per value;
//   - lazy records (lazy.go): the batch selection is the scan's position
//     set, and a Get decodes its value then — from the batch's vector when
//     the predicate decoded the column, else from the cursor — so a scan
//     with no predicate decodes nothing ahead of Get;
//   - the per-member demux (Reader.demux): each row the batch surfaces goes
//     to the members whose matches hold it.
//
// Batch boundaries follow the record-at-a-time loop's zone-map consultation
// trajectory, so the logical counters (GroupsPruned, RecordsPruned,
// RecordsFiltered) are identical vectorized or not. What changes is decode
// accounting: primitive values land in flat vectors at CostModel.VecRate,
// per-column decodes fan across a bounded goroutine pool, and a session's
// vec.Cache can serve a whole batch without reading anything. Spec.NoVec
// keeps the record-at-a-time loop as the test oracle: the same loop over
// one-row batches, evaluated, folded and materialized value by value through
// the cursor cache. One difference is accepted: the scalar loop surfaces a
// mid-group type error after delivering the group's earlier matches, a batch
// before delivering any of its rows — the verdicts are identical.

// vecBatchRows bounds one batch. Group extents are typically smaller (the
// batch is clipped to the zone-map verdict's validity), so this matters
// only for very large groups and predicate-dense regions.
const vecBatchRows = 4096

// eagerBatchRows bounds one batch of eager records with no predicate. On the
// all-columns scan of the 13-column synthetic schema 128-256 rows ran about
// a tenth faster than 1024 or more (the 52 KB value slab of 256 rows stays
// cache resident) and 64 no faster; small also bounds what a retained
// record keeps reachable (see Reader.Next).
const eagerBatchRows = 256

// vecDecodeParallel bounds the per-batch decode fan-out.
const vecDecodeParallel = 4

// vecScratch recycles batch scratch vectors for every reader in the
// process: splits are short (an ingest partition is a single batch), so a
// pool per reader would start cold for each and re-grow every vector.
var vecScratch vec.Pool

// colVecEntry memoizes one column's decode outcome for a batch.
type colVecEntry struct {
	v *scan.Vector
	// cached marks vectors shared with the session vector cache (served
	// from it, or admitted to it): they are read-only forever and must not
	// be pooled when the batch retires.
	cached bool
	err    error
}

// idVecEntry memoizes one column's dictionary-id decode outcome for a
// batch. A nil iv with nil err means the column declined the id path for
// this batch (not dictionary-encoded here, or its value vector was already
// decoded); the predicate falls back to value comparison.
type idVecEntry struct {
	iv  *scan.IDVector
	err error
}

// colBatch is one contiguous batch of records [start, end) of the open
// split-directory, implementing scan.VecSource over the reader's cursor set.
// Columns decode on first use, so the predicate's short-circuit structure
// decides which are ever decoded. Decodes charge the cursor's own bucket
// (cursor.phys): the prefetch fan-out never shares a counter.
type colBatch struct {
	r     *Reader
	start int64
	end   int64
	n     int

	sel  *scan.Selection // rows surfacing from the batch (set by step)
	next int             // pop cursor for match iteration

	mu     sync.Mutex
	vecs   map[string]*colVecEntry // allocated on a batch's first decode
	idvecs map[string]*idVecEntry
}

// key names col's vectors for this batch in the session vector cache. With
// no cache there is nothing to name, and no path is built.
func (b *colBatch) key(c *cursor) vec.Key {
	if b.r.vecCache == nil {
		return vec.Key{}
	}
	return vec.Key{Path: b.r.dirs[b.r.dirIdx] + "/" + c.name, Gen: c.hr.Generation(), Start: b.start}
}

// ColVec implements scan.VecSource: the column's vector for the batch,
// decoded on first use (or served from the session vector cache).
func (b *colBatch) ColVec(col string) (*scan.Vector, error) {
	e := b.vecs[col] // evaluation and the sinks run after the prefetch barrier
	if e == nil {
		e = b.store(col, b.decode(col))
	}
	return e.v, e.err
}

// store memoizes col's decode outcome unless the column already has one, and
// returns the one kept.
func (b *colBatch) store(col string, e *colVecEntry) *colVecEntry {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.vecs == nil {
		b.vecs = make(map[string]*colVecEntry)
	}
	if old := b.vecs[col]; old != nil {
		return old
	}
	b.vecs[col] = e
	return e
}

// decode produces col's vector for the batch. The caller guarantees one
// decode per column per batch (prefetch fans out distinct undecoded
// columns; after its barrier, evaluation is serial).
func (b *colBatch) decode(col string) *colVecEntry {
	c, err := b.r.cursorFor(col)
	if err != nil {
		return &colVecEntry{err: err}
	}
	cache := b.r.vecCache
	key := b.key(c)
	if v := cache.Get(key, b.end); v != nil {
		// The whole batch serves from memory: no read, no decode. The
		// cursor is left where it was — a later miss skips forward from
		// there, and an all-hit round never touches the stream at all.
		c.phys.VecCacheHits++
		c.phys.DecodeSavedValues += int64(v.Len())
		return &colVecEntry{v: v, cached: true}
	}
	dec, ok := c.r.(colfile.VectorDecoder)
	if !ok {
		// Every layout decodes vectors; kept as a real error so a future
		// layout missing VectorDecoder fails loudly, not wrongly.
		return &colVecEntry{err: fmt.Errorf("core: column %q layout cannot batch-decode", col)}
	}
	kind := colfile.VecKindOf(c.schema)
	var v *scan.Vector
	if cache != nil {
		// Destined for the cache: allocate fresh, never pooled.
		v = scan.NewVector(kind, b.n)
	} else {
		v = vecScratch.Get(kind, b.n)
	}
	if err := dec.DecodeVector(b.start, b.end, v, &c.phys.CPU); err != nil {
		if cache == nil {
			vecScratch.Put(v)
		}
		return &colVecEntry{err: fmt.Errorf("core: column %q batch decode [%d,%d): %w", col, b.start, b.end, err)}
	}
	return &colVecEntry{v: v, cached: cache.Add(key, b.end, v)}
}

// IDVec implements scan.IDSource: the column's dictionary-id vector for the
// batch, decoded on first use (or served from the session vector cache), or
// (nil, nil) — compare values instead — unless the column is cleared for
// id-only access (Reader.idOnly) and its stream is unconsumed: ids and
// values advance the same stream, so one batch takes one or the other.
func (b *colBatch) IDVec(col string) (*scan.IDVector, error) {
	if !b.r.idOnly[col] {
		return nil, nil
	}
	e := b.idvecs[col] // evaluation is serial: no prefetch decodes ids
	if e == nil {
		if b.decoded(col) {
			// The value vector already consumed the stream (e.g. a cache hit
			// from an earlier round decoded values): answer from values.
			return nil, nil
		}
		e = b.decodeIDs(col)
		if b.idvecs == nil {
			b.idvecs = make(map[string]*idVecEntry)
		}
		b.idvecs[col] = e
	}
	return e.iv, e.err
}

// decodeIDs produces col's dictionary-id vector for the batch, or an empty
// entry when the column's layout declines (not a non-map DCSL column).
func (b *colBatch) decodeIDs(col string) *idVecEntry {
	c, err := b.r.cursorFor(col)
	if err != nil {
		return &idVecEntry{err: err}
	}
	cache := b.r.vecCache
	key := b.key(c)
	if iv := cache.GetID(key, b.end); iv != nil {
		c.phys.VecCacheHits++
		c.phys.DecodeSavedValues += int64(iv.Len())
		return &idVecEntry{iv: iv}
	}
	dec, ok := c.r.(colfile.IDVectorDecoder)
	if !ok {
		return &idVecEntry{}
	}
	iv := scan.NewIDVector(b.n)
	answered, err := dec.DecodeIDVector(b.start, b.end, iv, &c.phys.CPU)
	if err != nil {
		return &idVecEntry{err: fmt.Errorf("core: column %q id decode [%d,%d): %w", col, b.start, b.end, err)}
	}
	if !answered {
		return &idVecEntry{}
	}
	cache.AddID(key, b.end, iv)
	return &idVecEntry{iv: iv}
}

// CountDictIDCompares implements scan.DictCompareCounter: n integer
// dictionary-id comparisons that replaced string comparisons.
func (b *colBatch) CountDictIDCompares(n int64) { b.r.task.DictIdCompares += n }

// KeyVec implements scan.VecSource: map-key existence for the batch,
// answered by the storage layer (the DCSL prober) when the column is safe to
// probe (Reader.probeOnly).
func (b *colBatch) KeyVec(col, key string, sel *scan.Selection) (*scan.Selection, bool, error) {
	if !b.r.probeOnly[col] {
		return nil, false, nil
	}
	if b.decoded(col) {
		// Already decoded (e.g. a cache hit from an earlier batch shape):
		// answer from the vector instead.
		return nil, false, nil
	}
	c, err := b.r.cursorFor(col)
	if err != nil {
		return nil, false, err
	}
	kp, ok := c.r.(colfile.KeyVecProber)
	if !ok {
		return nil, false, nil
	}
	res := sel.Clone()
	answered, err := kp.ProbeKeys(key, b.start, b.end, res, &c.phys.CPU)
	if err != nil {
		return nil, false, fmt.Errorf("core: column %q key probe [%d,%d): %w", col, b.start, b.end, err)
	}
	if !answered {
		return nil, false, nil
	}
	return res, true, nil
}

// decoded reports whether the batch holds col's decode outcome.
func (b *colBatch) decoded(col string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.vecs[col] != nil
}

// vecAt returns col's decoded vector when the batch holds one, for the
// sinks' materialization fast paths. Sinks run after the prefetch barrier,
// so no decode is in flight to lock out.
func (b *colBatch) vecAt(col string) *scan.Vector {
	if e := b.vecs[col]; e != nil && e.err == nil {
		return e.v
	}
	return nil
}

// contains reports whether record pos lies in the batch.
func (b *colBatch) contains(pos int64) bool {
	return pos >= b.start && pos < b.end
}

// prefetch decodes a residual's certain columns (scan.EagerColumns) not yet
// decoded for the batch, fanning them across a bounded goroutine pool.
// Decode errors are memoized, not returned: evaluation surfaces them in its
// own deterministic order, and an error in a column the short-circuit order
// never reaches is swallowed exactly like the scalar path never reaching it.
func (b *colBatch) prefetch(cols []string) {
	warm := func(col string) {
		if !b.decoded(col) {
			b.store(col, b.decode(col))
		}
	}
	if len(cols) < 2 {
		for _, col := range cols {
			warm(col)
		}
		return
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, vecDecodeParallel)
	for _, col := range cols {
		wg.Add(1)
		go func(col string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			warm(col)
		}(col)
	}
	wg.Wait()
}

// advance moves the scan to the next row some member takes (r.batch holds
// it, at curPos); false at the end of the split or on an error.
func (r *Reader) advance() (bool, error) {
	for {
		if b := r.batch; b != nil {
			// A dense run tests its next row inline; Next scans for the rest.
			idx := b.next
			if idx >= b.n || !b.sel.Test(idx) {
				idx = b.sel.Next(idx)
			}
			if idx >= 0 {
				b.next = idx + 1
				r.curPos = b.start + int64(idx)
				r.surfaced++
				return true, nil
			}
			r.curPos = b.end - 1
			r.releaseBatch()
		}
		if r.done {
			return false, nil
		}
		if err := r.step(); err != nil {
			return false, err
		}
	}
}

// demux hands the current row to the members whose matches hold it, each
// under its own projection and materialization mode. The batch's selection
// is the union of those matches, so at least one member takes the row.
func (r *Reader) demux() error {
	b := r.batch
	idx := int(r.curPos - b.start)
	r.outVals, r.outIdx = r.outVals[:0], r.outIdx[:0]
	for i, m := range r.members {
		if m.fold != nil || m.sel == nil || (m.sel != b.sel && !m.sel.Test(idx)) {
			continue
		}
		v, err := r.deliver(m)
		if err != nil {
			return err
		}
		r.outVals = append(r.outVals, v)
		r.outIdx = append(r.outIdx, i)
	}
	return nil
}

// deliver returns a member's view of the current row: its lazy record, the
// next eager record assemble built for the batch, or — record at a time —
// one built here through the cursor cache, so a column several members (or
// a residual and a projection) consume is deserialized once. Late
// materialization either way: columns of filtered rows are never decoded.
func (r *Reader) deliver(m *member) (any, error) {
	switch {
	case m.lrec != nil:
		return m.lrec, nil
	case r.vectorize:
		rec := &m.ready[0]
		m.ready = m.ready[1:]
		return rec, nil
	}
	rec := serde.NewRecord(m.proj)
	for i, ci := range m.colCursor {
		v, err := r.valueAt(r.cursors[ci])
		if err != nil {
			return nil, err
		}
		rec.SetAt(i, v)
	}
	r.countMaterialized()
	return rec, nil
}

// step plans, evaluates and sinks the batch at curPos+1 — one row under
// Spec.NoVec. Its live rows (superseded ones are masked out: never
// evaluated, folded or counted) are each member's wants — with N > 1, the
// subset the member's own replay does not prune; each eval group's
// residual then decides the rows its members want, once; a member's
// matches are its wants ∧ its group's verdict, and the rest of its wants
// count as filtered. On return either r.batch holds rows to surface, or
// curPos moved past a pruned or empty region, or — at the end of the
// directory — the scan moved to the next one.
func (r *Reader) step() error {
	pos := r.curPos + 1
	if pos >= r.total {
		return r.nextDir()
	}
	if end, ok, err := r.aggStatsShortcut(pos); err != nil {
		return err
	} else if ok {
		r.curPos = end - 1
		return nil
	}
	// A zone map is never consulted at — nor an extent counted from — a
	// superseded row.
	for r.dels.has(pos) {
		pos++
	}
	if pos >= r.total {
		r.curPos = r.total - 1
		return nil
	}
	end, limit := r.total, int64(vecBatchRows)
	if r.planner.Predicate() != nil {
		// The union tier's verdict is scoped to the narrowest group
		// consulted: on NoMatch the scan steps past it; on MayMatch batches
		// run without re-consulting zone maps until one starts past it.
		// byBloom splits out the proofs only a Bloom filter could make.
		if pos >= r.pruneValidTo {
			tri, gEnd, byBloom := r.planner.PruneGroup(pos, r.total, r.zones)
			if tri == scan.NoMatch {
				r.unionPruned(true, gEnd-pos, byBloom)
				r.curPos = gEnd - 1
				return nil
			}
			r.pruneValidTo = gEnd
		}
		end = min(end, r.pruneValidTo)
	} else if r.eager > 0 {
		limit = eagerBatchRows
	}
	if !r.vectorize {
		limit = 1
	}
	end = min(end, pos+limit)
	b := &colBatch{r: r, start: pos, end: end, n: int(end - pos)}
	r.batch = b
	if !r.vectorize {
		r.curPos = pos // the scalar evaluator reads the cursors at curPos
	}
	live := r.selection(b.n, true)
	r.dels.mask(live, pos, end)
	for _, m := range r.members {
		m.sel = live
		if len(r.members) > 1 {
			m.sel = r.selection(b.n, false)
			r.wantRows(m, pos, end, m.sel)
		}
	}
	if err := r.evaluate(b); err != nil {
		r.releaseBatch()
		return err
	}
	if err := r.foldBatch(b); err != nil {
		r.releaseBatch()
		return err
	}
	if r.vectorize && r.eager > 0 {
		if err := r.assemble(b); err != nil {
			r.releaseBatch()
			return err
		}
	}
	// The rows to surface: every record-taking member's matches.
	b.sel = r.unionOf(b.n, func(m *member) bool { return m.fold == nil })
	if b.sel == nil || b.sel.Empty() {
		r.curPos = end - 1
		r.releaseBatch()
	}
	return nil
}

// evaluate decides each eval group's residual over the rows its members want
// — rows no member wants are never evaluated, as the record-at-a-time loop
// never reaches them — and narrows each member's wants to its matches.
func (r *Reader) evaluate(b *colBatch) error {
	evaluated := false
	for g, p := range r.groupPred {
		in := r.unionOf(b.n, func(m *member) bool { return m.evalGroup == g })
		r.verdict[g] = in
		if in.Empty() {
			continue
		}
		evaluated = true
		if !r.vectorize {
			ok, err := p.Eval(evalCtx{r})
			if err != nil {
				return err
			}
			if r.verdict[g] = r.selection(1, false); ok {
				r.verdict[g].Set(0)
			}
			continue
		}
		b.prefetch(r.eagerCols(p))
		out, err := p.VecEval(b, in)
		if err != nil {
			return err
		}
		r.sels = append(r.sels, out)
		r.verdict[g] = out
	}
	if evaluated && r.vectorize {
		r.task.VecBatches++
		r.task.RowsVectorized += int64(b.n)
	}
	for _, m := range r.members {
		g := m.evalGroup
		if g < 0 {
			continue
		}
		wants := m.sel
		m.sel = r.verdict[g] // a lone member's verdict is its matches
		if len(r.members) > 1 {
			m.sel = r.selection(b.n, false)
			m.sel.Or(wants)
			m.sel.And(r.verdict[g])
		}
		m.stats.RecordsFiltered += int64(wants.Count() - m.sel.Count())
	}
	return nil
}

// eagerCols filters a residual's certain columns down to those the prefetch
// fan-out may decode as value vectors: an id-only column must not be
// prefetched, or its consumed stream would block the id path VecEval is
// about to take.
func (r *Reader) eagerCols(p scan.Predicate) []string {
	cols := scan.EagerColumns(p)
	if len(r.idOnly) == 0 {
		return cols
	}
	return slices.DeleteFunc(slices.Clone(cols), func(col string) bool { return r.idOnly[col] })
}

// selection returns a pooled selection of n rows (every one selected when
// full) that lives as long as the active batch.
func (r *Reader) selection(n int, full bool) *scan.Selection {
	get := scan.GetEmptySelection
	if full {
		get = scan.GetFullSelection
	}
	s := get(n)
	r.sels = append(r.sels, s)
	return s
}

// unionOf returns the rows of the active batch (n rows) that any member pick
// accepts takes: a lone accepted member's own selection, a pooled OR of
// several, nil when pick accepts none.
func (r *Reader) unionOf(n int, pick func(*member) bool) *scan.Selection {
	var u *scan.Selection
	own := false
	for _, m := range r.members {
		switch {
		case !pick(m):
		case u == nil:
			u = m.sel
		case !own:
			first := u
			u, own = r.selection(n, false), true
			u.Or(first)
			fallthrough
		default:
			u.Or(m.sel)
		}
	}
	return u
}

// boxSource is one column's source for assemble: a vector of the batch's
// rows, or one decodeBoxed compacted to the rows the eager members take.
type boxSource struct {
	v       *scan.Vector
	compact bool
}

// assemble is the eager sink: it builds each eager member's records of its
// matches, column by column into one slab of records and one of values
// (serde.NewRecords). A column the batch already decoded — for a residual or
// a fold — is boxed from its vector, as serving it row by row would (one
// ValuesMaterialized per primitive value: the decode was charged at the
// vector rate); so is one a lazy member also reads, decoded whole here so
// its Gets can follow. Every other column is decoded (decodeBoxed) once for
// the rows any eager member takes — late materialization, run by run, so the
// cursor crosses the others with the skips the scalar loop's SkipTo would
// use. A full drain therefore reads the same bytes and charges the same
// counters as the record-at-a-time loop (Spec.NoVec); the counters land per
// batch, at decode, not per record at delivery.
func (r *Reader) assemble(b *colBatch) error {
	rows := r.unionOf(b.n, (*member).eager) // the rows some eager member takes
	n := rows.Count()
	if n == 0 {
		return nil
	}
	if cap(r.boxSrc) < len(r.cursors) {
		r.boxSrc = make([]boxSource, len(r.cursors))
	}
	srcs := r.boxSrc[:len(r.cursors)]
	defer func() {
		for i, s := range srcs {
			if s.compact {
				vecScratch.Put(s.v)
			}
			srcs[i] = boxSource{}
		}
	}()
	var served int64
	for _, m := range r.members {
		if !m.eager() || m.sel.Empty() {
			continue
		}
		recs, vals := serde.NewRecords(m.proj, m.sel.Count())
		m.ready = recs
		var rank *scan.Selection // m's rows among rows, for compacted vectors
		if m.sel != rows {
			rank = r.selection(n, false)
			k := 0
			for i := rows.Next(0); i >= 0; i = rows.Next(i + 1) {
				if m.sel.Test(i) {
					rank.Set(k)
				}
				k++
			}
		}
		width := len(m.columns)
		for j, ci := range m.colCursor {
			s := &srcs[ci]
			if s.v == nil {
				c := r.cursors[ci]
				s.v = b.vecAt(c.name)
				if s.v == nil && r.readLazily(ci) {
					var err error
					if s.v, err = b.ColVec(c.name); err != nil {
						return err
					}
				}
				if s.v == nil {
					var err error
					if s.v, err = b.decodeBoxed(c, rows, 0, b.n, n); err != nil {
						return err
					}
					s.compact = true
				} else if s.v.Kind != scan.VecAny {
					served += int64(n)
				}
			}
			if s.compact {
				s.v.Box(&r.box, rank, vals[j:], width)
			} else {
				s.v.Box(&r.box, m.sel, vals[j:], width)
			}
		}
	}
	r.task.CPU.ValuesMaterialized += served
	r.task.CPU.RecordsMaterialized += int64(n)
	return nil
}

// readLazily reports whether a lazy member projects cursor ci: its Gets may
// follow the batch, so assemble decodes the column whole for them.
func (r *Reader) readLazily(ci int) bool {
	for _, m := range r.members {
		if m.lrec != nil && slices.Contains(m.colCursor, ci) {
			return true
		}
	}
	return false
}

// decodeBoxed decodes the n batch rows in [from, to) that sel picks from c
// into a scratch vector marked Boxed, which makes the storage layer charge
// what Value charges, one DecodeVector call per run of adjacent rows.
func (b *colBatch) decodeBoxed(c *cursor, sel *scan.Selection, from, to, n int) (*scan.Vector, error) {
	dec, ok := c.r.(colfile.VectorDecoder)
	if !ok {
		return nil, fmt.Errorf("core: column %q layout cannot batch-decode", c.name)
	}
	v := vecScratch.Get(colfile.VecKindOf(c.schema), n)
	v.Boxed = true
	for lo := sel.Next(from); lo >= 0 && lo < to; {
		hi := lo + 1
		for hi < to && sel.Test(hi) {
			hi++
		}
		if err := dec.DecodeVector(b.start+int64(lo), b.start+int64(hi), v, &c.phys.CPU); err != nil {
			vecScratch.Put(v)
			return nil, fmt.Errorf("core: column %q batch decode [%d,%d): %w", c.name, b.start+int64(lo), b.start+int64(hi), err)
		}
		lo = sel.Next(hi)
	}
	return v, nil
}

// releaseBatch retires the active batch, if any: its scratch vectors (those
// shared with the session cache are read-only and live on), its selections,
// and the members' matches and unclaimed records with them.
func (r *Reader) releaseBatch() {
	if b := r.batch; b != nil {
		r.batch = nil
		for _, e := range b.vecs {
			if e.v != nil && !e.cached {
				vecScratch.Put(e.v)
			}
		}
	}
	for i, s := range r.sels {
		scan.PutSelection(s)
		r.sels[i] = nil
	}
	r.sels = r.sels[:0]
	for _, m := range r.members {
		m.sel, m.ready = nil, nil
	}
}
