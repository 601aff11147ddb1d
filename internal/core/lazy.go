package core

import (
	"fmt"

	"colmr/internal/colfile"
	"colmr/internal/scan"
	"colmr/internal/serde"
)

// LazyRecord implements the paper's lazy record construction (Section 5.1).
// It satisfies the same Record interface as an eagerly materialized
// GenericRecord, so map functions are written identically for both.
//
// The reader's curPos advances on every Next() without touching any column
// file. Each column cursor remembers the last record it actually read
// (lastPos, which is colfile.Reader.Record here). Only when the map
// function calls Get does the column skip ahead —
// skip(curPos - lastPos) — and deserialize one value. With skip-list
// column layouts the skip is cheap; with plain layouts it degrades to
// walking every intervening record, matching the paper's description.
//
// That is exactly what happens for a column the map function touches now and
// then. A column it has read on every one of the last several records is
// served differently — the skip between two reads is empty there, and what is
// left is per-value plumbing — by decoding a short run of the next values at
// once (Reader.startRun). A run never reaches past rows the scan is known to
// surface, and never further ahead than the column has just been read behind.
type LazyRecord struct {
	r *Reader
	m *member
}

// Schema implements serde.Record.
func (l *LazyRecord) Schema() *serde.Schema { return l.m.proj }

// Get implements serde.Record: it materializes the named column's value
// for the record curPos currently points at. The per-cursor cache is
// shared with predicate evaluation and with the other members of a shared
// scan, so a column already read for the record is free here.
func (l *LazyRecord) Get(name string) (any, error) {
	r, m := l.r, l.m
	// One lookup: the member's projection index names its cursor. Filter-only
	// predicate columns have open cursors too but are not part of the record:
	// they are rejected here so lazy and eager records expose the same
	// (projected) schema.
	i := m.proj.FieldIndex(name)
	if i < 0 || len(r.cursors) == 0 {
		return nil, fmt.Errorf("core: column %q is not in the projection %v", name, m.columns)
	}
	c := r.cursors[m.colCursor[i]]
	cached := c.cachedPos == r.curPos
	v, err := r.valueAt(c)
	if err != nil {
		return nil, err
	}
	if !cached || r.countCachedGets {
		r.countMaterialized()
	}
	return v, nil
}

// countMaterialized counts record-object construction once per record,
// however many members and Gets consumed it — the object churn is shared
// through the cursor cache, so charging it per member would overstate CPU
// work.
func (r *Reader) countMaterialized() {
	if r.matCounted != r.curPos {
		r.task.CPU.RecordsMaterialized++
		r.matCounted = r.curPos
	}
}

const (
	// lazyRunStreak is how many consecutive surfaced rows a cursor must have
	// been read on before it decodes a run ahead.
	lazyRunStreak = 8
	// lazyRunRows bounds one run (a run is otherwise as long as the streak
	// behind it).
	lazyRunRows = 256
)

// valueAt materializes cursor c's value for the record curPos points at,
// through the per-record cache shared by lazy records, predicate
// evaluation, and record-at-a-time eager materialization: each column of
// each record is deserialized at most once, however many consumers ask.
func (r *Reader) valueAt(c *cursor) (any, error) {
	pos := r.curPos
	if c.cachedPos == pos {
		return c.cached, nil
	}
	if c.servedAt+1 == r.surfaced {
		c.streak++
	} else {
		c.streak = 1
	}
	c.servedAt = r.surfaced
	if behind := c.streak - 1; behind >= lazyRunStreak && pos >= c.runEnd {
		if err := r.startRun(c, min(behind, lazyRunRows)); err != nil {
			return nil, err
		}
	}
	var val any
	if pos < c.runEnd {
		// The cursor sits at the run's end: the run is the only source for the
		// rows inside it, read on every one of them or not.
		val = c.run[pos-c.runStart]
	} else if v := r.batchVec(c); v != nil {
		// A lazy record inside an evaluated batch: a column already decoded
		// for the batch serves from its vector — the cursor was advanced to
		// the batch end by the decode, so the vector is also the only correct
		// source for rows inside the batch. (Eager records never come this
		// way; assemble boxes whole columns at once.)
		val = v.Value(&r.box, int(pos-r.batch.start))
		if v.Kind != scan.VecAny {
			// Boxing on serve; VecAny rows were charged at decode.
			r.task.CPU.ValuesMaterialized++
		}
	} else {
		// lastPos -> curPos: cross the records nothing asked for. Skip-list
		// layouts charge cheap skips; plain layouts degrade to walking.
		if err := c.r.SkipTo(pos); err != nil {
			return nil, fmt.Errorf("core: column %q skip to %d: %w", c.name, pos, err)
		}
		var err error
		if val, err = c.r.Value(); err != nil {
			return nil, fmt.Errorf("core: column %q record %d: %w", c.name, pos, err)
		}
	}
	c.cached = val
	c.cachedPos = pos
	return val, nil
}

// batchVec returns c's vector in the active batch when curPos lies inside it
// and the batch decoded the column.
func (r *Reader) batchVec(c *cursor) *scan.Vector {
	if b := r.batch; b != nil && b.contains(r.curPos) {
		return b.vecAt(c.name)
	}
	return nil
}

// startRun decodes and boxes c's values for up to n rows from curPos on, all
// at once, so the Gets that follow are slice reads. A run covers adjacent rows
// the scan is known to surface next — its batch's selection — and stops at the
// first it is not, or at the batch's end. The record-at-a-time loop's one-row
// batches know no next row, and complex kinds gain nothing from a vector: both
// keep decoding one value per Get, as does a run that would cover this row
// alone.
//
// The values come from the batch's own vector when it decoded the column, else
// from the cursor (colBatch.decodeBoxed, which charges what Value charges),
// and are boxed from the reader's own Boxer: a short run costs no allocation
// of its own, only its share of the chunks the task's runs fill. What a run
// charges it charges when it is built: read to its end it has cost what the
// value-at-a-time loop costs, and a map function that drops the column
// mid-run has paid for the rest.
func (r *Reader) startRun(c *cursor, n int) error {
	if colfile.VecKindOf(c.schema) == scan.VecAny {
		return nil
	}
	pos := r.curPos
	end := pos + int64(n)
	b := r.batch
	if b == nil || !b.contains(pos) {
		return nil
	}
	end = min(end, b.end)
	for e := pos + 1; e < end; e++ {
		if !b.sel.Test(int(e - b.start)) {
			end = e
			break
		}
	}
	if n = int(end - pos); n < 2 {
		return nil
	}
	if cap(c.run) < n {
		c.run = make([]any, n)
	} else if n < len(c.run) {
		// A cursor pins its current run and nothing older: the tail of a longer
		// run before this one goes now (every slot past len(c.run) is nil).
		clear(c.run[n:])
	}
	c.run = c.run[:n]
	lo := int(pos - b.start)
	if v := r.batchVec(c); v != nil {
		v.BoxRange(&r.box, lo, lo+n, c.run)
		r.task.CPU.ValuesMaterialized += int64(n)
	} else {
		v, err := b.decodeBoxed(c, b.sel, lo, lo+n, n)
		if err != nil {
			return err
		}
		v.Box(&r.box, nil, c.run, 1)
		vecScratch.Put(v)
	}
	c.runStart, c.runEnd = pos, end
	return nil
}
