package core

import (
	"fmt"

	"colmr/internal/colfile"
	"colmr/internal/scan"
	"colmr/internal/serde"
	"colmr/internal/sim"
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
// once (scanPos.startRun). A run never reaches past rows the scan is known to
// surface, and never further ahead than the column has just been read behind.
type LazyRecord struct {
	reader *Reader
}

// Schema implements serde.Record.
func (l *LazyRecord) Schema() *serde.Schema { return l.reader.proj }

// Get implements serde.Record: it materializes the named column's value
// for the record curPos currently points at. The per-cursor cache is
// shared with predicate evaluation, so a filter column a pushdown
// predicate already read is free here.
func (l *LazyRecord) Get(name string) (any, error) {
	r := l.reader
	// The projected columns' cursors are the prefix of r.cursors, in the
	// projection's order: one lookup resolves the name. Filter-only predicate
	// columns have open cursors past that prefix but are not part of the
	// record: they are rejected here so lazy and eager records expose the
	// same (projected) schema.
	i := r.proj.FieldIndex(name)
	if i < 0 || i >= len(r.cursors) {
		return nil, fmt.Errorf("core: column %q is not in the projection %v", name, r.columns)
	}
	c := r.cursors[i]
	counted := c.cachedPos == r.curPos
	v, err := r.valueAt(c)
	if err != nil {
		return nil, err
	}
	if r.stats != nil && !counted && !l.countedCurrent() {
		r.stats.CPU.RecordsMaterialized++
		r.lastCounted = r.curPos
		r.lastCountedDir = r.dirIdx
	}
	return v, nil
}

// countedCurrent reports whether the current record was already counted as
// materialized (first Get on a record wins).
func (l *LazyRecord) countedCurrent() bool {
	r := l.reader
	return r.lastCountedDir == r.dirIdx && r.lastCounted == r.curPos && r.lastCounted >= 0
}

const (
	// lazyRunStreak is how many consecutive surfaced rows a cursor must have
	// been read on before it decodes a run ahead.
	lazyRunStreak = 8
	// lazyRunRows bounds one run (a run is otherwise as long as the streak
	// behind it).
	lazyRunRows = 256
)

// scanPos is the part of a reader's state its cursors materialize values
// against: the open split-directory's extent and delete set, the row most
// recently surfaced, and the evaluated batch that row was drawn from, if any.
// Reader and SharedReader embed it, so valueAt is one function for both.
type scanPos struct {
	// dels is the open directory's loaded delete set (nil when it has none).
	// Deleted ordinals are superseded recrawl rows: they are skipped before
	// predicate evaluation and counted nowhere.
	dels   *delSet
	total  int64 // records in the open split-directory
	curPos int64 // index of the record most recently returned by Next
	// batch is the active evaluated batch lazy records are drawn from (nil
	// between batches, and throughout the scalar loop).
	batch *colBatch
	// surfaced counts the rows Next has returned: a cursor read at row n and
	// again at row n+1 was read on consecutive surfaced rows.
	surfaced int64
	// cpu is charged for what valueAt decodes and boxes (nil disables): the
	// sink the cursors' own Value calls charge.
	cpu *sim.CPUStats
	// everyRow marks a scan that surfaces every undeleted row (no predicate,
	// and not Spec.NoVec): outside a batch, a run may only decode ahead there.
	everyRow bool
}

// valueAt materializes cursor c's value for the record curPos points at,
// through the per-record cache shared by lazy records, predicate
// evaluation, and record-at-a-time eager materialization: each column of
// each record is deserialized at most once, however many consumers ask.
func (s *scanPos) valueAt(c *cursor) (any, error) {
	pos := s.curPos
	if c.cachedPos == pos {
		return c.cached, nil
	}
	if c.servedAt+1 == s.surfaced {
		c.streak++
	} else {
		c.streak = 1
	}
	c.servedAt = s.surfaced
	if behind := c.streak - 1; behind >= lazyRunStreak && pos >= c.runEnd {
		if err := s.startRun(c, min(behind, lazyRunRows)); err != nil {
			return nil, err
		}
	}
	var val any
	if pos < c.runEnd {
		// The cursor sits at the run's end: the run is the only source for the
		// rows inside it, read on every one of them or not.
		val = c.run[pos-c.runStart]
	} else if v := s.batchVec(c); v != nil {
		// A lazy record inside an evaluated batch: a column already decoded
		// for the batch serves from its vector — the cursor was advanced to
		// the batch end by the decode, so the vector is also the only correct
		// source for rows inside the batch. (Eager records never come this
		// way; assemble boxes whole columns at once.)
		val = v.Value(int(pos - s.batch.start))
		if s.cpu != nil && v.Kind != scan.VecAny {
			// Boxing on serve; VecAny rows were charged at decode.
			s.cpu.ValuesMaterialized++
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
func (s *scanPos) batchVec(c *cursor) *scan.Vector {
	if b := s.batch; b != nil && b.contains(s.curPos) {
		return b.vecAt(c.name)
	}
	return nil
}

// startRun decodes and boxes c's values for up to n rows from curPos on, all
// at once, so the Gets that follow are slice reads. A run covers adjacent rows
// the scan is known to surface next and stops at the first it is not: outside
// a batch (a scan with no predicate) before a deleted ordinal or at the
// directory's end, inside one before an unselected row or at the batch's end.
// The scalar predicate loop does not know its next row, and complex kinds gain
// nothing from a vector: both keep decoding one value per Get, as does a run
// that would cover this row alone.
//
// The values come from the batch's own vector when it decoded the column, else
// from the cursor through DecodeVector into a scratch vector marked Boxed —
// which charges what Value charges, value for value — and Vector.Box carves
// them out of one arena per run. What a run charges it charges when it is
// built: read to its end it has cost what the value-at-a-time loop costs, and
// a map function that drops the column mid-run has paid for the rest.
func (s *scanPos) startRun(c *cursor, n int) error {
	kind := colfile.VecKindOf(c.schema)
	dec, ok := c.r.(colfile.VectorDecoder)
	if !ok || kind == scan.VecAny {
		return nil
	}
	pos := s.curPos
	end := pos + int64(n)
	b := s.batch
	switch {
	case b != nil && b.contains(pos):
		end = min(end, b.end)
		for e := pos + 1; e < end; e++ {
			if !b.sel.Test(int(e - b.start)) {
				end = e
				break
			}
		}
	case s.everyRow:
		end = min(end, s.total)
		for e := pos + 1; e < end; e++ {
			if s.dels.has(e) {
				end = e
				break
			}
		}
	default:
		return nil
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
	if v := s.batchVec(c); v != nil {
		lo := int(pos - b.start)
		v.BoxRange(lo, lo+n, c.run)
		if s.cpu != nil {
			s.cpu.ValuesMaterialized += int64(n)
		}
	} else {
		v := vecScratch.Get(kind, n)
		v.Boxed = true
		err := dec.DecodeVector(pos, end, v, s.cpu)
		if err == nil {
			v.Box(nil, c.run, 1)
		}
		vecScratch.Put(v)
		if err != nil {
			return fmt.Errorf("core: column %q run decode [%d,%d): %w", c.name, pos, end, err)
		}
	}
	c.runStart, c.runEnd = pos, end
	return nil
}
