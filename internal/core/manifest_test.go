package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"colmr/internal/hdfs"
	"colmr/internal/race"
	"colmr/internal/scan"
	"colmr/internal/sim"
)

// newDelSet returns the set of ordinals, sorting them in place.
func newDelSet(ordinals []int64) *DelSet { return (*DelSet)(nil).Union(ordinals) }

// layoutModel is the test's own account of a streaming layout: partitions
// in scan order, each with its deleted ordinals as a set.
type layoutModel struct {
	parts   []modelPart
	retired []string
	next    int // next partition name
}

type modelPart struct {
	dir     string
	records int64
	deleted map[int64]bool
}

func (m *layoutModel) manifest(gen int64) *Manifest {
	out := &Manifest{Generation: gen, Retired: slices.Clone(m.retired)}
	for _, p := range m.parts {
		var ords []int64
		for o := range p.deleted {
			ords = append(ords, o)
		}
		out.Partitions = append(out.Partitions, ManifestPartition{Dir: p.dir, Records: p.records, Deletes: newDelSet(ords)})
	}
	return out
}

// appendParts adds n fresh partitions at the end of the scan order.
func (m *layoutModel) appendParts(rng *rand.Rand, e *ManifestEdit, n int) {
	for range n {
		p := modelPart{dir: fmt.Sprintf("dt=%d/seq-%d", m.next/4, m.next), records: 1 + rng.Int63n(300), deleted: map[int64]bool{}}
		m.next++
		m.parts = append(m.parts, p)
		e.Append = append(e.Append, ManifestPartition{Dir: p.dir, Records: p.records})
	}
}

// deleteSome supersedes up to n live rows, clustered sometimes, and records
// them in e by partition.
func (m *layoutModel) deleteSome(rng *rand.Rand, e *ManifestEdit, n int) {
	added := map[int][]int64{}
	for range n {
		i := rng.Intn(len(m.parts))
		p := &m.parts[i]
		o := rng.Int63n(p.records)
		for k := int64(0); k < 1+rng.Int63n(4) && o+k < p.records; k++ {
			if !p.deleted[o+k] {
				p.deleted[o+k] = true
				added[i] = append(added[i], o+k)
			}
		}
	}
	for i := range m.parts {
		if ords := added[i]; len(ords) > 0 {
			e.Deletes = append(e.Deletes, PartitionDeletes{Partition: i, Runs: newDelSet(ords).Runs()})
		}
	}
}

// retireSome retires a random subset of partitions, as compaction does.
func (m *layoutModel) retireSome(rng *rand.Rand, e *ManifestEdit) {
	kept := m.parts[:0:0]
	for i, p := range m.parts {
		if len(m.parts)-len(e.Retire) > 1 && rng.Intn(3) == 0 {
			e.Retire = append(e.Retire, i)
			m.retired = append(m.retired, p.dir)
			continue
		}
		kept = append(kept, p)
	}
	m.parts = kept
}

// TestManifestLogReplaysLayouts drives random commits — flushes, compactions,
// forced checkpoints — through a ManifestLog and reads every generation back:
// the reader's layout is the model's, byte for byte once re-encoded, and the
// edits a reader replays never outweigh their checkpoint. The test drives
// two seeds' commits; the benchmark of the same name four.
func TestManifestLogReplaysLayouts(t *testing.T) {
	t.Parallel()
	checkManifestLogReplaysLayouts(t, 2)
}

func BenchmarkManifestLogReplaysLayouts(b *testing.B) {
	for range b.N {
		checkManifestLogReplaysLayouts(b, 4)
	}
}

func checkManifestLogReplaysLayouts(t testing.TB, seeds int64) {
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fs := hdfs.New(sim.SingleNode(), 1)
		log := NewManifestLog(fs, "/ds")
		var m layoutModel
		sizes := map[int64]int{}        // generation -> record bytes
		checkpoint := map[int64]int64{} // generation -> its checkpoint
		var ckpts int
		for step := 0; step < 300; step++ {
			e := &ManifestEdit{}
			switch op := rng.Intn(10); {
			case len(m.parts) == 0 || op < 6:
				m.appendParts(rng, e, 1+rng.Intn(2))
				m.deleteSome(rng, e, rng.Intn(20))
			case op < 8:
				m.retireSome(rng, e)
				m.appendParts(rng, e, 1+rng.Intn(3))
			case op < 9:
				m.deleteSome(rng, e, rng.Intn(5))
			default:
				e = nil // a forced checkpoint, as GC commits
			}
			wrote, err := log.Commit(e, m.manifest)
			if err != nil {
				t.Fatal(err)
			}
			gen := log.Generation()
			data, err := fs.ReadFile(manifestPath("/ds", gen))
			if err != nil {
				t.Fatal(err)
			}
			sizes[gen] = len(data)
			if wrote {
				ckpts++
				checkpoint[gen] = gen
			} else {
				checkpoint[gen] = checkpoint[gen-1]
				var replayed int
				for g := checkpoint[gen] + 1; g <= gen; g++ {
					replayed += sizes[g]
				}
				if c := sizes[checkpoint[gen]]; replayed > c {
					t.Fatalf("seed %d gen %d: %d bytes of edits over a %d-byte checkpoint", seed, gen, replayed, c)
				}
			}
			got, ok, err := ReadManifest(fs, "/ds")
			if err != nil || !ok {
				t.Fatalf("seed %d gen %d: ReadManifest: %v %v", seed, gen, ok, err)
			}
			if g, w := appendCheckpoint(nil, got), appendCheckpoint(nil, m.manifest(gen)); !bytes.Equal(g, w) {
				t.Fatalf("seed %d gen %d: the replayed layout differs from the model\n got %+v\nwant %+v", seed, gen, got, m.manifest(gen))
			}
		}
		if ckpts < 3 || ckpts > 150 {
			t.Errorf("seed %d: %d of 300 commits were checkpoints", seed, ckpts)
		}
	}
}

// TestManifestRecordsReencode: every record a ManifestLog writes decodes to
// a value that encodes to the same bytes.
func TestManifestRecordsReencode(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var m layoutModel
	for gen := int64(1); gen <= 40; gen++ {
		e := &ManifestEdit{Generation: gen, Checkpoint: 1}
		m.appendParts(rng, e, 2)
		m.deleteSome(rng, e, 30)
		if gen%5 == 0 {
			m.retireSome(rng, e)
		}
		recs := [][]byte{appendCheckpoint(nil, m.manifest(gen))}
		if gen > 1 {
			recs = append(recs, appendEdit(nil, e))
		}
		for _, rec := range recs {
			ck, ed, err := decodeRecord(rec)
			if err != nil {
				t.Fatalf("gen %d: %v", gen, err)
			}
			if again := reencode(ck, ed); !bytes.Equal(again, rec) {
				t.Fatalf("gen %d: re-encoded %x\nwant %x", gen, again, rec)
			}
		}
	}
}

func reencode(m *Manifest, e *ManifestEdit) []byte {
	if m != nil {
		return appendCheckpoint(nil, m)
	}
	return appendEdit(nil, e)
}

// TestManifestTornRecordFallsBack: an empty or short head record is a commit
// that never finished — the reader takes the generation before it — while a
// full-length record whose checksum fails is an error naming the file.
func TestManifestTornRecordFallsBack(t *testing.T) {
	fs := hdfs.New(sim.SingleNode(), 1)
	log := NewManifestLog(fs, "/ds")
	var m layoutModel
	rng := rand.New(rand.NewSource(3))
	for range 3 {
		e := &ManifestEdit{}
		m.appendParts(rng, e, 2)
		m.deleteSome(rng, e, 10)
		if _, err := log.Commit(e, m.manifest); err != nil {
			t.Fatal(err)
		}
	}
	want, _, err := ReadManifest(fs, "/ds")
	if err != nil {
		t.Fatal(err)
	}
	e := &ManifestEdit{Generation: 4, Checkpoint: 1}
	m.appendParts(rng, e, 1)
	rec := appendEdit(nil, e)
	head := manifestPath("/ds", 4)
	for _, n := range []int{0, 1, len(rec) / 2, len(rec) - 1} {
		_ = fs.Remove(head)
		if err := fs.WriteFile(head, rec[:n], hdfs.AnyNode); err != nil {
			t.Fatal(err)
		}
		got, _, err := ReadManifest(fs, "/ds")
		if err != nil || got.Generation != 3 || !bytes.Equal(appendCheckpoint(nil, got), appendCheckpoint(nil, want)) {
			t.Errorf("a %d-byte head record of %d: read generation %v, %v; want generation 3", n, len(rec), got, err)
		}
	}
	for _, at := range []int{0, 4, 5, len(rec) / 2, len(rec) - 1} {
		bad := slices.Clone(rec)
		bad[at] ^= 0x10
		_ = fs.Remove(head)
		if err := fs.WriteFile(head, bad, hdfs.AnyNode); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadManifest(fs, "/ds"); err == nil || !strings.Contains(err.Error(), head) {
			t.Errorf("byte %d of %d flipped: ReadManifest returned %v, want an error naming %s", at, len(rec), err, head)
		}
	}
	// A middle record of the chain gone bad is corruption, not a fallback.
	_ = fs.Remove(head)
	mid := manifestPath("/ds", 2)
	data, _ := fs.ReadFile(mid)
	_ = fs.Remove(mid)
	if err := fs.WriteFile(mid, data[:len(data)-1], hdfs.AnyNode); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadManifest(fs, "/ds"); err == nil {
		t.Error("a torn record inside an edit chain read as a layout")
	}
}

// TestManifestLogAfterFailedCommit: a commit whose write fails leaves no
// record behind and commits nothing; a record a crashed commit left at the
// next generation is replaced, not a reason for every later commit to fail.
func TestManifestLogAfterFailedCommit(t *testing.T) {
	fs := hdfs.New(sim.SingleNode(), 1)
	log := NewManifestLog(fs, "/ds")
	var m layoutModel
	rng := rand.New(rand.NewSource(4))
	commit := func() error {
		e := &ManifestEdit{}
		m.appendParts(rng, e, 1)
		m.deleteSome(rng, e, 5)
		_, err := log.Commit(e, m.manifest)
		return err
	}
	for range 2 {
		if err := commit(); err != nil {
			t.Fatal(err)
		}
	}
	for k := 1; k <= 4; k++ { // WriteFile, Create, Write, Close
		fs.FailNth(k)
		err := commit()
		fs.FailNth(0)
		if !errors.Is(err, hdfs.ErrInjected) || log.Generation() != 2 || fs.Exists(manifestPath("/ds", 3)) {
			t.Fatalf("call %d failed: Commit returned %v at generation %d, record 3 left: %v", k, err, log.Generation(), fs.Exists(manifestPath("/ds", 3)))
		}
	}
	// A crash mid-write leaves half a record that no cleanup removed.
	if err := fs.WriteFile(manifestPath("/ds", 3), []byte("CFM1E"), hdfs.AnyNode); err != nil {
		t.Fatal(err)
	}
	if err := commit(); err != nil {
		t.Fatalf("the commit after a crashed one: %v", err)
	}
	got, _, err := ReadManifest(fs, "/ds")
	if err != nil || got.Generation != 3 || !bytes.Equal(appendCheckpoint(nil, got), appendCheckpoint(nil, m.manifest(3))) {
		t.Fatalf("after the recovered commit ReadManifest gives %+v, %v", got, err)
	}
}

// TestDelSetMatchesMap: has and mask agree with a plain set over random
// sets, ranges and selections.
func TestDelSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := rng.Int63n(3000) + 1
		set := map[int64]bool{}
		var ords []int64
		for k := rng.Intn(400); k > 0; k-- {
			o := rng.Int63n(n)
			for r := rng.Int63n(5); r >= 0 && o < n; r, o = r-1, o+1 {
				set[o] = true
				ords = append(ords, o, o) // duplicates too
			}
		}
		d := newDelSet(ords)
		var held int64
		for _, r := range d.Runs() {
			held += r.End - r.Start
		}
		if held != int64(len(set)) {
			t.Fatalf("trial %d: the runs hold %d ordinals, want %d", trial, held, len(set))
		}
		for p := int64(-2); p < n+2; p++ {
			if d.has(p) != set[p] {
				t.Fatalf("trial %d: has(%d) = %v", trial, p, d.has(p))
			}
		}
		start := rng.Int63n(n)
		end := min(n, start+1+rng.Int63n(1100))
		sel := scan.NewEmptySelection(int(end - start))
		want := scan.NewEmptySelection(int(end - start))
		var cleared int64
		for i := 0; i < int(end-start); i++ {
			if rng.Intn(4) > 0 {
				sel.Set(i)
				if set[start+int64(i)] {
					cleared++
				} else {
					want.Set(i)
				}
			}
		}
		if got := d.mask(sel, start, end); got != cleared {
			t.Fatalf("trial %d: mask cleared %d, want %d", trial, got, cleared)
		}
		for i := 0; i < int(end-start); i++ {
			if sel.Test(i) != want.Test(i) {
				t.Fatalf("trial %d: row %d of [%d,%d) is %v after mask", trial, start+int64(i), start, end, sel.Test(i))
			}
		}
	}
}

// FuzzManifest: any bytes decode to a record or an error, never a panic; a
// record that decodes re-encodes to the same bytes; a checkpoint is a
// layout, and an edit applies to the seed layout or errors. Inputs are tried
// as they are and with their trailer made valid, so that mutations reach
// past the checksum. The seeds are a checkpoint and edits an ingest wrote.
func FuzzManifest(f *testing.F) {
	seeds, err := filepath.Glob("testdata/manifest/*")
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed records: %v", err)
	}
	var base *Manifest
	for _, p := range seeds {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		m, _, err := decodeRecord(data)
		if err != nil {
			f.Fatalf("%s: %v", p, err)
		}
		if m != nil {
			base = m
		}
		f.Add(data)
	}
	if base == nil {
		f.Fatal("no checkpoint among the seeds")
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sealed := sealRecord(slices.Clone(data[:max(0, len(data)-manifestTrailer)]), 0)
		for _, rec := range [][]byte{data, sealed} {
			m, e, err := decodeRecord(rec)
			if err != nil {
				continue
			}
			if again := reencode(m, e); !bytes.Equal(again, rec) {
				t.Fatalf("re-encoded %x\nfrom %x", again, rec)
			}
			if e != nil {
				b := *base
				b.Generation = e.Generation - 1
				r := newReplay(&b)
				if err := r.apply(e); err == nil && r.manifest().Generation != e.Generation {
					t.Fatalf("applied edit %d gave generation %d", e.Generation, r.manifest().Generation)
				}
			}
		}
	})
}

// commitBench is BenchmarkCommit's dataset, n partitions of a million
// records in steady state: each commit retires the oldest partition, as
// compaction does, appends one, as a flush does, and supersedes two rows in
// each of 32 partitions; every n commits a GC checkpoint clears the retired
// list. The partitions live in a ring, the oldest at head.
type commitBench struct {
	fs      *hdfs.FileSystem
	log     *ManifestLog
	head    int
	dirs    []string
	dels    []*DelSet // as of the last checkpoint
	deleted [][]int64 // since
	retired []string
	rng     *rand.Rand
	edit    ManifestEdit
	runs    []DelRun
	touched []int
	made    int // partitions made
}

func newCommitBench(n int) *commitBench {
	c := &commitBench{fs: hdfs.New(sim.SingleNode(), 1), rng: rand.New(rand.NewSource(int64(n)))}
	c.log = NewManifestLog(c.fs, "/ds")
	c.dirs, c.dels, c.deleted = make([]string, n), make([]*DelSet, n), make([][]int64, n)
	for i := range c.dirs {
		c.dirs[i] = c.newDir()
	}
	return c
}

func (c *commitBench) newDir() string {
	c.made++
	return fmt.Sprintf("dt=%d/seq-%d", c.made/8, c.made)
}

// slot returns the ring slot of the partition at scan position k.
func (c *commitBench) slot(k int) int { return (c.head + k) % len(c.dirs) }

// checkpoint folds each partition's deletes into its set, as the ingester
// does.
func (c *commitBench) checkpoint(gen int64) *Manifest {
	m := &Manifest{Generation: gen, Retired: c.retired, Partitions: make([]ManifestPartition, len(c.dirs))}
	for k := range m.Partitions {
		i := c.slot(k)
		c.dels[i], c.deleted[i] = c.dels[i].Union(c.deleted[i]), c.deleted[i][:0]
		m.Partitions[k] = ManifestPartition{Dir: c.dirs[i], Records: 1 << 20, Deletes: c.dels[i]}
	}
	return m
}

func (c *commitBench) commit(tb testing.TB) {
	e := &c.edit
	if c.log.Generation() > 0 {
		old := c.head
		c.retired = append(c.retired, c.dirs[old])
		c.head = (c.head + 1) % len(c.dirs)
		c.dirs[old], c.dels[old], c.deleted[old] = c.newDir(), nil, c.deleted[old][:0]
		e.Retire, e.Append = append(e.Retire[:0], 0), append(e.Append[:0], ManifestPartition{Dir: c.dirs[old], Records: 1 << 20})
	}
	c.touched = c.touched[:0]
	for len(c.touched) < 32 {
		if k := c.rng.Intn(len(c.dirs)); !slices.Contains(c.touched, k) {
			c.touched = append(c.touched, k)
		}
	}
	slices.Sort(c.touched)
	e.Deletes, c.runs = e.Deletes[:0], c.runs[:0]
	for _, k := range c.touched {
		i := c.slot(k)
		from := len(c.deleted[i])
		c.deleted[i] = append(c.deleted[i], c.rng.Int63n(1<<20), c.rng.Int63n(1<<20))
		added := c.deleted[i][from:]
		slices.Sort(added)
		r := len(c.runs)
		c.runs = AppendDelRuns(c.runs, added)
		e.Deletes = append(e.Deletes, PartitionDeletes{Partition: k, Runs: c.runs[r:len(c.runs):len(c.runs)]})
	}
	if _, err := c.log.Commit(e, c.checkpoint); err != nil {
		tb.Fatal(err)
	}
	if c.log.Generation()%int64(len(c.dirs)) == 0 {
		c.retired = c.retired[:0]
		if _, err := c.log.Commit(nil, c.checkpoint); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkCommit is one flush commit's record — a fixed-size edit, and the
// checkpoints its share of the rule amortizes — encoded and written, at 10²,
// 10³ and 10⁴ partitions. The ns/commit of the three stays within 2×: a
// commit costs its change, not the layout.
func BenchmarkCommit(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("partitions=%d", n), func(b *testing.B) {
			c := newCommitBench(n)
			for range 2 * n { // settle past the first checkpoints
				c.commit(b)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				c.commit(b)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/commit")
		})
	}
}

// TestCommitAllocCeiling: a commit allocates the same ~35 objects at 10² and
// 10³ partitions — its record's file, name and block, the runs of its
// deletes, its share of the checkpoints — where rewriting every dirty
// partition's delete file and the whole manifest took hundreds. The
// benchmark of the same name holds 10² and 10⁴ partitions to the ceiling.
func TestCommitAllocCeiling(t *testing.T) { checkCommitAllocCeiling(t, 100, 1000) }

func BenchmarkCommitAllocCeiling(b *testing.B) {
	for range b.N {
		checkCommitAllocCeiling(b, 100, 10000)
	}
}

func checkCommitAllocCeiling(t testing.TB, partitions ...int) {
	for _, n := range partitions {
		c := newCommitBench(n)
		for range 2 * n {
			c.commit(t)
		}
		allocs := testing.AllocsPerRun(2*n, func() { c.commit(t) })
		race.AllocCeiling(t, fmt.Sprintf("a commit over %d partitions", n), allocs, 48)
	}
}

// delSetFor builds a set of n ordinals of which the 50 in [1<<20, 1<<20 +
// 1 024) are the same whatever n is; the rest lie outside the masked range.
func delSetFor(n int) *DelSet {
	rng := rand.New(rand.NewSource(1))
	ords := make([]int64, 0, n)
	for len(ords) < 50 {
		ords = append(ords, 1<<20+rng.Int63n(1024))
	}
	slices.Sort(ords)
	ords = slices.Compact(ords)
	for len(ords) < n {
		if o := rng.Int63n(1 << 24); o < 1<<20 || o >= 1<<20+1024 {
			ords = append(ords, o)
		}
	}
	return newDelSet(ords)
}

// BenchmarkDelSetMask masks a 1 024-row batch against sets of 10² and 10⁵
// ordinals with the same ordinals inside the batch: the two stay within 2×,
// as mask touches only the runs that overlap the batch.
func BenchmarkDelSetMask(b *testing.B) {
	for _, n := range []int{100, 100000} {
		b.Run(fmt.Sprintf("ordinals=%d", n), func(b *testing.B) {
			d, sel := delSetFor(n), scan.NewSelection(1024)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				for i := range 1024 {
					sel.Set(i)
				}
				d.mask(sel, 1<<20, 1<<20+1024)
			}
		})
	}
}

// TestDelSetMaskAllocCeiling: masking allocates nothing.
func TestDelSetMaskAllocCeiling(t *testing.T) {
	d, sel := delSetFor(100000), scan.NewSelection(1024)
	allocs := testing.AllocsPerRun(100, func() {
		for i := range 1024 {
			sel.Set(i)
		}
		d.mask(sel, 1<<20, 1<<20+1024)
	})
	race.AllocCeiling(t, "masking a batch", allocs, 0)
}
