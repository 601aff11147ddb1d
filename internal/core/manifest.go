package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"strconv"
	"strings"

	"colmr/internal/hdfs"
)

// Generation-stamped dataset manifests (the streaming-ingest commit
// protocol). A bulk-loaded dataset is immutable, so its layout is its
// directory listing. A dataset written by the ingest subsystem changes
// shape while scans are running — flushes add fresh partitions and delete
// ordinals, compaction replaces runs of partitions — so its layout is
// published through commit records instead:
//
//   - every commit writes one immutable file dataset/_manifest.<N> with a
//     single Write, and nothing else; N is the generation;
//   - a record is a checkpoint (the whole layout: partitions in scan order
//     with their record counts and deleted ordinals, plus the directories
//     retired by compaction, kept on disk until GC so a scan planned
//     against an older generation finishes against intact files) or an
//     edit (what changed since N-1, over a named checkpoint). A commit
//     writes a checkpoint once the edits since the last one would add up to
//     more bytes than it, so a commit costs what it changed, amortized, and
//     a reader replays at most twice a checkpoint's bytes;
//   - a record ends in its length and a CRC-32C. Readers take the highest N:
//     a short or empty record is torn — a racing or crashed commit — and the
//     reader falls back to N-1; a full-length record whose checksum fails is
//     corrupt, an error that names the file.
//
// The byte layout is specified in docs/FORMAT.md. The session caches need
// no commit hook for correctness: cache keys carry file generations, and
// deletes mask rows at the selection level without changing any column
// byte. Invalidation after compaction is purely a budget release for
// retired directories.

// ManifestPrefix names commit records within a dataset directory:
// generation N is the file ManifestPrefix + N.
const ManifestPrefix = "_manifest."

// manifestMagic opens every commit record.
const manifestMagic = "CFM1"

// Record kinds, the byte after the magic.
const (
	kindCheckpoint = 'C'
	kindEdit       = 'E'
)

// manifestTrailer is a record's closing total length and CRC-32C, both
// little-endian uint32s; the checksum covers every byte before it.
const manifestTrailer = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errTornRecord marks a record shorter than its trailer says: a commit that
// was still being written, or crashed mid-write.
var errTornRecord = errors.New("torn record")

// ManifestPartition is one partition of a manifest-published dataset.
type ManifestPartition struct {
	// Dir is the partition directory, relative to the dataset root
	// (e.g. "dt=300/seq-2" or "c1/s0").
	Dir string
	// Records is the partition's physical record count (deleted rows
	// included), recorded for scheduling and stats.
	Records int64
	// Deletes is the partition's superseded ordinals (nil: none). An edit's
	// appended partitions carry none; their deletes come as edit deletes.
	Deletes *DelSet
}

// Manifest is one published generation of a streaming dataset's layout, and
// the content of a checkpoint record.
type Manifest struct {
	Generation int64
	Partitions []ManifestPartition
	// Retired lists directories replaced by compaction and no longer part
	// of any live generation; they stay on disk until GC so in-flight scans
	// finish, then may be removed.
	Retired []string
}

// ManifestEdit is an edit record: generation Generation's change against
// Generation-1, over the checkpoint of generation Checkpoint. It applies in
// field order: Retire, then Append, then Deletes.
type ManifestEdit struct {
	Generation int64
	Checkpoint int64
	// Retire lists indices into N-1's partitions, ascending. Retired
	// partitions leave the scan order and their directories join Retired.
	Retire []int
	// Append lists partitions added at the end of the scan order.
	Append []ManifestPartition
	// Deletes lists ordinals added per partition, by index into the layout
	// after Retire and Append, ascending.
	Deletes []PartitionDeletes
}

// PartitionDeletes is one edit's new deleted ordinals of one partition.
type PartitionDeletes struct {
	Partition int
	Runs      []DelRun
}

// manifestPath returns the commit record path for a generation.
func manifestPath(dataset string, gen int64) string {
	return dataset + "/" + ManifestPrefix + strconv.FormatInt(gen, 10)
}

// appendCheckpoint appends m's checkpoint record to dst.
func appendCheckpoint(dst []byte, m *Manifest) []byte {
	start := len(dst)
	dst = append(dst, manifestMagic...)
	dst = append(dst, kindCheckpoint)
	dst = binary.AppendUvarint(dst, uint64(m.Generation))
	dst = binary.AppendUvarint(dst, uint64(len(m.Partitions)))
	for _, p := range m.Partitions {
		dst = appendString(dst, p.Dir)
		dst = binary.AppendUvarint(dst, uint64(p.Records))
		dst = appendRuns(dst, p.Deletes.Runs())
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.Retired)))
	for _, dir := range m.Retired {
		dst = appendString(dst, dir)
	}
	return sealRecord(dst, start)
}

// appendEdit appends e's edit record to dst.
func appendEdit(dst []byte, e *ManifestEdit) []byte {
	start := len(dst)
	dst = append(dst, manifestMagic...)
	dst = append(dst, kindEdit)
	dst = binary.AppendUvarint(dst, uint64(e.Generation))
	dst = binary.AppendUvarint(dst, uint64(e.Checkpoint))
	// Partition indices ascend: each is coded as its gap from the one
	// before (the first from -1), less one.
	dst = binary.AppendUvarint(dst, uint64(len(e.Retire)))
	prev := -1
	for _, idx := range e.Retire {
		dst = binary.AppendUvarint(dst, uint64(idx-prev-1))
		prev = idx
	}
	dst = binary.AppendUvarint(dst, uint64(len(e.Append)))
	for _, p := range e.Append {
		dst = appendString(dst, p.Dir)
		dst = binary.AppendUvarint(dst, uint64(p.Records))
	}
	dst = binary.AppendUvarint(dst, uint64(len(e.Deletes)))
	prev = -1
	for _, d := range e.Deletes {
		dst = binary.AppendUvarint(dst, uint64(d.Partition-prev-1))
		prev = d.Partition
		dst = appendRuns(dst, d.Runs)
	}
	return sealRecord(dst, start)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendRuns appends canonical runs as their count, then per run its gap
// from the previous run's end (the first from 0; later gaps less one, as
// runs never touch) and its length less one.
func appendRuns(dst []byte, runs []DelRun) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(runs)))
	var end int64
	for i, r := range runs {
		gap := r.Start - end
		if i > 0 {
			gap--
		}
		dst = binary.AppendUvarint(dst, uint64(gap))
		dst = binary.AppendUvarint(dst, uint64(r.End-r.Start-1))
		end = r.End
	}
	return dst
}

// sealRecord appends the trailer of the record that starts at dst[start].
func sealRecord(dst []byte, start int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(dst)-start+manifestTrailer))
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// decodeRecord parses one commit record into a checkpoint or an edit
// (exactly one is non-nil). A record shorter than its trailer claims fails
// with errTornRecord; any other failure is corruption.
func decodeRecord(data []byte) (*Manifest, *ManifestEdit, error) {
	if len(data) < len(manifestMagic)+1+manifestTrailer {
		return nil, nil, errTornRecord
	}
	n := len(data) - manifestTrailer
	if int64(binary.LittleEndian.Uint32(data[n:])) != int64(len(data)) {
		return nil, nil, errTornRecord
	}
	if crc32.Checksum(data[:n+4], castagnoli) != binary.LittleEndian.Uint32(data[n+4:]) {
		return nil, nil, errors.New("checksum mismatch")
	}
	if string(data[:len(manifestMagic)]) != manifestMagic {
		return nil, nil, fmt.Errorf("bad magic %q", data[:len(manifestMagic)])
	}
	d := recordDecoder{buf: data[len(manifestMagic)+1 : n]}
	kind := data[len(manifestMagic)]
	gen := d.int64()
	var m *Manifest
	var e *ManifestEdit
	switch kind {
	case kindCheckpoint:
		m = d.checkpoint(gen)
	case kindEdit:
		e = d.edit(gen)
	default:
		return nil, nil, fmt.Errorf("unknown record kind %#x", kind)
	}
	if d.err == nil && len(d.buf) > 0 {
		d.err = fmt.Errorf("%d bytes past the record body", len(d.buf))
	}
	if d.err == nil && gen < 1 {
		d.err = fmt.Errorf("generation %d", gen)
	}
	if d.err != nil {
		return nil, nil, d.err
	}
	return m, e, nil
}

// recordDecoder reads a record body; its first error sticks, and every read
// after it returns zero.
type recordDecoder struct {
	buf []byte
	err error
}

func (d *recordDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
	d.buf = nil
}

// uvarint reads one minimally encoded uvarint, so that a record that parses
// re-encodes to the same bytes.
func (d *recordDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 || (n > 1 && d.buf[n-1] == 0) {
		d.fail("malformed varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// int64 reads a uvarint that must fit an int64.
func (d *recordDecoder) int64() int64 {
	v := d.uvarint()
	if v > math.MaxInt64 {
		d.fail("value %d out of range", v)
		return 0
	}
	return int64(v)
}

// count reads an element count, each element taking at least size bytes.
func (d *recordDecoder) count(size int) int {
	v := d.uvarint()
	if v > uint64(len(d.buf)/size) {
		d.fail("count %d overruns the record", v)
		return 0
	}
	return int(v)
}

func (d *recordDecoder) string() string {
	n := d.count(1)
	if n == 0 {
		d.fail("empty name")
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

// runs reads a run list whose ordinals must all lie below limit.
func (d *recordDecoder) runs(limit int64) []DelRun {
	n := d.count(2)
	if n == 0 {
		return nil
	}
	runs := make([]DelRun, n)
	var end int64
	for i := range runs {
		gap, length := d.uvarint(), d.uvarint()
		room := uint64(limit - end)
		if i > 0 && gap < room {
			gap++
		}
		if gap >= room || length >= room-gap {
			d.fail("deleted ordinals past the partition's %d records", limit)
			return nil
		}
		runs[i] = DelRun{end + int64(gap), end + int64(gap+length+1)}
		end = runs[i].End
	}
	return runs
}

func (d *recordDecoder) checkpoint(gen int64) *Manifest {
	m := &Manifest{Generation: gen}
	if n := d.count(3); n > 0 {
		m.Partitions = make([]ManifestPartition, n)
	}
	for i := range m.Partitions {
		p := &m.Partitions[i]
		p.Dir, p.Records = d.string(), d.int64()
		if runs := d.runs(p.Records); runs != nil {
			p.Deletes = &DelSet{runs: runs}
		}
	}
	if n := d.count(2); n > 0 {
		m.Retired = make([]string, n)
	}
	for i := range m.Retired {
		m.Retired[i] = d.string()
	}
	return m
}

func (d *recordDecoder) edit(gen int64) *ManifestEdit {
	e := &ManifestEdit{Generation: gen, Checkpoint: d.int64()}
	if d.err == nil && (e.Checkpoint < 1 || e.Checkpoint >= gen) {
		d.fail("edit %d over checkpoint %d", gen, e.Checkpoint)
	}
	if n := d.count(1); n > 0 {
		e.Retire = make([]int, n)
	}
	prev := -1
	for i := range e.Retire {
		e.Retire[i] = d.index(prev)
		prev = e.Retire[i]
	}
	if n := d.count(3); n > 0 {
		e.Append = make([]ManifestPartition, n)
	}
	for i := range e.Append {
		e.Append[i].Dir, e.Append[i].Records = d.string(), d.int64()
	}
	if n := d.count(2); n > 0 {
		e.Deletes = make([]PartitionDeletes, n)
	}
	prev = -1
	for i := range e.Deletes {
		e.Deletes[i].Partition = d.index(prev)
		e.Deletes[i].Runs = d.runs(math.MaxInt64)
		prev = e.Deletes[i].Partition
	}
	return e
}

// index reads the partition index that follows prev (see appendEdit).
func (d *recordDecoder) index(prev int) int {
	gap := d.uvarint()
	if gap > math.MaxInt32 || int64(prev)+1+int64(gap) > math.MaxInt32 {
		d.fail("partition index out of range")
		return 0
	}
	return prev + 1 + int(gap)
}

// replay accumulates edits over a checkpoint. Added runs collect per
// partition and are merged into the checkpoint's sets once, at the end, so a
// chain of edits costs its bytes, not its length times the layout.
type replay struct {
	gen     int64
	parts   []replayPart
	retired []string
}

type replayPart struct {
	ManifestPartition
	added []DelRun
}

func newReplay(m *Manifest) *replay {
	r := &replay{gen: m.Generation, retired: slices.Clone(m.Retired)}
	r.parts = make([]replayPart, len(m.Partitions))
	for i, p := range m.Partitions {
		r.parts[i].ManifestPartition = p
	}
	return r
}

func (r *replay) apply(e *ManifestEdit) error {
	if e.Generation != r.gen+1 {
		return fmt.Errorf("edit of generation %d over generation %d", e.Generation, r.gen)
	}
	if len(e.Retire) > 0 {
		if e.Retire[len(e.Retire)-1] >= len(r.parts) {
			return fmt.Errorf("edit retires partition %d of %d", e.Retire[len(e.Retire)-1], len(r.parts))
		}
		kept := r.parts[:0:0]
		k := 0
		for i, p := range r.parts {
			if k < len(e.Retire) && e.Retire[k] == i {
				r.retired = append(r.retired, p.Dir)
				k++
				continue
			}
			kept = append(kept, p)
		}
		r.parts = kept
	}
	for _, p := range e.Append {
		r.parts = append(r.parts, replayPart{ManifestPartition: ManifestPartition{Dir: p.Dir, Records: p.Records}})
	}
	for _, d := range e.Deletes {
		if d.Partition >= len(r.parts) {
			return fmt.Errorf("edit deletes from partition %d of %d", d.Partition, len(r.parts))
		}
		p := &r.parts[d.Partition]
		if n := len(d.Runs); n > 0 && d.Runs[n-1].End > p.Records {
			return fmt.Errorf("edit deletes ordinal %d of %s's %d records", d.Runs[n-1].End-1, p.Dir, p.Records)
		}
		p.added = append(p.added, d.Runs...)
	}
	r.gen = e.Generation
	return nil
}

func (r *replay) manifest() *Manifest {
	m := &Manifest{Generation: r.gen, Retired: r.retired}
	m.Partitions = make([]ManifestPartition, len(r.parts))
	for i, p := range r.parts {
		m.Partitions[i] = p.ManifestPartition
		if len(p.added) > 0 {
			m.Partitions[i].Deletes = &DelSet{runs: unionRuns(p.Deletes.Runs(), p.added)}
		}
	}
	return m
}

// ManifestLog is the writing end of a dataset's commit records: it numbers
// the generations and keeps the checkpoint rule. It is not safe for
// concurrent use.
type ManifestLog struct {
	fs      *hdfs.FileSystem
	dataset string
	gen     int64 // the committed generation (0: none yet)
	ckpt    int64 // the latest checkpoint's generation
	// ckptBytes is that checkpoint's size, editBytes the size of the edits
	// committed over it.
	ckptBytes, editBytes int
	// failed makes the next commit a checkpoint: a commit failed, and what
	// its caller prepared for it need not match what is committed.
	failed bool
	rec    []byte // record scratch, reused across commits
}

// NewManifestLog returns the log of a dataset that has no commit yet.
func NewManifestLog(fs *hdfs.FileSystem, dataset string) *ManifestLog {
	return &ManifestLog{fs: fs, dataset: dataset}
}

// Generation returns the committed generation (0 before the first commit).
func (l *ManifestLog) Generation() int64 { return l.gen }

// Failed reports whether the last commit failed.
func (l *ManifestLog) Failed() bool { return l.failed }

// Settled reports whether the committed generation is a checkpoint and no
// commit has failed since: a reader reads one record.
func (l *ManifestLog) Settled() bool { return l.gen > 0 && l.ckpt == l.gen && !l.failed }

// Commit publishes the next generation as one record: e, with its
// Generation and Checkpoint filled in here, unless e is nil (the change
// needs a checkpoint), this is the first commit, the last one failed, or
// the edits since the last checkpoint would then outweigh it — in those
// cases checkpoint supplies the whole layout of the generation it is
// given. It reports whether it wrote a checkpoint. On an error nothing is
// committed.
func (l *ManifestLog) Commit(e *ManifestEdit, checkpoint func(gen int64) *Manifest) (wroteCheckpoint bool, err error) {
	gen := l.gen + 1
	ckpt := e == nil || l.gen == 0 || l.failed
	rec := l.rec[:0]
	if !ckpt {
		e.Generation, e.Checkpoint = gen, l.ckpt
		rec = appendEdit(rec, e)
		ckpt = l.editBytes+len(rec) > l.ckptBytes
	}
	if ckpt {
		rec = appendCheckpoint(rec[:0], checkpoint(gen))
	}
	l.rec = rec
	if err := writeManifestRecord(l.fs, l.dataset, gen, rec); err != nil {
		l.failed = true
		return ckpt, err
	}
	l.gen, l.failed = gen, false
	if ckpt {
		l.ckpt, l.ckptBytes, l.editBytes = gen, len(rec), 0
	} else {
		l.editBytes += len(rec)
	}
	return ckpt, nil
}

// writeManifestRecord publishes rec, an encoded commit record, as
// generation gen of the dataset, in one WriteFile. The generation's file can
// exist only as what a failed commit left behind, so it is removed first; a
// write that fails removes what it wrote, so that no reader takes it for a
// committed generation.
func writeManifestRecord(fs *hdfs.FileSystem, dataset string, gen int64, rec []byte) error {
	p := manifestPath(dataset, gen)
	if fs.Exists(p) {
		if err := fs.Remove(p); err != nil {
			return err
		}
	}
	if err := fs.WriteFile(p, rec, hdfs.AnyNode); err != nil {
		if fs.Exists(p) {
			_ = fs.Remove(p) // the write's error is the one to report
		}
		return err
	}
	return nil
}

// manifestReadAttempts bounds how often ReadManifest restarts when a record
// it listed is removed under it (a GC landing mid-read).
const manifestReadAttempts = 3

// ReadManifest returns the dataset's committed layout: its highest
// generation that is not torn, replayed from that record's checkpoint. ok is
// false when the dataset publishes no manifest (a bulk-loaded dataset). Like
// schema files, commit records are uncharged metadata.
func ReadManifest(fs *hdfs.FileSystem, dataset string) (*Manifest, bool, error) {
	for attempt := 1; ; attempt++ {
		m, ok, err := readManifest(fs, dataset)
		if errors.Is(err, errRecordGone) && attempt < manifestReadAttempts {
			continue
		}
		return m, ok, err
	}
}

// errRecordGone marks a listed record that could not be opened any more.
var errRecordGone = errors.New("record removed while reading")

func readManifest(fs *hdfs.FileSystem, dataset string) (*Manifest, bool, error) {
	infos, err := fs.List(dataset)
	if err != nil {
		return nil, false, err
	}
	var gens []int64
	for _, fi := range infos {
		if fi.IsDir || !strings.HasPrefix(fi.Name(), ManifestPrefix) {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimPrefix(fi.Name(), ManifestPrefix), 10, 64)
		if err != nil {
			continue
		}
		gens = append(gens, n)
	}
	if len(gens) == 0 {
		return nil, false, nil
	}
	slices.Sort(gens)
	for i := len(gens) - 1; i >= 0; i-- {
		m, e, err := readRecord(fs, dataset, gens[i])
		if errors.Is(err, errTornRecord) {
			continue // a racing or crashed commit: fall back to N-1
		}
		if err != nil {
			return nil, false, err
		}
		if m == nil {
			if m, err = replayEdits(fs, dataset, e); err != nil {
				return nil, false, err
			}
		}
		return m, true, nil
	}
	return nil, false, fmt.Errorf("core: %s has commit records but every one is torn", dataset)
}

// replayEdits resolves head, an edit, from its checkpoint: every record of
// the chain must be there, whole.
func replayEdits(fs *hdfs.FileSystem, dataset string, head *ManifestEdit) (*Manifest, error) {
	base, _, err := readRecord(fs, dataset, head.Checkpoint)
	if err == nil && base == nil {
		err = fmt.Errorf("core: %s: an edit, where edit %d names a checkpoint", manifestPath(dataset, head.Checkpoint), head.Generation)
	}
	if err != nil {
		return nil, err
	}
	r := newReplay(base)
	for gen := head.Checkpoint + 1; gen <= head.Generation; gen++ {
		e := head
		if gen < head.Generation {
			var m *Manifest
			if m, e, err = readRecord(fs, dataset, gen); err == nil && (m != nil || e.Checkpoint != head.Checkpoint) {
				err = fmt.Errorf("core: %s does not continue the edits over checkpoint %d", manifestPath(dataset, gen), head.Checkpoint)
			}
			if err != nil {
				return nil, err
			}
		}
		if err := r.apply(e); err != nil {
			return nil, fmt.Errorf("core: %s: %w", manifestPath(dataset, gen), err)
		}
	}
	return r.manifest(), nil
}

// readRecord reads and decodes generation gen's record, checking that it is
// the generation its name says. Only errTornRecord and errRecordGone come
// back unwrapped.
func readRecord(fs *hdfs.FileSystem, dataset string, gen int64) (*Manifest, *ManifestEdit, error) {
	p := manifestPath(dataset, gen)
	data, err := fs.ReadFile(p)
	if err != nil {
		if !fs.Exists(p) {
			return nil, nil, errRecordGone
		}
		return nil, nil, fmt.Errorf("core: reading %s: %w", p, err)
	}
	m, e, err := decodeRecord(data)
	if errors.Is(err, errTornRecord) {
		return nil, nil, err
	}
	if err == nil {
		if got := recordGeneration(m, e); got != gen {
			err = fmt.Errorf("record of generation %d", got)
		}
	}
	if err != nil {
		return nil, nil, fmt.Errorf("core: corrupt commit record %s: %w", p, err)
	}
	return m, e, nil
}

func recordGeneration(m *Manifest, e *ManifestEdit) int64 {
	if m != nil {
		return m.Generation
	}
	return e.Generation
}

// dsLayout is one dataset's layout snapshot taken for one planning
// operation: split-directories in scan order, with each one's delete set
// (nil when none). Every directory and delete decision of a plan comes from
// one snapshot, so a batch member can never mix generations.
type dsLayout struct {
	dirs []string
	dels []*DelSet
}

// datasetLayout resolves a dataset's current layout: the manifest when one
// is published, else the plain split-directory listing (bulk-loaded
// datasets have no deletes and list in numeric order).
func datasetLayout(fs *hdfs.FileSystem, dataset string) (dsLayout, error) {
	m, ok, err := ReadManifest(fs, dataset)
	if err != nil {
		return dsLayout{}, err
	}
	if !ok {
		dirs, err := listSplitDirs(fs, dataset)
		if err != nil {
			return dsLayout{}, err
		}
		return dsLayout{dirs: dirs, dels: make([]*DelSet, len(dirs))}, nil
	}
	if len(m.Partitions) == 0 {
		return dsLayout{}, fmt.Errorf("core: %s manifest generation %d lists no partitions", dataset, m.Generation)
	}
	l := dsLayout{
		dirs: make([]string, len(m.Partitions)),
		dels: make([]*DelSet, len(m.Partitions)),
	}
	for i, p := range m.Partitions {
		l.dirs[i] = dataset + "/" + p.Dir
		l.dels[i] = p.Deletes
	}
	return l, nil
}

// layoutCached resolves a dataset's layout through a per-planning-operation
// cache, so the members of one shared batch plan against one snapshot even
// if a commit lands between their planning passes.
func layoutCached(fs *hdfs.FileSystem, dataset string, cache map[string]dsLayout) (dsLayout, error) {
	if cache != nil {
		if l, ok := cache[dataset]; ok {
			return l, nil
		}
	}
	l, err := datasetLayout(fs, dataset)
	if err != nil {
		return l, err
	}
	if cache != nil {
		cache[dataset] = l
	}
	return l, nil
}

// isFreshPartition reports whether dir is a not-yet-compacted ingest
// partition (a seq-N split-directory), for the merge-on-read counter.
func isFreshPartition(dir string) bool {
	base := dir
	if i := strings.LastIndexByte(dir, '/'); i >= 0 {
		base = dir[i+1:]
	}
	return strings.HasPrefix(base, "seq-")
}
