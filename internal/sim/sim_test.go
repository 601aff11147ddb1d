package sim

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"colmr/internal/race"
)

func TestDefaultClusterMatchesPaper(t *testing.T) {
	c := DefaultCluster()
	if c.Nodes != 40 {
		t.Errorf("Nodes = %d, want 40", c.Nodes)
	}
	if c.SlotsPerNode != 6 {
		t.Errorf("SlotsPerNode = %d, want 6", c.SlotsPerNode)
	}
	if c.MapSlots() != 240 {
		t.Errorf("MapSlots = %d, want 240", c.MapSlots())
	}
	if c.Replication != 3 {
		t.Errorf("Replication = %d, want 3", c.Replication)
	}
	if c.TransferUnit != 128*KB {
		t.Errorf("TransferUnit = %d, want 128KB", c.TransferUnit)
	}
	if c.BlockSize != 64*MB {
		t.Errorf("BlockSize = %d, want 64MB", c.BlockSize)
	}
}

func TestPerSlotDiskBandwidth(t *testing.T) {
	c := DefaultCluster()
	got := c.PerSlotDiskBandwidth()
	want := c.DiskBandwidth * 4 / 6
	if math.Abs(got-want) > 1 {
		t.Errorf("PerSlotDiskBandwidth = %v, want %v", got, want)
	}

	// A single slot cannot exceed one disk's bandwidth.
	c.SlotsPerNode = 1
	if got := c.PerSlotDiskBandwidth(); got != c.DiskBandwidth {
		t.Errorf("single-slot bandwidth = %v, want %v", got, c.DiskBandwidth)
	}

	// Zero slots must not divide by zero.
	c.SlotsPerNode = 0
	if got := c.PerSlotDiskBandwidth(); got <= 0 {
		t.Errorf("zero-slot bandwidth = %v, want > 0", got)
	}
}

func TestSingleNode(t *testing.T) {
	c := SingleNode()
	if c.Nodes != 1 || c.SlotsPerNode != 1 {
		t.Errorf("SingleNode = %+v, want 1 node / 1 slot", c)
	}
}

func TestIOStatsAddAndScale(t *testing.T) {
	a := IOStats{LocalBytes: 100, RemoteBytes: 10, LogicalBytes: 90, Seeks: 3, BytesWritten: 7}
	b := IOStats{LocalBytes: 1, RemoteBytes: 2, LogicalBytes: 3, Seeks: 4, BytesWritten: 5}
	a.Add(b)
	want := IOStats{LocalBytes: 101, RemoteBytes: 12, LogicalBytes: 93, Seeks: 7, BytesWritten: 12}
	if a != want {
		t.Errorf("Add = %+v, want %+v", a, want)
	}
	a.Scale(2)
	want = IOStats{LocalBytes: 202, RemoteBytes: 24, LogicalBytes: 186, Seeks: 14, BytesWritten: 24}
	if a != want {
		t.Errorf("Scale = %+v, want %+v", a, want)
	}
	if a.TotalChargedBytes() != 226 {
		t.Errorf("TotalChargedBytes = %d, want 226", a.TotalChargedBytes())
	}
}

func TestCPUStatsAddScaleRoundTrip(t *testing.T) {
	s := CPUStats{RawBytes: 10, IntBytes: 20, MapBytes: 30, RecordsMaterialized: 5}
	s.Add(CPUStats{RawBytes: 1, StringBytes: 2, ValuesMaterialized: 9})
	if s.RawBytes != 11 || s.StringBytes != 2 || s.ValuesMaterialized != 9 {
		t.Errorf("Add produced %+v", s)
	}
	s.Scale(3)
	if s.RawBytes != 33 || s.IntBytes != 60 || s.MapBytes != 90 || s.RecordsMaterialized != 15 {
		t.Errorf("Scale produced %+v", s)
	}
}

// CPUSeconds must be linear: pricing a sum of stats equals the sum of
// prices. The MapTime definition depends on this.
func TestCPUSecondsLinearity(t *testing.T) {
	m := DefaultModel()
	f := func(a, b CPUStats) bool {
		abs := func(s *CPUStats) {
			// Keep counters non-negative and modest so float error stays tiny.
			clamp := func(v *int64) {
				if *v < 0 {
					*v = -*v
				}
				*v %= 1 << 30
			}
			clamp(&s.RawBytes)
			clamp(&s.IntBytes)
			clamp(&s.DoubleBytes)
			clamp(&s.StringBytes)
			clamp(&s.MapBytes)
			clamp(&s.TextBytes)
			clamp(&s.SkippedBytes)
			clamp(&s.ZlibBytes)
			clamp(&s.LzoBytes)
			clamp(&s.DictBytes)
			clamp(&s.ZlibCompBytes)
			clamp(&s.LzoCompBytes)
			clamp(&s.DictCompBytes)
			clamp(&s.RecordsMaterialized)
			clamp(&s.ValuesMaterialized)
			clamp(&s.VecBytes)
			clamp(&s.VecValues)
		}
		abs(&a)
		abs(&b)
		sum := a
		sum.Add(b)
		lhs := m.CPUSeconds(sum)
		rhs := m.CPUSeconds(a) + m.CPUSeconds(b)
		return math.Abs(lhs-rhs) <= 1e-9*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIOSecondsComponents(t *testing.T) {
	m := DefaultModel()
	io := IOStats{LocalBytes: 100 * MB, RemoteBytes: 80 * MB, Seeks: 10}
	got := m.IOSeconds(io, 100*MB, 80*MB)
	// Remote bytes cost network AND the serving node's disk.
	want := 1.0 + 1.0 + 0.8 + 10*m.Cluster.SeekTime
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("IOSeconds = %v, want %v", got, want)
	}
	if m.IOSeconds(IOStats{RemoteBytes: MB}, 100*MB, 80*MB) <= m.IOSeconds(IOStats{LocalBytes: MB}, 100*MB, 80*MB) {
		t.Error("remote bytes should cost strictly more than local bytes")
	}
}

func TestViewFasterThanBoxed(t *testing.T) {
	m := DefaultModel()
	c := CPUStats{IntBytes: GB, MapBytes: GB, DoubleBytes: GB, RecordsMaterialized: 1e6}
	if b, v := m.CPUSeconds(c), m.ViewCPUSeconds(c); v >= b {
		t.Errorf("view CPU %v not faster than boxed %v", v, b)
	}
}

func TestMapTimeIsPerSlotAverage(t *testing.T) {
	m := DefaultModel()
	total := TaskStats{IO: IOStats{LocalBytes: GB}}
	per := m.MapTaskSeconds(total)
	if got := m.MapTime(total); math.Abs(got-per/240) > 1e-12 {
		t.Errorf("MapTime = %v, want %v", got, per/240)
	}
}

func TestTotalTimeIncludesOverheadAndShuffle(t *testing.T) {
	m := DefaultModel()
	noOutput := TaskStats{IO: IOStats{LocalBytes: GB}}
	if got := m.TotalTime(noOutput); got < m.Cluster.JobOverhead {
		t.Errorf("TotalTime = %v, want >= JobOverhead %v", got, m.Cluster.JobOverhead)
	}
	withOutput := noOutput
	withOutput.OutputBytes = 10 * GB
	if m.TotalTime(withOutput) <= m.TotalTime(noOutput) {
		t.Error("shuffle bytes did not increase total time")
	}
}

func TestLoadSecondsChargesReplication(t *testing.T) {
	m := DefaultModel()
	small := TaskStats{IO: IOStats{BytesWritten: GB}}
	big := TaskStats{IO: IOStats{BytesWritten: 10 * GB}}
	if m.LoadSeconds(big) <= m.LoadSeconds(small) {
		t.Error("writing more bytes should take longer")
	}
}

// Figure 8 anchor: with the calibrated boxed map rate, a record that is 60%
// map-typed and 40% raw bytes deserializes below SATA disk bandwidth
// (~75 MB/s), as the paper observes.
func TestBoxedMapCrossoverBelowDiskBandwidth(t *testing.T) {
	m := DefaultModel()
	const total = 1000 * MB
	c := CPUStats{MapBytes: 600 * MB, RawBytes: 400 * MB}
	bw := float64(total) / m.CPUSeconds(c)
	if bw >= 80*MB {
		t.Errorf("boxed 60%%-map bandwidth = %.1f MB/s, want < 80 MB/s", bw/MB)
	}
	// And the C++-analogue view path stays well above it.
	if vbw := float64(total) / m.ViewCPUSeconds(c); vbw <= 150*MB {
		t.Errorf("view 60%%-map bandwidth = %.1f MB/s, want > 150 MB/s", vbw/MB)
	}
}

func TestScaleIntRounds(t *testing.T) {
	if got := scaleInt(3, 0.5); got != 2 {
		t.Errorf("scaleInt(3, 0.5) = %d, want 2 (round half up)", got)
	}
	if got := scaleInt(0, 123); got != 0 {
		t.Errorf("scaleInt(0, 123) = %d, want 0", got)
	}
}

// counterSet is a stats struct whose Add and Scale range over its counter
// list.
type counterSet[T any] interface {
	*T
	Add(T)
	Scale(float64)
}

// int64Fields returns the index path of every int64 field of t, nested
// structs included.
func int64Fields(t reflect.Type, prefix []int) [][]int {
	var out [][]int
	for i := 0; i < t.NumField(); i++ {
		path := append(slices.Clone(prefix), i)
		switch f := t.Field(i); f.Type.Kind() {
		case reflect.Int64:
			out = append(out, path)
		case reflect.Struct:
			out = append(out, int64Fields(f.Type, path)...)
		}
	}
	return out
}

// checkCounterList sets each int64 field of a T alone and checks that Add
// and Scale move exactly that field, so a counter missing from its list
// fails here by name.
func checkCounterList[T any, P counterSet[T]](t *testing.T) {
	typ := reflect.TypeFor[T]()
	with := func(path []int, v int64) T {
		var s T
		reflect.ValueOf(&s).Elem().FieldByIndex(path).SetInt(v)
		return s
	}
	for _, path := range int64Fields(typ, nil) {
		name, ft := typ.Name(), typ
		for _, i := range path {
			name, ft = name+"."+ft.Field(i).Name, ft.Field(i).Type
		}
		one := with(path, 3)
		var sum T
		P(&sum).Add(one)
		P(&sum).Add(one)
		if want := with(path, 6); !reflect.DeepEqual(sum, want) {
			t.Errorf("%s: Add twice = %+v, want %+v", name, sum, want)
		}
		P(&one).Scale(2.5)
		if want := with(path, 8); !reflect.DeepEqual(one, want) {
			t.Errorf("%s: Scale(2.5) = %+v, want %+v", name, one, want)
		}
	}
}

func TestStatsCounterListsCoverEveryField(t *testing.T) {
	checkCounterList[IOStats](t)
	checkCounterList[CPUStats](t)
	checkCounterList[TaskStats](t)
}

// Add and Scale run per task, per batch and per served query; they must not
// allocate.
func TestTaskStatsAllocCeiling(t *testing.T) {
	var s TaskStats
	o := TaskStats{IO: IOStats{LocalBytes: 1}, CPU: CPUStats{VecValues: 2}, RowsVectorized: 3}
	race.AllocCeiling(t, "TaskStats.Add", testing.AllocsPerRun(100, func() { s.Add(o) }), 0)
	race.AllocCeiling(t, "TaskStats.Scale", testing.AllocsPerRun(100, func() { s.Scale(1) }), 0)
}

func BenchmarkTaskStatsAdd(b *testing.B) {
	var s TaskStats
	o := TaskStats{IO: IOStats{LocalBytes: 1}, CPU: CPUStats{VecValues: 2}, RowsVectorized: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Add(o)
	}
}
