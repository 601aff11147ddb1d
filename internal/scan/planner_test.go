package scan

import (
	"testing"

	"colmr/internal/race"
)

// groupTierFixture is a two-column zone map — an int column without a
// filter, a string column with one — and a group source over it, as a
// reader's GroupStats serves them.
func groupTierFixture() GroupStatsFunc {
	b := NewBloomSized(1, 1<<12)
	b.AddHash(BloomHashString("present"))
	ints := &ColStats{Rows: 100, HasMinMax: true, Min: int32(0), Max: int32(99)}
	strs := &ColStats{Rows: 100, HasMinMax: true, Min: "a", Max: "z", Bloom: b}
	return func(col string, rec int64) (*ColStats, int64) {
		if col == "i" {
			return ints, rec - rec%100 + 100
		}
		return strs, rec - rec%50 + 50
	}
}

// TestPlannerGroupAllocGuard: consulting the group tier allocates nothing
// per call — no closure over the source, no captured bound — whatever the
// verdict: MayMatch, a zone-map NoMatch, AllMatch, or a nil predicate's
// AllMatch over the whole file.
func TestPlannerGroupAllocGuard(t *testing.T) {
	group := groupTierFixture()
	for _, tc := range []struct {
		what string
		pl   *Planner
		want Tri
		end  int64 // the narrowest group the verdict consulted
	}{
		{"MayMatch", NewPlanner(And(Le("i", int32(50)), Eq("s", "present"))), MayMatch, 150},
		{"zone-map NoMatch", NewPlanner(And(Gt("i", int32(500)), Eq("s", "present"))), NoMatch, 200},
		{"AllMatch", NewPlanner(Le("i", int32(200))), AllMatch, 200},
		{"nil predicate", NewPlanner(nil), AllMatch, 1000},
	} {
		var tri Tri
		var end int64
		allocs := testing.AllocsPerRun(100, func() { tri, end, _ = tc.pl.PruneGroup(120, 1000, group) })
		if tri != tc.want || end != tc.end {
			t.Errorf("%s: PruneGroup = %v, end %d; want %v, end %d", tc.what, tri, end, tc.want, tc.end)
		}
		race.AllocCeiling(t, "PruneGroup, "+tc.what, allocs, 0)
	}
}

// BenchmarkPruneGroup times one group-tier consultation over two columns.
func BenchmarkPruneGroup(b *testing.B) {
	group := groupTierFixture()
	pl := NewPlanner(And(Le("i", int32(50)), Eq("s", "present")))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pl.PruneGroup(int64(i%1000), 1000, group)
	}
}
