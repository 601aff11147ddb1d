package mapred

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// The shuffle's tail: keys are hashed from their typed values with no byte
// slice or hash object built, and reduce input is ordered by sorting indexes.
// Both must land every pair exactly where the first implementation did —
// hash/fnv over KeyBytes, and a stable sort of the pairs themselves.

// fnvPartition is Partition as it was first written.
func fnvPartition(t *testing.T, key any, n int) int {
	t.Helper()
	kb, err := KeyBytes(key)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New32a()
	h.Write(kb)
	return int(h.Sum32() % uint32(n))
}

// emitPartition returns the partition emitInto files key under.
func emitPartition(t *testing.T, key any, n int) int {
	t.Helper()
	out := &taskOutput{partitions: make([][]shufflePair, n)}
	if err := emitInto(out, n)(key, nil); err != nil {
		t.Fatal(err)
	}
	for p, pairs := range out.partitions {
		if len(pairs) == 1 {
			return p
		}
	}
	t.Fatalf("key %v landed in no partition", key)
	return -1
}

func TestShufflePartitionMatchesFNV(t *testing.T) {
	keys := []any{
		nil, false, true,
		int32(0), int32(-1), int32(math.MinInt32), int32(math.MaxInt32), int32(0x01020304),
		int64(0), int64(-1), int64(math.MinInt64), int64(math.MaxInt64), int64(0x0102030405060708),
		float64(0), math.Copysign(0, -1), float64(-1.5), math.Inf(1), math.NaN(), math.SmallestNonzeroFloat64,
		"", "a", "text/html", "héllo\x00wörld",
		[]byte(nil), []byte{}, []byte{0}, []byte{0xff, 0, 0x80},
	}
	check := func(key any) {
		t.Helper()
		for _, n := range []int{2, 3, 4, 7, 64, 1000} {
			want := fnvPartition(t, key, n)
			if got, err := Partition(key, n); err != nil || got != want {
				t.Errorf("Partition(%#v, %d) = %d, %v; hash/fnv over KeyBytes says %d", key, n, got, err, want)
			}
			if got := emitPartition(t, key, n); got != want {
				t.Errorf("emit files %#v under partition %d of %d; hash/fnv over KeyBytes says %d", key, got, n, want)
			}
		}
	}
	for _, k := range keys {
		check(k)
	}
	for _, f := range []any{
		func(k string) bool { check(k); return true },
		func(k []byte) bool { check(k); return true },
		func(k int32) bool { check(k); return true },
		func(k int64) bool { check(k); return true },
		func(k float64) bool { check(k); return true },
		func(k bool) bool { check(k); return true },
	} {
		if err := quick.Check(f, nil); err != nil {
			t.Error(err)
		}
	}
	if _, err := hashKey(struct{}{}); err == nil {
		t.Error("hashKey accepted a struct key")
	}
}

// reduceTrace renders the reducer's input, call by call.
type reduceTrace []string

func (tr *reduceTrace) Reduce(key any, values []any, _ Emit) error {
	*tr = append(*tr, fmt.Sprintf("%#v <- %#v", key, values))
	return nil
}

// sortedPairsReduce is groupAndReduce as it was first written: a stable sort
// of the pairs themselves by key, value bytes breaking ties.
func sortedPairsReduce(t *testing.T, r Reducer, pairs []shufflePair) {
	t.Helper()
	sort.SliceStable(pairs, func(i, j int) bool {
		c, err := Compare(pairs[i].key, pairs[j].key)
		if err != nil {
			t.Fatal(err)
		}
		if c != 0 {
			return c < 0
		}
		return string(pairs[i].valBytes) < string(pairs[j].valBytes)
	})
	for i := 0; i < len(pairs); {
		j := i + 1
		for j < len(pairs) {
			if c, _ := Compare(pairs[i].key, pairs[j].key); c != 0 {
				break
			}
			j++
		}
		var values []any
		for _, pr := range pairs[i:j] {
			values = append(values, pr.value)
		}
		if err := r.Reduce(pairs[i].key, values, nil); err != nil {
			t.Fatal(err)
		}
		i = j
	}
}

func TestShuffleReduceOrderUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(20110829))
	keyPool := []any{
		nil, false, true, int32(-3), int32(3), int64(-7), int64(7), int64(1 << 40),
		float64(-0.5), float64(2.25), "", "a", "b", "text/html", []byte{1}, []byte{1, 0}, []byte{2},
	}
	value := func() any {
		switch rng.Intn(6) {
		case 0:
			return nil
		case 1:
			return int64(rng.Intn(7) - 3) // negatives order after positives as bytes
		case 2:
			return int32(rng.Intn(5) - 2)
		case 3:
			return fmt.Sprint("v", rng.Intn(4))
		case 4:
			return float64(rng.Intn(5)) - 2
		default:
			return []byte{byte(rng.Intn(3))}
		}
	}
	for round := 0; round < 60; round++ {
		n := rng.Intn(400)
		nkeys := 1 + rng.Intn(len(keyPool))
		pairs := make([]shufflePair, n)
		for i := range pairs {
			v := value()
			vb, err := KeyBytes(v)
			if err != nil {
				t.Fatal(err)
			}
			pairs[i] = shufflePair{key: keyPool[rng.Intn(nkeys)], value: v, valBytes: vb}
		}
		var want, got reduceTrace
		sortedPairsReduce(t, &want, append([]shufflePair(nil), pairs...))
		var groups int64
		if err := groupAndReduce(&got, pairs, nil, &groups); err != nil {
			t.Fatal(err)
		}
		if groups != int64(len(want)) {
			t.Fatalf("round %d: %d groups counted, want %d", round, groups, len(want))
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("round %d (%d pairs, %d keys): reduce input differs\n got %v\nwant %v", round, n, nkeys, got, want)
		}
	}
}

func TestShuffleSortReportsUnsupportedKey(t *testing.T) {
	pairs := []shufflePair{{key: "a"}, {key: struct{}{}}, {key: "b"}}
	if err := groupAndReduce(&reduceTrace{}, pairs, nil, nil); err == nil {
		t.Error("a key Compare rejects sorted without an error")
	}
}

// BenchmarkShuffleReduce is one reduce partition of the crawl job's shape:
// 4 k pairs over 8 string keys, every value int64(1), sorted, grouped and
// summed.
func BenchmarkShuffleReduce(b *testing.B) {
	const n, nkeys = 4096, 8
	rng := rand.New(rand.NewSource(1))
	out := &taskOutput{partitions: make([][]shufflePair, 1)}
	emit := emitInto(out, 1)
	for i := 0; i < n; i++ {
		if err := emit(fmt.Sprintf("type/%d", rng.Intn(nkeys)), int64(1)); err != nil {
			b.Fatal(err)
		}
	}
	sum := ReducerFunc(func(_ any, values []any, _ Emit) error {
		var s int64
		for _, v := range values {
			s += v.(int64)
		}
		if s == 0 {
			return fmt.Errorf("empty group")
		}
		return nil
	})
	pairs := make([]shufflePair, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(pairs, out.partitions[0])
		var groups int64
		if err := groupAndReduce(sum, pairs, nil, &groups); err != nil || groups != nkeys {
			b.Fatalf("%d groups, %v", groups, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/pair")
}
