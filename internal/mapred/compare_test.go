package mapred

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"colmr/internal/serde"
)

func TestCompareOrdering(t *testing.T) {
	ordered := []any{
		nil,
		false, true,
		int32(-5), int32(7),
		int64(-9), int64(100),
		float64(-1.5), float64(2.5),
		"a", "b",
		[]byte{1}, []byte{2},
	}
	for i := range ordered {
		for j := range ordered {
			c, err := Compare(ordered[i], ordered[j])
			if err != nil {
				t.Fatalf("Compare(%v, %v): %v", ordered[i], ordered[j], err)
			}
			switch {
			case i < j && c >= 0:
				t.Errorf("Compare(%v, %v) = %d, want < 0", ordered[i], ordered[j], c)
			case i > j && c <= 0:
				t.Errorf("Compare(%v, %v) = %d, want > 0", ordered[i], ordered[j], c)
			case i == j && c != 0:
				t.Errorf("Compare(%v, %v) = %d, want 0", ordered[i], ordered[j], c)
			}
		}
	}
}

func TestCompareUnsupported(t *testing.T) {
	if _, err := Compare(struct{}{}, 1); err == nil {
		t.Error("struct keys should be rejected")
	}
	if _, err := Compare("a", map[string]int{}); err == nil {
		t.Error("map keys should be rejected")
	}
}

func TestPartitionStableAndBounded(t *testing.T) {
	f := func(key string, n uint8) bool {
		reducers := int(n%8) + 1
		p1, err := Partition(key, reducers)
		if err != nil {
			return false
		}
		p2, _ := Partition(key, reducers)
		return p1 == p2 && p1 >= 0 && p1 < reducers
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPartitionSingleReducer(t *testing.T) {
	if p, err := Partition("anything", 1); err != nil || p != 0 {
		t.Errorf("Partition(_, 1) = %d, %v", p, err)
	}
}

func TestKeyBytesDistinct(t *testing.T) {
	a, _ := KeyBytes(int32(1))
	b, _ := KeyBytes(int32(2))
	if string(a) == string(b) {
		t.Error("distinct int32 keys encode identically")
	}
	if kb, err := KeyBytes(nil); err != nil || kb != nil {
		t.Errorf("KeyBytes(nil) = %v, %v", kb, err)
	}
	if _, err := KeyBytes(struct{}{}); err == nil {
		t.Error("struct should be rejected")
	}
}

func TestSizeOf(t *testing.T) {
	if SizeOf("hello") != 6 {
		t.Errorf("SizeOf(hello) = %d", SizeOf("hello"))
	}
	if SizeOf(int64(1)) != 8 || SizeOf(int32(1)) != 4 || SizeOf(nil) != 1 {
		t.Error("primitive sizes wrong")
	}
	if SizeOf([]byte{1, 2, 3}) != 4 {
		t.Errorf("SizeOf([]byte) = %d", SizeOf([]byte{1, 2, 3}))
	}
}

// A shuffle key boxed from a decoder's chunks (serde.Boxer) orders, hashes,
// partitions, sizes and serializes as the same value boxed by the compiler:
// the shuffle never learns how a key was boxed.
func TestShuffleKeysBoxedFromChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var bx serde.Boxer
	draw := func() (plain, boxed any) {
		switch rng.Intn(6) {
		case 0:
			return nil, nil
		case 1:
			x := int32(rng.Intn(50) - 25)
			return x, bx.Int32(x)
		case 2:
			x := int64(rng.Intn(50) - 25)
			return x, bx.Int64(x)
		case 3:
			x := []float64{float64(rng.Intn(9)) / 2, 0, math.Copysign(0, -1), math.Inf(-1)}[rng.Intn(4)]
			return x, bx.Float64(x)
		case 4:
			x := fmt.Sprint("k", rng.Intn(30))
			return x, bx.String(x)
		default:
			x := []byte(fmt.Sprint("b", rng.Intn(30)))
			return x, bx.Bytes(x)
		}
	}
	for i := 0; i < 3000; i++ {
		a, ba := draw()
		b, bb := draw()
		want, err := Compare(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range [][2]any{{ba, bb}, {ba, b}, {a, bb}} {
			if got, err := Compare(pair[0], pair[1]); err != nil || got != want {
				t.Fatalf("Compare(%#v, %#v) = %d, %v with boxed operands, %d plain", a, b, got, err, want)
			}
		}
		hp, err := hashKey(a)
		hb, errB := hashKey(ba)
		if err != nil || errB != nil || hp != hb {
			t.Fatalf("hashKey(%#v) = %d (%v), boxed %d (%v)", a, hp, err, hb, errB)
		}
		pp, _ := Partition(a, 7)
		pb, _ := Partition(ba, 7)
		kp, _ := KeyBytes(a)
		kb, _ := KeyBytes(ba)
		if pp != pb || !bytes.Equal(kp, kb) || SizeOf(a) != SizeOf(ba) {
			t.Fatalf("%#v: partition %d, key bytes %x, size %d; boxed %d, %x, %d", a, pp, kp, SizeOf(a), pb, kb, SizeOf(ba))
		}
	}
}
