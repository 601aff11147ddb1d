package mapred

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// KeyBytes returns a canonical byte form of a shuffle key, used for
// hashing, size accounting, and as a total-order tiebreaker. Supported key
// and value types are the serde primitives: nil, bool, int32, int64,
// float64, string, and []byte.
func KeyBytes(v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return nil, nil
	case bool:
		if x {
			return []byte{1}, nil
		}
		return []byte{0}, nil
	case int32:
		return binary.BigEndian.AppendUint32(nil, uint32(x)), nil
	case int64:
		return binary.BigEndian.AppendUint64(nil, uint64(x)), nil
	case float64:
		return binary.BigEndian.AppendUint64(nil, math.Float64bits(x)), nil
	case string:
		return []byte(x), nil
	case []byte:
		return x, nil
	default:
		return nil, fmt.Errorf("mapred: unsupported shuffle type %T", v)
	}
}

// SizeOf estimates the serialized size of a shuffle pair component for
// OutputBytes accounting.
func SizeOf(v any) int64 {
	switch x := v.(type) {
	case nil:
		return 1
	case bool:
		return 1
	case int32:
		return 4
	case int64, float64:
		return 8
	case string:
		return int64(len(x)) + 1
	case []byte:
		return int64(len(x)) + 1
	default:
		return 16
	}
}

// Partition returns the reduce partition for a key.
func Partition(key any, numReducers int) (int, error) {
	if numReducers <= 1 {
		return 0, nil // nothing to hash, so no key to reject
	}
	h, err := hashKey(key)
	if err != nil {
		return 0, err
	}
	return partitionOf(h, numReducers), nil
}

// partitionOf maps a key hash to one of numReducers partitions.
func partitionOf(h uint32, numReducers int) int {
	if numReducers <= 1 {
		return 0
	}
	return int(h % uint32(numReducers))
}

// hashKey is 32-bit FNV-1a over KeyBytes(key), computed from the typed value:
// no byte slice and no hash object is built per emitted pair. It fails on the
// key types KeyBytes rejects.
func hashKey(key any) (uint32, error) {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	fixed := func(x uint64, width int) uint32 {
		for shift := 8 * (width - 1); shift >= 0; shift -= 8 {
			h = (h ^ uint32(byte(x>>shift))) * prime32
		}
		return h
	}
	switch x := key.(type) {
	case nil:
		return h, nil
	case bool:
		if x {
			return fixed(1, 1), nil
		}
		return fixed(0, 1), nil
	case int32:
		return fixed(uint64(uint32(x)), 4), nil
	case int64:
		return fixed(uint64(x), 8), nil
	case float64:
		return fixed(math.Float64bits(x), 8), nil
	case string:
		for i := 0; i < len(x); i++ {
			h = (h ^ uint32(x[i])) * prime32
		}
		return h, nil
	case []byte:
		for _, b := range x {
			h = (h ^ uint32(b)) * prime32
		}
		return h, nil
	default:
		return 0, fmt.Errorf("mapred: unsupported shuffle type %T", key)
	}
}

// Compare totally orders shuffle keys: nil first, then by type rank
// (bool, int32, int64, float64, string, []byte), then by value.
func Compare(a, b any) (int, error) {
	ra, err := typeRank(a)
	if err != nil {
		return 0, err
	}
	rb, err := typeRank(b)
	if err != nil {
		return 0, err
	}
	if ra != rb {
		return cmp(ra, rb), nil
	}
	switch x := a.(type) {
	case nil:
		return 0, nil
	case bool:
		y := b.(bool)
		switch {
		case x == y:
			return 0, nil
		case !x:
			return -1, nil
		default:
			return 1, nil
		}
	case int32:
		return cmp(x, b.(int32)), nil
	case int64:
		return cmp(x, b.(int64)), nil
	case float64:
		return cmp(x, b.(float64)), nil
	case string:
		return cmp(x, b.(string)), nil
	case []byte:
		return bytes.Compare(x, b.([]byte)), nil
	}
	return 0, fmt.Errorf("mapred: unsupported shuffle type %T", a)
}

func typeRank(v any) (int, error) {
	switch v.(type) {
	case nil:
		return 0, nil
	case bool:
		return 1, nil
	case int32:
		return 2, nil
	case int64:
		return 3, nil
	case float64:
		return 4, nil
	case string:
		return 5, nil
	case []byte:
		return 6, nil
	default:
		return 0, fmt.Errorf("mapred: unsupported shuffle type %T", v)
	}
}

func cmp[T int | int32 | int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}
