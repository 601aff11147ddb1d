package seal

import (
	"bytes"
	"errors"
	"slices"
	"testing"
)

func TestOpen(t *testing.T) {
	body := []byte("CFM1C\x01\x02dt=300/seq-2")
	good := Append(slices.Clone(body), 0)
	flipped := func(at int) []byte {
		rec := slices.Clone(good)
		rec[at] ^= 0x10
		return rec
	}
	for _, tc := range []struct {
		name string
		rec  []byte
		want error
	}{
		{"torn: empty", nil, ErrTorn},
		{"torn: shorter than a trailer", good[:Len-1], ErrTorn},
		{"torn: cut short", good[:len(good)-1], ErrTorn},
		{"torn: bytes past the record", append(slices.Clone(good), 0), ErrTorn},
		{"bad checksum: a body byte flipped", flipped(3), ErrChecksum},
		{"bad checksum: a checksum byte flipped", flipped(len(good) - 1), ErrChecksum},
		{"good", good, nil},
		{"good: empty body", Append(nil, 0), nil},
	} {
		got, err := Open(tc.rec)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: Open = %v, want %v", tc.name, err, tc.want)
		}
		if tc.want == nil && !bytes.Equal(got, tc.rec[:len(tc.rec)-Len]) {
			t.Errorf("%s: Open = %q, want the record's %q", tc.name, got, tc.rec[:len(tc.rec)-Len])
		}
	}
	// A trailer seals the record from start on, whatever dst holds before it.
	if got, err := Open(Append(append([]byte("prefix"), body...), len("prefix"))[len("prefix"):]); err != nil || !bytes.Equal(got, body) {
		t.Errorf("Open of a record sealed after a prefix = %q, %v; want %q", got, err, body)
	}
}
