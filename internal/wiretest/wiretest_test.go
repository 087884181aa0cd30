package wiretest

import (
	"bytes"
	"testing"
)

func TestFlipChangesOneByteOfACopy(t *testing.T) {
	seed := []byte{1, 2, 3}
	got := Flip(seed, 1, 0x82)
	if !bytes.Equal(got, []byte{1, 0x80, 3}) {
		t.Fatalf("Flip = % x, want 01 80 03", got)
	}
	if !bytes.Equal(seed, []byte{1, 2, 3}) {
		t.Fatalf("Flip changed its input to % x", seed)
	}
}

func TestCheckPrefixesVisitsEveryStrictPrefix(t *testing.T) {
	frame := []byte{1, 2, 3, 4, 5}
	var lens []int
	CheckPrefixes(t, frame, func(t *testing.T, data []byte) {
		lens = append(lens, len(data))
	})
	if len(lens) != len(frame) {
		t.Fatalf("visited %d prefixes, want %d", len(lens), len(frame))
	}
	for i, n := range lens {
		if n != i {
			t.Fatalf("prefix %d has length %d", i, n)
		}
	}
}

func TestAssertRemarshalAcceptsIdentical(t *testing.T) {
	AssertRemarshal(t, []byte{1, 2, 3}, []byte{1, 2, 3})
	AssertRemarshal(t, nil, []byte{})
}
