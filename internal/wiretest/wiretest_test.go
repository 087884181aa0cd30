package wiretest

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestCorpusEntryRoundTrip(t *testing.T) {
	cases := [][]byte{
		{},
		{0},
		[]byte("plain text"),
		{0x00, 0xff, '\n', '"', '\\', 0x7f},
		bytes.Repeat([]byte{0xaa}, 300),
	}
	for _, data := range cases {
		got, err := ParseCorpusEntry(CorpusEntry(data))
		if err != nil {
			t.Fatalf("% x: %v", data, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("round trip % x -> % x", data, got)
		}
	}
}

func TestParseCorpusEntryRejectsGarbage(t *testing.T) {
	for _, content := range []string{
		"",
		"not a corpus file",
		"go test fuzz v1\n",
		"go test fuzz v1\nint(7)\n",
		"go test fuzz v1\n[]byte(unquoted)\n",
	} {
		if _, err := ParseCorpusEntry([]byte(content)); err == nil {
			t.Fatalf("%q parsed without error", content)
		}
	}
}

func TestWriteCorpusAndReplay(t *testing.T) {
	// Write a corpus the way gencorpus does, then read each file back as
	// the toolchain would replay it.
	dir := filepath.Join(t.TempDir(), "FuzzScratch")
	if err := WriteCorpus(dir, []byte("one"), []byte("two")); err != nil {
		t.Fatal(err)
	}
	if files, err := os.ReadDir(dir); err != nil || len(files) != 2 {
		t.Fatalf("corpus holds %d files (%v), want 2", len(files), err)
	}
	for name, want := range map[string]string{"seed-000": "one", "seed-001": "two"} {
		t.Run(name, func(t *testing.T) {
			content, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			data, err := ParseCorpusEntry(content)
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != want {
				t.Fatalf("replayed %q, want %q", data, want)
			}
		})
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
