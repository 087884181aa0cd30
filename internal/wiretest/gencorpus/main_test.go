package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/svrlab/svrlab/internal/wiretest"
)

// TestCorpusMatchesGencorpus: every checked-in seed is the file gencorpus
// writes, byte for byte, and no seed file is left that gencorpus no longer
// makes. Plain `go test` replays each seed once, as a subtest of its fuzz
// target, and replays nothing for a corpus that was lost; this test is what
// notices the loss, or a seed edited by hand. Crashers the fuzzer lands
// beside the seeds (not named seed-NNN) are left alone.
func TestCorpusMatchesGencorpus(t *testing.T) {
	byDir := corpora(filepath.Join("..", "..", ".."))
	dirs := make([]string, 0, len(byDir))
	for dir := range byDir {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		t.Run(filepath.Base(dir), func(t *testing.T) {
			gen := t.TempDir()
			if err := wiretest.WriteCorpus(gen, byDir[dir]...); err != nil {
				t.Fatal(err)
			}
			made, err := os.ReadDir(gen)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range made {
				t.Run(f.Name(), func(t *testing.T) {
					want, err := os.ReadFile(filepath.Join(gen, f.Name()))
					if err != nil {
						t.Fatal(err)
					}
					got, err := os.ReadFile(filepath.Join(dir, f.Name()))
					if err != nil {
						t.Fatalf("lost: %v", err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("checked in\n%s\ngencorpus writes\n%s", got, want)
					}
				})
			}
			kept, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range kept {
				if !strings.HasPrefix(f.Name(), "seed-") {
					continue
				}
				if _, err := os.Stat(filepath.Join(gen, f.Name())); err != nil {
					t.Errorf("%s is checked in, but gencorpus makes no such seed", f.Name())
				}
			}
		})
	}
}
