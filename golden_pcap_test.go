package svrlab_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/svrlab/svrlab"
)

// pcapFile pins the SHA-256 of every pcap the pcapIDs write at seed 42 with
// Options.PcapDir set, one "<sha256> <file>" line per file. Regenerate it
// with `go test -run TestGoldenPcaps -update .`.
const pcapFile = "pcap_seed42.txt"

// pcapIDs are the experiments whose -pcap output TestGoldenPcaps holds: the
// Fig 2 timelines (one pcap per platform) and the two disruption runs that
// write one each.
var pcapIDs = []string{"fig2", "fig12", "fig13tcp"}

// TestGoldenPcaps holds the libpcap files the pcapIDs write at seed 42
// byte-identical to the digests in pcapFile.
func TestGoldenPcaps(t *testing.T) {
	if raceEnabled {
		t.Skip("takes minutes under -race; run without the detector")
	}
	dir := t.TempDir()
	for _, id := range pcapIDs {
		if _, err := svrlab.Run(id, svrlab.Options{Seed: 42, Repeats: 1, PcapDir: dir}); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.pcap"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	var got strings.Builder
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		fmt.Fprintf(&got, "%s %s\n", hex.EncodeToString(sum[:]), filepath.Base(name))
	}
	if *update {
		if err := os.WriteFile(pcapFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(pcapFile)
	if err != nil {
		t.Fatal(err)
	}
	diffLines(t, pcapFile, got.String(), string(want))
}
