package svrlab_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/svrlab/svrlab"
)

// traceFile pins the SHA-256 of each goldenIDs run's text trace at seed 42,
// one "<sha256> <id>" line per id. Regenerate it with
// `go test -run TestGoldenTraces -update .`.
const traceFile = "trace_seed42.txt"

// TestGoldenTraces reruns the goldenIDs at seed 42 with every observer on:
// a shared metrics registry, a trace collector and an empty chaos spec. Each
// artifact and its stable metrics must still equal their sections of
// goldenFile and metricsFile, and each text trace export must hash to the
// id's digest in traceFile. Every audited lab must record one trace cell,
// under a label no other id uses, because `svrlab all -trace` shares one
// collector. Options.Workers is left at 0 (GOMAXPROCS), so `-cpu 1,4`
// checks both at one worker and at four.
func TestGoldenTraces(t *testing.T) {
	if raceEnabled {
		t.Skip("takes minutes under -race; run without the detector")
	}
	golden, metrics := readSections(t, goldenFile), readSections(t, metricsFile)
	digests := map[string]string{}
	if b, err := os.ReadFile(traceFile); err == nil {
		for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
			if sum, id, ok := strings.Cut(line, " "); ok {
				digests[id] = sum
			}
		}
	} else if !*update {
		t.Fatal(err)
	}
	owner := map[string]string{} // trace label -> the id that recorded it
	for _, id := range goldenIDs {
		t.Run(id, func(t *testing.T) {
			reg, c := svrlab.NewMetricsRegistry(), svrlab.NewTraceCollector()
			res, err := svrlab.Run(id, svrlab.Options{
				Seed: 42, Repeats: 1, Metrics: reg, Trace: c, Chaos: &svrlab.ChaosSpec{},
			})
			if err != nil {
				t.Fatal(err)
			}
			diffLines(t, goldenFile, res.Render(), golden[id])
			snap := reg.Snapshot()
			diffLines(t, metricsFile, metricLines(snap.Stable()), metrics[id])
			labels := c.Labels()
			if labs := snap.Counter("audit.labs"); int64(len(labels)) != labs {
				t.Errorf("%d trace cells for %d audited labs", len(labels), labs)
			}
			for _, l := range labels {
				if other, ok := owner[l]; ok {
					t.Errorf("trace label %q is also %s's", l, other)
				}
				owner[l] = id
			}
			var b bytes.Buffer
			if err := c.Export(&b, "text"); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b.Bytes())
			got := hex.EncodeToString(sum[:])
			if *update {
				digests[id] = got
			} else if got != digests[id] {
				t.Errorf("text trace hashes to %s, %s has %q", got, traceFile, digests[id])
			}
		})
	}
	if *update {
		var out strings.Builder
		for _, id := range goldenIDs {
			fmt.Fprintf(&out, "%s %s\n", digests[id], id)
		}
		if err := os.WriteFile(traceFile, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// readSections reads a file of "==== <id> ====" sections (goldenFile or
// metricsFile) into a map by id.
func readSections(t *testing.T, file string) map[string]string {
	t.Helper()
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	return goldenSections(string(b))
}
