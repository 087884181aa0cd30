package svrlab_test

import (
	"os"
	"strings"
	"testing"

	"github.com/svrlab/svrlab"
)

// goldenFile is the `svrlab all -seed 42 -repeats 1` transcript. Regenerate
// it with `go run ./cmd/svrlab all -seed 42 -repeats 1 > artifacts_seed42.txt`.
const goldenFile = "artifacts_seed42.txt"

// goldenSections splits an `svrlab all` transcript into artifacts by id.
// Each section is a "==== <id> (<artifact>) ====" line, the artifact exactly
// as Render returns it, and one blank line.
func goldenSections(text string) map[string]string {
	out := make(map[string]string)
	var id string
	for _, line := range strings.SplitAfter(text, "\n") {
		if strings.HasPrefix(line, "==== ") && strings.HasSuffix(line, " ====\n") {
			id = strings.Fields(line)[1]
			continue
		}
		out[id] += line
	}
	delete(out, "")
	for id, body := range out {
		out[id] = strings.TrimSuffix(body, "\n")
	}
	return out
}

// goldenIDs are the artifacts TestGoldenArtifacts checks: the experiments
// whose numbers pass through the fabric's drop and delivery paths — netem
// queue drops downlink (fig12) and uplink (fig13), netem loss uplink
// (fig13tcp), host-down drops and refused sends (resilience), TTL expiry
// with router ICMP (table2) — and every other artifact that regenerates in
// a few seconds, among them render's video stream (remote), the Table 4
// latency rig (table4) and the viewport filter (fig6b, viewport). The slow
// sweeps (decimate, disrupt-lat, fig6all, fig7, fig9, p2p) are compared by
// hand with `svrlab all`; fig7 and disrupt-lat also by the artifact
// benchmark's seed-42 check.
var goldenIDs = []string{
	"fig2", "fig3", "fig6", "fig6b", "fig11", "fig12", "fig13", "fig13tcp",
	"remote", "resilience", "table1", "table2", "table3", "table4", "viewport",
}

// TestGoldenArtifacts holds the goldenIDs artifacts at seed 42
// byte-identical to the golden file.
func TestGoldenArtifacts(t *testing.T) {
	if raceEnabled {
		t.Skip("takes minutes under -race; run without the detector")
	}
	b, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	golden := goldenSections(string(b))
	for _, id := range goldenIDs {
		t.Run(id, func(t *testing.T) {
			want, ok := golden[id]
			if !ok {
				t.Fatalf("%s has no section for %s", goldenFile, id)
			}
			res, err := svrlab.Run(id, svrlab.Options{Seed: 42, Repeats: 1})
			if err != nil {
				t.Fatal(err)
			}
			got := res.Render()
			if got == want {
				return
			}
			gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("line %d differs from %s:\n got: %q\nwant: %q", i+1, goldenFile, gl[i], wl[i])
				}
			}
			t.Fatalf("%d lines, %s has %d", len(gl), goldenFile, len(wl))
		})
	}
}
