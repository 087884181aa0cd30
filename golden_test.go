package svrlab_test

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"github.com/svrlab/svrlab"
	"github.com/svrlab/svrlab/internal/obs"
)

// goldenFile is the `svrlab all -seed 42 -repeats 1` transcript. Regenerate
// it with `go run ./cmd/svrlab all -seed 42 -repeats 1 > artifacts_seed42.txt`.
const goldenFile = "artifacts_seed42.txt"

// metricsFile pins the stable metrics of each goldenIDs run at seed 42, one
// section per id. Regenerate it with
// `go test -run TestGoldenArtifacts -update .`.
const metricsFile = "metrics_seed42.txt"

var update = flag.Bool("update", false, "rewrite "+metricsFile+", "+pcapFile+" and "+traceFile+" from this run")

// goldenSections splits an `svrlab all` transcript (or metricsFile) into
// sections by id. Each section is a "==== <id> ... ====" line, the body,
// and one blank line.
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
// latency rig (table4), the viewport filter (fig6b, viewport) and the six
// join-scalability panels (fig6all). Two slow ones are here because
// every packet of the artifact benchmark's public-event and disruption
// workloads takes the fabric's hop path: the Fig 7 event sweep (fig7) and
// the disruption latency sweep (disrupt-lat). The other slow sweeps
// (decimate, fig9, p2p) are compared by hand with `svrlab all`.
var goldenIDs = []string{
	"disrupt-lat", "fig2", "fig3", "fig6", "fig6all", "fig6b", "fig7", "fig11",
	"fig12", "fig13", "fig13tcp", "remote", "resilience", "table1", "table2",
	"table3", "table4", "viewport",
}

// TestGoldenArtifacts holds the goldenIDs artifacts at seed 42
// byte-identical to goldenFile, and the stable metrics of each run to its
// section of metricsFile. Options.Workers is left at 0 (GOMAXPROCS), so
// `-cpu 1,4` checks both at one worker and at four.
func TestGoldenArtifacts(t *testing.T) {
	if raceEnabled {
		t.Skip("takes minutes under -race; run without the detector")
	}
	b, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	golden := goldenSections(string(b))
	metrics := map[string]string{}
	if b, err := os.ReadFile(metricsFile); err == nil {
		metrics = goldenSections(string(b))
	} else if !*update {
		t.Fatal(err)
	}
	for _, id := range goldenIDs {
		t.Run(id, func(t *testing.T) {
			want, ok := golden[id]
			if !ok {
				t.Fatalf("%s has no section for %s", goldenFile, id)
			}
			reg := svrlab.NewMetricsRegistry()
			res, err := svrlab.Run(id, svrlab.Options{Seed: 42, Repeats: 1, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			diffLines(t, goldenFile, res.Render(), want)
			got := metricLines(reg.Snapshot().Stable())
			if *update {
				metrics[id] = got
				return
			}
			want, ok = metrics[id]
			if !ok {
				t.Fatalf("%s has no section for %s", metricsFile, id)
			}
			diffLines(t, metricsFile, got, want)
		})
	}
	if *update {
		var out strings.Builder
		for _, id := range goldenIDs {
			fmt.Fprintf(&out, "==== %s ====\n%s\n", id, metrics[id])
		}
		if err := os.WriteFile(metricsFile, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// diffLines fails the test at the first line where got differs from want,
// the section of file it was checked against.
func diffLines(t *testing.T, file, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs from %s:\n got: %q\nwant: %q", i+1, file, gl[i], wl[i])
		}
	}
	t.Fatalf("%d lines, %s has %d", len(gl), file, len(wl))
}

// metricLines renders a snapshot one entry per line with every field, so a
// histogram's buckets are pinned as well as its count and sum.
func metricLines(s svrlab.MetricsSnapshot) string {
	var b strings.Builder
	for _, e := range s.Entries {
		switch e.Kind {
		case obs.KindCounter:
			fmt.Fprintf(&b, "%s counter %d\n", e.Name, e.Value)
		case obs.KindGauge:
			fmt.Fprintf(&b, "%s gauge %s\n", e.Name, strconv.FormatFloat(e.Gauge, 'g', -1, 64))
		default:
			buckets := make([]string, len(e.Buckets))
			for i, n := range e.Buckets {
				buckets[i] = strconv.FormatInt(n, 10)
			}
			fmt.Fprintf(&b, "%s hist count=%d sum_us=%d buckets=%s\n",
				e.Name, e.Count, e.SumMicro, strings.Join(buckets, ","))
		}
	}
	return b.String()
}
