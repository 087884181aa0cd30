package experiment

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/svrlab/svrlab/internal/chaos"
	"github.com/svrlab/svrlab/internal/platform"
)

// TestResilienceFailoverByPlacement: the same 15 s crash must play out
// according to each platform's data placement — anycast pools fail over
// while the instance is still down; single-host and regional-unicast
// deployments freeze until it returns.
func TestResilienceFailoverByPlacement(t *testing.T) {
	res := Resilience(Env{Seed: 42, Repeats: 1})
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	byName := map[platform.Name]ResilienceRow{}
	for _, r := range res.Rows {
		byName[r.Platform] = r
	}
	outage := (resHealAt - resCrashAt).Seconds()
	for _, name := range []platform.Name{platform.RecRoom, platform.VRChat} {
		r := byName[name]
		if !r.Failover {
			t.Errorf("%s: anycast pool did not fail over (recovery %.1fs)", name, r.Recovery.Mean)
		}
		if r.Recovery.Mean >= outage {
			t.Errorf("%s: recovery %.1fs not faster than the %.0fs outage", name, r.Recovery.Mean, outage)
		}
	}
	for _, name := range []platform.Name{platform.AltspaceVR, platform.Worlds} {
		r := byName[name]
		if r.Failover {
			t.Errorf("%s: unicast deployment claims failover while its only server was down", name)
		}
		if r.Freeze.Mean < outage/2 {
			t.Errorf("%s: freeze %.1fs implausibly short for a %.0fs unicast outage", name, r.Freeze.Mean, outage)
		}
	}
	if r := byName[platform.Hubs]; r.Failover {
		t.Errorf("Hubs: TCP session pinned to the crashed instance cannot fail over, got recovery %.1fs", r.Recovery.Mean)
	}
}

// TestResilienceSpecMatchesBuiltIn: a chaos spec that crashes the five
// serving data instances from 25 s for 15 s reproduces the built-in crash
// row for row. Chaos runs from each cell's start, so the spec names the
// built-in's own times; only the title says where the faults came from.
func TestResilienceSpecMatchesBuiltIn(t *testing.T) {
	b, err := os.ReadFile("testdata/resilience_crash.json")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := chaos.ParseSpec(b)
	if err != nil {
		t.Fatal(err)
	}
	builtIn := Resilience(Env{Seed: 42, Repeats: 1})
	fromSpec := Resilience(Env{Seed: 42, Repeats: 1, Chaos: spec})
	if !reflect.DeepEqual(builtIn.Rows, fromSpec.Rows) {
		t.Fatalf("spec run differs from the built-in crash:\n%s\nvs\n%s", fromSpec.Render(), builtIn.Render())
	}
	bt, brest, _ := strings.Cut(builtIn.Render(), "\n")
	st, srest, _ := strings.Cut(fromSpec.Render(), "\n")
	if brest != srest || !strings.Contains(bt, "crash 25s-40s") || !strings.Contains(st, "-chaos") {
		t.Fatalf("titles %q and %q, or the tables below them, are wrong", bt, st)
	}
}
