package experiment

import (
	"strings"
	"testing"

	"github.com/svrlab/svrlab/internal/platform"
)

func TestTable4LatencyOrdering(t *testing.T) {
	r := Table4(Env{Seed: 111, Repeats: 8, Workers: 3})
	if len(r.Rows) != 6 { // 5 platforms + private Hubs
		t.Fatalf("rows = %d", len(r.Rows))
	}
	rows := map[string]LatencyBreakdown{}
	for _, row := range r.Rows {
		key := string(row.Platform)
		if row.Private {
			key += "*"
		}
		rows[key] = row
	}
	// Table 4 ordering: Hubs > AltspaceVR > Worlds > VRChat ≈ Rec Room.
	if !(rows["Mozilla Hubs"].E2E.Mean > rows["AltspaceVR"].E2E.Mean) {
		t.Errorf("Hubs (%.1f) should exceed AltspaceVR (%.1f)",
			rows["Mozilla Hubs"].E2E.Mean, rows["AltspaceVR"].E2E.Mean)
	}
	if !(rows["AltspaceVR"].E2E.Mean > rows["Horizon Worlds"].E2E.Mean) {
		t.Errorf("AltspaceVR (%.1f) should exceed Worlds (%.1f)",
			rows["AltspaceVR"].E2E.Mean, rows["Horizon Worlds"].E2E.Mean)
	}
	if !(rows["Horizon Worlds"].E2E.Mean > rows["Rec Room"].E2E.Mean) {
		t.Errorf("Worlds (%.1f) should exceed Rec Room (%.1f)",
			rows["Horizon Worlds"].E2E.Mean, rows["Rec Room"].E2E.Mean)
	}
	// Magnitudes: Hubs ~240, AltspaceVR ~210, RecRoom/VRChat ~100.
	check := func(name string, lo, hi float64) {
		if v := rows[name].E2E.Mean; v < lo || v > hi {
			t.Errorf("%s E2E = %.1fms, want %v-%v", name, v, lo, hi)
		}
	}
	check("Mozilla Hubs", 190, 300)
	check("AltspaceVR", 160, 260)
	check("Horizon Worlds", 100, 165)
	check("Rec Room", 70, 135)
	check("VRChat", 70, 140)
	check("Mozilla Hubs*", 100, 170)

	// AltspaceVR has the highest server processing (viewport prediction).
	for name, row := range rows {
		if name == "AltspaceVR" {
			continue
		}
		if row.Server.Mean >= rows["AltspaceVR"].Server.Mean {
			t.Errorf("%s server latency %.1f ≥ AltspaceVR %.1f", name, row.Server.Mean, rows["AltspaceVR"].Server.Mean)
		}
	}
	// Receiver-side processing exceeds sender-side everywhere (§7 evidence
	// of local rendering).
	for name, row := range rows {
		if row.Receiver.Mean <= row.Sender.Mean {
			t.Errorf("%s receiver %.1f ≤ sender %.1f", name, row.Receiver.Mean, row.Sender.Mean)
		}
	}
	// Receiver latency beats server latency except on AltspaceVR.
	for name, row := range rows {
		if name == "AltspaceVR" || name == "Mozilla Hubs" {
			continue
		}
		if row.Receiver.Mean <= row.Server.Mean {
			t.Errorf("%s receiver %.1f ≤ server %.1f", name, row.Receiver.Mean, row.Server.Mean)
		}
	}
	// Private Hubs: ~70% server-latency reduction.
	pub, priv := rows["Mozilla Hubs"].Server.Mean, rows["Mozilla Hubs*"].Server.Mean
	if priv > pub*0.5 {
		t.Errorf("private Hubs server %.1f not ≪ public %.1f", priv, pub)
	}
	if out := r.Render(); !strings.Contains(out, "Table 4") {
		t.Fatal("render broken")
	}
}

func TestFig11LatencyGrowsWithUsers(t *testing.T) {
	r := Fig11(Env{Platform: platform.RecRoom, Repeats: 6, Seed: 131, Workers: 3})
	if len(r.Users) != 6 {
		t.Fatalf("user counts = %v", r.Users)
	}
	first, last := r.E2E[0].Mean, r.E2E[len(r.E2E)-1].Mean
	if last <= first+10 {
		t.Fatalf("latency did not grow: %v -> %v ms", first, last)
	}
	// Paper: ~100 → ~140 ms for Rec Room from 2 to 7 users.
	if last > first*2.2 {
		t.Fatalf("latency growth too steep: %v -> %v", first, last)
	}
	if out := r.Render(); !strings.Contains(out, "Figure 11") {
		t.Fatal("render broken")
	}
}
