package experiment

import (
	"strings"
	"testing"

	"github.com/svrlab/svrlab/internal/chaos"
	"github.com/svrlab/svrlab/internal/obs"
	"github.com/svrlab/svrlab/internal/platform"
)

func TestFig12DownlinkDisruption(t *testing.T) {
	reg := obs.NewRegistry()
	r := Fig12(Env{Seed: 141, Metrics: reg})
	if len(r.Stages) != 7 {
		t.Fatalf("stages = %d", len(r.Stages))
	}
	// Unconstrained game throughput first: find stage means.
	// Stage 0 = 1.0 Mbps cap; stage 5 = 0.1; stage 6 = recovery.
	down0 := stageMean(&r.Down, r.Stages, r.Total, 0)
	down5 := stageMean(&r.Down, r.Stages, r.Total, 5)
	downN := stageMean(&r.Down, r.Stages, r.Total, 6)
	if down5 > 0.15e6 {
		t.Fatalf("0.1 Mbps stage downlink = %.2f Mbps — cap not enforced", down5/1e6)
	}
	if down0 < down5*3 {
		t.Fatalf("down at 1.0 Mbps (%.2f) not ≫ down at 0.1 (%.2f)", down0/1e6, down5/1e6)
	}
	// Aggressive behaviour: under a tight cap, the measured downlink sits
	// near the cap (the server keeps pushing).
	if down5 < 0.05e6 {
		t.Fatalf("downlink collapsed instead of filling the 0.1 Mbps cap: %.2f", down5/1e6)
	}
	// Recovery restores throughput.
	if downN < down0*0.6 {
		t.Fatalf("recovery stage down = %.2f Mbps vs %.2f initially", downN/1e6, down0/1e6)
	}
	// CPU rises and FPS falls under the tightest caps (§8.1).
	cpu0, cpu5 := stageMean(&r.CPU, r.Stages, r.Total, 0), stageMean(&r.CPU, r.Stages, r.Total, 5)
	if cpu5 <= cpu0 {
		t.Fatalf("CPU did not rise under downlink pressure: %.1f -> %.1f", cpu0, cpu5)
	}
	fps0, fps5 := stageMean(&r.FPS, r.Stages, r.Total, 0), stageMean(&r.FPS, r.Stages, r.Total, 5)
	if fps5 >= fps0 {
		t.Fatalf("FPS did not fall under pressure: %.1f -> %.1f", fps0, fps5)
	}
	if stageMean(&r.Stale, r.Stages, r.Total, 5) <= stageMean(&r.Stale, r.Stages, r.Total, 0) {
		t.Fatal("stale frames did not rise")
	}
	// Uplink fluctuation: uplink drops below its unconstrained value when
	// the client is busy recovering.
	up0, up5 := stageMean(&r.Up, r.Stages, r.Total, 0), stageMean(&r.Up, r.Stages, r.Total, 5)
	if up5 >= up0*0.9 {
		t.Fatalf("uplink unaffected by downlink pressure: %.2f -> %.2f Mbps", up0/1e6, up5/1e6)
	}
	if out := r.Render(); !strings.Contains(out, "Figure 12") {
		t.Fatal("render broken")
	}
	// The tight downlink caps must leave a trace in the fabric metrics:
	// the shaper's bounded queue tail-drops on the impaired direction.
	snap := reg.Snapshot()
	if snap.Counter("netsim.drop.netem.queue.down") == 0 {
		t.Fatalf("no downlink netem queue drops recorded under 0.1 Mbps cap; metrics:\n%s", snap)
	}
	if snap.Counter("netsim.packets.delivered") == 0 {
		t.Fatal("fabric delivered-packet counter empty")
	}
}

func TestFig13UplinkBandwidthStages(t *testing.T) {
	r := Fig13(Env{Seed: 151}, Fig13Bandwidth)
	// Uplink honours the caps: 0.3 Mbps stage ≪ 1.5 Mbps stage.
	up0 := stageMean(&r.UDPUp, r.Stages, r.Total, 0)
	up5 := stageMean(&r.UDPUp, r.Stages, r.Total, 5)
	if up5 > 0.45e6 {
		t.Fatalf("0.3 Mbps stage uplink = %.2f Mbps", up5/1e6)
	}
	if up0 < up5*2 {
		t.Fatalf("uplink caps not visible: %.2f vs %.2f", up0/1e6, up5/1e6)
	}
	// Constrained uplink reduces U1's downlink (the peer's recovery loop
	// reacts to missing data, §8.1).
	down0, down5 := stageMean(&r.UDPDown, r.Stages, r.Total, 0), stageMean(&r.UDPDown, r.Stages, r.Total, 5)
	if down5 >= down0 {
		t.Fatalf("U1 downlink unaffected by uplink cap: %.2f -> %.2f", down0/1e6, down5/1e6)
	}
}

func TestFig13TCPOnlyControl(t *testing.T) {
	reg := obs.NewRegistry()
	r := Fig13(Env{Seed: 161, Metrics: reg}, Fig13TCPOnly)
	// Gaps in UDP uplink during the TCP delay stages.
	if r.UDPGapSeconds < 10 {
		t.Fatalf("UDP gap seconds = %d, want many (TCP-priority stalls)", r.UDPGapSeconds)
	}
	// 100% TCP loss stage kills the app-level UDP session for good.
	if !r.Frozen {
		t.Fatal("session did not freeze under TCP blackhole")
	}
	if out := r.Render(); !strings.Contains(out, "frozen") {
		t.Fatal("render broken")
	}
	// Once the blackhole clears, the control connection carries TCP to U1
	// again — unless its server is gone: crashed at 190 s, inside the
	// blackhole, and never restarted.
	if !r.TCPRecovered {
		t.Fatal("TCP did not recover after the blackhole")
	}
	crash := &chaos.Spec{Faults: []chaos.SpecFault{{
		Kind: "host-crash", Host: "Horizon Worlds-us-east-157.240.0.57", Start: "190s",
	}}}
	if Fig13(Env{Seed: 161, Chaos: crash}, Fig13TCPOnly).TCPRecovered {
		t.Fatal("TCP recovered although the control server never came back")
	}
	// The delay stages stall TCP past its RTO: the metrics registry must
	// show retransmissions and timer backoffs (the fig13 acceptance
	// invariant — delay-induced retransmits are observable, not inferred).
	snap := reg.Snapshot()
	if snap.Counter("transport.retransmits") == 0 {
		t.Fatalf("no TCP retransmits recorded during delay stages; metrics:\n%s", snap)
	}
	if snap.Counter("transport.rto_backoffs") == 0 {
		t.Fatalf("no RTO backoffs recorded during delay stages; metrics:\n%s", snap)
	}
}

func TestDisruptLatencyLossQoE(t *testing.T) {
	r := DisruptLatencyLoss(Env{Seed: 171})
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Game == "" {
			t.Errorf("%v: missing game name", row.Platform)
		}
		// Added delay raises E2E roughly additively.
		if len(row.E2EMs) != 3 {
			t.Fatalf("%v: e2e sweep = %v", row.Platform, row.E2EMs)
		}
		if row.E2EMs[2] < row.BaselineE2EMs+120 {
			t.Errorf("%v: +200ms added but e2e only %.1f (baseline %.1f)",
				row.Platform, row.E2EMs[2], row.BaselineE2EMs)
		}
		// Loss tolerance: at 20% loss most avatar updates still arrive and
		// the stream keeps flowing (UDP, no retransmission).
		if row.DeliveredAt20PctLoss < 0.6 || row.DeliveredAt20PctLoss > 1.0 {
			t.Errorf("%v: delivery at 20%% loss = %.2f", row.Platform, row.DeliveredAt20PctLoss)
		}
	}
	if out := r.Render(); !strings.Contains(out, "§8.2") {
		t.Fatal("render broken")
	}
}

func TestRemoteRenderingAblation(t *testing.T) {
	r := RemoteAblation(Env{Platform: platform.RecRoom, Counts: []int{2, 8}, Seed: 181, Workers: 2})
	if len(r.Points) != 2 {
		t.Fatalf("points = %d", len(r.Points))
	}
	p2, p8 := r.Points[0], r.Points[1]
	// Local downlink grows with users; remote stays flat.
	if p8.LocalDownBps < p2.LocalDownBps*2 {
		t.Fatalf("local downlink should grow: %.0f -> %.0f", p2.LocalDownBps, p8.LocalDownBps)
	}
	ratio := p8.RemoteDownBps / p2.RemoteDownBps
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("remote downlink varies with users: ratio %.2f", ratio)
	}
	// Remote downlink is video-scale (≫ avatar streams) but user-count
	// independent; client FPS holds at refresh.
	if p8.RemoteDownBps < 5e6 {
		t.Fatalf("remote stream = %.1f Mbps, want video-scale", p8.RemoteDownBps/1e6)
	}
	if p8.RemoteFPS != 72 {
		t.Fatalf("remote client FPS = %.1f, want 72", p8.RemoteFPS)
	}
	if out := r.Render(); !strings.Contains(out, "§6.3") {
		t.Fatal("render broken")
	}
}

func TestP2PAblation(t *testing.T) {
	r := P2PAblation(Env{Platform: platform.VRChat, Counts: []int{2, 6}, Seed: 191, Workers: 2})
	if len(r.Points) != 2 {
		t.Fatalf("points = %d", len(r.Points))
	}
	p2, p6 := r.Points[0], r.Points[1]
	// P2P uplink grows with the peer count (each client unicasts to all).
	if p6.P2PUplinkBps < p2.P2PUplinkBps*2 {
		t.Fatalf("P2P uplink should grow with users: %.0f -> %.0f", p2.P2PUplinkBps, p6.P2PUplinkBps)
	}
	// Server architecture: uplink stays flat.
	if p6.ServerUplinkBps > p2.ServerUplinkBps*1.4 {
		t.Fatalf("server-mode uplink grew: %.0f -> %.0f", p2.ServerUplinkBps, p6.ServerUplinkBps)
	}
	if out := r.Render(); !strings.Contains(out, "P2P") {
		t.Fatal("render broken")
	}
}

func TestDecimationAblation(t *testing.T) {
	r := Decimate(Env{Platform: platform.VRChat, Counts: []int{8}, Seed: 211, Workers: 2})
	if len(r.Points) != 1 {
		t.Fatalf("points = %d", len(r.Points))
	}
	pt := r.Points[0]
	// With users spread on a 3m-radius circle and a 2m interact radius,
	// most pairs are "distant": a 1/3 decimation should cut a noticeable
	// fraction of the avatar downlink.
	if pt.SavingFraction < 0.20 || pt.SavingFraction > 0.75 {
		t.Fatalf("decimation saving = %.2f, want a substantial fraction", pt.SavingFraction)
	}
	if pt.DecimatedBps >= pt.FullDownBps {
		t.Fatal("decimation did not reduce downlink")
	}
	if out := r.Render(); !strings.Contains(out, "decimation") {
		t.Fatal("render broken")
	}
}
