package experiment

import (
	"strings"
	"testing"
	"time"

	"github.com/svrlab/svrlab/internal/capture"
	"github.com/svrlab/svrlab/internal/geo"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/platform"
)

func TestTable1MatchesPaperFeatureMatrix(t *testing.T) {
	r := Table1()
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byName := map[platform.Name]Table1Row{}
	for _, row := range r.Rows {
		byName[row.Platform] = row
	}
	if byName[platform.Hubs].Game {
		t.Fatal("Hubs row should have no game support")
	}
	if !byName[platform.Worlds].FacialExpr || byName[platform.Worlds].NFT {
		t.Fatal("Worlds row wrong")
	}
	if !strings.Contains(byName[platform.Hubs].Locomotion, "Fly") {
		t.Fatal("Hubs locomotion should include Fly")
	}
	out := r.Render()
	if !strings.Contains(out, "AltspaceVR ('15)") || !strings.Contains(out, "Rec Room") {
		t.Fatalf("render missing rows:\n%s", out)
	}
}

// TestClassifiersReadPayloadHead: Table 2's protocol column rests on the
// payload length and first bytes a capture record keeps. TLS record headers
// toward the server make a TCP channel HTTPS, and a majority of version-2
// RTP headers makes a UDP channel RTP/RTCP. Payloads too short to hold
// either header do not count, and traffic to another server is ignored.
func TestClassifiersReadPayloadHead(t *testing.T) {
	client, server, other := packet.MustParseAddr("10.0.0.2"), packet.MustParseAddr("10.9.0.1"), packet.MustParseAddr("10.9.0.2")
	rec := func(p *packet.Packet) capture.Record {
		p.IP.TTL = 64
		return capture.Record{Wire: p.Marshal()}
	}
	tcp := func(dst packet.Addr, payload ...byte) capture.Record {
		return rec(&packet.Packet{
			IP:  packet.IPv4{Protocol: packet.ProtoTCP, Src: client, Dst: dst},
			TCP: &packet.TCP{SrcPort: 5000, DstPort: 443}, Payload: payload,
		})
	}
	udp := func(dst packet.Addr, payload ...byte) capture.Record {
		return rec(&packet.Packet{
			IP:  packet.IPv4{Protocol: packet.ProtoUDP, Src: client, Dst: dst},
			UDP: &packet.UDP{SrcPort: 5000, DstPort: 9000}, Payload: payload,
		})
	}
	tls := []byte{packet.TLSApplicationData, 3, 3, 0, 1}
	cases := []struct {
		name     string
		recs     []capture.Record
		classify func(*capture.Sniffer, packet.Addr) string
		want     string
	}{
		{"tls record", []capture.Record{tcp(server), tcp(server, tls...)}, classifyTCP, "HTTPS"},
		{"tls header cut short", []capture.Record{tcp(server, tls[:4]...)}, classifyTCP, "TCP"},
		{"tls to another server", []capture.Record{tcp(other, tls...), tcp(server, 0x17)}, classifyTCP, "TCP"},
		{"rtp majority", []capture.Record{udp(server, 0x80, 0), udp(server, 0x90, 0), udp(server, 0x01, 0)}, classifyUDP, "RTP/RTCP"},
		{"one-byte payloads", []capture.Record{udp(server, 0x80), udp(server, 0x80)}, classifyUDP, "UDP"},
		{"rtp to another server", []capture.Record{udp(other, 0x80, 0), udp(other, 0x80, 0), udp(server, 0x01, 0)}, classifyUDP, "UDP"},
	}
	for _, c := range cases {
		if got := c.classify(capture.Restore(c.recs), server); got != c.want {
			t.Errorf("%s: classified %q, want %q", c.name, got, c.want)
		}
	}
}

func TestTable2InfrastructureShape(t *testing.T) {
	r := Table2(Env{Seed: 21, Workers: 2})
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	rows := map[platform.Name]Table2Row{}
	for _, row := range r.Rows {
		rows[row.Platform] = row
	}
	// Every control channel is HTTPS.
	for name, row := range rows {
		if row.Control.Protocol != "HTTPS" {
			t.Errorf("%v control protocol = %q, want HTTPS", name, row.Control.Protocol)
		}
	}
	// Data protocols: UDP everywhere except Hubs.
	for _, name := range []platform.Name{platform.AltspaceVR, platform.RecRoom, platform.VRChat, platform.Worlds} {
		if rows[name].Data.Protocol != "UDP" {
			t.Errorf("%v data protocol = %q, want UDP", name, rows[name].Data.Protocol)
		}
	}
	if !strings.Contains(rows[platform.Hubs].Data.Protocol, "RTP/RTCP") {
		t.Errorf("Hubs data protocol = %q", rows[platform.Hubs].Data.Protocol)
	}
	// Anycast flags per Table 2.
	if !rows[platform.AltspaceVR].Control.Anycast || rows[platform.AltspaceVR].Data.Anycast {
		t.Errorf("AltspaceVR anycast flags: ctrl=%v data=%v, want true/false",
			rows[platform.AltspaceVR].Control.Anycast, rows[platform.AltspaceVR].Data.Anycast)
	}
	if !rows[platform.RecRoom].Control.Anycast || !rows[platform.RecRoom].Data.Anycast {
		t.Error("Rec Room should be anycast on both channels")
	}
	if !rows[platform.VRChat].Data.Anycast || rows[platform.VRChat].Control.Anycast {
		t.Error("VRChat: data anycast, control unicast")
	}
	if rows[platform.Worlds].Control.Anycast || rows[platform.Worlds].Data.Anycast {
		t.Error("Worlds should be unicast on both channels")
	}
	// RTT magnitudes: AltspaceVR data and Hubs channels are west-coast
	// (~70ms); the rest are <6ms from the east-coast campus.
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	if v := ms(rows[platform.AltspaceVR].Data.RTTAvg); v < 50 || v > 100 {
		t.Errorf("AltspaceVR data RTT = %.1fms, want ~72", v)
	}
	if v := ms(rows[platform.AltspaceVR].Control.RTTAvg); v > 8 {
		t.Errorf("AltspaceVR control RTT = %.1fms, want <8 (anycast)", v)
	}
	if v := ms(rows[platform.Hubs].Control.RTTAvg); v < 50 || v > 100 {
		t.Errorf("Hubs control RTT = %.1fms, want ~74 (west coast)", v)
	}
	if v := ms(rows[platform.Hubs].Data.RTTAvg); v < 50 || v > 110 {
		t.Errorf("Hubs SFU RTT = %.1fms, want ~73 (WebRTC stats)", v)
	}
	for _, name := range []platform.Name{platform.RecRoom, platform.VRChat, platform.Worlds} {
		if v := ms(rows[name].Control.RTTAvg); v > 8 {
			t.Errorf("%v control RTT = %.1fms, want <8", name, v)
		}
		if v := ms(rows[name].Data.RTTAvg); v > 8 {
			t.Errorf("%v data RTT = %.1fms, want <8", name, v)
		}
	}
	// Owners per Table 2.
	if rows[platform.Worlds].Data.Owner != geo.OwnerMeta || rows[platform.RecRoom].Data.Owner != geo.OwnerCloudflare {
		t.Error("data-channel owners wrong")
	}
	if rows[platform.RecRoom].Control.Owner != geo.OwnerANS || rows[platform.VRChat].Control.Owner != geo.OwnerAWS {
		t.Error("control-channel owners wrong")
	}
	// §4.2 extras: Europe→Hubs data stays west coast (~140-150ms);
	// Worlds skipped in Europe.
	foundHubsEU := false
	for _, e := range r.Extras {
		if e.Platform == platform.Hubs && e.Vantage == platform.SiteEurope && e.Channel == "data" {
			foundHubsEU = true
			if v := ms(e.RTT); v < 100 || v > 190 {
				t.Errorf("Hubs data RTT from Europe = %.1fms, want ~140", v)
			}
		}
		if e.Platform == platform.Worlds && e.Vantage == platform.SiteEurope {
			t.Error("Worlds probed from Europe despite availability restriction")
		}
	}
	if !foundHubsEU {
		t.Error("missing Hubs-from-Europe measurement")
	}
	if len(r.Skipped) == 0 {
		t.Error("expected a skipped-vantage note for Worlds")
	}
	if out := r.Render(); !strings.Contains(out, "Table 2") {
		t.Fatal("render broken")
	}
}

func TestFig2ChannelPhases(t *testing.T) {
	r := Fig2(Env{Platform: platform.VRChat, Seed: 33})
	// Data channel silent on the welcome page, active in the event.
	if w := r.WelcomeDataMean(); w > 2000 {
		t.Fatalf("welcome data = %.0f bps, want ≈0", w)
	}
	if e := r.EventDataMean(); e < 10_000 {
		t.Fatalf("event data = %.0f bps, want tens of kbps", e)
	}
	// Control channel active on the welcome page (menu browsing).
	if c := r.WelcomeControlMean(); c < 1_000 {
		t.Fatalf("welcome control = %.0f bps, want bursty activity", c)
	}
	if out := r.Render(); !strings.Contains(out, "Figure 2") {
		t.Fatal("render broken")
	}
}

func TestFig2AltspaceHasPeriodicControlSpikes(t *testing.T) {
	r := Fig2(Env{Platform: platform.AltspaceVR, Seed: 35})
	// During the event, the control channel shows the ~10 s report spikes:
	// several seconds with uplink activity well above the median.
	spikes := 0
	for i := 95; i < len(r.ControlUp.Values); i++ {
		if r.ControlUp.Values[i] > 8_000 {
			spikes++
		}
	}
	if spikes < 4 {
		t.Fatalf("control uplink spikes = %d, want ≥4 (one per ~10s)", spikes)
	}
}

func TestTable3AvatarShares(t *testing.T) {
	r := Table3(Env{Seed: 51, Repeats: 2, Workers: 2})
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byName := map[platform.Name]Table3Row{}
	for _, row := range r.Rows {
		byName[row.Platform] = row
	}
	// Avatar share is a large portion of the total for most platforms and
	// dominated by Worlds (§5.2).
	worlds := byName[platform.Worlds]
	if worlds.AvatarMean < 5*byName[platform.RecRoom].AvatarMean {
		t.Errorf("Worlds avatar share %.0f not ≫ RecRoom %.0f", worlds.AvatarMean, byName[platform.RecRoom].AvatarMean)
	}
	if byName[platform.AltspaceVR].AvatarMean > byName[platform.VRChat].AvatarMean {
		t.Error("armless AltspaceVR avatar should cost less than VRChat's")
	}
	for name, row := range byName {
		if row.AvatarMean <= 0 {
			t.Errorf("%v: zero avatar share", name)
		}
		if row.AvatarMean > row.DownMean*1.15 {
			t.Errorf("%v: avatar share %.0f exceeds downlink %.0f", name, row.AvatarMean, row.DownMean)
		}
		if row.Resolution.W == 0 {
			t.Errorf("%v: missing resolution", name)
		}
	}
	// Throughput is independent of resolution: AltspaceVR has the highest
	// resolution but not the highest throughput.
	if byName[platform.AltspaceVR].Resolution.W <= byName[platform.RecRoom].Resolution.W {
		t.Error("AltspaceVR should have the highest resolution")
	}
	if byName[platform.AltspaceVR].DownMean > byName[platform.Worlds].DownMean {
		t.Error("resolution does not drive throughput")
	}
	if out := r.Render(); !strings.Contains(out, "Table 3") {
		t.Fatal("render broken")
	}
}

func TestFig3ForwardingCorrelation(t *testing.T) {
	r := Fig3(Env{Platform: platform.RecRoom, Seed: 61})
	if r.MeanRatio < 0.7 || r.MeanRatio > 1.9 {
		t.Fatalf("mean ratio = %.2f, want ≈1 (direct forwarding)", r.MeanRatio)
	}
	if out := r.Render(); !strings.Contains(out, "Figure 3") {
		t.Fatal("render broken")
	}
}

func TestFig6JoinStaircase(t *testing.T) {
	r := Fig6(Env{Platform: platform.VRChat, Seed: 71}, Fig6FacingJoiners)
	sm := r.StepMeans() // intervals: pre-join, +1, +2, +3, +4 users, post-turn
	for i := 1; i < 5; i++ {
		if sm[i] <= sm[i-1] {
			t.Fatalf("downlink staircase broken at step %d: %v", i, sm)
		}
	}
	// VRChat: no viewport filter — turning away changes nothing.
	if sm[5] < sm[4]*0.75 {
		t.Fatalf("VRChat downlink dropped after turn: %v", sm)
	}
}

func TestFig6AltspaceViewportBothVariants(t *testing.T) {
	// Exp. 1: facing joiners — downlink rises, then falls at the turn.
	r := Fig6(Env{Platform: platform.AltspaceVR, Seed: 73}, Fig6FacingJoiners)
	sm := r.StepMeans()
	if sm[4] <= sm[0] {
		t.Fatalf("no growth while facing joiners: %v", sm)
	}
	if sm[5] > sm[4]*0.6 {
		t.Fatalf("turn did not cut AltspaceVR downlink: %v", sm)
	}
	// Exp. 2: facing the corner — downlink stays low despite joins, then
	// jumps at the turn.
	r2 := Fig6(Env{Platform: platform.AltspaceVR, Seed: 74}, Fig6FacingCorner)
	sm2 := r2.StepMeans()
	if sm2[4] > sm2[0]*3+3000 {
		t.Fatalf("corner-facing downlink grew with invisible joiners: %v", sm2)
	}
	if sm2[5] < sm2[4]*2 {
		t.Fatalf("turning toward the crowd did not raise downlink: %v", sm2)
	}
	if out := r2.Render(); !strings.Contains(out, "Exp. 2") {
		t.Fatal("render broken")
	}
}

func TestScalingSmall(t *testing.T) {
	r := Scaling(Env{Platform: platform.RecRoom, Counts: []int{1, 3, 5}, Repeats: 2, Seed: 81, Workers: 3})
	if len(r.Points) != 3 {
		t.Fatalf("points = %d", len(r.Points))
	}
	if !(r.Points[0].DownBps.Mean < r.Points[1].DownBps.Mean && r.Points[1].DownBps.Mean < r.Points[2].DownBps.Mean) {
		t.Fatalf("downlink not increasing: %v %v %v",
			r.Points[0].DownBps.Mean, r.Points[1].DownBps.Mean, r.Points[2].DownBps.Mean)
	}
	if r.Points[2].CPU.Mean <= r.Points[0].CPU.Mean {
		t.Fatal("CPU not growing with users")
	}
	if r.Points[2].MemMB.Mean <= r.Points[0].MemMB.Mean {
		t.Fatal("memory not growing with users")
	}
	if r.Points[2].FPS.Mean > r.Points[0].FPS.Mean+1 {
		t.Fatal("FPS should not improve with more users")
	}
	// Battery drain is %/min over the 20-60 s steady window; the paper saw
	// <10% over a 10-minute experiment.
	if d := r.Points[2].Battery.Mean; d <= 0 || d*10 > 10 {
		t.Fatalf("battery drain %.2f%%/min, want in (0, 1)", d)
	}
	slope, r2 := r.LinearFitDown()
	if slope <= 0 || r2 < 0.95 {
		t.Fatalf("downlink growth not linear: slope=%.0f R²=%.2f", slope, r2)
	}
	if out := r.Render(); !strings.Contains(out, "Figures 7+8") {
		t.Fatal("render broken")
	}
}

func TestWorldsRespectsEventCap(t *testing.T) {
	r := Scaling(Env{Platform: platform.Worlds, Counts: []int{15, 20}, Repeats: 1, Seed: 83, Workers: 2})
	// 20 exceeds the 16-user cap and must be skipped.
	if len(r.Points) != 1 || r.Points[0].Users != 15 {
		t.Fatalf("points = %+v, want only 15", r.Points)
	}
}

func TestFig9PrivateHubsLargeScale(t *testing.T) {
	r := Fig9(Env{Counts: []int{15, 22}, Repeats: 1, Seed: 91, Workers: 2})
	if len(r.Points) != 2 {
		t.Fatalf("points = %d", len(r.Points))
	}
	if r.Points[1].DownBps.Mean <= r.Points[0].DownBps.Mean {
		t.Fatal("throughput did not keep increasing to 22 users")
	}
	if r.Points[1].FPS.Mean >= r.Points[0].FPS.Mean {
		t.Fatal("FPS did not keep dropping")
	}
	if out := r.Render(); !strings.Contains(out, "Figure 9") {
		t.Fatal("render broken")
	}
}

func TestViewportWidthDetection(t *testing.T) {
	r := Viewport(Env{Platform: platform.AltspaceVR, Seed: 101})
	if r.EstimatedWidthDeg < 112 || r.EstimatedWidthDeg > 190 {
		t.Fatalf("estimated width = %.1f°, want ≈150", r.EstimatedWidthDeg)
	}
	if r.MaxSavingFrac < 0.45 || r.MaxSavingFrac > 0.70 {
		t.Fatalf("saving = %.2f, want ≈0.58", r.MaxSavingFrac)
	}
	// Control platform: no modulation.
	r2 := Viewport(Env{Platform: platform.RecRoom, Seed: 102})
	if r2.MaxSavingFrac != 0 {
		t.Fatalf("Rec Room shows viewport modulation: %+v", r2)
	}
	if out := r.Render(); !strings.Contains(out, "viewport") {
		t.Fatal("render broken")
	}
}
