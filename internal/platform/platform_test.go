package platform

import (
	"slices"
	"testing"
	"time"

	"github.com/svrlab/svrlab/internal/capture"
	"github.com/svrlab/svrlab/internal/netsim"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/simtime"
	"github.com/svrlab/svrlab/internal/world"
)

// lab spins up a deployment with n muted clients of one platform at the
// campus site, launched at t=0 and joined at t=1s.
func lab(t *testing.T, name Name, n int, seed int64) (*simtime.Scheduler, *Deployment, []*Client) {
	t.Helper()
	sched := simtime.NewScheduler()
	dep := NewDeployment(sched, seed, nil)
	clients := make([]*Client, n)
	for i := range clients {
		c := NewClient(dep, name, "u"+itoa(i+1), SiteCampus, 10+i)
		c.Muted = true
		clients[i] = c
		sched.At(0, c.Launch)
		sched.At(time.Second, func() { c.JoinEvent("room-1") })
	}
	return sched, dep, clients
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestProfilesCompleteAndDistinct(t *testing.T) {
	all := All()
	if len(all) != 5 {
		t.Fatalf("platforms = %d", len(all))
	}
	seen := map[Name]bool{}
	for _, p := range all {
		if seen[p.Name] {
			t.Fatalf("duplicate profile %v", p.Name)
		}
		seen[p.Name] = true
		if p.Codec == nil || p.Features.Company == "" || p.Cost.BaseCPUms == 0 {
			t.Fatalf("%v: incomplete profile", p.Name)
		}
	}
	// Table 1 spot checks.
	if Get(Hubs).Features.Game {
		t.Fatal("Hubs does not support games")
	}
	if !Get(RecRoom).Features.NFT || !Get(RecRoom).Features.Shopping {
		t.Fatal("Rec Room supports shopping and NFT")
	}
	if Get(AltspaceVR).Features.FacialExpr {
		t.Fatal("AltspaceVR avatars lack facial expressions")
	}
	if !Get(AltspaceVR).ViewportAdaptive || Get(Worlds).ViewportAdaptive {
		t.Fatal("viewport optimization is AltspaceVR-only")
	}
	if !Get(Worlds).TCPPriority {
		t.Fatal("Worlds has TCP priority")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Get of unknown platform did not panic")
		}
	}()
	Get("SecondLife")
}

func TestTwoUserForwarding(t *testing.T) {
	sched, _, cs := lab(t, VRChat, 2, 1)
	sched.RunUntil(20 * time.Second)
	if cs[0].ForwardsReceived == 0 || cs[1].ForwardsReceived == 0 {
		t.Fatalf("forwards: %d / %d", cs[0].ForwardsReceived, cs[1].ForwardsReceived)
	}
	if cs[0].FreshRemotes() != 1 {
		t.Fatalf("fresh remotes = %d", cs[0].FreshRemotes())
	}
	// ~30 Hz for ~19 s.
	if cs[0].ForwardsReceived < 400 {
		t.Fatalf("only %d forwards, want ~570", cs[0].ForwardsReceived)
	}
}

// measureDataRate runs a 2-user session and returns U1's mean up/down data
// rate (all non-control traffic) in bits/s over the steady window.
func measureDataRate(t *testing.T, name Name, seed int64) (up, down float64) {
	t.Helper()
	sched, dep, cs := lab(t, name, 2, seed)
	sniff := capture.Attach(cs[0].Host)
	sched.RunUntil(62 * time.Second)
	ctrlAddr := dep.ControlEndpoint(cs[0].Profile, cs[0].Host.Site).Addr
	assetAddr := dep.AssetEndpoint(cs[0].Profile).Addr
	notCtrl := func(f packet.Flow) bool {
		return f.Src.Addr != assetAddr && f.Dst.Addr != assetAddr &&
			(name == Hubs || (f.Src.Addr != ctrlAddr && f.Dst.Addr != ctrlAddr))
	}
	from, to := 20*time.Second, 60*time.Second
	up = sniff.MeanBps(capture.MatchUp(notCtrl), from, to)
	down = sniff.MeanBps(capture.MatchDown(notCtrl), from, to)
	return up, down
}

func TestTable3ThroughputCalibration(t *testing.T) {
	// Bands around Table 3 (±40%): the *ordering* and order of magnitude
	// are what the paper's conclusions rest on.
	cases := []struct {
		name     Name
		up, down float64 // expected, bps
	}{
		{VRChat, 31_400, 31_300},
		{AltspaceVR, 41_300, 40_400},
		{RecRoom, 41_700, 41_500},
		{Worlds, 752_000, 413_000},
	}
	got := map[Name][2]float64{}
	for _, c := range cases {
		up, down := measureDataRate(t, c.name, 42)
		got[c.name] = [2]float64{up, down}
		if up < c.up*0.6 || up > c.up*1.4 {
			t.Errorf("%v uplink = %.0f bps, want %.0f ±40%%", c.name, up, c.up)
		}
		if down < c.down*0.6 || down > c.down*1.4 {
			t.Errorf("%v downlink = %.0f bps, want %.0f ±40%%", c.name, down, c.down)
		}
	}
	// Worlds ≫ everyone else (the headline Table 3 observation).
	if got[Worlds][0] < 8*got[RecRoom][0] {
		t.Errorf("Worlds uplink %.0f not ≫ RecRoom %.0f", got[Worlds][0], got[RecRoom][0])
	}
	// Worlds uplink noticeably exceeds its downlink (telemetry kept by server).
	if got[Worlds][0] < 1.4*got[Worlds][1] {
		t.Errorf("Worlds up/down = %.0f/%.0f, want uplink ≫ downlink", got[Worlds][0], got[Worlds][1])
	}
}

func TestHubsThroughputViaHTTPS(t *testing.T) {
	up, down := measureDataRate(t, Hubs, 7)
	// Table 3: ~83 kbit/s each way, inflated by HTTPS/JSON framing. The
	// band includes TCP ACK and handshake overheads.
	if down < 50_000 || down > 130_000 {
		t.Fatalf("Hubs downlink = %.0f bps, want ~83k", down)
	}
	if up < 50_000 || up > 130_000 {
		t.Fatalf("Hubs uplink = %.0f bps, want ~83k", up)
	}
}

func TestUplinkMatchesPeerDownlink(t *testing.T) {
	// Figure 3: U1's uplink data stream reappears as U2's downlink — the
	// direct-forwarding evidence.
	sched, dep, cs := lab(t, RecRoom, 2, 3)
	s1 := capture.Attach(cs[0].Host)
	s2 := capture.Attach(cs[1].Host)
	sched.RunUntil(60 * time.Second)
	_ = dep
	udp := capture.FilterProto(packet.ProtoUDP)
	from, to := 20*time.Second, 60*time.Second
	u1up := s1.MeanBps(capture.MatchUp(udp), from, to)
	u2down := s2.MeanBps(capture.MatchDown(udp), from, to)
	ratio := u2down / u1up
	// U2's downlink = U1's forwarded uplink + server sync/keepalive, so the
	// ratio should be near (but above) 1 minus telemetry kept by server.
	if ratio < 0.75 || ratio > 1.8 {
		t.Fatalf("u2down/u1up = %.2f (%.0f / %.0f), want ≈1", ratio, u2down, u1up)
	}
}

func TestThroughputScalesLinearlyWithUsers(t *testing.T) {
	// Figure 6/7 mechanism: U1's downlink grows ~linearly in the number of
	// other users because the server forwards everyone's avatar stream.
	rates := map[int]float64{}
	for _, n := range []int{2, 3, 5} {
		sched, _, cs := lab(t, VRChat, n, 5)
		sniff := capture.Attach(cs[0].Host)
		sched.RunUntil(40 * time.Second)
		udp := capture.FilterProto(packet.ProtoUDP)
		rates[n] = sniff.MeanBps(capture.MatchDown(udp), 20*time.Second, 40*time.Second)
	}
	// Marginal cost of each extra user should be roughly constant.
	d23 := rates[3] - rates[2]
	d35 := (rates[5] - rates[3]) / 2
	if d23 <= 0 || d35 <= 0 {
		t.Fatalf("downlink did not grow: %v", rates)
	}
	ratio := d35 / d23
	if ratio < 0.6 || ratio > 1.6 {
		t.Fatalf("marginal growth not linear: +%.0f (2→3) vs +%.0f/user (3→5)", d23, d35)
	}
	// Uplink must NOT grow with more users: check via a fresh run.
	sched2, _, cs2 := lab(t, VRChat, 5, 6)
	sniff2 := capture.Attach(cs2[0].Host)
	sched2.RunUntil(40 * time.Second)
	udp := capture.FilterProto(packet.ProtoUDP)
	up5 := sniff2.MeanBps(capture.MatchUp(udp), 20*time.Second, 40*time.Second)
	sched3, _, cs3 := lab(t, VRChat, 2, 6)
	sniff3 := capture.Attach(cs3[0].Host)
	sched3.RunUntil(40 * time.Second)
	up2 := sniff3.MeanBps(capture.MatchUp(udp), 20*time.Second, 40*time.Second)
	if up5 > up2*1.3 || up5 < up2*0.7 {
		t.Fatalf("uplink changed with users: %.0f (n=2) vs %.0f (n=5)", up2, up5)
	}
}

func TestAltspaceViewportFilterCutsTraffic(t *testing.T) {
	// §6.1: when the only other avatar is behind U1, the AltspaceVR server
	// stops forwarding it.
	sched, _, cs := lab(t, AltspaceVR, 2, 9)
	sniff := capture.Attach(cs[0].Host)
	center := world.Vec2{X: 10, Y: 10}
	sched.At(2*time.Second, func() {
		cs[0].StandAt(center, 0)                     // facing +X
		cs[1].StandAt(world.Vec2{X: 15, Y: 10}, 180) // dead ahead of U1
	})
	sched.At(40*time.Second, func() { cs[0].Turn(8) }) // 180°: U2 now behind
	sched.RunUntil(80 * time.Second)
	udp := capture.FilterProto(packet.ProtoUDP)
	facing := sniff.MeanBps(capture.MatchDown(udp), 10*time.Second, 40*time.Second)
	away := sniff.MeanBps(capture.MatchDown(udp), 50*time.Second, 80*time.Second)
	if away > facing*0.8 {
		t.Fatalf("turning away did not cut AltspaceVR downlink: %.0f -> %.0f bps", facing, away)
	}
	// The same manoeuvre on VRChat changes nothing.
	sched2, _, cs2 := lab(t, VRChat, 2, 9)
	sniff2 := capture.Attach(cs2[0].Host)
	sched2.At(2*time.Second, func() {
		cs2[0].StandAt(center, 0)
		cs2[1].StandAt(world.Vec2{X: 15, Y: 10}, 180)
	})
	sched2.At(40*time.Second, func() { cs2[0].Turn(8) })
	sched2.RunUntil(80 * time.Second)
	f2 := sniff2.MeanBps(capture.MatchDown(udp), 10*time.Second, 40*time.Second)
	a2 := sniff2.MeanBps(capture.MatchDown(udp), 50*time.Second, 80*time.Second)
	if a2 < f2*0.8 {
		t.Fatalf("VRChat downlink dropped after turn (%.0f -> %.0f) — no viewport filter expected", f2, a2)
	}
}

func TestWorldsTCPPriorityGatesUDP(t *testing.T) {
	// Figure 13 bottom: delaying only TCP uplink punches equal-length holes
	// in the UDP uplink.
	sched, _, cs := lab(t, Worlds, 2, 11)
	sniff := capture.Attach(cs[0].Host)
	sched.At(30*time.Second, func() {
		cs[0].Host.UpNetem = &netsim.Netem{Delay: 5 * time.Second, TCPOnly: true}
	})
	sched.RunUntil(70 * time.Second)
	udpUp := capture.MatchUp(capture.FilterProto(packet.ProtoUDP))
	series := sniff.Series(udpUp, 10*time.Second, 70*time.Second, time.Second)
	// Before disruption: continuous uplink, no silent second.
	quietBefore, quietDuring := 0, 0
	for i, v := range series.Values {
		ts := series.Start + time.Duration(i)*series.Step
		if v < 1000 {
			if ts < 30*time.Second {
				quietBefore++
			} else if ts > 32*time.Second && ts < 68*time.Second {
				quietDuring++
			}
		}
	}
	if quietBefore > 1 {
		t.Fatalf("%d quiet seconds before disruption", quietBefore)
	}
	// Reports fire every 10 s and each stalls UDP ~5 s: expect ≥8 quiet
	// seconds across the 36 s disruption window.
	if quietDuring < 8 {
		t.Fatalf("only %d quiet uplink seconds under 5s TCP delay, want ≥8", quietDuring)
	}
}

func TestWorldsSessionFreezesAfterTCPBlackhole(t *testing.T) {
	// Figure 13 bottom, 100% TCP loss: forwarding pauses, keepalives stop,
	// the app-level UDP session dies and never recovers.
	sched, _, cs := lab(t, Worlds, 2, 13)
	sched.At(30*time.Second, func() {
		cs[0].Host.UpNetem = &netsim.Netem{Loss: 1.0, TCPOnly: true}
	})
	sched.At(90*time.Second, func() { cs[0].Host.UpNetem = nil })
	sched.RunUntil(150 * time.Second)
	if !cs[0].Frozen {
		t.Fatal("client never froze under TCP blackhole")
	}
	if cs[0].FrozenAt < 45*time.Second || cs[0].FrozenAt > 90*time.Second {
		t.Fatalf("froze at %v, want tens of seconds after loss onset", cs[0].FrozenAt)
	}
	// After loss removal the UDP session stays dead: U2 sees no fresh U1.
	if cs[1].FreshRemotes() != 0 {
		t.Fatal("U2 still sees U1 after the session died")
	}
	// But TCP itself recovered (control channel alive).
	if cs[0].ctrlConn.State().String() != "established" {
		t.Fatalf("control TCP state = %v, want established (it recovers)", cs[0].ctrlConn.State())
	}
}

func TestLatencyRigProducesBreakdown(t *testing.T) {
	sched, dep, cs := lab(t, RecRoom, 2, 17)
	var ids []uint32
	for i := 0; i < 10; i++ {
		i := i
		sched.At(time.Duration(10+i)*time.Second, func() { ids = append(ids, cs[0].PerformAction()) })
	}
	sched.RunUntil(30 * time.Second)
	displayed := 0
	for _, id := range ids {
		if dep.Trace(id).Receiver(cs[1].User).Displayed {
			displayed++
		}
	}
	if len(ids) != 10 || displayed != 10 {
		t.Fatalf("displayed %d of %d actions, want 10 of 10", displayed, len(ids))
	}
	off1 := cs[0].MeasureClockOffset()
	off2 := cs[1].MeasureClockOffset()
	var e2eSum float64
	for _, id := range ids {
		tr := dep.Trace(id)
		rt := tr.Receiver("u2")
		if !rt.Displayed {
			t.Fatalf("action %d not displayed", id)
		}
		e2e := (rt.DisplayedAtLocal - off2) - (tr.TriggeredAtLocal - off1)
		if e2e <= 0 {
			t.Fatalf("non-positive e2e %v", e2e)
		}
		e2eSum += float64(e2e) / float64(time.Millisecond)
		// Breakdown stage ordering in sim time.
		if !(tr.SentAt < tr.ServerInAt && tr.ServerInAt < tr.ServerOutAt && tr.ServerOutAt < rt.ReceivedAt) {
			t.Fatalf("stage ordering broken: %+v / %+v", tr, rt)
		}
	}
	mean := e2eSum / float64(len(ids))
	// Table 4: Rec Room ≈ 102 ms.
	if mean < 60 || mean > 160 {
		t.Fatalf("Rec Room e2e = %.1f ms, want ~102", mean)
	}
}

func TestClockOffsetsDifferAndAreMeasurable(t *testing.T) {
	_, _, cs := lab(t, VRChat, 2, 19)
	if cs[0].clockOffset == cs[1].clockOffset {
		t.Fatal("suspiciously identical clock offsets")
	}
	measured := cs[0].MeasureClockOffset()
	err := measured - cs[0].clockOffset
	if err < -time.Millisecond || err > time.Millisecond {
		t.Fatalf("offset measurement error %v, want sub-ms", err)
	}
}

func TestColocatedUsersServerAssignment(t *testing.T) {
	sched, dep, cs := lab(t, VRChat, 2, 23)
	sched.RunUntil(5 * time.Second)
	_ = dep
	// VRChat load-balances co-located users onto different data endpoints.
	if cs[0].dataEP == cs[1].dataEP {
		t.Fatalf("VRChat gave both users the same data server %v", cs[0].dataEP)
	}
	// AltspaceVR pins them to the same one.
	sched2, _, cs2 := lab(t, AltspaceVR, 2, 23)
	sched2.RunUntil(5 * time.Second)
	if cs2[0].dataEP != cs2[1].dataEP {
		t.Fatalf("AltspaceVR split co-located users: %v vs %v", cs2[0].dataEP, cs2[1].dataEP)
	}
}

func TestHubsVoiceThroughSFU(t *testing.T) {
	sched, _, cs := lab(t, Hubs, 2, 29)
	// Unmute both so voice flows.
	cs[0].Muted = false
	cs[1].Muted = false
	sched.RunUntil(120 * time.Second)
	if cs[0].VoiceFwdReceived == 0 && cs[1].VoiceFwdReceived == 0 {
		t.Fatal("no voice forwarded through the SFU")
	}
	// WebRTC RTT measured via RTCP should reflect the west-coast SFU.
	rtt := cs[0].voice.RTT
	if rtt < 50*time.Millisecond || rtt > 110*time.Millisecond {
		t.Fatalf("SFU RTT = %v, want ~73ms", rtt)
	}
}

func TestPrivateHubsReducesServerLatency(t *testing.T) {
	sched := simtime.NewScheduler()
	dep := NewDeployment(sched, 31, nil)
	campus := dep.Sites[SiteCampus]
	publicSFU := dep.VoiceEndpoint(Get(Hubs), campus)
	publicVRChat := dep.ControlEndpoint(Get(VRChat), campus)
	private := dep.DeployPrivateHubs(SiteUSEast)
	cs := make([]*Client, 2)
	for i := range cs {
		c := NewClient(dep, Hubs, "p"+itoa(i+1), SiteCampus, 40+i)
		c.Muted = true
		cs[i] = c
		sched.At(0, c.Launch)
		sched.At(time.Second, func() { c.JoinEvent("priv") })
	}
	// A VRChat user in the same deployment stays on the public fleet.
	vr := NewClient(dep, VRChat, "v1", SiteCampus, 50)
	vr.Muted = true
	sched.At(0, vr.Launch)
	sched.At(time.Second, func() { vr.JoinEvent("pub") })
	var ids []uint32
	for i := 0; i < 8; i++ {
		sched.At(time.Duration(10+i)*time.Second, func() { ids = append(ids, cs[0].PerformAction()) })
	}
	sched.RunUntil(30 * time.Second)
	for _, c := range cs {
		if got := c.DataEndpointAddr(); got != private.Addr {
			t.Fatalf("%s control connection reaches %v, want the private instance %v", c.User, got, private.Addr)
		}
		if c.dataEP == publicSFU || c.dataEP.Port != PortSFU {
			t.Fatalf("%s voice goes to %v, want the private SFU (public is %v)", c.User, c.dataEP, publicSFU)
		}
	}
	if vr.ctrlConn.Remote != publicVRChat || vr.DataEndpointAddr() == 0 || vr.DataEndpointAddr() == private.Addr {
		t.Fatalf("VRChat control %v, data %v; want the public fleet (control %v)",
			vr.ctrlConn.Remote, vr.DataEndpointAddr(), publicVRChat)
	}
	var sum float64
	count := 0
	for _, id := range ids {
		tr := dep.Trace(id)
		if tr.ServerOutAt > tr.ServerInAt {
			sum += float64(tr.ServerOutAt-tr.ServerInAt) / float64(time.Millisecond)
			count++
		}
	}
	if count == 0 {
		t.Fatal("no private-Hubs actions traced")
	}
	mean := sum / float64(count)
	// Table 4: private Hubs server processing ≈ 16 ms vs public ≈ 52 ms.
	if mean < 8 || mean > 25 {
		t.Fatalf("private Hubs server latency = %.1f ms, want ~16", mean)
	}
}

func TestWorldsGameModeRaisesRates(t *testing.T) {
	sched, _, cs := lab(t, Worlds, 2, 37)
	sniff := capture.Attach(cs[0].Host)
	sched.At(10*time.Second, func() {
		cs[0].SetGame(true)
		cs[1].SetGame(true)
	})
	sched.RunUntil(70 * time.Second)
	udp := capture.FilterProto(packet.ProtoUDP)
	up := sniff.MeanBps(capture.MatchUp(udp), 30*time.Second, 70*time.Second)
	down := sniff.MeanBps(capture.MatchDown(udp), 30*time.Second, 70*time.Second)
	// §8.1: ~1.2 Mbps up / ~0.7 Mbps down during Arena Clash.
	if up < 800_000 || up > 1_600_000 {
		t.Fatalf("game uplink = %.0f bps, want ~1.2M", up)
	}
	if down < 450_000 || down > 1_000_000 {
		t.Fatalf("game downlink = %.0f bps, want ~0.7M", down)
	}
}

// roomUsers lists the users of be's room-1 in the order the room keeps them.
func roomUsers(be *Backend) []string {
	var users []string
	for _, m := range be.rooms["room-1"].members {
		users = append(users, m.User)
	}
	return users
}

// TestSessionExpiryLeavesRoom: a member whose control channel falls silent
// past expireAfter is torn down on Worlds, where the control reports are
// the liveness signal (§8.1), and on no other platform. Either way the
// room lists the remaining members in the order they joined, and
// forwarding between them goes on.
func TestSessionExpiryLeavesRoom(t *testing.T) {
	for _, p := range All() {
		t.Run(string(p.Name), func(t *testing.T) {
			sched, dep, cs := lab(t, p.Name, 4, 41)
			be := dep.Backend(p.Name)
			sched.RunUntil(10 * time.Second)
			joined := roomUsers(be)
			if len(joined) != 4 {
				t.Fatalf("room lists %v, want all four users", joined)
			}
			// u2's reports no longer reach the control server.
			cs[1].Host.UpNetem = &netsim.Netem{Loss: 1, TCPOnly: true}
			sched.RunUntil(80 * time.Second)
			want := joined
			if p.TCPPriority {
				want = slices.DeleteFunc(slices.Clone(joined), func(u string) bool { return u == "u2" })
			}
			if got := roomUsers(be); !slices.Equal(got, want) {
				t.Fatalf("room lists %v after u2's control channel fell silent, want %v", got, want)
			}
			if known := be.byUser["u2"] != nil; known == p.TCPPriority {
				t.Errorf("the backend knows u2: %v, want %v", known, !p.TCPPriority)
			}
			if r := cs[0].remotes["u3"]; r == nil || r.lastAt < 79*time.Second {
				t.Errorf("u1 stopped hearing u3 (%+v) after u2's control channel fell silent", r)
			}
			if p.TCPPriority {
				// An avatar upload from the expired member's endpoint finds
				// no member, so the server forwards it to no one.
				u2, sent := cs[1], sched.Now()
				u2.dataSock.SendTo(u2.dataEP, p.Codec.Encode(appendAvatar(nil, avatarMsg{Seq: 1}), &u2.pose))
				sched.RunUntil(sent + 2*time.Second)
				for _, c := range cs {
					if r := c.remotes["u2"]; r != nil && r.lastAt >= sent {
						t.Errorf("%s heard u2 at %v, after u2's session expired", c.User, r.lastAt)
					}
				}
			}
		})
	}
}

// TestRejoinKeepsOneMember: on every platform, a join from a user the room
// already lists (a second hello to the data server, or on Hubs a second
// join request on the control channel) keeps that user's one member: the
// room lists it once, in its place in join order, and no second set of
// member streams starts.
func TestRejoinKeepsOneMember(t *testing.T) {
	for _, p := range All() {
		t.Run(string(p.Name), func(t *testing.T) {
			sched, dep, cs := lab(t, p.Name, 3, 43)
			be := dep.Backend(p.Name)
			sched.RunUntil(10 * time.Second)
			joined := roomUsers(be)
			if len(joined) != 3 {
				t.Fatalf("room lists %v, want all three users", joined)
			}
			m := be.byUser["u1"]
			streams := len(m.stops)
			c := cs[0]
			if p.WebData {
				c.request(reqJoin, nil)
			} else {
				hello, err := marshalHello(helloMsg{Room: "room-1", User: c.User})
				if err != nil {
					t.Fatal(err)
				}
				c.dataSock.SendTo(c.dataEP, hello)
			}
			sched.RunUntil(15 * time.Second)
			if got := roomUsers(be); !slices.Equal(got, joined) {
				t.Fatalf("room lists %v after u1 joined again, want %v", got, joined)
			}
			if be.byUser["u1"] != m || len(m.stops) != streams {
				t.Errorf("u1's second join made a new member or started streams: %d streams, want %d", len(m.stops), streams)
			}
		})
	}
}
