package platform

import (
	"testing"
	"time"

	"github.com/svrlab/svrlab/internal/avatar"
	"github.com/svrlab/svrlab/internal/capture"
	"github.com/svrlab/svrlab/internal/device"
	"github.com/svrlab/svrlab/internal/netsim"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/secure"
	"github.com/svrlab/svrlab/internal/simtime"
	"github.com/svrlab/svrlab/internal/transport"
)

// TestGestureDrivesRemoteExpression reproduces the Figure 5 behaviour:
// U1 performs a thumbs-up on Worlds; U2's copy of U1's avatar smiles.
func TestGestureDrivesRemoteExpression(t *testing.T) {
	sched, _, cs := lab(t, Worlds, 2, 55)
	var lastFace []uint8
	var lastFingers [2][5]uint8
	// Decode the pose stream U2 receives from a tap at U2's access point:
	// every forward from u1 after the gesture, decoded as it arrives.
	codec := Get(Worlds).Codec
	cs[1].Host.Tap(func(at time.Duration, dir netsim.Dir, wire []byte) {
		pk, err := packet.Decode(wire)
		if err != nil || at <= 10*time.Second || dir != netsim.DirDown || pk.UDP == nil ||
			len(pk.Payload) == 0 || pk.Payload[0] != kindForward {
			return
		}
		f, err := parseForward(pk.Payload)
		if err != nil || string(f.User) != "u1" {
			return
		}
		var pose avatar.Pose
		if err := codec.Decode(f.Pose, &pose); err == nil {
			lastFace = pose.Face
			lastFingers = pose.Fingers
		}
	})
	sched.RunUntil(10 * time.Second)
	sched.At(10*time.Second+time.Millisecond, func() { cs[0].PerformGesture(avatar.GestureThumbsUp) })
	sched.RunUntil(11 * time.Second)

	if len(lastFace) == 0 {
		t.Fatal("no decoded forward for u1 after the gesture")
	}
	if lastFace[avatar.ExprSmile] != 255 {
		t.Fatalf("thumbs-up did not reach U2's view: smile=%d", lastFace[avatar.ExprSmile])
	}
	if g := avatar.RecognizeGesture(&avatar.Pose{Face: lastFace, Fingers: lastFingers, Hands: [2]avatar.Joint{{Rot: avatar.QuatFromYawDeg(10)}}}); g != avatar.GestureThumbsUp {
		t.Fatalf("gesture not recognizable from the wire pose: %v", g)
	}
	// The gesture lasts 2 s: afterwards the face and fingers relax. The
	// client reuses one pose for every update, so this also checks that
	// nothing of the gesture outlives its window.
	sched.RunUntil(13 * time.Second)
	if lastFace[avatar.ExprSmile] != 0 || lastFingers != ([2][5]uint8{}) {
		t.Fatalf("gesture outlived its window: smile=%d fingers=%v", lastFace[avatar.ExprSmile], lastFingers)
	}
}

// TestGestureNoOpOnFacelessPlatform: AltspaceVR avatars have no facial
// expressions (Table 1) — gestures change nothing on the wire.
func TestGestureNoOpOnFacelessPlatform(t *testing.T) {
	sched, _, cs := lab(t, AltspaceVR, 2, 56)
	sniff := capture.Attach(cs[0].Host)
	sched.RunUntil(10 * time.Second)
	preBytes := sniff.Bytes(capture.MatchUp(capture.FilterProto(packet.ProtoUDP)), 5*time.Second, 10*time.Second)
	sched.At(10*time.Second, func() { cs[0].PerformGesture(avatar.GestureThumbsUp) })
	sched.RunUntil(15 * time.Second)
	postBytes := sniff.Bytes(capture.MatchUp(capture.FilterProto(packet.ProtoUDP)), 10*time.Second, 15*time.Second)
	diff := float64(postBytes) - float64(preBytes)
	if diff > float64(preBytes)/10 || diff < -float64(preBytes)/10 {
		t.Fatalf("gesture changed AltspaceVR traffic: %d -> %d bytes", preBytes, postBytes)
	}
}

// TestInitDownloadSizes verifies the §5.2 background-download behaviours:
// AltspaceVR/VRChat fetch 10-30 MB at initialization, Worlds ~5 MB, Rec
// Room nothing (pre-installed), Hubs ~20 MB at every join.
func TestInitDownloadSizes(t *testing.T) {
	measure := func(name Name, until time.Duration) int {
		sched := simtime.NewScheduler()
		dep := NewDeployment(sched, 77, nil)
		c := NewClient(dep, name, "dl", SiteCampus, 10)
		c.Muted = true
		sniff := capture.Attach(c.Host)
		sched.At(0, c.Launch)
		if until > 30*time.Second {
			sched.At(30*time.Second, func() { c.JoinEvent("dl-room") })
		}
		sched.RunUntil(until)
		asset := dep.AssetEndpoint(c.Profile).Addr
		return sniff.Bytes(capture.MatchDown(capture.FilterRemote(asset)), 0, until)
	}
	if got := measure(VRChat, 30*time.Second); got < 10<<20 || got > 35<<20 {
		t.Errorf("VRChat init download = %d MB, want 10-30", got>>20)
	}
	if got := measure(Worlds, 30*time.Second); got < 4<<20 || got > 8<<20 {
		t.Errorf("Worlds init download = %d MB, want ~5", got>>20)
	}
	if got := measure(RecRoom, 30*time.Second); got > 1<<20 {
		t.Errorf("Rec Room downloaded %d bytes at launch, want ~none (pre-installed)", got)
	}
	// Hubs: nothing at launch, ~20 MB at join (the §5.2 caching bug).
	if got := measure(Hubs, 29*time.Second); got > 1<<20 {
		t.Errorf("Hubs downloaded %d bytes before joining", got)
	}
	if got := measure(Hubs, 60*time.Second); got < 15<<20 || got > 30<<20 {
		t.Errorf("Hubs join download = %d MB, want ~20", got>>20)
	}
}

// TestDownloadDeliversWholeResponse pins the download misparse: VRChat's
// 22 MiB response exceeds the message reader's bound, so the client's old
// no-op reader dropped its header as corrupt and parsed the zero body as
// millions of empty messages. The client session must count exactly the
// response's 5+n bytes, and the asset connection must end drained: every
// byte the server sent acked, none left queued.
func TestDownloadDeliversWholeResponse(t *testing.T) {
	sched := simtime.NewScheduler()
	dep := NewDeployment(sched, 77, nil)
	c := NewClient(dep, VRChat, "dl", SiteCampus, 10)
	n := c.Profile.Traffic.InitDownloadBytes
	if n <= secure.MaxMsgLen {
		t.Fatalf("VRChat init download %d bytes no longer exceeds the reader bound %d", n, secure.MaxMsgLen)
	}
	var sess *secure.Session
	sched.At(0, func() { sess = c.download(n) })
	sched.RunUntil(60 * time.Second)
	if sess.AppBytesRecv != 5+n {
		t.Fatalf("client session received %d application bytes, want %d", sess.AppBytesRecv, 5+n)
	}
	var server, client *transport.ConnAudit
	for _, a := range c.Stack.AuditConns() {
		if a.Remote == dep.AssetEndpoint(c.Profile) {
			client = &a
		}
	}
	if client == nil {
		t.Fatal("the client has no connection to the asset endpoint")
	}
	for _, ep := range dep.Net.Endpoints() {
		if st, ok := ep.(*transport.Stack); ok {
			for _, a := range st.AuditConns() {
				if a.Remote == client.Local {
					server = &a
				}
			}
		}
	}
	if server == nil {
		t.Fatal("no stack holds the server end of the asset connection")
	}
	if server.StreamAcked != server.StreamSent || server.BufferedBytes != 0 {
		t.Fatalf("asset connection not drained: %d of %d bytes acked, %d buffered",
			server.StreamAcked, server.StreamSent, server.BufferedBytes)
	}
	if client.StreamRecv != server.StreamSent {
		t.Fatalf("client received %d stream bytes, server sent %d", client.StreamRecv, server.StreamSent)
	}
}

// TestAssetServerCapsResponse: the asset server answers a download request
// with its 5-byte message header and the size it names, up to
// maxAssetBytes; a larger 32-bit size gets no response at all. A request
// for exactly the cap starts a response within seconds.
func TestAssetServerCapsResponse(t *testing.T) {
	for _, tc := range []struct {
		n       int
		horizon time.Duration
		want    func(got int) bool
	}{
		{4096, 30 * time.Second, func(got int) bool { return got == 5+4096 }},
		{maxAssetBytes, 5 * time.Second, func(got int) bool { return got > 0 }},
		{maxAssetBytes + 1, 30 * time.Second, func(got int) bool { return got == 0 }},
	} {
		sched := simtime.NewScheduler()
		dep := NewDeployment(sched, 77, nil)
		c := NewClient(dep, VRChat, "dl", SiteCampus, 10)
		var sess *secure.Session
		sched.At(0, func() { sess = c.download(tc.n) })
		sched.RunUntil(tc.horizon)
		if !tc.want(sess.AppBytesRecv) {
			t.Errorf("a %d-byte request delivered %d application bytes in %v", tc.n, sess.AppBytesRecv, tc.horizon)
		}
	}
}

// TestWelcomePageControlTraffic checks the §5.1 control-channel ranges:
// bursty, small totals (a few KB up, tens-to-hundreds KB down).
func TestWelcomePageControlTraffic(t *testing.T) {
	sched := simtime.NewScheduler()
	dep := NewDeployment(sched, 88, nil)
	c := NewClient(dep, VRChat, "w", SiteCampus, 10)
	c.Muted = true
	sniff := capture.Attach(c.Host)
	sched.At(0, c.Launch)
	sched.RunUntil(90 * time.Second)
	ctrl := dep.ControlEndpoint(c.Profile, c.Host.Site).Addr
	up := sniff.Bytes(capture.MatchUp(capture.FilterRemote(ctrl)), 0, 90*time.Second)
	down := sniff.Bytes(capture.MatchDown(capture.FilterRemote(ctrl)), 0, 90*time.Second)
	if up < 2_000 || up > 60_000 {
		t.Errorf("welcome control uplink = %d B, want 5-20KB-ish", up)
	}
	if down < 15_000 || down > 900_000 {
		t.Errorf("welcome control downlink = %d B, want 15-600KB", down)
	}
}

// TestThroughputIndependentOfDeviceType reproduces the §5.1 footnote: the
// data-channel throughput barely changes when U2 uses a VIVE or a PC
// instead of a Quest 2.
func TestThroughputIndependentOfDeviceType(t *testing.T) {
	run := func(class device.Class) float64 {
		sched := simtime.NewScheduler()
		dep := NewDeployment(sched, 99, nil)
		u1 := NewClient(dep, VRChat, "u1", SiteCampus, 10)
		u2 := NewClient(dep, VRChat, "u2", SiteCampus, 11)
		u2.SetDevice(class)
		u1.Muted, u2.Muted = true, true
		sched.At(0, u1.Launch)
		sched.At(0, u2.Launch)
		sched.At(time.Second, func() { u1.JoinEvent("dev"); u2.JoinEvent("dev") })
		sniff := capture.Attach(u1.Host)
		sched.RunUntil(40 * time.Second)
		return sniff.MeanBps(capture.MatchDown(capture.FilterProto(packet.ProtoUDP)), 10*time.Second, 40*time.Second)
	}
	quest := run(device.Quest2)
	vive := run(device.ViveCosmos)
	pc := run(device.PC)
	for _, v := range []float64{vive, pc} {
		ratio := v / quest
		if ratio < 0.85 || ratio > 1.15 {
			t.Fatalf("throughput depends on device type: quest=%.0f vive=%.0f pc=%.0f", quest, vive, pc)
		}
	}
}

// TestPerAvatarMemoryFootprint reproduces the §6.2 estimate: each avatar
// costs roughly 10 MB of memory.
func TestPerAvatarMemoryFootprint(t *testing.T) {
	for _, p := range All() {
		perAvatar := p.Cost.PerAvatarMemMB
		if perAvatar < 8 || perAvatar > 14 {
			t.Errorf("%v: per-avatar memory = %v MB, want ~10", p.Name, perAvatar)
		}
	}
}

// TestWorldsHostnamesSeparateChannels checks the §4.1 hostname evidence.
func TestWorldsHostnamesSeparateChannels(t *testing.T) {
	sched := simtime.NewScheduler()
	dep := NewDeployment(sched, 66, nil)
	p := Get(Worlds)
	ctrl := dep.ControlEndpoint(p, dep.Sites[SiteCampus])
	data := dep.DataEndpoint(p, dep.Sites[SiteCampus], 0)
	ctrlName := dep.Net.Registry.HostnameOf(uint32(ctrl.Addr))
	dataName := dep.Net.Registry.HostnameOf(uint32(data.Addr))
	if ctrlName == "" || dataName == "" || ctrlName == dataName {
		t.Fatalf("hostnames: ctrl=%q data=%q, want distinct facebook/oculus names", ctrlName, dataName)
	}
}

// TestMonitorBatteryUnder10PctFor10Min reproduces the §6.2 energy claim on
// the heaviest platform at the largest event size.
func TestMonitorBatteryUnder10PctFor10Min(t *testing.T) {
	sched, _, cs := lab(t, Worlds, 2, 60)
	sched.RunUntil(10 * time.Minute)
	drained := 100 - cs[0].Headset.Battery()
	if drained >= 10 || drained <= 0 {
		t.Fatalf("battery drained %.1f%% in 10 min, want (0,10)", drained)
	}
}
