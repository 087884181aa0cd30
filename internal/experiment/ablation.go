package experiment

import (
	"fmt"
	"strings"
	"time"

	"github.com/svrlab/svrlab/internal/capture"
	"github.com/svrlab/svrlab/internal/device"
	"github.com/svrlab/svrlab/internal/netsim"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/platform"
	"github.com/svrlab/svrlab/internal/render"
	"github.com/svrlab/svrlab/internal/transport"
)

// eligibleCounts filters a sweep to the platform's event-size cap.
func eligibleCounts(p *platform.Profile, counts []int) []int {
	var out []int
	for _, n := range counts {
		if n <= p.MaxEventUsers {
			out = append(out, n)
		}
	}
	return out
}

// RemotePoint compares local and remote rendering at one user count.
type RemotePoint struct {
	Users          int
	LocalDownBps   float64
	LocalFPS       float64
	RemoteDownBps  float64
	RemoteFPS      float64
	RemoteFramesPS float64
}

// RemoteResult is the §6.3 ablation: with remote rendering, downlink and
// client FPS are set by the video stream, not the user count.
type RemoteResult struct {
	Platform platform.Name
	Points   []RemotePoint
}

// RemoteAblation contrasts the measured local-rendering scaling against a
// remote-rendering deployment for the same platform and the same events.
// The paper default is Rec Room.
func RemoteAblation(e Env) *RemoteResult {
	name := e.platformOr(platform.RecRoom)
	p := platform.Get(name)
	eligible := eligibleCounts(p, e.countsOr([]int{2, 5, 10, 15}))
	points := cells(e, len(eligible), func(i int) RemotePoint {
		n := eligible[i]
		label, seed := fmt.Sprintf("remote/%s/n%d", name, n), e.Seed+int64(n)
		pt := RemotePoint{Users: n}
		local := scalingRun(e, label+"/local", name, n, seed)
		pt.LocalDownBps, pt.LocalFPS = local.down, local.fps
		pt.RemoteDownBps, pt.RemoteFramesPS, pt.RemoteFPS = remoteRun(e, label+"/remote", p, n, seed)
		return pt
	})
	return &RemoteResult{Platform: name, Points: points}
}

// remoteRun streams a rendered view from an edge server to U1 while the
// same n-user avatar uplink still flows server-side. Only the downlink and
// the client pipeline change.
func remoteRun(e Env, label string, p *platform.Profile, n int, seed int64) (downBps, framesPS, fps float64) {
	l := e.lab(label, seed)
	defer l.MustConserve()
	// Edge render server near the client (the §6.3 premise: cloud/edge).
	edge := l.Dep.AddVantage("edge-render", platform.SiteUSEast, 90)
	edge.Up = &netsim.Link{BandwidthBps: 10e9, PropDelay: 200 * time.Microsecond, MaxQueue: 200 * time.Millisecond}
	edge.Down = &netsim.Link{BandwidthBps: 10e9, PropDelay: 200 * time.Microsecond, MaxQueue: 200 * time.Millisecond}
	es := transport.NewStack(l.Dep.Net, edge)

	hmd := l.Dep.AddVantage("hmd-u1", platform.SiteCampus, 10)
	cs := transport.NewStack(l.Dep.Net, hmd)
	sniff := l.Capture(hmd)

	sess, err := render.NewSession(l.Sched, hmd, es, cs, p.Cost.Res, device.Quest2.RefreshHz)
	if err != nil {
		panic(err)
	}
	// Server-side scene cost grows with avatars — on the edge GPU.
	sess.Streamer.RenderCostMs = func() float64 { return p.Cost.GPUms(n) }

	l.Sched.RunUntil(40 * time.Second)
	downBps = sniff.MeanBps(capture.MatchDown(nil), 10*time.Second, 40*time.Second)
	framesPS = float64(sess.Viewer.FramesComplete) / 40
	sess.Headset.AvatarsInScene = n // irrelevant to decode cost — proven by FPS
	fps = sess.Headset.FPSEstimate()
	return
}

// Render prints the ablation.
func (r *RemoteResult) Render() string {
	t := &Table{Header: []string{"Users", "Local down (Mbps)", "Local FPS", "Remote down (Mbps)", "Remote FPS"}}
	for _, pt := range r.Points {
		t.Add(fmt.Sprintf("%d", pt.Users),
			mbps(pt.LocalDownBps), fmt.Sprintf("%.1f", pt.LocalFPS),
			mbps(pt.RemoteDownBps), fmt.Sprintf("%.1f", pt.RemoteFPS))
	}
	return fmt.Sprintf("§6.3 ablation (%s): local forwarding vs remote rendering\n%s", r.Platform, t.String())
}

// P2PPoint compares server-mediated and peer-to-peer distribution at one
// user count.
type P2PPoint struct {
	Users           int
	ServerDownBps   float64 // client downlink, server architecture
	ServerUplinkBps float64 // client uplink, server architecture
	P2PDownBps      float64 // client downlink, peer mesh
	P2PUplinkBps    float64 // client uplink, peer mesh (grows with n!)
}

// P2PResult is the §6.2-discussion ablation: P2P removes the server but the
// per-client throughput scalability problem remains — and uplink gets worse.
type P2PResult struct {
	Platform platform.Name
	Points   []P2PPoint
}

// P2PAblation measures a peer full-mesh carrying the same avatar streams.
// The paper default is VRChat.
func P2PAblation(e Env) *P2PResult {
	name := e.platformOr(platform.VRChat)
	p := platform.Get(name)
	eligible := eligibleCounts(p, e.countsOr([]int{2, 5, 10}))
	points := cells(e, len(eligible), func(i int) P2PPoint {
		n := eligible[i]
		label, seed := fmt.Sprintf("p2p/%s/n%d", name, n), e.Seed+int64(n)
		pt := P2PPoint{Users: n}
		pt.ServerDownBps = scalingRun(e, label+"/server-down", name, n, seed).down
		pt.ServerUplinkBps, _ = steadyRates(e, label+"/server-up", name, n, seed^0x77, nil)
		pt.P2PUplinkBps, pt.P2PDownBps = p2pRun(e, label+"/mesh", p, n, seed)
		return pt
	})
	return &P2PResult{Platform: name, Points: points}
}

// p2pRun builds an n-client full mesh where each client unicasts its avatar
// stream to every peer directly.
func p2pRun(e Env, label string, p *platform.Profile, n int, seed int64) (upBps, downBps float64) {
	l := e.lab(label, seed^0x3c)
	defer l.MustConserve()
	hosts := make([]*netsim.Host, n)
	stacks := make([]*transport.Stack, n)
	socks := make([]*transport.UDPSocket, n)
	for i := 0; i < n; i++ {
		hosts[i] = l.Dep.AddVantage(fmt.Sprintf("p2p-%d", i), platform.SiteCampus, 10+i)
		stacks[i] = transport.NewStack(l.Dep.Net, hosts[i])
		sock, err := stacks[i].BindUDP(7000)
		if err != nil {
			panic(err)
		}
		socks[i] = sock
		sock.OnRecv = func(src packet.Endpoint, payload []byte) {}
	}
	sniff := l.Capture(hosts[0])
	payload := make([]byte, p.Codec.WireLen()+14) // avatar msg framing
	interval := time.Second / time.Duration(p.Codec.UpdateHz)
	for i := 0; i < n; i++ {
		i := i
		l.Sched.Ticker(interval, func() {
			for j := 0; j < n; j++ {
				if j != i {
					socks[i].SendTo(packet.Endpoint{Addr: hosts[j].Addr, Port: 7000}, payload)
				}
			}
		})
	}
	l.Sched.RunUntil(30 * time.Second)
	upBps = sniff.MeanBps(capture.MatchUp(nil), 5*time.Second, 30*time.Second)
	downBps = sniff.MeanBps(capture.MatchDown(nil), 5*time.Second, 30*time.Second)
	return
}

// Render prints the P2P ablation.
func (r *P2PResult) Render() string {
	t := &Table{Header: []string{"Users", "Server up (kbps)", "Server down (kbps)", "P2P up (kbps)", "P2P down (kbps)"}}
	for _, pt := range r.Points {
		t.Add(fmt.Sprintf("%d", pt.Users),
			kbps(pt.ServerUplinkBps), kbps(pt.ServerDownBps),
			kbps(pt.P2PUplinkBps), kbps(pt.P2PDownBps))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "§6.2 ablation (%s): server forwarding vs P2P full mesh\n%s", r.Platform, t.String())
	b.WriteString("P2P removes the server but client uplink now grows with users — the scalability problem moves, it does not vanish.\n")
	return b.String()
}
