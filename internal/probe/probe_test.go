package probe

import (
	"testing"
	"time"

	"github.com/svrlab/svrlab/internal/geo"
	"github.com/svrlab/svrlab/internal/netsim"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/simtime"
	"github.com/svrlab/svrlab/internal/transport"
)

type rig struct {
	s            *simtime.Scheduler
	net          *netsim.Network
	east, west   *netsim.Site
	vantage      *netsim.Host
	server       *netsim.Host
	prober       *Prober
	serverStack  *transport.Stack
	vantageStack *transport.Stack
}

func newRig(t *testing.T) *rig {
	t.Helper()
	s := simtime.NewScheduler()
	n := netsim.New(s, 9, nil)
	east := n.AddSite("east", geo.Fairfax, packet.MustParseAddr("10.0.0.1"))
	mid := n.AddSite("mid", geo.Minneapolis, packet.MustParseAddr("10.1.0.1"))
	west := n.AddSite("west", geo.SanJose, packet.MustParseAddr("10.2.0.1"))
	n.Connect(east, mid)
	n.Connect(mid, west)
	v := n.AddHost("vantage", east, packet.MustParseAddr("10.0.0.2"), netsim.WiFiAccess())
	srv := n.AddHost("server", west, packet.MustParseAddr("10.2.0.50"), netsim.DatacenterAccess())
	vs := transport.NewStack(n, v)
	ss := transport.NewStack(n, srv)
	return &rig{s: s, net: n, east: east, west: west, vantage: v, server: srv,
		prober: New(vs), serverStack: ss, vantageStack: vs}
}

func TestPingMeasuresCrossCountryRTT(t *testing.T) {
	r := newRig(t)
	var res PingResult
	r.prober.Ping(r.server.Addr, 10, 100*time.Millisecond, func(pr PingResult) { res = pr })
	r.s.RunUntil(10 * time.Second)
	if res.Sent != 10 || res.Received != 10 {
		t.Fatalf("sent/recv = %d/%d", res.Sent, res.Received)
	}
	if res.Avg < 50*time.Millisecond || res.Avg > 110*time.Millisecond {
		t.Fatalf("avg RTT = %v, want ~70ms", res.Avg)
	}
	if res.Std <= 0 || res.Std > 5*time.Millisecond {
		t.Fatalf("std = %v, want small positive jitter", res.Std)
	}
}

func TestPingTimesOutWhenICMPBlocked(t *testing.T) {
	r := newRig(t)
	r.serverStack.EchoReply = false
	var res PingResult
	done := false
	r.prober.Ping(r.server.Addr, 3, 100*time.Millisecond, func(pr PingResult) { res, done = pr, true })
	r.s.RunUntil(10 * time.Second)
	if !done {
		t.Fatal("ping never finalized")
	}
	if res.Received != 0 || res.Sent != 3 {
		t.Fatalf("res = %+v", res)
	}
}

// TestPingFinishesOnce: a job whose every reply arrives finishes at the
// last reply, and the tail timeout that fires later calls OnDone no
// second time.
func TestPingFinishesOnce(t *testing.T) {
	r := newRig(t)
	calls := 0
	var doneAt time.Duration
	job := r.prober.Ping(r.server.Addr, 3, 100*time.Millisecond, func(PingResult) {
		calls++
		doneAt = r.s.Now()
	})
	r.s.RunUntil(10 * time.Second)
	if calls != 1 {
		t.Fatalf("OnDone ran %d times, want 1", calls)
	}
	if !job.Done || job.Result.Received != 3 {
		t.Fatalf("done %v, received %d of 3", job.Done, job.Result.Received)
	}
	if tail := 3*100*time.Millisecond + 2*time.Second; doneAt >= tail {
		t.Fatalf("finished at %v, want at the last reply, before the %v tail timeout", doneAt, tail)
	}
}

func TestTCPPingFallback(t *testing.T) {
	r := newRig(t)
	r.serverStack.EchoReply = false
	r.serverStack.ListenTCP(443, func(c *transport.Conn) {})
	var res PingResult
	r.prober.TCPPing(packet.Endpoint{Addr: r.server.Addr, Port: 443}, func(pr PingResult) { res = pr })
	r.s.RunUntil(10 * time.Second)
	if res.Received != 1 {
		t.Fatalf("TCP ping failed: %+v", res)
	}
	if res.Avg < 50*time.Millisecond || res.Avg > 120*time.Millisecond {
		t.Fatalf("TCP ping RTT = %v", res.Avg)
	}
}

func TestTracerouteEnumeratesHops(t *testing.T) {
	r := newRig(t)
	var hops []Hop
	r.prober.Traceroute(r.server.Addr, 10, func(h []Hop) { hops = h })
	r.s.RunUntil(10 * time.Second)
	if len(hops) != 4 {
		t.Fatalf("hops = %d (%v), want 3 routers + host", len(hops), hops)
	}
	wantRouters := r.net.PathRouters(r.vantage, r.server.Addr)
	for i, want := range wantRouters {
		if hops[i].Addr != want {
			t.Fatalf("hop %d = %v, want %v", i, hops[i].Addr, want)
		}
		if hops[i].Reached {
			t.Fatalf("router hop %d marked reached", i)
		}
	}
	last := hops[len(hops)-1]
	if !last.Reached || last.Addr != r.server.Addr {
		t.Fatalf("final hop = %+v", last)
	}
	// RTTs must be monotone-ish: the last hop is farther than the first.
	if hops[0].RTT >= last.RTT {
		t.Fatalf("hop RTTs not increasing: %v vs %v", hops[0].RTT, last.RTT)
	}
}

func TestVantagePenultimateHop(t *testing.T) {
	r := newRig(t)
	var hops []Hop
	r.prober.Traceroute(r.server.Addr, 10, func(h []Hop) { hops = h })
	r.s.RunUntil(10 * time.Second)
	rep := VantageReport{VantageName: "east", Hops: hops}
	if got := rep.PenultimateHop(); got != r.west.Router {
		t.Fatalf("penultimate = %v, want %v", got, r.west.Router)
	}
}

func TestInferAnycastByLowRTTEverywhere(t *testing.T) {
	reports := []VantageReport{
		{VantageName: "us-east", AvgRTT: 3 * time.Millisecond},
		{VantageName: "europe", AvgRTT: 4 * time.Millisecond},
		{VantageName: "middle-east", AvgRTT: 2 * time.Millisecond},
	}
	if !InferAnycast(reports, 15*time.Millisecond) {
		t.Fatal("uniformly low RTT should imply anycast")
	}
}

func TestInferAnycastByPenultimateDivergence(t *testing.T) {
	mk := func(pen packet.Addr, rtt time.Duration) VantageReport {
		return VantageReport{
			AvgRTT: rtt,
			Hops: []Hop{
				{TTL: 1, Addr: packet.MustParseAddr("10.0.0.1")},
				{TTL: 2, Addr: pen},
				{TTL: 3, Addr: packet.MustParseAddr("172.16.0.1"), Reached: true},
			},
		}
	}
	reports := []VantageReport{
		mk(packet.MustParseAddr("10.5.0.1"), 3*time.Millisecond),
		mk(packet.MustParseAddr("10.6.0.1"), 90*time.Millisecond),
	}
	if !InferAnycast(reports, 15*time.Millisecond) {
		t.Fatal("divergent penultimate hops should imply anycast")
	}
}

func TestInferUnicast(t *testing.T) {
	pen := packet.MustParseAddr("10.5.0.1")
	mk := func(rtt time.Duration) VantageReport {
		return VantageReport{
			AvgRTT: rtt,
			Hops: []Hop{
				{TTL: 1, Addr: packet.MustParseAddr("10.0.0.1")},
				{TTL: 2, Addr: pen},
				{TTL: 3, Addr: packet.MustParseAddr("172.16.0.1"), Reached: true},
			},
		}
	}
	reports := []VantageReport{mk(3 * time.Millisecond), mk(80 * time.Millisecond)}
	if InferAnycast(reports, 15*time.Millisecond) {
		t.Fatal("same penultimate hop + divergent RTT is unicast")
	}
	if InferAnycast(reports[:1], 15*time.Millisecond) {
		t.Fatal("single vantage cannot imply anycast")
	}
}

// TestInferAnycastNeedsAnRTTSample: a server that answers no ping leaves
// every AvgRTT at 0, which is no evidence of a nearby instance; with one
// shared penultimate hop it is not anycast.
func TestInferAnycastNeedsAnRTTSample(t *testing.T) {
	hops := []Hop{
		{TTL: 1, Addr: packet.MustParseAddr("10.0.0.1")},
		{TTL: 2, Addr: packet.MustParseAddr("10.5.0.1")},
		{TTL: 3, Addr: packet.MustParseAddr("172.16.0.1"), Reached: true},
	}
	reports := []VantageReport{
		{VantageName: "us-east", Hops: hops},
		{VantageName: "us-north", Hops: hops},
		{VantageName: "middle-east", Hops: hops},
	}
	if InferAnycast(reports, 15*time.Millisecond) {
		t.Fatal("three silent vantages behind one penultimate hop inferred anycast")
	}
}

// TestInferUnicastWhenDestinationUnreached: three traceroutes toward a
// crashed server die at different routers. No hop reached the destination,
// so no vantage has a penultimate hop and the divergence is no evidence.
func TestInferUnicastWhenDestinationUnreached(t *testing.T) {
	mk := func(last string) VantageReport {
		return VantageReport{Hops: []Hop{
			{TTL: 1, Addr: packet.MustParseAddr("10.0.0.1")},
			{TTL: 2, Addr: packet.MustParseAddr(last)},
		}}
	}
	reports := []VantageReport{mk("10.5.0.1"), mk("10.6.0.1"), mk("10.7.0.1")}
	for _, r := range reports {
		if h := r.PenultimateHop(); h != 0 {
			t.Fatalf("unreached trace has penultimate hop %v, want none", h)
		}
	}
	if InferAnycast(reports, 15*time.Millisecond) {
		t.Fatal("traces that never reached the destination inferred anycast")
	}
}

func TestEndToEndAnycastInference(t *testing.T) {
	// Build a network with a true anycast service and verify the full
	// measurement pipeline (ping + traceroute from two vantages) infers it.
	s := simtime.NewScheduler()
	n := netsim.New(s, 4, nil)
	east := n.AddSite("east", geo.Fairfax, packet.MustParseAddr("10.0.0.1"))
	west := n.AddSite("west", geo.SanJose, packet.MustParseAddr("10.2.0.1"))
	n.Connect(east, west)
	vE := n.AddHost("v-east", east, packet.MustParseAddr("10.0.0.2"), netsim.WiFiAccess())
	vW := n.AddHost("v-west", west, packet.MustParseAddr("10.2.0.2"), netsim.WiFiAccess())
	iE := n.AddHost("inst-east", east, packet.MustParseAddr("10.0.0.60"), netsim.DatacenterAccess())
	iW := n.AddHost("inst-west", west, packet.MustParseAddr("10.2.0.60"), netsim.DatacenterAccess())
	transport.NewStack(n, iE)
	transport.NewStack(n, iW)
	svc := packet.MustParseAddr("172.16.0.9")
	n.AddAnycast(svc, iE, iW)

	probers := []*Prober{New(transport.NewStack(n, vE)), New(transport.NewStack(n, vW))}
	reports := make([]VantageReport, 2)
	for i, p := range probers {
		i, p := i, p
		p.Ping(svc, 5, 50*time.Millisecond, func(pr PingResult) { reports[i].AvgRTT = pr.Avg })
		p.Traceroute(svc, 10, func(h []Hop) { reports[i].Hops = h })
	}
	s.RunUntil(20 * time.Second)
	if !InferAnycast(reports, 15*time.Millisecond) {
		t.Fatalf("anycast service not inferred: %+v", reports)
	}
}
