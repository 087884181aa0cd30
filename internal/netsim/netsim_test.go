package netsim

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"github.com/svrlab/svrlab/internal/geo"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/simtime"
)

// buildTestNet wires a 3-site line topology: east -- central -- west, with
// one WiFi host on each coast.
func buildTestNet(t *testing.T) (*Network, *Host, *Host, *Site, *Site) {
	t.Helper()
	s := simtime.NewScheduler()
	n := New(s, 1, nil)
	east := n.AddSite("east", geo.Fairfax, packet.MustParseAddr("10.0.0.1"))
	mid := n.AddSite("mid", geo.Minneapolis, packet.MustParseAddr("10.1.0.1"))
	west := n.AddSite("west", geo.SanJose, packet.MustParseAddr("10.2.0.1"))
	n.Connect(east, mid)
	n.Connect(mid, west)
	h1 := n.AddHost("u1", east, packet.MustParseAddr("10.0.0.2"), WiFiAccess())
	h2 := n.AddHost("u2", west, packet.MustParseAddr("10.2.0.2"), WiFiAccess())
	return n, h1, h2, east, west
}

func udpTo(dst packet.Addr, payload []byte) *packet.Packet {
	return &packet.Packet{
		IP:      packet.IPv4{Protocol: packet.ProtoUDP, Dst: dst},
		UDP:     &packet.UDP{SrcPort: 1000, DstPort: 2000},
		Payload: payload,
	}
}

func TestDeliveryAcrossBackbone(t *testing.T) {
	n, h1, h2, _, _ := buildTestNet(t)
	var got *packet.Packet
	var at time.Duration
	// A delivered packet is valid only during the call: keep a copy.
	h2.Handler = func(p *packet.Packet) { got, at = p.Clone(), n.Sched.Now() }

	if !n.Send(h1, udpTo(h2.Addr, []byte("hello"))) {
		t.Fatal("Send returned false")
	}
	n.Sched.Run()
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if string(got.Payload) != "hello" {
		t.Fatalf("payload = %q", got.Payload)
	}
	if got.IP.Src != h1.Addr {
		t.Fatalf("src = %v", got.IP.Src)
	}
	// Coast-to-coast one-way should be in the tens of ms.
	if at < 20*time.Millisecond || at > 60*time.Millisecond {
		t.Fatalf("one-way delay = %v, want 20-60ms", at)
	}
	// TTL decremented once per router (3 sites).
	if got.IP.TTL != DefaultTTL-3 {
		t.Fatalf("TTL = %d, want %d", got.IP.TTL, DefaultTTL-3)
	}
}

func TestUnroutableDestination(t *testing.T) {
	n, h1, _, _, _ := buildTestNet(t)
	if n.Send(h1, udpTo(packet.MustParseAddr("99.9.9.9"), nil)) {
		t.Fatal("Send to unknown address returned true")
	}
}

func TestTTLExpiryGeneratesTimeExceeded(t *testing.T) {
	n, h1, h2, east, _ := buildTestNet(t)
	var icmp *packet.Packet
	h1.Handler = func(p *packet.Packet) {
		if p.ICMP != nil {
			icmp = p.Clone()
		}
	}
	pkt := udpTo(h2.Addr, []byte("probe"))
	pkt.IP.TTL = 1
	n.Send(h1, pkt)
	n.Sched.Run()
	if icmp == nil {
		t.Fatal("no ICMP time-exceeded received")
	}
	if icmp.ICMP.Type != packet.ICMPTimeExceeded {
		t.Fatalf("ICMP type = %d", icmp.ICMP.Type)
	}
	if icmp.IP.Src != east.Router {
		t.Fatalf("time-exceeded from %v, want first router %v", icmp.IP.Src, east.Router)
	}
}

func TestTTLSufficientReachesHost(t *testing.T) {
	// Real traceroute semantics: with N routers on the path, TTL=N expires
	// at the last router and TTL=N+1 reaches the host.
	n, h1, h2, _, west := buildTestNet(t)
	delivered := false
	var expiredAt packet.Addr
	h2.Handler = func(p *packet.Packet) { delivered = true }
	h1.Handler = func(p *packet.Packet) {
		if p.ICMP != nil && p.ICMP.Type == packet.ICMPTimeExceeded {
			expiredAt = p.IP.Src
		}
	}
	pkt := udpTo(h2.Addr, nil)
	pkt.IP.TTL = 3
	n.Send(h1, pkt)
	n.Sched.Run()
	if delivered {
		t.Fatal("TTL=3 should expire at the 3rd router, not reach the host")
	}
	if expiredAt != west.Router {
		t.Fatalf("TTL=3 expired at %v, want last router %v", expiredAt, west.Router)
	}
	pkt2 := udpTo(h2.Addr, nil)
	pkt2.IP.TTL = 4
	n.Send(h1, pkt2)
	n.Sched.Run()
	if !delivered {
		t.Fatal("TTL=4 should reach the host through 3 routers")
	}
}

func TestBandwidthSerializationDelaysBackToBackPackets(t *testing.T) {
	s := simtime.NewScheduler()
	n := New(s, 1, nil)
	site := n.AddSite("x", geo.Fairfax, packet.MustParseAddr("10.0.0.1"))
	slow := AccessProfile{UpBps: 8000, DownBps: 1e9, Delay: 0, MaxQueue: time.Second} // 1 KB/s up
	h1 := n.AddHost("a", site, packet.MustParseAddr("10.0.0.2"), slow)
	h2 := n.AddHost("b", site, packet.MustParseAddr("10.0.0.3"), DatacenterAccess())
	var times []time.Duration
	h2.Handler = func(p *packet.Packet) { times = append(times, s.Now()) }
	// Two 128-byte-ish packets: each takes ~(20+8+100)*8/8000 = 128 ms to serialize.
	n.Send(h1, udpTo(h2.Addr, make([]byte, 100)))
	n.Send(h1, udpTo(h2.Addr, make([]byte, 100)))
	s.Run()
	if len(times) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(times))
	}
	gap := times[1] - times[0]
	if gap < 100*time.Millisecond || gap > 160*time.Millisecond {
		t.Fatalf("serialization gap = %v, want ~128ms", gap)
	}
}

func TestQueueOverflowDropsTail(t *testing.T) {
	s := simtime.NewScheduler()
	n := New(s, 1, nil)
	site := n.AddSite("x", geo.Fairfax, packet.MustParseAddr("10.0.0.1"))
	// 10 ms max queue on a link that takes 128 ms per packet: the second
	// packet must be dropped.
	slow := AccessProfile{UpBps: 8000, DownBps: 1e9, Delay: 0, MaxQueue: 10 * time.Millisecond}
	h1 := n.AddHost("a", site, packet.MustParseAddr("10.0.0.2"), slow)
	h2 := n.AddHost("b", site, packet.MustParseAddr("10.0.0.3"), DatacenterAccess())
	count := 0
	h2.Handler = func(p *packet.Packet) { count++ }
	n.Send(h1, udpTo(h2.Addr, make([]byte, 100)))
	n.Send(h1, udpTo(h2.Addr, make([]byte, 100)))
	s.Run()
	if count != 1 {
		t.Fatalf("delivered %d packets, want 1 (tail drop)", count)
	}
}

func TestNetemLossDropsEverythingAtFullRate(t *testing.T) {
	n, h1, h2, _, _ := buildTestNet(t)
	h1.UpNetem = &Netem{Loss: 1.0}
	count := 0
	h2.Handler = func(p *packet.Packet) { count++ }
	for i := 0; i < 10; i++ {
		n.Send(h1, udpTo(h2.Addr, nil))
	}
	n.Sched.Run()
	if count != 0 {
		t.Fatalf("delivered %d packets through 100%% loss", count)
	}
}

func TestNetemDelayAddsLatency(t *testing.T) {
	n, h1, h2, _, _ := buildTestNet(t)
	var base, delayed time.Duration
	h2.Handler = func(p *packet.Packet) { base = n.Sched.Now() }
	n.Send(h1, udpTo(h2.Addr, nil))
	n.Sched.Run()

	n2, g1, g2, _, _ := buildTestNet(t)
	g1.UpNetem = &Netem{Delay: 200 * time.Millisecond}
	g2.Handler = func(p *packet.Packet) { delayed = n2.Sched.Now() }
	n2.Send(g1, udpTo(g2.Addr, nil))
	n2.Sched.Run()

	diff := delayed - base
	if diff < 190*time.Millisecond || diff > 210*time.Millisecond {
		t.Fatalf("netem delay effect = %v, want ~200ms", diff)
	}
}

func TestNetemFilterAppliesSelectively(t *testing.T) {
	n, h1, h2, _, _ := buildTestNet(t)
	h1.UpNetem = &Netem{Loss: 1.0, TCPOnly: true}
	gotUDP, gotTCP := 0, 0
	h2.Handler = func(p *packet.Packet) {
		switch p.IP.Protocol {
		case packet.ProtoUDP:
			gotUDP++
		case packet.ProtoTCP:
			gotTCP++
		}
	}
	n.Send(h1, udpTo(h2.Addr, nil))
	n.Send(h1, &packet.Packet{
		IP:  packet.IPv4{Protocol: packet.ProtoTCP, Dst: h2.Addr},
		TCP: &packet.TCP{SrcPort: 1, DstPort: 2, Flags: packet.FlagSYN},
	})
	n.Sched.Run()
	if gotUDP != 1 || gotTCP != 0 {
		t.Fatalf("UDP=%d TCP=%d, want UDP passed and TCP dropped", gotUDP, gotTCP)
	}
}

// TestDownNetemReorderMergesWithLinkOrder: the receiver's downlink netem
// delays only TCP, so the UDP packets sent behind a TCP one overtake it, and
// its delivery lands between theirs. The unimpaired packets arrive in send
// order, each at the time the links compute: serialized back to back on the
// 1 Mbit/s uplink, then the uplink's propagation delay, the router's
// per-hop cost and the (infinitely fast) downlink's propagation delay.
func TestDownNetemReorderMergesWithLinkOrder(t *testing.T) {
	s := simtime.NewScheduler()
	n := New(s, 1, nil)
	lan := n.AddSite("lan", geo.Fairfax, packet.MustParseAddr("10.0.0.1"))
	ap := AccessProfile{UpBps: 1e6, Delay: time.Millisecond} // no jitter, no queue limit
	h1 := n.AddHost("u1", lan, packet.MustParseAddr("10.0.0.2"), ap)
	h2 := n.AddHost("u2", lan, packet.MustParseAddr("10.0.0.3"), ap)
	const netemDelay = 5 * time.Millisecond
	h2.DownNetem = &Netem{Delay: netemDelay, TCPOnly: true}

	type arrival struct {
		label string
		at    time.Duration
	}
	label := func(p *packet.Packet) string {
		if p.UDP != nil {
			return fmt.Sprintf("udp%d", p.UDP.DstPort)
		}
		return "tcp"
	}
	var got, want []arrival
	h2.Handler = func(p *packet.Packet) { got = append(got, arrival{label(p), s.Now()}) }

	sends := []*packet.Packet{{
		IP:  packet.IPv4{Protocol: packet.ProtoTCP, Dst: h2.Addr},
		TCP: &packet.TCP{SrcPort: 1, DstPort: 2, Flags: packet.FlagSYN},
	}}
	for port := uint16(1); port <= 6; port++ {
		sends = append(sends, &packet.Packet{
			IP:      packet.IPv4{Protocol: packet.ProtoUDP, Dst: h2.Addr},
			UDP:     &packet.UDP{SrcPort: 1000, DstPort: port},
			Payload: make([]byte, 100),
		})
	}
	var upDone time.Duration
	for _, p := range sends {
		upDone += time.Duration(float64(len(p.Marshal())*8) / ap.UpBps * float64(time.Second))
		at := upDone + ap.Delay + perHopCost + ap.Delay
		if p.TCP != nil {
			at += netemDelay
		}
		want = append(want, arrival{label(p), at})
		if !n.Send(h1, p) {
			t.Fatal("Send returned false")
		}
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	if want[0].label == "tcp" || want[len(want)-1].label == "tcp" {
		t.Fatalf("netem delay does not put TCP between UDP deliveries: %v", want)
	}
	n.Sched.Run()
	if len(got) != len(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered %v, want %v", got, want)
		}
	}
}

func TestNetemRateCapsThroughput(t *testing.T) {
	n, h1, h2, _, _ := buildTestNet(t)
	h1.UpNetem = &Netem{RateBps: 100_000} // 100 kbit/s
	bytes := 0
	h2.Handler = func(p *packet.Packet) { bytes += p.WireLen() }
	// Offer ~1 Mbit over 1 s: 100 packets of ~1250 B every 10 ms.
	for i := 0; i < 100; i++ {
		d := time.Duration(i) * 10 * time.Millisecond
		n.Sched.At(d, func() { n.Send(h1, udpTo(h2.Addr, make([]byte, 1222))) })
	}
	n.Sched.RunUntil(1200 * time.Millisecond)
	gotBps := float64(bytes*8) / 1.2
	if gotBps > 130_000 {
		t.Fatalf("throughput %v bps exceeds 100kbps cap (+ queue drain)", gotBps)
	}
	if gotBps < 60_000 {
		t.Fatalf("throughput %v bps suspiciously low", gotBps)
	}
}

func TestAnycastResolvesNearestInstance(t *testing.T) {
	n, h1, h2, east, west := buildTestNet(t)
	svcAddr := packet.MustParseAddr("172.16.0.1")
	sEast := n.AddHost("svc-east", east, packet.MustParseAddr("10.0.0.50"), DatacenterAccess())
	sWest := n.AddHost("svc-west", west, packet.MustParseAddr("10.2.0.50"), DatacenterAccess())
	n.AddAnycast(svcAddr, sEast, sWest)

	// A unicast address resolves to its own host, however far.
	if got, ok := n.Resolve(sEast.Addr, west); !ok || got != sEast {
		t.Fatalf("unicast %v from west resolves to %v, want svc-east", sEast.Addr, got)
	}
	if got, _ := n.Resolve(svcAddr, east); got != sEast {
		t.Fatalf("east resolves to %v, want east instance", got.ID)
	}
	if got, _ := n.Resolve(svcAddr, west); got != sWest {
		t.Fatalf("west resolves to %v, want west instance", got.ID)
	}

	// Delivery to the anycast address reaches the nearest instance.
	hit := ""
	sEast.Handler = func(p *packet.Packet) { hit = "east" }
	sWest.Handler = func(p *packet.Packet) { hit = "west" }
	n.Send(h1, udpTo(svcAddr, nil))
	n.Sched.Run()
	if hit != "east" {
		t.Fatalf("anycast packet landed at %q, want east", hit)
	}
	hit = ""
	n.Send(h2, udpTo(svcAddr, nil))
	n.Sched.Run()
	if hit != "west" {
		t.Fatalf("anycast packet landed at %q, want west", hit)
	}
}

func TestTapsSeeBothDirections(t *testing.T) {
	n, h1, h2, _, _ := buildTestNet(t)
	var ups, downs int
	h1.Tap(func(at time.Duration, dir Dir, wire []byte) {
		if _, err := packet.Decode(wire); err != nil {
			t.Errorf("tap saw undecodable bytes: %v", err)
		}
		if dir == DirUp {
			ups++
		} else {
			downs++
		}
	})
	h2.Handler = func(p *packet.Packet) { n.Send(h2, udpTo(h1.Addr, []byte("reply"))) }
	h1.Handler = func(p *packet.Packet) {}
	n.Send(h1, udpTo(h2.Addr, []byte("ping")))
	n.Sched.Run()
	if ups != 1 || downs != 1 {
		t.Fatalf("taps: up=%d down=%d, want 1/1", ups, downs)
	}
}

func TestDuplicateHostAddressPanics(t *testing.T) {
	s := simtime.NewScheduler()
	n := New(s, 1, nil)
	site := n.AddSite("x", geo.Fairfax, packet.MustParseAddr("10.0.0.1"))
	n.AddHost("a", site, packet.MustParseAddr("10.0.0.2"), WiFiAccess())
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate address did not panic")
		}
	}()
	n.AddHost("b", site, packet.MustParseAddr("10.0.0.2"), WiFiAccess())
}

func TestPathRouters(t *testing.T) {
	n, h1, h2, east, west := buildTestNet(t)
	routers := n.PathRouters(h1, h2.Addr)
	if len(routers) != 3 {
		t.Fatalf("path routers = %v, want 3", routers)
	}
	if routers[0] != east.Router || routers[2] != west.Router {
		t.Fatalf("path = %v", routers)
	}
}

func TestHostStatsAccumulate(t *testing.T) {
	n, h1, h2, _, _ := buildTestNet(t)
	h2.Handler = func(p *packet.Packet) {}
	n.Send(h1, udpTo(h2.Addr, make([]byte, 72)))
	n.Sched.Run()
	if h1.Up.OfferedPackets != 1 || h1.Up.OfferedBytes != 100 {
		t.Fatalf("sender stats = %d pkts %d bytes, want 1/100", h1.Up.OfferedPackets, h1.Up.OfferedBytes)
	}
	if h2.Down.OfferedPackets != 1 || h2.Down.CarriedBytes != 100 {
		t.Fatalf("receiver stats = %d pkts %d bytes", h2.Down.OfferedPackets, h2.Down.CarriedBytes)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []time.Duration {
		n, h1, h2, _, _ := buildTestNet(t)
		var times []time.Duration
		h2.Handler = func(p *packet.Packet) { times = append(times, n.Sched.Now()) }
		for i := 0; i < 20; i++ {
			d := time.Duration(i) * 7 * time.Millisecond
			n.Sched.At(d, func() { n.Send(h1, udpTo(h2.Addr, make([]byte, 50))) })
		}
		n.Sched.Run()
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ: %d vs %d deliveries", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}
