// Package netsim is the network fabric of the measurement lab: geo-placed
// sites connected by backbone links, hosts attached through access links
// (the "WiFi AP" position of the paper's testbed), static shortest-path
// routing with per-hop TTL handling, anycast address groups, capture taps,
// and tc-netem-style impairment attachment points.
//
// The fabric is intentionally a fluid-flow approximation at the link level:
// each link serializes packets at its configured bandwidth and applies
// propagation delay plus bounded FIFO queueing with tail drop. That is the
// minimum mechanism that still produces real queueing delay, real loss under
// overload, and realistic traceroute/ping behaviour.
//
// The per-packet path is engineered to be (near-)zero-allocation. Send
// copies the payload once, into the wire buffer of a pooled forwarding-state
// struct, at the offset the headers would take; that buffer and a copy of
// the headers ride the state through every hop (queued on each link it
// crosses, in the link's FIFO of packets in flight, so the scheduler holds
// one entry per busy link rather than one per packet). States are pooled by
// the size class of their frame (64, 576 or 1,536 bytes), and each gets its
// buffer once, at its class's capacity. The wire image exists only where a
// capture tap reads it: the headers are written in front of the payload at
// departure for a tapped sender, and at delivery, with the hop-decremented
// TTL, for a tapped receiver. Every packet fact lands in one plain-int
// ledger (Conservation), and every queue delay and router ICMP error in
// plain tallies beside it, which FlushMetrics folds into the metrics
// registry at lab teardown. See DESIGN.md "The packet hot path".
package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/svrlab/svrlab/internal/geo"
	"github.com/svrlab/svrlab/internal/obs"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/simtime"
	"github.com/svrlab/svrlab/internal/trace"
)

// DefaultTTL is the initial TTL of packets sent without an explicit TTL.
const DefaultTTL = 64

// perHopCost models router forwarding latency at every site hop.
const perHopCost = 100 * time.Microsecond

// Dir names a side of a host's access link, from the host's perspective:
// the way a packet crossed a capture tap, or the side a netem impairs.
type Dir int

const (
	DirUp   Dir = iota // host -> network
	DirDown            // network -> host
)

func (d Dir) String() string {
	if d == DirUp {
		return "uplink"
	}
	return "downlink"
}

// TapFunc observes wire bytes crossing a host's access point. The bytes are
// valid only for the duration of the call: the fabric reuses wire buffers
// across packets, so taps that keep bytes must copy them (a capture sniffer
// keeps a fixed-size record and a pcap tap writes them out, DESIGN §4.11).
type TapFunc func(at time.Duration, dir Dir, wire []byte)

// Netem is a tc-netem-equivalent impairment applied to one direction of a
// host's access link, to every packet or, with TCPOnly, to TCP packets
// alone (the Fig. 13 "TCP uplink only" experiments).
type Netem struct {
	RateBps   float64       // token rate cap; 0 = unlimited
	Delay     time.Duration // added constant delay
	Loss      float64       // drop probability in [0,1]
	TCPOnly   bool          // impair only TCP packets
	busyUntil time.Duration
}

func (n *Netem) matches(p *packet.Packet) bool {
	return n != nil && (!n.TCPOnly || p.IP.Protocol == packet.ProtoTCP)
}

// Link is a unidirectional transmission resource. The zero value is an
// infinitely fast link with no delay.
type Link struct {
	BandwidthBps float64       // 0 = infinite
	PropDelay    time.Duration // propagation latency
	Jitter       time.Duration // uniform random extra delay in [0, Jitter)
	MaxQueue     time.Duration // max tolerated queueing delay before tail drop
	busyUntil    time.Duration
	lastArrive   time.Duration
	// inFlight holds the packets crossing the link, in arrival order. The
	// order is FIFO because transmit never returns an arrival before the
	// previous one, which simtime.Scheduler.Push relies on and checks.
	inFlight simtime.Queue

	// down marks a chaos-disabled link: offered packets are dropped and the
	// route computation excludes it (see Network.SetLinkDown).
	down bool

	// Per-link ledger, audited at end of run (package audit): every packet
	// offered to the link is either carried or dropped here.
	OfferedPackets, DroppedPackets int
	OfferedBytes, CarriedBytes     int64
}

// noteDownDrop records a packet dropped because the link was down in the
// link's conservation ledger (the packet never reaches transmit).
func (l *Link) noteDownDrop(size int) {
	l.OfferedPackets++
	l.OfferedBytes += int64(size)
	l.DroppedPackets++
}

// transmit computes when a packet of size bytes finishes crossing the link
// if it enters at now, honouring serialization, queueing, and tail drop.
// Delivery is FIFO: jitter never reorders packets within a link (reordering
// would make TCP see phantom loss via duplicate ACKs).
// The returned qdelay is how long the packet waited for the link to free
// up before serialization began.
func (l *Link) transmit(now time.Duration, size int, rng *rand.Rand) (arrive, qdelay time.Duration, dropped bool) {
	l.OfferedPackets++
	l.OfferedBytes += int64(size)
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	qdelay = start - now
	if l.MaxQueue > 0 && qdelay > l.MaxQueue {
		l.DroppedPackets++
		return 0, qdelay, true
	}
	l.CarriedBytes += int64(size)
	var tx time.Duration
	if l.BandwidthBps > 0 {
		tx = time.Duration(float64(size*8) / l.BandwidthBps * float64(time.Second))
	}
	l.busyUntil = start + tx
	arrive = l.busyUntil + l.PropDelay
	if l.Jitter > 0 && rng != nil {
		arrive += time.Duration(rng.Float64() * float64(l.Jitter))
	}
	if arrive < l.lastArrive {
		arrive = l.lastArrive
	}
	l.lastArrive = arrive
	return arrive, qdelay, false
}

// Site is a routing location: a point of presence with a router address.
type Site struct {
	Name   string
	Loc    geo.Point
	Router packet.Addr

	index     int
	neighbors map[*Site]*Link
	// nbOrder lists neighbors in Connect order, giving route computation a
	// deterministic iteration order (map iteration is randomized).
	nbOrder []*Site
}

// Host is an endpoint attached to a site through up/down access links.
type Host struct {
	ID   string
	Addr packet.Addr
	Site *Site

	// Up and Down are the access links (host->site and site->host).
	Up, Down *Link
	// UpNetem and DownNetem are optional impairments, applied before the
	// access link in the send direction and after it when receiving.
	UpNetem, DownNetem *Netem

	// Handler receives every packet addressed to this host. Typically the
	// transport demultiplexer. The packet, headers and Payload included, is
	// the fabric's copy and is valid only during the call, like a tap's wire
	// bytes: a handler that keeps anything past the call must copy it.
	Handler func(*packet.Packet)

	taps []TapFunc
	net  *Network

	// down marks a crashed host (see Network.SetHostDown): it cannot send,
	// packets addressed to it are dropped, and anycast resolution skips it.
	down bool

	// TappedUpBytes/TappedDownBytes total the wire bytes handed to capture
	// taps per direction — the audit bound for check (d): captures can never
	// report more bytes than the access links offered/carried.
	TappedUpBytes, TappedDownBytes int64
	// InjectedBytes totals wire bytes delivered to this host out-of-band by
	// router ICMP errors, which bypass the Down access link; the check (d)
	// bound is TappedDownBytes <= Down.CarriedBytes + InjectedBytes.
	InjectedBytes int64
}

// Tap registers a capture callback at this host's access point; both
// directions are observed, like Wireshark on the paper's WiFi APs.
func (h *Host) Tap(fn TapFunc) { h.taps = append(h.taps, fn) }

// Trace records an event on this host's track (Network.Trace).
func (h *Host) Trace(kind trace.Kind, span uint64, name string, arg, arg2 int64) {
	h.net.Trace(kind, span, h.ID, name, arg, arg2)
}

// runTaps hands pkt's wire image to h's taps. frame holds pkt's payload at
// its header offset, and the bytes in front of it may be stale, so the
// headers are written there first, at pkt's current TTL: only when a tap
// will read them.
func (h *Host) runTaps(at time.Duration, dir Dir, pkt *packet.Packet, frame []byte) {
	if len(h.taps) == 0 {
		return
	}
	pkt.PutHeader(frame)
	if dir == DirUp {
		h.TappedUpBytes += int64(len(frame))
	} else {
		h.TappedDownBytes += int64(len(frame))
	}
	for _, t := range h.taps {
		t(at, dir, frame)
	}
}

// Network is the simulated fabric.
type Network struct {
	Sched    *simtime.Scheduler
	Rng      *rand.Rand
	Registry *geo.Registry
	// Metrics receives the ledger's packet counts (sent, delivered, drops
	// by cause), the per-link-class queueing-delay histograms, the ICMP
	// error counts and every registered endpoint's counts when
	// FlushMetrics runs, at lab teardown. Never nil.
	Metrics *obs.Registry
	// Tracer, when non-nil, is the lab's flight recorder: Trace records
	// packet-lifecycle spans and protocol events into it. Nil (the default)
	// disables tracing at zero cost, and recording never touches the
	// scheduler's queue or Rng, so artifacts are byte-identical with
	// tracing on or off.
	Tracer *trace.Tracer

	sites   []*Site
	hosts   map[packet.Addr]*Host
	anycast map[packet.Addr][]*Host

	// routes is the site-indexed route matrix: routes[src][dst] is the site
	// path, inclusive, or nil if dst is unreachable. A nil routes[src] row
	// means the row has not been computed yet; one Dijkstra run fills the
	// whole row. A nil routes means the matrix is invalid (topology edit).
	routes [][][]*Site

	// fwdFree pools forwarding states (and their wire buffers) by wire
	// class, so the per-packet path allocates nothing once warm.
	fwdFree [len(wireClasses)][]*fwdState
	// fwdLive counts forwarding states acquired but not yet released — the
	// packets in flight inside the fabric, audited at end of run.
	fwdLive int

	ipid uint16

	// cons is the Network-local packet ledger. It lives on the Network, not
	// in the registry, because the registry may be shared across sweep
	// cells (experiment.Env.Metrics): per-lab conservation can only be
	// audited against per-network tallies.
	cons Conservation
	// flushed records that FlushMetrics has added cons, qdelay, icmp and
	// the endpoints' counts to Metrics.
	flushed bool

	// endpoints lists the counting owners attached to this fabric
	// (transport stacks, TLS sessions, voice streams, headset monitors), in
	// registration order: FlushMetrics folds each, and the end-of-run
	// auditor walks the stacks among them.
	endpoints []Endpoint

	// qdelay and icmp hold the facts the ledger does not: queueing delay
	// per link class and router ICMP errors per type. Like the ledger they
	// are plain single-owner tallies, so the per-hop path touches no shared
	// cache line.
	qdelay [numLinkClasses]obs.Durations
	icmp   [numICMPClasses]int64
}

// New creates an empty network bound to a scheduler and seeded RNG. It
// records into m, so one registry can span the whole deployment (or sweep
// cell); a nil m gets a fresh private registry.
func New(s *simtime.Scheduler, seed int64, m *obs.Registry) *Network {
	if m == nil {
		m = obs.NewRegistry()
	}
	return &Network{
		Sched:    s,
		Rng:      rand.New(rand.NewSource(seed)),
		Registry: geo.NewRegistry(),
		Metrics:  m,
		hosts:    make(map[packet.Addr]*Host),
		anycast:  make(map[packet.Addr][]*Host),
	}
}

// Trace is the one way into the flight recorder: it records one event,
// stamped with the current virtual time, on the given span and track, and
// does nothing when tracing is off. Host, transport.Conn and
// transport.UDPSocket wrap it to fill in the track and span they own.
func (n *Network) Trace(kind trace.Kind, span uint64, track, name string, arg, arg2 int64) {
	if n.Tracer != nil {
		n.Tracer.Record(trace.Event{At: n.Sched.Now(), Kind: kind, Span: span, Track: track, Name: name, Arg: arg, Arg2: arg2})
	}
}

// SetHostDown crashes (true) or restarts (false) a host. A down host cannot
// send, packets addressed to it are dropped with cause "host-down", and
// anycast resolution skips its instances — traffic to a shared service
// address fails over to the next-nearest up instance (chaos failover). The
// host's transport state survives: the model is network-level isolation, not
// process loss. Idempotent.
func (n *Network) SetHostDown(h *Host, down bool) { h.down = down }

// SetLinkDown disables (true) or restores (false) the backbone links between
// two connected sites, both directions. While down, the route computation
// excludes the links and packets already in flight across them are dropped
// with cause "link-down". Panics if the sites are not connected.
func (n *Network) SetLinkDown(a, b *Site, down bool) {
	la, lb := a.neighbors[b], b.neighbors[a]
	if la == nil || lb == nil {
		panic(fmt.Sprintf("netsim: no link between %s and %s", a.Name, b.Name))
	}
	if la.down == down && lb.down == down {
		return
	}
	la.down = down
	lb.down = down
	n.routes = nil
}

// SetSitePartitioned isolates (true) or heals (false) a site by taking every
// backbone link touching it down, both directions. Hosts at the site keep
// their access links; they just cannot reach (or be reached from) the rest
// of the fabric — a BGP-withdrawal-style partition.
func (n *Network) SetSitePartitioned(s *Site, partitioned bool) {
	changed := false
	for _, nb := range s.nbOrder {
		out, in := s.neighbors[nb], nb.neighbors[s]
		if out.down != partitioned || in.down != partitioned {
			out.down = partitioned
			in.down = partitioned
			changed = true
		}
	}
	if changed {
		n.routes = nil
	}
}

// AddSite creates a routing site. The router address must be unique.
func (n *Network) AddSite(name string, loc geo.Point, router packet.Addr) *Site {
	s := &Site{Name: name, Loc: loc, Router: router, index: len(n.sites), neighbors: make(map[*Site]*Link)}
	n.sites = append(n.sites, s)
	n.routes = nil
	return s
}

// Connect joins two sites with symmetric backbone links whose propagation
// delay derives from geography. Backbone links are provisioned fat (no
// congestion): the paper's bottlenecks are access links and servers.
func (n *Network) Connect(a, b *Site) {
	d := geo.PropagationDelay(a.Loc, b.Loc)
	mk := func() *Link {
		return &Link{BandwidthBps: 10e9, PropDelay: d, Jitter: 50 * time.Microsecond, MaxQueue: 500 * time.Millisecond}
	}
	if _, dup := a.neighbors[b]; !dup {
		a.nbOrder = append(a.nbOrder, b)
		b.nbOrder = append(b.nbOrder, a)
	}
	a.neighbors[b] = mk()
	b.neighbors[a] = mk()
	n.routes = nil
}

// AccessProfile describes a host's last-mile connection.
type AccessProfile struct {
	UpBps, DownBps float64
	Delay          time.Duration
	Jitter         time.Duration
	MaxQueue       time.Duration
}

// WiFiAccess approximates the paper's campus WiFi APs.
func WiFiAccess() AccessProfile {
	return AccessProfile{UpBps: 100e6, DownBps: 100e6, Delay: 1 * time.Millisecond, Jitter: 300 * time.Microsecond, MaxQueue: 200 * time.Millisecond}
}

// DatacenterAccess approximates a server NIC.
func DatacenterAccess() AccessProfile {
	return AccessProfile{UpBps: 1e9, DownBps: 1e9, Delay: 200 * time.Microsecond, Jitter: 50 * time.Microsecond, MaxQueue: 200 * time.Millisecond}
}

// AddHost attaches a host with the given unique address to a site.
func (n *Network) AddHost(id string, site *Site, addr packet.Addr, ap AccessProfile) *Host {
	if _, dup := n.hosts[addr]; dup {
		panic(fmt.Sprintf("netsim: duplicate host address %v", addr))
	}
	h := &Host{
		ID: id, Addr: addr, Site: site,
		Up:   &Link{BandwidthBps: ap.UpBps, PropDelay: ap.Delay, Jitter: ap.Jitter, MaxQueue: ap.MaxQueue},
		Down: &Link{BandwidthBps: ap.DownBps, PropDelay: ap.Delay, Jitter: ap.Jitter, MaxQueue: ap.MaxQueue},
		net:  n,
	}
	n.hosts[addr] = h
	return h
}

// AddAnycast binds a shared service address to a set of host instances.
// Sends to addr resolve to the instance nearest (in path delay) to the
// sender's site, mirroring BGP anycast.
func (n *Network) AddAnycast(addr packet.Addr, instances ...*Host) {
	if len(instances) == 0 {
		panic("netsim: anycast group needs at least one instance")
	}
	n.anycast[addr] = append(n.anycast[addr], instances...)
}

// computeRoutes runs Dijkstra from a and materializes the minimum-delay
// site path to every reachable site, filling each path backwards in linear
// time. Each round settles the nearest unsettled site, found by linear
// scan, the lowest index among equals, which keeps route choice
// deterministic. A lab has a handful of sites and computes each row once
// per topology edit, so a priority queue would not pay for itself.
func (n *Network) computeRoutes(a *Site) [][]*Site {
	const inf = time.Duration(1<<62 - 1)
	dist := make([]time.Duration, len(n.sites))
	prev := make([]*Site, len(n.sites))
	done := make([]bool, len(n.sites))
	for i := range dist {
		dist[i] = inf
	}
	dist[a.index] = 0
	for {
		best := -1
		for i, d := range dist {
			if !done[i] && d < inf && (best < 0 || d < dist[best]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		done[best] = true
		cur := n.sites[best]
		for _, nb := range cur.nbOrder {
			l := cur.neighbors[nb]
			if l.down {
				continue // chaos-disabled link: route around it
			}
			alt := dist[best] + l.PropDelay + perHopCost
			if alt < dist[nb.index] {
				dist[nb.index] = alt
				prev[nb.index] = cur
			}
		}
	}
	row := make([][]*Site, len(n.sites))
	for bi := range n.sites {
		if dist[bi] == inf {
			continue
		}
		depth := 0
		for s := n.sites[bi]; s != nil; s = prev[s.index] {
			depth++
			if s == a {
				break
			}
		}
		path := make([]*Site, depth)
		i := depth - 1
		for s := n.sites[bi]; s != nil; s = prev[s.index] {
			path[i] = s
			i--
			if s == a {
				break
			}
		}
		if path[0] == a {
			row[bi] = path
		}
	}
	return row
}

// sitePath returns the minimum-delay site sequence from a to b (inclusive),
// or nil if unreachable. Rows of the route matrix are computed lazily, one
// Dijkstra per source site, and invalidated on topology edits.
func (n *Network) sitePath(a, b *Site) []*Site {
	if n.routes == nil {
		n.routes = make([][][]*Site, len(n.sites))
	}
	row := n.routes[a.index]
	if row == nil {
		row = n.computeRoutes(a)
		n.routes[a.index] = row
	}
	return row[b.index]
}

// pathDelay sums the propagation+hop costs along a site path.
func (n *Network) pathDelay(path []*Site) time.Duration {
	var d time.Duration
	for i := 0; i+1 < len(path); i++ {
		d += path[i].neighbors[path[i+1]].PropDelay + perHopCost
	}
	return d
}

// Resolve returns the host that a packet to addr, sent from a host at site
// from, reaches: the host with that address, or else the up instance of
// the anycast group at addr with the least path delay from that site. The
// pick is recomputed on every call, so a host or link going down or up
// counts from the next send.
func (n *Network) Resolve(addr packet.Addr, from *Site) (*Host, bool) {
	if h, ok := n.hosts[addr]; ok {
		return h, true
	}
	var best *Host
	bestD := time.Duration(1<<62 - 1)
	for _, h := range n.anycast[addr] {
		if h.down {
			continue // crashed instance: fail over to the next-nearest
		}
		p := n.sitePath(from, h.Site)
		if p == nil {
			continue
		}
		if d := n.pathDelay(p); d < bestD {
			bestD, best = d, h
		}
	}
	return best, best != nil
}

// wireClasses are the capacities of pooled wire buffers, one free list each:
// a frame rides a state of the smallest class that holds it. Most frames are
// pure ACKs (64) or avatar and voice datagrams (576); 1,536 holds a full TCP
// segment. A larger frame gets a state with an exact-size buffer, which is
// not pooled.
var wireClasses = [...]int{64, 576, 1536}

// wireClass returns the class index of a frame or buffer of size bytes, or
// len(wireClasses) above the top class.
func wireClass(size int) int {
	c := 0
	for c < len(wireClasses) && size > wireClasses[c] {
		c++
	}
	return c
}

// fwdState carries one in-flight packet across its hops: the fabric's own
// copy of the packet, its frame buffer, and the route. The copy holds the
// headers by value (tcp, udp and icmp back its transport pointer) and its
// Payload aliases buf at the header offset, so nothing of the sender's
// packet is kept once Send returns; buf[:size] becomes the frame's wire
// image only when runTaps writes the headers in front. Its step methods are
// bound to func values once at construction, so scheduling the next hop
// costs no closure allocation, and released states (buffer included) are
// pooled on the owning Network by wire class.
type fwdState struct {
	n        *Network
	pkt      packet.Packet
	tcp      packet.TCP
	udp      packet.UDP
	icmp     packet.ICMP
	src, dst *Host
	path     []*Site
	hop      int
	size     int
	span     uint64 // trace span id (0 when tracing is off)
	buf      []byte // sized once, to the class of the first frame
	// onLink threads the state through the inFlight queue of the link it
	// is crossing; a packet is on at most one link at a time.
	onLink simtime.Item

	emitFn    func()
	forwardFn func()
	deliverFn func()
}

// acquireFwd returns a state whose buffer holds a frame of size bytes: a
// pooled one of the frame's class, or a new one with a buffer of the class's
// capacity (of exactly size bytes above the top class).
func (n *Network) acquireFwd(size int) *fwdState {
	n.fwdLive++
	c := wireClass(size)
	if c < len(wireClasses) {
		if free := n.fwdFree[c]; len(free) > 0 {
			fs := free[len(free)-1]
			free[len(free)-1] = nil
			n.fwdFree[c] = free[:len(free)-1]
			return fs
		}
		size = wireClasses[c]
	}
	fs := &fwdState{n: n, buf: make([]byte, size)}
	fs.emitFn = fs.emit
	fs.forwardFn = fs.forward
	fs.deliverFn = fs.deliver
	return fs
}

// releaseFwd returns a terminal (delivered or dropped) state to its class's
// pool; a state with an above-class buffer is left to the collector. The
// buffer is kept for reuse by the next packet; taps and handlers only see it
// during their call, per the TapFunc and Host.Handler contracts. The packet
// copy is zeroed because Send sets only the transport pointer the next
// packet carries.
func (n *Network) releaseFwd(fs *fwdState) {
	n.fwdLive--
	c := wireClass(cap(fs.buf))
	if c == len(wireClasses) {
		return
	}
	fs.pkt = packet.Packet{}
	fs.src, fs.dst, fs.path = nil, nil, nil
	fs.hop, fs.size, fs.span = 0, 0, 0
	n.fwdFree[c] = append(n.fwdFree[c], fs)
}

// drop is the one place a packet leaves the fabric undelivered: it books the
// cause in the ledger, records the drop span under the cause's label at the
// host or site named by where, and releases the forwarding state. fs is nil
// for a refused send, which never acquired one.
func (n *Network) drop(fs *fwdState, cause Cause, where string) {
	n.cons.Drops[cause]++
	if fs == nil {
		n.Trace(trace.KindPacketDrop, 0, where, causes[cause].label, 0, 0)
		return
	}
	n.Trace(trace.KindPacketDrop, fs.span, where, causes[cause].label, int64(fs.size), 0)
	n.releaseFwd(fs)
}

// Send transmits pkt from host h. The IP source defaults to h's address
// when unset; services answering on an anycast address set it explicitly.
// TTL defaults to DefaultTTL when zero. Returns false if the destination is
// unroutable (the packet is silently dropped, as the real Internet would).
//
// Ownership: Send fills the caller's IP.Src, IP.TTL and IP.ID defaults,
// copies the payload into the fabric's forwarding state at its header
// offset, and copies the headers into the state by value. Once Send
// returns, pkt and its payload are the caller's again: the caller may reuse
// the Packet for another Send or overwrite the payload bytes in place, and
// what the fabric delivers does not change. Send keeps
// no reference to pkt, so a caller's Packet and header literals stay on its
// stack. See TestPacketOwnershipAfterSend.
//
// The capture tap sits after the uplink netem impairment — the paper's
// vantage point (tc-netem and Wireshark on the same AP, with capture seeing
// post-qdisc traffic), so shaped rates are what captures report.
func (n *Network) Send(h *Host, pkt *packet.Packet) bool {
	if pkt.IP.Src == 0 {
		pkt.IP.Src = h.Addr
	}
	if pkt.IP.TTL == 0 {
		pkt.IP.TTL = DefaultTTL
	}

	// A crashed host cannot put packets on the wire at all; like unroutable
	// sends this refusal happens before any send accounting, so it sits
	// outside the conservation identity (no Sent, no in-flight state).
	if h.down {
		n.drop(nil, CauseHostDownTx, h.ID)
		return false
	}

	dst, ok := n.Resolve(pkt.IP.Dst, h.Site)
	var path []*Site
	if ok {
		path = n.sitePath(h.Site, dst.Site)
	}
	if path == nil {
		n.drop(nil, CauseUnroutable, h.ID)
		return false
	}

	// Consume an IP ID only for routable packets: unroutable sends must not
	// perturb the ID sequence of delivered traffic.
	n.ipid++
	pkt.IP.ID = n.ipid

	size := pkt.WireLen()
	if size > packet.MaxWireLen {
		panic("netsim: frame exceeds IPv4 total-length field")
	}
	fs := n.acquireFwd(size)
	fs.src, fs.dst, fs.path = h, dst, path
	fs.size = size
	fs.span = n.Tracer.NextSpan()
	// The fabric's copy, made field by field: assigning *pkt whole, or
	// storing any pointer or slice taken from pkt, would make the caller's
	// packet escape again.
	fs.pkt.IP = pkt.IP
	if pkt.UDP != nil {
		fs.udp = *pkt.UDP
		fs.pkt.UDP = &fs.udp
	}
	if pkt.TCP != nil {
		fs.tcp = *pkt.TCP
		fs.pkt.TCP = &fs.tcp
	}
	if pkt.ICMP != nil {
		fs.icmp = *pkt.ICMP
		fs.pkt.ICMP = &fs.icmp
	}
	fs.pkt.Payload = fs.buf[size-len(pkt.Payload) : size]
	copy(fs.pkt.Payload, pkt.Payload)

	now := n.Sched.Now()
	n.cons.Sent++
	n.Trace(trace.KindPacketSend, fs.span, h.ID, protoName(&fs.pkt), int64(fs.size), 0)

	// Uplink netem first (loss, shaping, delay)...
	depart := now
	if h.UpNetem.matches(&fs.pkt) {
		d, cause, dropped := n.applyNetem(h.UpNetem, depart, fs.size, DirUp)
		if dropped {
			n.drop(fs, cause, h.ID)
			return true // consumed (dropped) — still "sent"
		}
		depart = d
	}
	// ...then tap and access link at departure time.
	if depart <= now {
		fs.emit()
	} else {
		n.Sched.At(depart, fs.emitFn)
	}
	return true
}

// protoName labels a packet's protocol with a constant string.
func protoName(p *packet.Packet) string {
	switch p.IP.Protocol {
	case packet.ProtoUDP:
		return "udp"
	case packet.ProtoTCP:
		return "tcp"
	case packet.ProtoICMP:
		return "icmp"
	}
	return "ip"
}

// applyNetem applies loss, rate limiting and delay to a packet crossing in
// direction dir. It returns the new departure time, or dropped and the
// cause.
func (n *Network) applyNetem(ne *Netem, now time.Duration, size int, dir Dir) (depart time.Duration, cause Cause, dropped bool) {
	if ne.Loss > 0 && n.Rng.Float64() < ne.Loss {
		return 0, CauseNetemLossUp + Cause(dir), true
	}
	depart = now
	if ne.RateBps > 0 {
		start := depart
		if ne.busyUntil > start {
			start = ne.busyUntil
		}
		// Bounded shaping queue: beyond 250 ms of backlog the shaper tail-drops,
		// as tbf/netem with a finite limit would.
		if start-now > 250*time.Millisecond {
			return 0, CauseNetemQueueUp + Cause(dir), true
		}
		tx := time.Duration(float64(size*8) / ne.RateBps * float64(time.Second))
		ne.busyUntil = start + tx
		depart = ne.busyUntil
	}
	return depart + ne.Delay, 0, false
}

// emit runs the uplink tap and access-link transmission at departure time.
func (fs *fwdState) emit() {
	n := fs.n
	h := fs.src
	// The host may have crashed between Send (netem delay) and departure.
	if h.down {
		n.drop(fs, CauseHostDown, h.ID)
		return
	}
	h.runTaps(n.Sched.Now(), DirUp, &fs.pkt, fs.buf[:fs.size])
	arrive, qd, drop := h.Up.transmit(n.Sched.Now(), fs.size, n.Rng)
	if drop {
		n.drop(fs, CauseAccessUp, h.ID)
		return
	}
	n.qdelay[linkAccessUp].Observe(qd)
	n.Sched.Push(&h.Up.inFlight, &fs.onLink, arrive, fs.forwardFn)
}

// forward walks the packet through the site at fs.hop: router TTL handling,
// then either the next backbone link or the destination access link.
func (fs *fwdState) forward() {
	n := fs.n
	site := fs.path[fs.hop]
	pkt := &fs.pkt
	// Router TTL handling.
	if pkt.IP.TTL <= 1 {
		n.sendICMPError(site, fs.src, pkt, packet.ICMPTimeExceeded, 0)
		n.drop(fs, CauseTTL, site.Name)
		return
	}
	pkt.IP.TTL--
	n.Trace(trace.KindPacketHop, fs.span, site.Name, "hop", int64(fs.size), 0)

	if fs.hop == len(fs.path)-1 {
		// Final site: cross the destination access link.
		depart := n.Sched.Now() + perHopCost
		arrive, qd, drop := fs.dst.Down.transmit(depart, fs.size, n.Rng)
		if drop {
			n.drop(fs, CauseAccessDown, fs.dst.ID)
			return
		}
		n.qdelay[linkAccessDown].Observe(qd)
		if fs.dst.DownNetem.matches(pkt) {
			// Downlink netem can reorder what the link delivered in order
			// (it may delay only TCP, and its Delay may change mid-run),
			// so an impaired delivery is an ordinary event.
			d, cause, dropped := n.applyNetem(fs.dst.DownNetem, arrive, fs.size, DirDown)
			if dropped {
				n.drop(fs, cause, fs.dst.ID)
				return
			}
			n.Sched.At(d, fs.deliverFn)
			return
		}
		n.Sched.Push(&fs.dst.Down.inFlight, &fs.onLink, arrive, fs.deliverFn)
		return
	}
	next := fs.path[fs.hop+1]
	l := site.neighbors[next]
	// A link taken down after this packet was routed drops it here — the
	// in-flight casualty of a chaos link-down/partition event.
	if l.down {
		l.noteDownDrop(fs.size)
		n.drop(fs, CauseLinkDown, site.Name)
		return
	}
	arrive, qd, drop := l.transmit(n.Sched.Now()+perHopCost, fs.size, n.Rng)
	if drop {
		n.drop(fs, CauseBackbone, site.Name)
		return
	}
	n.qdelay[linkBackbone].Observe(qd)
	fs.hop++
	n.Sched.Push(&l.inFlight, &fs.onLink, arrive, fs.forwardFn)
}

// deliver hands the packet to the destination. A down-tap sees the headers
// written at its hop-decremented TTL in front of the payload: bytes
// identical to a full marshal of the delivered packet (asserted by
// TestWireFidelityAcrossFabric).
func (fs *fwdState) deliver() {
	// The destination may have crashed while the packet was in flight; a
	// down host's NIC is gone, so the packet dies at the access link.
	if fs.dst.down {
		fs.n.drop(fs, CauseHostDown, fs.dst.ID)
		return
	}
	fs.n.Trace(trace.KindPacketDeliver, fs.span, fs.dst.ID, "deliver", int64(fs.size), 0)
	fs.n.deliverWire(fs.dst, &fs.pkt, fs.buf[:fs.size])
	fs.n.releaseFwd(fs)
}

// deliverWire books a delivery, shows frame, the buffer holding pkt's
// payload at its header offset, to dst's taps, and hands pkt to its
// handler.
func (n *Network) deliverWire(dst *Host, pkt *packet.Packet, frame []byte) {
	n.cons.Delivered++
	dst.runTaps(n.Sched.Now(), DirDown, pkt, frame)
	if dst.Handler != nil {
		dst.Handler(pkt)
	}
}

// sendICMPError emits an ICMP error from site's router back to the
// original sender. The reverse trip reuses the forward path delays without
// queueing — adequate for probe RTT estimation.
func (n *Network) sendICMPError(site *Site, to *Host, orig *packet.Packet, icmpType, code uint8) {
	reply := &packet.Packet{
		IP:      packet.IPv4{TTL: DefaultTTL, Protocol: packet.ProtoICMP, Src: site.Router, Dst: to.Addr},
		ICMP:    &packet.ICMP{Type: icmpType, Code: code, ID: orig.IP.ID},
		Payload: icmpQuote(orig),
	}
	n.countICMP(icmpType)
	back := perHopCost
	if p := n.sitePath(site, to.Site); p != nil {
		back += n.pathDelay(p)
	}
	back += to.Down.PropDelay
	wire := reply.Marshal()
	n.Sched.After(back, func() {
		// The sender may have crashed while the error was in flight.
		if to.down {
			return
		}
		// Injected deliveries bypass the normal Send path, so they carry
		// their own conservation accounting: ICMPInjected balances the
		// Delivered increment inside deliverWire, and InjectedBytes feeds
		// the capture-bytes audit bound (the bytes never crossed to.Down).
		// Both trace stamps are recorded here, at delivery time, so the
		// span count identity (#send == sent+injected) holds at teardown.
		n.cons.ICMPInjected++
		to.InjectedBytes += int64(len(wire))
		span := n.Tracer.NextSpan()
		n.Trace(trace.KindPacketSend, span, "icmp-router", "icmp", int64(len(wire)), 0)
		n.Trace(trace.KindPacketDeliver, span, to.ID, "deliver", int64(len(wire)), 0)
		n.deliverWire(to, reply, wire)
	})
}

// SendICMPFromHost lets a host's stack emit ICMP errors (e.g. port
// unreachable when a UDP probe hits a closed port, which terminates a
// traceroute).
func (n *Network) SendICMPFromHost(h *Host, orig *packet.Packet, icmpType, code uint8) {
	dst, ok := n.hosts[orig.IP.Src]
	if !ok {
		return
	}
	reply := &packet.Packet{
		// Reply from the address the probe targeted (for anycast services
		// this is the shared service address, as real deployments answer).
		IP:      packet.IPv4{Protocol: packet.ProtoICMP, Src: orig.IP.Dst, Dst: dst.Addr},
		ICMP:    &packet.ICMP{Type: icmpType, Code: code, ID: orig.IP.ID},
		Payload: icmpQuote(orig),
	}
	n.countICMP(icmpType)
	n.Send(h, reply)
}

// icmpQuote returns what an ICMP error about orig quotes: its first 28
// bytes, the header's identifying fields, as real ICMP does. Probes match
// replies by this quote.
func icmpQuote(orig *packet.Packet) []byte {
	quoted := orig.Marshal()
	if len(quoted) > 28 {
		quoted = quoted[:28]
	}
	return quoted
}

func (n *Network) countICMP(icmpType uint8) {
	switch icmpType {
	case packet.ICMPTimeExceeded:
		n.icmp[icmpTimeExceeded]++
	case packet.ICMPDestUnreach:
		n.icmp[icmpDestUnreach]++
	default:
		n.icmp[icmpOther]++
	}
}

// PathRouters exposes the router addresses a packet from h to dst would
// traverse — used by tests to validate traceroute output.
func (n *Network) PathRouters(h *Host, dstAddr packet.Addr) []packet.Addr {
	dst, ok := n.Resolve(dstAddr, h.Site)
	if !ok {
		return nil
	}
	path := n.sitePath(h.Site, dst.Site)
	out := make([]packet.Addr, 0, len(path))
	for _, s := range path {
		out = append(out, s.Router)
	}
	return out
}
