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
// The per-packet path is engineered to be (near-)zero-allocation: a packet
// is marshaled exactly once at Send, the wire buffer rides a pooled
// forwarding-state struct through every hop (scheduled via the scheduler's
// pooled fire-and-forget events), delivery patches the hop-decremented TTL
// into the existing buffer with an incremental checksum update
// (packet.PatchTTL), and every packet fact lands in one plain-int ledger
// (Conservation) that FlushMetrics folds into the metrics registry at lab
// teardown. See DESIGN.md "The packet hot path".
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

// Dir tells a capture tap which way a packet crossed the tap point, from the
// host's perspective.
type Dir int

const (
	DirUp   Dir = iota // host -> network
	DirDown            // network -> host
)

func (d Dir) String() string {
	if d == DirUp {
		return "up"
	}
	return "down"
}

// TapFunc observes wire bytes crossing a host's access point. The bytes are
// valid only for the duration of the call: the fabric reuses wire buffers
// across packets, so taps that keep bytes must copy them (capture copies
// into pooled arena chunks, DESIGN §4.11).
type TapFunc func(at time.Duration, dir Dir, wire []byte)

// Netem is a tc-netem-equivalent impairment applied to one direction of a
// host's access link. A nil Filter matches every packet; otherwise the
// impairment applies only to packets for which Filter returns true (used by
// the Fig. 13 "TCP uplink only" experiments).
type Netem struct {
	RateBps   float64       // token rate cap; 0 = unlimited
	Delay     time.Duration // added constant delay
	Loss      float64       // drop probability in [0,1]
	Filter    func(*packet.Packet) bool
	busyUntil time.Duration
}

func (n *Netem) matches(p *packet.Packet) bool {
	return n != nil && (n.Filter == nil || n.Filter(p))
}

// FilterTCP matches only TCP packets (for TCP-only impairments).
func FilterTCP(p *packet.Packet) bool { return p.IP.Protocol == packet.ProtoTCP }

// FilterUDP matches only UDP packets.
func FilterUDP(p *packet.Packet) bool { return p.IP.Protocol == packet.ProtoUDP }

// Link is a unidirectional transmission resource.
type Link struct {
	BandwidthBps float64       // 0 = infinite
	PropDelay    time.Duration // propagation latency
	Jitter       time.Duration // uniform random extra delay in [0, Jitter)
	MaxQueue     time.Duration // max tolerated queueing delay before tail drop
	busyUntil    time.Duration
	lastArrive   time.Duration

	// down marks a chaos-disabled link: offered packets are dropped and the
	// route computation excludes it (see Network.SetLinkDown).
	down bool

	// Per-link ledger, audited at end of run (package audit): every packet
	// offered to the link is either carried or dropped here.
	OfferedPackets, DroppedPackets int
	OfferedBytes, CarriedBytes     int64
}

// IsDown reports whether the link is chaos-disabled.
func (l *Link) IsDown() bool { return l.down }

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
	// transport demultiplexer.
	Handler func(*packet.Packet)

	taps []TapFunc
	net  *Network

	// down marks a crashed host (see Network.SetHostDown): it cannot send,
	// packets addressed to it are dropped, and anycast resolution skips it.
	down bool

	// Stats observable by tests.
	SentPackets, RecvPackets int
	SentBytes, RecvBytes     int

	// TappedUpBytes/TappedDownBytes total the wire bytes handed to capture
	// taps per direction — the audit bound for check (d): captures can never
	// report more bytes than the access links offered/carried.
	TappedUpBytes, TappedDownBytes int64
	// InjectedBytes totals wire bytes delivered to this host out-of-band by
	// router ICMP errors, which bypass the Down access link; the check (d)
	// bound is TappedDownBytes <= Down.CarriedBytes + InjectedBytes.
	InjectedBytes int64
}

// IsDown reports whether the host is crashed.
func (h *Host) IsDown() bool { return h.down }

// Tap registers a capture callback at this host's access point; both
// directions are observed, like Wireshark on the paper's WiFi APs.
func (h *Host) Tap(fn TapFunc) { h.taps = append(h.taps, fn) }

// Tracer exposes the owning network's flight recorder handle, so layers
// holding only a host (disrupt schedules) can record without extra
// plumbing. Nil when tracing is disabled.
func (h *Host) Tracer() *trace.Tracer { return h.net.Tracer }

func (h *Host) runTaps(at time.Duration, dir Dir, wire []byte) {
	if len(h.taps) == 0 {
		return
	}
	if dir == DirUp {
		h.TappedUpBytes += int64(len(wire))
	} else {
		h.TappedDownBytes += int64(len(wire))
	}
	for _, t := range h.taps {
		t(at, dir, wire)
	}
}

// anycastKey caches anycast resolution per (service address, sender site).
type anycastKey struct {
	addr packet.Addr
	site int
}

// Network is the simulated fabric.
type Network struct {
	Sched    *simtime.Scheduler
	Rng      *rand.Rand
	Registry *geo.Registry
	// Metrics receives the fabric's per-link-class queueing-delay
	// histograms and ICMP error counts as they happen, and the ledger's
	// packet counts (sent, delivered, drops by cause) when FlushMetrics
	// runs. Never nil.
	Metrics *obs.Registry
	// Tracer, when non-nil, records packet-lifecycle spans and protocol
	// events into the lab's flight recorder. Nil (the default) disables
	// tracing at zero cost: every trace method is nil-safe, mirroring the
	// obs handle pattern, and recording never touches the scheduler or Rng,
	// so artifacts are byte-identical with tracing on or off.
	Tracer *trace.Tracer

	sites   []*Site
	hosts   map[packet.Addr]*Host
	anycast map[packet.Addr][]*Host

	// routes is the site-indexed route matrix: routes[src][dst] is the site
	// path, inclusive, or nil if dst is unreachable. A nil routes[src] row
	// means the row has not been computed yet; one Dijkstra run fills the
	// whole row. A nil routes means the matrix is invalid (topology edit).
	routes [][][]*Site
	// anycastCache memoizes ResolveAnycast per (addr, sender site); it is
	// invalidated together with the route matrix. A nil value records a
	// known-unresolvable pair.
	anycastCache map[anycastKey]*Host

	// fwdFree pools forwarding states (and their wire buffers) so the
	// per-packet path allocates nothing once warm.
	fwdFree []*fwdState
	// fwdLive counts forwarding states acquired but not yet released — the
	// packets in flight inside the fabric, audited at end of run.
	fwdLive int

	ipid uint16

	// cons is the Network-local packet ledger. It lives on the Network, not
	// in the registry, because the registry may be shared across sweep
	// cells (NewLabObserved): per-lab conservation can only be audited
	// against per-network tallies. flushed is the part of cons already
	// added to Metrics.
	cons, flushed Conservation

	// endpoints lists transport layers attached to this fabric, in
	// registration order, for the end-of-run auditor (package audit
	// type-asserts them to its own interfaces; netsim stays transport-free).
	endpoints []any

	// Precomputed metric handles for facts the ledger does not hold.
	hQdAccessUp, hQdAccessDown, hQdBackbone obs.Hist
	cICMPTimeExceeded, cICMPDestUnreach     obs.Counter
	cICMPOther                              obs.Counter
}

// New creates an empty network bound to a scheduler and seeded RNG, with a
// private metrics registry.
func New(s *simtime.Scheduler, seed int64) *Network {
	return NewObserved(s, seed, nil)
}

// NewObserved is New with an externally owned metrics registry, so one
// registry can span the whole deployment (or sweep cell). A nil m gets a
// fresh private registry.
func NewObserved(s *simtime.Scheduler, seed int64, m *obs.Registry) *Network {
	if m == nil {
		m = obs.NewRegistry()
	}
	n := &Network{
		Sched:        s,
		Rng:          rand.New(rand.NewSource(seed)),
		Registry:     geo.NewRegistry(),
		Metrics:      m,
		hosts:        make(map[packet.Addr]*Host),
		anycast:      make(map[packet.Addr][]*Host),
		anycastCache: make(map[anycastKey]*Host),
	}
	n.hQdAccessUp = m.Hist("netsim.qdelay.access_up")
	n.hQdAccessDown = m.Hist("netsim.qdelay.access_down")
	n.hQdBackbone = m.Hist("netsim.qdelay.backbone")
	n.cICMPTimeExceeded = m.Counter("netsim.icmp.time_exceeded")
	n.cICMPDestUnreach = m.Counter("netsim.icmp.dest_unreach")
	n.cICMPOther = m.Counter("netsim.icmp.other")
	return n
}

// invalidateRoutes drops the route matrix and the anycast cache after a
// topology edit.
func (n *Network) invalidateRoutes() {
	n.routes = nil
	if len(n.anycastCache) > 0 {
		n.anycastCache = make(map[anycastKey]*Host)
	}
}

// SetHostDown crashes (true) or restarts (false) a host. A down host cannot
// send, packets addressed to it are dropped with cause "host-down", and
// anycast resolution skips its instances — traffic to a shared service
// address fails over to the next-nearest up instance (chaos failover). The
// host's transport state survives: the model is network-level isolation, not
// process loss. Idempotent; invalidates the anycast cache on transitions so
// cached resolutions never point at a dead instance.
func (n *Network) SetHostDown(h *Host, down bool) {
	if h.down == down {
		return
	}
	h.down = down
	// Routes between sites are unaffected, but anycast picks must be redone.
	if len(n.anycastCache) > 0 {
		n.anycastCache = make(map[anycastKey]*Host)
	}
}

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
	n.invalidateRoutes()
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
		n.invalidateRoutes()
	}
}

// AddSite creates a routing site. The router address must be unique.
func (n *Network) AddSite(name string, loc geo.Point, router packet.Addr) *Site {
	s := &Site{Name: name, Loc: loc, Router: router, index: len(n.sites), neighbors: make(map[*Site]*Link)}
	n.sites = append(n.sites, s)
	n.invalidateRoutes()
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
	n.invalidateRoutes()
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

// HostByAddr resolves a unicast host address.
func (n *Network) HostByAddr(a packet.Addr) (*Host, bool) {
	h, ok := n.hosts[a]
	return h, ok
}

// AddAnycast binds a shared service address to a set of host instances.
// Sends to addr resolve to the instance nearest (in path delay) to the
// sender's site, mirroring BGP anycast.
func (n *Network) AddAnycast(addr packet.Addr, instances ...*Host) {
	if len(instances) == 0 {
		panic("netsim: anycast group needs at least one instance")
	}
	n.anycast[addr] = append(n.anycast[addr], instances...)
	if len(n.anycastCache) > 0 {
		n.anycastCache = make(map[anycastKey]*Host)
	}
}

// IsAnycast reports whether addr is an anycast service address.
func (n *Network) IsAnycast(addr packet.Addr) bool { return len(n.anycast[addr]) > 0 }

// pqItem is one binary-heap entry of the Dijkstra priority queue.
type pqItem struct {
	d   time.Duration
	idx int
}

// pqLess orders by distance, then site index: the index tie-break reproduces
// the old linear min-scan (which picked the lowest-index site among equals),
// keeping route choice deterministic.
func pqLess(a, b pqItem) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	return a.idx < b.idx
}

func pqPush(pq []pqItem, it pqItem) []pqItem {
	pq = append(pq, it)
	i := len(pq) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !pqLess(pq[i], pq[parent]) {
			break
		}
		pq[i], pq[parent] = pq[parent], pq[i]
		i = parent
	}
	return pq
}

func pqPop(pq []pqItem) (pqItem, []pqItem) {
	top := pq[0]
	last := len(pq) - 1
	pq[0] = pq[last]
	pq = pq[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(pq) && pqLess(pq[l], pq[small]) {
			small = l
		}
		if r < len(pq) && pqLess(pq[r], pq[small]) {
			small = r
		}
		if small == i {
			break
		}
		pq[i], pq[small] = pq[small], pq[i]
		i = small
	}
	return top, pq
}

// computeRoutes runs one heap-based Dijkstra from a and materializes the
// minimum-delay site path to every reachable site (linear-time backwards
// fill; the old per-destination front-prepend reconstruction was O(n²)).
func (n *Network) computeRoutes(a *Site) [][]*Site {
	const inf = time.Duration(1<<62 - 1)
	dist := make([]time.Duration, len(n.sites))
	prev := make([]*Site, len(n.sites))
	done := make([]bool, len(n.sites))
	for i := range dist {
		dist[i] = inf
	}
	dist[a.index] = 0
	pq := make([]pqItem, 0, len(n.sites))
	pq = pqPush(pq, pqItem{0, a.index})
	for len(pq) > 0 {
		var it pqItem
		it, pq = pqPop(pq)
		if done[it.idx] || it.d > dist[it.idx] {
			continue // stale lazy-deletion entry
		}
		done[it.idx] = true
		cur := n.sites[it.idx]
		for _, nb := range cur.nbOrder {
			l := cur.neighbors[nb]
			if l.down {
				continue // chaos-disabled link: route around it
			}
			alt := it.d + l.PropDelay + perHopCost
			if alt < dist[nb.index] {
				dist[nb.index] = alt
				prev[nb.index] = cur
				pq = pqPush(pq, pqItem{alt, nb.index})
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

// ResolveAnycast picks the instance a sender at the given site would reach.
// Resolutions are memoized per (addr, site) with the same invalidation as
// the route matrix, so steady-state anycast sends skip the path comparison.
func (n *Network) ResolveAnycast(addr packet.Addr, from *Site) (*Host, bool) {
	insts := n.anycast[addr]
	if len(insts) == 0 {
		return nil, false
	}
	key := anycastKey{addr: addr, site: from.index}
	if h, hit := n.anycastCache[key]; hit {
		return h, h != nil
	}
	var best *Host
	bestD := time.Duration(1<<62 - 1)
	for _, h := range insts {
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
	n.anycastCache[key] = best
	return best, best != nil
}

// fwdState carries one in-flight packet across its hops: the decoded packet,
// the single wire serialization, and the route. Its step methods are bound
// to func values once at construction, so scheduling the next hop costs no
// closure allocation, and released states (wire buffer included) are pooled
// on the owning Network.
type fwdState struct {
	n        *Network
	pkt      *packet.Packet
	src, dst *Host
	path     []*Site
	hop      int
	size     int
	span     uint64 // trace span id (0 when tracing is off)
	wire     []byte

	emitFn    func()
	forwardFn func()
	deliverFn func()
}

func (n *Network) acquireFwd() *fwdState {
	n.fwdLive++
	if k := len(n.fwdFree); k > 0 {
		fs := n.fwdFree[k-1]
		n.fwdFree[k-1] = nil
		n.fwdFree = n.fwdFree[:k-1]
		return fs
	}
	fs := &fwdState{n: n}
	fs.emitFn = fs.emit
	fs.forwardFn = fs.forward
	fs.deliverFn = fs.deliver
	return fs
}

// releaseFwd returns a terminal (delivered or dropped) state to the pool.
// The wire buffer is kept for reuse by the next packet; taps only see it
// during their call, per the TapFunc contract.
func (n *Network) releaseFwd(fs *fwdState) {
	n.fwdLive--
	fs.pkt, fs.src, fs.dst, fs.path = nil, nil, nil, nil
	fs.hop, fs.size, fs.span = 0, 0, 0
	n.fwdFree = append(n.fwdFree, fs)
}

// drop is the one place a packet leaves the fabric undelivered: it books the
// cause in the ledger, records the drop span under the cause's label at the
// host or site named by where, and releases the forwarding state. fs is nil
// for a refused send, which never acquired one.
func (n *Network) drop(fs *fwdState, cause Cause, where string) {
	n.cons.Drops[cause]++
	if fs == nil {
		n.Tracer.Packet(n.Sched.Now(), trace.KindPacketDrop, 0, where, causes[cause].label, 0)
		return
	}
	n.Tracer.Packet(n.Sched.Now(), trace.KindPacketDrop, fs.span, where, causes[cause].label, fs.size)
	n.releaseFwd(fs)
}

// Send transmits pkt from host h. The IP source defaults to h's address
// when unset; services answering on an anycast address set it explicitly.
// TTL defaults to DefaultTTL when zero. Returns false if the destination is
// unroutable (the packet is silently dropped, as the real Internet would).
//
// Ownership: the fabric owns pkt from the moment Send returns true. It is
// marshaled to wire bytes exactly once, synchronously, inside Send — so the
// payload may alias a buffer the caller appends to afterwards — but the
// Packet struct itself (notably IP.TTL, mutated per hop, and IP.ID) must not
// be reused for another Send while in flight, and callers must not mutate
// the payload bytes in place. See TestPacketOwnershipAfterSend.
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

	dst, ok := n.hosts[pkt.IP.Dst]
	if !ok {
		if dst, ok = n.ResolveAnycast(pkt.IP.Dst, h.Site); !ok {
			n.drop(nil, CauseUnroutable, h.ID)
			return false
		}
	}
	path := n.sitePath(h.Site, dst.Site)
	if path == nil {
		n.drop(nil, CauseUnroutable, h.ID)
		return false
	}

	// Consume an IP ID only for routable packets: unroutable sends must not
	// perturb the ID sequence of delivered traffic.
	n.ipid++
	pkt.IP.ID = n.ipid

	fs := n.acquireFwd()
	fs.pkt, fs.src, fs.dst, fs.path = pkt, h, dst, path
	fs.wire = pkt.MarshalTo(fs.wire[:0])
	fs.size = len(fs.wire)
	fs.span = n.Tracer.NextSpan()

	now := n.Sched.Now()
	h.SentPackets++
	h.SentBytes += fs.size
	n.cons.Sent++
	n.Tracer.Packet(now, trace.KindPacketSend, fs.span, h.ID, protoName(pkt), fs.size)

	// Uplink netem first (loss, shaping, delay)...
	depart := now
	if h.UpNetem.matches(pkt) {
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
		n.Sched.Post(depart, fs.emitFn)
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
	h.runTaps(n.Sched.Now(), DirUp, fs.wire)
	arrive, qd, drop := h.Up.transmit(n.Sched.Now(), fs.size, n.Rng)
	if drop {
		n.drop(fs, CauseAccessUp, h.ID)
		return
	}
	n.hQdAccessUp.Observe(qd)
	n.Sched.Post(arrive, fs.forwardFn)
}

// forward walks the packet through the site at fs.hop: router TTL handling,
// then either the next backbone link or the destination access link.
func (fs *fwdState) forward() {
	n := fs.n
	site := fs.path[fs.hop]
	pkt := fs.pkt
	// Router TTL handling.
	if pkt.IP.TTL <= 1 {
		n.sendICMPError(site.Router, fs.src, pkt, packet.ICMPTimeExceeded, 0)
		n.drop(fs, CauseTTL, site.Name)
		return
	}
	pkt.IP.TTL--
	n.Tracer.Packet(n.Sched.Now(), trace.KindPacketHop, fs.span, site.Name, "hop", fs.size)

	if fs.hop == len(fs.path)-1 {
		// Final site: cross the destination access link.
		depart := n.Sched.Now() + perHopCost
		arrive, qd, drop := fs.dst.Down.transmit(depart, fs.size, n.Rng)
		if drop {
			n.drop(fs, CauseAccessDown, fs.dst.ID)
			return
		}
		n.hQdAccessDown.Observe(qd)
		if fs.dst.DownNetem.matches(pkt) {
			d, cause, dropped := n.applyNetem(fs.dst.DownNetem, arrive, fs.size, DirDown)
			if dropped {
				n.drop(fs, cause, fs.dst.ID)
				return
			}
			arrive = d
		}
		n.Sched.Post(arrive, fs.deliverFn)
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
	n.hQdBackbone.Observe(qd)
	fs.hop++
	n.Sched.Post(arrive, fs.forwardFn)
}

// deliver hands the packet to the destination. Instead of re-marshaling, the
// hop-decremented TTL is patched into the wire buffer serialized at Send,
// with an RFC 1624 incremental checksum update — the down-tap sees bytes
// identical to a full re-marshal (asserted by TestWireFidelityAcrossFabric).
func (fs *fwdState) deliver() {
	// The destination may have crashed while the packet was in flight; a
	// down host's NIC is gone, so the packet dies at the access link.
	if fs.dst.down {
		fs.n.drop(fs, CauseHostDown, fs.dst.ID)
		return
	}
	packet.PatchTTL(fs.wire, fs.pkt.IP.TTL)
	fs.n.Tracer.Packet(fs.n.Sched.Now(), trace.KindPacketDeliver, fs.span, fs.dst.ID, "deliver", fs.size)
	fs.n.deliverWire(fs.dst, fs.pkt, fs.wire)
	fs.n.releaseFwd(fs)
}

func (n *Network) deliverWire(dst *Host, pkt *packet.Packet, wire []byte) {
	dst.RecvPackets++
	dst.RecvBytes += len(wire)
	n.cons.Delivered++
	dst.runTaps(n.Sched.Now(), DirDown, wire)
	if dst.Handler != nil {
		dst.Handler(pkt)
	}
}

// sendICMPError emits an ICMP error from a router (or host) address back to
// the original sender. The reverse trip reuses the forward path delays
// without queueing — adequate for probe RTT estimation.
func (n *Network) sendICMPError(from packet.Addr, to *Host, orig *packet.Packet, icmpType, code uint8) {
	// Quote the original header's identifying fields the way real ICMP
	// quotes the first 28 bytes; probes match replies by this.
	quoted := orig.Marshal()
	if len(quoted) > 28 {
		quoted = quoted[:28]
	}
	reply := &packet.Packet{
		IP:      packet.IPv4{TTL: DefaultTTL, Protocol: packet.ProtoICMP, Src: from, Dst: to.Addr},
		ICMP:    &packet.ICMP{Type: icmpType, Code: code, ID: orig.IP.ID},
		Payload: quoted,
	}
	n.countICMP(icmpType)
	// Reverse delay: locate the router's site and sum path back.
	var rsite *Site
	for _, s := range n.sites {
		if s.Router == from {
			rsite = s
			break
		}
	}
	var back time.Duration = perHopCost
	if rsite != nil {
		if p := n.sitePath(rsite, to.Site); p != nil {
			back += n.pathDelay(p)
		}
	}
	back += to.Down.PropDelay
	wire := reply.Marshal()
	n.Sched.PostAfter(back, func() {
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
		n.Tracer.Packet(n.Sched.Now(), trace.KindPacketSend, span, "icmp-router", "icmp", len(wire))
		n.Tracer.Packet(n.Sched.Now(), trace.KindPacketDeliver, span, to.ID, "deliver", len(wire))
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
	quoted := orig.Marshal()
	if len(quoted) > 28 {
		quoted = quoted[:28]
	}
	reply := &packet.Packet{
		// Reply from the address the probe targeted (for anycast services
		// this is the shared service address, as real deployments answer).
		IP:      packet.IPv4{Protocol: packet.ProtoICMP, Src: orig.IP.Dst, Dst: dst.Addr},
		ICMP:    &packet.ICMP{Type: icmpType, Code: code, ID: orig.IP.ID},
		Payload: quoted,
	}
	n.countICMP(icmpType)
	n.Send(h, reply)
}

func (n *Network) countICMP(icmpType uint8) {
	switch icmpType {
	case packet.ICMPTimeExceeded:
		n.cICMPTimeExceeded.Inc()
	case packet.ICMPDestUnreach:
		n.cICMPDestUnreach.Inc()
	default:
		n.cICMPOther.Inc()
	}
}

// PathRouters exposes the router addresses a packet from h to dst would
// traverse — used by tests to validate traceroute output.
func (n *Network) PathRouters(h *Host, dstAddr packet.Addr) []packet.Addr {
	dst, ok := n.hosts[dstAddr]
	if !ok {
		if dst, ok = n.ResolveAnycast(dstAddr, h.Site); !ok {
			return nil
		}
	}
	path := n.sitePath(h.Site, dst.Site)
	out := make([]packet.Addr, 0, len(path))
	for _, s := range path {
		out = append(out, s.Router)
	}
	return out
}
