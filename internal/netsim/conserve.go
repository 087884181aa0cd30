package netsim

import (
	"sort"

	"github.com/svrlab/svrlab/internal/obs"
)

// Cause is why a packet left the fabric undelivered. The first ten are
// in-fabric drops of packets Send accepted; the last two are refused sends,
// where Send returned false before any send accounting.
type Cause int

// Drop causes. Each Up cause is followed by its Down twin, so
// cause+Cause(dir) selects the direction.
const (
	CauseAccessUp       Cause = iota // access-link tail drop, host to site
	CauseAccessDown                  // access-link tail drop, site to host
	CauseBackbone                    // backbone-link tail drop
	CauseNetemLossUp                 // netem random loss, uplink
	CauseNetemLossDown               // netem random loss, downlink
	CauseNetemQueueUp                // netem shaper tail drop, uplink
	CauseNetemQueueDown              // netem shaper tail drop, downlink
	CauseTTL                         // TTL exceeded at a router
	CauseHostDown                    // src/dst crashed while in flight
	CauseLinkDown                    // link/partition took the path down
	CauseUnroutable                  // refused: no route / empty anycast group
	CauseHostDownTx                  // refused: source host crashed
	NumCauses

	// numDropCauses counts the in-fabric causes, which enter the
	// conservation identity; the refused sends after them do not.
	numDropCauses = CauseUnroutable
)

// causes gives each cause its trace drop label and its metric name.
var causes = [NumCauses]struct{ label, metric string }{
	CauseAccessUp:       {"access-up", "netsim.drop.link.access_up"},
	CauseAccessDown:     {"access-down", "netsim.drop.link.access_down"},
	CauseBackbone:       {"backbone", "netsim.drop.link.backbone"},
	CauseNetemLossUp:    {"netem-loss-up", "netsim.drop.netem.loss.up"},
	CauseNetemLossDown:  {"netem-loss-down", "netsim.drop.netem.loss.down"},
	CauseNetemQueueUp:   {"netem-queue-up", "netsim.drop.netem.queue.up"},
	CauseNetemQueueDown: {"netem-queue-down", "netsim.drop.netem.queue.down"},
	CauseTTL:            {"ttl-exceeded", "netsim.drop.ttl"},
	CauseHostDown:       {"host-down", "netsim.drop.host_down"},
	CauseLinkDown:       {"link-down", "netsim.drop.link_down"},
	CauseUnroutable:     {"unroutable", "netsim.packets.unroutable"},
	CauseHostDownTx:     {"host-down-tx", "netsim.send.host_down"},
}

// Conservation is the Network's packet ledger: the only record of what the
// fabric did with each packet. The metrics registry is a view of it, folded
// in by FlushMetrics, and the flight recorder's drop spans carry the same
// causes. The invariant proved by package audit at end of run is
//
//	Sent + ICMPInjected == Delivered + Dropped() + InFlight
type Conservation struct {
	Sent         int64 // packets accepted by Send
	Delivered    int64 // packets handed to a host
	ICMPInjected int64 // router ICMP errors delivered out-of-band

	// Drops counts packets per cause, refused sends included.
	Drops [NumCauses]int64

	InFlight int64 // forwarding states live at snapshot time
}

// Dropped sums every in-fabric drop cause (refused sends excluded).
func (c Conservation) Dropped() int64 {
	var d int64
	for _, v := range c.Drops[:numDropCauses] {
		d += v
	}
	return d
}

// Conserved reports whether the global identity holds.
func (c Conservation) Conserved() bool {
	return c.Sent+c.ICMPInjected == c.Delivered+c.Dropped()+c.InFlight
}

// Conservation snapshots the network's ledger, including packets still in
// flight inside the fabric.
func (n *Network) Conservation() Conservation {
	c := n.cons
	c.InFlight = int64(n.fwdLive)
	return c
}

// Link classes index Network.qdelay; ICMP classes index Network.icmp.
const (
	linkAccessUp = iota
	linkAccessDown
	linkBackbone
	numLinkClasses
)

const (
	icmpTimeExceeded = iota
	icmpDestUnreach
	icmpOther
	numICMPClasses
)

// Metric names of the queueing-delay histograms and ICMP counts.
var (
	qdelayMetrics = [numLinkClasses]string{
		"netsim.qdelay.access_up", "netsim.qdelay.access_down", "netsim.qdelay.backbone",
	}
	icmpMetrics = [numICMPClasses]string{
		"netsim.icmp.time_exceeded", "netsim.icmp.dest_unreach", "netsim.icmp.other",
	}
)

// FlushMetrics adds the ledger's totals, the queueing delays and the ICMP
// errors to the metrics registry, then has every registered endpoint add
// its own totals. Every entry is created even when it adds zero, so a quiet
// lab still lists them. A lab calls it once, at teardown
// (experiment.Lab.MustConserve); a second call on one network panics,
// because it would add every total again. Registry adds commute, so a
// registry shared by parallel cells stays byte-identical at any worker
// count (DESIGN §4.6).
func (n *Network) FlushMetrics() {
	if n.flushed {
		panic("netsim: FlushMetrics called twice on one network")
	}
	n.flushed = true
	c, m := n.cons, n.Metrics
	m.Add("netsim.packets.sent", c.Sent)
	m.Add("netsim.packets.delivered", c.Delivered)
	m.Add("netsim.packets.icmp_injected", c.ICMPInjected)
	for i := range c.Drops {
		m.Add(causes[i].metric, c.Drops[i])
	}
	for i, name := range qdelayMetrics {
		m.AddDurations(name, &n.qdelay[i])
	}
	for i, name := range icmpMetrics {
		m.Add(name, n.icmp[i])
	}
	for _, ep := range n.endpoints {
		ep.FlushMetrics(m)
	}
}

// Hosts returns every host sorted by address — a deterministic iteration
// order for auditing (the underlying map iterates randomly).
func (n *Network) Hosts() []*Host {
	out := make([]*Host, 0, len(n.hosts))
	for _, h := range n.hosts {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Sites returns the sites in creation order.
func (n *Network) Sites() []*Site { return n.sites }

// Neighbors returns the site's connected peers in Connect order.
func (s *Site) Neighbors() []*Site { return s.nbOrder }

// LinkTo returns the directed backbone link from s to a neighbor, or nil.
func (s *Site) LinkTo(nb *Site) *Link { return s.neighbors[nb] }

// Endpoint is a counting owner attached to the fabric: a transport stack,
// a TLS session, a voice stream or a headset monitor. Each keeps its counts
// in plain fields, and FlushMetrics adds their totals to m.
type Endpoint interface {
	FlushMetrics(m *obs.Registry)
}

// RegisterEndpoint adds ep to the fabric's endpoint list, whose counts
// Network.FlushMetrics folds at teardown and whose transport stacks the
// end-of-run auditor walks. The audit package type-asserts the entries it
// checks, keeping netsim free of transport imports.
func (n *Network) RegisterEndpoint(ep Endpoint) { n.endpoints = append(n.endpoints, ep) }

// Endpoints returns the registered endpoints in registration order.
func (n *Network) Endpoints() []Endpoint { return n.endpoints }
