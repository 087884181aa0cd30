// Package audit is the end-of-run conservation auditor: after a lab's
// scheduler drains, it proves that the simulation's bookkeeping balances.
// Four checks, mirroring DESIGN.md §4.9:
//
//	(a) packet conservation — every packet accepted by Send was delivered,
//	    dropped with a recorded cause, or is still in flight; per-link
//	    ledgers balance the same way.
//	(b) TCP byte-stream continuity — each side's contiguously delivered
//	    bytes are a prefix of the peer's uniquely sent bytes, and no
//	    reassembly segment lingers at or below rcvNxt.
//	(c) trace agreement — when the flight recorder is on and evicted
//	    nothing, packet-span event counts equal the conservation ledger.
//	(d) capture bounds — bytes handed to capture taps never exceed what the
//	    access links actually offered/carried.
//
// The auditor only reads state that the run already produced: it never
// touches the scheduler, the RNG, or any counter, so running it cannot
// change a single artifact byte.
package audit

import (
	"fmt"
	"strings"

	"github.com/svrlab/svrlab/internal/netsim"
	"github.com/svrlab/svrlab/internal/trace"
	"github.com/svrlab/svrlab/internal/transport"
)

// Violation is one failed invariant.
type Violation struct {
	Check  string // "conservation", "link-ledger", "stream", "trace", "capture"
	Detail string
}

func (v Violation) String() string { return v.Check + ": " + v.Detail }

// Report is the outcome of one audit pass over a network.
type Report struct {
	Conservation netsim.Conservation
	Links        int // directed links whose ledgers were checked
	Conns        int // TCP connections checked (live + closed)
	Pairs        int // connection pairs matched across stacks
	Hosts        int // hosts checked for capture bounds
	TraceChecked bool
	Violations   []Violation
}

// OK reports whether every invariant held.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

func (r *Report) fail(check, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{Check: check, Detail: fmt.Sprintf(format, args...)})
}

// String renders a one-line summary, followed by violations if any.
func (r *Report) String() string {
	var b strings.Builder
	c := r.Conservation
	fmt.Fprintf(&b, "audit: %d sent + %d icmp = %d delivered + %d dropped + %d in-flight; %d links, %d conns (%d paired), %d hosts",
		c.Sent, c.ICMPInjected, c.Delivered, c.Dropped(), c.InFlight, r.Links, r.Conns, r.Pairs, r.Hosts)
	if r.TraceChecked {
		b.WriteString(", trace checked")
	}
	if r.OK() {
		b.WriteString(" — conserved")
	} else {
		fmt.Fprintf(&b, " — %d VIOLATIONS", len(r.Violations))
		for _, v := range r.Violations {
			b.WriteString("\n  ")
			b.WriteString(v.String())
		}
	}
	return b.String()
}

// Run audits one network and returns the report. It is safe to call at any
// time, but the conservation identity only closes once the scheduler has
// drained or stopped (in-flight packets are counted, so mid-run audits
// still balance — they just report nonzero InFlight).
func Run(n *netsim.Network) *Report {
	r := &Report{Conservation: n.Conservation()}
	checkConservation(n, r)
	checkStreams(n, r)
	checkTrace(n, r)
	checkCapture(n, r)
	return r
}

// checkConservation verifies the global identity and every per-link ledger.
func checkConservation(n *netsim.Network, r *Report) {
	c := r.Conservation
	if !c.Conserved() {
		r.fail("conservation", "%d sent + %d icmp != %d delivered + %d dropped + %d in-flight (ledger %+v)",
			c.Sent, c.ICMPInjected, c.Delivered, c.Dropped(), c.InFlight, c)
	}
	link := func(name string, l *netsim.Link) {
		if l == nil {
			return
		}
		r.Links++
		if l.OfferedPackets < 0 || l.DroppedPackets < 0 || l.OfferedBytes < 0 || l.CarriedBytes < 0 {
			r.fail("link-ledger", "%s: negative tally %+v", name, *l)
		}
		if l.DroppedPackets > l.OfferedPackets {
			r.fail("link-ledger", "%s: dropped %d packets of %d offered", name, l.DroppedPackets, l.OfferedPackets)
		}
		if l.CarriedBytes > l.OfferedBytes {
			r.fail("link-ledger", "%s: carried %d bytes of %d offered", name, l.CarriedBytes, l.OfferedBytes)
		}
	}
	for _, h := range n.Hosts() {
		link(h.ID+"/up", h.Up)
		link(h.ID+"/down", h.Down)
	}
	for _, s := range n.Sites() {
		for _, nb := range s.Neighbors() {
			link(s.Name+"->"+nb.Name, s.LinkTo(nb))
		}
	}
}

// streamKey pairs the two ends of one TCP connection.
type streamKey struct {
	local, remote string
}

// checkStreams walks every transport stack registered on the fabric and
// verifies byte-stream continuity per connection and across matched pairs.
func checkStreams(n *netsim.Network, r *Report) {
	byKey := make(map[streamKey][]transport.ConnAudit)
	var order []streamKey
	for _, ep := range n.Endpoints() {
		st, ok := ep.(*transport.Stack)
		if !ok {
			continue
		}
		for _, a := range st.AuditConns() {
			r.Conns++
			k := streamKey{a.Local.String(), a.Remote.String()}
			if len(byKey[k]) == 0 {
				order = append(order, k)
			}
			byKey[k] = append(byKey[k], a)

			if a.OOOPastRcv != 0 {
				r.fail("stream", "%s %s<->%s: %d reassembly segments at or below rcvNxt",
					a.Host, a.Local, a.Remote, a.OOOPastRcv)
			}
			if a.StreamAcked > a.StreamSent {
				r.fail("stream", "%s %s<->%s: %d bytes acked but only %d sent",
					a.Host, a.Local, a.Remote, a.StreamAcked, a.StreamSent)
			}
			if a.StreamSent < 0 || a.StreamAcked < 0 || a.StreamRecv < 0 {
				r.fail("stream", "%s %s<->%s: negative stream tally %+v", a.Host, a.Local, a.Remote, a)
			}
		}
	}
	// Pair each connection with its peer (the conn whose local/remote
	// endpoints mirror ours). A 4-tuple can recur when an endpoint is
	// reused across a close/redial; pair checks only apply to unambiguous
	// 1:1 matches — per-conn checks above already covered the rest.
	for _, k := range order {
		if k.local > k.remote {
			continue // visit each pair once, from the lexically smaller end
		}
		mine, theirs := byKey[k], byKey[streamKey{k.remote, k.local}]
		if len(mine) != 1 || len(theirs) != 1 {
			continue
		}
		a, b := mine[0], theirs[0]
		r.Pairs++
		if a.StreamRecv > b.StreamSent {
			r.fail("stream", "%s %s<->%s: delivered %d bytes but peer only sent %d",
				a.Host, a.Local, a.Remote, a.StreamRecv, b.StreamSent)
		}
		if b.StreamRecv > a.StreamSent {
			r.fail("stream", "%s %s<->%s: delivered %d bytes but peer only sent %d",
				b.Host, b.Local, b.Remote, b.StreamRecv, a.StreamSent)
		}
		if a.StreamAcked > b.StreamRecv {
			r.fail("stream", "%s %s<->%s: %d bytes acked but peer delivered only %d",
				a.Host, a.Local, a.Remote, a.StreamAcked, b.StreamRecv)
		}
		if b.StreamAcked > a.StreamRecv {
			r.fail("stream", "%s %s<->%s: %d bytes acked but peer delivered only %d",
				b.Host, b.Local, b.Remote, b.StreamAcked, a.StreamRecv)
		}
	}
}

// checkTrace compares flight-recorder packet-span counts against the
// conservation ledger. Only meaningful when the ring evicted nothing — a
// bounded ring that wrapped has forgotten early spans by design.
func checkTrace(n *netsim.Network, r *Report) {
	tr := n.Tracer
	if tr == nil || tr.Dropped() > 0 {
		return
	}
	r.TraceChecked = true
	var sends, delivers, drops int64
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case trace.KindPacketSend:
			sends++
		case trace.KindPacketDeliver:
			delivers++
		case trace.KindPacketDrop:
			drops++
		}
	}
	c := r.Conservation
	if want := c.Sent + c.ICMPInjected; sends != want {
		r.fail("trace", "%d send spans recorded, ledger says %d", sends, want)
	}
	if delivers != c.Delivered {
		r.fail("trace", "%d deliver spans recorded, ledger says %d", delivers, c.Delivered)
	}
	// Refused sends (unroutable, host-down-tx) record drop spans too, even
	// though they sit outside the conservation identity.
	var want int64
	for _, d := range c.Drops {
		want += d
	}
	if drops != want {
		r.fail("trace", "%d drop spans recorded, ledger says %d", drops, want)
	}
}

// checkCapture bounds capture-tap byte totals by what the access links
// actually moved: a capture can never have seen more uplink bytes than the
// up link was offered, nor more downlink bytes than the down link carried
// plus out-of-band ICMP injections.
func checkCapture(n *netsim.Network, r *Report) {
	for _, h := range n.Hosts() {
		r.Hosts++
		if h.Up != nil && h.TappedUpBytes > h.Up.OfferedBytes {
			r.fail("capture", "%s: tapped %d uplink bytes, link offered %d",
				h.ID, h.TappedUpBytes, h.Up.OfferedBytes)
		}
		if h.Down != nil && h.TappedDownBytes > h.Down.CarriedBytes+h.InjectedBytes {
			r.fail("capture", "%s: tapped %d downlink bytes, link carried %d (+%d injected)",
				h.ID, h.TappedDownBytes, h.Down.CarriedBytes, h.InjectedBytes)
		}
	}
}
