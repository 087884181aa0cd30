package audit_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/svrlab/svrlab/internal/audit"
	"github.com/svrlab/svrlab/internal/capture"
	"github.com/svrlab/svrlab/internal/geo"
	"github.com/svrlab/svrlab/internal/netsim"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/simtime"
	"github.com/svrlab/svrlab/internal/trace"
	"github.com/svrlab/svrlab/internal/transport"
)

// rig builds a two-site fabric with a transport stack, tracer, and capture
// tap on each end, then moves a TCP payload across it — enough traffic to
// exercise all four audit checks at once.
type rig struct {
	s        *simtime.Scheduler
	n        *netsim.Network
	ha, hb   *netsim.Host
	sa, sb   *transport.Stack
	sniffers []*capture.Sniffer
}

func newRig(t *testing.T, lossy bool) *rig {
	t.Helper()
	s := simtime.NewScheduler()
	n := netsim.New(s, 7)
	n.Tracer = trace.New(1 << 16)
	east := n.AddSite("east", geo.Fairfax, packet.MustParseAddr("10.0.0.1"))
	west := n.AddSite("west", geo.SanJose, packet.MustParseAddr("10.1.0.1"))
	n.Connect(east, west)
	ha := n.AddHost("a", east, packet.MustParseAddr("10.0.0.2"), netsim.WiFiAccess())
	hb := n.AddHost("b", west, packet.MustParseAddr("10.1.0.2"), netsim.DatacenterAccess())
	if lossy {
		ha.UpNetem = &netsim.Netem{Loss: 0.2}
	}
	return &rig{
		s: s, n: n, ha: ha, hb: hb,
		sa: transport.NewStack(n, ha), sb: transport.NewStack(n, hb),
		sniffers: []*capture.Sniffer{capture.Attach(ha), capture.Attach(hb)},
	}
}

func (r *rig) transfer(t *testing.T, payload int) {
	t.Helper()
	got := 0
	r.sb.ListenTCP(443, func(c *transport.Conn) {
		c.OnData = func(b []byte) { got += len(b) }
	})
	c := r.sa.DialTCP(packet.Endpoint{Addr: r.hb.Addr, Port: 443})
	r.s.At(100*time.Millisecond, func() { c.Send(bytes.Repeat([]byte("p"), payload)) })
	r.s.RunUntil(2 * time.Minute)
	if got != payload {
		t.Fatalf("transferred %d of %d bytes", got, payload)
	}
}

func TestAuditCleanRun(t *testing.T) {
	r := newRig(t, false)
	r.transfer(t, 50*1000)
	rep := audit.Run(r.n)
	if !rep.OK() {
		t.Fatalf("clean run reported violations:\n%s", rep)
	}
	if rep.Conns < 2 || rep.Pairs < 1 {
		t.Fatalf("conns = %d, pairs = %d; want the dialed pair audited", rep.Conns, rep.Pairs)
	}
	if !rep.TraceChecked {
		t.Fatal("tracer attached and never wrapped, but trace check skipped")
	}
	if rep.Links == 0 || rep.Hosts != 2 {
		t.Fatalf("links = %d, hosts = %d", rep.Links, rep.Hosts)
	}
	if !strings.Contains(rep.String(), "conserved") {
		t.Fatalf("summary = %q", rep.String())
	}
}

// TestAuditLossyRun: drops with recorded causes still conserve.
func TestAuditLossyRun(t *testing.T) {
	r := newRig(t, true)
	r.transfer(t, 50*1000)
	rep := audit.Run(r.n)
	if !rep.OK() {
		t.Fatalf("lossy run reported violations:\n%s", rep)
	}
	if rep.Conservation.Drops[netsim.CauseNetemLossUp] == 0 {
		t.Fatal("20% uplink loss produced no netem drops")
	}
}

// TestAuditMidRunBalances: with packets still inside the fabric the identity
// must close through the InFlight term.
func TestAuditMidRunBalances(t *testing.T) {
	r := newRig(t, false)
	sock, err := r.sa.BindUDP(5000)
	if err != nil {
		t.Fatal(err)
	}
	sock.SendTo(packet.Endpoint{Addr: r.hb.Addr, Port: 5001}, []byte("in flight"))
	// Audit immediately: the datagram has not crossed the fabric yet.
	rep := audit.Run(r.n)
	if !rep.OK() {
		t.Fatalf("mid-run audit failed:\n%s", rep)
	}
	if rep.Conservation.InFlight == 0 {
		t.Fatal("expected a packet in flight")
	}
	r.s.Run()
	if rep = audit.Run(r.n); rep.Conservation.InFlight != 0 {
		t.Fatalf("in-flight after drain = %d", rep.Conservation.InFlight)
	}
}

// TestAuditDetectsLedgerTampering proves the detectors actually fire, by
// corrupting each public ledger the checks read.
func TestAuditDetectsLedgerTampering(t *testing.T) {
	find := func(rep *audit.Report, check string) bool {
		for _, v := range rep.Violations {
			if v.Check == check {
				return true
			}
		}
		return false
	}

	r := newRig(t, false)
	r.transfer(t, 10*1000)
	r.ha.Up.CarriedBytes = r.ha.Up.OfferedBytes + 1
	if rep := audit.Run(r.n); !find(rep, "link-ledger") {
		t.Fatalf("carried > offered not flagged:\n%s", rep)
	}

	r = newRig(t, false)
	r.transfer(t, 10*1000)
	r.ha.TappedUpBytes = r.ha.Up.OfferedBytes + 1
	if rep := audit.Run(r.n); !find(rep, "capture") {
		t.Fatalf("tapped > offered not flagged:\n%s", rep)
	}

	r = newRig(t, false)
	r.transfer(t, 10*1000)
	r.hb.Down.DroppedPackets = r.hb.Down.OfferedPackets + 5
	if rep := audit.Run(r.n); !find(rep, "link-ledger") {
		t.Fatalf("dropped > offered not flagged:\n%s", rep)
	}
}

// TestAuditCapturePauseStaysBounded: pausing and clearing a sniffer must
// keep the tap totals within the link ledgers (taps run regardless).
func TestAuditCapturePauseStaysBounded(t *testing.T) {
	r := newRig(t, false)
	r.sniffers[0].Pause()
	r.transfer(t, 20*1000)
	r.sniffers[0].Resume()
	r.sniffers[1].Clear()
	rep := audit.Run(r.n)
	if !rep.OK() {
		t.Fatalf("paused/cleared captures broke bounds:\n%s", rep)
	}
}
