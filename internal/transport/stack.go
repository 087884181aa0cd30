// Package transport implements the endpoint transport layer over the netsim
// fabric: a per-host demultiplexing stack, UDP sockets, and a Reno-style TCP
// with a real handshake, retransmission, and congestion control.
//
// A real TCP matters here: the paper's §8 finding — Horizon Worlds blocks
// its UDP uplink until outstanding TCP control data is acknowledged, so
// netem-injected TCP delays punch equal-length holes in the UDP stream —
// only reproduces if TCP acknowledgement timing emerges from actual
// retransmission machinery.
package transport

import (
	"fmt"

	"github.com/svrlab/svrlab/internal/netsim"
	"github.com/svrlab/svrlab/internal/obs"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/trace"
)

// Stack binds to a host and demultiplexes inbound packets to sockets. It
// also implements the host-level ICMP behaviours probes rely on: echo reply
// and port-unreachable generation.
type Stack struct {
	Host *netsim.Host
	Net  *netsim.Network

	udp       map[uint16]*UDPSocket
	listeners map[uint16]func(*Conn)
	conns     map[connKey]*Conn
	nextPort  uint16

	// ICMPHandler, when set, observes every inbound ICMP packet (probes).
	ICMPHandler func(*packet.Packet)
	// EchoReply controls whether the stack answers ICMP echo requests.
	// Some real services block ICMP (the paper falls back to TCP ping,
	// §4.2); no platform profile models that, so every lab host answers.
	EchoReply bool

	// closedConns accumulates audit summaries of torn-down connections, in
	// close order, so end-of-run byte-stream checks see the whole history
	// (conns leave the live map on close).
	closedConns []ConnAudit

	// counts is what this stack's connections did.
	counts stackCounts

	// scratch holds a streamed segment while the fabric copies it; it is
	// made when the stack first streams one, so most stacks never have it.
	scratch []byte
}

// stackCounts holds a stack's plain tallies. cwndMax is the largest
// congestion window a connection noted, 0 until one does.
type stackCounts struct {
	retransmits, fastRetransmits, rtoBackoffs  int64
	dialed, accepted, aborted, connectTimeouts int64
	cwndMax                                    float64
}

// FlushMetrics adds the stack's counts to m; transport.cwnd_max_bytes
// appears once a connection has noted a window. Network.FlushMetrics calls
// it once, at lab teardown.
func (s *Stack) FlushMetrics(m *obs.Registry) {
	c := s.counts
	m.Add("transport.retransmits", c.retransmits)
	m.Add("transport.fast_retransmits", c.fastRetransmits)
	m.Add("transport.rto_backoffs", c.rtoBackoffs)
	m.Add("transport.conns_dialed", c.dialed)
	m.Add("transport.conns_accepted", c.accepted)
	m.Add("transport.conns_aborted", c.aborted)
	m.Add("transport.connect_timeouts", c.connectTimeouts)
	if c.cwndMax > 0 {
		m.SetMax("transport.cwnd_max_bytes", c.cwndMax)
	}
}

// RetxEvents returns how many fast retransmits and RTO backoffs this
// stack's connections made. Each records one tcp-retx trace event, so the
// audit holds a lab's tcp-retx count to the sum over its stacks.
func (s *Stack) RetxEvents() int64 { return s.counts.fastRetransmits + s.counts.rtoBackoffs }

// connKey names a connection by both of its ends: two connections from
// one stack to the same remote endpoint differ only in their local port.
type connKey struct {
	localPort uint16
	remote    packet.Endpoint
}

// NewStack attaches a transport stack to a host.
func NewStack(n *netsim.Network, h *netsim.Host) *Stack {
	s := &Stack{
		Host:      h,
		Net:       n,
		udp:       make(map[uint16]*UDPSocket),
		listeners: make(map[uint16]func(*Conn)),
		conns:     make(map[connKey]*Conn),
		nextPort:  33000,
		EchoReply: true,
	}
	h.Handler = s.handle
	n.RegisterEndpoint(s)
	return s
}

func (s *Stack) ephemeralPort() uint16 {
	for {
		s.nextPort++
		if s.nextPort < 33000 {
			s.nextPort = 33000
		}
		p := s.nextPort
		if _, used := s.udp[p]; used {
			continue
		}
		if _, used := s.listeners[p]; used {
			continue
		}
		return p
	}
}

func (s *Stack) handle(p *packet.Packet) {
	switch p.IP.Protocol {
	case packet.ProtoUDP:
		if sock, ok := s.udp[p.UDP.DstPort]; ok {
			src := packet.Endpoint{Addr: p.IP.Src, Port: p.UDP.SrcPort}
			if sock.OnRecv != nil {
				sock.OnRecv(src, p.Payload)
			}
			return
		}
		// Closed port: emit port unreachable (terminates traceroutes).
		s.Net.SendICMPFromHost(s.Host, p, packet.ICMPDestUnreach, packet.ICMPPortUnreachTag)
	case packet.ProtoTCP:
		s.handleTCP(p)
	case packet.ProtoICMP:
		if p.ICMP.Type == packet.ICMPEchoRequest && s.EchoReply {
			reply := &packet.Packet{
				// Echo replies come from the pinged address, which for an
				// anycast service is the shared service address.
				IP:   packet.IPv4{Protocol: packet.ProtoICMP, Src: p.IP.Dst, Dst: p.IP.Src},
				ICMP: &packet.ICMP{Type: packet.ICMPEchoReply, ID: p.ICMP.ID, Seq: p.ICMP.Seq},
			}
			s.Net.Send(s.Host, reply)
			return
		}
		if s.ICMPHandler != nil {
			s.ICMPHandler(p)
		}
	}
}

// UDPSocket is a bound datagram endpoint.
type UDPSocket struct {
	stack  *Stack
	Port   uint16
	OnRecv func(src packet.Endpoint, payload []byte)
}

// Enlist adds ep to the fabric's endpoint list, so a layer above the
// socket (rtpx) has its counts folded at lab teardown.
func (u *UDPSocket) Enlist(ep netsim.Endpoint) { u.stack.Net.RegisterEndpoint(ep) }

// Trace records an event on this socket's host track (netsim.Host.Trace),
// so the voice layer can stamp its RTCP reports.
func (u *UDPSocket) Trace(kind trace.Kind, name string, arg, arg2 int64) {
	u.stack.Host.Trace(kind, 0, name, arg, arg2)
}

// BindUDP binds a UDP socket. Port 0 picks an ephemeral port.
func (s *Stack) BindUDP(port uint16) (*UDPSocket, error) {
	if port == 0 {
		port = s.ephemeralPort()
	}
	if _, used := s.udp[port]; used {
		return nil, fmt.Errorf("transport: UDP port %d in use on %s", port, s.Host.ID)
	}
	sock := &UDPSocket{stack: s, Port: port}
	s.udp[port] = sock
	return sock, nil
}

// SendTo transmits a datagram.
func (u *UDPSocket) SendTo(dst packet.Endpoint, payload []byte) {
	u.stack.Net.Send(u.stack.Host, &packet.Packet{
		IP:      packet.IPv4{Protocol: packet.ProtoUDP, Dst: dst.Addr},
		UDP:     &packet.UDP{SrcPort: u.Port, DstPort: dst.Port},
		Payload: payload,
	})
}
