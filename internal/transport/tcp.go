package transport

import (
	"slices"
	"sort"
	"time"

	"github.com/svrlab/svrlab/internal/obs"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/trace"
)

// MSS is the maximum TCP segment payload.
const MSS = 1400

// windowScale is the negotiated RFC 7323 window-scale factor: the 16-bit
// wire window is interpreted ×8, allowing ~512 KB in flight (without it a
// 70 ms coast-to-coast path would cap at ~7.5 Mbit/s and the §5.2 bulk
// downloads would crawl).
const windowScale = 8

// TCP retransmission parameters (RFC 6298 flavoured).
const (
	minRTO     = 200 * time.Millisecond
	initialRTO = 1 * time.Second
	maxRTO     = 60 * time.Second
	maxRetries = 10
	// maxHandshakeRetries caps SYN/SYN-ACK retransmission separately: with
	// exponential backoff from 1 s, the full maxRetries budget means minutes
	// of virtual time before DialTCP gives up, far too slow for failover
	// logic to react to a dead server. Five retries (~31 s worst case)
	// matches typical OS connect() behaviour; the close reason is the
	// distinct "connect timeout" so callers can tell refusal from mid-stream
	// death.
	maxHandshakeRetries = 5
)

// ConnState is the (simplified) TCP connection state.
type ConnState int

const (
	StateClosed ConnState = iota
	StateSynSent
	StateSynReceived
	StateEstablished
)

func (s ConnState) String() string {
	switch s {
	case StateSynSent:
		return "syn-sent"
	case StateSynReceived:
		return "syn-received"
	case StateEstablished:
		return "established"
	}
	return "closed"
}

// Listener accepts inbound TCP connections on a port.
type Listener struct {
	Port     uint16
	OnAccept func(*Conn)
}

// ListenTCP registers a listener.
func (s *Stack) ListenTCP(port uint16, onAccept func(*Conn)) *Listener {
	l := &Listener{Port: port, OnAccept: onAccept}
	s.listeners[port] = l
	return l
}

// Conn is one TCP connection endpoint.
type Conn struct {
	stack  *Stack
	Local  packet.Endpoint
	Remote packet.Endpoint

	state ConnState

	// Send side.
	iss      uint32
	sndUna   uint32 // oldest unacknowledged sequence
	sndNxt   uint32 // next sequence to transmit
	sendBuf  []byte // bytes [sndUna, sndUna+len) not yet fully acked
	cwnd     float64
	ssthresh float64
	rwnd     uint32
	dupAcks  int
	retries  int

	// NewReno fast recovery state.
	inRecovery bool
	recover    uint32 // sndNxt when loss was detected

	// RTT estimation.
	srtt, rttvar time.Duration
	rto          time.Duration
	// rttSeq/rttAt time one in-flight segment (Karn's rule: cleared on rtx).
	rttSeq uint32
	rttAt  time.Duration
	timing bool

	// RTO timer, lazily deferred: re-arming on an ACK only moves
	// rtoDeadline (no scheduling, no allocation). A pooled fire-and-forget
	// event pends at rtoEventAt <= rtoDeadline; when it fires before the
	// live deadline it re-posts itself for the deadline and returns, so the
	// timer costs one heap entry per connection instead of one per ACK.
	// rtoFire is the once-bound callback.
	rtoDeadline time.Duration // fire time of the live arm; 0 = disarmed
	rtoEventAt  time.Duration // earliest pending event; 0 = none pending
	rtoFire     func()

	// Receive side.
	rcvNxt uint32
	irsNxt uint32 // initial rcvNxt (peer's ISS+1); rcvNxt-irsNxt = delivered bytes
	ooo    map[uint32][]byte

	// maxRelSeq is the high-water mark of sndNxt-iss — unique stream bytes
	// (plus the SYN) ever put on the wire, immune to go-back-N rewinds. The
	// end-of-run auditor checks the peer's delivered prefix against it.
	maxRelSeq uint32

	// Callbacks.
	OnData        func([]byte)
	OnEstablished func()
	OnClose       func(reason string)

	// OnDrained fires whenever the last unacknowledged byte is cumulatively
	// acked — the hook Horizon Worlds' UDP-gating logic uses.
	OnDrained func()

	// Counters for tests and analysis.
	Retransmits int
	DataSent    int
	DataRecv    int

	// span groups this connection's trace events; lastCwndTr dedups cwnd
	// trace points so the recorder only sees actual window changes.
	span       uint64
	lastCwndTr int64
}

// Metrics exposes the per-lab registry of the owning network, so layers
// above the connection (secure, rtpx) can record without extra plumbing.
func (c *Conn) Metrics() *obs.Registry { return c.stack.Net.Metrics }

// Tracer exposes the lab's flight recorder handle (nil when disabled), so
// the secure layer can stamp handshake phases onto this connection's span.
func (c *Conn) Tracer() *trace.Tracer { return c.stack.Net.Tracer }

// HostID names the trace track this connection's events belong to.
func (c *Conn) HostID() string { return c.stack.Host.ID }

// Span returns the connection's trace span id (0 when tracing is off).
func (c *Conn) Span() uint64 { return c.span }

// countRetransmit is the single accounting point for retransmitted
// segments, whichever path (RTO go-back-N, handshake retry, fast
// retransmit, NewReno partial ACK) triggered them.
func (c *Conn) countRetransmit() {
	c.Retransmits++
	c.stack.cRetransmits.Inc()
}

// noteCwnd records the congestion-window high-water mark and, when tracing,
// a counter-track point — deduped so only actual window changes are logged.
func (c *Conn) noteCwnd() {
	c.stack.gCwndMax.Set(c.cwnd)
	if tr := c.stack.Net.Tracer; tr != nil {
		if v := int64(c.cwnd); v != c.lastCwndTr {
			c.lastCwndTr = v
			tr.TCPCwnd(c.now(), c.span, c.stack.Host.ID, v)
		}
	}
}

// State returns the connection state.
func (c *Conn) State() ConnState { return c.state }

// Unacked returns the number of bytes sent but not yet acknowledged.
func (c *Conn) Unacked() int { return int(c.sndNxt - c.sndUna) }

// Buffered returns bytes queued (acked-window excluded) awaiting transmit.
func (c *Conn) Buffered() int { return len(c.sendBuf) }

// DialTCP opens a connection to dst. The returned Conn is usable for Send
// immediately: bytes queue until the handshake completes.
func (s *Stack) DialTCP(dst packet.Endpoint) *Conn {
	c := &Conn{
		stack:    s,
		Local:    packet.Endpoint{Addr: s.Host.Addr, Port: s.ephemeralPort()},
		Remote:   dst,
		state:    StateSynSent,
		cwnd:     2 * MSS,
		ssthresh: 64 * 1024,
		rwnd:     65535 * windowScale,
		rto:      initialRTO,
		ooo:      make(map[uint32][]byte),
	}
	c.iss = uint32(s.Net.Rng.Int63())
	c.sndUna, c.sndNxt = c.iss, c.iss
	s.conns[connKey{c.Local.Port, dst}] = c
	s.cConnsDialed.Inc()
	c.span = s.Net.Tracer.NextSpan()
	s.Net.Tracer.TCPState(s.Net.Sched.Now(), c.span, s.Host.ID, "syn-sent")
	c.sendSeg(&packet.TCP{Flags: packet.FlagSYN, Seq: c.iss}, nil)
	c.sndNxt++ // SYN consumes a sequence number
	c.noteSndNxt()
	c.armRTO()
	return c
}

// noteSndNxt advances the unique-bytes-sent high-water mark.
func (c *Conn) noteSndNxt() {
	if rel := c.sndNxt - c.iss; rel > c.maxRelSeq {
		c.maxRelSeq = rel
	}
}

func (s *Stack) handleTCP(p *packet.Packet) {
	key := connKey{p.TCP.DstPort, packet.Endpoint{Addr: p.IP.Src, Port: p.TCP.SrcPort}}
	if c, ok := s.conns[key]; ok {
		c.receive(p)
		return
	}
	// New connection?
	if l, ok := s.listeners[p.TCP.DstPort]; ok && p.TCP.HasFlag(packet.FlagSYN) && !p.TCP.HasFlag(packet.FlagACK) {
		c := &Conn{
			stack: s,
			// Answer from the address the client targeted: for anycast
			// services this is the shared service address, not the
			// instance's own — otherwise the client's handshake would
			// never match its connection.
			Local:    packet.Endpoint{Addr: p.IP.Dst, Port: p.TCP.DstPort},
			Remote:   key.remote,
			state:    StateSynReceived,
			cwnd:     2 * MSS,
			ssthresh: 64 * 1024,
			rwnd:     65535 * windowScale,
			rto:      initialRTO,
			ooo:      make(map[uint32][]byte),
			rcvNxt:   p.TCP.Seq + 1,
			irsNxt:   p.TCP.Seq + 1,
		}
		c.iss = uint32(s.Net.Rng.Int63())
		c.sndUna, c.sndNxt = c.iss, c.iss
		s.conns[key] = c
		s.cConnsAccepted.Inc()
		c.span = s.Net.Tracer.NextSpan()
		s.Net.Tracer.TCPState(s.Net.Sched.Now(), c.span, s.Host.ID, "syn-received")
		c.sendSeg(&packet.TCP{Flags: packet.FlagSYN | packet.FlagACK, Seq: c.iss, Ack: c.rcvNxt}, nil)
		c.sndNxt++
		c.noteSndNxt()
		c.armRTO()
		if l.OnAccept != nil {
			l.OnAccept(c)
		}
		return
	}
	// No listener: RST (silently ignore for simplicity).
}

func seqLT(a, b uint32) bool  { return int32(a-b) < 0 }
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }

func (c *Conn) sendSeg(hdr *packet.TCP, payload []byte) {
	hdr.SrcPort, hdr.DstPort = c.Local.Port, c.Remote.Port
	hdr.Window = 65535
	c.stack.Net.Send(c.stack.Host, &packet.Packet{
		IP:      packet.IPv4{Protocol: packet.ProtoTCP, Src: c.Local.Addr, Dst: c.Remote.Addr},
		TCP:     hdr,
		Payload: payload,
	})
}

// Send queues a copy of data and pumps the window; the caller may reuse
// data as soon as Send returns.
func (c *Conn) Send(data []byte) {
	if c.state == StateClosed || len(data) == 0 {
		return
	}
	c.sendBuf = append(c.sendBuf, data...)
	c.pump()
}

// Grow reserves send-buffer room for n more bytes, so a message written as
// several Sends moves the buffer at most once instead of once per growth
// step. Like append, it moves the buffer to a new array rather than
// compacting in place: in-flight segments alias sendBuf and must never see
// their bytes overwritten.
func (c *Conn) Grow(n int) {
	if c.state == StateClosed {
		return
	}
	c.sendBuf = slices.Grow(c.sendBuf, n)
}

// pump transmits new segments while congestion and flow windows allow.
func (c *Conn) pump() {
	if c.state != StateEstablished {
		return
	}
	for {
		inflight := int(c.sndNxt - c.sndUna)
		win := int(c.cwnd)
		if int(c.rwnd) < win {
			win = int(c.rwnd)
		}
		avail := win - inflight
		offset := int(c.sndNxt - c.sndUna)
		remain := len(c.sendBuf) - offset
		if avail < 1 || remain <= 0 {
			return
		}
		n := MSS
		if n > remain {
			n = remain
		}
		if n > avail {
			n = avail
		}
		seg := c.sendBuf[offset : offset+n]
		c.sendSeg(&packet.TCP{Flags: packet.FlagACK | packet.FlagPSH, Seq: c.sndNxt, Ack: c.rcvNxt}, seg)
		if !c.timing {
			c.timing = true
			c.rttSeq = c.sndNxt + uint32(n)
			c.rttAt = c.now()
		}
		c.sndNxt += uint32(n)
		c.noteSndNxt()
		c.DataSent += n
		c.armRTO()
	}
}

func (c *Conn) now() time.Duration { return c.stack.Net.Sched.Now() }

// Now exposes the lab's virtual clock, so layers above the connection
// (secure) can timestamp trace events without scheduler plumbing.
func (c *Conn) Now() time.Duration { return c.now() }

func (c *Conn) armRTO() {
	if c.Unacked() == 0 && c.state == StateEstablished {
		c.rtoDeadline = 0
		return
	}
	if c.state == StateClosed {
		c.rtoDeadline = 0
		return
	}
	c.rtoDeadline = c.now() + c.rto
	// A pending event at or before the new deadline will defer itself
	// there; only schedule when none covers it (first arm, or the deadline
	// moved earlier because the RTT estimate shrank).
	if c.rtoEventAt == 0 || c.rtoDeadline < c.rtoEventAt {
		if c.rtoFire == nil {
			c.rtoFire = c.onRTOFire
		}
		c.rtoEventAt = c.rtoDeadline
		c.stack.Net.Sched.Post(c.rtoDeadline, c.rtoFire)
	}
}

// onRTOFire runs for every pending timer event; it defers to the live
// deadline when the arm has moved later, and no-ops when disarmed.
func (c *Conn) onRTOFire() {
	c.rtoEventAt = 0
	if c.rtoDeadline == 0 {
		return // disarmed
	}
	if now := c.now(); c.rtoDeadline > now {
		// The deadline moved later since this event was posted: defer.
		c.rtoEventAt = c.rtoDeadline
		c.stack.Net.Sched.Post(c.rtoDeadline, c.rtoFire)
		return
	}
	c.rtoDeadline = 0
	c.onRTO()
}

func (c *Conn) onRTO() {
	if c.state == StateClosed {
		return
	}
	c.retries++
	// SYN/SYN-ACK loss gets a much tighter budget than mid-stream loss: a
	// peer that never answers the handshake is dead or unreachable, and
	// burning the full exponential-backoff schedule (~minutes) before
	// reporting it would stall every failover path built on DialTCP.
	if handshake := c.state == StateSynSent || c.state == StateSynReceived; handshake {
		if c.retries > maxHandshakeRetries {
			c.stack.cConnsAborted.Inc()
			c.stack.cConnTimeouts.Inc()
			c.close("connect timeout")
			return
		}
	} else if c.retries > maxRetries {
		c.stack.cConnsAborted.Inc()
		c.close("too many retransmissions")
		return
	}
	// Collapse the window and back off.
	c.stack.cRTOBackoffs.Inc()
	c.stack.Net.Tracer.TCPRetx(c.now(), c.span, c.stack.Host.ID, "rto-backoff",
		int64(c.retries), int64(c.rto/time.Microsecond))
	c.ssthresh = maxf(float64(c.Unacked())/2, 2*MSS)
	c.cwnd = MSS
	c.inRecovery = false
	c.rto *= 2
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
	c.timing = false // Karn: do not time retransmitted segments
	if c.state == StateEstablished {
		// Go-back-N: everything past the oldest hole is presumed lost.
		// Rewind so pump() re-sends from the hole inside the collapsed
		// window; slow start then re-grows toward ssthresh.
		c.countRetransmit()
		c.sndNxt = c.sndUna
		c.pump()
	} else {
		c.retransmitHead()
	}
	c.armRTO()
}

// retransmitHead resends the oldest unacknowledged segment (or control
// packet during handshake).
func (c *Conn) retransmitHead() {
	c.countRetransmit()
	switch c.state {
	case StateSynSent:
		c.sendSeg(&packet.TCP{Flags: packet.FlagSYN, Seq: c.iss}, nil)
	case StateSynReceived:
		c.sendSeg(&packet.TCP{Flags: packet.FlagSYN | packet.FlagACK, Seq: c.iss, Ack: c.rcvNxt}, nil)
	case StateEstablished:
		n := len(c.sendBuf)
		if n > MSS {
			n = MSS
		}
		if n == 0 {
			return
		}
		c.sendSeg(&packet.TCP{Flags: packet.FlagACK | packet.FlagPSH, Seq: c.sndUna, Ack: c.rcvNxt}, c.sendBuf[:n])
	}
}

func (c *Conn) close(reason string) {
	if c.state == StateClosed {
		return
	}
	// Snapshot the audit summary before the state is torn down: the conn
	// leaves the stack's map here, and the auditor still needs its
	// byte-stream accounting at end of run.
	c.stack.closedConns = append(c.stack.closedConns, c.audit(reason))
	c.state = StateClosed
	c.rtoDeadline = 0
	c.stack.Net.Tracer.TCPState(c.now(), c.span, c.stack.Host.ID, "closed")
	delete(c.stack.conns, connKey{c.Local.Port, c.Remote})
	// Release the payload memory pinned by the send window and the
	// reassembly queue — a closed conn otherwise holds both for the rest of
	// the sweep cell (the same pinning class as capture's Clear fix).
	c.sendBuf = nil
	c.ooo = nil
	if c.OnClose != nil {
		c.OnClose(reason)
	}
}

// Close tears the connection down locally (no FIN exchange is modelled; the
// peer notices via its own retransmission limit if it keeps sending).
func (c *Conn) Close() { c.close("closed by application") }

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func (c *Conn) receive(p *packet.Packet) {
	t := p.TCP
	switch c.state {
	case StateSynSent:
		if t.HasFlag(packet.FlagSYN | packet.FlagACK) {
			c.rcvNxt = t.Seq + 1
			c.irsNxt = c.rcvNxt
			c.sndUna = t.Ack
			c.state = StateEstablished
			c.stack.Net.Tracer.TCPState(c.now(), c.span, c.stack.Host.ID, "established")
			c.retries = 0
			c.rto = initialRTO
			c.sendSeg(&packet.TCP{Flags: packet.FlagACK, Seq: c.sndNxt, Ack: c.rcvNxt}, nil)
			c.armRTO()
			if c.OnEstablished != nil {
				c.OnEstablished()
			}
			c.pump()
		}
		return
	case StateSynReceived:
		if t.HasFlag(packet.FlagACK) && t.Ack == c.sndNxt {
			c.state = StateEstablished
			c.stack.Net.Tracer.TCPState(c.now(), c.span, c.stack.Host.ID, "established")
			c.retries = 0
			c.rto = initialRTO
			c.armRTO()
			if c.OnEstablished != nil {
				c.OnEstablished()
			}
			c.pump()
		}
		// Fall through: the ACK may carry data.
	case StateClosed:
		return
	}
	if c.state != StateEstablished {
		return
	}

	c.rwnd = uint32(t.Window) * windowScale

	// ---- ACK processing ----
	if t.HasFlag(packet.FlagACK) {
		// After a go-back-N rewind, a cumulative ACK for pre-rewind data can
		// exceed the rewound sndNxt. It is still a genuine ACK for bytes the
		// receiver holds; fast-forward sndNxt so the advance is accepted.
		if seqLT(c.sndNxt, t.Ack) && t.Ack-c.sndUna <= uint32(len(c.sendBuf))+1 {
			c.sndNxt = t.Ack
			c.noteSndNxt()
		}
		if seqLT(c.sndUna, t.Ack) && seqLEQ(t.Ack, c.sndNxt) {
			acked := t.Ack - c.sndUna
			// The SYN consumes a sequence number that never entered the
			// send buffer; clamp buffer consumption accordingly.
			bufAck := int(acked)
			if bufAck > len(c.sendBuf) {
				bufAck = len(c.sendBuf)
			}
			c.sendBuf = c.sendBuf[bufAck:]
			c.sndUna = t.Ack
			c.dupAcks = 0
			// Spurious-RTO mitigation (F-RTO flavoured): an ACK covering
			// more than the single retransmitted segment means the
			// original flight was delivered — the timeout was a delay
			// spike, not loss. Undo the window collapse so a sudden path
			// delay (Fig. 13's netem stages) doesn't strand the
			// connection in deep slow start with a backed-off timer.
			if c.retries > 0 && acked > MSS {
				c.cwnd = maxf(c.cwnd, c.ssthresh)
				base := 2 * c.srtt
				if base < initialRTO {
					base = initialRTO
				}
				if c.rto > base {
					c.rto = base
				}
			}
			c.retries = 0
			// RTT sample.
			if c.timing && seqLEQ(c.rttSeq, t.Ack) {
				c.sampleRTT(c.now() - c.rttAt)
				c.timing = false
			}
			if c.inRecovery {
				if seqLT(t.Ack, c.recover) {
					// NewReno partial ACK: the next hole is lost too —
					// retransmit it immediately and stay in recovery.
					c.timing = false
					c.retransmitHead()
				} else {
					c.inRecovery = false
					c.cwnd = c.ssthresh
				}
			} else {
				// Congestion window growth.
				if c.cwnd < c.ssthresh {
					c.cwnd += float64(acked) // slow start
				} else {
					c.cwnd += MSS * MSS / c.cwnd // congestion avoidance
				}
			}
			c.noteCwnd()
			c.armRTO()
			if c.Unacked() == 0 && len(c.sendBuf) == 0 && c.OnDrained != nil {
				c.OnDrained()
			}
			c.pump()
		} else if t.Ack == c.sndUna && c.Unacked() > 0 && len(p.Payload) == 0 {
			c.dupAcks++
			if c.dupAcks == 3 && !c.inRecovery {
				// Fast retransmit + NewReno fast recovery.
				c.stack.cFastRetransmits.Inc()
				c.stack.Net.Tracer.TCPRetx(c.now(), c.span, c.stack.Host.ID, "fast-retransmit",
					int64(c.Unacked()), 0)
				c.ssthresh = maxf(float64(c.Unacked())/2, 2*MSS)
				c.cwnd = c.ssthresh + 3*MSS
				c.inRecovery = true
				c.recover = c.sndNxt
				c.timing = false
				c.retransmitHead()
			} else if c.inRecovery {
				// Window inflation keeps the pipe full during recovery.
				c.cwnd += MSS
				c.noteCwnd()
				c.pump()
			}
		}
	}

	// ---- data processing ----
	if len(p.Payload) > 0 {
		if t.Seq == c.rcvNxt {
			c.deliver(p.Payload)
			c.drainOOO()
		} else if seqLT(c.rcvNxt, t.Seq) {
			c.ooo[t.Seq] = append([]byte(nil), p.Payload...)
		} else if end := t.Seq + uint32(len(p.Payload)); seqLT(c.rcvNxt, end) {
			// Retransmission straddling rcvNxt: go-back-N re-packetizes
			// from sndUna, so boundaries need not match the original
			// flight. Deliver only the unseen suffix.
			c.deliver(p.Payload[c.rcvNxt-t.Seq:])
			c.drainOOO()
		}
		// ACK everything we have (also generates dup ACKs on gaps).
		c.sendSeg(&packet.TCP{Flags: packet.FlagACK, Seq: c.sndNxt, Ack: c.rcvNxt}, nil)
	}
}

// drainOOO delivers every reassembly segment now reachable from rcvNxt.
// Segments are walked in sequence order (deterministically — map iteration
// order must never reach delivery), trimming the already-delivered prefix
// of any segment that straddles rcvNxt and discarding fully-covered ones.
// Without the trim, a rewound sender's re-packetized flight can advance
// rcvNxt past a stored key, stranding the entry below rcvNxt forever —
// a leak the end-of-run auditor flags as OOOPastRcv.
func (c *Conn) drainOOO() {
	if len(c.ooo) == 0 {
		return
	}
	keys := make([]uint32, 0, len(c.ooo))
	for k := range c.ooo {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return seqLT(keys[i], keys[j]) })
	for _, seq := range keys {
		if seqLT(c.rcvNxt, seq) {
			break // gap: this and every later segment stay queued
		}
		seg := c.ooo[seq]
		delete(c.ooo, seq)
		if end := seq + uint32(len(seg)); seqLT(c.rcvNxt, end) {
			c.deliver(seg[c.rcvNxt-seq:])
		}
	}
}

func (c *Conn) deliver(b []byte) {
	c.rcvNxt += uint32(len(b))
	c.DataRecv += len(b)
	if c.OnData != nil {
		c.OnData(b)
	}
}

func (c *Conn) sampleRTT(m time.Duration) {
	if m <= 0 {
		m = time.Millisecond
	}
	if c.srtt == 0 {
		c.srtt = m
		c.rttvar = m / 2
	} else {
		d := c.srtt - m
		if d < 0 {
			d = -d
		}
		c.rttvar = (3*c.rttvar + d) / 4
		c.srtt = (7*c.srtt + m) / 8
	}
	c.rto = c.srtt + 4*c.rttvar
	if c.rto < minRTO {
		c.rto = minRTO
	}
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
}

// SRTT exposes the smoothed RTT estimate (zero before the first sample).
func (c *Conn) SRTT() time.Duration { return c.srtt }
