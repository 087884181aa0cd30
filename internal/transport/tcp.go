package transport

import (
	"sort"
	"time"

	"github.com/svrlab/svrlab/internal/netsim"
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

// ListenTCP makes the stack accept connections on port, handing each new
// one to onAccept.
func (s *Stack) ListenTCP(port uint16, onAccept func(*Conn)) {
	s.listeners[port] = onAccept
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
	sendMem  []byte // the array sendBuf lives in, kept to reuse its front
	cwnd     float64
	ssthresh float64
	rwnd     uint32
	dupAcks  int
	retries  int

	// The stream Stream queued follows sendBuf, and the connection keeps
	// none of its bytes: read writes those from stream offset off into dst
	// whenever a segment needs them. streamAcked is the offset of its first
	// unacknowledged byte, streamLen how many bytes Stream has released.
	read        func(dst []byte, off int)
	streamAcked int
	streamLen   int

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
	// rtoDeadline (no scheduling, no allocation). A fire-and-forget timer
	// pends at rtoEventAt <= rtoDeadline; when it fires before the live
	// deadline it reschedules itself for the deadline and returns, so the
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

	// span groups this connection's trace events; lastCwndTr dedups cwnd
	// trace points so the recorder only sees actual window changes.
	span       uint64
	lastCwndTr int64
}

// Enlist adds ep to the fabric's endpoint list, so a layer above the
// connection (secure) has its counts folded at lab teardown.
func (c *Conn) Enlist(ep netsim.Endpoint) { c.stack.Net.RegisterEndpoint(ep) }

// Trace records an event on this connection's span and its host's track
// (netsim.Network.Trace), so the secure layer can stamp handshake phases
// beside the TCP states.
func (c *Conn) Trace(kind trace.Kind, name string, arg, arg2 int64) {
	c.stack.Net.Trace(kind, c.span, c.stack.Host.ID, name, arg, arg2)
}

// countRetransmit is the single accounting point for retransmitted
// segments, whichever path (RTO go-back-N, handshake retry, fast
// retransmit, NewReno partial ACK) triggered them.
func (c *Conn) countRetransmit() { c.stack.counts.retransmits++ }

// noteCwnd records the congestion-window high-water mark and a trace
// counter-track point, deduped so only actual window changes are logged.
func (c *Conn) noteCwnd() {
	c.stack.counts.cwndMax = max(c.stack.counts.cwndMax, c.cwnd)
	if v := int64(c.cwnd); v != c.lastCwndTr {
		c.lastCwndTr = v
		c.Trace(trace.KindTCPCwnd, "cwnd", v, 0)
	}
}

// State returns the connection state.
func (c *Conn) State() ConnState { return c.state }

// Unacked returns the number of bytes sent but not yet acknowledged.
func (c *Conn) Unacked() int { return int(c.sndNxt - c.sndUna) }

// Buffered returns bytes queued (acked-window excluded) awaiting transmit.
func (c *Conn) Buffered() int { return c.queued() }

// queued is the unacknowledged length of the byte stream: the send buffer
// plus the stream's released bytes not yet acknowledged.
func (c *Conn) queued() int { return len(c.sendBuf) + c.streamLen - c.streamAcked }

// DialTCP opens a connection to dst. The returned Conn is usable for Send
// immediately: bytes queue until the handshake completes.
func (s *Stack) DialTCP(dst packet.Endpoint) *Conn {
	return s.open(packet.Endpoint{Addr: s.Host.Addr, Port: s.ephemeralPort()}, dst, StateSynSent, 0)
}

// open registers a new connection in state, draws its ISS and sends its
// SYN, or, for a passive open (StateSynReceived), the SYN-ACK that
// acknowledges rcvNxt, the peer's ISS+1.
func (s *Stack) open(local, remote packet.Endpoint, state ConnState, rcvNxt uint32) *Conn {
	c := &Conn{
		stack:    s,
		Local:    local,
		Remote:   remote,
		state:    state,
		cwnd:     2 * MSS,
		ssthresh: 64 * 1024,
		rwnd:     65535 * windowScale,
		rto:      initialRTO,
		ooo:      make(map[uint32][]byte),
		rcvNxt:   rcvNxt,
		irsNxt:   rcvNxt,
	}
	c.iss = uint32(s.Net.Rng.Int63())
	c.sndUna, c.sndNxt = c.iss, c.iss
	s.conns[connKey{localPort: local.Port, remote: remote}] = c
	syn := &packet.TCP{Flags: packet.FlagSYN, Seq: c.iss}
	if state == StateSynReceived {
		s.counts.accepted++
		syn.Flags |= packet.FlagACK
		syn.Ack = rcvNxt
	} else {
		s.counts.dialed++
	}
	c.span = s.Net.Tracer.NextSpan()
	c.Trace(trace.KindTCPState, state.String(), 0, 0)
	c.sendSeg(syn, nil)
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
	key := connKey{localPort: p.TCP.DstPort, remote: packet.Endpoint{Addr: p.IP.Src, Port: p.TCP.SrcPort}}
	if c, ok := s.conns[key]; ok {
		c.receive(p)
		return
	}
	// New connection?
	if accept, ok := s.listeners[p.TCP.DstPort]; ok && p.TCP.HasFlag(packet.FlagSYN) && !p.TCP.HasFlag(packet.FlagACK) {
		// Answer from the address the client targeted: for anycast
		// services this is the shared service address, not the instance's
		// own — otherwise the client's handshake would never match its
		// connection.
		accept(s.open(packet.Endpoint{Addr: p.IP.Dst, Port: p.TCP.DstPort}, key.remote, StateSynReceived, p.TCP.Seq+1))
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
	c.materialize() // the stream's unacknowledged bytes go first
	c.reserve(len(data))
	c.sendBuf = append(c.sendBuf, data...)
	c.pump()
}

// Stream queues n bytes that read writes into dst from stream offset off
// whenever a segment needs them; the connection stores none of them. While
// the window is open, Stream releases one chunk and pumps, then repeats, as
// one Send per chunk would, so each chunk ends in a segment of its own. Once
// the window closes, it releases the rest at once: pump and retransmitHead
// then cut segments as from a Send of the whole stream. read is dropped once
// every byte is acknowledged, or when the connection closes.
func (c *Conn) Stream(n, chunk int, read func(dst []byte, off int)) {
	if c.state == StateClosed || n <= 0 {
		return
	}
	c.materialize() // an earlier stream's unacknowledged bytes go first
	c.read = read
	for c.streamLen < n && c.state == StateEstablished && c.window() >= 1 {
		c.streamLen = min(n, c.streamLen+chunk)
		c.pump()
	}
	c.streamLen = n
}

// materialize moves the stream's unacknowledged bytes into the send buffer,
// so bytes queued behind them keep their place.
func (c *Conn) materialize() {
	if c.read == nil {
		return
	}
	k := c.streamLen - c.streamAcked
	c.reserve(k)
	n := len(c.sendBuf)
	c.sendBuf = c.sendBuf[:n+k]
	c.read(c.sendBuf[n:], c.streamAcked)
	c.dropStream()
}

func (c *Conn) dropStream() { c.read, c.streamAcked, c.streamLen = nil, 0, 0 }

// segment returns the n queued bytes at offset off: a view of the send
// buffer, or the stack's scratch filled from the send buffer's tail and
// then through read. The fabric copies each segment inside Network.Send, so
// the scratch is free again once sendSeg returns.
func (c *Conn) segment(off, n int) []byte {
	if off+n <= len(c.sendBuf) {
		return c.sendBuf[off : off+n]
	}
	if c.stack.scratch == nil {
		c.stack.scratch = make([]byte, MSS)
	}
	seg := c.stack.scratch[:n]
	k := 0
	if off < len(c.sendBuf) {
		k = copy(seg, c.sendBuf[off:])
	}
	c.read(seg[k:], c.streamAcked+off+k-len(c.sendBuf))
	return seg
}

// reserve makes room for k more bytes after sendBuf. When the live bytes
// plus k fit in half the array, they slide to its start; otherwise they
// move to a new array of twice the old one, or twice what they need if
// that is more. Doubling from the array, not from the live bytes, keeps a
// window that congestion avoidance grows a little per round trip from
// reallocating once per window. Sent segments never alias sendBuf: the
// fabric copies each one into its own wire buffer inside Network.Send.
func (c *Conn) reserve(k int) {
	if cap(c.sendBuf)-len(c.sendBuf) >= k {
		return
	}
	live := len(c.sendBuf)
	if live+k > cap(c.sendMem)/2 {
		c.sendMem = make([]byte, 0, max(2*cap(c.sendMem), 2*(live+k)))
	}
	c.sendBuf = c.sendMem[:copy(c.sendMem[:live], c.sendBuf)]
}

// window is the number of bytes the congestion and flow windows allow
// beyond those in flight.
func (c *Conn) window() int {
	return min(int(c.cwnd), int(c.rwnd)) - int(c.sndNxt-c.sndUna)
}

// pump transmits new segments while congestion and flow windows allow.
func (c *Conn) pump() {
	if c.state != StateEstablished {
		return
	}
	for {
		avail := c.window()
		offset := int(c.sndNxt - c.sndUna)
		remain := c.queued() - offset
		if avail < 1 || remain <= 0 {
			return
		}
		n := min(MSS, remain, avail)
		c.sendSeg(&packet.TCP{Flags: packet.FlagACK | packet.FlagPSH, Seq: c.sndNxt, Ack: c.rcvNxt}, c.segment(offset, n))
		if !c.timing {
			c.timing = true
			c.rttSeq = c.sndNxt + uint32(n)
			c.rttAt = c.now()
		}
		c.sndNxt += uint32(n)
		c.noteSndNxt()
		c.armRTO()
	}
}

func (c *Conn) now() time.Duration { return c.stack.Net.Sched.Now() }

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
		c.stack.Net.Sched.At(c.rtoDeadline, c.rtoFire)
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
		// The deadline moved later since this timer was set: defer.
		c.rtoEventAt = c.rtoDeadline
		c.stack.Net.Sched.At(c.rtoDeadline, c.rtoFire)
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
			c.stack.counts.aborted++
			c.stack.counts.connectTimeouts++
			c.close("connect timeout")
			return
		}
	} else if c.retries > maxRetries {
		c.stack.counts.aborted++
		c.close("too many retransmissions")
		return
	}
	// Collapse the window and back off.
	c.stack.counts.rtoBackoffs++
	c.Trace(trace.KindTCPRetx, "rto-backoff", int64(c.retries), int64(c.rto/time.Microsecond))
	c.ssthresh = max(float64(c.Unacked())/2, 2*MSS)
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
		n := min(c.queued(), MSS)
		if n == 0 {
			return
		}
		c.sendSeg(&packet.TCP{Flags: packet.FlagACK | packet.FlagPSH, Seq: c.sndUna, Ack: c.rcvNxt}, c.segment(0, n))
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
	c.Trace(trace.KindTCPState, "closed", 0, 0)
	delete(c.stack.conns, connKey{localPort: c.Local.Port, remote: c.Remote})
	// Release the payload memory pinned by the send window and the
	// reassembly queue — a closed conn otherwise holds both for the rest of
	// the sweep cell (the same pinning class as capture's Clear fix).
	c.sendBuf, c.sendMem = nil, nil
	c.dropStream()
	c.ooo = nil
}

// Close tears the connection down locally (no FIN exchange is modelled; the
// peer notices via its own retransmission limit if it keeps sending).
func (c *Conn) Close() { c.close("closed by application") }

func (c *Conn) receive(p *packet.Packet) {
	t := p.TCP
	switch c.state {
	case StateSynSent:
		if t.HasFlag(packet.FlagSYN | packet.FlagACK) {
			c.rcvNxt = t.Seq + 1
			c.irsNxt = c.rcvNxt
			c.sndUna = t.Ack
			c.state = StateEstablished
			c.Trace(trace.KindTCPState, "established", 0, 0)
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
			c.Trace(trace.KindTCPState, "established", 0, 0)
			c.retries = 0
			c.rto = initialRTO
			c.armRTO()
			if c.OnEstablished != nil {
				c.OnEstablished()
			}
		}
		// Fall through: the ACK takes the SYN off and pumps what the
		// application queued meanwhile, and may carry data.
	case StateClosed:
		return
	}
	if c.state != StateEstablished {
		return
	}

	c.rwnd = uint32(t.Window) * windowScale

	// ---- ACK processing ----
	if t.HasFlag(packet.FlagACK) {
		// The SYN consumes a sequence number that never entered the send
		// buffer: while it is unacknowledged, an ACK covers one byte fewer
		// of the buffer.
		var syn uint32
		if c.sndUna == c.iss {
			syn = 1
		}
		// After a go-back-N rewind, a cumulative ACK for pre-rewind data can
		// exceed the rewound sndNxt. It is still a genuine ACK for bytes the
		// receiver holds; fast-forward sndNxt so the advance is accepted.
		if seqLT(c.sndNxt, t.Ack) && t.Ack-c.sndUna <= uint32(c.queued())+syn {
			c.sndNxt = t.Ack
			c.noteSndNxt()
		}
		if seqLT(c.sndUna, t.Ack) && seqLEQ(t.Ack, c.sndNxt) {
			acked := t.Ack - c.sndUna
			// The ACK trims the send buffer first, then the stream behind
			// it.
			bufAck := int(acked - syn)
			k := min(bufAck, len(c.sendBuf))
			c.sendBuf = c.sendBuf[k:]
			if c.streamAcked += bufAck - k; c.streamAcked == c.streamLen {
				c.dropStream()
			}
			c.sndUna = t.Ack
			c.dupAcks = 0
			// Spurious-RTO mitigation (F-RTO flavoured): an ACK covering
			// more than the single retransmitted segment means the
			// original flight was delivered — the timeout was a delay
			// spike, not loss. Undo the window collapse so a sudden path
			// delay (Fig. 13's netem stages) doesn't strand the
			// connection in deep slow start with a backed-off timer.
			if c.retries > 0 && acked > MSS {
				c.cwnd = max(c.cwnd, c.ssthresh)
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
			c.pump()
		} else if t.Ack == c.sndUna && c.Unacked() > 0 && len(p.Payload) == 0 {
			c.dupAcks++
			if c.dupAcks == 3 && !c.inRecovery {
				// Fast retransmit + NewReno fast recovery.
				c.stack.counts.fastRetransmits++
				c.Trace(trace.KindTCPRetx, "fast-retransmit", int64(c.Unacked()), 0)
				c.ssthresh = max(float64(c.Unacked())/2, 2*MSS)
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
