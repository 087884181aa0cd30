// Package probe implements the §4.2 infrastructure-measurement toolkit:
// ICMP and TCP ping with average/standard-deviation RTT, UDP traceroute,
// and the paper's anycast-inference procedure (comparable RTTs from
// geo-distributed vantage points and/or divergent penultimate hops).
package probe

import (
	"encoding/binary"
	"time"

	"github.com/svrlab/svrlab/internal/netsim"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/stats"
	"github.com/svrlab/svrlab/internal/transport"
)

// Prober issues measurements from one vantage host. It owns the stack's
// ICMP handler.
type Prober struct {
	Stack *transport.Stack
	Net   *netsim.Network

	nextEchoID uint16
	pings      map[uint16]*PingJob
	traces     map[uint16]*TraceJob // keyed by UDP dst port
}

// New creates a prober on a stack.
func New(st *transport.Stack) *Prober {
	p := &Prober{
		Stack:  st,
		Net:    st.Net,
		pings:  make(map[uint16]*PingJob),
		traces: make(map[uint16]*TraceJob),
	}
	st.ICMPHandler = p.onICMP
	return p
}

// PingResult summarizes a ping run.
type PingResult struct {
	Sent, Received int
	RTTs           []time.Duration
	Avg, Std       time.Duration
}

// PingJob is an in-flight ping measurement.
type PingJob struct {
	ID     uint16
	Done   bool
	Result PingResult
	OnDone func(PingResult)

	sent map[uint16]time.Duration // seq -> send time
	want int
}

// Ping sends count ICMP echo requests at the given interval and finalizes
// after the last reply or a 2-second tail timeout.
func (p *Prober) Ping(dst packet.Addr, count int, interval time.Duration, onDone func(PingResult)) *PingJob {
	p.nextEchoID++
	job := &PingJob{ID: p.nextEchoID, OnDone: onDone, sent: make(map[uint16]time.Duration), want: count}
	p.pings[job.ID] = job
	for i := 0; i < count; i++ {
		seq := uint16(i)
		p.Net.Sched.After(time.Duration(i)*interval, func() {
			job.sent[seq] = p.Net.Sched.Now()
			job.Result.Sent++
			p.Net.Send(p.Stack.Host, &packet.Packet{
				IP:   packet.IPv4{Protocol: packet.ProtoICMP, Dst: dst},
				ICMP: &packet.ICMP{Type: packet.ICMPEchoRequest, ID: job.ID, Seq: seq},
			})
		})
	}
	tail := time.Duration(count)*interval + 2*time.Second
	p.Net.Sched.After(tail, func() { p.finishPing(job) })
	return job
}

func (p *Prober) finishPing(job *PingJob) {
	if job.Done {
		return
	}
	job.Done = true
	delete(p.pings, job.ID)
	xs := make([]float64, len(job.Result.RTTs))
	for i, d := range job.Result.RTTs {
		xs[i] = float64(d)
	}
	s := stats.Summarize(xs)
	job.Result.Avg = time.Duration(s.Mean)
	job.Result.Std = time.Duration(s.Std)
	if job.OnDone != nil {
		job.OnDone(job.Result)
	}
}

// TCPPing estimates RTT via a TCP handshake to the given port (used when a
// server blocks ICMP, as in the paper). The result carries one sample.
func (p *Prober) TCPPing(dst packet.Endpoint, onDone func(PingResult)) {
	start := p.Net.Sched.Now()
	conn := p.Stack.DialTCP(dst)
	finished := false
	conn.OnEstablished = func() {
		if finished {
			return
		}
		finished = true
		rtt := p.Net.Sched.Now() - start
		conn.Close()
		res := PingResult{Sent: 1, Received: 1, RTTs: []time.Duration{rtt}, Avg: rtt}
		if onDone != nil {
			onDone(res)
		}
	}
	p.Net.Sched.After(5*time.Second, func() {
		if !finished {
			finished = true
			conn.Close()
			if onDone != nil {
				onDone(PingResult{Sent: 1})
			}
		}
	})
}

// Hop is one traceroute hop.
type Hop struct {
	TTL     int
	Addr    packet.Addr
	RTT     time.Duration
	Reached bool // true when this hop is the destination itself
}

// TraceJob is an in-flight traceroute.
type TraceJob struct {
	Dst    packet.Addr
	Hops   []Hop
	Done   bool
	OnDone func([]Hop)

	sent map[uint16]hopProbe // dst port -> probe
}

type hopProbe struct {
	ttl int
	at  time.Duration
}

const traceBasePort = 33434

// Traceroute probes dst with UDP packets of increasing TTL, one probe per
// TTL, spaced 50 ms apart, up to maxTTL. It finalizes on the destination's
// port-unreachable or after a tail timeout.
func (p *Prober) Traceroute(dst packet.Addr, maxTTL int, onDone func([]Hop)) *TraceJob {
	job := &TraceJob{Dst: dst, OnDone: onDone, sent: make(map[uint16]hopProbe)}
	for ttl := 1; ttl <= maxTTL; ttl++ {
		ttl := ttl
		port := uint16(traceBasePort + ttl)
		p.traces[port] = job
		p.Net.Sched.After(time.Duration(ttl-1)*50*time.Millisecond, func() {
			if job.Done {
				return
			}
			job.sent[port] = hopProbe{ttl: ttl, at: p.Net.Sched.Now()}
			pkt := &packet.Packet{
				IP:      packet.IPv4{Protocol: packet.ProtoUDP, Dst: dst, TTL: uint8(ttl)},
				UDP:     &packet.UDP{SrcPort: 40000, DstPort: port},
				Payload: []byte("traceroute"),
			}
			p.Net.Send(p.Stack.Host, pkt)
		})
	}
	p.Net.Sched.After(time.Duration(maxTTL)*50*time.Millisecond+3*time.Second, func() {
		p.finishTrace(job)
	})
	return job
}

func (p *Prober) finishTrace(job *TraceJob) {
	if job.Done {
		return
	}
	job.Done = true
	for port, t := range p.traces {
		if t == job {
			delete(p.traces, port)
		}
	}
	if job.OnDone != nil {
		job.OnDone(job.Hops)
	}
}

// quotedUDPDstPort extracts the UDP destination port from an ICMP error's
// quoted original header (IP header 20 bytes + UDP header).
func quotedUDPDstPort(quoted []byte) (uint16, bool) {
	if len(quoted) < 24 || quoted[9] != uint8(packet.ProtoUDP) {
		return 0, false
	}
	return binary.BigEndian.Uint16(quoted[22:24]), true
}

func (p *Prober) onICMP(pk *packet.Packet) {
	switch pk.ICMP.Type {
	case packet.ICMPEchoReply:
		job, ok := p.pings[pk.ICMP.ID]
		if !ok {
			return
		}
		if at, ok := job.sent[pk.ICMP.Seq]; ok {
			delete(job.sent, pk.ICMP.Seq)
			job.Result.Received++
			job.Result.RTTs = append(job.Result.RTTs, p.Net.Sched.Now()-at)
			if job.Result.Received == job.want {
				p.finishPing(job)
			}
		}
	case packet.ICMPTimeExceeded, packet.ICMPDestUnreach:
		port, ok := quotedUDPDstPort(pk.Payload)
		if !ok {
			return
		}
		job, ok := p.traces[port]
		if !ok || job.Done {
			return
		}
		probe, ok := job.sent[port]
		if !ok {
			return
		}
		delete(job.sent, port)
		hop := Hop{
			TTL:     probe.ttl,
			Addr:    pk.IP.Src,
			RTT:     p.Net.Sched.Now() - probe.at,
			Reached: pk.ICMP.Type == packet.ICMPDestUnreach,
		}
		job.Hops = append(job.Hops, hop)
		if hop.Reached {
			p.finishTrace(job)
		}
	}
}

// VantageReport is one vantage point's view of a service address.
type VantageReport struct {
	VantageName string
	AvgRTT      time.Duration
	Hops        []Hop
}

// PenultimateHop returns the last router before the destination, or zero
// Addr when no hop reached it: a trace that dies short of the destination
// says nothing about where it is.
func (v VantageReport) PenultimateHop() packet.Addr {
	for i, h := range v.Hops {
		if h.Reached && i > 0 {
			return v.Hops[i-1].Addr
		}
	}
	return 0
}

// InferAnycast applies the paper's decision procedure to reports from
// geo-distributed vantages: the address is inferred to be anycast when all
// vantages see comparably low RTT (every vantage under the threshold —
// impossible for a single physical location across continents) or when the
// penultimate hops diverge. A vantage with no RTT sample (AvgRTT 0: the
// server answered no ping) never counts as low.
func InferAnycast(reports []VantageReport, lowRTT time.Duration) bool {
	if len(reports) < 2 {
		return false
	}
	allLow := true
	for _, r := range reports {
		if r.AvgRTT == 0 || r.AvgRTT > lowRTT {
			allLow = false
			break
		}
	}
	if allLow {
		return true
	}
	// Penultimate-hop divergence.
	first := reports[0].PenultimateHop()
	for _, r := range reports[1:] {
		if h := r.PenultimateHop(); h != 0 && first != 0 && h != first {
			return true
		}
	}
	return false
}
