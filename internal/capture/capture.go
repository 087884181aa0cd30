// Package capture is the lab's Wireshark: it records the packets crossing a
// host's access point (the paper taps the WiFi APs), groups them into flows,
// and produces the per-interval throughput series that Figures 2, 3, 6, 12
// and 13 are built from.
//
// A Sniffer keeps one fixed 32-byte record per packet, not its wire bytes
// (DESIGN §4.11): the virtual timestamp, the wire length, the direction, the
// flow key packet.PeekFlow reads from the header bytes at tap time, and the
// payload's length and first bytes. Records live in fixed-size chunks that
// are never copied, so ingest is one record write, and every query is a scan
// over records: filters see the flow key, and nothing is decoded. Full wire
// bytes go only to libpcap files, which AttachPcap streams from a tap of
// their own.
package capture

import (
	"sort"
	"time"

	"github.com/svrlab/svrlab/internal/netsim"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/stats"
)

// Record is one packet with its wire bytes: what WritePcap writes, what
// ReadPcap returns, and what Restore builds a sniffer from.
type Record struct {
	TS   time.Duration
	Dir  netsim.Dir
	Wire []byte
}

// HeadLen is how many leading payload bytes a record keeps. Table 2's
// classifiers read the most: classifyTCP looks at payload bytes 0–1 and
// classifyUDP at byte 0, and the record's payload length answers their
// length checks. Four bytes fill the record out to 32; a 16-byte head would
// make every record 48 bytes for bytes no query reads.
const HeadLen = 4

// rec is the stored record: 32 bytes, field for field what At reports.
type rec struct {
	ts           time.Duration
	wlen         uint32
	src, dst     packet.Addr
	sport, dport uint16
	proto        packet.Proto
	meta         uint8
	plen         uint16
	head         [HeadLen]byte
}

// rec.meta bits: direction and the tap-time classification outcome.
const (
	metaDown  uint8 = 1 << 0 // network -> host (absent: host -> network)
	metaValid uint8 = 1 << 1 // packet.PeekFlow accepted the wire bytes
)

// chunkLen records make one 32 KiB chunk, Go's largest small-object size
// class, so a chunk is allocated without rounding up.
const chunkLen = 1024

func (r *rec) dir() netsim.Dir {
	if r.meta&metaDown != 0 {
		return netsim.DirDown
	}
	return netsim.DirUp
}

func (r *rec) flow() packet.Flow {
	return packet.Flow{
		Proto: r.proto,
		Src:   packet.Endpoint{Addr: r.src, Port: r.sport},
		Dst:   packet.Endpoint{Addr: r.dst, Port: r.dport},
	}
}

// Sniffer captures traffic at one host's access point. It is not safe for
// concurrent use: a sniffer belongs to one sweep cell, like the lab it taps
// (the §4.6 cell-isolation contract).
type Sniffer struct {
	// n records are held: record i is chunks[i/chunkLen][i%chunkLen].
	// Chunks past the last record are kept from before a Clear.
	n      int
	chunks []*[chunkLen]rec
}

// NewSniffer returns an unattached sniffer (records are added by taps, or
// by tests via ingest).
func NewSniffer() *Sniffer { return &Sniffer{} }

// Restore builds a sniffer over standalone records — the pcap re-analysis
// path (ReadPcap output). Each record is classified exactly as a live tap
// would have classified it.
func Restore(records []Record) *Sniffer {
	s := NewSniffer()
	for i := range records {
		s.ingest(records[i].TS, records[i].Dir, records[i].Wire)
	}
	return s
}

// Attach taps a host and starts capturing immediately.
func Attach(h *netsim.Host) *Sniffer {
	s := NewSniffer()
	h.Tap(s.ingest)
	return s
}

// ingest appends one record. It is the TapFunc Attach registers, and it
// writes every field, because a Clear leaves old records in the chunks.
func (s *Sniffer) ingest(at time.Duration, dir netsim.Dir, wire []byte) {
	c := s.n / chunkLen
	if c == len(s.chunks) {
		s.chunks = append(s.chunks, new([chunkLen]rec))
	}
	r := &s.chunks[c][s.n%chunkLen]
	s.n++
	*r = rec{ts: at, wlen: uint32(len(wire))}
	if dir == netsim.DirDown {
		r.meta = metaDown
	}
	fl, ok := packet.PeekFlow(wire)
	if !ok {
		return
	}
	r.meta |= metaValid
	r.src, r.dst = fl.Src.Addr, fl.Dst.Addr
	r.sport, r.dport = fl.Src.Port, fl.Dst.Port
	r.proto = fl.Proto
	payload := wire[payloadOffset(fl.Proto):]
	r.plen = uint16(len(payload))
	copy(r.head[:], payload)
}

// payloadOffset is where packet.Decode starts the payload of a wire image
// PeekFlow accepted: after the IPv4 header and the transport header, if
// Decode knows the transport.
func payloadOffset(p packet.Proto) int {
	switch p {
	case packet.ProtoUDP:
		return packet.IPv4HeaderLen + packet.UDPHeaderLen
	case packet.ProtoTCP:
		return packet.IPv4HeaderLen + packet.TCPHeaderLen
	case packet.ProtoICMP:
		return packet.IPv4HeaderLen + packet.ICMPHeaderLen
	}
	return packet.IPv4HeaderLen
}

func (s *Sniffer) at(i int) *rec { return &s.chunks[i/chunkLen][i%chunkLen] }

// Len returns the number of captured records.
func (s *Sniffer) Len() int { return s.n }

// Summary is what a sniffer keeps of one captured packet.
type Summary struct {
	TS      time.Duration
	Dir     netsim.Dir
	WireLen int
	// Valid reports whether packet.PeekFlow accepted the wire bytes, i.e.
	// whether packet.Decode would. Flow, PayloadLen and Head are zero when
	// it did not.
	Valid bool
	Flow  packet.Flow
	// PayloadLen is the length of the payload packet.Decode returns, and
	// Head holds its first min(PayloadLen, HeadLen) bytes, zero-padded.
	PayloadLen int
	Head       [HeadLen]byte
}

// At returns record i.
func (s *Sniffer) At(i int) Summary {
	r := s.at(i)
	return Summary{
		TS:         r.ts,
		Dir:        r.dir(),
		WireLen:    int(r.wlen),
		Valid:      r.meta&metaValid != 0,
		Flow:       r.flow(),
		PayloadLen: int(r.plen),
		Head:       r.head,
	}
}

// Clear discards captured records. The chunks stay with the sniffer and are
// overwritten by the records captured next.
func (s *Sniffer) Clear() { s.n = 0 }

// Match selects packets for analysis. Either field may be zero-valued to
// match everything in that dimension.
type Match struct {
	// Dir restricts direction when DirSet is true.
	Dir    netsim.Dir
	DirSet bool
	// Filter, when non-nil, must accept the packet's flow key. Records
	// whose wire bytes packet.PeekFlow rejected never match a Filter.
	Filter func(packet.Flow) bool
}

// MatchUp matches host→network packets satisfying f (nil f = all).
func MatchUp(f func(packet.Flow) bool) Match {
	return Match{Dir: netsim.DirUp, DirSet: true, Filter: f}
}

// MatchDown matches network→host packets satisfying f (nil f = all).
func MatchDown(f func(packet.Flow) bool) Match {
	return Match{Dir: netsim.DirDown, DirSet: true, Filter: f}
}

// FilterRemote matches packets whose far end (destination when uplink,
// source when downlink) is one of the given addresses — how the paper
// separates per-server channels once it has identified server IPs.
func FilterRemote(addrs ...packet.Addr) func(packet.Flow) bool {
	set := make(map[packet.Addr]bool, len(addrs))
	for _, a := range addrs {
		set[a] = true
	}
	return func(f packet.Flow) bool {
		return set[f.Src.Addr] || set[f.Dst.Addr]
	}
}

// FilterProto matches one transport protocol.
func FilterProto(proto packet.Proto) func(packet.Flow) bool {
	return func(f packet.Flow) bool { return f.Proto == proto }
}

// FilterAnd combines filters conjunctively.
func FilterAnd(fs ...func(packet.Flow) bool) func(packet.Flow) bool {
	return func(f packet.Flow) bool {
		for _, fn := range fs {
			if fn != nil && !fn(f) {
				return false
			}
		}
		return true
	}
}

func (m Match) accepts(r *rec) bool {
	if m.DirSet && r.dir() != m.Dir {
		return false
	}
	return m.Filter == nil || r.meta&metaValid != 0 && m.Filter(r.flow())
}

// span binary-searches the [lo, hi) record index range whose timestamps
// fall in [from, to). Records are appended in nondecreasing timestamp
// order (the tap runs on the scheduler, whose clock is monotonic), so
// window queries never need to scan outside the span.
func (s *Sniffer) span(from, to time.Duration) (lo, hi int) {
	lo = sort.Search(s.n, func(i int) bool { return s.at(i).ts >= from })
	hi = sort.Search(s.n, func(i int) bool { return s.at(i).ts >= to })
	return lo, hi
}

// Bytes sums wire bytes of matching records in [from, to).
func (s *Sniffer) Bytes(m Match, from, to time.Duration) int {
	lo, hi := s.span(from, to)
	total := 0
	for i := lo; i < hi; i++ {
		if r := s.at(i); m.accepts(r) {
			total += int(r.wlen)
		}
	}
	return total
}

// Packets counts matching records in [from, to).
func (s *Sniffer) Packets(m Match, from, to time.Duration) int {
	lo, hi := s.span(from, to)
	n := 0
	for i := lo; i < hi; i++ {
		if m.accepts(s.at(i)) {
			n++
		}
	}
	return n
}

// Series buckets matching traffic into a bits-per-second time series over
// [from, to) with the given bucket width.
func (s *Sniffer) Series(m Match, from, to, bucket time.Duration) stats.TimeSeries {
	if bucket <= 0 || to <= from {
		return stats.TimeSeries{}
	}
	n := int((to - from + bucket - 1) / bucket)
	vals := make([]float64, n)
	lo, hi := s.span(from, to)
	for i := lo; i < hi; i++ {
		r := s.at(i)
		if !m.accepts(r) {
			continue
		}
		idx := int((r.ts - from) / bucket)
		if idx >= 0 && idx < n {
			vals[idx] += float64(r.wlen * 8)
		}
	}
	scale := bucket.Seconds()
	for i := range vals {
		vals[i] /= scale
	}
	return stats.TimeSeries{Start: from, Step: bucket, Values: vals}
}

// MeanBps averages matching throughput over [from, to) in bits/second.
func (s *Sniffer) MeanBps(m Match, from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	return float64(s.Bytes(m, from, to)*8) / (to - from).Seconds()
}

// FlowStat accumulates per-flow counters.
type FlowStat struct {
	Flow           packet.Flow
	Packets        int
	Bytes          int
	First, Last    time.Duration
	UpPkts, DnPkts int
}

// Flows groups matching records by symmetric flow hash, merging the two
// directions of each conversation (gopacket's symmetric FastHash pattern).
// Records whose wire bytes packet.PeekFlow rejected have no flow and are
// skipped.
func (s *Sniffer) Flows(m Match) []*FlowStat {
	byHash := make(map[uint64]*FlowStat)
	var order []uint64
	for i := 0; i < s.n; i++ {
		r := s.at(i)
		if r.meta&metaValid == 0 || !m.accepts(r) {
			continue
		}
		fl := r.flow()
		h := fl.FastHash()
		st, ok := byHash[h]
		if !ok {
			st = &FlowStat{Flow: fl, First: r.ts}
			byHash[h] = st
			order = append(order, h)
		}
		st.Packets++
		st.Bytes += int(r.wlen)
		st.Last = r.ts
		if r.meta&metaDown == 0 {
			st.UpPkts++
		} else {
			st.DnPkts++
		}
	}
	out := make([]*FlowStat, 0, len(order))
	for _, h := range order {
		out = append(out, byHash[h])
	}
	return out
}
