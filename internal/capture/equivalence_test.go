package capture

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/svrlab/svrlab/internal/netsim"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/stats"
)

// This file pins the record store to a reference that keeps every wire
// byte: each analysis method must return what a naive scan returns when it
// fully decodes each record with packet.Decode and hands filters
// packet.FlowOf of the result. The corpus is adversarial — mixed protocols,
// undecodable garbage, truncated and corrupted wire images, duplicate
// timestamps — because the store classifies each packet once, at tap
// time, exactly where such inputs could make it diverge.

// eqCorpus builds a deterministic adversarial record stream. Timestamps are
// nondecreasing with runs of duplicates, matching the tap contract.
func eqCorpus(seed int64, n int) []Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Record, 0, n)
	ts := time.Duration(0)
	for i := 0; i < n; i++ {
		if rng.Intn(3) > 0 { // duplicates are common on purpose
			ts += time.Duration(rng.Intn(40)) * time.Millisecond
		}
		dir := netsim.DirUp
		if rng.Intn(2) == 1 {
			dir = netsim.DirDown
		}
		var wire []byte
		switch rng.Intn(8) {
		case 0: // garbage bytes
			wire = make([]byte, rng.Intn(64))
			rng.Read(wire)
		case 1: // valid packet with one byte corrupted
			wire = eqPacket(rng).Marshal()
			wire[rng.Intn(len(wire))] ^= 1 << uint(rng.Intn(8))
		case 2: // truncated valid packet
			w := eqPacket(rng).Marshal()
			wire = w[:rng.Intn(len(w))]
		default: // well-formed
			wire = eqPacket(rng).Marshal()
		}
		recs = append(recs, Record{TS: ts, Dir: dir, Wire: wire})
	}
	return recs
}

func eqPacket(rng *rand.Rand) *packet.Packet {
	p := &packet.Packet{
		IP: packet.IPv4{
			TTL: uint8(1 + rng.Intn(255)),
			Src: packet.Addr(0x0a000002 + uint32(rng.Intn(3))),
			Dst: packet.Addr(0x0a020002 + uint32(rng.Intn(3))),
			ID:  uint16(rng.Intn(1 << 16)),
		},
		Payload: make([]byte, rng.Intn(200)),
	}
	rng.Read(p.Payload)
	switch rng.Intn(3) {
	case 0:
		p.IP.Protocol = packet.ProtoUDP
		p.UDP = &packet.UDP{SrcPort: uint16(1000 + rng.Intn(4)), DstPort: uint16(2000 + rng.Intn(4))}
	case 1:
		p.IP.Protocol = packet.ProtoTCP
		p.TCP = &packet.TCP{
			SrcPort: uint16(1000 + rng.Intn(4)), DstPort: 443,
			Seq: rng.Uint32(), Ack: rng.Uint32(), Flags: packet.FlagACK, Window: 65535,
		}
	default:
		p.IP.Protocol = packet.ProtoICMP
		p.ICMP = &packet.ICMP{Type: packet.ICMPEchoRequest, ID: uint16(rng.Intn(100)), Seq: uint16(i32(rng))}
		p.Payload = p.Payload[:0]
	}
	return p
}

func i32(rng *rand.Rand) int { return rng.Intn(1 << 15) }

// refDecode is the reference decode: nil when packet.Decode rejects the
// record's wire bytes.
func refDecode(r *Record) *packet.Packet {
	p, err := packet.Decode(r.Wire)
	if err != nil {
		return nil
	}
	return p
}

// refAccepts is the reference match predicate: a full decode, and the
// filter applied to the decoded packet's flow.
func refAccepts(r *Record, m Match) bool {
	if m.DirSet && r.Dir != m.Dir {
		return false
	}
	if m.Filter != nil {
		p := refDecode(r)
		if p == nil || !m.Filter(packet.FlowOf(p)) {
			return false
		}
	}
	return true
}

func refBytes(recs []Record, m Match, from, to time.Duration) int {
	total := 0
	for i := range recs {
		if recs[i].TS >= from && recs[i].TS < to && refAccepts(&recs[i], m) {
			total += len(recs[i].Wire)
		}
	}
	return total
}

func refPackets(recs []Record, m Match, from, to time.Duration) int {
	n := 0
	for i := range recs {
		if recs[i].TS >= from && recs[i].TS < to && refAccepts(&recs[i], m) {
			n++
		}
	}
	return n
}

func refSeries(recs []Record, m Match, from, to, bucket time.Duration) stats.TimeSeries {
	if bucket <= 0 || to <= from {
		return stats.TimeSeries{}
	}
	n := int((to - from + bucket - 1) / bucket)
	vals := make([]float64, n)
	for i := range recs {
		if recs[i].TS < from || recs[i].TS >= to || !refAccepts(&recs[i], m) {
			continue
		}
		idx := int((recs[i].TS - from) / bucket)
		if idx >= 0 && idx < n {
			vals[idx] += float64(len(recs[i].Wire) * 8)
		}
	}
	scale := bucket.Seconds()
	for i := range vals {
		vals[i] /= scale
	}
	return stats.TimeSeries{Start: from, Step: bucket, Values: vals}
}

func refFlows(recs []Record, m Match) []*FlowStat {
	byHash := make(map[uint64]*FlowStat)
	var order []uint64
	for i := range recs {
		p := refDecode(&recs[i])
		if p == nil || !refAccepts(&recs[i], m) {
			continue
		}
		fl := packet.FlowOf(p)
		h := fl.FastHash()
		st, ok := byHash[h]
		if !ok {
			st = &FlowStat{Flow: fl, First: recs[i].TS}
			byHash[h] = st
			order = append(order, h)
		}
		st.Packets++
		st.Bytes += len(recs[i].Wire)
		st.Last = recs[i].TS
		if recs[i].Dir == netsim.DirUp {
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

// refSummary is the record At must report, read off the full decode.
func refSummary(r *Record) Summary {
	want := Summary{TS: r.TS, Dir: r.Dir, WireLen: len(r.Wire)}
	if p := refDecode(r); p != nil {
		want.Valid = true
		want.Flow = packet.FlowOf(p)
		want.PayloadLen = len(p.Payload)
		copy(want.Head[:], p.Payload)
	}
	return want
}

func eqMatches() []struct {
	name string
	m    Match
} {
	remote := packet.Addr(0x0a020002)
	return []struct {
		name string
		m    Match
	}{
		{"all", Match{}},
		{"up", MatchUp(nil)},
		{"down", MatchDown(nil)},
		{"udp", Match{Filter: FilterProto(packet.ProtoUDP)}},
		{"up-tcp", MatchUp(FilterProto(packet.ProtoTCP))},
		{"remote", Match{Filter: FilterRemote(remote)}},
		{"down-and", MatchDown(FilterAnd(FilterProto(packet.ProtoICMP), FilterRemote(remote)))},
	}
}

// checkEquivalence builds an indexed sniffer over the corpus and compares
// every analysis method against the reference on every match and window.
func checkEquivalence(t *testing.T, recs []Record) {
	s := Restore(recs)
	if s.Len() != len(recs) {
		t.Errorf("Len = %d, want %d", s.Len(), len(recs))
		return
	}
	for i := range recs {
		if got, want := s.At(i), refSummary(&recs[i]); got != want {
			t.Errorf("At(%d) = %+v, want %+v", i, got, want)
		}
	}
	var maxTS time.Duration
	for i := range recs {
		if recs[i].TS > maxTS {
			maxTS = recs[i].TS
		}
	}
	windows := []struct{ from, to time.Duration }{
		{0, maxTS + time.Second},
		{0, 0},                     // empty
		{maxTS / 4, 3 * maxTS / 4}, // interior, boundaries land on duplicates
		{maxTS / 2, maxTS / 2},     // degenerate
		{maxTS, maxTS + time.Hour}, // tail
	}
	for _, mc := range eqMatches() {
		for _, w := range windows {
			if got, want := s.Bytes(mc.m, w.from, w.to), refBytes(recs, mc.m, w.from, w.to); got != want {
				t.Errorf("%s Bytes[%v,%v) = %d, want %d", mc.name, w.from, w.to, got, want)
			}
			if got, want := s.Packets(mc.m, w.from, w.to), refPackets(recs, mc.m, w.from, w.to); got != want {
				t.Errorf("%s Packets[%v,%v) = %d, want %d", mc.name, w.from, w.to, got, want)
			}
			if got, want := s.MeanBps(mc.m, w.from, w.to), float64(refBytes(recs, mc.m, w.from, w.to)*8)/(w.to-w.from).Seconds(); w.to > w.from && got != want {
				t.Errorf("%s MeanBps[%v,%v) = %v, want %v", mc.name, w.from, w.to, got, want)
			}
			gotS := s.Series(mc.m, w.from, w.to, 100*time.Millisecond)
			wantS := refSeries(recs, mc.m, w.from, w.to, 100*time.Millisecond)
			if len(gotS.Values) != len(wantS.Values) {
				t.Errorf("%s Series[%v,%v) length %d, want %d", mc.name, w.from, w.to, len(gotS.Values), len(wantS.Values))
				continue
			}
			for i := range gotS.Values {
				if gotS.Values[i] != wantS.Values[i] {
					t.Errorf("%s Series[%v,%v) bucket %d = %v, want %v", mc.name, w.from, w.to, i, gotS.Values[i], wantS.Values[i])
				}
			}
		}
		gotF, wantF := s.Flows(mc.m), refFlows(recs, mc.m)
		if len(gotF) != len(wantF) {
			t.Errorf("%s Flows count = %d, want %d", mc.name, len(gotF), len(wantF))
			continue
		}
		for i := range gotF {
			if *gotF[i] != *wantF[i] {
				t.Errorf("%s Flows[%d] = %+v, want %+v", mc.name, i, *gotF[i], *wantF[i])
			}
		}
	}
}

// TestIndexedAnalysisMatchesReference: the tentpole equivalence contract,
// single-goroutine, over several corpus seeds.
func TestIndexedAnalysisMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkEquivalence(t, eqCorpus(seed, 400))
		})
	}
}

// TestIndexedAnalysisParallelSniffers: per-goroutine sniffers over distinct
// corpora, concurrently. Sniffers are single-owner and share nothing —
// under -race (make check) this verifies that building, querying and
// clearing one never touches another's state.
func TestIndexedAnalysisParallelSniffers(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					recs := eqCorpus(seed, 200)
					checkEquivalence(t, recs)
					// Rebuild and clear a few times.
					for k := 0; k < 3; k++ {
						s := Restore(recs)
						_ = s.Bytes(Match{}, 0, time.Hour)
						s.Clear()
					}
				}(int64(100 + w))
			}
			wg.Wait()
		})
	}
}

// TestPayloadHeadMatchesDecode: for valid records of every transport the
// decoder knows, and one it does not, at each payload size from 0 to 5 —
// both sides of HeadLen — At reports the payload length and first bytes
// packet.Decode returns.
func TestPayloadHeadMatchesDecode(t *testing.T) {
	for _, proto := range []packet.Proto{packet.ProtoUDP, packet.ProtoTCP, packet.ProtoICMP, 47} {
		for n := 0; n <= 5; n++ {
			p := &packet.Packet{
				IP:      packet.IPv4{TTL: 64, Protocol: proto, Src: 0x0a000002, Dst: 0x0a020002},
				Payload: make([]byte, n),
			}
			for i := range p.Payload {
				p.Payload[i] = byte(0xa0 + i)
			}
			switch proto {
			case packet.ProtoUDP:
				p.UDP = &packet.UDP{SrcPort: 5004, DstPort: 9000}
			case packet.ProtoTCP:
				p.TCP = &packet.TCP{SrcPort: 443, DstPort: 5000}
			case packet.ProtoICMP:
				p.ICMP = &packet.ICMP{Type: packet.ICMPEchoReply}
			}
			rec := Record{TS: time.Second, Dir: netsim.DirDown, Wire: p.Marshal()}
			dec, err := packet.Decode(rec.Wire)
			if err != nil {
				t.Fatalf("%v/%d: %v", proto, n, err)
			}
			got := Restore([]Record{rec}).At(0)
			if !got.Valid || got.PayloadLen != len(dec.Payload) || got.PayloadLen != n {
				t.Errorf("%v/%d: At = %+v, Decode payload %d bytes", proto, n, got, len(dec.Payload))
			}
			var want [HeadLen]byte
			copy(want[:], dec.Payload)
			if got.Head != want {
				t.Errorf("%v/%d: Head = % x, want % x", proto, n, got.Head, want)
			}
		}
	}
}
