package capture

import (
	"testing"
	"time"

	"github.com/svrlab/svrlab/internal/geo"
	"github.com/svrlab/svrlab/internal/netsim"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/simtime"
)

type rig struct {
	s     *simtime.Scheduler
	net   *netsim.Network
	a, b  *netsim.Host
	sniff *Sniffer
}

func newRig(t *testing.T) *rig {
	t.Helper()
	s := simtime.NewScheduler()
	n := netsim.New(s, 5, nil)
	site := n.AddSite("east", geo.Fairfax, packet.MustParseAddr("10.0.0.1"))
	a := n.AddHost("a", site, packet.MustParseAddr("10.0.0.2"), netsim.WiFiAccess())
	b := n.AddHost("b", site, packet.MustParseAddr("10.0.0.3"), netsim.DatacenterAccess())
	b.Handler = func(p *packet.Packet) {}
	a.Handler = func(p *packet.Packet) {}
	return &rig{s: s, net: n, a: a, b: b, sniff: Attach(a)}
}

func (r *rig) sendUDP(at time.Duration, payload int) {
	r.s.At(at, func() {
		r.net.Send(r.a, &packet.Packet{
			IP:      packet.IPv4{Protocol: packet.ProtoUDP, Dst: r.b.Addr},
			UDP:     &packet.UDP{SrcPort: 1000, DstPort: 2000},
			Payload: make([]byte, payload),
		})
	})
}

func (r *rig) sendTCPDown(at time.Duration, payload int) {
	r.s.At(at, func() {
		r.net.Send(r.b, &packet.Packet{
			IP:      packet.IPv4{Protocol: packet.ProtoTCP, Dst: r.a.Addr},
			TCP:     &packet.TCP{SrcPort: 443, DstPort: 3000, Flags: packet.FlagACK},
			Payload: make([]byte, payload),
		})
	})
}

func TestCaptureRecordsBothDirections(t *testing.T) {
	r := newRig(t)
	r.sendUDP(time.Second, 100)
	r.sendTCPDown(2*time.Second, 200)
	r.s.Run()
	if r.sniff.Len() != 2 {
		t.Fatalf("records = %d, want 2", r.sniff.Len())
	}
	up, down := r.sniff.At(0), r.sniff.At(1)
	if up.Dir != netsim.DirUp || down.Dir != netsim.DirDown {
		t.Fatal("directions wrong")
	}
	if !up.Valid || up.Flow.Proto != packet.ProtoUDP || up.Flow.Src != (packet.Endpoint{Addr: r.a.Addr, Port: 1000}) ||
		up.WireLen != 128 || up.PayloadLen != 100 {
		t.Fatalf("uplink record = %+v", up)
	}
	if !down.Valid || down.Flow.Proto != packet.ProtoTCP || down.Flow.Dst != (packet.Endpoint{Addr: r.a.Addr, Port: 3000}) ||
		down.WireLen != 240 || down.PayloadLen != 200 {
		t.Fatalf("downlink record = %+v", down)
	}
}

func TestClear(t *testing.T) {
	r := newRig(t)
	r.sendUDP(time.Second, 10)
	r.sendUDP(100*time.Second, 10)
	r.s.Run()
	if r.sniff.Len() != 2 {
		t.Fatalf("records = %d, want 2", r.sniff.Len())
	}
	r.sniff.Clear()
	if r.sniff.Len() != 0 {
		t.Fatal("Clear left records")
	}
}

func TestBytesAndPacketsWithMatch(t *testing.T) {
	r := newRig(t)
	r.sendUDP(time.Second, 72)       // wire = 100 bytes
	r.sendUDP(2*time.Second, 172)    // wire = 200 bytes
	r.sendTCPDown(3*time.Second, 60) // wire = 100 bytes down
	r.s.Run()

	up := MatchUp(nil)
	down := MatchDown(nil)
	if got := r.sniff.Bytes(up, 0, time.Hour); got != 300 {
		t.Fatalf("up bytes = %d, want 300", got)
	}
	if got := r.sniff.Bytes(down, 0, time.Hour); got != 100 {
		t.Fatalf("down bytes = %d, want 100", got)
	}
	if got := r.sniff.Packets(Match{}, 0, time.Hour); got != 3 {
		t.Fatalf("all packets = %d", got)
	}
	// Protocol filter.
	tcpOnly := Match{Filter: FilterProto(packet.ProtoTCP)}
	if got := r.sniff.Packets(tcpOnly, 0, time.Hour); got != 1 {
		t.Fatalf("tcp packets = %d", got)
	}
	// Time-window restriction.
	if got := r.sniff.Bytes(up, 0, 1500*time.Millisecond); got != 100 {
		t.Fatalf("windowed bytes = %d, want 100", got)
	}
}

func TestSeriesBucketsThroughput(t *testing.T) {
	r := newRig(t)
	// 10 packets of 100 wire bytes in second 0, none in second 1, 5 in second 2.
	for i := 0; i < 10; i++ {
		r.sendUDP(time.Duration(i)*50*time.Millisecond, 72)
	}
	for i := 0; i < 5; i++ {
		r.sendUDP(2*time.Second+time.Duration(i)*50*time.Millisecond, 72)
	}
	r.s.Run()
	ts := r.sniff.Series(MatchUp(nil), 0, 3*time.Second, time.Second)
	if len(ts.Values) != 3 {
		t.Fatalf("buckets = %d", len(ts.Values))
	}
	if ts.Values[0] != 8000 { // 10 * 100 B * 8 bits / 1 s
		t.Fatalf("bucket0 = %v, want 8000 bps", ts.Values[0])
	}
	if ts.Values[1] != 0 {
		t.Fatalf("bucket1 = %v, want 0", ts.Values[1])
	}
	if ts.Values[2] != 4000 {
		t.Fatalf("bucket2 = %v, want 4000", ts.Values[2])
	}
	if got := r.sniff.MeanBps(MatchUp(nil), 0, 3*time.Second); got != 4000 {
		t.Fatalf("MeanBps = %v, want 4000", got)
	}
}

func TestSeriesDegenerateInputs(t *testing.T) {
	r := newRig(t)
	if ts := r.sniff.Series(Match{}, 0, time.Second, 0); len(ts.Values) != 0 {
		t.Fatal("zero bucket should be empty")
	}
	if ts := r.sniff.Series(Match{}, time.Second, time.Second, time.Second); len(ts.Values) != 0 {
		t.Fatal("empty window should be empty")
	}
}

func TestFlowsMergeDirections(t *testing.T) {
	r := newRig(t)
	// Uplink UDP 1000->2000 and its reverse direction downlink.
	r.sendUDP(time.Second, 10)
	r.s.At(2*time.Second, func() {
		r.net.Send(r.b, &packet.Packet{
			IP:      packet.IPv4{Protocol: packet.ProtoUDP, Dst: r.a.Addr},
			UDP:     &packet.UDP{SrcPort: 2000, DstPort: 1000},
			Payload: make([]byte, 20),
		})
	})
	r.sendTCPDown(3*time.Second, 30)
	r.s.Run()
	flows := r.sniff.Flows(Match{})
	if len(flows) != 2 {
		t.Fatalf("flows = %d, want 2 (UDP conversation merged)", len(flows))
	}
	udpFlow := flows[0]
	if udpFlow.Packets != 2 || udpFlow.UpPkts != 1 || udpFlow.DnPkts != 1 {
		t.Fatalf("udp flow = %+v", udpFlow)
	}
	if udpFlow.First >= udpFlow.Last {
		t.Fatal("flow timestamps not ordered")
	}
}

func TestFilterRemoteAndAnd(t *testing.T) {
	r := newRig(t)
	r.sendUDP(time.Second, 10)
	r.sendTCPDown(2*time.Second, 10)
	r.s.Run()
	m := Match{Filter: FilterAnd(FilterRemote(r.b.Addr), FilterProto(packet.ProtoUDP))}
	if got := r.sniff.Packets(m, 0, time.Hour); got != 1 {
		t.Fatalf("combined filter matched %d", got)
	}
	none := Match{Filter: FilterRemote(packet.MustParseAddr("9.9.9.9"))}
	if got := r.sniff.Packets(none, 0, time.Hour); got != 0 {
		t.Fatalf("bogus remote matched %d", got)
	}
}

// mkWire marshals a minimal valid UDP packet with the given payload size.
func mkWire(payload int) []byte {
	return (&packet.Packet{
		IP:      packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: packet.MustParseAddr("10.0.0.2"), Dst: packet.MustParseAddr("10.0.0.3")},
		UDP:     &packet.UDP{SrcPort: 1000, DstPort: 2000},
		Payload: make([]byte, payload),
	}).Marshal()
}

// TestUndecodableRecordCountsOnlyUnfiltered: a record whose wire bytes
// packet.PeekFlow rejects is kept as non-valid with a zero flow key. It
// counts toward filter-less totals, but no Filter, not even one accepting
// every flow, matches it, and Flows skips it.
func TestUndecodableRecordCountsOnlyUnfiltered(t *testing.T) {
	s := NewSniffer()
	s.ingest(0, netsim.DirUp, []byte{0x45, 0xad, 0xbe})
	s.ingest(time.Millisecond, netsim.DirUp, mkWire(10))
	if bad := s.At(0); bad.Valid || bad.Flow != (packet.Flow{}) || bad.PayloadLen != 0 || bad.Head != [HeadLen]byte{} || bad.WireLen != 3 {
		t.Fatalf("undecodable record = %+v", bad)
	}
	if good := s.At(1); !good.Valid || good.PayloadLen != 10 {
		t.Fatalf("valid record = %+v", good)
	}
	good := len(mkWire(10))
	for _, m := range []Match{{}, MatchUp(nil)} {
		if got := s.Bytes(m, 0, time.Hour); got != 3+good {
			t.Errorf("filter-less Bytes = %d, want %d", got, 3+good)
		}
		if got := s.Packets(m, 0, time.Hour); got != 2 {
			t.Errorf("filter-less Packets = %d, want 2", got)
		}
	}
	all := func(packet.Flow) bool { return true }
	for _, m := range []Match{{Filter: all}, MatchUp(all)} {
		if got := s.Bytes(m, 0, time.Hour); got != good {
			t.Errorf("filtered Bytes = %d, want %d", got, good)
		}
	}
	// The zero flow key would pass a filter for protocol 0.
	if got := s.Packets(Match{Filter: FilterProto(0)}, 0, time.Hour); got != 0 {
		t.Errorf("protocol-0 filter matched %d records, want 0", got)
	}
	if flows := s.Flows(Match{}); len(flows) != 1 || flows[0].Packets != 1 {
		t.Errorf("Flows = %+v, want only the valid record", flows)
	}
}

// TestClearKeepsChunksAndOverwritesRecords: Clear empties the sniffer but
// keeps its chunks, and every record captured afterwards is written whole,
// so nothing of a cleared record shows through.
func TestClearKeepsChunksAndOverwritesRecords(t *testing.T) {
	r := newRig(t)
	r.sendUDP(time.Second, 100)
	r.sendTCPDown(2*time.Second, 50)
	r.s.Run()
	if r.sniff.Len() != 2 {
		t.Fatalf("records = %d", r.sniff.Len())
	}
	chunk := r.sniff.chunks[0]
	r.sniff.Clear()
	if r.sniff.Len() != 0 || r.sniff.Bytes(Match{}, 0, time.Hour) != 0 || len(r.sniff.Flows(Match{})) != 0 {
		t.Fatal("Clear left records")
	}
	// Garbage lands on the slot that held the uplink UDP record.
	r.sniff.ingest(3*time.Second, netsim.DirDown, []byte{0xde, 0xad})
	if len(r.sniff.chunks) != 1 || r.sniff.chunks[0] != chunk {
		t.Fatal("Clear did not keep the sniffer's chunk")
	}
	want := Summary{TS: 3 * time.Second, Dir: netsim.DirDown, WireLen: 2}
	if got := r.sniff.At(0); got != want {
		t.Fatalf("record over a cleared one = %+v, want %+v", got, want)
	}
	// The sniffer keeps capturing from its tap after Clear.
	r.sendUDP(4*time.Second, 25)
	r.s.Run()
	if post := r.sniff.At(1); r.sniff.Len() != 2 || !post.Valid || post.PayloadLen != 25 || post.Dir != netsim.DirUp {
		t.Fatalf("post-Clear records = %d, last %+v", r.sniff.Len(), post)
	}
}

// TestWindowQueriesMatchFullScanOracle checks the binary-searched window
// queries against a full-scan oracle across bucket boundaries, duplicate
// timestamps, and out-of-range windows.
func TestWindowQueriesMatchFullScanOracle(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	s := NewSniffer()
	// Nondecreasing timestamps with duplicates sitting exactly on window
	// and bucket edges.
	for _, spec := range []struct {
		ts  time.Duration
		dir netsim.Dir
		pay int
	}{
		{ms(0), netsim.DirUp, 10},
		{ms(10), netsim.DirUp, 20},
		{ms(10), netsim.DirDown, 30},
		{ms(20), netsim.DirUp, 40},
		{ms(25), netsim.DirDown, 50},
		{ms(30), netsim.DirUp, 60},
		{ms(30), netsim.DirUp, 70},
		{ms(100), netsim.DirDown, 80},
	} {
		s.ingest(spec.ts, spec.dir, mkWire(spec.pay))
	}

	accepts := func(r Summary, m Match) bool {
		return (!m.DirSet || r.Dir == m.Dir) && (m.Filter == nil || r.Valid && m.Filter(r.Flow))
	}
	oracleBytes := func(m Match, from, to time.Duration) int {
		total := 0
		for i := 0; i < s.Len(); i++ {
			r := s.At(i)
			if r.TS >= from && r.TS < to && accepts(r, m) {
				total += r.WireLen
			}
		}
		return total
	}
	oraclePackets := func(m Match, from, to time.Duration) int {
		n := 0
		for i := 0; i < s.Len(); i++ {
			r := s.At(i)
			if r.TS >= from && r.TS < to && accepts(r, m) {
				n++
			}
		}
		return n
	}

	windows := [][2]time.Duration{
		{0, 0},             // empty
		{0, ms(10)},        // to lands on a duplicate timestamp
		{ms(10), ms(30)},   // both edges on record timestamps
		{ms(25), ms(25)},   // empty, from on a record
		{ms(30), ms(31)},   // duplicate pair exactly at from
		{ms(99), ms(100)},  // excludes the ts==100ms record
		{0, ms(200)},       // everything
		{ms(150), ms(200)}, // past the capture
	}
	matches := []Match{{}, MatchUp(nil), MatchDown(nil), {Filter: FilterProto(packet.ProtoUDP)}}
	for _, w := range windows {
		for mi, m := range matches {
			if got, want := s.Bytes(m, w[0], w[1]), oracleBytes(m, w[0], w[1]); got != want {
				t.Errorf("Bytes match %d window %v: got %d, oracle %d", mi, w, got, want)
			}
			if got, want := s.Packets(m, w[0], w[1]), oraclePackets(m, w[0], w[1]); got != want {
				t.Errorf("Packets match %d window %v: got %d, oracle %d", mi, w, got, want)
			}
		}
	}

	// Series: every bucket must equal a per-bucket oracle Bytes sum.
	from, to, bucket := ms(0), ms(40), ms(10)
	ts := s.Series(MatchUp(nil), from, to, bucket)
	if len(ts.Values) != 4 {
		t.Fatalf("buckets = %d", len(ts.Values))
	}
	for i, v := range ts.Values {
		b0 := from + time.Duration(i)*bucket
		want := float64(oracleBytes(MatchUp(nil), b0, b0+bucket)*8) / bucket.Seconds()
		if v != want {
			t.Errorf("Series bucket %d: got %v, oracle %v", i, v, want)
		}
	}
}
