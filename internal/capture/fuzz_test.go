package capture_test

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"github.com/svrlab/svrlab/internal/capture"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/wiretest"
)

// checkPcapReader enforces the pcap hardening contract: arbitrary bytes
// never panic the reader or make it allocate beyond its input, and any
// file that reads successfully round-trips through the writer — write ∘
// read is the identity on records (pcap byte-identity is asserted on the
// write image, not arbitrary input, because the reader deliberately
// tolerates foreign values in the don't-care global-header fields).
func checkPcapReader(t *testing.T, data []byte) {
	records, err := capture.ReadPcap(bytes.NewReader(data))
	if err != nil {
		return
	}
	var buf bytes.Buffer
	if err := capture.WritePcap(&buf, records); err != nil {
		t.Fatalf("re-write of %d read records failed: %v", len(records), err)
	}
	again, err := capture.ReadPcap(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-read failed: %v", err)
	}
	if len(again) != len(records) {
		t.Fatalf("re-read %d records, wrote %d", len(again), len(records))
	}
	for i := range records {
		if records[i].TS != again[i].TS || !bytes.Equal(records[i].Wire, again[i].Wire) {
			t.Fatalf("record %d changed across write/read", i)
		}
	}
}

// pcapReaderSeeds are files from the real writer, one of them holding a
// UDP and a TCP frame, plus truncated and damaged copies.
func pcapReaderSeeds() []wiretest.Seed {
	pcap := func(records ...capture.Record) []byte {
		var buf bytes.Buffer
		if err := capture.WritePcap(&buf, records); err != nil {
			panic(err)
		}
		return buf.Bytes()
	}
	src := packet.MustParseAddr("10.0.0.1")
	udp := (&packet.Packet{
		IP:      packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: src, Dst: packet.MustParseAddr("10.0.0.2"), ID: 7},
		UDP:     &packet.UDP{SrcPort: 40000, DstPort: 7777},
		Payload: []byte{1, 4, 'r', 'o', 'o', 'm', 2, 'u', '1'},
	}).Marshal()
	tcp := (&packet.Packet{
		IP:      packet.IPv4{TTL: 32, Protocol: packet.ProtoTCP, Src: src, Dst: packet.MustParseAddr("172.16.0.9"), ID: 8},
		TCP:     &packet.TCP{SrcPort: 44000, DstPort: 443, Seq: 1000, Ack: 2000, Flags: packet.FlagACK | packet.FlagPSH, Window: 65535},
		Payload: bytes.Repeat([]byte{0xab}, 32),
	}).Marshal()
	two := pcap(capture.Record{TS: 250 * time.Millisecond, Wire: udp}, capture.Record{TS: 251 * time.Millisecond, Wire: tcp})
	return []wiretest.Seed{
		{Name: "one-record", Data: pcap(capture.Record{TS: time.Second, Wire: []byte{1, 2, 3}})},
		{Name: "udp-and-tcp", Data: two},
		{Name: "no-records", Data: pcap()},
		{Name: "truncated-global-header", Data: two[:20], Reject: true},
		{Name: "truncated-record-header", Data: two[:30], Reject: true},
		{Name: "bad-magic", Data: wiretest.Flip(two, 0, 1), Reject: true},
		{Name: "bad-version", Data: wiretest.Flip(two, 4, 1), Reject: true},
		{Name: "usec-still-sub-second", Data: wiretest.Flip(two, 28, 1)}, // 250000 µs becomes 250001
		{Name: "caplen-not-origlen", Data: wiretest.Flip(two, 32, 1), Reject: true},
		{Name: "usec-past-a-second", Data: wiretest.Flip(two, 31, 0x80), Reject: true},
	}
}

func FuzzPcapReader(f *testing.F) {
	wiretest.AddSeeds(f, pcapReaderSeeds())
	f.Fuzz(checkPcapReader)
}

func TestPcapReaderSeeds(t *testing.T) {
	wiretest.CheckVerdicts(t, pcapReaderSeeds(), func(data []byte) error {
		_, err := capture.ReadPcap(bytes.NewReader(data))
		return err
	})
}

// TestWritePcapRejectsUnrepresentableRecords pins the writer-side guard: a
// record the pcap format cannot carry (negative or >32-bit-seconds
// timestamp, wire beyond the snap length) errors instead of writing
// silently wrapped fields that would not survive the round trip.
func TestWritePcapRejectsUnrepresentableRecords(t *testing.T) {
	cases := map[string]capture.Record{
		"negative-ts":  {TS: -time.Microsecond, Wire: []byte{1}},
		"ts-overflow":  {TS: (1 << 32) * time.Second, Wire: []byte{1}},
		"oversize-rec": {TS: time.Second, Wire: make([]byte, 262144+1)},
	}
	for name, rec := range cases {
		t.Run(name, func(t *testing.T) {
			if err := capture.WritePcap(&bytes.Buffer{}, []capture.Record{rec}); err == nil {
				t.Fatal("unrepresentable record written without error")
			}
		})
	}
}

// TestPcapRoundTripIdentity pins byte-identity of read ∘ write on the
// write image (the direction lab tooling depends on when archiving and
// re-analyzing captures).
func TestPcapRoundTripIdentity(t *testing.T) {
	in := []capture.Record{
		{TS: 0, Wire: []byte{}},
		{TS: 250 * time.Millisecond, Wire: []byte{1, 2, 3}},
		{TS: 0xffffffff * time.Second, Wire: bytes.Repeat([]byte{9}, 1500)},
	}
	var buf bytes.Buffer
	if err := capture.WritePcap(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := capture.ReadPcap(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("read %d records, wrote %d", len(out), len(in))
	}
	for i := range in {
		if in[i].TS != out[i].TS || !bytes.Equal(in[i].Wire, out[i].Wire) {
			t.Fatalf("record %d: %v/% x != %v/% x", i, in[i].TS, in[i].Wire, out[i].TS, out[i].Wire)
		}
	}
	var buf2 bytes.Buffer
	if err := capture.WritePcap(&buf2, out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("second write not byte-identical to first")
	}
}
