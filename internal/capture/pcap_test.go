package capture

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"github.com/svrlab/svrlab/internal/netsim"
	"github.com/svrlab/svrlab/internal/packet"
)

func samplePacket(payload int) []byte {
	p := &packet.Packet{
		IP:      packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: 1, Dst: 2},
		UDP:     &packet.UDP{SrcPort: 1000, DstPort: 2000},
		Payload: make([]byte, payload),
	}
	return p.Marshal()
}

func TestPcapRoundTrip(t *testing.T) {
	records := []Record{
		{TS: 1500 * time.Millisecond, Wire: samplePacket(10)},
		{TS: 2750 * time.Millisecond, Wire: samplePacket(100)},
		{TS: 61 * time.Second, Wire: samplePacket(0)},
	}
	var buf bytes.Buffer
	if err := WritePcap(&buf, records); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(records) {
		t.Fatalf("records = %d, want %d", len(got), len(records))
	}
	for i := range records {
		if got[i].TS != records[i].TS {
			t.Fatalf("record %d TS = %v, want %v", i, got[i].TS, records[i].TS)
		}
		if !bytes.Equal(got[i].Wire, records[i].Wire) {
			t.Fatalf("record %d wire bytes differ", i)
		}
		// pcap stores no direction: restored records carry the zero Dir.
		if got[i].Dir != netsim.DirUp {
			t.Fatalf("record %d Dir = %v, want %v", i, got[i].Dir, netsim.DirUp)
		}
		// Restored records decode.
		if _, err := packet.Decode(got[i].Wire); err != nil {
			t.Fatalf("record %d undecodable after round trip: %v", i, err)
		}
	}
}

func TestPcapEmptyCapture(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePcap(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 24 {
		t.Fatalf("empty pcap = %d bytes, want header only (24)", buf.Len())
	}
	got, err := ReadPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("records = %d", len(got))
	}
}

func TestPcapRejectsGarbage(t *testing.T) {
	if _, err := ReadPcap(bytes.NewReader([]byte("not a pcap file at all....."))); err == nil {
		t.Fatal("garbage accepted")
	}
	// Truncated record body.
	var buf bytes.Buffer
	if err := WritePcap(&buf, []Record{{TS: time.Second, Wire: samplePacket(50)}}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-10]
	if _, err := ReadPcap(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated pcap accepted")
	}
}

func TestPcapTruncatedGlobalHeader(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePcap(&buf, nil); err != nil {
		t.Fatal(err)
	}
	// Every proper prefix of the 24-byte global header must be rejected.
	for n := 0; n < buf.Len(); n++ {
		if _, err := ReadPcap(bytes.NewReader(buf.Bytes()[:n])); err == nil {
			t.Fatalf("accepted %d-byte global header prefix", n)
		}
	}
}

func TestPcapTruncatedRecordHeader(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePcap(&buf, []Record{{TS: time.Second, Wire: samplePacket(20)}}); err != nil {
		t.Fatal(err)
	}
	// Cut inside the 16-byte record header (after the global header): a
	// partial record header is a malformed file, not a clean EOF.
	for _, cut := range []int{24 + 1, 24 + 8, 24 + 15} {
		if _, err := ReadPcap(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Fatalf("accepted pcap cut at byte %d (inside record header)", cut)
		}
	}
}

// TestPcapTapStreamsWhatTheSnifferSaw: a pcap tap installed beside a
// sniffer writes, as packets cross the access point, the file WritePcap
// writes over the same packets; ReadPcap returns it record for record as
// the sniffer holds them, and packets after Close are not written.
func TestPcapTapStreamsWhatTheSnifferSaw(t *testing.T) {
	r := newRig(t)
	var buf bytes.Buffer
	tap := AttachPcap(r.a, &buf)
	var seen []Record
	r.a.Tap(func(at time.Duration, dir netsim.Dir, wire []byte) {
		seen = append(seen, Record{TS: at, Dir: dir, Wire: append([]byte(nil), wire...)})
	})
	r.sendUDP(time.Second, 40)
	r.sendTCPDown(2*time.Second, 40)
	r.sendUDP(2500*time.Millisecond, 3)
	r.s.RunUntil(3 * time.Second)
	if err := tap.Close(); err != nil {
		t.Fatal(err)
	}
	// More than the tap's 4 KiB buffer crosses after Close.
	for i := 0; i < 5; i++ {
		r.sendUDP(4*time.Second+time.Duration(i)*time.Millisecond, 1000)
	}
	r.s.Run()

	var want bytes.Buffer
	if err := WritePcap(&want, seen[:3]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want.Bytes()) {
		t.Fatal("streamed pcap differs from WritePcap over the tapped packets")
	}
	got, err := ReadPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || r.sniff.Len() != 8 {
		t.Fatalf("pcap has %d records, sniffer %d; want 3 and 8", len(got), r.sniff.Len())
	}
	for i := range got {
		s := r.sniff.At(i)
		fl, ok := packet.PeekFlow(got[i].Wire)
		if got[i].TS != s.TS.Truncate(time.Microsecond) || len(got[i].Wire) != s.WireLen || !ok || fl != s.Flow {
			t.Fatalf("pcap record %d (%v, %d bytes, %+v) != sniffer record %+v", i, got[i].TS, len(got[i].Wire), fl, s)
		}
	}
	// Analyses still work on restored data.
	restored := Restore(got)
	if n := restored.Packets(Match{Filter: FilterProto(packet.ProtoTCP)}, 0, time.Hour); n != 1 {
		t.Fatalf("restored TCP packets = %d", n)
	}
}

// errWriter fails every write.
type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestPcapTapKeepsFirstError: the tap stops writing at its first error and
// Close reports that error, whether the writer failed or a record could not
// be represented in pcap.
func TestPcapTapKeepsFirstError(t *testing.T) {
	r := newRig(t)
	failing := AttachPcap(r.a, errWriter{})
	var buf bytes.Buffer
	unrepresentable := AttachPcap(r.b, &buf)
	unrepresentable.write(-time.Microsecond, netsim.DirUp, samplePacket(1))
	r.sendUDP(time.Second, 10)
	r.s.Run()
	if err := failing.Close(); err == nil || err.Error() != "disk full" {
		t.Fatalf("failing writer: Close = %v", err)
	}
	if err := unrepresentable.Close(); err != errPcapRecord {
		t.Fatalf("negative timestamp: Close = %v, want %v", err, errPcapRecord)
	}
	if buf.Len() != 24 {
		t.Fatalf("tap wrote %d bytes after its first error, want the 24-byte header only", buf.Len())
	}
}

func TestPropertyPcapRoundTrip(t *testing.T) {
	f := func(payloads []uint16, tsRaw []uint32) bool {
		n := len(payloads)
		if len(tsRaw) < n {
			n = len(tsRaw)
		}
		if n > 16 {
			n = 16
		}
		var records []Record
		for i := 0; i < n; i++ {
			records = append(records, Record{
				TS:   time.Duration(tsRaw[i]) * time.Microsecond,
				Wire: samplePacket(int(payloads[i]) % 1400),
			})
		}
		var buf bytes.Buffer
		if err := WritePcap(&buf, records); err != nil {
			return false
		}
		got, err := ReadPcap(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(records) {
			return false
		}
		for i := range got {
			if got[i].TS != records[i].TS || !bytes.Equal(got[i].Wire, records[i].Wire) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
