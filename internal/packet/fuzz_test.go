package packet_test

import (
	"errors"
	"testing"

	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/wiretest"
)

// Fuzz bodies for every decoder in this package. Each enforces the §4.10
// codec hardening contract: arbitrary bytes never panic, and any input that
// decodes re-marshals byte-identically (the decoder accepts exactly the
// marshaler's image). Plain `go test` runs each target's body over its
// checked-in seed corpus (testdata/fuzz/<Target>), one subtest per file.

func checkDecodePacket(t *testing.T, data []byte) {
	p, err := packet.Decode(data)

	// PeekFlow must agree with Decode on every input: same accept/reject
	// verdict, and for accepted inputs the flow FlowOf derives from the
	// decoded packet. This is the contract capture leans on — tap-time
	// classification stands in for "would Decode succeed".
	fl, ok := packet.PeekFlow(data)
	if ok != (err == nil) {
		t.Fatalf("Decode err=%v but PeekFlow ok=%v", err, ok)
	}
	if err != nil {
		return
	}
	if p.WireLen() != len(data) {
		t.Fatalf("WireLen %d != input %d", p.WireLen(), len(data))
	}
	wiretest.AssertRemarshal(t, data, p.Marshal())
	// A decoded packet must also survive Clone and flow extraction.
	wiretest.AssertRemarshal(t, data, p.Clone().Marshal())
	if fl != packet.FlowOf(p) {
		t.Fatalf("PeekFlow %+v != FlowOf(Decode) %+v", fl, packet.FlowOf(p))
	}
	_ = fl.FastHash()
}

func FuzzDecodePacket(f *testing.F) {
	f.Add([]byte{0x45, 0, 0, 20})
	f.Fuzz(checkDecodePacket)
}

func checkDecodeTLSRecord(t *testing.T, data []byte) {
	rec, body, rest, err := packet.DecodeTLSRecord(data)
	if err != nil {
		if !errors.Is(err, packet.ErrTLSShort) && !errors.Is(err, packet.ErrTLSMalformed) {
			t.Fatalf("unexpected error class: %v", err)
		}
		return
	}
	if rec.BodyLen != len(body)+packet.TLSRecordOverhead {
		t.Fatalf("BodyLen %d vs body %d + overhead", rec.BodyLen, len(body))
	}
	consumed := len(data) - len(rest)
	wiretest.AssertRemarshal(t, data[:consumed], packet.MarshalTLSRecord(rec.ContentType, body))
}

func FuzzDecodeTLSRecord(f *testing.F) {
	f.Add(packet.MarshalTLSRecord(packet.TLSApplicationData, []byte("seed")))
	f.Fuzz(checkDecodeTLSRecord)
}

func checkDecodeRTP(t *testing.T, data []byte) {
	h, payload, err := packet.DecodeRTP(data)
	if err != nil {
		return
	}
	wiretest.AssertRemarshal(t, data, packet.AppendRTP(nil, h, payload))
}

func FuzzDecodeRTP(f *testing.F) {
	f.Add(packet.AppendRTP(nil, packet.RTPHeader{PayloadType: packet.RTPPayloadOpus}, make([]byte, 20)))
	f.Fuzz(checkDecodeRTP)
}

func checkDecodeRTCP(t *testing.T, data []byte) {
	p, err := packet.DecodeRTCP(data)
	if err != nil {
		return
	}
	wiretest.AssertRemarshal(t, data, packet.MarshalRTCP(p))
}

func FuzzDecodeRTCP(f *testing.F) {
	f.Add(packet.MarshalRTCP(packet.RTCPPacket{Type: packet.RTCPSenderReport, SSRC: 1}))
	f.Fuzz(checkDecodeRTCP)
}
