// Command gencorpus regenerates the checked-in fuzz seed corpora under
// each codec package's testdata/fuzz/ directory. Seeds are built from the
// real marshalers where they are exported and hand-encoded where they are
// not, plus deliberately damaged variants (truncations, flipped version
// bytes, inconsistent lengths), so the seed replay in plain `go test`
// (every corpus file runs as a subtest of its fuzz target) pins the
// rejection paths as well as the happy path.
//
// Run from the repository root:
//
//	go run ./internal/wiretest/gencorpus
//
// Regeneration is deterministic — no clocks, no randomness — so rerunning
// it on an unchanged tree is a no-op diff. TestCorpusMatchesGencorpus, in
// plain `go test`, fails on any checked-in seed that differs from, or is
// missing from, what it writes, and CI fails on any diff or new file it
// leaves under a testdata/fuzz directory; both catch a corpus that was lost.
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"github.com/svrlab/svrlab/internal/capture"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/secure"
	"github.com/svrlab/svrlab/internal/wiretest"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		log.Fatalf("gencorpus: %s is not the repository root: %v", root, err)
	}
	for dir, entries := range corpora(root) {
		if err := wiretest.WriteCorpus(dir, entries...); err != nil {
			log.Fatalf("gencorpus: %s: %v", dir, err)
		}
		fmt.Printf("%s: %d seeds\n", dir, len(entries))
	}
}

// mutate returns a copy of b with the byte at i XORed with x.
func mutate(b []byte, i int, x byte) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= x
	return out
}

func corpora(root string) map[string][][]byte {
	td := func(pkg, target string) string {
		return filepath.Join(root, "internal", pkg, "testdata", "fuzz", target)
	}

	// --- packet: full IP frames from the real marshaler ------------------
	udp := (&packet.Packet{
		IP:      packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: packet.MustParseAddr("10.0.0.1"), Dst: packet.MustParseAddr("10.0.0.2"), ID: 7},
		UDP:     &packet.UDP{SrcPort: 40000, DstPort: 7777},
		Payload: []byte{1, 4, 'r', 'o', 'o', 'm', 2, 'u', '1'},
	}).Marshal()
	tcp := (&packet.Packet{
		IP:      packet.IPv4{TTL: 32, Protocol: packet.ProtoTCP, Src: packet.MustParseAddr("10.0.0.1"), Dst: packet.MustParseAddr("172.16.0.9"), ID: 8},
		TCP:     &packet.TCP{SrcPort: 44000, DstPort: 443, Seq: 1000, Ack: 2000, Flags: packet.FlagACK | packet.FlagPSH, Window: 65535},
		Payload: bytes.Repeat([]byte{0xab}, 32),
	}).Marshal()
	icmp := (&packet.Packet{
		IP:   packet.IPv4{TTL: 1, Protocol: packet.ProtoICMP, Src: packet.MustParseAddr("10.0.0.1"), Dst: packet.MustParseAddr("8.8.8.8"), ID: 9},
		ICMP: &packet.ICMP{Type: packet.ICMPEchoRequest, ID: 1, Seq: 3},
	}).Marshal()
	other := (&packet.Packet{
		IP:      packet.IPv4{TTL: 64, Protocol: 47, Src: packet.MustParseAddr("10.0.0.1"), Dst: packet.MustParseAddr("10.0.0.2")},
		Payload: []byte{1, 2, 3},
	}).Marshal()

	// --- packet: TLS records ---------------------------------------------
	tlsApp := packet.MarshalTLSRecord(packet.TLSApplicationData, []byte("hello metaverse"))
	tlsHS := packet.MarshalTLSRecord(packet.TLSHandshake, make([]byte, 330))
	tlsTwo := append(append([]byte(nil), tlsApp...), tlsHS...)

	// --- packet: RTP / RTCP ----------------------------------------------
	rtp := packet.AppendRTP(nil, packet.RTPHeader{PayloadType: packet.RTPPayloadOpus, Seq: 42, Timestamp: 960, SSRC: 0xdecafbad, Marker: true}, make([]byte, 160))
	rtcp := packet.MarshalRTCP(packet.RTCPPacket{Type: packet.RTCPSenderReport, SSRC: 0xdecafbad, LSR: 0x01020304, DLSR: 0x0000ffff})

	// --- platform data-channel frames (unexported marshalers: the layouts
	// below mirror internal/platform/wire.go byte for byte) ----------------
	hello := []byte{1 /*kindHello*/, 4, 'r', 'o', 'o', 'm', 2, 'u', '1'}
	avatar := make([]byte, 17+3)
	avatar[0] = 2                                 // kindAvatar
	binary.BigEndian.PutUint32(avatar[1:], 9)     // seq
	binary.BigEndian.PutUint32(avatar[5:], 1)     // action id
	binary.BigEndian.PutUint64(avatar[9:], 12345) // sent-at µs
	copy(avatar[17:], []byte{7, 8, 9})            // pose
	forward := append([]byte{5 /*kindForward*/, 2, 'u', '2'}, avatar...)
	seqVoice := append([]byte{3 /*kindVoice*/, 0, 0, 0, 5}, make([]byte, 40)...)
	seqKeep := []byte{11 /*kindKeepalive*/, 0, 0, 0, 1}
	voiceFwd := append([]byte{10 /*kindVoiceFwd*/, 2, 'u', '2'}, seqVoice...)
	envelope := jsonEnvelope(avatar)
	ctrlReq := append([]byte{1 /*reqLogin*/, 2, 'u', '1', 6, 'r', 'o', 'o', 'm', '-', '1'}, 0xde, 0xad)
	ctrlAsset := []byte{5 /*reqAsset*/, 2, 'u', '1', 0, 0x00, 0x00, 0x40, 0x00}

	// --- capture: pcap files from the real writer -------------------------
	var pcapBuf bytes.Buffer
	err := capture.WritePcap(&pcapBuf, []capture.Record{
		{TS: 250 * time.Millisecond, Wire: udp},
		{TS: 251 * time.Millisecond, Wire: tcp},
	})
	if err != nil {
		log.Fatalf("gencorpus: pcap seed: %v", err)
	}
	pcap := pcapBuf.Bytes()
	var pcapEmptyBuf bytes.Buffer
	if err := capture.WritePcap(&pcapEmptyBuf, nil); err != nil {
		log.Fatalf("gencorpus: pcap seed: %v", err)
	}

	// --- chaos: spec JSON -------------------------------------------------
	chaosSpec := []byte(`{"faults": [
  {"kind": "host-crash", "host": "vrchat-us-east-1", "start": "25s", "duration": "15s"},
  {"kind": "link-cut", "sites": ["us-east", "us-central"], "start": "10s", "duration": "2s", "flaps": 3, "period": "5s"},
  {"kind": "partition", "site": "us-west", "start": "30s", "duration": "10s"}
]}`)
	chaosEmpty := []byte(`{}`)
	chaosBadKind := []byte(`{"faults": [{"kind": "meteor", "start": "1s"}]}`)
	chaosBadFlaps := []byte(`{"faults": [{"kind": "partition", "site": "us-west", "start": "1s", "flaps": 99999}]}`)

	// --- secure: framed messages ------------------------------------------
	msg := secure.MarshalMsg(secure.MsgRequest, ctrlReq)
	msgTwo := append(append([]byte(nil), msg...), secure.MarshalMsg(secure.MsgResponse, make([]byte, 64))...)

	return map[string][][]byte{
		td("packet", "FuzzDecodePacket"): {
			udp, tcp, icmp, other,
			udp[:12],           // truncated header
			mutate(udp, 0, 1),  // IHL != 5
			mutate(tcp, 10, 1), // broken checksum
			mutate(udp, 26, 1), // non-zero UDP checksum
		},
		td("packet", "FuzzDecodeTLSRecord"): {
			tlsApp, tlsHS, tlsTwo,
			tlsApp[:3],           // short header
			mutate(tlsApp, 1, 1), // bad version
			mutate(tlsApp, 4, 1), // inconsistent length
			{23, 3, 3, 0, 0},     // length below AEAD overhead
		},
		td("packet", "FuzzDecodeRTP"): {
			rtp,
			rtp[:8],                     // short
			mutate(rtp, 0, 0x20),        // bad version/CSRC bits
			mutate(rtp, len(rtp)-1, 1),  // dirty auth tag
			mutate(rtp, len(rtp)-20, 1), // payload bit flip (still valid)
		},
		td("packet", "FuzzDecodeRTCP"): {
			rtcp,
			rtcp[:10],          // short
			mutate(rtcp, 3, 1), // length field disagrees with size
			mutate(rtcp, 0, 1), // bad version
			append(append([]byte(nil), rtcp...), 0, 0, 0, 0), // trailing bytes
		},
		td("platform", "FuzzParseHello"): {
			hello,
			hello[:4],           // truncated name
			mutate(hello, 0, 1), // wrong kind
			mutate(hello, 1, 2), // length prefix desync
			{1, 0, 0},           // empty names
		},
		td("platform", "FuzzParseAvatar"): {
			avatar,
			avatar[:17],          // header only, empty pose
			avatar[:10],          // truncated header
			mutate(avatar, 0, 1), // wrong kind
		},
		td("platform", "FuzzParseForward"): {
			forward,
			forward[:6],                     // truncated inner
			mutate(forward, 1, 4),           // user length desync
			mutate(forward, 4, 1),           // inner kind corrupted
			append([]byte{5, 0}, avatar...), // empty user
		},
		td("platform", "FuzzParseSeq"): {
			seqVoice, seqKeep,
			seqVoice[:3],              // short header
			mutate(seqVoice, 0, 0xff), // unknown kind
			mutate(seqVoice, 10, 1),   // non-zero filler
		},
		td("platform", "FuzzParseVoiceFwd"): {
			voiceFwd,
			voiceFwd[:2],              // empty user+inner boundary
			mutate(voiceFwd, 0, 1),    // wrong kind
			mutate(voiceFwd, 1, 0x7f), // user length beyond frame
		},
		td("platform", "FuzzJSONEnvelope"): {
			envelope,
			jsonEnvelope(nil),
			envelope[:30],           // truncated
			mutate(envelope, 2, 1),  // inner length desync
			mutate(envelope, 5, 1),  // marker corrupted
			mutate(envelope, 40, 1), // filler corrupted
		},
		td("platform", "FuzzParseCtrlReq"): {
			ctrlReq, ctrlAsset,
			ctrlReq[:2],              // short
			mutate(ctrlReq, 1, 0x7f), // user length beyond frame
		},
		td("capture", "FuzzPcapReader"): {
			pcap,
			pcapEmptyBuf.Bytes(),
			pcap[:20],           // truncated global header
			pcap[:30],           // truncated record header
			mutate(pcap, 0, 1),  // bad magic
			mutate(pcap, 4, 1),  // bad version
			mutate(pcap, 28, 1), // usec corrupted
			mutate(pcap, 32, 1), // caplen != origlen
		},
		td("chaos", "FuzzChaosSpec"): {
			chaosSpec, chaosEmpty, chaosBadKind, chaosBadFlaps,
			[]byte(`not json`),
			[]byte(`{"faults": [{"kind": "partition", "site": "x", "start": "-3s"}]}`),
		},
		td("secure", "FuzzMsgReader"): {
			msg, msgTwo,
			msg[:3],              // header split across feeds
			mutate(msg, 1, 0xff), // huge length prefix
		},
	}
}

// jsonEnvelope mirrors platform.appendEnvelope for seed generation (the real
// function is unexported; the fuzz target's re-marshal check keeps the two
// encodings honest against each other).
func jsonEnvelope(inner []byte) []byte {
	const marker = `"type":"pose","networkId":"`
	const overhead = 140
	n := len(inner)*4/3 + overhead
	out := make([]byte, n)
	out[0] = '{'
	binary.BigEndian.PutUint16(out[1:3], uint16(len(inner)))
	copy(out[3:], marker)
	copy(out[n-len(inner)-1:], inner)
	out[n-1] = '}'
	return out
}
