// Package rtpx provides the WebRTC-voice equivalent used by the Mozilla Hubs
// model: Opus-like RTP streams over UDP with RTCP sender/receiver reports.
// The RTCP report exchange yields the RTT estimate that the paper obtained
// from chrome://webrtc-internals (RTCIceCandidatePairStats, §4.2).
package rtpx

import (
	"time"

	"github.com/svrlab/svrlab/internal/obs"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/simtime"
	"github.com/svrlab/svrlab/internal/trace"
	"github.com/svrlab/svrlab/internal/transport"
)

// Opus voice parameters: 20 ms frames at a conversational bitrate.
const (
	VoiceFrameInterval = 20 * time.Millisecond
	VoicePayloadBytes  = 80 // ≈32 kbit/s Opus
	rtcpInterval       = time.Second
)

// voicePayload is every voice frame's payload: the lab sends no audio, only
// its size.
var voicePayload [VoicePayloadBytes]byte

// compactNTP converts simulation time to the middle 32 bits of an NTP
// timestamp (16.16 fixed-point seconds), as RTCP uses.
func compactNTP(t time.Duration) uint32 {
	return uint32(t.Seconds() * 65536)
}

func fromCompactNTP(v uint32) time.Duration {
	return time.Duration(float64(v) / 65536 * float64(time.Second))
}

// Stream is one bidirectional voice endpoint: it sends an RTP stream to a
// remote endpoint (unless muted) and answers RTCP.
type Stream struct {
	sched  *simtime.Scheduler
	sock   *transport.UDPSocket
	remote packet.Endpoint

	SSRC  uint32
	seq   uint16
	ts    uint32
	muted bool
	// txBuf holds the frame tick is sending; the fabric copies it.
	txBuf []byte

	// RTT is the latest RTCP-derived estimate (0 until measured).
	RTT time.Duration
	// RTTSamples collects every RTT measurement, the only record of them.
	RTTSamples []time.Duration

	// OnVoice receives decoded voice payloads from the remote.
	OnVoice func(seq uint16, payload []byte)

	// VoiceSent and VoiceRecv count voice frames, the only record of them.
	VoiceSent, VoiceRecv int

	// srSent counts RTCP sender reports.
	srSent int
}

// FlushMetrics adds the stream's counts to m. Network.FlushMetrics calls it
// once, at lab teardown.
func (s *Stream) FlushMetrics(m *obs.Registry) {
	m.Add("rtpx.voice_sent", int64(s.VoiceSent))
	m.Add("rtpx.voice_recv", int64(s.VoiceRecv))
	m.Add("rtpx.rtcp_sr_sent", int64(s.srSent))
	m.Add("rtpx.rtt_samples", int64(len(s.RTTSamples)))
}

// NewStream binds a voice stream on sock toward remote. The caller retains
// sock ownership; the stream installs itself as the receive handler.
func NewStream(sched *simtime.Scheduler, sock *transport.UDPSocket, remote packet.Endpoint, ssrc uint32, muted bool) *Stream {
	st := &Stream{sched: sched, sock: sock, remote: remote, SSRC: ssrc, muted: muted}
	sock.Enlist(st)
	sock.OnRecv = func(src packet.Endpoint, payload []byte) { st.onPacket(payload) }
	sched.Ticker(VoiceFrameInterval, st.tick)
	sched.Ticker(rtcpInterval, st.sendSR)
	return st
}

// SetMuted toggles voice emission. RTCP keeps flowing while muted, exactly
// like a muted WebRTC track.
func (s *Stream) SetMuted(m bool) { s.muted = m }

func (s *Stream) tick() {
	if s.muted {
		return
	}
	s.seq++
	s.ts += 960 // 48 kHz * 20 ms
	s.txBuf = packet.AppendRTP(s.txBuf[:0], packet.RTPHeader{
		PayloadType: packet.RTPPayloadOpus,
		Seq:         s.seq,
		Timestamp:   s.ts,
		SSRC:        s.SSRC,
	}, voicePayload[:])
	s.sock.SendTo(s.remote, s.txBuf)
	s.VoiceSent++
}

func (s *Stream) sendSR() {
	sr := packet.MarshalRTCP(packet.RTCPPacket{
		Type: packet.RTCPSenderReport,
		SSRC: s.SSRC,
		LSR:  compactNTP(s.sched.Now()),
	})
	s.sock.Trace(trace.KindRTCP, "sender-report", int64(s.SSRC), 0)
	s.sock.SendTo(s.remote, sr)
	s.srSent++
}

func (s *Stream) onPacket(b []byte) {
	if packet.IsRTCP(b) {
		rep, err := packet.DecodeRTCP(b)
		if err != nil {
			return
		}
		switch rep.Type {
		case packet.RTCPSenderReport:
			// Echo its LSR in a receiver report. The report leaves at once,
			// so its DLSR (delay since the last SR) is 0.
			rr := packet.MarshalRTCP(packet.RTCPPacket{
				Type: packet.RTCPReceiverReport,
				SSRC: s.SSRC,
				LSR:  rep.LSR,
			})
			s.sock.SendTo(s.remote, rr)
		case packet.RTCPReceiverReport:
			// RTT = now - LSR - DLSR.
			rtt := s.sched.Now() - fromCompactNTP(rep.LSR) - fromCompactNTP(rep.DLSR)
			if rtt > 0 {
				s.RTT = rtt
				s.RTTSamples = append(s.RTTSamples, rtt)
				s.sock.Trace(trace.KindRTCP, "rtt", int64(rtt/time.Microsecond), 0)
			}
		}
		return
	}
	h, payload, err := packet.DecodeRTP(b)
	if err != nil {
		return
	}
	s.VoiceRecv++
	if s.OnVoice != nil {
		s.OnVoice(h.Seq, payload)
	}
}
