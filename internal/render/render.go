// Package render implements the §6.3 alternative architecture: remote
// rendering. A server-side renderer composes each user's view into 2D video
// frames and streams them down; the client merely decodes. Downlink
// bandwidth then depends on resolution and frame rate — not on the number of
// concurrent users — which is exactly the property the paper proposes to fix
// the scalability problem, and what the `remote` ablation bench measures.
package render

import (
	"encoding/binary"
	"time"

	"github.com/svrlab/svrlab/internal/device"
	"github.com/svrlab/svrlab/internal/netsim"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/simtime"
	"github.com/svrlab/svrlab/internal/transport"
)

// EncoderModel captures a hardware H.264/H.265-class encoder's efficiency.
type EncoderModel struct {
	// BitsPerPixel at the target quality; ~0.08 reproduces the commonly
	// cited 10-20 Mbit/s for 1080p60 game streaming.
	BitsPerPixel float64
	// KeyframeBoost multiplies I-frame sizes relative to the average.
	KeyframeBoost float64
	// KeyframeInterval in frames.
	KeyframeInterval int
}

// DefaultEncoder is a typical low-latency game-streaming configuration.
func DefaultEncoder() EncoderModel {
	return EncoderModel{BitsPerPixel: 0.08, KeyframeBoost: 4, KeyframeInterval: 60}
}

// BitrateBps returns the mean video bitrate for a resolution and frame rate.
func (e EncoderModel) BitrateBps(res device.Resolution, fps float64) float64 {
	return float64(res.W) * float64(res.H) * fps * e.BitsPerPixel
}

// frameBytes returns the size of the i-th frame.
func (e EncoderModel) frameBytes(res device.Resolution, fps float64, i int) int {
	mean := e.BitrateBps(res, fps) / fps / 8
	n := e.KeyframeInterval
	if n <= 1 {
		return int(mean)
	}
	if i%n == 0 {
		return int(mean * e.KeyframeBoost)
	}
	// P-frames share the remaining budget.
	return int(mean * (float64(n) - e.KeyframeBoost) / float64(n-1))
}

// DecodeCost is the client-side cost of displaying a decoded video stream:
// constant per frame, independent of scene complexity — the key contrast
// with local rendering.
func DecodeCost(res device.Resolution) device.CostModel {
	scale := float64(res.W*res.H) / (1440 * 1584)
	return device.CostModel{
		BaseCPUms: 4 * scale, BaseGPUms: 3 * scale,
		BaseMemMB: 900, PerAvatarMemMB: 0,
		Res:                  res,
		BatteryBasePctPerMin: 0.35,
	}
}

// Streamer runs on a server host and pushes an encoded view stream to one
// client over UDP, fragmenting frames into MTU-sized packets.
type Streamer struct {
	sched *simtime.Scheduler
	sock  *transport.UDPSocket
	to    packet.Endpoint
	enc   EncoderModel
	res   device.Resolution
	fps   float64

	// RenderCostMs is the *server-side* per-frame cost: it grows with the
	// number of visible avatars (the server still renders the scene), but
	// that cost is on datacenter hardware, not the headset.
	RenderCostMs func() float64

	frame int
}

const mtuPayload = 1200

// NewStreamer starts streaming immediately.
func NewStreamer(sched *simtime.Scheduler, sock *transport.UDPSocket, to packet.Endpoint, enc EncoderModel, res device.Resolution, fps float64) *Streamer {
	s := &Streamer{sched: sched, sock: sock, to: to, enc: enc, res: res, fps: fps}
	interval := time.Duration(float64(time.Second) / fps)
	sched.Ticker(interval, s.tick)
	return s
}

func (s *Streamer) tick() {
	size := s.enc.frameBytes(s.res, s.fps, s.frame)
	delay := time.Duration(0)
	if s.RenderCostMs != nil {
		delay = time.Duration(s.RenderCostMs() * float64(time.Millisecond))
	}
	frame := s.frame
	s.frame++
	s.sched.After(delay, func() { s.emitFrame(frame, size) })
}

func (s *Streamer) emitFrame(frame, size int) {
	seq := 0
	for off := 0; off < size; off += mtuPayload {
		n := mtuPayload
		if size-off < n {
			n = size - off
		}
		payload := make([]byte, 12+n)
		binary.BigEndian.PutUint32(payload[0:], uint32(frame))
		binary.BigEndian.PutUint16(payload[4:], uint16(seq))
		last := byte(0)
		if off+n >= size {
			last = 1
		}
		payload[6] = last
		s.sock.SendTo(s.to, payload)
		seq++
	}
}

// Viewer is the client side: it counts the video bytes it receives and the
// frames whose last fragment arrived.
type Viewer struct {
	FramesComplete int
	BytesReceived  int
}

// NewViewer installs the viewer on a UDP socket.
func NewViewer(sock *transport.UDPSocket) *Viewer {
	v := &Viewer{}
	sock.OnRecv = func(src packet.Endpoint, payload []byte) { v.onPacket(payload) }
	return v
}

func (v *Viewer) onPacket(b []byte) {
	if len(b) < 12 {
		return
	}
	v.BytesReceived += len(b) - 12
	if b[6] == 1 {
		v.FramesComplete++
	}
}

// Session wires a complete remote-rendering session between a server host
// and a client host: uplink pose stream (reusing the platform rates is the
// caller's business) and downlink video.
type Session struct {
	Streamer *Streamer
	Viewer   *Viewer
	Headset  *device.Headset
}

// NewSession builds the downlink video path and a decode-cost headset.
func NewSession(sched *simtime.Scheduler, client *netsim.Host, serverStack, clientStack *transport.Stack, res device.Resolution, fps float64) (*Session, error) {
	srvSock, err := serverStack.BindUDP(0)
	if err != nil {
		return nil, err
	}
	cliSock, err := clientStack.BindUDP(9100)
	if err != nil {
		return nil, err
	}
	viewer := NewViewer(cliSock)
	streamer := NewStreamer(sched, srvSock, packet.Endpoint{Addr: client.Addr, Port: 9100}, DefaultEncoder(), res, fps)
	hs := device.NewHeadset(device.Quest2, DecodeCost(res), nil)
	hs.AvatarsInScene = 1
	return &Session{Streamer: streamer, Viewer: viewer, Headset: hs}, nil
}
