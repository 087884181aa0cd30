// Application wire formats shared by the five platform models: the messages
// that ride the UDP data channel and the framed bodies on the HTTPS control
// channel. One compact binary format serves all platforms — the platforms
// differ in which messages they send, at what rates, and over which
// transports, not in framing.
//
// Every parser here honors the codec hardening contract (DESIGN §4.10): it
// never panics on arbitrary bytes, never allocates beyond its input, and
// accepts exactly the image of its marshaler — so re-marshaling a parsed
// frame is byte-identical to the input. Marshalers return explicit errors
// where a field would otherwise silently truncate (names longer than the
// 255-byte length prefix, envelope payloads beyond the 16-bit prefix).
//
// The avatar path allocates nothing it does not keep (DESIGN §4.7).
// parseAvatar, parseForward and fromJSONEnvelope return views of the frame
// they parse, not copies: a view is valid only while the frame is, which
// for a datagram or a message handed to a handler is the handler call. The
// append* writers add a frame to a caller's buffer, so a sender can reuse
// one buffer for every frame; the fabric and secure.Session.SendMsg copy a
// payload before they return.
package platform

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"time"
)

// Data-channel message kinds.
const (
	kindHello     = 1  // client -> server: join a room
	kindAvatar    = 2  // client -> server: avatar pose update
	kindVoice     = 3  // client -> server: voice frame (non-WebRTC platforms)
	kindForward   = 5  // server -> client: another user's avatar update
	kindSync      = 6  // server -> client: world-state sync filler
	kindTelemetry = 7  // client -> server: status telemetry (kept by server)
	kindGame      = 8  // client -> server: game-state updates
	kindGameDown  = 9  // server -> client: game-state stream
	kindVoiceFwd  = 10 // server -> client: another user's voice frame
	kindKeepalive = 11 // server -> client: minimal heartbeat
)

// Control-channel request types (inside secure.MsgRequest bodies).
const (
	reqLogin  = 1
	reqMenu   = 2
	reqReport = 3
	reqAsset  = 5 // asset server only (newAssetServer)
	reqJoin   = 6 // web platforms: join a room over the control channel
)

var (
	errWire        = errors.New("platform: malformed message")
	errNameTooLong = errors.New("platform: name longer than 255 bytes")
	errInnerTooBig = errors.New("platform: payload exceeds envelope length prefix")
)

// helloMsg announces a client to a data server.
type helloMsg struct {
	Room string
	User string
}

func marshalHello(h helloMsg) ([]byte, error) {
	if len(h.Room) > 255 || len(h.User) > 255 {
		// byte(len(...)) would silently truncate the length prefix and
		// desync the parser; names this long are a configuration error.
		return nil, errNameTooLong
	}
	out := []byte{kindHello, byte(len(h.Room))}
	out = append(out, h.Room...)
	out = append(out, byte(len(h.User)))
	out = append(out, h.User...)
	return out, nil
}

func parseHello(b []byte) (helloMsg, error) {
	if len(b) < 3 || b[0] != kindHello {
		return helloMsg{}, errWire
	}
	rl := int(b[1])
	if len(b) < 3+rl {
		return helloMsg{}, errWire
	}
	ul := int(b[2+rl])
	if len(b) != 3+rl+ul {
		return helloMsg{}, errWire
	}
	return helloMsg{Room: string(b[2 : 2+rl]), User: string(b[3+rl : 3+rl+ul])}, nil
}

// avatarMsg is a pose update. ActionID marks a user action for the latency
// rig (0 = none); SentAt is the sender's local clock in microseconds, used
// for the end-to-end latency decomposition exactly as the paper extracts
// timestamps from traces.
type avatarMsg struct {
	Seq      uint32
	ActionID uint32
	SentAtUs int64
	Pose     []byte
}

const avatarHdrLen = 1 + 4 + 4 + 8

// appendAvatar appends m's frame to dst. The client appends the header
// alone (a nil Pose) and encodes the pose behind it.
func appendAvatar(dst []byte, m avatarMsg) []byte {
	dst = slices.Grow(dst, avatarHdrLen+len(m.Pose))
	dst = append(dst, kindAvatar)
	dst = binary.BigEndian.AppendUint32(dst, m.Seq)
	dst = binary.BigEndian.AppendUint32(dst, m.ActionID)
	dst = binary.BigEndian.AppendUint64(dst, uint64(m.SentAtUs))
	return append(dst, m.Pose...)
}

// parseAvatar returns m.Pose as a view of b.
func parseAvatar(b []byte) (avatarMsg, error) {
	if len(b) < avatarHdrLen || b[0] != kindAvatar {
		return avatarMsg{}, errWire
	}
	return avatarMsg{
		Seq:      binary.BigEndian.Uint32(b[1:]),
		ActionID: binary.BigEndian.Uint32(b[5:]),
		SentAtUs: int64(binary.BigEndian.Uint64(b[9:])),
		Pose:     b[avatarHdrLen:],
	}, nil
}

// forwardMsg is a server-relayed avatar update: [kindForward, len(user),
// user] followed by the sender's avatar frame as the server received it.
type forwardMsg struct {
	User []byte
	avatarMsg
}

// appendForward appends the forward of frame, an avatar frame from user, to
// dst. The server relays the frame as received: parseAvatar accepts exactly
// the image of appendAvatar, so this equals re-marshaling the parsed frame.
func appendForward(dst []byte, user string, frame []byte) ([]byte, error) {
	if len(user) > 255 {
		return nil, errNameTooLong
	}
	dst = slices.Grow(dst, 2+len(user)+len(frame))
	dst = append(dst, kindForward, byte(len(user)))
	dst = append(dst, user...)
	return append(dst, frame...), nil
}

// parseForward returns f.User and f.Pose as views of b.
func parseForward(b []byte) (forwardMsg, error) {
	if len(b) < 2 || b[0] != kindForward {
		return forwardMsg{}, errWire
	}
	ul := int(b[1])
	if len(b) < 2+ul+avatarHdrLen {
		return forwardMsg{}, errWire
	}
	am, err := parseAvatar(b[2+ul:])
	if err != nil {
		return forwardMsg{}, err
	}
	return forwardMsg{User: b[2 : 2+ul], avatarMsg: am}, nil
}

// seqMsg is the generic sequenced filler used by voice, sync, telemetry and
// game streams: kind, sequence number, opaque zero payload of a given size.
type seqMsg struct {
	Kind byte
	Seq  uint32
	Size int // payload size on the wire
}

const seqHdrLen = 5

// seqInterval is the period at which seq messages of payload bytes add up
// to bps on the wire, counting the seq header and about 33 bytes of UDP/IP
// overhead per message.
func seqInterval(payload int, bps float64) time.Duration {
	return time.Duration(float64((payload+seqHdrLen+33)*8) / bps * float64(time.Second))
}

// seqKind reports whether k is one of the kinds carried as seqMsg filler.
func seqKind(k byte) bool {
	switch k {
	case kindVoice, kindSync, kindTelemetry, kindGame, kindGameDown, kindKeepalive:
		return true
	}
	return false
}

// appendSeq appends m's frame to dst. It zeroes the filler, whatever dst's
// spare capacity held.
func appendSeq(dst []byte, m seqMsg) []byte {
	dst = slices.Grow(dst, seqHdrLen+m.Size)
	dst = append(dst, m.Kind)
	dst = binary.BigEndian.AppendUint32(dst, m.Seq)
	return append(dst, make([]byte, m.Size)...)
}

// parseSeq rejects unknown kind bytes and non-zero filler instead of
// treating any datagram tail as valid payload — a frame that parses is
// exactly one appendSeq emitted.
func parseSeq(b []byte) (seqMsg, error) {
	if len(b) < seqHdrLen || !seqKind(b[0]) {
		return seqMsg{}, errWire
	}
	for _, v := range b[seqHdrLen:] {
		if v != 0 {
			return seqMsg{}, errWire
		}
	}
	return seqMsg{Kind: b[0], Seq: binary.BigEndian.Uint32(b[1:]), Size: len(b) - seqHdrLen}, nil
}

// voiceFwdMsg wraps a voice frame with its speaker.
func marshalVoiceFwd(user string, inner []byte) ([]byte, error) {
	if len(user) > 255 {
		return nil, errNameTooLong
	}
	out := make([]byte, 0, 2+len(user)+len(inner))
	out = append(out, kindVoiceFwd, byte(len(user)))
	out = append(out, user...)
	out = append(out, inner...)
	return out, nil
}

func parseVoiceFwd(b []byte) (string, []byte, error) {
	if len(b) < 2 || b[0] != kindVoiceFwd {
		return "", nil, errWire
	}
	ul := int(b[1])
	if len(b) < 2+ul {
		return "", nil, errWire
	}
	return string(b[2 : 2+ul]), b[2+ul:], nil
}

// The JSON envelope inflates a binary payload the way Hubs' web client
// transmits pose updates: a JSON object with base64-encoded fields costs
// roughly 4/3 of the binary size plus fixed key overhead. We reproduce the
// size (which is what throughput measurement sees) without paying for real
// JSON encoding; the true payload is embedded with a length prefix so the
// receiver can recover it.
//
// Layout: '{', 2-byte inner length, the key marker, zero filler, the inner
// payload, '}'. The parser validates every region, so a crafted length
// prefix can neither overlap the header nor claim bytes the envelope does
// not carry.
const (
	envelopeMarker   = `"type":"pose","networkId":"`
	envelopeOverhead = 140
	maxEnvelopeInner = 0xffff // 16-bit length prefix
)

// appendEnvelope appends inner's envelope to dst. Like appendSeq it zeroes
// the filler.
func appendEnvelope(dst, inner []byte) ([]byte, error) {
	if len(inner) > maxEnvelopeInner {
		return nil, errInnerTooBig
	}
	n := len(inner)*4/3 + envelopeOverhead
	dst = slices.Grow(dst, n)
	dst = append(dst, '{')
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(inner)))
	dst = append(dst, envelopeMarker...)
	dst = append(dst, make([]byte, n-3-len(envelopeMarker)-len(inner)-1)...)
	dst = append(dst, inner...)
	return append(dst, '}'), nil
}

// fromJSONEnvelope returns the inner payload as a view of b.
func fromJSONEnvelope(b []byte) ([]byte, error) {
	if len(b) < 4 || b[0] != '{' || b[len(b)-1] != '}' {
		return nil, errWire
	}
	innerLen := int(binary.BigEndian.Uint16(b[1:3]))
	if len(b) != innerLen*4/3+envelopeOverhead {
		return nil, errWire
	}
	// envelopeOverhead ≥ 3 + len(marker) + 1 + inner/3 filler, so with the
	// exact-length check above the regions below can never overlap.
	if !bytes.HasPrefix(b[3:], []byte(envelopeMarker)) {
		return nil, errWire
	}
	for _, v := range b[3+len(envelopeMarker) : len(b)-innerLen-1] {
		if v != 0 {
			return nil, errWire
		}
	}
	return b[len(b)-innerLen-1 : len(b)-1], nil
}
