package platform

import (
	"encoding/binary"
	"time"

	"github.com/svrlab/svrlab/internal/netsim"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/secure"
	"github.com/svrlab/svrlab/internal/transport"
	"github.com/svrlab/svrlab/internal/world"
)

// Backend is a platform's shared room/session registry. Server instances of
// the same platform share one backend: when co-located users are
// load-balanced onto different front-end servers (as the paper observes for
// most platforms), the backend is the internal mesh that lets each user's
// server deliver the others' data.
type Backend struct {
	dep     *Deployment
	profile *Profile
	rooms   map[string]*Room
	byUser  map[string]*Member
	byEP    map[packet.Endpoint]*Member

	// decimation, when set, rate-limits forwards between distant avatars
	// (the §6.2 ablation).
	decimation *DecimationPolicy
}

func newBackend(d *Deployment, p *Profile) *Backend {
	return &Backend{
		dep:     d,
		profile: p,
		rooms:   make(map[string]*Room),
		byUser:  make(map[string]*Member),
		byEP:    make(map[packet.Endpoint]*Member),
	}
}

// Room is one social event.
type Room struct {
	Name    string
	members map[string]*Member
	order   []string
}

func (b *Backend) room(name string) *Room {
	r, ok := b.rooms[name]
	if !ok {
		r = &Room{Name: name, members: make(map[string]*Member)}
		b.rooms[name] = r
	}
	return r
}

// Size returns the number of members.
func (r *Room) Size() int { return len(r.members) }

// Member is one connected user as the platform servers see it.
type Member struct {
	User string
	room *Room

	// Delivery paths: UDP platforms use udpServer+udpEP; web platforms
	// (Hubs) push over the ctrl session.
	udpServer *DataServer
	udpEP     packet.Endpoint
	ctrl      *ctrlSession

	// Server-side knowledge of the avatar, updated from decoded pose
	// uploads — the basis for the viewport-adaptive decision. The previous
	// sample feeds the viewport predictor.
	pose     world.Pose
	poseAt   time.Duration
	prevPose world.Pose
	prevAt   time.Duration
	lastSeq  uint32

	// Worlds session-keeping: the control channel's periodic TCP reports
	// act as the liveness signal (§8.1).
	lastReportAt time.Duration
	joinedAt     time.Duration

	inGame bool

	stops []func()
}

func (m *Member) stopAll() {
	for _, s := range m.stops {
		s()
	}
	m.stops = nil
}

// reportMissed classifies a Worlds member's control-channel health.
func (b *Backend) reportMissed(m *Member) time.Duration {
	if !b.profile.TCPPriority {
		return 0
	}
	last := m.lastReportAt
	if last == 0 {
		last = m.joinedAt
	}
	return b.dep.Sched.Now() - last
}

// viewportLookahead is how far ahead the viewport predictor extrapolates a
// recipient's pose (network delivery + client processing time).
const viewportLookahead = 150 * time.Millisecond

const (
	// pauseAfter: forwarding to a member stops after this much control
	// silence; expireAfter: the session is torn down entirely. The expiry
	// horizon tolerates a 15s-delayed (but delivered) report cycle: the
	// paper's session survives the staged TCP delays and dies only under
	// the 100% TCP blackhole (§8.1).
	pauseAfter  = 12 * time.Second
	expireAfter = 40 * time.Second
)

func (b *Backend) join(roomName, user string, udpServer *DataServer, udpEP packet.Endpoint, ctrl *ctrlSession) *Member {
	r := b.room(roomName)
	m, ok := r.members[user]
	if !ok {
		m = &Member{User: user, room: r, joinedAt: b.dep.Sched.Now()}
		r.members[user] = m
		r.order = append(r.order, user)
		b.byUser[user] = m
		b.startMemberStreams(m)
	}
	if udpServer != nil {
		m.udpServer = udpServer
		m.udpEP = udpEP
		b.byEP[udpEP] = m
	}
	if ctrl != nil {
		m.ctrl = ctrl
		ctrl.member = m
	}
	return m
}

func (b *Backend) leave(m *Member) {
	if m == nil || m.room == nil {
		return
	}
	m.stopAll()
	delete(m.room.members, m.User)
	for i, u := range m.room.order {
		if u == m.User {
			m.room.order = append(m.room.order[:i], m.room.order[i+1:]...)
			break
		}
	}
	delete(b.byUser, m.User)
	delete(b.byEP, m.udpEP)
	m.room = nil
}

// startMemberStreams launches the per-member server→client tickers: world
// sync, keepalive, and (when active) the game-state stream.
func (b *Backend) startMemberStreams(m *Member) {
	p := b.profile
	sched := b.dep.Sched
	var syncSeq, gameSeq uint32

	if p.Traffic.SyncDownBps > 0 {
		const payload = 160
		wire := payload + 5 + 33 // seq hdr + UDP/IP (approx; actual measured from capture)
		interval := time.Duration(float64(wire*8) / p.Traffic.SyncDownBps * float64(time.Second))
		m.stops = append(m.stops, sched.Ticker(interval, func() {
			if b.memberGone(m) || b.reportMissed(m) > pauseAfter {
				return
			}
			syncSeq++
			b.sendToMember(m, marshalSeq(seqMsg{Kind: kindSync, Seq: syncSeq, Size: payload}))
		}))
	}

	// Keepalive: 1/s tiny heartbeat; survives a forwarding pause but not
	// session expiry.
	m.stops = append(m.stops, sched.Ticker(time.Second, func() {
		if b.memberGone(m) {
			return
		}
		if b.reportMissed(m) > expireAfter {
			b.leave(m)
			return
		}
		b.sendToMember(m, marshalSeq(seqMsg{Kind: kindKeepalive, Seq: 0, Size: 8}))
	}))

	if p.Game.DownBps > 0 {
		const payload = 300
		wire := payload + 5 + 33
		interval := time.Duration(float64(wire*8) / p.Game.DownBps * float64(time.Second))
		m.stops = append(m.stops, sched.Ticker(interval, func() {
			if b.memberGone(m) || !m.inGame || b.reportMissed(m) > pauseAfter {
				return
			}
			gameSeq++
			b.sendToMember(m, marshalSeq(seqMsg{Kind: kindGameDown, Seq: gameSeq, Size: payload}))
		}))
	}
}

func (b *Backend) memberGone(m *Member) bool { return m.room == nil }

// sendToMember delivers a data-channel payload to a member over whichever
// path serves it.
func (b *Backend) sendToMember(m *Member, payload []byte) {
	if b.profile.WebData {
		if m.ctrl != nil {
			m.ctrl.push(payload)
		}
		return
	}
	if m.udpServer != nil {
		m.udpServer.sendTo(m.udpEP, payload)
	}
}

// serverDelay models per-message processing/queueing at the platform server
// (§7): a base cost, jitter, and a per-user queueing term.
func (b *Backend) serverDelay(r *Room, private bool) time.Duration {
	L := b.profile.Latency
	base, jit := L.ServerMs, L.ServerJitterMs
	if private {
		base, jit = 14, 2.5 // the lightly loaded t3.medium (§7: ~16 ms)
	}
	ms := base + L.PerUserServerMs*float64(max(0, r.Size()-2))
	ms += b.dep.rng.NormFloat64() * jit * 0.8
	if ms < 1 {
		ms = 1
	}
	return time.Duration(ms * float64(time.Millisecond))
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// handleAvatarUpload is the heart of every platform server: take one user's
// avatar update and forward it to every other member — without aggregation
// or downsampling. This direct forwarding is the root cause of the paper's
// scalability findings (§6). AltspaceVR additionally applies the
// viewport-adaptive filter.
func (b *Backend) handleAvatarUpload(m *Member, am avatarMsg, private bool) {
	p := b.profile
	// The server decodes the pose to track position/orientation (needed
	// for the viewport filter and room state).
	if pose, err := p.Codec.Decode(am.Pose); err == nil {
		m.prevPose, m.prevAt = m.pose, m.poseAt
		m.pose = world.Pose{
			Pos: world.Vec2{X: pose.Head.Pos[0], Y: pose.Head.Pos[2]},
			Yaw: world.NormalizeDeg(pose.Head.Rot.YawDeg()),
		}
		m.poseAt = b.dep.Sched.Now()
	}
	m.lastSeq = am.Seq

	if am.ActionID != 0 {
		b.dep.Trace(am.ActionID).ServerInAt = b.dep.Sched.Now()
		b.dep.Net.Tracer.Action(b.dep.Sched.Now(), uint64(am.ActionID), b.traceTrack(m), "server_in")
	}

	room := m.room
	if room == nil {
		return
	}
	delay := b.serverDelay(room, private)
	fwd, err := marshalForward(forwardMsg{User: m.User, avatarMsg: am})
	if err != nil {
		// Unreachable for members admitted through parseHello (names are
		// length-prefix bounded there), but never forward a truncated frame.
		b.dep.Metrics().Inc("platform.wire_marshal_err")
		return
	}
	var fwdWeb []byte
	if p.WebData {
		if fwdWeb, err = jsonEnvelope(fwd); err != nil {
			b.dep.Metrics().Inc("platform.wire_marshal_err")
			return
		}
	}
	b.dep.Sched.After(delay, func() {
		if am.ActionID != 0 {
			b.dep.Trace(am.ActionID).ServerOutAt = b.dep.Sched.Now()
			b.dep.Net.Tracer.Action(b.dep.Sched.Now(), uint64(am.ActionID), b.traceTrack(m), "server_out")
		}
		for _, user := range room.order {
			o := room.members[user]
			if o == nil || o == m {
				continue
			}
			if b.reportMissed(o) > pauseAfter {
				continue // Worlds: control-channel silence pauses forwarding
			}
			// Viewport-adaptive optimization (AltspaceVR, §6.1): forward
			// only avatars inside the recipient's ~150° wedge, evaluated at
			// the *predicted* recipient pose one delivery-time ahead —
			// delivery takes time, so the server extrapolates (§6.1). This
			// prediction is part of why the AltspaceVR server stage is the
			// slowest in Table 4.
			if p.ViewportAdaptive {
				viewer := world.PredictPose(
					o.prevPose, o.prevAt.Seconds(),
					o.pose, o.poseAt.Seconds(),
					b.dep.Sched.Now().Seconds()+viewportLookahead.Seconds())
				if !world.InViewport(viewer, m.pose.Pos, p.ViewportWidthDeg) {
					continue
				}
			}
			// Update-rate decimation for non-interacting avatars (§6.2
			// ablation; no measured platform does this).
			if b.decimated(m, o, am.Seq) {
				continue
			}
			if p.WebData {
				if o.ctrl != nil {
					o.ctrl.push(fwdWeb)
				}
			} else {
				b.deliverCrossInstance(m, o, fwd)
			}
		}
	})
}

// traceTrack names the serving host for trace events on m's path: the UDP
// data server when the platform uses one, else the control server.
func (b *Backend) traceTrack(m *Member) string {
	if m.udpServer != nil {
		return m.udpServer.stack.Host.ID
	}
	if m.ctrl != nil {
		return m.ctrl.srv.stack.Host.ID
	}
	return ""
}

// deliverCrossInstance sends a forward to another member, adding the small
// backend-mesh hop when the recipient is served by a different instance.
func (b *Backend) deliverCrossInstance(from, to *Member, payload []byte) {
	if to.udpServer == nil {
		return
	}
	if from.udpServer == to.udpServer {
		to.udpServer.sendTo(to.udpEP, payload)
		return
	}
	// Inter-server relay: intra-site mesh hop.
	b.dep.Sched.After(300*time.Microsecond, func() {
		if to.room != nil {
			to.udpServer.sendTo(to.udpEP, payload)
		}
	})
}

// handleVoiceUpload forwards a voice frame to the other members (UDP
// platforms; Hubs voice goes through the SFU instead).
func (b *Backend) handleVoiceUpload(m *Member, payload []byte) {
	room := m.room
	if room == nil {
		return
	}
	fwd, err := marshalVoiceFwd(m.User, payload)
	if err != nil {
		b.dep.Metrics().Inc("platform.wire_marshal_err")
		return
	}
	b.dep.Sched.After(5*time.Millisecond, func() {
		for _, user := range room.order {
			o := room.members[user]
			if o == nil || o == m || b.reportMissed(o) > pauseAfter {
				continue
			}
			b.deliverCrossInstance(m, o, fwd)
		}
	})
}

// ---------------------------------------------------------------------------
// Data server (UDP platforms)

// DataServer is one UDP data-channel instance.
type DataServer struct {
	dep     *Deployment
	profile *Profile
	be      *Backend
	stack   *transport.Stack
	sock    *transport.UDPSocket
}

func newDataServer(d *Deployment, p *Profile, be *Backend, h *netsim.Host) *DataServer {
	s := &DataServer{dep: d, profile: p, be: be, stack: transport.NewStack(d.Net, h)}
	sock, err := s.stack.BindUDP(PortData)
	if err != nil {
		panic(err)
	}
	s.sock = sock
	sock.OnRecv = s.onDatagram
	return s
}

func (s *DataServer) sendTo(ep packet.Endpoint, payload []byte) {
	s.sock.SendTo(ep, payload)
}

// member resolves the sending client and, when its datagrams have started
// arriving at a different instance than the one serving it (anycast
// rerouting after the original instance crashed), adopts the session here
// so the downlink follows the new path — the failover behaviour the
// resilience experiment measures.
func (s *DataServer) member(src packet.Endpoint) *Member {
	m := s.be.byEP[src]
	if m != nil && m.udpServer != s {
		m.udpServer = s
		m.udpEP = src
	}
	return m
}

func (s *DataServer) onDatagram(src packet.Endpoint, payload []byte) {
	if len(payload) == 0 {
		return
	}
	switch payload[0] {
	case kindHello:
		h, err := parseHello(payload)
		if err != nil {
			s.dep.Metrics().Inc("platform.wire_parse_err")
			return
		}
		s.be.join(h.Room, h.User, s, src, nil)
	case kindAvatar:
		m := s.member(src)
		if m == nil {
			return
		}
		am, err := parseAvatar(payload)
		if err != nil {
			s.dep.Metrics().Inc("platform.wire_parse_err")
			return
		}
		s.be.handleAvatarUpload(m, am, false)
	case kindVoice:
		// Parse before slicing: a voice datagram shorter than the seq
		// header used to panic on payload[5:].
		if _, err := parseSeq(payload); err != nil {
			s.dep.Metrics().Inc("platform.wire_parse_err")
			return
		}
		if m := s.member(src); m != nil {
			s.be.handleVoiceUpload(m, payload[seqHdrLen:])
		}
	case kindTelemetry:
		// Status telemetry: absorbed by the server (never forwarded) —
		// the uplink/downlink asymmetry of Worlds in Table 3.
	case kindGame:
		if m := s.member(src); m != nil {
			m.inGame = true
		}
	case kindLeave:
		if m := s.member(src); m != nil {
			s.be.leave(m)
		}
	default:
		// Unknown kinds are a protocol violation, not filler: count them
		// so corruption is visible instead of silently absorbed.
		s.dep.Metrics().Inc("platform.wire_unknown_kind")
	}
}

// ---------------------------------------------------------------------------
// Control server (HTTPS)

// CtrlServer is one HTTPS control-channel instance. For web platforms
// (Hubs) it is also the avatar data channel.
type CtrlServer struct {
	dep       *Deployment
	profile   *Profile
	be        *Backend
	stack     *transport.Stack
	isPrivate bool
}

type ctrlSession struct {
	srv    *CtrlServer
	sess   *secure.Session
	reader *secure.MsgReader
	member *Member
}

func newCtrlServer(d *Deployment, p *Profile, be *Backend, h *netsim.Host, private bool) *CtrlServer {
	s := &CtrlServer{dep: d, profile: p, be: be, stack: transport.NewStack(d.Net, h), isPrivate: private}
	s.stack.ListenTCP(PortControl, func(conn *transport.Conn) {
		cs := &ctrlSession{srv: s, sess: secure.Server(conn)}
		cs.reader = &secure.MsgReader{OnMsg: cs.onMsg}
		cs.sess.OnData = cs.reader.Feed
	})
	return s
}

// push delivers a server-initiated message (Hubs avatar forwards, sync).
func (cs *ctrlSession) push(payload []byte) {
	cs.sess.SendMsg(secure.MsgPush, payload)
}

// control request body layout: [reqType][userLen][user][roomLen][room][rest...]
func marshalCtrlReq(reqType byte, user, room string, rest []byte) ([]byte, error) {
	if len(user) > 255 || len(room) > 255 {
		return nil, errNameTooLong
	}
	out := []byte{reqType, byte(len(user))}
	out = append(out, user...)
	out = append(out, byte(len(room)))
	out = append(out, room...)
	return append(out, rest...), nil
}

func parseCtrlReq(b []byte) (reqType byte, user, room string, rest []byte, err error) {
	if len(b) < 3 {
		return 0, "", "", nil, errWire
	}
	reqType = b[0]
	ul := int(b[1])
	if len(b) < 2+ul+1 {
		return 0, "", "", nil, errWire
	}
	user = string(b[2 : 2+ul])
	rl := int(b[2+ul])
	if len(b) < 3+ul+rl {
		return 0, "", "", nil, errWire
	}
	room = string(b[3+ul : 3+ul+rl])
	return reqType, user, room, b[3+ul+rl:], nil
}

const reqJoin = 6

func (cs *ctrlSession) onMsg(kind byte, body []byte) {
	s := cs.srv
	switch kind {
	case secure.MsgRequest, secure.MsgReport:
		reqType, user, room, rest, err := parseCtrlReq(body)
		if err != nil {
			s.dep.Metrics().Inc("platform.wire_parse_err")
			return
		}
		switch reqType {
		case reqLogin:
			cs.respond(make([]byte, 8_000))
		case reqMenu:
			n := 10_000 + s.dep.rng.Intn(15_000)
			cs.respond(make([]byte, n))
		case reqReport:
			if m := s.be.byUser[user]; m != nil {
				m.lastReportAt = s.dep.Sched.Now()
			}
			// The response carries the server clock — the clock-sync role
			// the paper infers for Worlds' periodic TCP transfers (§8.1).
			resp := make([]byte, maxInt(s.profile.Traffic.ReportDownBytes, 12))
			binary.BigEndian.PutUint64(resp[:8], uint64(s.dep.Sched.Now()))
			cs.respond(resp)
		case reqClockSync:
			resp := make([]byte, 12)
			binary.BigEndian.PutUint64(resp[:8], uint64(s.dep.Sched.Now()))
			cs.respond(resp)
		case reqJoin:
			s.be.join(room, user, nil, packet.Endpoint{}, cs)
			cs.respond(make([]byte, 2_000))
		case reqAsset:
			if len(rest) >= 4 {
				// A 4-byte field must not be able to demand a multi-GiB
				// response allocation. The cap is the client reader's
				// bound: a larger response would only be dropped there.
				n := int(binary.BigEndian.Uint32(rest))
				if n > secure.MaxMsgLen {
					s.dep.Metrics().Inc("platform.ctrl_oversize_req")
					return
				}
				cs.respond(make([]byte, n))
			}
		}
	case secure.MsgPush:
		// Web-platform avatar upload.
		if !s.profile.WebData || cs.member == nil {
			return
		}
		inner, err := fromJSONEnvelope(body)
		if err != nil {
			s.dep.Metrics().Inc("platform.wire_parse_err")
			return
		}
		am, err := parseAvatar(inner)
		if err != nil {
			s.dep.Metrics().Inc("platform.wire_parse_err")
			return
		}
		s.be.handleAvatarUpload(cs.member, am, s.isPrivate)
	}
}

func (cs *ctrlSession) respond(body []byte) {
	cs.sess.SendMsg(secure.MsgResponse, body)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ---------------------------------------------------------------------------
// Asset server (CDN downloads)

// AssetServer serves the large background downloads of §5.2 over HTTPS.
type AssetServer struct {
	stack *transport.Stack
}

// maxAssetBytes bounds any single asset/CDN response (512 MiB): download
// sizes come off the wire as a 32-bit field, and the allocation they demand
// must be capped, not trusted.
const maxAssetBytes = 512 << 20

func newAssetServer(d *Deployment, p *Profile, h *netsim.Host) *AssetServer {
	s := &AssetServer{stack: transport.NewStack(d.Net, h)}
	s.stack.ListenTCP(PortAsset, func(conn *transport.Conn) {
		var reader *secure.MsgReader
		sess := secure.Server(conn)
		reader = &secure.MsgReader{OnMsg: func(kind byte, body []byte) {
			if kind != secure.MsgRequest || len(body) < 5 || body[0] != reqAsset {
				return
			}
			n := int(binary.BigEndian.Uint32(body[1:5]))
			if n > maxAssetBytes {
				return
			}
			sess.SendMsg(secure.MsgResponse, make([]byte, n))
		}}
		sess.OnData = reader.Feed
	})
	return s
}

// ---------------------------------------------------------------------------
// Hubs SFU (WebRTC voice)

// SFUServer forwards RTP voice among room members and answers RTCP sender
// reports — the "central routing machine" of the Hubs documentation.
type SFUServer struct {
	dep   *Deployment
	be    *Backend
	stack *transport.Stack
	sock  *transport.UDPSocket

	members map[packet.Endpoint]string // endpoint -> user
	rooms   map[string][]packet.Endpoint
	roomOf  map[packet.Endpoint]string
}

func newSFUServer(d *Deployment, p *Profile, be *Backend, h *netsim.Host) *SFUServer {
	s := &SFUServer{
		dep: d, be: be,
		stack:   transport.NewStack(d.Net, h),
		members: make(map[packet.Endpoint]string),
		rooms:   make(map[string][]packet.Endpoint),
		roomOf:  make(map[packet.Endpoint]string),
	}
	sock, err := s.stack.BindUDP(PortSFU)
	if err != nil {
		panic(err)
	}
	s.sock = sock
	sock.OnRecv = s.onDatagram
	return s
}

func (s *SFUServer) onDatagram(src packet.Endpoint, payload []byte) {
	if len(payload) == 0 {
		return
	}
	if payload[0] == kindHello {
		h, err := parseHello(payload)
		if err != nil {
			s.dep.Metrics().Inc("platform.wire_parse_err")
			return
		}
		if _, known := s.members[src]; !known {
			s.members[src] = h.User
			s.rooms[h.Room] = append(s.rooms[h.Room], src)
			s.roomOf[src] = h.Room
		}
		return
	}
	if payload[0]>>6 != 2 {
		// Neither a hello nor an RTP/RTCP v2 frame: don't relay garbage.
		s.dep.Metrics().Inc("platform.wire_unknown_kind")
		return
	}
	if packet.IsRTCP(payload) {
		rep, err := packet.DecodeRTCP(payload)
		if err != nil {
			s.dep.Metrics().Inc("platform.wire_parse_err")
			return
		}
		if rep.Type != packet.RTCPSenderReport {
			return
		}
		// Answer with a receiver report so the client measures client↔SFU
		// RTT, as chrome://webrtc-internals reports.
		rr := packet.MarshalRTCP(packet.RTCPPacket{
			Type: packet.RTCPReceiverReport, SSRC: rep.SSRC, LSR: rep.LSR, DLSR: 0,
		})
		s.sock.SendTo(src, rr)
		return
	}
	// RTP voice frame: forward to the other members of the room.
	room := s.roomOf[src]
	if room == "" {
		return
	}
	for _, ep := range s.rooms[room] {
		if ep != src {
			s.sock.SendTo(ep, payload)
		}
	}
}

// DecimationPolicy is the §6.2-discussed optimization of reducing the
// update rate for avatars the recipient is not interacting with: updates
// from senders farther than InteractRadius are forwarded only once every
// Factor updates. Off by default on every platform (the paper observes no
// platform doing this); the `decimate` ablation turns it on.
type DecimationPolicy struct {
	Factor         int     // forward every Factor-th update (≥2 to take effect)
	InteractRadius float64 // meters within which full rate is kept
}

// SetDecimation installs (or clears, with nil) the decimation policy.
func (b *Backend) SetDecimation(p *DecimationPolicy) { b.decimation = p }

// decimated reports whether this update to recipient o should be skipped.
func (b *Backend) decimated(m, o *Member, seq uint32) bool {
	d := b.decimation
	if d == nil || d.Factor < 2 {
		return false
	}
	if o.pose.Pos.Sub(m.pose.Pos).Len() <= d.InteractRadius {
		return false
	}
	return seq%uint32(d.Factor) != 0
}
