package platform

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"github.com/svrlab/svrlab/internal/avatar"
	"github.com/svrlab/svrlab/internal/device"
	"github.com/svrlab/svrlab/internal/netsim"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/rtpx"
	"github.com/svrlab/svrlab/internal/secure"
	"github.com/svrlab/svrlab/internal/trace"
	"github.com/svrlab/svrlab/internal/transport"
	"github.com/svrlab/svrlab/internal/world"
)

// Client is one user's platform application running on a simulated device.
// It reproduces the full client behaviour the paper observes from outside:
// the welcome-page control traffic, background downloads, the event-time
// avatar/voice/telemetry streams, periodic HTTPS report spikes, Worlds'
// TCP-over-UDP priority, and the on-device rendering load.
type Client struct {
	Dep     *Deployment
	Profile *Profile
	User    string

	Host    *netsim.Host
	Stack   *transport.Stack
	Headset *device.Headset
	Monitor *device.Monitor

	// Options (set before Launch).
	Muted    bool   // join mutely (the Table 3 differencing method)
	Wander   bool   // walk around automatically
	RoomName string // set at JoinEvent

	rng       *rand.Rand
	worldPose world.Pose // the user's pose on the venue floor
	walker    *world.Walker

	ctrlConn *transport.Conn
	ctrl     *secure.Session

	dataSock *transport.UDPSocket
	dataEP   packet.Endpoint // dataSock's server: the data server, or the SFU on web platforms
	voice    *rtpx.Stream

	lbIndex     int
	clockOffset time.Duration

	// Live state.
	InEvent bool
	seq     uint32
	talking bool
	gameOn  bool
	// Frozen is set, for good, when the frozen-session detector kills the
	// app-level UDP session; no UDP data or voice is sent after it.
	Frozen   bool
	FrozenAt time.Duration

	remotes map[string]*remoteAvatar

	// Worlds downlink-recovery tracking (§8.1).
	lastSyncSeq, lastGameSeq uint32
	lostPkts, gotPkts        int
	recoverFrac              float64

	lastDownAt time.Duration
	sawDown    bool

	gesture      avatar.Gesture
	gestureUntil time.Duration

	// The avatar path's reused state: pose3D fills pose and sendAvatar
	// encodes it into txBuf (and, on web platforms, wraps that in envBuf);
	// sendSeq builds its frames in txBuf too.
	pose   avatar.Pose
	txBuf  []byte
	envBuf []byte

	// ForwardsReceived counts avatar forwards (test observability).
	ForwardsReceived int
	VoiceFwdReceived int
}

// venue is the room every client's avatar moves in; the paper's venues are
// on the order of 20 m.
var venue = world.Space{Size: 20}

type remoteAvatar struct {
	lastAt  time.Duration
	lastSeq uint32
}

// NewClient creates a client on a fresh WiFi host at the given site.
// hostOctet must be unique per site (≥10 recommended; low octets are used
// by routers and probes).
func NewClient(d *Deployment, name Name, user, siteName string, hostOctet int) *Client {
	p := Get(name)
	h := d.AddVantage("client-"+user, siteName, hostOctet)
	c := &Client{
		Dep:       d,
		Profile:   p,
		User:      user,
		Host:      h,
		Stack:     transport.NewStack(d.Net, h),
		rng:       rand.New(rand.NewSource(int64(hostOctet)*7919 ^ d.rng.Int63())),
		worldPose: world.Pose{Pos: venue.Center()},
		remotes:   make(map[string]*remoteAvatar),
	}
	c.pose.Body = make([]avatar.Joint, p.Codec.BodyJoints)
	c.pose.Face = make([]uint8, p.Codec.FaceCoeffs)
	c.Headset = device.NewHeadset(device.Quest2, p.Cost, c.rng)
	c.Headset.AvatarsInScene = 1
	// Each headset has its own unsynchronized clock (the §7 challenge).
	c.clockOffset = time.Duration(c.rng.Int63n(int64(4*time.Second))) - 2*time.Second
	d.lbCounter++
	c.lbIndex = d.lbCounter
	return c
}

// SetDevice switches the device class (Quest 2 is the default).
func (c *Client) SetDevice(class device.Class) {
	c.Headset = device.NewHeadset(class, c.Profile.Cost, c.rng)
	c.Headset.AvatarsInScene = 1
}

// ReadClock returns the device's local clock — sim time plus the device's
// unknown offset.
func (c *Client) ReadClock() time.Duration { return c.Dep.Sched.Now() + c.clockOffset }

// MeasureClockOffset performs the paper's AP-based synchronization (the
// "adb shell echo $EPOCHREALTIME" procedure): it returns the device's clock
// offset as measured from the AP, accurate to well under a millisecond.
func (c *Client) MeasureClockOffset() time.Duration {
	errUs := c.rng.Int63n(600) - 300
	return c.clockOffset + time.Duration(errUs)*time.Microsecond
}

// Launch connects the control channel, logs in, performs the initialization
// download, and begins welcome-page behaviour. Call on the scheduler (e.g.
// sched.At(0, client.Launch)).
func (c *Client) Launch() {
	c.ctrlConn = c.Stack.DialTCP(c.Dep.ControlEndpoint(c.Profile, c.Host.Site))
	c.ctrl = secure.Client(c.ctrlConn)
	c.ctrl.OnMsg = c.onCtrlMsg
	c.ctrl.OnEstablished = func() {
		c.request(reqLogin, nil)
		if n := c.Profile.Traffic.InitDownloadBytes; n > 0 {
			c.download(n)
		}
	}
	// Welcome-page menu browsing.
	c.Dep.Sched.Ticker(7*time.Second, func() {
		if !c.InEvent {
			c.request(reqMenu, nil)
		}
	})
	// Device monitoring runs for the whole session.
	c.Monitor = device.Attach(c.Dep.Sched, c.Headset)
	c.Dep.Net.RegisterEndpoint(c.Monitor)
	c.Dep.Sched.Ticker(time.Second, c.sceneTick)
}

// request issues a control-channel request. User and room names longer
// than the wire format's 255-byte length prefix are a configuration error
// and rejected at session setup (see JoinEvent) — they can never reach here.
func (c *Client) request(reqType byte, rest []byte) {
	body, err := marshalCtrlReq(reqType, c.User, c.RoomName, rest)
	if err != nil {
		panic(fmt.Sprintf("platform: client %q room %q: %v", c.User, c.RoomName, err))
	}
	c.ctrl.SendMsg(secure.MsgRequest, body)
}

// download fetches n bytes from the platform's asset/CDN host over a
// dedicated HTTPS connection (the §5.2 background downloads). The client
// never looks at the asset, so the session has no OnMsg: it only counts
// the response's bytes as they arrive.
func (c *Client) download(n int) *secure.Session {
	ep := c.Dep.AssetEndpoint(c.Profile)
	sess := secure.Client(c.Stack.DialTCP(ep))
	req := make([]byte, 5)
	req[0] = reqAsset
	binary.BigEndian.PutUint32(req[1:5], uint32(n))
	sess.SendMsg(secure.MsgRequest, req)
	return sess
}

// JoinEvent enters a social event. The user stands at the venue's center
// until StandAt/Turn/Wander choreograph the experiment. Room and user names
// must fit the wire format's 255-byte length prefix; longer names are a
// configuration error, rejected here (loudly) rather than silently
// truncated into a desynced hello frame.
func (c *Client) JoinEvent(room string) {
	if len(room) > 255 || len(c.User) > 255 {
		panic(fmt.Sprintf("platform: JoinEvent: room %q / user %q exceed the 255-byte wire limit", room, c.User))
	}
	c.RoomName = room
	c.InEvent = true
	if n := c.Profile.Traffic.JoinDownloadBytes; n > 0 {
		c.download(n) // Hubs re-downloads the scene every join (§5.2)
	}

	p := c.Profile
	if p.WebData {
		c.request(reqJoin, nil)
		// Voice via the WebRTC SFU.
		sock, err := c.Stack.BindUDP(0)
		if err == nil {
			c.dataSock = sock
			c.dataEP = c.Dep.VoiceEndpoint(p, c.Host.Site)
			hello, err := marshalHello(helloMsg{Room: room, User: c.User})
			if err != nil {
				panic(fmt.Sprintf("platform: JoinEvent(%q): %v", room, err))
			}
			sock.SendTo(c.dataEP, hello)
			c.voice = rtpx.NewStream(c.Dep.Sched, sock, c.dataEP, uint32(c.lbIndex), true)
			c.voice.OnVoice = func(seq uint16, payload []byte) { c.VoiceFwdReceived++ }
		}
	} else {
		sock, err := c.Stack.BindUDP(0)
		if err != nil {
			panic(err)
		}
		c.dataSock = sock
		c.dataEP = c.Dep.DataEndpoint(p, c.Host.Site, c.lbIndex)
		sock.OnRecv = c.onDownlink
		hello, err := marshalHello(helloMsg{Room: room, User: c.User})
		if err != nil {
			panic(fmt.Sprintf("platform: JoinEvent(%q): %v", room, err))
		}
		sock.SendTo(c.dataEP, hello)
	}

	if c.Wander {
		c.walker = world.NewWalker(c.rng, venue, &c.worldPose)
	}
	c.startEventTickers()
}

func (c *Client) startEventTickers() {
	p := c.Profile
	sched := c.Dep.Sched

	// Avatar pose updates at the platform's tick rate.
	avatarInterval := time.Second / time.Duration(p.Codec.UpdateHz)
	sched.Ticker(avatarInterval, func() {
		if c.walker != nil {
			c.walker.Step(avatarInterval.Seconds())
		}
		c.sendAvatar(0)
	})

	// Heartbeat/state uplink.
	if p.Traffic.HeartbeatUpBps > 0 && !p.WebData {
		const payload = 60
		sched.Ticker(seqInterval(payload, p.Traffic.HeartbeatUpBps), func() {
			c.sendSeq(seqMsg{Kind: kindTelemetry, Seq: 0, Size: payload})
		})
	}
	if p.Traffic.HeartbeatUpBps > 0 && p.WebData {
		// Web platform: heartbeats ride HTTPS.
		iv := 2 * time.Second
		n := int(p.Traffic.HeartbeatUpBps / 8 * iv.Seconds())
		sched.Ticker(iv, func() {
			c.request(reqReport, make([]byte, n))
		})
	}

	// Worlds status telemetry (uplink-only, absorbed by the server).
	if p.Traffic.TelemetryUpBps > 0 {
		const payload = 450
		var tseq uint32
		sched.Ticker(seqInterval(payload, p.Traffic.TelemetryUpBps), func() {
			tseq++
			c.sendSeq(seqMsg{Kind: kindTelemetry, Seq: tseq, Size: payload})
		})
	}

	// Periodic control-channel report spikes (§4.1).
	if p.Traffic.ReportInterval > 0 {
		sched.Ticker(p.Traffic.ReportInterval, func() {
			c.request(reqReport, make([]byte, p.Traffic.ReportUpBytes))
		})
	}

	// Voice: two-state talk-spurt model reaching the profile duty cycle.
	if !c.Muted {
		sched.Ticker(time.Second, c.voiceStateTick)
		if !p.WebData {
			var vseq uint32
			sched.Ticker(20*time.Millisecond, func() {
				if c.talking && !c.Frozen {
					vseq++
					c.sendSeq(seqMsg{Kind: kindVoice, Seq: vseq, Size: 80})
				}
			})
		}
	}

	// Game-state stream (enabled by SetGame).
	if p.Game.UpBps > 0 {
		const payload = 300
		var gseq uint32
		sched.Ticker(seqInterval(payload, p.Game.UpBps), func() {
			if !c.gameOn {
				return
			}
			gseq++
			c.sendSeq(seqMsg{Kind: kindGame, Seq: gseq, Size: payload})
		})
	}
}

// voiceStateTick advances the talk-spurt Markov chain: mean spurt ~3 s, off
// time set by the duty cycle.
func (c *Client) voiceStateTick() {
	duty := c.Profile.Traffic.VoiceDuty
	if duty <= 0 {
		return
	}
	if c.talking {
		if c.rng.Float64() < 1.0/3.0 {
			c.talking = false
		}
	} else {
		offMean := 3 * (1 - duty) / duty
		if c.rng.Float64() < 1.0/offMean {
			c.talking = true
		}
	}
	if c.voice != nil {
		c.voice.SetMuted(!c.talking)
	}
}

// sendData transmits a data-channel payload, honouring Worlds' TCP-priority
// gate: UDP is held back while control-channel TCP data is unacknowledged
// (§8.1, Figure 13).
func (c *Client) sendData(payload []byte) bool {
	if c.Frozen || c.dataSock == nil || c.Profile.WebData {
		return false
	}
	if c.Profile.TCPPriority && c.ctrlConn != nil &&
		(c.ctrlConn.Unacked() > 0 || c.ctrlConn.Buffered() > 0) {
		return false
	}
	// Under downlink pressure the client spends its cycles on recovery and
	// skips send ticks, producing the uplink fluctuation of Figure 12(a).
	if c.recoverFrac > 0.05 && c.rng.Float64() < min(0.6, 1.2*c.recoverFrac) {
		return false
	}
	c.dataSock.SendTo(c.dataEP, payload)
	return true
}

// sendSeq sends one seq filler frame through sendData.
func (c *Client) sendSeq(m seqMsg) {
	c.txBuf = appendSeq(c.txBuf[:0], m)
	c.sendData(c.txBuf)
}

// sendAvatar emits one pose update. A non-zero actionID marks the update
// for the latency rig.
func (c *Client) sendAvatar(actionID uint32) {
	if !c.InEvent {
		return
	}
	c.pose3D()
	// The sequence number advances only on actual transmission: a tick
	// skipped by the TCP-priority gate or the recovery loop is a rate
	// reduction, not wire loss, and must not read as a gap downstream.
	c.txBuf = appendAvatar(c.txBuf[:0], avatarMsg{Seq: c.seq + 1, ActionID: actionID, SentAtUs: int64(c.ReadClock() / time.Microsecond)})
	c.txBuf = c.Profile.Codec.Encode(c.txBuf, &c.pose)
	if actionID != 0 {
		c.Dep.Trace(actionID).SentAt = c.Dep.Sched.Now()
		c.Host.Trace(trace.KindAction, uint64(actionID), "send", 0, 0)
	}
	if c.Profile.WebData {
		body, err := appendEnvelope(c.envBuf[:0], c.txBuf)
		if err != nil {
			// A pose too large for the envelope's 16-bit length prefix:
			// drop the update (a rate reduction, like the send gates above)
			// rather than emit a truncated frame.
			c.Dep.Metrics().Inc("platform.wire_marshal_err")
			return
		}
		c.envBuf = body
		c.ctrl.SendMsg(secure.MsgPush, body)
		c.seq++
		return
	}
	if c.sendData(c.txBuf) {
		c.seq++
	}
}

// pose3D fills c.pose, the tracked 3D pose, from the user's 2D world pose,
// with idle hand sway and the active gesture applied. It draws the sway of
// hand 0, then hand 1, then each body joint from c.rng.
func (c *Client) pose3D() {
	wp := c.worldPose
	rot := avatar.QuatFromYawDeg(wp.Yaw)
	sway := func() [3]float64 {
		return [3]float64{
			wp.Pos.X + c.rng.Float64()*0.1 - 0.05,
			1.2 + c.rng.Float64()*0.2,
			wp.Pos.Y + c.rng.Float64()*0.1 - 0.05,
		}
	}
	p := &c.pose
	p.Head = avatar.Joint{Pos: [3]float64{wp.Pos.X, 1.7, wp.Pos.Y}, Rot: rot}
	p.Torso = avatar.Joint{Pos: [3]float64{wp.Pos.X, 1.2, wp.Pos.Y}, Rot: rot}
	for i := range p.Hands {
		p.Hands[i] = avatar.Joint{Pos: sway(), Rot: rot}
	}
	for i := range p.Body {
		p.Body[i] = avatar.Joint{Pos: sway(), Rot: rot}
	}
	// A gesture lasts until gestureUntil: clear what the last one set.
	p.Fingers = [2][5]uint8{}
	clear(p.Face)
	if c.gesture != avatar.GestureNone && c.Dep.Sched.Now() < c.gestureUntil {
		p.ApplyGesture(c.gesture)
		if c.gesture == avatar.GestureThumbsUp {
			p.Fingers = [2][5]uint8{{10, 255, 255, 255, 255}, {128, 128, 128, 128, 128}}
		}
	}
}

// PerformGesture holds a controller gesture for two seconds; on platforms
// with facial expressions it drives the avatar's face (Figure 5).
func (c *Client) PerformGesture(g avatar.Gesture) {
	c.gesture = g
	c.gestureUntil = c.Dep.Sched.Now() + 2*time.Second
}

// PerformAction triggers a marked user action (the §7 finger-touch): after
// the device's sender-side processing latency, a marked avatar update goes
// out. Returns the action id for trace correlation. Action ids are
// deployment-local so concurrent labs never share counter state.
func (c *Client) PerformAction() uint32 {
	id := c.Dep.nextActionID()
	tr := c.Dep.Trace(id)
	tr.TriggeredAtLocal = c.ReadClock()
	c.Host.Trace(trace.KindAction, uint64(id), "trigger", 0, 0)
	L := c.Profile.Latency
	delay := L.SenderMs + c.rng.NormFloat64()*L.SenderJitterMs*0.8
	if delay < 1 {
		delay = 1
	}
	c.Dep.Sched.After(time.Duration(delay*float64(time.Millisecond)), func() {
		c.sendAvatar(id)
	})
	return id
}

// onDownlink handles one downlink frame from src: a datagram on the data
// socket, or on web platforms the frame a control-channel push carries.
func (c *Client) onDownlink(src packet.Endpoint, payload []byte) {
	if len(payload) == 0 {
		return
	}
	now := c.Dep.Sched.Now()
	c.lastDownAt = now
	c.sawDown = true
	switch payload[0] {
	case kindForward:
		f, err := parseForward(payload)
		if err != nil {
			c.Dep.Metrics().Inc("platform.wire_parse_err")
			return
		}
		c.handleForward(f)
	case kindSync:
		m, err := parseSeq(payload)
		if err != nil {
			c.Dep.Metrics().Inc("platform.wire_parse_err")
			return
		}
		c.trackLoss(&c.lastSyncSeq, m.Seq)
	case kindGameDown:
		m, err := parseSeq(payload)
		if err != nil {
			c.Dep.Metrics().Inc("platform.wire_parse_err")
			return
		}
		c.trackLoss(&c.lastGameSeq, m.Seq)
	case kindVoiceFwd:
		if _, _, err := parseVoiceFwd(payload); err != nil {
			c.Dep.Metrics().Inc("platform.wire_parse_err")
			return
		}
		c.VoiceFwdReceived++
	case kindKeepalive:
		// liveness only
	default:
		c.Dep.Metrics().Inc("platform.wire_unknown_kind")
	}
}

// handleForward integrates another user's avatar update. f's views are
// valid only during the call.
func (c *Client) handleForward(f forwardMsg) {
	now := c.Dep.Sched.Now()
	r, ok := c.remotes[string(f.User)]
	if !ok {
		r = &remoteAvatar{}
		c.remotes[string(f.User)] = r
	}
	r.lastAt = now
	c.ForwardsReceived++
	// Gaps in a peer's forwarded stream count as missing data for the
	// recovery model — this is how a peer's constrained uplink bleeds into
	// this client's CPU and uplink (§8.1).
	c.trackLoss(&r.lastSeq, f.Seq)

	if id := f.ActionID; id != 0 {
		rt := c.Dep.Trace(id).Receiver(c.User)
		rt.ReceivedAt = now
		c.Host.Trace(trace.KindAction, uint64(id), "recv", 0, 0)
		L := c.Profile.Latency
		n := len(c.remotes) + 1
		procMs := L.ReceiverMs + L.PerUserReceiverMs*float64(max(0, n-2)) + c.rng.NormFloat64()*L.ReceiverJitterMs*0.8
		if procMs < 1 {
			procMs = 1
		}
		// The action becomes visible on the next rendered frame.
		fps := c.Headset.FPSEstimate()
		frameWait := c.rng.Float64() * 1000 / fps
		delay := time.Duration((procMs + frameWait) * float64(time.Millisecond))
		c.Dep.Sched.After(delay, func() {
			rt.DisplayedAtLocal = c.ReadClock()
			rt.Displayed = true
			c.Host.Trace(trace.KindAction, uint64(id), "display", 0, 0)
		})
	}
}

// trackLoss accumulates downlink sequence gaps for the recovery model.
func (c *Client) trackLoss(last *uint32, seq uint32) {
	if *last != 0 && seq > *last+1 {
		c.lostPkts += int(seq - *last - 1)
	}
	*last = seq
	c.gotPkts++
}

// sceneTick runs once per second: render-load bookkeeping, the Worlds
// recovery model, and the frozen-session detector.
func (c *Client) sceneTick() {
	now := c.Dep.Sched.Now()
	c.Headset.AvatarsInScene = 1 + c.FreshRemotes()

	// Recovery processing under downlink loss (Worlds, §8.1): missing data
	// burns CPU and stale-frame reuse relieves the GPU.
	if c.Profile.TCPPriority && c.InEvent {
		total := c.lostPkts + c.gotPkts
		if total > 4 {
			c.recoverFrac = float64(c.lostPkts) / float64(total)
		} else if !c.Frozen {
			c.recoverFrac *= 0.5
		}
		c.lostPkts, c.gotPkts = 0, 0
		c.Headset.ExtraCPUms = min(14, 30*c.recoverFrac)
		c.Headset.GPUReliefms = 4 * c.recoverFrac

		// Frozen-session detector: sustained downlink silence kills the
		// app-level UDP session for good (Figure 13 bottom).
		if c.sawDown && !c.Frozen && c.dataSock != nil && now-c.lastDownAt > 15*time.Second {
			c.Frozen = true
			c.FrozenAt = now
		}
	}
}

// SetGame toggles the shooting-game mode (§8).
func (c *Client) SetGame(on bool) {
	c.gameOn = on
	if on && !c.Profile.WebData && c.dataSock != nil {
		// Announce game participation so the server starts the downlink
		// game stream.
		c.sendSeq(seqMsg{Kind: kindGame, Seq: 0, Size: 40})
	}
}

// StandAt stops wandering and pins the user's pose.
func (c *Client) StandAt(pos world.Vec2, yaw float64) {
	if c.walker != nil {
		c.walker.SetActive(false)
	}
	c.worldPose = venue.Clamp(world.Pose{Pos: pos, Yaw: yaw})
}

// Turn snap-turns the avatar by the given controller clicks (±22.5° each).
func (c *Client) Turn(clicks int) {
	c.worldPose = venue.Clamp(world.SnapTurn(c.worldPose, clicks))
}

// VoiceRTT returns the WebRTC (RTCP-derived) RTT estimate for web platforms
// — the paper's RTCIceCandidatePairStats substitute. Zero when unmeasured.
func (c *Client) VoiceRTT() time.Duration {
	if c.voice == nil {
		return 0
	}
	return c.voice.RTT
}

// DataEndpointAddr exposes the resolved data-channel server address (for
// infrastructure experiments). On web platforms the data channel rides the
// HTTPS control connection, so that connection's remote is the answer.
func (c *Client) DataEndpointAddr() packet.Addr {
	if c.Profile.WebData {
		if c.ctrlConn == nil {
			return 0
		}
		return c.ctrlConn.Remote.Addr
	}
	return c.dataEP.Addr
}

// LastRemoteUpdate returns the sim time the most recent avatar forward from
// any remote user arrived (0 before the first). The resilience experiment
// reads it to time avatar freezes around injected server crashes.
func (c *Client) LastRemoteUpdate() time.Duration {
	var last time.Duration
	for _, r := range c.remotes {
		if r.lastAt > last {
			last = r.lastAt
		}
	}
	return last
}

// FreshRemotes counts remote avatars with updates in the last 2.5 s.
func (c *Client) FreshRemotes() int {
	now := c.Dep.Sched.Now()
	n := 0
	for _, r := range c.remotes {
		if now-r.lastAt < 2500*time.Millisecond {
			n++
		}
	}
	return n
}

// onCtrlMsg takes a web platform's downlink off the control session: a
// push carries an avatar forward in its JSON envelope, or one of the
// server's own frames bare, and either frame goes to onDownlink.
func (c *Client) onCtrlMsg(kind byte, body []byte) {
	if kind != secure.MsgPush {
		return
	}
	if len(body) > 0 && body[0] == '{' {
		inner, err := fromJSONEnvelope(body)
		if err != nil {
			c.Dep.Metrics().Inc("platform.wire_parse_err")
			return
		}
		body = inner
	}
	c.onDownlink(c.ctrlConn.Remote, body)
}

// String describes the client.
func (c *Client) String() string {
	return fmt.Sprintf("%s/%s@%s", c.Profile.Name, c.User, c.Host.Site.Name)
}
