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
	Muted          bool   // join mutely (the Table 3 differencing method)
	Wander         bool   // walk around automatically
	UsePrivateHubs bool   // connect to the self-hosted Hubs deployment
	RoomName       string // set at JoinEvent

	rng    *rand.Rand
	space  *world.Space
	walker *world.Walker

	ctrlConn   *transport.Conn
	ctrl       *secure.Session
	ctrlReader *secure.MsgReader

	dataSock *transport.UDPSocket
	dataEP   packet.Endpoint
	voice    *rtpx.Stream

	lbIndex     int
	clockOffset time.Duration

	// Live state.
	InEvent  bool
	seq      uint32
	talking  bool
	gameOn   bool
	udpDead  bool
	Frozen   bool
	FrozenAt time.Duration

	remotes map[string]*remoteAvatar

	// Worlds downlink-recovery tracking (§8.1).
	lastSyncSeq, lastGameSeq uint32
	lostPkts, gotPkts        int
	recoverFrac              float64

	lastDownAt time.Duration
	sawDown    bool

	gesture       avatar.Gesture
	gestureUntil  time.Duration
	pendingAction uint32

	stops    []func()
	menuStop func()

	// OnActionDisplayed fires when a marked remote action is rendered
	// (receiver side of the §7 latency rig). The time is the local clock.
	OnActionDisplayed func(actionID uint32, atLocal time.Duration)

	// ForwardsReceived counts avatar forwards (test observability).
	ForwardsReceived int
	VoiceFwdReceived int
}

type remoteAvatar struct {
	pose    world.Pose
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
		Dep:     d,
		Profile: p,
		User:    user,
		Host:    h,
		Stack:   transport.NewStack(d.Net, h),
		rng:     rand.New(rand.NewSource(int64(hostOctet)*7919 ^ d.rng.Int63())),
		space:   world.NewSpace(20),
		remotes: make(map[string]*remoteAvatar),
	}
	c.Headset = device.NewHeadset(device.Quest2, p.Cost, c.rng)
	c.Headset.AvatarsInScene = 1
	// Each headset has its own unsynchronized clock (the §7 challenge).
	c.clockOffset = time.Duration(c.rng.Int63n(int64(4*time.Second))) - 2*time.Second
	d.lbCounter++
	c.lbIndex = d.lbCounter
	c.space.Place(user, world.Pose{Pos: c.space.Center()})
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
	ep := c.Dep.ControlEndpoint(c.Profile, c.Host.Site)
	if c.UsePrivateHubs && c.Dep.privateHubsCtrl.Addr != 0 {
		ep = c.Dep.privateHubsCtrl
	}
	c.ctrlConn = c.Stack.DialTCP(ep)
	c.ctrl = secure.Client(c.ctrlConn)
	c.ctrlReader = &secure.MsgReader{OnMsg: c.onCtrlMsg}
	c.ctrl.OnData = c.ctrlReader.Feed
	c.ctrl.OnEstablished = func() {
		c.request(reqLogin, nil)
		if n := c.Profile.Traffic.InitDownloadBytes; n > 0 {
			c.download(n)
		}
	}
	// Welcome-page menu browsing.
	c.menuStop = c.Dep.Sched.Ticker(7*time.Second, func() {
		if !c.InEvent {
			c.request(reqMenu, nil)
		}
	})
	// Device monitoring runs for the whole session.
	c.Monitor = device.AttachObserved(c.Dep.Sched, c.Headset, c.Dep.Metrics())
	c.stops = append(c.stops, c.Dep.Sched.Ticker(time.Second, c.sceneTick))
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
// never looks at the asset, so the session has no OnData: it only counts
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

// JoinEvent enters a social event. Position defaults to a random spot; use
// StandAt/Turn/Wander to choreograph experiments. Room and user names must
// fit the wire format's 255-byte length prefix; longer names are a
// configuration error, rejected here (loudly) rather than silently
// truncated into a desynced hello frame.
func (c *Client) JoinEvent(room string) {
	if len(room) > 255 || len(c.User) > 255 {
		panic(fmt.Sprintf("platform: JoinEvent: room %q / user %q exceed the 255-byte wire limit", room, c.User))
	}
	c.RoomName = room
	c.InEvent = true
	if c.menuStop != nil {
		c.menuStop()
		c.menuStop = nil
	}
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
			sfu := c.Dep.VoiceEndpoint(p, c.Host.Site)
			if c.UsePrivateHubs && c.Dep.privateHubsSFU.Addr != 0 {
				sfu = c.Dep.privateHubsSFU
			}
			hello, err := marshalHello(helloMsg{Room: room, User: c.User})
			if err != nil {
				panic(fmt.Sprintf("platform: JoinEvent(%q): %v", room, err))
			}
			sock.SendTo(sfu, hello)
			c.voice = rtpx.NewStream(c.Dep.Sched, sock, sfu, uint32(c.lbIndex), true)
			c.voice.OnVoice = func(seq uint16, payload []byte) { c.VoiceFwdReceived++ }
		}
	} else {
		sock, err := c.Stack.BindUDP(0)
		if err != nil {
			panic(err)
		}
		c.dataSock = sock
		c.dataEP = c.Dep.DataEndpoint(p, c.Host.Site, c.lbIndex)
		sock.OnRecv = c.onDatagram
		hello, err := marshalHello(helloMsg{Room: room, User: c.User})
		if err != nil {
			panic(fmt.Sprintf("platform: JoinEvent(%q): %v", room, err))
		}
		sock.SendTo(c.dataEP, hello)
	}

	if c.Wander {
		c.walker = world.NewWalker(c.rng, c.space, c.User)
	}
	c.startEventTickers()
}

func (c *Client) startEventTickers() {
	p := c.Profile
	sched := c.Dep.Sched

	// Avatar pose updates at the platform's tick rate.
	avatarInterval := time.Second / time.Duration(p.Codec.UpdateHz)
	c.stops = append(c.stops, sched.Ticker(avatarInterval, func() {
		if c.walker != nil {
			c.walker.Step(avatarInterval.Seconds())
		}
		c.sendAvatar(0, 0)
	}))

	// Heartbeat/state uplink.
	if p.Traffic.HeartbeatUpBps > 0 && !p.WebData {
		const payload = 60
		wire := payload + 5 + 33
		iv := time.Duration(float64(wire*8) / p.Traffic.HeartbeatUpBps * float64(time.Second))
		c.stops = append(c.stops, sched.Ticker(iv, func() {
			c.sendData(marshalSeq(seqMsg{Kind: kindTelemetry, Seq: 0, Size: payload}))
		}))
	}
	if p.Traffic.HeartbeatUpBps > 0 && p.WebData {
		// Web platform: heartbeats ride HTTPS.
		iv := 2 * time.Second
		n := int(p.Traffic.HeartbeatUpBps / 8 * iv.Seconds())
		c.stops = append(c.stops, sched.Ticker(iv, func() {
			c.request(reqReport, make([]byte, n))
		}))
	}

	// Worlds status telemetry (uplink-only, absorbed by the server).
	if p.Traffic.TelemetryUpBps > 0 {
		const payload = 450
		wire := payload + 5 + 33
		iv := time.Duration(float64(wire*8) / p.Traffic.TelemetryUpBps * float64(time.Second))
		var tseq uint32
		c.stops = append(c.stops, sched.Ticker(iv, func() {
			tseq++
			c.sendData(marshalSeq(seqMsg{Kind: kindTelemetry, Seq: tseq, Size: payload}))
		}))
	}

	// Periodic control-channel report spikes (§4.1).
	if p.Traffic.ReportInterval > 0 {
		c.stops = append(c.stops, sched.Ticker(p.Traffic.ReportInterval, func() {
			c.request(reqReport, make([]byte, p.Traffic.ReportUpBytes))
		}))
	}

	// Voice: two-state talk-spurt model reaching the profile duty cycle.
	if !c.Muted {
		c.stops = append(c.stops, sched.Ticker(time.Second, c.voiceStateTick))
		if !p.WebData {
			var vseq uint32
			c.stops = append(c.stops, sched.Ticker(20*time.Millisecond, func() {
				if c.talking && !c.udpDead {
					vseq++
					c.sendData(marshalSeq(seqMsg{Kind: kindVoice, Seq: vseq, Size: 80}))
				}
			}))
		}
	}

	// Game-state stream (enabled by SetGame).
	if p.Game.UpBps > 0 {
		const payload = 300
		wire := payload + 5 + 33
		iv := time.Duration(float64(wire*8) / p.Game.UpBps * float64(time.Second))
		var gseq uint32
		c.stops = append(c.stops, sched.Ticker(iv, func() {
			if !c.gameOn {
				return
			}
			gseq++
			c.sendData(marshalSeq(seqMsg{Kind: kindGame, Seq: gseq, Size: payload}))
		}))
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
	if c.udpDead || c.dataSock == nil || c.Profile.WebData {
		return false
	}
	if c.Profile.TCPPriority && c.ctrlConn != nil &&
		(c.ctrlConn.Unacked() > 0 || c.ctrlConn.Buffered() > 0) {
		return false
	}
	// Under downlink pressure the client spends its cycles on recovery and
	// skips send ticks, producing the uplink fluctuation of Figure 12(a).
	if c.recoverFrac > 0.05 && c.rng.Float64() < minf(0.6, 1.2*c.recoverFrac) {
		return false
	}
	c.dataSock.SendTo(c.dataEP, payload)
	return true
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// sendAvatar emits one pose update. A non-zero actionID marks the update
// for the latency rig. senderDelayed is the local-clock trigger time.
func (c *Client) sendAvatar(actionID uint32, triggeredLocal time.Duration) {
	if !c.InEvent {
		return
	}
	pose := c.pose3D()
	encoded := c.Profile.Codec.Encode(pose)
	// The sequence number advances only on actual transmission: a tick
	// skipped by the TCP-priority gate or the recovery loop is a rate
	// reduction, not wire loss, and must not read as a gap downstream.
	am := avatarMsg{Seq: c.seq + 1, ActionID: actionID, SentAtUs: int64(c.ReadClock() / time.Microsecond), Pose: encoded}
	if actionID != 0 {
		c.Dep.Trace(actionID).SentAt = c.Dep.Sched.Now()
		c.Dep.Net.Tracer.Action(c.Dep.Sched.Now(), uint64(actionID), c.Host.ID, "send")
		_ = triggeredLocal
	}
	if c.Profile.WebData {
		body, err := jsonEnvelope(marshalAvatar(am))
		if err != nil {
			// A pose too large for the envelope's 16-bit length prefix:
			// drop the update (a rate reduction, like the send gates above)
			// rather than emit a truncated frame.
			c.Dep.Metrics().Inc("platform.wire_marshal_err")
			return
		}
		c.ctrl.SendMsg(secure.MsgPush, body)
		c.seq++
		return
	}
	if c.sendData(marshalAvatar(am)) {
		c.seq++
	}
}

// pose3D builds the tracked 3D pose from the user's 2D world pose, with
// idle hand sway and the active gesture applied.
func (c *Client) pose3D() *avatar.Pose {
	wp, _ := c.space.PoseOf(c.User)
	rot := avatar.QuatFromYawDeg(wp.Yaw)
	sway := func() [3]float64 {
		return [3]float64{
			wp.Pos.X + c.rng.Float64()*0.1 - 0.05,
			1.2 + c.rng.Float64()*0.2,
			wp.Pos.Y + c.rng.Float64()*0.1 - 0.05,
		}
	}
	p := &avatar.Pose{
		Head:  avatar.Joint{Pos: [3]float64{wp.Pos.X, 1.7, wp.Pos.Y}, Rot: rot},
		Torso: avatar.Joint{Pos: [3]float64{wp.Pos.X, 1.2, wp.Pos.Y}, Rot: rot},
		Hands: [2]avatar.Joint{{Pos: sway(), Rot: rot}, {Pos: sway(), Rot: rot}},
		Face:  make([]uint8, 104),
	}
	for i := 0; i < c.Profile.Codec.BodyJoints; i++ {
		p.Body = append(p.Body, avatar.Joint{Pos: sway(), Rot: rot})
	}
	if c.gesture != avatar.GestureNone && c.Dep.Sched.Now() < c.gestureUntil {
		p.ApplyGesture(c.gesture)
		if c.gesture == avatar.GestureThumbsUp {
			p.Fingers = [2][5]uint8{{10, 255, 255, 255, 255}, {128, 128, 128, 128, 128}}
		}
	}
	return p
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
	c.Dep.Net.Tracer.Action(c.Dep.Sched.Now(), uint64(id), c.Host.ID, "trigger")
	L := c.Profile.Latency
	delay := L.SenderMs + c.rng.NormFloat64()*L.SenderJitterMs*0.8
	if delay < 1 {
		delay = 1
	}
	c.Dep.Sched.After(time.Duration(delay*float64(time.Millisecond)), func() {
		c.sendAvatar(id, tr.TriggeredAtLocal)
	})
	return id
}

// onDatagram handles data-channel downlink.
func (c *Client) onDatagram(src packet.Endpoint, payload []byte) {
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

// handleForward integrates another user's avatar update.
func (c *Client) handleForward(f forwardMsg) {
	now := c.Dep.Sched.Now()
	r, ok := c.remotes[f.User]
	if !ok {
		r = &remoteAvatar{}
		c.remotes[f.User] = r
	}
	if pose, err := c.Profile.Codec.Decode(f.Pose); err == nil {
		r.pose = world.Pose{
			Pos: world.Vec2{X: pose.Head.Pos[0], Y: pose.Head.Pos[2]},
			Yaw: world.NormalizeDeg(pose.Head.Rot.YawDeg()),
		}
	}
	r.lastAt = now
	c.ForwardsReceived++
	// Gaps in a peer's forwarded stream count as missing data for the
	// recovery model — this is how a peer's constrained uplink bleeds into
	// this client's CPU and uplink (§8.1).
	c.trackLoss(&r.lastSeq, f.Seq)

	if f.ActionID != 0 {
		rt := c.Dep.Trace(f.ActionID).Receiver(c.User)
		rt.ReceivedAt = now
		c.Dep.Net.Tracer.Action(now, uint64(f.ActionID), c.Host.ID, "recv")
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
			c.Dep.Net.Tracer.Action(c.Dep.Sched.Now(), uint64(f.ActionID), c.Host.ID, "display")
			if c.OnActionDisplayed != nil {
				c.OnActionDisplayed(f.ActionID, rt.DisplayedAtLocal)
			}
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
	fresh := 0
	for _, r := range c.remotes {
		if now-r.lastAt < 2500*time.Millisecond {
			fresh++
		}
	}
	c.Headset.AvatarsInScene = 1 + fresh

	// Recovery processing under downlink loss (Worlds, §8.1): missing data
	// burns CPU and stale-frame reuse relieves the GPU.
	if c.Profile.TCPPriority && c.InEvent {
		total := c.lostPkts + c.gotPkts
		if total > 4 {
			c.recoverFrac = float64(c.lostPkts) / float64(total)
		} else if !c.udpDead {
			c.recoverFrac *= 0.5
		}
		c.lostPkts, c.gotPkts = 0, 0
		c.Headset.ExtraCPUms = minf(14, 30*c.recoverFrac)
		c.Headset.GPUReliefms = 4 * c.recoverFrac

		// Frozen-session detector: sustained downlink silence kills the
		// app-level UDP session for good (Figure 13 bottom).
		if c.sawDown && !c.udpDead && c.dataSock != nil && now-c.lastDownAt > 15*time.Second {
			c.udpDead = true
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
		c.sendData(marshalSeq(seqMsg{Kind: kindGame, Seq: 0, Size: 40}))
	}
}

// StandAt stops wandering and pins the user's pose.
func (c *Client) StandAt(pos world.Vec2, yaw float64) {
	if c.walker != nil {
		c.walker.SetActive(false)
	}
	c.space.Place(c.User, world.Pose{Pos: pos, Yaw: yaw})
}

// Turn snap-turns the avatar by the given controller clicks (±22.5° each).
func (c *Client) Turn(clicks int) {
	p, _ := c.space.PoseOf(c.User)
	c.space.Place(c.User, world.SnapTurn(p, clicks))
}

// PoseNow returns the user's current world pose.
func (c *Client) PoseNow() world.Pose {
	p, _ := c.space.PoseOf(c.User)
	return p
}

// RemotePose returns the last known pose of another user, if any update has
// arrived.
func (c *Client) RemotePose(user string) (world.Pose, bool) {
	r, ok := c.remotes[user]
	if !ok {
		return world.Pose{}, false
	}
	return r.pose, true
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

// Leave exits the event and stops all event tickers.
func (c *Client) Leave() {
	if c.dataSock != nil && !c.Profile.WebData {
		c.dataSock.SendTo(c.dataEP, []byte{kindLeave})
	}
	c.InEvent = false
	for _, s := range c.stops {
		s()
	}
	c.stops = nil
	if c.voice != nil {
		c.voice.Close()
	}
	if c.Monitor != nil {
		c.Monitor.Stop()
	}
}

func (c *Client) onCtrlMsg(kind byte, body []byte) {
	if kind != secure.MsgPush {
		return
	}
	// Web-platform downlink: pushed avatar forwards and sync.
	inner, err := fromJSONEnvelope(body)
	if err != nil {
		// Non-envelope push (sync filler).
		if len(body) > 0 && body[0] == kindSync {
			if m, err := parseSeq(body); err == nil {
				c.trackLoss(&c.lastSyncSeq, m.Seq)
			}
		}
		return
	}
	if len(inner) > 0 && inner[0] == kindForward {
		if f, err := parseForward(inner); err == nil {
			c.handleForward(f)
		}
	}
}

// String describes the client.
func (c *Client) String() string {
	return fmt.Sprintf("%s/%s@%s", c.Profile.Name, c.User, c.Host.Site.Name)
}
