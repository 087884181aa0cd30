package platform

import (
	"testing"
	"time"

	"github.com/svrlab/svrlab/internal/avatar"
	"github.com/svrlab/svrlab/internal/capture"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/simtime"
	"github.com/svrlab/svrlab/internal/world"
)

// startPair launches two muted clients at t=0 and joins both to room at
// t=1s, as the experiments schedule a session.
func startPair(sched *simtime.Scheduler, room string, u1, u2 *Client) {
	for _, c := range []*Client{u1, u2} {
		c.Muted = true
		sched.At(0, c.Launch)
		sched.At(time.Second, func() { c.JoinEvent(room) })
	}
}

func TestTimedActionsDriveFullSession(t *testing.T) {
	sched := simtime.NewScheduler()
	dep := NewDeployment(sched, 201, nil)
	u1 := NewClient(dep, VRChat, "s1", SiteCampus, 10)
	u2 := NewClient(dep, VRChat, "s2", SiteCampus, 11)
	startPair(sched, "scripted", u1, u2)

	var actionID uint32
	sched.At(2*time.Second, func() { u1.StandAt(world.Vec2{X: 5, Y: 5}, 90) })
	sched.At(5*time.Second, func() { u1.Turn(4) })
	sched.At(6*time.Second, func() { u1.PerformGesture(avatar.GestureWave) })
	sched.At(11*time.Second, func() { actionID = u1.PerformAction() })
	sched.RunUntil(16 * time.Second)

	// The stand+turn choreography applied: 90° + 4×22.5° = 180°.
	if got := u1.worldPose; got.Yaw != 180 || got.Pos != (world.Vec2{X: 5, Y: 5}) {
		t.Fatalf("pose = %+v", got)
	}
	if u1.gesture != avatar.GestureWave || u1.gestureUntil != 8*time.Second {
		t.Fatalf("gesture = %v until %v, want a wave held until 8s", u1.gesture, u1.gestureUntil)
	}
	if actionID == 0 {
		t.Fatal("the action did not fire")
	}
	if !dep.Trace(actionID).Receiver("s2").Displayed {
		t.Fatal("timed action never displayed at the peer")
	}
}

func TestGameModeRaisesUplink(t *testing.T) {
	sched := simtime.NewScheduler()
	dep := NewDeployment(sched, 203, nil)
	u1 := NewClient(dep, Worlds, "g1", SiteCampus, 10)
	u2 := NewClient(dep, Worlds, "g2", SiteCampus, 11)
	startPair(sched, "game", u1, u2)
	sched.At(10*time.Second, func() { u1.SetGame(true) })
	sniff := capture.Attach(u1.Host)
	sched.RunUntil(16 * time.Second)
	udpUp := capture.MatchUp(capture.FilterProto(packet.ProtoUDP))
	base := sniff.MeanBps(udpUp, 5*time.Second, 9*time.Second)
	game := sniff.MeanBps(udpUp, 12*time.Second, 16*time.Second)
	if game < base*1.2 {
		t.Fatalf("game mode did not raise UDP uplink: %.0f -> %.0f bps", base, game)
	}
}
