package platform

import (
	"testing"
	"time"

	"github.com/svrlab/svrlab/internal/device"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/rtpx"
	"github.com/svrlab/svrlab/internal/secure"
	"github.com/svrlab/svrlab/internal/simtime"
	"github.com/svrlab/svrlab/internal/transport"
)

// TestFlushMetricsFoldsEveryOwner: a Hubs lab puts every kind of counting
// owner on its fabric's endpoint list — transport stacks, TLS sessions,
// voice streams and headset monitors — and the one Network.FlushMetrics at
// teardown folds each one's totals: the registry's app-byte, voice, RTT and
// headset counts equal the sums of the owners' own records.
func TestFlushMetricsFoldsEveryOwner(t *testing.T) {
	sched := simtime.NewScheduler()
	dep := NewDeployment(sched, 42, nil)
	// Three talking users: the SFU relays each frame to two listeners, so
	// voice_recv is not voice_sent and a swapped name shows.
	for i := 0; i < 3; i++ {
		c := NewClient(dep, Hubs, "u"+itoa(i+1), SiteCampus, 10+i)
		sched.At(0, c.Launch)
		sched.At(time.Second, func() { c.JoinEvent("room-1") })
	}
	sched.RunUntil(20 * time.Second)
	dep.Net.FlushMetrics()

	want := make(map[string]int64)
	owners := make(map[string]int)
	for _, ep := range dep.Net.Endpoints() {
		switch o := ep.(type) {
		case *transport.Stack:
			owners["stack"]++
		case *secure.Session:
			owners["session"]++
			want["secure.app_bytes_sent"] += int64(o.AppBytesSent)
			want["secure.app_bytes_recv"] += int64(o.AppBytesRecv)
		case *rtpx.Stream:
			owners["stream"]++
			want["rtpx.voice_sent"] += int64(o.VoiceSent)
			want["rtpx.voice_recv"] += int64(o.VoiceRecv)
			want["rtpx.rtt_samples"] += int64(len(o.RTTSamples))
		case *device.Monitor:
			owners["monitor"]++
			want["device.samples"] += int64(len(o.Samples))
		}
	}
	if len(owners) != 4 {
		t.Fatalf("endpoint list holds %v, want stacks, sessions, streams and monitors", owners)
	}
	seen := make(map[int64]string)
	for name, v := range want {
		if other, dup := seen[v]; dup || v == 0 {
			t.Fatalf("%s sums to %d (as %q does), so a misnamed fold would not show", name, v, other)
		}
		seen[v] = name
	}
	snap := dep.Net.Metrics.Snapshot()
	for name, v := range want {
		if got := snap.Counter(name); got != v {
			t.Errorf("registry %s = %d, owners' records sum to %d", name, got, v)
		}
	}
}

// TestSFUAnswersRTCPOnlyFromMembers: the SFU answers an RTCP sender report
// with a receiver report only when the sender is a room member. An
// endpoint that never sent a hello gets none, and a member gets one.
func TestSFUAnswersRTCPOnlyFromMembers(t *testing.T) {
	sched := simtime.NewScheduler()
	dep := NewDeployment(sched, 5, nil)
	h := dep.AddVantage("rtcp-peer", SiteCampus, 200)
	sock, err := transport.NewStack(dep.Net, h).BindUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	sfu := dep.VoiceEndpoint(Get(Hubs), h.Site)
	reports := 0
	sock.OnRecv = func(_ packet.Endpoint, b []byte) {
		if rep, err := packet.DecodeRTCP(b); err == nil && rep.Type == packet.RTCPReceiverReport {
			reports++
		}
	}
	hello, err := marshalHello(helloMsg{Room: "room-1", User: "peer"})
	if err != nil {
		t.Fatal(err)
	}
	sr := packet.MarshalRTCP(packet.RTCPPacket{Type: packet.RTCPSenderReport, SSRC: 7})
	// exchange sends msgs back to back and counts the receiver reports
	// that come back within a second.
	exchange := func(msgs ...[]byte) int {
		before := reports
		for _, m := range msgs {
			sock.SendTo(sfu, m)
		}
		sched.RunUntil(sched.Now() + time.Second)
		return reports - before
	}
	if n := exchange(sr); n != 0 {
		t.Errorf("an endpoint that sent no hello got %d receiver reports", n)
	}
	if n := exchange(hello, sr); n != 1 {
		t.Errorf("a member got %d receiver reports, want 1", n)
	}
}
