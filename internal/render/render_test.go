package render

import (
	"encoding/binary"
	"testing"
	"time"

	"github.com/svrlab/svrlab/internal/device"
	"github.com/svrlab/svrlab/internal/geo"
	"github.com/svrlab/svrlab/internal/netsim"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/simtime"
	"github.com/svrlab/svrlab/internal/transport"
)

func TestEncoderBitrateCalibration(t *testing.T) {
	enc := DefaultEncoder()
	// 1080p60 should land in the 10-20 Mbit/s game-streaming range the
	// paper cites (§5.1).
	bps := enc.BitrateBps(device.Resolution{W: 1920, H: 1080}, 60)
	if bps < 8e6 || bps > 25e6 {
		t.Fatalf("1080p60 bitrate = %.1f Mbps, want 8-25", bps/1e6)
	}
	// Quest-2-class VR view at 72 FPS exceeds the FCC 25 Mbps broadband
	// definition only for very high resolutions; 1440×1584 lands ~13 Mbps.
	bps = enc.BitrateBps(device.Resolution{W: 1440, H: 1584}, 72)
	if bps < 9e6 || bps > 18e6 {
		t.Fatalf("VR stream bitrate = %.1f Mbps", bps/1e6)
	}
}

func TestFrameSizesAverageToBitrate(t *testing.T) {
	enc := DefaultEncoder()
	res := device.Resolution{W: 1440, H: 1584}
	const fps = 72.0
	total := 0
	for i := 0; i < 720; i++ { // 10 seconds
		total += enc.frameBytes(res, fps, i)
	}
	gotBps := float64(total) * 8 / 10
	want := enc.BitrateBps(res, fps)
	if gotBps < want*0.9 || gotBps > want*1.1 {
		t.Fatalf("summed frame bitrate %.1f Mbps vs model %.1f", gotBps/1e6, want/1e6)
	}
	// Keyframes are bigger than P-frames.
	if enc.frameBytes(res, fps, 0) <= enc.frameBytes(res, fps, 1) {
		t.Fatal("keyframe not larger than P-frame")
	}
}

func TestDecodeCostIndependentOfAvatars(t *testing.T) {
	cost := DecodeCost(device.Resolution{W: 1440, H: 1584})
	h := device.NewHeadset(device.Quest2, cost, nil)
	h.AvatarsInScene = 1
	fps1 := h.FPSEstimate()
	h.AvatarsInScene = 100
	fps100 := h.FPSEstimate()
	if fps1 != fps100 {
		t.Fatalf("remote-rendering FPS varies with avatars: %v vs %v", fps1, fps100)
	}
	if fps1 != device.Quest2.RefreshHz {
		t.Fatalf("decode-only pipeline should hold refresh: %v", fps1)
	}
}

func TestStreamingSessionDeliversVideo(t *testing.T) {
	sched := simtime.NewScheduler()
	n := netsim.New(sched, 2, nil)
	east := n.AddSite("east", geo.Fairfax, packet.MustParseAddr("10.0.0.1"))
	server := n.AddHost("edge", east, packet.MustParseAddr("10.0.0.50"), netsim.DatacenterAccess())
	client := n.AddHost("hmd", east, packet.MustParseAddr("10.0.0.2"), netsim.WiFiAccess())
	ss := transport.NewStack(n, server)
	cs := transport.NewStack(n, client)
	res := device.Resolution{W: 1440, H: 1584}
	sess, err := NewSession(sched, client, ss, cs, res, 72)
	if err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(10 * time.Second)
	if sess.Viewer.FramesComplete < 650 {
		t.Fatalf("frames complete = %d in 10 s, want ~715", sess.Viewer.FramesComplete)
	}
	gotBps := float64(sess.Viewer.BytesReceived) * 8 / 10
	want := DefaultEncoder().BitrateBps(res, 72)
	if gotBps < want*0.85 || gotBps > want*1.1 {
		t.Fatalf("delivered %.1f Mbps, want ≈%.1f", gotBps/1e6, want/1e6)
	}
}

// TestViewerCountsFramesByLastFragment: a frame counts as complete when its
// last fragment arrives. Every fragment's payload counts toward
// BytesReceived, those of a frame whose last fragment was lost included,
// and a runt shorter than the 12-byte header counts toward nothing.
func TestViewerCountsFramesByLastFragment(t *testing.T) {
	frag := func(frame uint32, seq uint16, last bool, n int) []byte {
		b := make([]byte, 12+n)
		binary.BigEndian.PutUint32(b[0:], frame)
		binary.BigEndian.PutUint16(b[4:], seq)
		if last {
			b[6] = 1
		}
		return b
	}
	v := &Viewer{}
	v.onPacket(frag(0, 0, false, mtuPayload)) // frame 0's last fragment is lost
	v.onPacket(frag(1, 0, false, mtuPayload))
	v.onPacket(frag(1, 1, true, 300))
	v.onPacket(make([]byte, 11))
	if v.FramesComplete != 1 || v.BytesReceived != 2*mtuPayload+300 {
		t.Fatalf("frames complete %d, bytes %d; want 1 and %d", v.FramesComplete, v.BytesReceived, 2*mtuPayload+300)
	}
}

func TestServerRenderCostDelaysFramesNotClient(t *testing.T) {
	sched := simtime.NewScheduler()
	n := netsim.New(sched, 2, nil)
	east := n.AddSite("east", geo.Fairfax, packet.MustParseAddr("10.0.0.1"))
	server := n.AddHost("edge", east, packet.MustParseAddr("10.0.0.50"), netsim.DatacenterAccess())
	client := n.AddHost("hmd", east, packet.MustParseAddr("10.0.0.2"), netsim.WiFiAccess())
	ss := transport.NewStack(n, server)
	cs := transport.NewStack(n, client)
	sess, err := NewSession(sched, client, ss, cs, device.Resolution{W: 1216, H: 1344}, 72)
	if err != nil {
		t.Fatal(err)
	}
	// Heavy server-side scene (many avatars): render cost 9 ms/frame.
	sess.Streamer.RenderCostMs = func() float64 { return 9 }
	sched.RunUntil(5 * time.Second)
	// Client decode load is unchanged; frames still arrive at ~72/s.
	if sess.Viewer.FramesComplete < 320 {
		t.Fatalf("frames = %d, want ~355", sess.Viewer.FramesComplete)
	}
	if got := sess.Headset.FPSEstimate(); got != device.Quest2.RefreshHz {
		t.Fatalf("client FPS = %v, want refresh", got)
	}
}
