package rtpx

import (
	"testing"
	"time"

	"github.com/svrlab/svrlab/internal/geo"
	"github.com/svrlab/svrlab/internal/netsim"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/simtime"
	"github.com/svrlab/svrlab/internal/transport"
)

type rig struct {
	s      *simtime.Scheduler
	net    *netsim.Network
	a, b   *netsim.Host
	sa, sb *Stream
}

func newRig(t *testing.T, mutedA, mutedB bool) *rig {
	t.Helper()
	s := simtime.NewScheduler()
	n := netsim.New(s, 11, nil)
	east := n.AddSite("east", geo.Fairfax, packet.MustParseAddr("10.0.0.1"))
	west := n.AddSite("west", geo.SanJose, packet.MustParseAddr("10.2.0.1"))
	n.Connect(east, west)
	a := n.AddHost("a", east, packet.MustParseAddr("10.0.0.2"), netsim.WiFiAccess())
	b := n.AddHost("b", west, packet.MustParseAddr("10.2.0.2"), netsim.WiFiAccess())
	sta := transport.NewStack(n, a)
	stb := transport.NewStack(n, b)
	sockA, _ := sta.BindUDP(50000)
	sockB, _ := stb.BindUDP(50000)
	sa := NewStream(s, sockA, packet.Endpoint{Addr: b.Addr, Port: 50000}, 1, mutedA)
	sb := NewStream(s, sockB, packet.Endpoint{Addr: a.Addr, Port: 50000}, 2, mutedB)
	return &rig{s: s, net: n, a: a, b: b, sa: sa, sb: sb}
}

func TestVoiceFlowsBothWays(t *testing.T) {
	r := newRig(t, false, false)
	r.s.RunUntil(2 * time.Second)
	// 20 ms frames for 2 s ≈ 100 frames each way (minus in-flight).
	if r.sa.VoiceRecv < 90 || r.sb.VoiceRecv < 90 {
		t.Fatalf("voice recv = %d/%d, want ~100", r.sa.VoiceRecv, r.sb.VoiceRecv)
	}
}

func TestMuteSuppressesVoiceButNotRTCP(t *testing.T) {
	r := newRig(t, true, false)
	r.s.RunUntil(3 * time.Second)
	if r.sb.VoiceRecv != 0 {
		t.Fatalf("muted sender delivered %d voice packets", r.sb.VoiceRecv)
	}
	if r.sa.VoiceRecv == 0 {
		t.Fatal("unmuted direction should still flow")
	}
	// RTCP from the muted side still flows, so the peer gets RTT samples.
	if r.sb.RTT == 0 {
		t.Fatal("no RTT estimate at unmuted peer")
	}
}

func TestSetMutedMidStream(t *testing.T) {
	r := newRig(t, false, false)
	r.s.RunUntil(time.Second)
	before := r.sb.VoiceRecv
	r.sa.SetMuted(true)
	if !r.sa.muted {
		t.Fatal("stream not muted after SetMuted(true)")
	}
	r.s.RunUntil(2 * time.Second)
	after := r.sb.VoiceRecv
	// A couple of in-flight frames may still land.
	if after-before > 3 {
		t.Fatalf("%d frames arrived after mute", after-before)
	}
}

func TestRTCPRTTMatchesPathRTT(t *testing.T) {
	r := newRig(t, false, false)
	r.s.RunUntil(5 * time.Second)
	if len(r.sa.RTTSamples) == 0 {
		t.Fatal("no RTT samples")
	}
	// Coast-to-coast RTT should be ~70 ms in this topology.
	got := r.sa.RTT
	if got < 50*time.Millisecond || got > 110*time.Millisecond {
		t.Fatalf("RTCP RTT = %v, want ~70ms", got)
	}
}

func TestVoiceBitrateIsConversational(t *testing.T) {
	// One muted side, measure the unmuted sender's wire rate: RTP+UDP+IP
	// overhead on 80-byte frames at 50 Hz ≈ 52 kbit/s, the right order for
	// the paper's voice channels.
	r := newRig(t, false, true)
	r.s.RunUntil(10 * time.Second)
	bps := float64(r.a.Up.OfferedBytes*8) / 10
	if bps < 35_000 || bps > 80_000 {
		t.Fatalf("voice wire rate = %.0f bps, want ~52kbps", bps)
	}
}

func TestOnVoiceCallback(t *testing.T) {
	r := newRig(t, false, true)
	var seqs []uint16
	r.sb.OnVoice = func(seq uint16, payload []byte) {
		if len(payload) != VoicePayloadBytes {
			t.Errorf("payload len = %d", len(payload))
		}
		seqs = append(seqs, seq)
	}
	r.s.RunUntil(time.Second)
	if len(seqs) < 40 {
		t.Fatalf("only %d frames", len(seqs))
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			t.Fatalf("sequence gap at %d: %d -> %d", i, seqs[i-1], seqs[i])
		}
	}
}

func TestCompactNTPRoundTrip(t *testing.T) {
	for _, d := range []time.Duration{0, time.Second, 90 * time.Second, 12 * time.Minute} {
		got := fromCompactNTP(compactNTP(d))
		diff := got - d
		if diff < 0 {
			diff = -diff
		}
		if diff > time.Millisecond {
			t.Fatalf("compact NTP round trip for %v off by %v", d, diff)
		}
	}
}

// TestVoiceTickAllocFree: with the fabric warmed and the scheduler running,
// one frame interval of an unmuted stream — the frame appended into the
// stream's buffer, sent, carried and decoded — allocates nothing. The
// window stays between two RTCP reports.
func TestVoiceTickAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	r := newRig(t, false, true)
	r.s.RunUntil(1100 * time.Millisecond)
	sent, recv := r.sa.VoiceSent, r.sb.VoiceRecv
	const runs = 30
	allocs := testing.AllocsPerRun(runs, func() {
		r.s.RunUntil(r.s.Now() + VoiceFrameInterval)
	})
	if got := r.sa.VoiceSent - sent; got != runs+1 {
		t.Fatalf("%d frames sent over %d intervals", got, runs+1)
	}
	if r.sb.VoiceRecv-recv < runs-5 {
		t.Fatalf("only %d of %d frames received", r.sb.VoiceRecv-recv, runs+1)
	}
	if r.s.Now() >= 2*time.Second {
		t.Fatalf("window ran to %v, past the next RTCP report", r.s.Now())
	}
	if allocs != 0 {
		t.Fatalf("one voice frame interval allocates %.0f times, want 0", allocs)
	}
}
