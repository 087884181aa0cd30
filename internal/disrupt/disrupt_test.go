package disrupt

import (
	"strings"
	"testing"
	"time"

	"github.com/svrlab/svrlab/internal/geo"
	"github.com/svrlab/svrlab/internal/netsim"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/simtime"
)

func TestStageSweepsMatchPaperParameters(t *testing.T) {
	dl := DownlinkBandwidthStages()
	if len(dl) != 7 || dl[0].Label != "1.0" || dl[5].Label != "0.1" || dl[6].Label != "N" {
		t.Fatalf("downlink stages = %+v", dl)
	}
	ul := UplinkBandwidthStages()
	if ul[0].RateBps != 1.5e6 || ul[5].RateBps != 0.3e6 {
		t.Fatalf("uplink stages = %+v", ul)
	}
	tcp := TCPDelayStages()
	if tcp[0].Delay != 5*time.Second || tcp[3].Loss != 1.0 || !tcp[3].TCPOnly {
		t.Fatalf("tcp stages = %+v", tcp)
	}
	for _, c := range []struct {
		stages []Stage
		want   string
	}{
		{dl, "1.0 0.7 0.5 0.3 0.2 0.1 N"},
		{ul, "1.5 1.2 1.0 0.7 0.5 0.3 N"},
		{tcp, "5s 10s 15s 100% N"},
	} {
		var labels []string
		for _, st := range c.stages {
			labels = append(labels, st.Label)
		}
		if got := strings.Join(labels, " "); got != c.want {
			t.Fatalf("stage labels = %q, want %q", got, c.want)
		}
	}
	for _, st := range dl[:6] {
		if st.Duration != 40*time.Second {
			t.Fatalf("stage duration = %v, want 40s", st.Duration)
		}
	}
	if !dl[6].IsClear() {
		t.Fatal("final stage should be clear")
	}
}

func TestScheduleAppliesAndClears(t *testing.T) {
	sched := simtime.NewScheduler()
	n := netsim.New(sched, 1, nil)
	site := n.AddSite("x", geo.Fairfax, packet.MustParseAddr("10.0.0.1"))
	h := n.AddHost("h", site, packet.MustParseAddr("10.0.0.2"), netsim.WiFiAccess())

	sc := &Schedule{Host: h, Dir: Downlink, Stages: []Stage{
		{Label: "0.5", RateBps: 0.5e6, Duration: 40 * time.Second},
		{Label: "N", Duration: 60 * time.Second},
	}}
	end := sc.Run(sched, 10*time.Second)
	if end != 110*time.Second {
		t.Fatalf("end = %v", end)
	}
	sched.RunUntil(5 * time.Second)
	if h.DownNetem != nil {
		t.Fatal("netem applied early")
	}
	sched.RunUntil(15 * time.Second)
	if h.DownNetem == nil || h.DownNetem.RateBps != 0.5e6 {
		t.Fatalf("stage not applied: %+v", h.DownNetem)
	}
	sched.RunUntil(60 * time.Second)
	if h.DownNetem != nil {
		t.Fatal("clear stage should remove netem")
	}
	sched.RunUntil(120 * time.Second)
	if h.DownNetem != nil {
		t.Fatal("netem not cleared at end")
	}
	if len(sc.Applied) != 2 || sc.Applied[0].At != 10*time.Second {
		t.Fatalf("applied log = %+v", sc.Applied)
	}
}

func TestUplinkDirection(t *testing.T) {
	sched := simtime.NewScheduler()
	n := netsim.New(sched, 1, nil)
	site := n.AddSite("x", geo.Fairfax, packet.MustParseAddr("10.0.0.1"))
	h := n.AddHost("h", site, packet.MustParseAddr("10.0.0.2"), netsim.WiFiAccess())
	sc := &Schedule{Host: h, Dir: Uplink, Stages: []Stage{{Label: "x", Loss: 0.5, Duration: time.Second}}}
	sc.Run(sched, 0)
	sched.RunUntil(500 * time.Millisecond)
	if h.UpNetem == nil || h.UpNetem.Loss != 0.5 {
		t.Fatal("uplink netem not applied")
	}
	if h.DownNetem != nil {
		t.Fatal("downlink touched by uplink schedule")
	}
	if Uplink.String() != "uplink" || Downlink.String() != "downlink" {
		t.Fatal("direction strings")
	}
}
