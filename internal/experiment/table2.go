package experiment

import (
	"fmt"
	"strings"
	"time"

	"github.com/svrlab/svrlab/internal/capture"
	"github.com/svrlab/svrlab/internal/geo"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/platform"
	"github.com/svrlab/svrlab/internal/probe"
	"github.com/svrlab/svrlab/internal/transport"
)

// ChannelReport is one channel's row in Table 2.
type ChannelReport struct {
	Protocol string
	Server   packet.Addr
	Owner    geo.Owner
	Location geo.Region // RegionUnknown when anycast
	Anycast  bool
	RTTAvg   time.Duration
	RTTStd   time.Duration
	Hostname string
}

// Table2Row is one platform's infrastructure report.
type Table2Row struct {
	Platform platform.Name
	Control  ChannelReport
	Data     ChannelReport
}

// RemoteRTT is a §4.2 extra-vantage observation.
type RemoteRTT struct {
	Platform platform.Name
	Vantage  string
	Channel  string
	RTT      time.Duration
}

// Table2Result is the full §4 artifact.
type Table2Result struct {
	Rows    []Table2Row
	Extras  []RemoteRTT // measurements from LA and Europe (§4.2)
	Skipped []string    // e.g. Worlds in Europe (US/Canada only)
}

// Table2 reproduces the §4 infrastructure study: run a short two-user
// session per platform, *discover* the servers from the captured traffic,
// classify each channel's protocol from wire bytes, measure RTT with
// ICMP/TCP ping (or WebRTC stats where both fail, as for the Hubs SFU), and
// infer anycast from three geo-distributed vantage points.
func Table2(e Env) *Table2Result {
	// One fan-out cell per lab: each platform's campus probe session, then
	// its extra-vantage sessions. Rows, extras and notes are assembled in
	// that canonical order regardless of completion order.
	type t2lab struct {
		p    *platform.Profile
		site string // an extra vantage; "" for the campus probe session
	}
	var labs []t2lab
	for _, p := range platform.All() {
		labs = append(labs, t2lab{p: p})
		for _, sn := range []string{platform.SiteLA, platform.SiteEurope} {
			if p.Name == platform.Worlds && sn == platform.SiteEurope {
				continue // Worlds is US/Canada-only
			}
			labs = append(labs, t2lab{p: p, site: sn})
		}
	}
	type t2cell struct {
		row    Table2Row
		extras []RemoteRTT
	}
	out := cells(e, len(labs), func(i int) t2cell {
		lb := labs[i]
		if lb.site != "" {
			return t2cell{extras: probeExtraVantage(e, lb.p, lb.site)}
		}
		return t2cell{row: probePlatform(e, lb.p)}
	})
	res := &Table2Result{}
	for i, c := range out {
		if labs[i].site != "" {
			res.Extras = append(res.Extras, c.extras...)
			continue
		}
		res.Rows = append(res.Rows, c.row)
		if labs[i].p.Name == platform.Worlds {
			res.Skipped = append(res.Skipped, "Horizon Worlds not probed from Europe (available in US/Canada only)")
		}
	}
	return res
}

// discoverServers runs a short session and extracts the control and data
// server addresses plus wire-classified protocols from the capture.
func discoverServers(l *Lab, p *platform.Profile, cs []*platform.Client, sniff *capture.Sniffer) (ctrl, data ChannelReport) {
	clientAddr := cs[0].Host.Addr
	asset := l.Dep.AssetEndpoint(p).Addr
	flows := sniff.Flows(capture.Match{})
	for _, f := range flows {
		remote := f.Flow.Dst
		if remote.Addr == clientAddr {
			remote = f.Flow.Src
		}
		if remote.Addr == asset {
			continue
		}
		switch f.Flow.Proto {
		case packet.ProtoTCP:
			if ctrl.Server == 0 {
				ctrl.Server = remote.Addr
				ctrl.Protocol = classifyTCP(sniff, remote.Addr)
			}
		case packet.ProtoUDP:
			if data.Server == 0 {
				data.Server = remote.Addr
				data.Protocol = classifyUDP(sniff, remote.Addr)
			}
		}
	}
	if p.WebData {
		// Hubs: avatar state rides the HTTPS connection; voice rides
		// RTP/RTCP — the data channel spans both (§4.1).
		data.Protocol = "RTP/RTCP + HTTPS"
	}
	return ctrl, data
}

// classifyTCP inspects the first captured payload bytes toward a server
// for TLS records.
func classifyTCP(sniff *capture.Sniffer, server packet.Addr) string {
	f := capture.FilterAnd(capture.FilterRemote(server), capture.FilterProto(packet.ProtoTCP))
	for i := 0; i < sniff.Len(); i++ {
		r := sniff.At(i)
		if !r.Valid || !f(r.Flow) {
			continue
		}
		if r.PayloadLen >= 5 && (r.Head[0] == packet.TLSHandshake || r.Head[0] == packet.TLSApplicationData) &&
			r.Head[1] == 3 {
			return "HTTPS"
		}
	}
	return "TCP"
}

// classifyUDP distinguishes RTP/RTCP streams from plain UDP.
func classifyUDP(sniff *capture.Sniffer, server packet.Addr) string {
	f := capture.FilterAnd(capture.FilterRemote(server), capture.FilterProto(packet.ProtoUDP))
	rtp, plain := 0, 0
	for i := 0; i < sniff.Len(); i++ {
		r := sniff.At(i)
		if !r.Valid || !f(r.Flow) {
			continue
		}
		if r.PayloadLen >= 2 && r.Head[0]>>6 == 2 {
			rtp++
		} else {
			plain++
		}
	}
	if rtp > plain {
		return "RTP/RTCP"
	}
	return "UDP"
}

func probePlatform(e Env, p *platform.Profile) Table2Row {
	l := e.lab("table2/"+string(p.Name), e.Seed)
	defer l.MustConserve()
	cs := l.Spawn(p.Name, 2, SpawnOpts{})
	sniff := l.Capture(cs[0].Host)
	l.Sched.RunUntil(20 * time.Second)

	row := Table2Row{Platform: p.Name}
	row.Control, row.Data = discoverServers(l, p, cs, sniff)

	// Ownership and geolocation lookups (WHOIS + MaxMind substitutes).
	annotate := func(ch *ChannelReport) {
		ch.Owner = l.Dep.Net.Registry.OwnerOf(uint32(ch.Server))
		ch.Location = l.Dep.Net.Registry.LocationOf(uint32(ch.Server))
		ch.Hostname = l.Dep.Net.Registry.HostnameOf(uint32(ch.Server))
	}
	annotate(&row.Control)
	annotate(&row.Data)

	// RTT from the campus vantage.
	row.Control.RTTAvg, row.Control.RTTStd = measureRTT(l, cs[0], platform.SiteCampus, row.Control.Server, false)
	row.Data.RTTAvg, row.Data.RTTStd = measureRTT(l, cs[0], platform.SiteCampus, row.Data.Server, p.WebData)

	// Anycast inference from three vantages (campus, US-North, Middle
	// East), matching the paper's procedure.
	row.Control.Anycast = inferAnycastFor(l, row.Control.Server)
	row.Data.Anycast = inferAnycastFor(l, row.Data.Server)
	if row.Control.Anycast {
		row.Control.Location = geo.RegionUnknown
	}
	if row.Data.Anycast {
		row.Data.Location = geo.RegionUnknown
	}
	return row
}

// measureRTT pings with ICMP, falls back to TCP ping, and finally to the
// WebRTC report RTT (§4.2). Every lab host answers ICMP echo, so the
// fallbacks run only when -chaos takes a server down. The probe runs from
// the given vantage site.
func measureRTT(l *Lab, c *platform.Client, site string, server packet.Addr, webrtcFallback bool) (avg, std time.Duration) {
	prober := probe.New(transport.NewStack(l.Dep.Net, l.probeHost(site)))
	var res probe.PingResult
	prober.Ping(server, 20, 100*time.Millisecond, func(pr probe.PingResult) { res = pr })
	l.Sched.RunUntil(l.Sched.Now() + 6*time.Second)
	if res.Received > 0 {
		return res.Avg, res.Std
	}
	// TCP ping fallback.
	done := false
	prober.TCPPing(packet.Endpoint{Addr: server, Port: platform.PortControl}, func(pr probe.PingResult) {
		if pr.Received > 0 {
			res = pr
		}
		done = true
	})
	l.Sched.RunUntil(l.Sched.Now() + 6*time.Second)
	if done && res.Received > 0 {
		return res.Avg, res.Std
	}
	if webrtcFallback {
		// chrome://webrtc-internals equivalent: RTCP-derived RTT.
		return c.VoiceRTT(), time.Millisecond / 5
	}
	return 0, 0
}

// inferAnycastFor runs the three-vantage ping+traceroute procedure.
func inferAnycastFor(l *Lab, server packet.Addr) bool {
	vantagesSites := []string{platform.SiteCampus, platform.SiteUSNorth, platform.SiteMiddleEast}
	reports := make([]probe.VantageReport, len(vantagesSites))
	for i, sn := range vantagesSites {
		h := l.probeHost(sn)
		pr := probe.New(transport.NewStack(l.Dep.Net, h))
		idx := i
		reports[idx].VantageName = sn
		pr.Ping(server, 5, 100*time.Millisecond, func(r probe.PingResult) { reports[idx].AvgRTT = r.Avg })
		pr.Traceroute(server, 12, func(hops []probe.Hop) { reports[idx].Hops = hops })
	}
	l.Sched.RunUntil(l.Sched.Now() + 15*time.Second)
	return probe.InferAnycast(reports, 15*time.Millisecond)
}

// probeExtraVantage reproduces one §4.2 western-US or Europe check: a
// session from that vantage site and the RTT of each channel it discovers.
func probeExtraVantage(e Env, p *platform.Profile, site string) []RemoteRTT {
	l := e.lab("table2/"+string(p.Name)+"/"+site, e.Seed+int64(len(site)))
	defer l.MustConserve()
	cs := l.Spawn(p.Name, 2, SpawnOpts{Site: site})
	sniff := l.Capture(cs[0].Host)
	l.Sched.RunUntil(20 * time.Second)
	ctrl, data := discoverServers(l, p, cs, sniff)
	var out []RemoteRTT
	for _, ch := range []struct {
		name string
		rep  ChannelReport
	}{{"control", ctrl}, {"data", data}} {
		avg, _ := measureRTT(l, cs[0], site, ch.rep.Server, p.WebData && ch.name == "data")
		out = append(out, RemoteRTT{Platform: p.Name, Vantage: site, Channel: ch.name, RTT: avg})
	}
	return out
}

// Render prints the Table 2 artifact.
func (r *Table2Result) Render() string {
	t := &Table{Header: []string{"Platform", "Ctrl proto", "Ctrl loc/owner", "Ctrl anycast", "Ctrl RTT(ms)", "Data proto", "Data loc/owner", "Data anycast", "Data RTT(ms)"}}
	locOwner := func(ch ChannelReport) string {
		loc := string(ch.Location)
		if ch.Anycast {
			loc = "-"
		}
		return loc + " / " + string(ch.Owner)
	}
	for _, row := range r.Rows {
		t.Add(string(row.Platform),
			row.Control.Protocol, locOwner(row.Control), yn(row.Control.Anycast),
			fmt.Sprintf("%s/%s", ms(row.Control.RTTAvg), ms(row.Control.RTTStd)),
			row.Data.Protocol, locOwner(row.Data), yn(row.Data.Anycast),
			fmt.Sprintf("%s/%s", ms(row.Data.RTTAvg), ms(row.Data.RTTStd)))
	}
	var b strings.Builder
	b.WriteString("Table 2: network protocols and infrastructure (campus vantage, US East)\n")
	b.WriteString(t.String())
	b.WriteString("\nExtra vantages (§4.2):\n")
	for _, e := range r.Extras {
		fmt.Fprintf(&b, "  %-15s %-12s %-8s RTT=%sms\n", e.Platform, e.Vantage, e.Channel, ms(e.RTT))
	}
	for _, s := range r.Skipped {
		fmt.Fprintf(&b, "  note: %s\n", s)
	}
	return b.String()
}
