package main

import (
	"math"
	"time"

	"github.com/svrlab/svrlab/internal/capture"
	"github.com/svrlab/svrlab/internal/disrupt"
	"github.com/svrlab/svrlab/internal/experiment"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/platform"
	"github.com/svrlab/svrlab/internal/world"
)

// workload is a fixed list of registry ids regenerated back to back in one
// run, plus the representative cell the traced pass drives by hand.
type workload struct {
	Name string
	IDs  []string
	Cell cellPlan
}

// cellPlan is one lab the benchmark builds itself, so that each public
// call into a layer can be timed from outside.
type cellPlan struct {
	Platform platform.Name
	Users    int
	Dur      time.Duration
	// DownLoss, when positive, impairs U1's downlink with this loss rate
	// from 10 s to the end of the cell.
	DownLoss float64
}

// The three measurement families of the paper. Each stresses different
// layers; bench/README.md records which layer metric should move which
// end-to-end metric on which workload.
var workloads = []workload{
	{
		Name: "public-event",
		IDs:  []string{"fig7"},
		Cell: cellPlan{Platform: platform.VRChat, Users: 15, Dur: 60 * time.Second},
	},
	{
		Name: "infra-probe",
		IDs:  []string{"table2"},
		Cell: cellPlan{Platform: platform.RecRoom, Users: 2, Dur: 20 * time.Second},
	},
	{
		Name: "disruption",
		IDs:  []string{"disrupt-lat", "fig12", "fig13", "fig13tcp"},
		Cell: cellPlan{Platform: platform.Worlds, Users: 2, Dur: 45 * time.Second, DownLoss: 0.2},
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// cellResult times each public call the benchmark makes into the layers
// while driving one cell.
type cellResult struct {
	LabS     float64 `json:"lab_s"`     // experiment.NewLab
	SpawnS   float64 `json:"spawn_s"`   // Lab.Spawn + capture.Attach
	RunS     float64 `json:"run_s"`     // Scheduler.RunUntil
	Events   uint64  `json:"events"`    // Scheduler.Dispatched
	AnalyseS float64 `json:"analyse_s"` // Sniffer.MeanBps/Flows/Series + Monitor.Means
	Records  int     `json:"records"`   // Sniffer.Len
	AuditS   float64 `json:"audit_s"`   // Lab.MustConserve
}

// driveCell builds and runs one cell the way the experiments do, timing
// each call from outside. Users stand in a circle facing each other, so
// everyone is in everyone's view, as in the public-event sweep.
func driveCell(p cellPlan, seed int64) cellResult {
	var r cellResult
	t := time.Now()
	l := experiment.NewLab(seed)
	r.LabS = time.Since(t).Seconds()

	t = time.Now()
	cs := l.Spawn(p.Platform, p.Users, experiment.SpawnOpts{})
	sniff := capture.Attach(cs[0].Host)
	r.SpawnS = time.Since(t).Seconds()

	l.Sched.At(2*time.Second, func() {
		center := world.Vec2{X: 10, Y: 10}
		for i, c := range cs {
			ang := 2 * math.Pi * float64(i) / float64(len(cs))
			pos := center.Add(world.Vec2{X: 3 * math.Cos(ang), Y: 3 * math.Sin(ang)})
			c.StandAt(pos, world.NormalizeDeg(ang*180/math.Pi+180))
		}
	})
	if p.DownLoss > 0 {
		sc := &disrupt.Schedule{Host: cs[0].Host, Dir: disrupt.Downlink, Stages: []disrupt.Stage{
			{Label: "loss", Loss: p.DownLoss, Duration: p.Dur - 10*time.Second},
		}}
		sc.Run(l.Sched, 10*time.Second)
	}
	t = time.Now()
	l.Sched.RunUntil(p.Dur)
	r.RunS = time.Since(t).Seconds()
	r.Events = l.Sched.Dispatched()

	t = time.Now()
	sniff.MeanBps(capture.MatchDown(capture.FilterProto(packet.ProtoUDP)), p.Dur/3, p.Dur)
	sniff.Flows(capture.Match{})
	sniff.Series(capture.Match{}, 0, p.Dur, time.Second)
	cs[0].Monitor.Means(p.Dur/3, p.Dur)
	r.AnalyseS = time.Since(t).Seconds()
	r.Records = sniff.Len()

	t = time.Now()
	l.MustConserve()
	r.AuditS = time.Since(t).Seconds()
	return r
}
