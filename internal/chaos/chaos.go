// Package chaos drives deterministic infrastructure-fault schedules against
// the fabric: host crash/restart, backbone link cut/flap, and site
// partition/heal. It is the failure-domain sibling of package disrupt (which
// perturbs link *quality*); both install declarative, virtual-time schedules
// on the lab scheduler and record what they applied.
//
// Determinism contract: a schedule's effects derive only from its declared
// fault list and the scheduler clock — no RNG streams are consumed, so a
// seed-42 run with an empty schedule is byte-identical to one with chaos
// disabled entirely, and identical fault lists replay identically at any
// worker count. Fault boundaries are cold-path events (a handful per run);
// the per-packet hot path only ever sees the fabric's down flags.
package chaos

import (
	"time"

	"github.com/svrlab/svrlab/internal/netsim"
	"github.com/svrlab/svrlab/internal/simtime"
	"github.com/svrlab/svrlab/internal/trace"
)

// Kind discriminates fault types.
type Kind int

const (
	// HostCrash takes a host off the network: it cannot send, inbound
	// packets drop with cause "host-down", and anycast resolution fails
	// over to the next-nearest instance. Restart restores connectivity;
	// the host's transport state survives (network isolation, not process
	// loss — the stricter model for recovery measurements, since stale
	// state must be reconciled rather than rebuilt).
	HostCrash Kind = iota
	// LinkCut disables the backbone links between two sites in both
	// directions; routing recomputes around the cut and in-flight packets
	// on the dead links drop with cause "link-down".
	LinkCut
	// Partition isolates one site from the backbone entirely
	// (BGP-withdrawal style): every adjacent backbone link goes down.
	Partition
)

func (k Kind) String() string {
	switch k {
	case HostCrash:
		return "host-crash"
	case LinkCut:
		return "link-cut"
	case Partition:
		return "partition"
	}
	return "unknown"
}

// Fault is one scheduled fault episode.
type Fault struct {
	// Label names the fault in the Applied log and trace; derived from the
	// kind and target when empty.
	Label string
	Kind  Kind

	Host         *netsim.Host // HostCrash target
	SiteA, SiteB *netsim.Site // LinkCut endpoints; SiteA is the Partition target

	// Start is the injection time, relative to the schedule's start.
	Start time.Duration
	// Duration is the outage length; 0 means the fault never heals.
	Duration time.Duration
	// Flaps repeats the inject/heal cycle this many additional times
	// (link flapping); each cycle begins Period after the previous one.
	Flaps int
	// Period is the flap cycle length; defaults to 2*Duration when zero.
	Period time.Duration
}

// target names the fault's subject for logs and traces.
func (f *Fault) target() string {
	switch f.Kind {
	case HostCrash:
		return f.Host.ID
	case LinkCut:
		return f.SiteA.Name + "~" + f.SiteB.Name
	default:
		return f.SiteA.Name
	}
}

func (f *Fault) label() string {
	if f.Label != "" {
		return f.Label
	}
	return f.Kind.String() + ":" + f.target()
}

// Applied logs one fault transition as it took effect.
type Applied struct {
	At    time.Duration
	Label string
	Event string // "inject" or "heal"
}

// Schedule applies a fault list against one network.
type Schedule struct {
	Net    *netsim.Network
	Faults []Fault

	// Applied records transitions in execution order.
	Applied []Applied
}

// Run installs the schedule on the scheduler starting at the given time and
// returns the time of the last transition. Faults with Duration 0 never
// heal; flapping faults repeat their inject/heal cycle.
func (sc *Schedule) Run(sched *simtime.Scheduler, start time.Duration) (end time.Duration) {
	end = start
	for i := range sc.Faults {
		f := &sc.Faults[i]
		period := f.Period
		if period == 0 {
			period = 2 * f.Duration
		}
		for cycle := 0; cycle <= f.Flaps; cycle++ {
			injectAt := start + f.Start + time.Duration(cycle)*period
			sched.At(injectAt, func() { sc.set(f, true) })
			if injectAt > end {
				end = injectAt
			}
			if f.Duration > 0 {
				healAt := injectAt + f.Duration
				sched.At(healAt, func() { sc.set(f, false) })
				if healAt > end {
					end = healAt
				}
			}
		}
	}
	return end
}

// set applies or heals one fault and records the transition.
func (sc *Schedule) set(f *Fault, active bool) {
	switch f.Kind {
	case HostCrash:
		sc.Net.SetHostDown(f.Host, active)
	case LinkCut:
		sc.Net.SetLinkDown(f.SiteA, f.SiteB, active)
	case Partition:
		sc.Net.SetSitePartitioned(f.SiteA, active)
	}
	event := "heal"
	if active {
		event = "inject"
	}
	now := sc.Net.Sched.Now()
	sc.Applied = append(sc.Applied, Applied{At: now, Label: f.label(), Event: event})
	sc.Net.Trace(trace.KindChaos, 0, f.target(), f.Kind.String()+":"+event, 0, 0)
}
