// Package trace is the lab's flight recorder: a per-lab, ring-buffer-backed
// log of typed, virtual-time-stamped events covering the full life of the
// simulation — packet lifecycle spans (send → hop → deliver or
// drop-with-cause), TCP state transitions and congestion events, TLS
// handshake phases, RTP/RTCP reports, netem schedule actions, action
// stamps, and phase markers.
//
// The package honors the two contracts the rest of the lab is built on:
//
//   - Determinism (DESIGN §4.6): there is no package-level state. A Tracer
//     belongs to one lab; timestamps are simtime virtual time and span ids
//     come from a per-tracer counter, so a cell's trace is byte-identical at
//     any worker count. Recording never touches the scheduler or any RNG, so
//     enabling tracing cannot perturb a run's artifacts.
//
//   - Zero-cost off (DESIGN §4.7): every method is nil-safe, and a nil
//     *Tracer records nothing, so call sites never check whether tracing
//     is on. With tracing disabled the per-packet path stays 0 allocs/op;
//     with tracing enabled, events land in a preallocated bounded ring
//     with a drop-oldest policy — still 0 allocs/op per event.
//
// Every event but a phase marker reaches the ring through Record, which
// also counts it under its kind whether the ring keeps it or later evicts
// it. The lab's layers record through netsim.Network.Trace, which stamps
// the scheduler's clock, so the ring holds its events in time order;
// Record enforces that. Phase markers come in through Phase and are kept
// in their own short list beside the ring, never evicted: an experiment's
// phase boundaries, stamped ahead of time, and a latency cell's breakdown
// as its rig computed it. Each reads a tracer in place and in time order,
// merging the markers into the ring. The end-of-run audit holds the
// per-kind counts against the ledgers they mirror.
package trace

import "time"

// Kind classifies an event.
type Kind uint8

// Event kinds, one per instrumented layer.
const (
	KindPhase         Kind = iota // phase boundary or latency breakdown
	KindPacketSend                // packet handed to the fabric
	KindPacketHop                 // packet crossed a backbone hop
	KindPacketDeliver             // packet delivered to the destination host
	KindPacketDrop                // packet dropped (Name carries the cause)
	KindTCPState                  // TCP connection state transition
	KindTCPCwnd                   // congestion window change (Arg = bytes)
	KindTCPRetx                   // retransmission event (fast-retx, RTO)
	KindTLS                       // TLS handshake phase
	KindRTCP                      // RTCP sender report / RTT sample
	KindNetem                     // netem schedule action applied/cleared
	KindAction                    // end-to-end action lifecycle stamp
	KindChaos                     // chaos fault injected/healed
	numKinds
)

// String names each kind for the text exporter.
func (k Kind) String() string {
	switch k {
	case KindPhase:
		return "phase"
	case KindPacketSend:
		return "pkt-send"
	case KindPacketHop:
		return "pkt-hop"
	case KindPacketDeliver:
		return "pkt-deliver"
	case KindPacketDrop:
		return "pkt-drop"
	case KindTCPState:
		return "tcp-state"
	case KindTCPCwnd:
		return "tcp-cwnd"
	case KindTCPRetx:
		return "tcp-retx"
	case KindTLS:
		return "tls"
	case KindRTCP:
		return "rtcp"
	case KindNetem:
		return "netem"
	case KindAction:
		return "action"
	case KindChaos:
		return "chaos"
	}
	return "unknown"
}

// Event is one recorded occurrence. Events are plain values: recording one
// copies string headers into a preallocated ring slot, so the hot path never
// allocates.
type Event struct {
	At    time.Duration // virtual time (simtime.Scheduler.Now)
	Kind  Kind
	Span  uint64 // groups related events (packet id, conn id, action id)
	Track string // the host or link the event belongs to
	Name  string // event-specific label ("send", "established", ...)
	Arg   int64  // event-specific value (bytes, µs, bps, ...)
	Arg2  int64  // second value where one is not enough
}

// DefaultCapacity is the ring size of every collector cell. A cell that
// records more keeps only its last DefaultCapacity events, beside its phase
// markers: at seed 42 a traced table4 run with one repeat fits only its Rec
// Room cell (17,472 events), and each of its other five cells drops between
// 393,959 and 2,175,818 of its oldest events.
const DefaultCapacity = 1 << 16

// Tracer is a bounded, drop-oldest event ring for one lab. The zero value is
// not usable; construct with New. A nil *Tracer is a valid, zero-cost
// disabled tracer: every method no-ops (NextSpan returns 0).
//
// A Tracer is not safe for concurrent use — like the scheduler it records
// from, it belongs to exactly one simulation cell.
type Tracer struct {
	events  []Event
	start   int              // index of the oldest event
	count   int              // number of live events
	newest  time.Duration    // stamp of the newest ring event
	phases  []Event          // phase markers in time order, never evicted
	spanSeq uint64           // per-tracer span id counter
	counts  [numKinds]uint64 // events recorded per kind, kept or evicted
}

// New creates a tracer with a bounded ring of n events; n must be
// positive.
func New(n int) *Tracer {
	return &Tracer{events: make([]Event, n)}
}

// NextSpan allocates a fresh span id (0 when disabled). Span ids are
// per-tracer and deterministic: they derive only from the order of NextSpan
// calls within the owning cell.
func (t *Tracer) NextSpan() uint64 {
	if t == nil {
		return 0
	}
	t.spanSeq++
	return t.spanSeq
}

// Record counts an event under its kind and appends it, evicting the oldest
// when the ring is full. Events arrive in time order (Network.Trace stamps
// the scheduler's clock), so Record panics on one stamped before the newest
// event the ring holds: Each relies on that order.
func (t *Tracer) Record(ev Event) {
	if t == nil {
		return
	}
	if ev.At < t.newest {
		panic("trace: " + ev.Kind.String() + " event at " + ev.At.String() + " recorded after one at " + t.newest.String())
	}
	t.newest = ev.At
	t.counts[ev.Kind]++
	if t.count == len(t.events) {
		// Drop-oldest: overwrite the slot at start.
		t.events[t.start] = ev
		t.start++
		if t.start == len(t.events) {
			t.start = 0
		}
		return
	}
	i := t.start + t.count
	if i >= len(t.events) {
		i -= len(t.events)
	}
	t.events[i] = ev
	t.count++
}

// Phase records a marker: an experiment's phase boundary, or a latency
// cell's breakdown once its actions are done. Markers for future phases are
// recorded immediately with an explicit At stamp — never via scheduled
// callbacks — so tracing leaves the scheduler's event stream untouched.
// Markers are kept beside the ring, never evicted, and must come in time
// order.
func (t *Tracer) Phase(at time.Duration, name string) {
	if t == nil {
		return
	}
	if n := len(t.phases); n > 0 && at < t.phases[n-1].At {
		panic("trace: phase " + name + " at " + at.String() + " recorded after one at " + t.phases[n-1].At.String())
	}
	t.counts[KindPhase]++
	t.phases = append(t.phases, Event{At: at, Kind: KindPhase, Name: name})
}

// Count returns how many events of kind k were recorded, kept or evicted.
func (t *Tracer) Count(k Kind) uint64 {
	if t == nil {
		return 0
	}
	return t.counts[k]
}

// Dropped returns how many events the drop-oldest policy evicted.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	var n uint64
	for _, c := range t.counts {
		n += c
	}
	return n - uint64(t.count+len(t.phases))
}

// Each calls fn on every event the tracer holds, in time order, reading the
// ring in place: oldest first, with each phase marker merged in before the
// ring events of its instant. A nil tracer holds none.
func (t *Tracer) Each(fn func(Event)) {
	if t == nil {
		return
	}
	phases := t.phases
	for k := 0; k < t.count; k++ {
		i := t.start + k
		if i >= len(t.events) {
			i -= len(t.events)
		}
		for len(phases) > 0 && phases[0].At <= t.events[i].At {
			fn(phases[0])
			phases = phases[1:]
		}
		fn(t.events[i])
	}
	for _, ev := range phases {
		fn(ev)
	}
}
