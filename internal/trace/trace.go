// Package trace is the lab's flight recorder: a per-lab, ring-buffer-backed
// log of typed, virtual-time-stamped events covering the full life of the
// simulation — packet lifecycle spans (send → hop → deliver or
// drop-with-cause), TCP state transitions and congestion events, TLS
// handshake phases, RTP/RTCP reports, netem schedule actions, and experiment
// phase markers.
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
//     with a drop-oldest policy and a dropped-events counter — still 0
//     allocs/op per event.
package trace

import "time"

// Kind classifies an event.
type Kind uint8

// Event kinds, one per instrumented layer.
const (
	KindPhase         Kind = iota // experiment phase marker
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
// records more keeps only its last DefaultCapacity events: at seed 42 a
// traced table4 run with one repeat fits only its Rec Room cell (17,471
// events), and each of its other five cells drops between 393,963 and
// 2,175,822 of its oldest events.
const DefaultCapacity = 1 << 16

// Tracer is a bounded, drop-oldest event ring for one lab. The zero value is
// not usable; construct with New. A nil *Tracer is a valid, zero-cost
// disabled tracer: every method no-ops (NextSpan returns 0).
//
// A Tracer is not safe for concurrent use — like the scheduler it records
// from, it belongs to exactly one simulation cell.
type Tracer struct {
	events  []Event
	start   int    // index of the oldest event
	count   int    // number of live events
	dropped uint64 // events evicted by the drop-oldest policy
	spanSeq uint64 // per-tracer span id counter
}

// New creates a tracer with a bounded ring of n events; n must be
// positive.
func New(n int) *Tracer {
	return &Tracer{events: make([]Event, n)}
}

// Enabled reports whether events are being recorded.
func (t *Tracer) Enabled() bool { return t != nil }

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

// Record appends an event, evicting the oldest when the ring is full.
func (t *Tracer) Record(ev Event) {
	if t == nil {
		return
	}
	if t.count == len(t.events) {
		// Drop-oldest: overwrite the slot at start.
		t.events[t.start] = ev
		t.start++
		if t.start == len(t.events) {
			t.start = 0
		}
		t.dropped++
		return
	}
	i := t.start + t.count
	if i >= len(t.events) {
		i -= len(t.events)
	}
	t.events[i] = ev
	t.count++
}

// Packet records a packet-lifecycle event (send/hop/deliver/drop).
func (t *Tracer) Packet(at time.Duration, kind Kind, span uint64, track, name string, size int) {
	if t == nil {
		return
	}
	t.Record(Event{At: at, Kind: kind, Span: span, Track: track, Name: name, Arg: int64(size)})
}

// TCPState records a connection state transition.
func (t *Tracer) TCPState(at time.Duration, span uint64, track, state string) {
	if t == nil {
		return
	}
	t.Record(Event{At: at, Kind: KindTCPState, Span: span, Track: track, Name: state})
}

// TCPCwnd records a congestion-window change in bytes.
func (t *Tracer) TCPCwnd(at time.Duration, span uint64, track string, cwnd int64) {
	if t == nil {
		return
	}
	t.Record(Event{At: at, Kind: KindTCPCwnd, Span: span, Track: track, Name: "cwnd", Arg: cwnd})
}

// TCPRetx records a retransmission event ("fast-retransmit", "rto-backoff").
func (t *Tracer) TCPRetx(at time.Duration, span uint64, track, name string, arg, arg2 int64) {
	if t == nil {
		return
	}
	t.Record(Event{At: at, Kind: KindTCPRetx, Span: span, Track: track, Name: name, Arg: arg, Arg2: arg2})
}

// TLS records a handshake phase ("client-hello", "server-hello", ...).
func (t *Tracer) TLS(at time.Duration, span uint64, track, phase string) {
	if t == nil {
		return
	}
	t.Record(Event{At: at, Kind: KindTLS, Span: span, Track: track, Name: phase})
}

// RTCP records a sender report or RTT sample (arg in µs).
func (t *Tracer) RTCP(at time.Duration, track, name string, arg int64) {
	if t == nil {
		return
	}
	t.Record(Event{At: at, Kind: KindRTCP, Track: track, Name: name, Arg: arg})
}

// Netem records a schedule stage being applied or cleared.
func (t *Tracer) Netem(at time.Duration, track, name string, rateBps, delayUs int64) {
	if t == nil {
		return
	}
	t.Record(Event{At: at, Kind: KindNetem, Track: track, Name: name, Arg: rateBps, Arg2: delayUs})
}

// Phase records an experiment phase marker. Markers for future phases are
// recorded immediately with an explicit At stamp — never via scheduled
// callbacks — so tracing leaves the scheduler's event stream untouched.
func (t *Tracer) Phase(at time.Duration, name string) {
	if t == nil {
		return
	}
	t.Record(Event{At: at, Kind: KindPhase, Name: name})
}

// Action records an end-to-end action lifecycle stamp ("trigger", "send",
// "server_in", "server_out", "recv", "display"). Span is the action id.
func (t *Tracer) Action(at time.Duration, span uint64, track, name string) {
	if t == nil {
		return
	}
	t.Record(Event{At: at, Kind: KindAction, Span: span, Track: track, Name: name})
}

// Chaos records a fault being injected ("crash", "link-cut", "partition")
// or healed ("restart", "link-restore", "heal"). Track names the target
// host/link/site.
func (t *Tracer) Chaos(at time.Duration, track, name string) {
	if t == nil {
		return
	}
	t.Record(Event{At: at, Kind: KindChaos, Track: track, Name: name})
}

// Len returns the number of live events (0 when disabled).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.count
}

// Dropped returns how many events the drop-oldest policy evicted.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Events returns the live events oldest-first as a fresh slice.
func (t *Tracer) Events() []Event {
	if t == nil || t.count == 0 {
		return nil
	}
	out := make([]Event, t.count)
	head := len(t.events) - t.start
	if head > t.count {
		head = t.count
	}
	copy(out, t.events[t.start:t.start+head])
	copy(out[head:], t.events[:t.count-head])
	return out
}
