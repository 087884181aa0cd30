package trace

import (
	"sort"
	"time"
)

// ActionSample is one marked action's latency decomposition recomputed from
// trace events alone, using the same algebra as the Table-4 rig
// (experiment.measureLatency): sender = send−trigger, server = out−in,
// network = (in−send)+(recv−out), receiver = display−recv, e2e =
// display−trigger. The only difference from the rig is clock handling: the
// rig converts headset-local stamps through a measured (noisy) clock offset,
// while the trace carries pure virtual-time stamps — so trace-derived
// segments match the rig within its ±0.3 ms clock-sync error.
type ActionSample struct {
	Span                                             uint64
	E2EMs, SenderMs, NetworkMs, ServerMs, ReceiverMs float64
}

// ActionSummary is the mean decomposition over all complete actions.
type ActionSummary struct {
	E2EMs, SenderMs, NetworkMs, ServerMs, ReceiverMs float64
}

type actionStamps struct {
	span                            uint64
	trigger, send, srvIn, srvOut    time.Duration
	hasTrig, hasSend, hasIn, hasOut bool
	recvs                           []recvStamp
}

type recvStamp struct {
	track            string
	recv, display    time.Duration
	hasRecv, hasDisp bool
}

// AnalyzeActions extracts one sample per complete action (all six lifecycle
// stamps present) among the events t holds, choosing the earliest-receiving
// receiver — for the two-user Table-4 cells that is the U1→U2 path the
// paper measures.
func AnalyzeActions(t *Tracer) []ActionSample {
	bysSpan := map[uint64]*actionStamps{}
	get := func(span uint64) *actionStamps {
		a, ok := bysSpan[span]
		if !ok {
			a = &actionStamps{span: span}
			bysSpan[span] = a
		}
		return a
	}
	rcv := func(a *actionStamps, track string) *recvStamp {
		for i := range a.recvs {
			if a.recvs[i].track == track {
				return &a.recvs[i]
			}
		}
		a.recvs = append(a.recvs, recvStamp{track: track})
		return &a.recvs[len(a.recvs)-1]
	}
	t.Each(func(ev Event) {
		if ev.Kind != KindAction || ev.Span == 0 {
			return
		}
		a := get(ev.Span)
		switch ev.Name {
		case "trigger":
			a.trigger, a.hasTrig = ev.At, true
		case "send":
			a.send, a.hasSend = ev.At, true
		case "server_in":
			a.srvIn, a.hasIn = ev.At, true
		case "server_out":
			a.srvOut, a.hasOut = ev.At, true
		case "recv":
			r := rcv(a, ev.Track)
			r.recv, r.hasRecv = ev.At, true
		case "display":
			r := rcv(a, ev.Track)
			r.display, r.hasDisp = ev.At, true
		}
	})

	spans := make([]uint64, 0, len(bysSpan))
	for s := range bysSpan {
		spans = append(spans, s)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i] < spans[j] })

	toMs := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	var out []ActionSample
	for _, s := range spans {
		a := bysSpan[s]
		if !(a.hasTrig && a.hasSend && a.hasIn && a.hasOut) {
			continue
		}
		var best *recvStamp
		for i := range a.recvs {
			r := &a.recvs[i]
			if !r.hasRecv || !r.hasDisp {
				continue
			}
			if best == nil || r.recv < best.recv {
				best = r
			}
		}
		if best == nil {
			continue
		}
		out = append(out, ActionSample{
			Span:       a.span,
			E2EMs:      toMs(best.display - a.trigger),
			SenderMs:   toMs(a.send - a.trigger),
			ServerMs:   toMs(a.srvOut - a.srvIn),
			NetworkMs:  toMs((a.srvIn - a.send) + (best.recv - a.srvOut)),
			ReceiverMs: toMs(best.display - best.recv),
		})
	}
	return out
}

// SummarizeActions averages AnalyzeActions over all complete actions,
// returning the summary and the sample count.
func SummarizeActions(t *Tracer) (ActionSummary, int) {
	samples := AnalyzeActions(t)
	var sum ActionSummary
	if len(samples) == 0 {
		return sum, 0
	}
	for _, s := range samples {
		sum.E2EMs += s.E2EMs
		sum.SenderMs += s.SenderMs
		sum.NetworkMs += s.NetworkMs
		sum.ServerMs += s.ServerMs
		sum.ReceiverMs += s.ReceiverMs
	}
	n := float64(len(samples))
	sum.E2EMs /= n
	sum.SenderMs /= n
	sum.NetworkMs /= n
	sum.ServerMs /= n
	sum.ReceiverMs /= n
	return sum, len(samples)
}
