package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestNilTracerIsZeroCostDisabled(t *testing.T) {
	var tr *Tracer
	if got := tr.NextSpan(); got != 0 {
		t.Fatalf("nil NextSpan = %d, want 0", got)
	}
	// Both recording methods must be safe no-ops on nil.
	tr.Record(Event{Kind: KindPacketSend})
	tr.Phase(0, "join")
	if tr.Count(KindPacketSend) != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer leaked state")
	}
}

func TestSpanIDsAreSequential(t *testing.T) {
	tr := New(8)
	for want := uint64(1); want <= 5; want++ {
		if got := tr.NextSpan(); got != want {
			t.Fatalf("NextSpan = %d, want %d", got, want)
		}
	}
}

func TestRingDropOldest(t *testing.T) {
	tr := New(4)
	for i := 0; i < 7; i++ {
		tr.Record(Event{At: time.Duration(i), Name: "e"})
	}
	if tr.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("events = %d", len(evs))
	}
	// Oldest-first, and the three oldest (At 0,1,2) were evicted.
	for i, ev := range evs {
		if want := time.Duration(i + 3); ev.At != want {
			t.Fatalf("event %d At = %v, want %v", i, ev.At, want)
		}
	}
}

func TestRecordDoesNotAllocate(t *testing.T) {
	tr := New(1 << 10)
	ev := Event{At: time.Second, Kind: KindPacketSend, Span: 1, Track: "u1", Name: "udp", Arg: 100}
	if avg := testing.AllocsPerRun(1000, func() { tr.Record(ev) }); avg != 0 {
		t.Fatalf("Record allocates %.2f objects/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() { tr.Phase(time.Second, "join") }); avg != 0 {
		t.Fatalf("Phase allocates %.2f objects/op, want 0", avg)
	}
}

// TestCountsSurviveEviction: the per-kind counts include every event the
// ring was handed, the ones it evicted too.
func TestCountsSurviveEviction(t *testing.T) {
	tr := New(2)
	for i := 0; i < 5; i++ {
		tr.Record(Event{Kind: KindPacketSend})
	}
	tr.Record(Event{Kind: KindPacketDeliver})
	tr.Phase(time.Second, "end")
	for k, want := range map[Kind]uint64{KindPacketSend: 5, KindPacketDeliver: 1, KindPhase: 1, KindPacketDrop: 0} {
		if got := tr.Count(k); got != want {
			t.Errorf("Count(%s) = %d, want %d", k, got, want)
		}
	}
	if tr.Dropped() != 5 || len(tr.Events()) != 2 {
		t.Fatalf("dropped = %d, kept = %d; want 5, 2", tr.Dropped(), len(tr.Events()))
	}
}

func TestCollectorCells(t *testing.T) {
	var nilC *Collector
	if nilC.Cell("x") != nil {
		t.Fatal("nil collector returned a tracer")
	}
	c := NewCollector()
	a := c.Cell("sweep/b")
	if a == nil {
		t.Fatal("Cell returned nil on a live collector")
	}
	if c.Cell("sweep/b") != a {
		t.Fatal("same label returned a different tracer")
	}
	c.Cell("sweep/a")
	labels := c.Labels()
	if len(labels) != 2 || labels[0] != "sweep/a" || labels[1] != "sweep/b" {
		t.Fatalf("labels = %v, want sorted [sweep/a sweep/b]", labels)
	}
	var buf bytes.Buffer
	if err := c.Export(&buf, "nope"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

// populate records a tiny but representative event mix into a cell.
func populate(tr *Tracer) {
	tr.Phase(0, "launch")
	s, d := tr.NextSpan(), tr.NextSpan()
	for _, ev := range []Event{
		{At: monoMs(10), Kind: KindPacketSend, Span: s, Track: "u1", Name: "udp", Arg: 120},
		{At: monoMs(11), Kind: KindPacketHop, Span: s, Track: "nyc", Name: "hop", Arg: 120},
		{At: monoMs(12), Kind: KindPacketDeliver, Span: s, Track: "srv", Name: "deliver", Arg: 120},
		{At: monoMs(13), Kind: KindPacketSend, Span: d, Track: "u1", Name: "udp", Arg: 80},
		{At: monoMs(14), Kind: KindPacketDrop, Span: d, Track: "u1", Name: "netem-loss-up", Arg: 80},
		{At: monoMs(15), Kind: KindTCPState, Span: 3, Track: "u1", Name: "syn-sent"},
		{At: monoMs(16), Kind: KindTCPCwnd, Span: 3, Track: "u1", Name: "cwnd", Arg: 2920},
		{At: monoMs(17), Kind: KindNetem, Track: "u1", Name: "downlink:1.0", Arg: 1_000_000},
	} {
		tr.Record(ev)
	}
}

func monoMs(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestChromeExportIsValidJSONAndDeterministic(t *testing.T) {
	c := NewCollector()
	populate(c.Cell("cell/one"))
	populate(c.Cell("cell/two"))
	var a, b bytes.Buffer
	if err := c.Export(&a, "chrome"); err != nil {
		t.Fatal(err)
	}
	if err := c.Export(&b, "chrome"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("chrome export not byte-stable across calls")
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string          `json:"ph"`
			Name string          `json:"name"`
			Pid  *int            `json:"pid"`
			TS   json.RawMessage `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	var begins, ends, metas int
	for _, ev := range doc.TraceEvents {
		if ev.Pid == nil {
			t.Fatalf("event %q missing pid", ev.Name)
		}
		switch ev.Ph {
		case "b":
			begins++
		case "e":
			ends++
		case "M":
			metas++
		}
	}
	// Each cell: one delivered span and one dropped span (drops also close).
	if begins != 4 || ends != 4 {
		t.Fatalf("begin/end events = %d/%d, want 4/4", begins, ends)
	}
	if metas == 0 {
		t.Fatal("no process/thread metadata events")
	}
}

func TestTextExport(t *testing.T) {
	c := NewCollector()
	populate(c.Cell("cell/one"))
	var buf bytes.Buffer
	if err := c.Export(&buf, "text"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== cell cell/one", "pkt-send", "netem-loss-up", "syn-sent", "downlink:1.0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text export missing %q:\n%s", want, out)
		}
	}
}

func TestAnalyzeActions(t *testing.T) {
	tr := New(64)
	action := func(ms int, span uint64, track, name string) {
		tr.Record(Event{At: monoMs(ms), Kind: KindAction, Span: span, Track: track, Name: name})
	}
	// One complete action span with known algebra.
	action(10, 7, "u1", "trigger")
	action(12, 7, "u1", "send")
	action(20, 7, "srv", "server_in")
	action(23, 7, "srv", "server_out")
	action(31, 7, "u2", "recv")
	action(40, 7, "u2", "display")
	// An incomplete span (no display) must be skipped.
	action(50, 8, "u1", "trigger")
	action(51, 8, "u1", "send")

	samples := AnalyzeActions(tr.Events())
	if len(samples) != 1 {
		t.Fatalf("samples = %d, want 1", len(samples))
	}
	s := samples[0]
	if s.Span != 7 {
		t.Fatalf("span = %d", s.Span)
	}
	check := func(name string, got, want float64) {
		if got != want {
			t.Fatalf("%s = %v ms, want %v", name, got, want)
		}
	}
	check("e2e", s.E2EMs, 30)
	check("sender", s.SenderMs, 2)
	check("server", s.ServerMs, 3)
	check("receiver", s.ReceiverMs, 9)
	check("network", s.NetworkMs, 16) // (20-12) + (31-23)
	if s.SenderMs+s.NetworkMs+s.ServerMs+s.ReceiverMs != s.E2EMs {
		t.Fatal("segments do not sum to e2e")
	}

	sum, n := SummarizeActions(tr.Events())
	if n != 1 || sum.E2EMs != 30 {
		t.Fatalf("summary = %+v over %d samples", sum, n)
	}
}
