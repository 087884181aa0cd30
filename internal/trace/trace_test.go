package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
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
	if tr.Count(KindPacketSend) != 0 || tr.Dropped() != 0 || len(held(tr)) != 0 {
		t.Fatal("nil tracer leaked state")
	}
}

// held returns the events tr holds, in the order Each walks them.
func held(tr *Tracer) []Event {
	var evs []Event
	tr.Each(func(ev Event) { evs = append(evs, ev) })
	return evs
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
	evs := held(tr)
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
// ring was handed, the ones it evicted too, and the phase marker beside the
// ring is kept.
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
	if tr.Dropped() != 4 || len(held(tr)) != 3 {
		t.Fatalf("dropped = %d, kept = %d; want 4, 3", tr.Dropped(), len(held(tr)))
	}
}

func TestCollectorCells(t *testing.T) {
	var nilC *Collector
	if nilC.Cell("x") != nil || nilC.Lookup("x") != nil {
		t.Fatal("nil collector returned a tracer")
	}
	c := NewCollector()
	if c.Lookup("sweep/b") != nil {
		t.Fatal("Lookup of an unused label returned a tracer")
	}
	a := c.Cell("sweep/b")
	if a == nil {
		t.Fatal("Cell returned nil on a live collector")
	}
	if c.Lookup("sweep/b") != a {
		t.Fatal("Lookup returned a different tracer")
	}
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "sweep/b") {
				t.Fatalf("repeated label: recovered %v, want a panic naming sweep/b", r)
			}
		}()
		c.Cell("sweep/b")
	}()
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

// TestTextLineMatchesFmt: the text exporter appends each line by hand,
// byte for byte what fmt's verbs "%14s %-11s %-22s" and the optional
// " %s", " span=%d", " arg=%d" and " arg2=%d" fields write, rune-counted
// padding and overlong tracks included.
func TestTextLineMatchesFmt(t *testing.T) {
	for _, ev := range []Event{
		{},
		{At: 123456789 * time.Second, Kind: KindChaos, Track: "a-track-longer-than-22-columns", Name: "crash"},
		{At: 1500 * time.Microsecond, Kind: KindPacketDrop, Span: 1<<64 - 1, Track: "héte-ü", Name: "netem-loss-up", Arg: -3, Arg2: 7},
		{At: 999_999_999, Kind: KindPhase, Name: "breakdown: 1 of 2 actions displayed", Arg2: -1},
	} {
		track := ev.Track
		if track == "" {
			track = "-"
		}
		want := fmt.Sprintf("%14s %-11s %-22s", fmt.Sprintf("%.6fs", float64(ev.At)/float64(time.Second)), ev.Kind, track)
		if ev.Name != "" {
			want += " " + ev.Name
		}
		for _, f := range []struct {
			key string
			v   any
			set bool
		}{{"span", ev.Span, ev.Span != 0}, {"arg", ev.Arg, ev.Arg != 0}, {"arg2", ev.Arg2, ev.Arg2 != 0}} {
			if f.set {
				want += fmt.Sprintf(" %s=%d", f.key, f.v)
			}
		}
		if got := string(appendTextEvent(nil, ev)); got != want+"\n" {
			t.Errorf("text line %q, fmt writes %q", got, want+"\n")
		}
	}
}

// TestOutOfOrderStampsPanic: the ring and the marker list each hold their
// events in time order, so Record and Phase refuse a stamp before the
// newest they hold, and count nothing for it. One instant may repeat.
func TestOutOfOrderStampsPanic(t *testing.T) {
	tr := New(4)
	tr.Record(Event{At: monoMs(2), Kind: KindPacketSend})
	tr.Record(Event{At: monoMs(2), Kind: KindPacketDeliver})
	tr.Phase(monoMs(5), "actions")
	tr.Phase(monoMs(5), "steady")
	for name, record := range map[string]func(){
		"Record": func() { tr.Record(Event{At: monoMs(1), Kind: KindPacketSend}) },
		"Phase":  func() { tr.Phase(monoMs(4), "arrange") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a stamp before the newest it holds", name)
				}
			}()
			record()
		}()
	}
	if tr.Count(KindPacketSend) != 1 || tr.Count(KindPhase) != 2 {
		t.Fatalf("refused events were counted: %d sends, %d phases", tr.Count(KindPacketSend), tr.Count(KindPhase))
	}
}

// TestPhaseMarkersSurviveWrap: markers recorded ahead of a ring that then
// wraps are all kept, and both exports place each marker before the ring
// events of its instant.
func TestPhaseMarkersSurviveWrap(t *testing.T) {
	tr := New(4)
	tr.Phase(0, "launch")
	tr.Phase(monoMs(3), "actions")
	tr.Phase(monoMs(9), "end")
	for i := 0; i < 6; i++ {
		tr.Record(Event{At: monoMs(i), Kind: KindPacketHop, Span: uint64(i + 1), Track: "nyc", Name: "hop"})
	}
	c := &Collector{cells: map[string]*Tracer{"cell": tr}}

	var text bytes.Buffer
	if err := c.Export(&text, "text"); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, line := range strings.Split(strings.TrimSpace(text.String()), "\n") {
		lines = append(lines, strings.Join(strings.Fields(line), " "))
	}
	want := []string{
		"== cell cell (7 events, 2 dropped) ==",
		"0.000000s phase - launch",
		"0.002000s pkt-hop nyc hop span=3",
		"0.003000s phase - actions",
		"0.003000s pkt-hop nyc hop span=4",
		"0.004000s pkt-hop nyc hop span=5",
		"0.005000s pkt-hop nyc hop span=6",
		"0.009000s phase - end",
	}
	if strings.Join(lines, "\n") != strings.Join(want, "\n") {
		t.Errorf("text export:\n%s\nwant:\n%s", strings.Join(lines, "\n"), strings.Join(want, "\n"))
	}

	var chrome bytes.Buffer
	if err := c.Export(&chrome, "chrome"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Name string  `json:"name"`
			TS   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	var got []string
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "M" {
			got = append(got, fmt.Sprintf("%s@%gus", ev.Name, ev.TS))
		}
	}
	wantChrome := "launch@0us pkt@2000us actions@3000us pkt@3000us pkt@4000us pkt@5000us end@9000us"
	if strings.Join(got, " ") != wantChrome {
		t.Errorf("chrome events = %s\nwant %s", strings.Join(got, " "), wantChrome)
	}
}

// TestExportAllocBound: an export reads each ring in place. Over four full
// DefaultCapacity rings (18.9 MB of events) a chrome export may allocate
// 4.7 MB and a text export, which appends every line into one reused
// buffer, 1 MB; one more copy of the rings would take 18.9 MB alone.
func TestExportAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc bound only holds without -race")
	}
	mix := []Event{
		{Kind: KindPacketSend, Track: "client-u1", Name: "udp", Arg: 1240},
		{Kind: KindPacketHop, Track: "nyc", Name: "hop", Arg: 1240},
		{Kind: KindPacketDeliver, Track: "server", Name: "deliver", Arg: 1240},
	}
	c := NewCollector()
	for _, label := range []string{"cell/a", "cell/b", "cell/c", "cell/d"} {
		tr := c.Cell(label)
		tr.Phase(monoMs(1), "welcome")
		tr.Phase(monoMs(90), "social-event")
		for i := 0; i < DefaultCapacity+len(mix); i++ {
			ev := mix[i%len(mix)]
			ev.At, ev.Span = time.Duration(i)*10*time.Microsecond, uint64(i/len(mix)+1)
			tr.Record(ev)
		}
		if tr.Dropped() == 0 {
			t.Fatalf("%s: the ring did not wrap", label)
		}
	}
	for _, tc := range []struct {
		format string
		bound  uint64
	}{{"chrome", 4_700_000}, {"text", 1_000_000}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := c.Export(io.Discard, tc.format); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s export of four full rings allocated %.1f MB", tc.format, float64(got)/1e6)
		if got > tc.bound {
			t.Errorf("%s export allocated %.1f MB, want under %.1f MB", tc.format, float64(got)/1e6, float64(tc.bound)/1e6)
		}
	}
}
