package trace

import (
	"bufio"
	"io"
	"strconv"
	"time"
)

// WriteChrome exports all cells as Chrome trace-event JSON, loadable in
// Perfetto or chrome://tracing. Each cell becomes a process; each track
// (host) becomes a named thread. Packet spans are async "b"/"e" pairs keyed
// by span id, cwnd changes are counter tracks, and everything else is an
// instant event. The writer is hand-rolled (no maps at emit time), so the
// bytes are a pure function of the recorded events.
func (c *Collector) WriteChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"traceEvents\":[")
	first := true
	for pid, label := range c.Labels() {
		first = writeChromeCell(bw, pid+1, label, c.Lookup(label), first)
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

func writeChromeCell(bw *bufio.Writer, pid int, label string, t *Tracer, first bool) bool {
	comma := func() {
		if !first {
			bw.WriteByte(',')
		}
		first = false
	}

	// Process metadata.
	comma()
	bw.WriteString("{\"ph\":\"M\",\"pid\":")
	bw.WriteString(strconv.Itoa(pid))
	bw.WriteString(",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":")
	writeJSONString(bw, label)
	bw.WriteString("}}")

	// Thread (track) metadata in first-seen order.
	tids := map[string]int{"": 0}
	t.Each(func(ev Event) {
		if _, ok := tids[ev.Track]; ok {
			return
		}
		tid := len(tids)
		tids[ev.Track] = tid
		comma()
		bw.WriteString("{\"ph\":\"M\",\"pid\":")
		bw.WriteString(strconv.Itoa(pid))
		bw.WriteString(",\"tid\":")
		bw.WriteString(strconv.Itoa(tid))
		bw.WriteString(",\"name\":\"thread_name\",\"args\":{\"name\":")
		writeJSONString(bw, ev.Track)
		bw.WriteString("}}")
	})

	t.Each(func(ev Event) {
		comma()
		writeChromeEvent(bw, pid, tids[ev.Track], ev)
	})
	return first
}

func writeChromeEvent(bw *bufio.Writer, pid, tid int, ev Event) {
	head := func(ph, name, cat string) {
		bw.WriteString("{\"ph\":\"")
		bw.WriteString(ph)
		bw.WriteString("\",\"pid\":")
		bw.WriteString(strconv.Itoa(pid))
		bw.WriteString(",\"tid\":")
		bw.WriteString(strconv.Itoa(tid))
		bw.WriteString(",\"ts\":")
		writeTS(bw, ev.At)
		bw.WriteString(",\"cat\":\"")
		bw.WriteString(cat)
		bw.WriteString("\",\"name\":")
		writeJSONString(bw, name)
	}
	id := func() {
		bw.WriteString(",\"id\":\"")
		bw.WriteString(strconv.FormatUint(ev.Span, 16))
		bw.WriteString("\"")
	}
	switch ev.Kind {
	case KindPacketSend:
		head("b", "pkt", "packet")
		id()
		bw.WriteString(",\"args\":{\"bytes\":")
		bw.WriteString(strconv.FormatInt(ev.Arg, 10))
		bw.WriteString("}}")
	case KindPacketHop:
		head("n", "pkt", "packet")
		id()
		bw.WriteString("}")
	case KindPacketDeliver, KindPacketDrop:
		if ev.Kind == KindPacketDrop {
			// Name the drop cause as an instant before closing the span.
			head("i", ev.Name, "drop")
			bw.WriteString(",\"s\":\"t\"}")
			bw.WriteByte(',')
		}
		head("e", "pkt", "packet")
		id()
		bw.WriteString("}")
	case KindTCPCwnd:
		head("C", "cwnd", "tcp")
		id()
		bw.WriteString(",\"args\":{\"cwnd\":")
		bw.WriteString(strconv.FormatInt(ev.Arg, 10))
		bw.WriteString("}}")
	default:
		head("i", ev.Name, ev.Kind.String())
		if ev.Span != 0 {
			id()
		}
		bw.WriteString(",\"s\":\"t\",\"args\":{\"arg\":")
		bw.WriteString(strconv.FormatInt(ev.Arg, 10))
		bw.WriteString(",\"arg2\":")
		bw.WriteString(strconv.FormatInt(ev.Arg2, 10))
		bw.WriteString("}}")
	}
}

// writeTS writes virtual time as microseconds with nanosecond precision.
func writeTS(bw *bufio.Writer, at time.Duration) {
	us := at / time.Microsecond
	ns := at % time.Microsecond
	bw.WriteString(strconv.FormatInt(int64(us), 10))
	if ns != 0 {
		bw.WriteByte('.')
		frac := strconv.FormatInt(int64(ns), 10)
		for len(frac) < 3 {
			frac = "0" + frac
		}
		bw.WriteString(frac)
	}
}

// writeJSONString writes s as a JSON string literal.
func writeJSONString(bw *bufio.Writer, s string) {
	bw.WriteByte('"')
	for i := 0; i < len(s); i++ {
		b := s[i]
		switch {
		case b == '"' || b == '\\':
			bw.WriteByte('\\')
			bw.WriteByte(b)
		case b < 0x20:
			const hex = "0123456789abcdef"
			bw.WriteString("\\u00")
			bw.WriteByte(hex[b>>4])
			bw.WriteByte(hex[b&0xf])
		default:
			bw.WriteByte(b)
		}
	}
	bw.WriteByte('"')
}
