package trace

import (
	"bufio"
	"io"
	"strconv"
	"time"
	"unicode/utf8"
)

// WriteText exports all cells as a human-readable timeline, one line per
// event, in the time order of Tracer.Each within each cell. Each line is
// appended into one buffer the export reuses, so no event allocates.
func (c *Collector) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for _, label := range c.Labels() {
		t := c.Lookup(label)
		line = append(append(line[:0], "== cell "...), label...)
		line = strconv.AppendInt(append(line, " ("...), int64(t.count+len(t.phases)), 10)
		line = strconv.AppendUint(append(line, " events, "...), t.Dropped(), 10)
		bw.Write(append(line, " dropped) ==\n"...))
		t.Each(func(ev Event) {
			line = appendTextEvent(line[:0], ev)
			bw.Write(line)
		})
	}
	return bw.Flush()
}

// appendTextEvent appends ev's line to b: its time in seconds right-aligned
// in 14 columns, its kind in 11 and its track ("-" if none) in 22, each
// padded by rune count as fmt's widths are, then whichever of name, span,
// arg and arg2 it sets.
func appendTextEvent(b []byte, ev Event) []byte {
	var ts [24]byte
	at := append(strconv.AppendFloat(ts[:0], float64(ev.At)/float64(time.Second), 'f', 6, 64), 's')
	b = append(pad(b, 14-len(at)), at...)
	kind := ev.Kind.String()
	b = pad(append(append(b, ' '), kind...), 11-len(kind))
	track := ev.Track
	if track == "" {
		track = "-"
	}
	b = pad(append(append(b, ' '), track...), 22-utf8.RuneCountInString(track))
	if ev.Name != "" {
		b = append(append(b, ' '), ev.Name...)
	}
	if ev.Span != 0 {
		b = strconv.AppendUint(append(b, " span="...), ev.Span, 10)
	}
	if ev.Arg != 0 {
		b = strconv.AppendInt(append(b, " arg="...), ev.Arg, 10)
	}
	if ev.Arg2 != 0 {
		b = strconv.AppendInt(append(b, " arg2="...), ev.Arg2, 10)
	}
	return append(b, '\n')
}

// pad appends n spaces to b, none if n < 1; no field is wider than 22.
func pad(b []byte, n int) []byte { return append(b, "                      "[:max(n, 0)]...) }
