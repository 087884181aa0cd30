package trace

import (
	"bufio"
	"fmt"
	"io"
	"time"
)

// WriteText exports all cells as a human-readable timeline, one line per
// event, in the time order of Tracer.Each within each cell.
func (c *Collector) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, label := range c.Labels() {
		t := c.Cell(label)
		fmt.Fprintf(bw, "== cell %s (%d events, %d dropped) ==\n",
			label, t.count+len(t.phases), t.Dropped())
		t.Each(func(ev Event) { writeTextEvent(bw, ev) })
		if sum, n := SummarizeActions(t); n > 0 {
			fmt.Fprintf(bw, "-- actions: %d complete; mean e2e %.1fms = sender %.1f + network %.1f + server %.1f + receiver %.1f\n",
				n, sum.E2EMs, sum.SenderMs, sum.NetworkMs, sum.ServerMs, sum.ReceiverMs)
		}
	}
	return bw.Flush()
}

func writeTextEvent(bw *bufio.Writer, ev Event) {
	fmt.Fprintf(bw, "%14s %-11s", fmtAt(ev.At), ev.Kind)
	if ev.Track != "" {
		fmt.Fprintf(bw, " %-22s", ev.Track)
	} else {
		fmt.Fprintf(bw, " %-22s", "-")
	}
	if ev.Name != "" {
		fmt.Fprintf(bw, " %s", ev.Name)
	}
	if ev.Span != 0 {
		fmt.Fprintf(bw, " span=%d", ev.Span)
	}
	if ev.Arg != 0 {
		fmt.Fprintf(bw, " arg=%d", ev.Arg)
	}
	if ev.Arg2 != 0 {
		fmt.Fprintf(bw, " arg2=%d", ev.Arg2)
	}
	bw.WriteByte('\n')
}

func fmtAt(at time.Duration) string {
	return fmt.Sprintf("%.6fs", float64(at)/float64(time.Second))
}
