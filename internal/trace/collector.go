package trace

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// Collector aggregates the tracers of a multi-cell experiment, one per
// sweep cell. It mirrors obs.Registry: sweep runners request a cell tracer
// under a deterministic label before the cell runs, cells record into their
// private tracer without any cross-cell synchronization, and exports walk
// the cells sorted by label, each read in place and in time order by
// Tracer.Each — so collector output is byte-identical at any worker count,
// and an export copies no ring.
//
// A nil *Collector is a valid disabled collector: Cell returns a nil
// *Tracer and exports write nothing.
type Collector struct {
	mu    sync.Mutex
	cells map[string]*Tracer
}

// NewCollector creates an empty collector.
func NewCollector() *Collector { return &Collector{cells: make(map[string]*Tracer)} }

// Cell creates the tracer of a new cell label, with a ring of
// DefaultCapacity events. A label names one cell: asking for one a second
// time panics, because two labs recording into one tracer would interleave
// or break its time order.
func (c *Collector) Cell(label string) *Tracer {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.cells[label]; dup {
		panic("trace: cell label " + label + " used twice")
	}
	t := New(DefaultCapacity)
	c.cells[label] = t
	return t
}

// Lookup returns the tracer of a cell label, or nil if no cell has it.
func (c *Collector) Lookup(label string) *Tracer {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cells[label]
}

// Labels returns all cell labels sorted.
func (c *Collector) Labels() []string {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.cells))
	for l := range c.cells {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// Export writes the collected traces in the given format: "chrome"
// (trace-event JSON, loadable in Perfetto) or "text" (human timeline).
func (c *Collector) Export(w io.Writer, format string) error {
	switch format {
	case "chrome", "":
		return c.WriteChrome(w)
	case "text":
		return c.WriteText(w)
	}
	return fmt.Errorf("trace: unknown format %q (want chrome or text)", format)
}
