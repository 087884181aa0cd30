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

// Cell returns the tracer for the given cell label, creating it on first
// use with a ring of DefaultCapacity events. Labels must be unique per
// cell: requesting an existing label returns the same tracer.
func (c *Collector) Cell(label string) *Tracer {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.cells[label]; ok {
		return t
	}
	t := New(DefaultCapacity)
	c.cells[label] = t
	return t
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
