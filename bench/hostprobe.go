package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"syscall"
	"time"
)

// The host's speed drifts with its neighbours' load. On the VM the bounds
// were set on, the runs of one 40 s measurement agreed to a few percent,
// yet the same workload ran 1.45 times slower three minutes later, and
// process start-up 1.7 times slower. So the parent probes the host next to
// every child it times, and the end-to-end timings are reported in
// reference-host seconds: each measured time scaled by refProbeS over the
// probe's time around it.

// refProbeS is the probe's time on the reference VM in a quiet hour
// (bench/README.md names the VM).
const refProbeS = 0.0085

// probeBytes is how much fresh memory one probe faults in.
const probeBytes = 16 << 20

var probeSink uint64

// probeHost returns the median of n probes. A probe is the geometric mean
// of two timings of fixed work: faulting in probeBytes of fresh anonymous
// memory, one write per page, and a 5M-step xorshift loop. The first
// follows the memory and page-fault costs that dominate a fresh process
// growing its heap; the second follows plain CPU speed. In ten-seed trials
// each alone tracked some workloads and not others; their mean tracked all
// three.
func probeHost(n int) (float64, error) {
	xs := make([]float64, n)
	for i := range xs {
		t := time.Now()
		mem, err := syscall.Mmap(-1, 0, probeBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return 0, fmt.Errorf("host probe: %w", err)
		}
		for p := 0; p < len(mem); p += os.Getpagesize() {
			mem[p] = 1
		}
		if err := syscall.Munmap(mem); err != nil {
			return 0, fmt.Errorf("host probe: %w", err)
		}
		pages := time.Since(t).Seconds()

		t = time.Now()
		x := uint64(88172645463325252)
		for j := 0; j < 5_000_000; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		probeSink += x
		xs[i] = math.Sqrt(pages * time.Since(t).Seconds())
	}
	slices.Sort(xs)
	return xs[n/2], nil
}
