// Package runner is the bounded worker-pool fan-out layer for embarrassingly
// parallel measurement sweeps. Every (platform × user-count × repeat) cell in
// an experiment constructs its own Lab — a private simtime.Scheduler, seeded
// RNG, and deployment — so cells never share mutable state and can execute
// concurrently without changing results.
//
// The determinism contract: a cell's seed is derived exactly as the serial
// code derives it, cells receive their index up front, and results are
// collected by index, so the assembled output never depends on goroutine
// completion order. Running with 1 worker and with N workers produces
// byte-identical artifacts.
package runner

import (
	"runtime"
	"sync"
)

// Workers resolves a requested worker count: values > 0 are used as given,
// anything else defaults to GOMAXPROCS (one worker per schedulable CPU).
func Workers(requested int) int {
	if requested > 0 {
		return requested
	}
	return runtime.GOMAXPROCS(0)
}

// Map executes fn(0), fn(1), ... fn(n-1) on up to workers goroutines and
// returns the results indexed by input: out[i] = fn(i). A workers value <= 0
// selects the GOMAXPROCS default; an effective worker count of 1 (or n <= 1)
// runs inline on the calling goroutine with no synchronization at all, which
// is the exact serial execution order.
//
// A panicking fn(i) never crashes a worker: once every cell has finished,
// Map re-raises the panic of the lowest-index cell that panicked on the
// calling goroutine, where a caller can recover it. That is the panic the
// serial order raises first, so it is the same at any worker count.
func Map[T any](workers, n int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	w := min(Workers(workers), n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	panics := make([]any, n)
	cells := make(chan int, n)
	for i := 0; i < n; i++ {
		cells <- i
	}
	close(cells)
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for i := range cells {
				func() {
					defer func() { panics[i] = recover() }()
					out[i] = fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	for _, v := range panics {
		if v != nil {
			panic(v)
		}
	}
	return out
}
