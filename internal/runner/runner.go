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
	"time"

	"github.com/svrlab/svrlab/internal/obs"
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
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	panics := make([]any, n)
	p := NewPool(w)
	for i := 0; i < n; i++ {
		i := i
		p.Submit(func() {
			defer func() { panics[i] = recover() }()
			out[i] = fn(i)
		})
	}
	p.Wait()
	for _, v := range panics {
		if v != nil {
			panic(v)
		}
	}
	return out
}

// MapObserved is Map plus per-cell accounting into m: a "runner.cells"
// counter (deterministic) and a "runner.cell_wall" wall-clock histogram.
// Wall time varies run to run, so that series is volatile — present in
// Snapshot but excluded from Snapshot.Stable, keeping the Workers-1 vs
// Workers-N determinism contract intact. A nil m is plain Map.
func MapObserved[T any](m *obs.Registry, workers, n int, fn func(i int) T) []T {
	if m == nil {
		return Map(workers, n, fn)
	}
	return Map(workers, n, func(i int) T {
		start := time.Now()
		out := fn(i)
		m.Inc("runner.cells")
		m.ObserveWall("runner.cell_wall", time.Since(start))
		return out
	})
}

// Pool is a fixed-size worker pool for fan-out jobs whose count is not known
// up front. Submit enqueues a job; Wait blocks until every submitted job has
// finished and releases the workers. A Pool is single-use: Submit after Wait
// panics.
type Pool struct {
	jobs chan func()
	wg   sync.WaitGroup
	done bool
}

// NewPool starts a pool with the given number of workers (<= 0 selects the
// GOMAXPROCS default).
func NewPool(workers int) *Pool {
	w := Workers(workers)
	p := &Pool{jobs: make(chan func())}
	for i := 0; i < w; i++ {
		go func() {
			for job := range p.jobs {
				job()
				p.wg.Done()
			}
		}()
	}
	return p
}

// Submit enqueues one job. It blocks while all workers are busy, bounding
// in-flight work at the pool size.
func (p *Pool) Submit(job func()) {
	if p.done {
		panic("runner: Submit after Wait")
	}
	p.wg.Add(1)
	p.jobs <- job
}

// Wait blocks until all submitted jobs complete, then shuts the workers down.
func (p *Pool) Wait() {
	if p.done {
		return
	}
	p.done = true
	p.wg.Wait()
	close(p.jobs)
}
