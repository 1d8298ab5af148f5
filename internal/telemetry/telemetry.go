// Package telemetry is the observability layer shared by the solvers,
// the protocol simulator and the route-query service: lock-cheap
// counters and gauges, fixed-bucket latency histograms with atomic bins
// (mergeable, with percentile extraction shared with the load
// generator), a ring-buffer event tracer, and Prometheus text-format
// exposition via Registry.
//
// Everything here is safe for concurrent use and designed to be cheap
// enough for hot paths: a Counter increment is one atomic add, a
// Histogram observation is a short binary search plus three atomic
// adds, and instruments carry no names — naming happens once, at
// registration time, so the fast path never touches a map or a string.
package telemetry

import (
	"sync/atomic"
	"unsafe"
)

// Counter is a monotonically increasing counter. The zero value is
// ready to use; embed it by value and share it by pointer.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n and returns the new count — callers use the returned
// ordinal for cheap modular sampling without a second atomic.
func (c *Counter) Add(n uint64) uint64 { return c.v.Add(n) }

// Load reads the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// stripes is the number of cells a StripedCounter spreads its count
// over, 1<<stripeBits.
const (
	stripeBits = 4
	stripes    = 1 << stripeBits
)

// StripedCounter is a Counter for paths many goroutines bump at once,
// such as every in-process route query: its count is spread over
// stripes cells, each on its own cache line, an add lands on the calling
// goroutine's cell, and Load sums the cells. Goroutines running at once
// mostly write different lines, where a Counter's adds all write one.
// The zero value is ready to use; share it by pointer.
type StripedCounter struct{ cells [stripes]paddedCount }

// paddedCount fills a 64-byte cache line.
type paddedCount struct {
	atomic.Uint64
	_ [56]byte
}

// Add adds n to the calling goroutine's cell and returns that cell's new
// count: an ordinal local to the cell, fit for sampling (every k-th add
// of a cell is one add in k overall), never the total.
func (c *StripedCounter) Add(n uint64) uint64 { return c.cells[stripe()].Add(n) }

// Load sums the cells: every add that returned before Load began is
// counted.
func (c *StripedCounter) Load() uint64 {
	var sum uint64
	for i := range c.cells {
		sum += c.cells[i].Load()
	}
	return sum
}

// stripe picks the calling goroutine's cell by hashing the address of a
// local variable. Goroutine stacks are disjoint, so goroutines running
// at once mostly hash to different cells, and a goroutine keeps its
// cell while its stack stays where it is; the pick costs no shared
// write and no random draw. The low 10 bits, which move with call depth
// more than with the goroutine (stacks start at 2 KiB), are dropped and
// the rest Fibonacci-hashed. Any cell is correct: the pick only spreads
// the writes.
func stripe() uint64 {
	var local byte
	return uint64(uintptr(unsafe.Pointer(&local))>>10) * 0x9e3779b97f4a7c15 >> (64 - stripeBits)
}

// Gauge is a value that can go up and down. The zero value is ready to
// use.
type Gauge struct{ v atomic.Int64 }

// Set installs an absolute value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load reads the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }
