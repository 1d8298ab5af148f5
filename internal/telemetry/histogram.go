package telemetry

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// LatencyBuckets is the default bucket layout for nanosecond latency
// histograms: roughly logarithmic from 250ns to 10s, chosen so the
// lock-free query path (~1µs) and snapshot reconvergence (~100µs–10ms)
// both land in the well-resolved middle of the range.
var LatencyBuckets = []int64{
	250, 500,
	1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
	1_000_000, 2_500_000, 5_000_000, 10_000_000, 25_000_000, 50_000_000,
	100_000_000, 250_000_000, 500_000_000,
	1_000_000_000, 2_500_000_000, 5_000_000_000, 10_000_000_000,
}

// Histogram is a fixed-bucket histogram over non-negative int64 samples
// (typically nanoseconds) with atomic bins: Observe is wait-free and
// safe from any number of goroutines, and two histograms with the same
// bucket layout merge bin-by-bin. Bucket semantics follow Prometheus:
// bounds are inclusive upper edges (a sample equal to a bound lands in
// that bound's bucket), with an implicit +Inf overflow bucket.
type Histogram struct {
	bounds []int64
	bins   []atomic.Uint64 // len(bounds)+1; last bin is the +Inf overflow
	count  atomic.Uint64
	sum    atomic.Int64
}

// NewHistogram builds a histogram with the given inclusive upper-bound
// bucket edges, which must be strictly increasing and non-empty. The
// slice is copied.
func NewHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not strictly increasing at %d (%d ≤ %d)",
				i, bounds[i], bounds[i-1]))
		}
	}
	return &Histogram{
		bounds: append([]int64(nil), bounds...),
		bins:   make([]atomic.Uint64, len(bounds)+1),
	}
}

// NewLatencyHistogram is NewHistogram(LatencyBuckets).
func NewLatencyHistogram() *Histogram { return NewHistogram(LatencyBuckets) }

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	h.bins[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observed samples.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Bounds returns the bucket upper edges (the +Inf bucket is implicit).
func (h *Histogram) Bounds() []int64 { return append([]int64(nil), h.bounds...) }

// Bins returns a point-in-time copy of the per-bucket counts, overflow
// bucket last. Concurrent observers may make the copy slightly torn
// relative to Count; scrapes tolerate that.
func (h *Histogram) Bins() []uint64 {
	out := make([]uint64, len(h.bins))
	for i := range h.bins {
		out[i] = h.bins[i].Load()
	}
	return out
}

// Merge adds other's bins into h. The two histograms must share an
// identical bucket layout.
func (h *Histogram) Merge(other *Histogram) error {
	if len(h.bounds) != len(other.bounds) {
		return fmt.Errorf("telemetry: merge of histograms with %d vs %d buckets", len(h.bounds), len(other.bounds))
	}
	for i, b := range h.bounds {
		if other.bounds[i] != b {
			return fmt.Errorf("telemetry: merge of histograms with different bound %d: %d vs %d", i, b, other.bounds[i])
		}
	}
	for i := range h.bins {
		h.bins[i].Add(other.bins[i].Load())
	}
	h.count.Add(other.count.Load())
	h.sum.Add(other.sum.Load())
	return nil
}

// Quantile estimates the p-quantile (0 ≤ p ≤ 1) of the observed
// distribution by linear interpolation inside the bucket holding the
// target rank, assuming samples are non-negative (the first bucket
// interpolates from zero). Samples in the +Inf overflow bucket clamp to
// the largest finite bound. An empty histogram answers 0.
func (h *Histogram) Quantile(p float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := p * float64(total)
	if target < 1 {
		target = 1
	}
	var cum float64
	for i := range h.bins {
		n := float64(h.bins[i].Load())
		if n == 0 {
			continue
		}
		if cum+n >= target {
			if i == len(h.bounds) {
				return float64(h.bounds[len(h.bounds)-1]) // overflow: clamp
			}
			lo := 0.0
			if i > 0 {
				lo = float64(h.bounds[i-1])
			}
			hi := float64(h.bounds[i])
			return lo + (hi-lo)*((target-cum)/n)
		}
		cum += n
	}
	return float64(h.bounds[len(h.bounds)-1])
}
