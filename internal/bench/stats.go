package bench

import (
	"math"
	"sort"
)

// Quantile returns the p-quantile (0 ≤ p ≤ 1) of sorted by linear
// interpolation between the two nearest order statistics — the same
// rule as numpy's default — so a p50 of an even-length sample is the
// mean of the middle pair. It returns NaN on an empty sample: a metric
// with no samples must never read as a plausible number.
// (telemetry.Quantiles is nearest-rank and answers 0 when empty.)
func Quantile[T int64 | float64](sorted []T, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return float64(sorted[0])
	}
	if p >= 1 {
		return float64(sorted[n-1])
	}
	pos := p * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return float64(sorted[n-1])
	}
	return float64(sorted[lo]) + frac*float64(sorted[lo+1]-sorted[lo])
}

// Series is one timing sample set in nanoseconds, kept in arrival
// order. It is filled by a single goroutine during a window and read
// only after the window.
type Series struct {
	ns     []int64
	sorted []int64 // ns sorted, built on first use
}

// NewSeries preallocates room for n samples so the measured window
// does not pay slice growth.
func NewSeries(n int) *Series { return &Series{ns: make([]int64, 0, n)} }

// Add records one sample.
func (s *Series) Add(ns int64) {
	s.ns = append(s.ns, ns)
	s.sorted = nil
}

// Merge appends every sample of o.
func (s *Series) Merge(o *Series) {
	s.ns = append(s.ns, o.ns...)
	s.sorted = nil
}

// Len is the sample count.
func (s *Series) Len() int { return len(s.ns) }

// Q returns the p-quantile in nanoseconds (NaN when empty).
func (s *Series) Q(p float64) float64 {
	if s.sorted == nil {
		s.sorted = sortedCopy(s.ns)
	}
	return Quantile(s.sorted, p)
}

func sortedCopy(ns []int64) []int64 {
	c := append([]int64(nil), ns...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

// maxChunks caps how finely a window is cut for Steady.
const maxChunks = 10

// ChunkQ cuts the series, in arrival order, into consecutive chunks of
// equal size — as many as maxChunks, but each holding at least minN
// samples — and returns every chunk's p-quantile. A series shorter
// than 2·minN is one chunk.
func (s *Series) ChunkQ(p float64, minN int) []float64 {
	n := len(s.ns)
	if n == 0 {
		return nil
	}
	k := min(maxChunks, max(1, n/minN))
	out := make([]float64, k)
	for i := range out {
		out[i] = Quantile(sortedCopy(s.ns[i*n/k:(i+1)*n/k]), p)
	}
	return out
}

// Minimum chunk sizes for Steady: a median wants a few dozen samples;
// a 95th percentile wants ten samples beyond it.
const (
	minChunkP50 = 50
	minChunkP95 = 200
)

// Steady reduces per-chunk readings to the one value a run reports:
// the better quartile across chunks — the lower one for a cost, the
// upper one for a rate. A benchmark on a shared host is slowed by its
// neighbours for seconds at a time and never sped up by them, so the
// chunks on the good side of the distribution are the ones that
// measured the program; a change to the program moves every chunk and
// therefore moves this quartile just the same.
func Steady(chunks []float64, higherIsBetter bool) float64 {
	c := append([]float64(nil), chunks...)
	sort.Float64s(c)
	if higherIsBetter {
		return Quantile(c, 0.75)
	}
	return Quantile(c, 0.25)
}

// SteadyQ is the steady p-quantile of a cost measured by one or more
// series (one per client): every series is chunked on its own, since
// arrival order only means something within one client, and the lower
// quartile is taken over all chunks together.
func SteadyQ(p float64, series ...*Series) float64 {
	minN := minChunkP50
	if p > 0.9 {
		minN = minChunkP95
	}
	var chunks []float64
	for _, s := range series {
		chunks = append(chunks, s.ChunkQ(p, minN)...)
	}
	return Steady(chunks, false)
}

// Sum returns the total of all samples.
func (s *Series) Sum() int64 {
	var t int64
	for _, v := range s.ns {
		t += v
	}
	return t
}

// Mean returns the arithmetic mean (NaN when empty).
func (s *Series) Mean() float64 {
	if len(s.ns) == 0 {
		return math.NaN()
	}
	return float64(s.Sum()) / float64(len(s.ns))
}

// medianFloat returns the median of vs (NaN when empty); vs is sorted
// in place.
func medianFloat(vs []float64) float64 {
	sort.Float64s(vs)
	return Quantile(vs, 0.5)
}
