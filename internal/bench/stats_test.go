package bench

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// oracleQuantile is an independent statement of the interpolation
// rule: walk the sorted sample as a piecewise-linear function on
// [0, n-1] and read it at p·(n-1).
func oracleQuantile(sample []int64, p float64) float64 {
	s := append([]int64(nil), sample...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	x := p * float64(len(s)-1)
	lo := math.Floor(x)
	hi := math.Ceil(x)
	return float64(s[int(lo)])*(1-(x-lo)) + float64(s[int(hi)])*(x-lo)
}

func TestQuantileAgainstSortedOracle(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 3, 10, 101, 1000} {
		sample := make([]int64, n)
		for i := range sample {
			sample[i] = r.Int63n(1_000_000)
		}
		s := NewSeries(n)
		for _, v := range sample {
			s.Add(v)
		}
		for _, p := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 1} {
			got, want := s.Q(p), oracleQuantile(sample, p)
			if math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
				t.Errorf("n=%d p=%v: Quantile=%v, oracle=%v", n, p, got, want)
			}
		}
	}
}

func TestQuantileHitsOrderStatisticsExactly(t *testing.T) {
	sorted := []int64{3, 5, 8, 13, 21}
	for k, want := range sorted {
		if got := Quantile(sorted, float64(k)/float64(len(sorted)-1)); got != float64(want) {
			t.Errorf("p=%d/4: got %v, want %d", k, got, want)
		}
	}
	if got := Quantile([]int64{10, 20}, 0.5); got != 15 {
		t.Errorf("median of an even sample: got %v, want 15", got)
	}
	if got := Quantile[int64](nil, 0.5); !math.IsNaN(got) {
		t.Errorf("empty sample: got %v, want NaN", got)
	}
}

func TestMedianFloat(t *testing.T) {
	if got := medianFloat([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd: got %v", got)
	}
	if got := medianFloat([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even: got %v", got)
	}
}
