package telemetry

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Fatalf("counter: got %d, want 5", c.Load())
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if g.Load() != 4 {
		t.Fatalf("gauge: got %d, want 4", g.Load())
	}
}

// TestStripedCounter: concurrent adds sum exactly, each cell fills one
// 64-byte cache line, the stripe hash lands in range, and a goroutine
// whose stack stays put adds to one cell, whose ordinal counts its adds.
func TestStripedCounter(t *testing.T) {
	if got := unsafe.Sizeof(paddedCount{}); got != 64 {
		t.Fatalf("a stripe is %d bytes, want one 64-byte line", got)
	}
	var c StripedCounter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(uint64(1 + w%2))
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 4*1000*1+4*1000*2 {
		t.Fatalf("striped counter: got %d, want %d", got, 4*1000*1+4*1000*2)
	}
	if s := stripe(); s >= stripes {
		t.Fatalf("stripe %d out of range [0,%d)", s, stripes)
	}
	var solo StripedCounter
	for i := uint64(1); i <= 64; i++ {
		if got := solo.Add(1); got != i {
			t.Fatalf("add %d returned ordinal %d, want %d", i, got, i)
		}
	}
}

// BenchmarkCounterAdd: one add per op from every RunParallel goroutine,
// to a Counter (one shared line) and to a StripedCounter. Run it at
// -cpu 1,2: the shared counter's ns/op grows with the goroutines that
// write its line, the striped one's falls as they stop sharing one.
func BenchmarkCounterAdd(b *testing.B) {
	b.Run("shared", func(b *testing.B) {
		var c Counter
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Add(1)
			}
		})
	})
	b.Run("striped", func(b *testing.B) {
		var c StripedCounter
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Add(1)
			}
		})
	})
}

// TestHistogramBuckets: samples exactly on a bound land in that bound's
// bucket (Prometheus le semantics), one past it in the next.
func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]int64{10, 20, 40})
	for _, v := range []int64{0, 10, 11, 20, 21, 40, 41, 1000} {
		h.Observe(v)
	}
	want := []uint64{2, 2, 2, 2} // (≤10)=2 {0,10}, (≤20)=2 {11,20}, (≤40)=2 {21,40}, +Inf=2 {41,1000}
	if got := h.Bins(); !reflect.DeepEqual(got, want) {
		t.Fatalf("bins: got %v, want %v", got, want)
	}
	if h.Count() != 8 || h.Sum() != 0+10+11+20+21+40+41+1000 {
		t.Fatalf("count/sum wrong: %d / %d", h.Count(), h.Sum())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]int64{10, 20, 40})
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile: got %v, want 0", q)
	}
	h.Observe(15)
	// A single sample answers within its bucket for every p.
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		if q := h.Quantile(p); q <= 10 || q > 20 {
			t.Fatalf("single-sample quantile(%v) = %v, want in (10,20]", p, q)
		}
	}
	// Fill the first bucket heavily: the median must interpolate there.
	for i := 0; i < 99; i++ {
		h.Observe(5)
	}
	if q := h.Quantile(0.5); q <= 0 || q > 10 {
		t.Fatalf("quantile(0.5) = %v, want in (0,10]", q)
	}
	// Overflow samples clamp to the largest finite bound.
	o := NewHistogram([]int64{10})
	o.Observe(1_000_000)
	if q := o.Quantile(0.99); q != 10 {
		t.Fatalf("overflow quantile: got %v, want 10", q)
	}
}

// TestHistogramQuantileBoundaries pins the exact interpolation at bucket
// edges and the clamping of p outside [0, 1].
func TestHistogramQuantileBoundaries(t *testing.T) {
	h := NewHistogram([]int64{10, 20, 40})
	for i := 0; i < 5; i++ {
		h.Observe(5)  // bucket (0, 10]
		h.Observe(15) // bucket (10, 20]
	}
	// Ten samples: rank max(p·10, 1) within the cumulative bins 5, 10.
	for _, c := range []struct{ p, want float64 }{
		{0, 2},    // rank 1 of 5 in (0, 10]
		{0.5, 10}, // rank 5: the first bucket's upper edge
		{0.7, 14}, // rank 7: 2 of 5 into (10, 20]
		{1, 20},   // rank 10: the last occupied bucket's upper edge
		{-1, 2},   // clamps to p = 0
		{2, 20},   // clamps to p = 1
	} {
		if q := h.Quantile(c.p); q != c.want {
			t.Fatalf("quantile(%v) = %v, want %v", c.p, q, c.want)
		}
	}
}

// TestHistogramQuantileMonotone: the estimate never decreases in p, and
// stays within [0, largest finite bound].
func TestHistogramQuantileMonotone(t *testing.T) {
	h := NewHistogram([]int64{1, 4, 16, 64, 256})
	for v := int64(0); v < 400; v += 7 {
		h.Observe(v)
	}
	prev := -1.0
	for i := 0; i <= 100; i++ {
		p := float64(i) / 100
		q := h.Quantile(p)
		if q < prev {
			t.Fatalf("quantile(%v) = %v below quantile at the previous p (%v)", p, q, prev)
		}
		if q < 0 || q > 256 {
			t.Fatalf("quantile(%v) = %v outside [0, 256]", p, q)
		}
		prev = q
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram([]int64{10, 20})
	b := NewHistogram([]int64{10, 20})
	a.Observe(5)
	b.Observe(15)
	b.Observe(25)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if got, want := a.Bins(), []uint64{1, 1, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("merged bins: got %v, want %v", got, want)
	}
	if a.Count() != 3 || a.Sum() != 45 {
		t.Fatalf("merged count/sum: %d / %d", a.Count(), a.Sum())
	}
	if err := a.Merge(NewHistogram([]int64{10})); err == nil {
		t.Fatal("merge with different layout must fail")
	}
	if err := a.Merge(NewHistogram([]int64{10, 30})); err == nil {
		t.Fatal("merge with different bounds must fail")
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewLatencyHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(seed*1000 + int64(i))
			}
		}(int64(g))
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("concurrent count: got %d, want 8000", h.Count())
	}
	var binSum uint64
	for _, b := range h.Bins() {
		binSum += b
	}
	if binSum != 8000 {
		t.Fatalf("bins don't cover all samples: %d", binSum)
	}
}

func TestRing(t *testing.T) {
	r := NewRing[int](3)
	if r.Len() != 0 || len(r.Items()) != 0 {
		t.Fatal("fresh ring must be empty")
	}
	r.Push(1)
	r.Push(2)
	if got := r.Items(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("partial ring: got %v", got)
	}
	r.Push(3)
	r.Push(4)
	r.Push(5)
	if got := r.Items(); !reflect.DeepEqual(got, []int{3, 4, 5}) {
		t.Fatalf("wrapped ring: got %v", got)
	}
	if r.Dropped() != 2 || r.Len() != 3 {
		t.Fatalf("dropped/len: %d/%d", r.Dropped(), r.Len())
	}
}

func TestRingTracer(t *testing.T) {
	tr := NewRingTracer(2)
	tr.Trace(TraceEvent{Kind: "a"})
	tr.Trace(TraceEvent{Kind: "b"})
	tr.Trace(TraceEvent{Kind: "c"})
	evs := tr.Events()
	if len(evs) != 2 || evs[0].Kind != "b" || evs[1].Kind != "c" {
		t.Fatalf("trace contents: %+v", evs)
	}
	if evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Fatalf("seq stamps: %+v", evs)
	}
	if tr.Dropped() != 1 {
		t.Fatalf("dropped: %d", tr.Dropped())
	}
}

func TestRegistryPrometheus(t *testing.T) {
	reg := NewRegistry()
	var c Counter
	c.Add(3)
	reg.AddCounter("mr_queries_total", "Route queries served.", &c)
	reg.AddGaugeFunc("mr_version", "Snapshot version.", func() float64 { return 7 })
	var g1, g2 Gauge
	g1.Set(2)
	g2.Set(5)
	reg.AddGauge(`mr_flaps{dest="0"}`, "Route flaps.", &g1)
	reg.AddGauge(`mr_flaps{dest="3"}`, "", &g2)
	h := NewHistogram([]int64{1_000, 1_000_000})
	h.Observe(500)
	h.Observe(2_000_000)
	reg.AddHistogram("mr_query_seconds", "Query latency.", h, 1e9)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE mr_queries_total counter",
		"mr_queries_total 3",
		"# TYPE mr_version gauge",
		"mr_version 7",
		`mr_flaps{dest="0"} 2`,
		`mr_flaps{dest="3"} 5`,
		"# TYPE mr_query_seconds histogram",
		`mr_query_seconds_bucket{le="1e-06"} 1`,
		`mr_query_seconds_bucket{le="0.001"} 1`,
		`mr_query_seconds_bucket{le="+Inf"} 2`,
		"mr_query_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// HELP/TYPE for the labeled family must appear exactly once.
	if strings.Count(out, "# TYPE mr_flaps gauge") != 1 {
		t.Fatalf("labeled family TYPE line not deduped:\n%s", out)
	}
	// The histogram sum is in seconds.
	if !strings.Contains(out, "mr_query_seconds_sum 0.0020005") {
		t.Fatalf("histogram sum not scaled:\n%s", out)
	}
	// Duplicate registration must panic.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("duplicate metric must panic")
			}
		}()
		reg.AddGaugeFunc("mr_version", "", func() float64 { return 0 })
	}()
}

func TestLatencyBucketsSane(t *testing.T) {
	h := NewLatencyHistogram()
	h.Observe(int64(1500))
	if q := h.Quantile(0.5); q <= 1000 || q > 2500 {
		t.Fatalf("latency bucket placement: %v", q)
	}
	if math.IsNaN(h.Quantile(0.99)) {
		t.Fatal("NaN quantile")
	}
}
