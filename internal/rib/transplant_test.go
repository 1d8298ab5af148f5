package rib

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// transplantSlot is the per-slot copy transplantRun replaced: one put per
// routed slot, kept as its oracle.
func (p *ColumnPage) transplantSlot(prev *ColumnPage, i int) {
	if s := prev.Slots[i]; s.Routed {
		p.put(i, s.W, prev.span(i))
	}
}

// randomPage lays out a canonical page of lim slots: each routed with
// probability 2/3, with a span of 0–4 next hops (0 is the destination's
// shape), so spans of every length start and end anywhere in the pool.
// When long is above 4, about one routed slot in 16 gets long-1 to
// long+2 next hops instead: MaxPageNhLen puts saturated spans anywhere,
// math.MaxUint16 makes every start after the first such span saturate
// NhOff, so the page keeps a side array.
func randomPage(r *rand.Rand, lim, long int) *ColumnPage {
	p := &ColumnPage{}
	for i := 0; i < lim; i++ {
		if r.Intn(3) == 0 {
			continue
		}
		n := r.Intn(5)
		if long > 4 && r.Intn(16) == 0 {
			n = long - 1 + r.Intn(4)
		}
		nh := make([]int32, n)
		for k := range nh {
			nh[k] = int32(r.Intn(1 << 16))
		}
		p.put(i, int32(r.Intn(1000)), nh)
	}
	return p
}

// samePage reports whether two pages are bit-identical: slots, pool,
// Live, footprint and, on a wide page, the side array.
func samePage(a, b *ColumnPage) bool {
	return a.Slots == b.Slots && slices.Equal(a.Pool, b.Pool) && a.Live == b.Live && a.bytes() == b.bytes() &&
		(a.starts == nil) == (b.starts == nil) && (a.starts == nil || *a.starts == *b.starts)
}

// TestTransplantRunMatchesSlots: over random canonical pages (full and
// partial) and random redo marks, a page rebuilt by copying each run of
// unmarked slots with transplantRun — the runs maximal, or cut at random
// points so runs begin and end inside other runs' pool ranges — and
// refilling marked slots is bit-identical to the per-slot rebuild: slots,
// pool, Live, bytes and side array. One trial in 40 puts saturated spans
// in the page, and one in 200 spans long enough to make it wide, so runs
// move into, out of and within wide pages.
func TestTransplantRunMatchesSlots(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	wide := 0
	for trial := 0; trial < 2000; trial++ {
		lim := PageSize
		if trial%3 == 0 {
			lim = 1 + r.Intn(PageSize)
		}
		long := 0
		switch {
		case trial%200 == 0:
			long = math.MaxUint16
		case trial%40 == 0:
			long = MaxPageNhLen
		}
		prev := randomPage(r, lim, long)
		marked := make([]bool, lim)
		density := r.Intn(4)
		for i := range marked {
			marked[i] = r.Intn(4) < density
		}
		fresh := randomPage(r, lim, long) // the refilled slots' new content
		refill := func(p *ColumnPage, i int) {
			if s := fresh.Slots[i]; s.Routed {
				p.put(i, s.W, fresh.span(i))
			}
		}
		// Both pools are reserved alike, as patchPage reserves its own, so
		// the footprints compare.
		reserve := len(prev.Pool) + len(fresh.Pool)
		want, got := &ColumnPage{Pool: make([]int32, 0, reserve)}, &ColumnPage{Pool: make([]int32, 0, reserve)}
		for i := 0; i < lim; i++ {
			if marked[i] {
				refill(want, i)
			} else {
				want.transplantSlot(prev, i)
			}
		}
		cut := trial%2 == 1
		for i := 0; i < lim; {
			if marked[i] {
				refill(got, i)
				i++
				continue
			}
			j := i + 1
			for j < lim && !marked[j] && !(cut && r.Intn(3) == 0) {
				j++
			}
			got.transplantRun(prev, i, j)
			i = j
		}
		if !samePage(got, want) {
			t.Fatalf("trial %d (lim %d, cut %v, long %d): run-wise page differs from the per-slot one", trial, lim, cut, long)
		}
		if want.starts != nil {
			wide++
		}
	}
	if wide == 0 {
		t.Fatal("no trial laid out a wide page")
	}
}
