package rib

import (
	"math/rand"
	"slices"
	"testing"
)

// transplantSlot is the per-slot copy transplantRun replaced: one put per
// routed slot, kept as its oracle.
func (p *ColumnPage) transplantSlot(prev *ColumnPage, i int) {
	if s := prev.Slots[i]; s.Routed {
		p.put(i, s.W, prev.Pool[s.NhOff:s.NhOff+s.NhLen])
	}
}

// randomPage lays out a canonical page of lim slots: each routed with
// probability 2/3, with a span of 0–4 next hops (0 is the destination's
// shape), so spans of every length start and end anywhere in the pool.
func randomPage(r *rand.Rand, lim int) *ColumnPage {
	p := &ColumnPage{}
	for i := 0; i < lim; i++ {
		if r.Intn(3) == 0 {
			continue
		}
		nh := make([]int32, r.Intn(5))
		for k := range nh {
			nh[k] = int32(r.Intn(1 << 16))
		}
		p.put(i, int32(r.Intn(1000)), nh)
	}
	return p
}

// TestTransplantRunMatchesSlots: over random canonical pages (full and
// partial) and random redo marks, a page rebuilt by copying each run of
// unmarked slots with transplantRun — the runs maximal, or cut at random
// points so runs begin and end inside other runs' pool ranges — and
// refilling marked slots is bit-identical to the per-slot rebuild: slots,
// pool, Live and bytes.
func TestTransplantRunMatchesSlots(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	for trial := 0; trial < 2000; trial++ {
		lim := PageSize
		if trial%3 == 0 {
			lim = 1 + r.Intn(PageSize)
		}
		prev := randomPage(r, lim)
		marked := make([]bool, lim)
		density := r.Intn(4)
		for i := range marked {
			marked[i] = r.Intn(4) < density
		}
		fresh := randomPage(r, lim) // the refilled slots' new content
		refill := func(p *ColumnPage, i int) {
			if s := fresh.Slots[i]; s.Routed {
				p.put(i, s.W, fresh.Pool[s.NhOff:s.NhOff+s.NhLen])
			}
		}
		want, got := &ColumnPage{}, &ColumnPage{}
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
		if got.Slots != want.Slots || !slices.Equal(got.Pool, want.Pool) || got.Live != want.Live || got.bytes() != want.bytes() {
			t.Fatalf("trial %d (lim %d, cut %v): run-wise page differs from the per-slot one\n got %+v\nwant %+v", trial, lim, cut, got, want)
		}
	}
}
