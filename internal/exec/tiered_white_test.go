package exec

// White-box tests for the tiered backend's internals: the cold tail
// (indices past the hot capacity must interpret, and stay bit-identical
// to the dynamic oracle) and the table-growth path (memo contents filled
// before a grow must survive the copy into the wider layout).

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"metarouting/internal/baselib"
)

// TestTieredColdTail drives a tiered engine whose hot capacity is
// artificially tiny (4) against the dynamic oracle: most operations land
// in the cold tail, and every index, Apply result and order answer must
// still be bit-identical.
func TestTieredColdTail(t *testing.T) {
	ot := baselib.Delay(200, 3)
	tier := newTieredCap(ot, 4)
	dyn := NewDynamic(ot)
	r := rand.New(rand.NewSource(77))

	var ws []int32
	for i := 0; i < 120; i++ {
		v := r.Intn(201)
		wt, _ := tier.Intern(v)
		wd, _ := dyn.Intern(v)
		if wt != wd {
			t.Fatalf("intern(%d): tiered index %d != dynamic index %d", v, wt, wd)
		}
		ws = append(ws, wt)
	}
	if tier.hotSize() != 4 {
		t.Fatalf("hot capacity grew past its cap: %d", tier.hotSize())
	}
	for i := 0; i < 2000; i++ {
		w := ws[r.Intn(len(ws))]
		label := r.Intn(ot.F.Size())
		// Apply twice: the first call may fill a memo cell, the second
		// must replay it — both must match the oracle.
		for k := 0; k < 2; k++ {
			at, ad := tier.Apply(label, w), dyn.Apply(label, w)
			if at != ad {
				t.Fatalf("apply(%d, w=%d): tiered %d != dynamic %d", label, w, at, ad)
			}
		}
		a, b := ws[r.Intn(len(ws))], ws[r.Intn(len(ws))]
		for k := 0; k < 2; k++ {
			if tier.Leq(a, b) != dyn.Leq(a, b) {
				t.Fatalf("leq(%d,%d): tiered and dynamic differ", a, b)
			}
			if tier.Lt(a, b) != dyn.Lt(a, b) {
				t.Fatalf("lt(%d,%d): tiered and dynamic differ", a, b)
			}
			if tier.Equiv(a, b) != dyn.Equiv(a, b) {
				t.Fatalf("equiv(%d,%d): tiered and dynamic differ", a, b)
			}
		}
	}
}

// TestTieredGrowth interns past the initial hot capacity and checks that
// order and Apply memo cells filled before the grow still answer
// correctly afterwards (the copy into the wider layout must preserve
// the (a,b) indexing) — first alone, then with 8 reader goroutines
// hammering the pre-growth probes while the tier doubles three times
// under them, each reader on whatever generation it happened to load.
func TestTieredGrowth(t *testing.T) {
	for _, readers := range []int{0, 8} {
		t.Run(fmt.Sprintf("readers=%d", readers), func(t *testing.T) { tieredGrowth(t, readers) })
	}
}

func tieredGrowth(t *testing.T, readers int) {
	ot := baselib.Delay(2000, 2)
	tier := newTieredCap(ot, TierLimit)
	dyn := NewDynamic(ot) // index oracle, used from this goroutine only
	r := rand.New(rand.NewSource(99))

	// Intern the initial hot set: index i is value i.
	for i := 0; i < tierInitial; i++ {
		tier.Intern(i)
		dyn.Intern(i)
	}
	// Fill memo cells while the tables are small. (Apply interns fresh
	// successor values, so the hot capacity may already double here —
	// the point is that cells filled in a narrow layout survive later
	// widenings.)
	type probe struct{ a, b int32 }
	var probes []probe
	for i := 0; i < 500; i++ {
		p := probe{int32(r.Intn(tierInitial)), int32(r.Intn(tierInitial))}
		tier.Leq(p.a, p.b)
		tier.Lt(p.a, p.b)
		tier.Equiv(p.a, p.b)
		tier.Apply(0, p.a)
		probes = append(probes, p)
	}
	// check compares every probe with the order transform by value; it
	// runs on reader goroutines, so it reports with t.Errorf only.
	check := func() {
		for _, p := range probes {
			va, vb := int(p.a), int(p.b)
			if tier.Leq(p.a, p.b) != ot.Ord.Leq(va, vb) ||
				tier.Lt(p.a, p.b) != ot.Ord.Lt(va, vb) ||
				tier.Equiv(p.a, p.b) != ot.Ord.Equiv(va, vb) {
				t.Errorf("order of (%d,%d) differs from the order transform", p.a, p.b)
				return
			}
			if got, want := tier.Value(tier.Apply(0, p.a)), ot.F.Fns[0].Apply(va); got != want {
				t.Errorf("apply(0,%d) = %v, want %v", p.a, got, want)
				return
			}
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				check()
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}

	// Trigger growth: 256/512 → 2048, three doublings from the initial
	// capacity.
	for i := tierInitial; i <= 2000; i++ {
		wt, _ := tier.Intern(i)
		if wd, _ := dyn.Intern(i); wt != wd {
			t.Fatalf("intern(%d): tiered index %d != dynamic index %d", i, wt, wd)
		}
	}
	close(stop)
	wg.Wait()
	if tier.hotSize() != 2048 {
		t.Fatalf("hot capacity after interning 2001 elements: %d, want 2048", tier.hotSize())
	}
	// Pre-growth memo cells must have moved with their coordinates, and
	// still name the indices the dynamic oracle assigns.
	check()
	for _, p := range probes {
		if tier.Apply(0, p.a) != dyn.Apply(0, p.a) {
			t.Fatalf("post-grow apply(0,%d) differs from oracle", p.a)
		}
	}
}
