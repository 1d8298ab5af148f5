package exec

// White-box tests for the tiered backend's concurrency contract and its
// guards: a memo hit takes no lock and allocates nothing, a miss does
// take the lock, the order transform's closures never run concurrently,
// Equiv has a memo of its own, and the packed order memo costs what the
// byte-per-pair one did.

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"metarouting/internal/baselib"
	"metarouting/internal/fn"
	"metarouting/internal/order"
	"metarouting/internal/ost"
	"metarouting/internal/value"
)

// hooked returns a copy of ot whose closures — the preorder and every
// arc function — call enter before and exit after the real one.
func hooked(ot *ost.OrderTransform, enter, exit func()) *ost.OrderTransform {
	leq := func(a, b value.V) bool {
		enter()
		defer exit()
		return ot.Ord.Leq(a, b)
	}
	fns := make([]fn.Fn, len(ot.F.Fns))
	for i, f := range ot.F.Fns {
		f := f
		fns[i] = fn.Fn{Name: f.Name, Apply: func(v value.V) value.V {
			enter()
			defer exit()
			return f.Apply(v)
		}}
	}
	return ost.New(ot.Name, order.New(ot.Ord.Name, ot.Carrier(), leq), fn.NewFinite(ot.F.Name, fns))
}

// TestTieredHitTakesNoLock holds the miss mutex and shows that all five
// operations still complete on filled cells, and that an unfilled cell
// waits for the mutex.
func TestTieredHitTakesNoLock(t *testing.T) {
	tier := newTieredCap(baselib.Delay(200, 3), TierLimit)
	a, _ := tier.Intern(10)
	b, _ := tier.Intern(20)
	hits := func() {
		tier.Apply(0, a)
		tier.Leq(a, b)
		tier.Lt(a, b)
		tier.Equiv(a, b)
		tier.Value(a)
	}
	hits() // fill the cells

	tier.mu.Lock()
	hit := make(chan struct{})
	go func() {
		hits()
		close(hit)
	}()
	select {
	case <-hit:
	case <-time.After(10 * time.Second):
		tier.mu.Unlock()
		t.Fatal("memo hits blocked while the miss mutex was held")
	}

	miss := make(chan int32)
	go func() { miss <- tier.Apply(1, a) }() // label 1 on a: never applied
	select {
	case <-miss:
		tier.mu.Unlock()
		t.Fatal("a memo miss completed while the miss mutex was held")
	case <-time.After(50 * time.Millisecond):
		// Still waiting, as it must; a slow scheduler can only make this
		// arm pass when it should have failed, never the reverse.
	}
	tier.mu.Unlock()
	if got := tier.Value(<-miss); got != 12 {
		t.Fatalf("apply(+2, 10) = %v after the mutex was released, want 12", got)
	}
}

// TestTieredClosuresNeverOverlap drives one tiered engine from 8
// goroutines through an order transform whose closures bump a plain
// in-flight counter: two closures running at once are a data race the
// race detector reports, and a counter that ever reads 2 fails the test
// without it. The hot cap of 64 keeps most of the 201 weights in the
// cold tail, so hits, fills, growth-free misses and tail interpretation
// all interleave.
func TestTieredClosuresNeverOverlap(t *testing.T) {
	var inFlight, calls, overlaps int // unsynchronized on purpose
	plain := baselib.Delay(200, 3)
	ot := hooked(plain,
		func() {
			inFlight++
			calls++
			if inFlight != 1 {
				overlaps++
			}
			runtime.Gosched() // widen the window a second caller would need
		},
		func() { inFlight-- })
	tier := newTieredCap(ot, 64)

	var wg sync.WaitGroup
	for gi := 0; gi < 8; gi++ {
		r := rand.New(rand.NewSource(int64(gi) + 1))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := 0; op < 2000; op++ {
				a, _ := tier.Intern(r.Intn(201))
				b, _ := tier.Intern(r.Intn(201))
				switch op % 4 {
				case 0:
					tier.Apply(r.Intn(3), a)
				case 1:
					tier.Leq(a, b)
				case 2:
					tier.Lt(a, b)
				case 3:
					tier.Equiv(a, b)
				}
			}
		}()
	}
	wg.Wait()
	if calls == 0 {
		t.Fatal("the order transform was never entered")
	}
	if overlaps != 0 || inFlight != 0 {
		t.Fatalf("order-transform closures overlapped %d times (in flight at exit: %d)", overlaps, inFlight)
	}
}

// TestTieredEquivMemo: Equiv is answered by Ord.Equiv and memoised in
// its own bits — it neither reads nor writes the Leq cells, so it
// assumes nothing about how the two relations relate — and a second
// Equiv on the pair never re-enters the order transform.
func TestTieredEquivMemo(t *testing.T) {
	calls := 0
	ot := hooked(baselib.Delay(200, 3), func() { calls++ }, func() {})
	tier := newTieredCap(ot, TierLimit)
	a, _ := tier.Intern(10)
	b, _ := tier.Intern(20)
	c, _ := tier.Intern(10)

	calls = 0
	ot.Ord.Equiv(10, 20)
	direct := calls

	calls = 0
	if tier.Equiv(a, b) {
		t.Fatal("10 ~ 20 under ≤")
	}
	if calls != direct {
		t.Fatalf("first Equiv entered the order transform %d times, Ord.Equiv does so %d times", calls, direct)
	}
	g := tier.gen.Load()
	if cell := g.ordCell(a, b); cell&equivKnown == 0 || cell&(leqKnown|ltKnown) != 0 {
		t.Fatalf("cell (a,b) after Equiv: %06b, want only the equiv pair set", cell&0x3f)
	}
	if cell := g.ordCell(b, a); cell&0x3f != 0 {
		t.Fatalf("cell (b,a) after Equiv(a,b): %06b, want untouched", cell&0x3f)
	}
	calls = 0
	if tier.Equiv(a, b) || !tier.Equiv(a, c) || !tier.Equiv(a, c) {
		t.Fatal("memoised Equiv answers changed")
	}
	if want := 2; calls > want { // Equiv(a,c) = Equiv(a,a): one miss, two Leq calls
		t.Fatalf("repeat Equivs entered the order transform %d times, want ≤ %d", calls, want)
	}
	// Knowing Leq both ways must not pre-empt the Equiv cell either.
	tier.Leq(b, c)
	tier.Leq(c, b)
	if cell := tier.gen.Load().ordCell(b, c); cell&equivKnown != 0 {
		t.Fatalf("Leq filled the equiv bits of (b,c): %06b", cell&0x3f)
	}
}

// TestTieredHitAllocs: all five operations are allocation-free on filled
// cells, and interning fresh weights allocates by chunk and by doubling —
// never a generation per weight.
func TestTieredHitAllocs(t *testing.T) {
	tier := newTieredCap(baselib.Delay(5000, 3), TierLimit)
	a, _ := tier.Intern(10)
	b, _ := tier.Intern(20)
	var sink int32
	ops := map[string]func(){
		"Apply": func() { sink += tier.Apply(0, a) },
		"Leq":   func() { tier.Leq(a, b) },
		"Lt":    func() { tier.Lt(a, b) },
		"Equiv": func() { tier.Equiv(a, b) },
		"Value": func() { _ = tier.Value(a) },
	}
	for name, op := range ops {
		op() // fill
		if n := testing.AllocsPerRun(200, op); n != 0 {
			t.Errorf("%s on a filled cell: %v allocs/op, want 0", name, n)
		}
	}

	// 1 000 fresh weights, boxed beforehand so only the engine's own
	// allocations are counted: 256 → 1024 is two generations (each an
	// order memo, a directory and one widened Apply row), five element
	// chunks, and the hash map's own growth — 29 when written.
	fresh := make([]value.V, 1000)
	for i := range fresh {
		fresh[i] = 1000 + i
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, v := range fresh {
		tier.Intern(v)
	}
	runtime.ReadMemStats(&after)
	if tier.hotSize() != 1024 {
		t.Fatalf("hot capacity %d after interning past 1 000 weights, want 1024", tier.hotSize())
	}
	if n := after.Mallocs - before.Mallocs; n > 60 {
		t.Errorf("interning 1000 fresh weights made %d allocations; want O(chunks + doublings), well under one per weight", n)
	}
}

// TestTieredFootprint: the order memo costs one byte per hot pair plus
// at most one word of padding per row, at every capacity — what the
// unpacked []uint8 memo cost, so the engine's heap does not move.
func TestTieredFootprint(t *testing.T) {
	ot := baselib.Delay(5000, 1)
	for _, limit := range []int32{4, 6, 255, TierLimit} {
		tier := newTieredCap(ot, limit)
		for i := 0; i < 1100; i++ {
			tier.Intern(i)
			g := tier.gen.Load()
			if got, max := int64(len(g.ord))*4, int64(g.hotN)*int64(g.hotN)+4*int64(g.hotN); got > max {
				t.Fatalf("cap %d, hot %d: order memo is %d B, budget %d B", limit, g.hotN, got, max)
			}
		}
		want := int32(2048)
		if limit < want {
			want = limit
		}
		if tier.hotSize() != want {
			t.Fatalf("cap %d: hot capacity %d after 1100 weights, want %d", limit, tier.hotSize(), want)
		}
	}
}
