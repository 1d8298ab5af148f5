package exec

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"metarouting/internal/core"
)

func ot(t *testing.T, src string) *core.Algebra {
	t.Helper()
	a, err := core.InferString(src)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestForPicksCompiledForFinite pins the backend the benchmark's
// workloads rely on: every finite algebra whose leaves fit AutoLimit
// compiles, the total orders with flat tables for the sweep and ECMP
// scan — a ranked composite past AutoLimit elements included, since its
// rank composes from its leaves' and it builds no matrix of its own.
func TestForPicksCompiledForFinite(t *testing.T) {
	for _, src := range []string{
		"delay(16,2)",
		"lex(delay(32,3), hops(8))",   // storm-sparse-100k: 33 × 9 elements
		"scoped(bw(4), delay(64,4))",  // storm-policy-2k: 5 × 65 elements
		"lex(delay(255,3), hops(32))", // the query workloads: 256 × 33 = 8 448 elements
	} {
		a := ot(t, src)
		eng := For(a.OT, a.OT.DefaultOrigin())
		if eng.Mode() != ModeCompiled || Tables(eng) == nil {
			t.Errorf("%s: want a compiled engine with tables, got %s", src, eng.Mode())
		}
	}
}

// TestForFallsBackToTiered: no dense tables exist for an infinite
// carrier (delay(0, k) is the unbounded delay algebra); the tiered
// backend memoises its hot sub-carrier.
func TestForFallsBackToTiered(t *testing.T) {
	for _, src := range []string{"delay(0,2)"} {
		a := ot(t, src)
		if eng := For(a.OT, a.OT.DefaultOrigin()); eng.Mode() != ModeTiered {
			t.Errorf("%s: want tiered, got %s", src, eng.Mode())
		}
	}
}

// TestForAutoLimitIsInclusive: delay(cap, k) has cap+1 elements, so a
// carrier of exactly AutoLimit compiles and one more element runs
// tiered.
func TestForAutoLimitIsInclusive(t *testing.T) {
	at := ot(t, fmt.Sprintf("delay(%d,2)", AutoLimit-1))
	if n := at.OT.Carrier().Size(); n != AutoLimit {
		t.Fatalf("carrier has %d elements, want %d", n, AutoLimit)
	}
	if m := For(at.OT, 0).Mode(); m != ModeCompiled {
		t.Fatalf("%d-element carrier: got %s, want compiled", AutoLimit, m)
	}
	past := ot(t, fmt.Sprintf("delay(%d,2)", AutoLimit))
	if m := For(past.OT, 0).Mode(); m != ModeTiered {
		t.Fatalf("%d-element carrier: got %s, want tiered", AutoLimit+1, m)
	}
}

// TestForUnrankedOperandPastAutoLimitIsTiered: a product over an
// operand with no rank — tags(2)'s four tag sets are discretely ordered
// — has no rank to compose either, so its order needs a matrix of its
// own; past AutoLimit elements For does not build it, on either side of
// the product, while the same product within AutoLimit still compiles
// (with matrices, so no flat tables).
func TestForUnrankedOperandPastAutoLimitIsTiered(t *testing.T) {
	for _, src := range []string{"lex(tags(2), delay(1023,2))", "lex(delay(1023,2), tags(2))"} {
		a := ot(t, src)
		if n := a.OT.Carrier().Size(); n != AutoLimit {
			t.Fatalf("%s: carrier has %d elements, want %d", src, n, AutoLimit)
		}
		eng := For(a.OT, a.OT.DefaultOrigin())
		if eng.Mode() != ModeCompiled || Tables(eng) != nil {
			t.Errorf("%s: got %s (tables %v), want compiled without a rank", src, eng.Mode(), Tables(eng) != nil)
		}
	}
	for _, src := range []string{"lex(tags(2), delay(1024,2))", "lex(delay(1024,2), tags(2))"} {
		a := ot(t, src)
		if n := a.OT.Carrier().Size(); n <= AutoLimit {
			t.Fatalf("%s: carrier has %d elements, want more than %d", src, n, AutoLimit)
		}
		if m := For(a.OT, a.OT.DefaultOrigin()).Mode(); m != ModeTiered {
			t.Errorf("%s: got %s, want tiered", src, m)
		}
		if _, err := New(a.OT, ModeCompiled); err != nil {
			t.Errorf("%s: ModeCompiled has no ceiling below 2^15 and must compile: %v", src, err)
		}
	}
}

// TestForTieredWhenOriginMisfits: the compiled backend cannot intern a
// value outside its carrier, so an origin that does not fit sends a
// finite algebra to the tiered backend, which can.
func TestForTieredWhenOriginMisfits(t *testing.T) {
	a := ot(t, "delay(16,2)")
	eng := For(a.OT, 0, 99)
	if eng.Mode() != ModeTiered {
		t.Fatalf("origin 99 outside delay(16,2): got %s, want tiered", eng.Mode())
	}
	if _, err := eng.Intern(99); err != nil {
		t.Fatalf("tiered engine must intern the misfit origin: %v", err)
	}
	if m := For(a.OT, 0, 16).Mode(); m != ModeCompiled {
		t.Fatalf("origins 0 and 16 fit: got %s, want compiled", m)
	}
}

// TestForNeverInterprets: For's only two answers are compiled and
// tiered; the dynamic interpreter is reached through New alone.
func TestForNeverInterprets(t *testing.T) {
	for _, src := range []string{
		"unit", "tags(2)", "gadget", "delay(0,2)", "hops(0)",
		"lex(delay(127,2), delay(63,2))", "scoped(bw(4), lex(tags(2), tags(2)))",
	} {
		a := ot(t, src)
		if m := For(a.OT, a.OT.DefaultOrigin()).Mode(); m == ModeDynamic {
			t.Errorf("%s: For picked the dynamic interpreter", src)
		}
	}
}

// TestForPartialOrderHasNoTables: a finite order with incomparable
// elements still compiles, but has no rank, so Tables is nil and the
// solvers keep their interface loop.
func TestForPartialOrderHasNoTables(t *testing.T) {
	a := ot(t, "tags(2)")
	eng := For(a.OT, a.OT.DefaultOrigin())
	if eng.Mode() != ModeCompiled {
		t.Fatalf("tags(2): got %s, want compiled", eng.Mode())
	}
	if Tables(eng) != nil {
		t.Fatal("tags(2) is discretely ordered: Tables must be nil")
	}
	x, y := MustIntern(eng, a.OT.Carrier().Elems[1]), MustIntern(eng, a.OT.Carrier().Elems[2])
	if eng.Leq(x, y) || eng.Leq(y, x) {
		t.Fatalf("distinct tags %v and %v must be incomparable", eng.Value(x), eng.Value(y))
	}
}

// TestNewBuildsTheNamedMode: New builds the backend it is asked for,
// even where For would pick another.
func TestNewBuildsTheNamedMode(t *testing.T) {
	a := ot(t, "delay(16,2)")
	for _, m := range []Mode{ModeCompiled, ModeTiered, ModeDynamic} {
		eng, err := New(a.OT, m, 0)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if eng.Mode() != m {
			t.Errorf("New(%s) built %s", m, eng.Mode())
		}
	}
}

// TestNewRejectsUnknownMode: "auto" is no longer a mode — the pick
// belongs to For — and New names the mode it does not know.
func TestNewRejectsUnknownMode(t *testing.T) {
	a := ot(t, "delay(16,2)")
	for _, m := range []Mode{"auto", "jit", ""} {
		if eng, err := New(a.OT, m, 0); err == nil {
			t.Errorf("New(%q) built %s, want an error", m, eng.Mode())
		} else if !strings.Contains(err.Error(), fmt.Sprintf("%q", m)) {
			t.Errorf("New(%q): error %q does not name the mode", m, err)
		}
	}
}

// TestNewCompiledRejectsMisfitOrigin: where For falls back to tiered,
// New with ModeCompiled fails instead.
func TestNewCompiledRejectsMisfitOrigin(t *testing.T) {
	a := ot(t, "delay(16,2)")
	if _, err := New(a.OT, ModeCompiled, 0, 99); err == nil {
		t.Fatal("ModeCompiled must fail on an origin outside the carrier")
	}
	if _, err := New(a.OT, ModeCompiled, 0, 16); err != nil {
		t.Fatalf("origins in the carrier must compile: %v", err)
	}
}

// TestTiersByBackend: the compiled backend interns nothing, the dynamic
// one interns without tables, and the tiered one covers what it interns
// while its hot tier has room.
func TestTiersByBackend(t *testing.T) {
	a := ot(t, "delay(16,2)")
	comp, err := New(a.OT, ModeCompiled, 0)
	if err != nil {
		t.Fatal(err)
	}
	MustIntern(comp, 3)
	if n, hot := Tiers(comp); n != 0 || hot != 0 {
		t.Fatalf("compiled: Tiers = %d, %d, want 0, 0", n, hot)
	}
	dyn := NewDynamic(a.OT)
	MustIntern(dyn, 3)
	MustIntern(dyn, 5)
	if n, hot := Tiers(dyn); n != 2 || hot != 0 {
		t.Fatalf("dynamic: Tiers = %d, %d, want 2, 0", n, hot)
	}
	if n, hot := Tiers(Concurrent(dyn)); n != 2 || hot != 0 {
		t.Fatalf("locked dynamic: Tiers = %d, %d, want 2, 0", n, hot)
	}
	tier := NewTiered(a.OT)
	MustIntern(tier, 3)
	MustIntern(tier, 5)
	if n, hot := Tiers(tier); n != 2 || hot < n {
		t.Fatalf("tiered: Tiers = %d, %d, want 2 interned, all hot", n, hot)
	}
}

func TestCompileMemoised(t *testing.T) {
	a := ot(t, "delay(32,2)")
	e1 := For(a.OT, 0)
	e2 := For(a.OT, 1)
	if e1.Mode() != ModeCompiled || e1 != e2 {
		t.Fatal("compiled engines must be memoised per order transform")
	}
}

// TestCompiledEnginesCollected: the compile memo lives on the order
// transform, so an engine nothing refers to any more is garbage along
// with its transform. Every core.InferString returns a fresh transform;
// the heap retained after infer → For → drop rounds must not grow with
// the number of rounds (a memo keyed by transform pointer kept 0.75 MB
// per round of this algebra for the life of the process).
func TestCompiledEnginesCollected(t *testing.T) {
	retained := func(rounds int) int64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			a := ot(t, "scoped(bw(4), delay(64,4))")
			if eng := For(a.OT); eng.Mode() != ModeCompiled || Tables(eng) == nil {
				t.Fatalf("round %d: want a compiled engine with tables, got %s", i, eng.Mode())
			}
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		return int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	few, many := retained(2), retained(12)
	if many > few+1<<20 {
		t.Fatalf("retained heap grows with rounds: %d B after 2, %d B after 12", few, many)
	}
	t.Logf("retained after 2 rounds: %d B, after 12: %d B", few, many)
}

func TestNewCompiledRejectsInfinite(t *testing.T) {
	a := ot(t, "delay(0,2)")
	if _, err := New(a.OT, ModeCompiled, 0); err == nil {
		t.Fatal("ModeCompiled must fail on infinite carriers")
	}
}

func TestDynamicInterning(t *testing.T) {
	a := ot(t, "delay(16,2)")
	eng := NewDynamic(a.OT)
	w1 := MustIntern(eng, 3)
	w2 := eng.Apply(0, MustIntern(eng, 2)) // +1 saturating: 2 → 3
	if w1 != w2 {
		t.Fatalf("equal values must intern to equal indices: %d vs %d", w1, w2)
	}
	if eng.Value(w1) != 3 {
		t.Fatalf("round-trip failed: %v", eng.Value(w1))
	}
}

// TestConcurrent: the compiled backend passes through unchanged; the
// dynamic backend gains a lock and survives concurrent interning from
// many goroutines (run under -race in CI).
func TestConcurrent(t *testing.T) {
	a, err := core.InferString("delay(64,4)")
	if err != nil {
		t.Fatal(err)
	}
	comp, err := New(a.OT, ModeCompiled, 0)
	if err != nil {
		t.Fatal(err)
	}
	if Concurrent(comp) != comp {
		t.Fatal("compiled backend must pass through Concurrent unchanged")
	}
	dyn := NewDynamic(a.OT)
	safe := Concurrent(dyn)
	if safe == dyn {
		t.Fatal("dynamic backend must be wrapped")
	}
	if Concurrent(safe) != safe {
		t.Fatal("Concurrent must be idempotent")
	}
	if safe.Name() != dyn.Name() || safe.Mode() != ModeDynamic || safe.NumFns() != dyn.NumFns() {
		t.Fatal("wrapper must delegate metadata")
	}
	var wg sync.WaitGroup
	for gor := 0; gor < 8; gor++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				w, err := safe.Intern(r.Intn(65))
				if err != nil {
					t.Error(err)
					return
				}
				w2 := safe.Apply(r.Intn(safe.NumFns()), w)
				safe.Leq(w, w2)
				safe.Lt(w2, w)
				safe.Equiv(w, w)
				if safe.Value(w) == nil {
					t.Error("Value returned nil")
					return
				}
			}
		}(int64(gor))
	}
	wg.Wait()
	// Semantics match the raw backend.
	fresh := NewDynamic(a.OT)
	wa, _ := safe.Intern(3)
	wb, _ := fresh.Intern(3)
	if safe.Value(wa) != fresh.Value(wb) {
		t.Fatal("wrapped and raw backends disagree")
	}
}

// TestTopInternsNothing pins exec.Top: a compiled order names its
// rank-top, and an interning engine (tiered, dynamic behind its lock)
// answers "not interned" until a solve meets ⊤, without interning it —
// the intern table's size is the same before and after the look-up —
// and then the id the solve gave it. A wrapper it did not build is
// unknown.
func TestTopInternsNothing(t *testing.T) {
	a := ot(t, "lex(delay(8,3), hops(8))")
	top, _ := a.OT.Ord.Top()
	comp, err := Compile(a.OT)
	if err != nil {
		t.Fatal(err)
	}
	if w, ok, known := Top(comp); !ok || !known || comp.Value(w) != top {
		t.Fatalf("compiled: Top = %d %v %v, want the index of %v", w, ok, known, top)
	}
	for name, eng := range map[string]Algebra{
		"tiered":  NewTiered(a.OT),
		"dynamic": Concurrent(NewDynamic(a.OT)),
	} {
		MustIntern(eng, a.OT.DefaultOrigin())
		before, _ := Tiers(eng)
		if _, ok, known := Top(eng); ok || !known {
			t.Fatalf("%s: Top before ⊤ is interned = %v %v, want not interned", name, ok, known)
		}
		if after, _ := Tiers(eng); after != before {
			t.Fatalf("%s: Top interned %d weights", name, after-before)
		}
		id := MustIntern(eng, top)
		if w, ok, known := Top(eng); !ok || !known || w != id {
			t.Fatalf("%s: Top after interning ⊤ = %d %v %v, want %d", name, w, ok, known, id)
		}
	}
	if _, _, known := Top(struct{ Algebra }{comp}); known {
		t.Fatal("a wrapper's ⊤ must be unknown")
	}
}
