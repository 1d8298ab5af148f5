package exec

import (
	"math/rand"
	"runtime"
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

func TestParseMode(t *testing.T) {
	for _, s := range []string{"auto", "dynamic", "compiled"} {
		if _, err := ParseMode(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	if _, err := ParseMode("jit"); err == nil {
		t.Fatal("bogus mode must be rejected")
	}
}

func TestForPicksCompiledForFinite(t *testing.T) {
	a := ot(t, "delay(16,2)")
	if eng := For(a.OT, 0); eng.Mode() != ModeCompiled {
		t.Fatalf("finite algebra should auto-compile, got %s", eng.Mode())
	}
}

func TestForFallsBackToTiered(t *testing.T) {
	// Infinite carrier: delay(0, k) is the unbounded delay algebra. No
	// dense tables exist for it, but the tiered backend still memoises
	// the hot sub-carrier.
	a := ot(t, "delay(0,2)")
	if eng := For(a.OT, 0); eng.Mode() != ModeTiered {
		t.Fatalf("infinite algebra must run tiered, got %s", eng.Mode())
	}
}

func TestForHonorsDefaultMode(t *testing.T) {
	a := ot(t, "delay(16,2)")
	SetDefaultMode(ModeDynamic)
	defer SetDefaultMode(ModeAuto)
	if eng := For(a.OT, 0); eng.Mode() != ModeDynamic {
		t.Fatalf("default mode dynamic must win, got %s", eng.Mode())
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
