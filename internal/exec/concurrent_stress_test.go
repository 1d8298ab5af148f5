package exec_test

// Stress test for the engines exec.Concurrent hands out: N goroutines
// hammer one shared algebra — the mutex-wrapped dynamic backend, and the
// tiered backend as it is — with mixed Intern/Apply/Value/order calls
// while the race detector watches, and every observation is checked by
// value against the uninstrumented order transform as a serial oracle.
// The property under test is that the hash-consing table is
// linearizable: one value ⇒ one index, forever, from every goroutine.
// The tiered engine runs with hot caps of 4 and 64 (nearly everything
// in the cold tail, under the miss mutex) and TierLimit (the tier
// doubles under the readers' feet; on the 8 448-element product it
// saturates and spills), so hits, misses, growth and the tail all race.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/ost"
	"metarouting/internal/value"
)

func TestConcurrentStress(t *testing.T) {
	type engine struct {
		name  string
		build func(*ost.OrderTransform) exec.Algebra
	}
	tieredCap := func(limit int32) engine {
		return engine{fmt.Sprintf("tiered-cap%d", limit), func(ot *ost.OrderTransform) exec.Algebra {
			return exec.NewTieredCap(ot, limit)
		}}
	}
	dynamic := engine{"dynamic-locked", exec.NewDynamic}
	tiers := []engine{tieredCap(4), tieredCap(64), tieredCap(exec.TierLimit)}
	all := append([]engine{dynamic}, tiers...)
	for _, tc := range []struct {
		expr    string
		engines []engine
		spills  bool // carrier larger than TierLimit
	}{
		{"lex(delay(8,2), bw(4))", all, false},
		{"scoped(lp(3), hops(8))", all, false},
		{"addtop(delay(16,3))", all, false},
		{"lex(delay(255,3), hops(32))", tiers, true},
	} {
		a, err := core.InferString(tc.expr)
		if err != nil {
			t.Fatal(err)
		}
		ot := a.OT
		for _, e := range tc.engines {
			e := e
			t.Run(tc.expr+"/"+e.name, func(t *testing.T) {
				shared := exec.Concurrent(e.build(ot))
				stressShared(t, ot, shared)
				// The big product must leave the tier saturated and
				// spilling, or the growth and cold-tail races went unrun.
				if n, hot := exec.Tiers(shared); tc.spills && n <= hot {
					t.Fatalf("interned %d of hot capacity %d: the cold tail was never reached", n, hot)
				}
			})
		}
	}
}

func stressShared(t *testing.T, ot *ost.OrderTransform, shared exec.Algebra) {
	const (
		goroutines = 16
		opsPerG    = 4000
	)
	elems := ot.Carrier().Elems
	labels := ot.F.Size()

	type obs struct {
		v   value.V
		idx int32
	}
	observed := make([][]obs, goroutines)
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		gi := gi
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(gi)*104729 + 7))
			for op := 0; op < opsPerG; op++ {
				v := elems[r.Intn(len(elems))]
				idx, err := shared.Intern(v)
				if err != nil {
					t.Errorf("g%d: intern %s: %v", gi, value.Format(v), err)
					return
				}
				observed[gi] = append(observed[gi], obs{v, idx})
				switch op % 5 {
				case 0: // Apply must match the oracle by value.
					l := r.Intn(labels)
					got := shared.Value(shared.Apply(l, idx))
					want := ot.F.Fns[l].Apply(v)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("g%d: apply fn%d(%s) = %s, want %s",
							gi, l, value.Format(v), value.Format(got), value.Format(want))
						return
					}
				case 1: // Value must round-trip the interned element.
					if got := shared.Value(idx); !reflect.DeepEqual(got, v) {
						t.Errorf("g%d: value(intern(%s)) = %s", gi, value.Format(v), value.Format(got))
						return
					}
				case 2: // Order relations must match the preorder.
					w := elems[r.Intn(len(elems))]
					widx, _ := shared.Intern(w)
					if got, want := shared.Leq(idx, widx), ot.Ord.Leq(v, w); got != want {
						t.Errorf("g%d: leq(%s,%s) = %v, want %v",
							gi, value.Format(v), value.Format(w), got, want)
						return
					}
				case 3:
					w := elems[r.Intn(len(elems))]
					widx, _ := shared.Intern(w)
					if got, want := shared.Equiv(idx, widx), ot.Ord.Equiv(v, w); got != want {
						t.Errorf("g%d: equiv(%s,%s) = %v, want %v",
							gi, value.Format(v), value.Format(w), got, want)
						return
					}
				case 4:
					w := elems[r.Intn(len(elems))]
					widx, _ := shared.Intern(w)
					if got, want := shared.Lt(idx, widx), ot.Ord.Lt(v, w); got != want {
						t.Errorf("g%d: lt(%s,%s) = %v, want %v",
							gi, value.Format(v), value.Format(w), got, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Hash-consing consistency across the whole run: every
	// goroutine that interned a value saw the same index, and a
	// serial re-intern still agrees.
	canon := map[string]int32{}
	for gi, seen := range observed {
		for _, o := range seen {
			key := value.Format(o.v)
			if prev, ok := canon[key]; ok && prev != o.idx {
				t.Fatalf("g%d: value %s interned to both %d and %d", gi, key, prev, o.idx)
			}
			canon[key] = o.idx
			if again, _ := shared.Intern(o.v); again != o.idx {
				t.Fatalf("re-intern %s: %d, then %d", key, o.idx, again)
			}
		}
	}
	if len(canon) == 0 {
		t.Fatal("no observations recorded")
	}
}
