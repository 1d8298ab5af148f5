package solve

import (
	"fmt"
	"math/rand"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/prop"
)

// gatesOracle restates the two serve gates the way the server derived
// them from two locals before the licence answered them: the delta gate
// is M or I on the supplied set, else on the engine's order transform;
// the skip gate is a compiled rank vector or Full on the supplied set.
func gatesOracle(eng exec.Algebra, props prop.Set) (warm, skip bool) {
	warm = props != nil && (props.Holds(prop.MLeft) || props.Holds(prop.ILeft))
	if ot := eng.Source(); ot != nil && !warm {
		warm = ot.Props.Holds(prop.MLeft) || ot.Props.Holds(prop.ILeft)
	}
	skip = exec.Tables(eng) != nil || props != nil && props.Holds(prop.Full)
	return warm, skip
}

// gateEngines returns the backends a server may run an algebra on, each
// wrapped the way NewServer wraps it: compiled (when the carrier is
// finite and small enough to table), tiered and dynamic.
func gateEngines(a *core.Algebra) map[string]exec.Algebra {
	out := map[string]exec.Algebra{
		"tiered":  exec.Concurrent(exec.NewTiered(a.OT)),
		"dynamic": exec.Concurrent(exec.NewDynamic(a.OT)),
	}
	if a.OT.Finite() && a.OT.Carrier().Size() <= 4000 {
		if eng, err := exec.Compile(a.OT); err == nil {
			out["compiled"] = exec.Concurrent(eng)
		}
	}
	return out
}

// TestLicenceGates pins Licence.WarmStartAllowed and SkipRuleSound. On
// the named algebras — the benchmark's policy and query workloads, the
// forwardable policy and its bounded twin, the bases and products whose
// M or I only the inference node carries, the non-monotone
// widest-shortest product, BAD GADGET and the rank-less tags product
// (¬Full) — both answers take the literal values below, with and
// without the inferred set, on every backend; each runs as its own
// subtest. On those and on random algebras × {compiled, tiered,
// dynamic} × {inferred set, none} both answers equal what the server's
// earlier expressions give. Flipping either gate fails it.
func TestLicenceGates(t *testing.T) {
	type want struct {
		warmSet, warmOT bool // delta gate with the inferred set, and with none (the order transform alone)
		fullSet         bool // skip gate with the inferred set on an untabled backend
	}
	named := map[string]want{
		"delay(8,2)":                    {true, true, true},
		"bw(4)":                         {true, true, true},
		"lex(bw(4), hops(8))":           {false, false, true},
		"scoped(delay(8,2), hops(8))":   {true, false, true},
		"lex(delay(16,3), hops(8))":     {true, false, true},
		"lex(delay(32,3), hops(8))":     {true, false, true},
		"lex(delay(255,3), hops(32))":   {true, false, true},
		"scoped(bw(4), delay(64,4))":    {true, false, true},
		"scoped(hops(0), delay(64,4))":  {true, false, true},
		"scoped(hops(16), delay(64,4))": {true, false, true},
		"lex(delay(6,3), tags(2))":      {false, false, false},
		"gadget":                        {false, false, true},
	}
	checked, warmCount, skipCount := 0, 0, 0
	check := func(t *testing.T, src string) {
		a, err := core.InferString(src)
		if err != nil {
			if _, ok := named[src]; ok {
				t.Fatal(err)
			}
			return
		}
		for backend, eng := range gateEngines(a) {
			for _, props := range []prop.Set{a.Props, nil} {
				tag := fmt.Sprintf("%s/%s/props=%v", src, backend, props != nil)
				lic := NewLicence(eng, props)
				gotWarm, gotSkip := lic.WarmStartAllowed(), lic.SkipRuleSound()
				wantWarm, wantSkip := gatesOracle(eng, props)
				if gotWarm != wantWarm || gotSkip != wantSkip {
					t.Errorf("%s: gates (warm %v, skip %v), the server's expressions give (%v, %v)", tag, gotWarm, gotSkip, wantWarm, wantSkip)
				}
				if w, ok := named[src]; ok {
					lw, ls := w.warmOT, exec.Tables(eng) != nil
					if props != nil {
						lw, ls = w.warmSet, ls || w.fullSet
					}
					if gotWarm != lw || gotSkip != ls {
						t.Errorf("%s: gates (warm %v, skip %v), want (%v, %v)", tag, gotWarm, gotSkip, lw, ls)
					}
				}
				checked++
				if gotWarm {
					warmCount++
				}
				if gotSkip {
					skipCount++
				}
			}
		}
	}
	for src := range named {
		t.Run(src, func(t *testing.T) { check(t, src) })
	}
	t.Run("random", func(t *testing.T) {
		r := rand.New(rand.NewSource(331))
		for i := 0; i < 60; i++ {
			check(t, ltExpr(r, 2))
		}
	})
	if warmCount == 0 || warmCount == checked || skipCount == 0 || skipCount == checked {
		t.Fatalf("corpus lost its teeth: %d of %d licences warm-start, %d skip", warmCount, checked, skipCount)
	}
	t.Logf("%d licences: %d warm-start, %d skip", checked, warmCount, skipCount)
}
