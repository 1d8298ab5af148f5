package solve

import (
	"math/rand"
	"testing"

	"metarouting/internal/baselib"
	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/ost"
)

// planEngines returns the backends a server may run an algebra on, each
// wrapped the way NewServer wraps it: compiled (when the carrier is
// finite and small enough to table), tiered and dynamic.
func planEngines(ot *ost.OrderTransform) map[string]exec.Algebra {
	out := map[string]exec.Algebra{
		"tiered":  exec.Concurrent(exec.NewTiered(ot)),
		"dynamic": exec.Concurrent(exec.NewDynamic(ot)),
	}
	if ot.Finite() && ot.Carrier().Size() <= 4000 {
		if eng, err := exec.Compile(ot); err == nil {
			out["compiled"] = exec.Concurrent(eng)
		}
	}
	return out
}

// planGolden is TestPlanTable's table: the one plan line each named
// algebra takes, on every backend that runs it.
var planGolden = map[string]string{
	"delay(8,2)":                           "scratch solver: best-first (M); warm start: derivation log (M); skip rule: on; forwarding: promised (ND)",
	"bw(4)":                                "scratch solver: best-first (M); warm start: derivation log (M); skip rule: on; forwarding: promised (ND)",
	"lex(bw(4), hops(8))":                  "scratch solver: sweep; warm start: none; skip rule: off; forwarding: promised (ND)",
	"scoped(delay(8,2), hops(8))":          "scratch solver: best-first (M); warm start: derivation log (M); skip rule: on; forwarding: not promised",
	"lex(delay(16,3), hops(8))":            "scratch solver: best-first (I); warm start: clean tree; skip rule: on; forwarding: promised (ND)",
	"lex(delay(32,3), hops(8))":            "scratch solver: best-first (I); warm start: clean tree; skip rule: on; forwarding: promised (ND)",
	"lex(delay(255,3), hops(32))":          "scratch solver: best-first (I); warm start: clean tree; skip rule: on; forwarding: promised (ND)",
	"scoped(bw(4), delay(64,4))":           "scratch solver: best-first (M); warm start: derivation log (M); skip rule: on; forwarding: not promised",
	"scoped(hops(0), delay(64,4))":         "scratch solver: best-first (M); warm start: derivation log (M); skip rule: on; forwarding: promised (ND)",
	"scoped(hops(16), delay(64,4))":        "scratch solver: best-first (M); warm start: derivation log (M); skip rule: on; forwarding: not promised",
	"scoped(bw(4), lex(tags(2), tags(2)))": "scratch solver: sweep; warm start: dense; skip rule: off; forwarding: not promised",
	"lex(delay(6,3), tags(2))":             "scratch solver: sweep; warm start: none; skip rule: off; forwarding: not promised",
	"gadget":                               "scratch solver: sweep; warm start: none; skip rule: off; forwarding: not promised",
}

// TestPlanTable pins the one plan each algebra's proof licenses, on
// every backend. On the named algebras — the benchmark's policy and
// query workloads, the forwardable policy and its bounded twin, the
// bases and products whose M or I only the theorems give, the
// non-monotone widest-shortest product, BAD GADGET, the rank-less tags
// product (¬Full) and the M ∧ ¬Full tags policy that takes the dense
// warm start — Plan.String takes its planGolden line on every
// backend that runs them; each algebra is its own subtest. On those and
// on at least 200 random compilable algebras, NewPlan(eng) equals the
// plan computed from the inferred set directly and is the same on the
// compiled, tiered and dynamic engines, so no backend and no caller
// changes an algebra's plan. A transform built with ost.New, which no
// inference ran on, gets only what its constructor declared. Leaving
// composites unstamped, or reading the tables, fails it.
func TestPlanTable(t *testing.T) {
	checked, warm, skip, compilable := 0, 0, 0, 0
	check := func(t *testing.T, src string) {
		a, err := core.InferString(src)
		want, named := planGolden[src]
		if err != nil {
			if named {
				t.Fatal(err)
			}
			return
		}
		engines := planEngines(a.OT)
		if _, ok := engines["compiled"]; ok {
			compilable++
		}
		direct := planFor(a.Props)
		for backend, eng := range engines {
			got := NewPlan(eng)
			if got != direct {
				t.Errorf("%s/%s: plan %q, the inferred set gives %q", src, backend, got, direct)
			}
			if named && got.String() != want {
				t.Errorf("%s/%s: plan %q, want %q", src, backend, got, want)
			}
			checked++
			if got.Warm != WarmNone {
				warm++
			}
			if got.Skip {
				skip++
			}
		}
	}
	for src := range planGolden {
		t.Run(src, func(t *testing.T) { check(t, src) })
	}
	t.Run("random", func(t *testing.T) {
		r := rand.New(rand.NewSource(331))
		named := compilable
		for i := 0; compilable-named < 200; i++ {
			if i == 2000 {
				t.Fatalf("generator: %d compilable algebras in %d draws", compilable-named, i)
			}
			check(t, ltExpr(r, 2))
		}
	})
	t.Run("declared", func(t *testing.T) {
		ot := baselib.Delay(8, 2)
		for backend, eng := range planEngines(ot) {
			if got, direct := NewPlan(eng), planFor(ot.Props); got != direct {
				t.Errorf("%s/%s: plan %q, the declared set gives %q", ot.Name, backend, got, direct)
			}
		}
		if got, want := NewPlan(exec.NewTiered(ot)).String(),
			"scratch solver: sweep; warm start: dense; skip rule: off; forwarding: promised (ND)"; got != want {
			t.Errorf("%s/tiered: plan %q, want %q", ot.Name, got, want)
		}
		bare := ost.New(ot.Name, ot.Ord, ot.F)
		if got, want := NewPlan(exec.NewTiered(bare)).String(),
			"scratch solver: sweep; warm start: none; skip rule: off; forwarding: not promised"; got != want {
			t.Errorf("bare %s/tiered: plan %q, want %q", ot.Name, got, want)
		}
	})
	if warm == 0 || warm == checked || skip == 0 || skip == checked {
		t.Fatalf("corpus lost its teeth: %d of %d plans warm-start, %d skip", warm, checked, skip)
	}
	t.Logf("%d plans (%d algebras compilable): %d warm-start, %d skip", checked, compilable, warm, skip)
}
