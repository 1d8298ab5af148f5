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

// planGolden is TestPlanTable's table: the plan line each named algebra
// takes on each backend that runs it.
var planGolden = map[string]map[string]string{
	"delay(8,2)": {
		"compiled": "scratch solver: best-first (M, table); warm start: derivation log (M); skip rule: on; forwarding: promised (ND)",
		"tiered":   "scratch solver: best-first (M, inferred); warm start: clean tree; skip rule: on; forwarding: promised (ND)",
		"dynamic":  "scratch solver: best-first (M, inferred); warm start: clean tree; skip rule: on; forwarding: promised (ND)",
	},
	"bw(4)": {
		"compiled": "scratch solver: best-first (M, table); warm start: derivation log (M); skip rule: on; forwarding: promised (ND)",
		"tiered":   "scratch solver: best-first (M, inferred); warm start: dense; skip rule: on; forwarding: promised (ND)",
		"dynamic":  "scratch solver: best-first (M, inferred); warm start: dense; skip rule: on; forwarding: promised (ND)",
	},
	"lex(bw(4), hops(8))": {
		"compiled": "scratch solver: sweep; warm start: none; skip rule: off; forwarding: promised (ND)",
		"tiered":   "scratch solver: sweep; warm start: none; skip rule: off; forwarding: promised (ND)",
		"dynamic":  "scratch solver: sweep; warm start: none; skip rule: off; forwarding: promised (ND)",
	},
	"scoped(delay(8,2), hops(8))": {
		"compiled": "scratch solver: best-first (M, table); warm start: derivation log (M); skip rule: on; forwarding: not promised",
		"tiered":   "scratch solver: best-first (M, inferred); warm start: dense; skip rule: on; forwarding: not promised",
		"dynamic":  "scratch solver: best-first (M, inferred); warm start: dense; skip rule: on; forwarding: not promised",
	},
	"lex(delay(16,3), hops(8))": {
		"compiled": "scratch solver: best-first (I, table); warm start: clean tree; skip rule: on; forwarding: promised (ND)",
		"tiered":   "scratch solver: best-first (I, inferred); warm start: clean tree; skip rule: on; forwarding: promised (ND)",
		"dynamic":  "scratch solver: best-first (I, inferred); warm start: clean tree; skip rule: on; forwarding: promised (ND)",
	},
	"lex(delay(32,3), hops(8))": {
		"compiled": "scratch solver: best-first (I, table); warm start: clean tree; skip rule: on; forwarding: promised (ND)",
		"tiered":   "scratch solver: best-first (I, inferred); warm start: clean tree; skip rule: on; forwarding: promised (ND)",
		"dynamic":  "scratch solver: best-first (I, inferred); warm start: clean tree; skip rule: on; forwarding: promised (ND)",
	},
	"lex(delay(255,3), hops(32))": {
		"tiered":  "scratch solver: best-first (I, inferred); warm start: clean tree; skip rule: on; forwarding: promised (ND)",
		"dynamic": "scratch solver: best-first (I, inferred); warm start: clean tree; skip rule: on; forwarding: promised (ND)",
	},
	"scoped(bw(4), delay(64,4))": {
		"compiled": "scratch solver: best-first (M, table); warm start: derivation log (M); skip rule: on; forwarding: not promised",
		"tiered":   "scratch solver: best-first (M, inferred); warm start: dense; skip rule: on; forwarding: not promised",
		"dynamic":  "scratch solver: best-first (M, inferred); warm start: dense; skip rule: on; forwarding: not promised",
	},
	"scoped(hops(0), delay(64,4))": {
		"tiered":  "scratch solver: best-first (M, inferred); warm start: dense; skip rule: on; forwarding: promised (ND)",
		"dynamic": "scratch solver: best-first (M, inferred); warm start: dense; skip rule: on; forwarding: promised (ND)",
	},
	"scoped(hops(16), delay(64,4))": {
		"compiled": "scratch solver: best-first (M, table); warm start: derivation log (M); skip rule: on; forwarding: not promised",
		"tiered":   "scratch solver: best-first (M, inferred); warm start: dense; skip rule: on; forwarding: not promised",
		"dynamic":  "scratch solver: best-first (M, inferred); warm start: dense; skip rule: on; forwarding: not promised",
	},
	"lex(delay(6,3), tags(2))": {
		"compiled": "scratch solver: sweep; warm start: none; skip rule: off; forwarding: not promised",
		"tiered":   "scratch solver: sweep; warm start: none; skip rule: off; forwarding: not promised",
		"dynamic":  "scratch solver: sweep; warm start: none; skip rule: off; forwarding: not promised",
	},
	"gadget": {
		"compiled": "scratch solver: sweep; warm start: none; skip rule: off; forwarding: not promised",
		"tiered":   "scratch solver: sweep; warm start: none; skip rule: off; forwarding: not promised",
		"dynamic":  "scratch solver: sweep; warm start: none; skip rule: off; forwarding: not promised",
	},
}

// TestPlanTable pins the one plan each engine reads from the proof it
// carries. On the named algebras — the benchmark's policy and query
// workloads, the forwardable policy and its bounded twin, the bases and
// products whose M or I only the theorems give, the non-monotone
// widest-shortest product, BAD GADGET and the rank-less tags product
// (¬Full) — Plan.String takes the literal values below on every backend
// that runs them; each algebra is its own subtest. On those and on
// random algebras, NewPlan(eng) equals the plan computed from the
// inferred set directly, so an engine's plan is the inference's whatever
// the caller passed. A transform built with ost.New, which no inference
// ran on, gets only what its constructor declared. Leaving composites
// unstamped, or reading the tables alone, fails it.
func TestPlanTable(t *testing.T) {
	checked, warm, skip := 0, 0, 0
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
		if named && len(engines) != len(want) {
			t.Errorf("%s: %d backends, the table lists %d", src, len(engines), len(want))
		}
		for backend, eng := range engines {
			got := NewPlan(eng)
			if direct := planFor(exec.Tables(eng), a.Props); got != direct {
				t.Errorf("%s/%s: plan %q, the inferred set gives %q", src, backend, got, direct)
			}
			if named && got.String() != want[backend] {
				t.Errorf("%s/%s: plan %q, want %q", src, backend, got, want[backend])
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
		for i := 0; i < 60; i++ {
			check(t, ltExpr(r, 2))
		}
	})
	t.Run("declared", func(t *testing.T) {
		ot := baselib.Delay(8, 2)
		for backend, eng := range planEngines(ot) {
			if got, direct := NewPlan(eng), planFor(exec.Tables(eng), ot.Props); got != direct {
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
	t.Logf("%d plans: %d warm-start, %d skip", checked, warm, skip)
}
