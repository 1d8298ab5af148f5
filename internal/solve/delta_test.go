package solve

import (
	"fmt"
	"math/rand"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/value"
)

// deltaExpr draws a random finite algebra expression (small, so
// composite carriers stay under the compile cap).
func deltaExpr(r *rand.Rand, depth int) string {
	bases := []string{"delay(8,2)", "delay(16,3)", "bw(4)", "bw(8)", "hops(8)", "lp(3)"}
	if depth <= 0 || r.Intn(3) == 0 {
		return bases[r.Intn(len(bases))]
	}
	switch r.Intn(4) {
	case 0:
		return fmt.Sprintf("lex(%s, %s)", deltaExpr(r, depth-1), deltaExpr(r, depth-1))
	case 1:
		return fmt.Sprintf("scoped(%s, %s)", deltaExpr(r, depth-1), deltaExpr(r, depth-1))
	case 2:
		return fmt.Sprintf("addtop(%s)", deltaExpr(r, depth-1))
	default:
		return fmt.Sprintf("left(%s)", deltaExpr(r, depth-1))
	}
}

// deltaTopo draws one of the acceptance criterion's topology families:
// GNP random, ring, grid.
func deltaTopo(r *rand.Rand, labels int) *graph.Graph {
	switch r.Intn(3) {
	case 0:
		return graph.Random(r, 5+r.Intn(8), 0.3, graph.UniformLabels(labels))
	case 1:
		return graph.Ring(r, 5+r.Intn(8), graph.UniformLabels(labels))
	default:
		return graph.Grid(r, 2+r.Intn(3), 2+r.Intn(3), graph.UniformLabels(labels))
	}
}

// deltaBackends builds both execution backends for an algebra.
func deltaBackends(t *testing.T, a *core.Algebra, origin value.V) map[string]exec.Algebra {
	t.Helper()
	out := make(map[string]exec.Algebra)
	dyn, err := exec.New(a.OT, exec.ModeDynamic, origin)
	if err != nil {
		t.Fatal(err)
	}
	out["dynamic"] = dyn
	if a.OT.Finite() && a.OT.Carrier().Size() <= 4000 {
		comp, err := exec.New(a.OT, exec.ModeCompiled, origin)
		if err != nil {
			t.Fatal(err)
		}
		out["compiled"] = comp
	}
	return out
}

// warmStartable is the plan's delta gate: the property gate under which
// the drain's fixpoint is provably the from-scratch fixpoint.
func warmStartable(a *core.Algebra) bool {
	return NewPlan(exec.NewDynamic(a.OT)).Warm != WarmNone
}

func sameSolution(t *testing.T, label string, got, want *Result) {
	t.Helper()
	for u := range want.Routed {
		if got.Routed[u] != want.Routed[u] {
			t.Fatalf("%s: node %d routedness %v, want %v", label, u, got.Routed[u], want.Routed[u])
		}
		if !want.Routed[u] {
			continue
		}
		if got.Weights[u] != want.Weights[u] {
			t.Fatalf("%s: node %d weight %v, want %v", label, u, got.Weights[u], want.Weights[u])
		}
		if got.NextHop[u] != want.NextHop[u] {
			t.Fatalf("%s: node %d next hop %d, want %d", label, u, got.NextHop[u], want.NextHop[u])
		}
	}
}

// TestWorklistMatchesBellmanFord: for warm-startable algebras the
// worklist solver converges to a solution bit-identical to the
// synchronous sweep, on both backends.
func TestWorklistMatchesBellmanFord(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	licensed := 0
	for trial := 0; trial < 60; trial++ {
		src := deltaExpr(r, 2)
		a, err := core.InferString(src)
		if err != nil {
			t.Fatalf("trial %d: %s: %v", trial, src, err)
		}
		if !a.OT.Finite() || a.OT.Carrier().Size() > 4000 {
			continue
		}
		g := deltaTopo(r, a.OT.F.Size())
		origin := a.OT.Carrier().Elems[r.Intn(a.OT.Carrier().Size())]
		dest := r.Intn(g.N)
		for name, eng := range deltaBackends(t, a, origin) {
			bf := BellmanFordEngine(eng, g, dest, origin, 0)
			wl := WorklistEngine(eng, g, dest, origin, 0)
			if warmStartable(a) {
				licensed++
				if !bf.Converged || !wl.Converged {
					t.Fatalf("trial %d (%s/%s): licensed algebra must converge (bf=%v wl=%v)",
						trial, src, name, bf.Converged, wl.Converged)
				}
			}
			if bf.Converged && wl.Converged {
				sameSolution(t, fmt.Sprintf("trial %d (%s/%s)", trial, src, name), wl, bf)
			}
		}
	}
	if licensed < 10 {
		t.Fatalf("only %d licensed comparisons ran — the trial mix lost its teeth", licensed)
	}
}

// TestDeltaMatchesFromScratch: chains of random arc toggles re-solved
// with the dense warm start — BellmanFordDeltaRaw from a column not
// certified clean — stay bit-identical, wherever routed, to from-scratch
// sweeps (BellmanFordRaw, whatever kernel the plan picks) on the mutated
// view, on both backends, with the previous delta result feeding the
// next step: the serve layer's usage pattern, which warm-starts only
// from converged columns.
func TestDeltaMatchesFromScratch(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	used, licensed := 0, 0
	for trial := 0; trial < 50; trial++ {
		src := deltaExpr(r, 2)
		a, err := core.InferString(src)
		if err != nil {
			t.Fatalf("trial %d: %s: %v", trial, src, err)
		}
		if !a.OT.Finite() || a.OT.Carrier().Size() > 4000 || !warmStartable(a) {
			continue
		}
		licensed++
		g := deltaTopo(r, a.OT.F.Size())
		origin := a.OT.Carrier().Elems[r.Intn(a.OT.Carrier().Size())]
		dest := r.Intn(g.N)
		for name, eng := range deltaBackends(t, a, origin) {
			ws := NewWorkspace()
			disabled := make([]bool, len(g.Arcs))
			view := g.MaskArcs(disabled)
			prev := ownRaw(ws.BellmanFordRaw(eng, view, dest, origin, 0))
			for step := 0; step < 6; step++ {
				var toggles []ArcToggle
				for k := 0; k < 1+r.Intn(3); k++ {
					ai := r.Intn(len(g.Arcs))
					disabled[ai] = !disabled[ai]
					toggles = append(toggles, ArcToggle{Arc: ai, Down: disabled[ai]})
				}
				view = g.MaskArcs(disabled)
				var got Raw
				var st DeltaStats
				if prev.Converged {
					got, st = ws.BellmanFordDeltaRaw(eng, view, disabled, dest, origin, rawWarm(prev), false, toggles, 0)
				} else {
					got = ws.ScratchRaw(eng, view, dest, origin)
				}
				got = ownRaw(got)
				want := NewWorkspace().BellmanFordRaw(eng, view, dest, origin, 0)
				label := fmt.Sprintf("trial %d step %d (%s/%s, delta=%v)", trial, step, src, name, st.UsedDelta)
				if got.Converged != want.Converged || !sameServed(got, want) {
					t.Fatalf("%s: delta differs from scratch\n got %+v\nwant %+v", label, got, want)
				}
				if st.UsedDelta {
					used++
				}
				prev = got
			}
		}
	}
	if licensed < 8 || used < 20 {
		t.Fatalf("mix lost its teeth: %d licensed trials, %d delta solves", licensed, used)
	}
}

// TestDeltaFallbacks pins the dense warm start's two fallback triggers —
// an oversized frontier cuts over to the scratch build, a small one stays
// on the delta path — and the answer either way.
func TestDeltaFallbacks(t *testing.T) {
	a, err := core.InferString("delay(16,3)")
	if err != nil {
		t.Fatal(err)
	}
	eng := exec.For(a.OT, 0)
	// A directed chain n-1 → … → 1 → 0: every node forwards through arc
	// 1→0, so failing it invalidates the whole graph.
	n := 12
	var arcs []graph.Arc
	for u := 1; u < n; u++ {
		arcs = append(arcs, graph.Arc{From: u, To: u - 1, Label: 1})
	}
	g := graph.MustNew(n, arcs)
	ws := NewWorkspace()
	prev := ownRaw(ws.BellmanFordRaw(eng, g, 0, 0, 0))

	// Whole-graph frontier: failing arc 0 (1→0) invalidates all n-1
	// routed nodes, crossing the half-the-nodes cutover.
	disabled := make([]bool, len(arcs))
	disabled[0] = true
	view := g.MaskArcs(disabled)
	res, st := ws.BellmanFordDeltaRaw(eng, view, disabled, 0, 0, rawWarm(prev), false, []ArcToggle{{Arc: 0, Down: true}}, 0)
	if st.UsedDelta {
		t.Fatalf("frontier %d of %d nodes must cut over to from-scratch", st.Frontier, n)
	}
	if st.Frontier != n-1 {
		t.Fatalf("frontier %d, want %d", st.Frontier, n-1)
	}
	for u := 1; u < n; u++ {
		if res.Routed[u] {
			t.Fatalf("node %d must be unrouted after the chain broke", u)
		}
	}
	// A one-arc failure at the far end stays on the delta path.
	disabled[0] = false
	view = g.MaskArcs(disabled)
	prev = ownRaw(ws.BellmanFordRaw(eng, view, 0, 0, 0))
	disabled[len(arcs)-1] = true
	view = g.MaskArcs(disabled)
	res, st = ws.BellmanFordDeltaRaw(eng, view, disabled, 0, 0, rawWarm(prev), false, []ArcToggle{{Arc: len(arcs) - 1, Down: true}}, 0)
	if !st.UsedDelta || st.Frontier != 1 {
		t.Fatalf("tail failure must delta with frontier 1: %+v", st)
	}
	if res.Routed[n-1] {
		t.Fatal("tail node must lose its route")
	}
}
