package solve

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
)

// TestEngineWrappersPickCompiled: the ost-level entry points route
// through exec.For, so a finite algebra silently gets the table backend
// and produces the same answers as an explicitly dynamic engine.
func TestEngineWrappersPickCompiled(t *testing.T) {
	a, err := core.InferString("delay(64,3)")
	if err != nil {
		t.Fatal(err)
	}
	if exec.For(a.OT, 0).Mode() != exec.ModeCompiled {
		t.Fatal("finite algebra should auto-compile under the wrappers")
	}
	r := rand.New(rand.NewSource(7))
	g := graph.Random(r, 10, 0.3, graph.UniformLabels(3))
	res := Dijkstra(a.OT, g, 0, 0)
	dyn, err := exec.New(a.OT, exec.ModeDynamic, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := DijkstraEngine(dyn, g, 0, 0)
	for u := 0; u < g.N; u++ {
		if res.Routed[u] != ref.Routed[u] {
			t.Fatalf("node %d: routedness differs", u)
		}
		if res.Routed[u] && res.Weights[u] != ref.Weights[u] {
			t.Fatalf("node %d: %v vs %v", u, res.Weights[u], ref.Weights[u])
		}
	}
}

// TestEngineScale routes a 5000-node scale-free network with the
// comparison kernel on the tiered backend, licensed by inference — the
// "does it hold up at size" smoke (skipped in -short runs).
func TestEngineScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	a, err := core.InferString("delay(4095,4)")
	if err != nil {
		t.Fatal(err)
	}
	eng := exec.NewTiered(a.OT)
	if k := NewPlan(eng).Kernel.String(); k != "best-first (M)" {
		t.Fatalf("kernel %q, want the inferred M kernel", k)
	}
	r := rand.New(rand.NewSource(99))
	g := graph.ScaleFree(r, 5000, 2, graph.UniformLabels(4))
	ws := NewWorkspace()
	res := ownRaw(ws.ScratchRaw(eng, g, 0, 0))
	if u := slices.Index(res.Routed, false); u >= 0 {
		t.Fatalf("node %d unrouted", u)
	}
	bf := NewWorkspace().BellmanFordRaw(eng, g, 0, 0, 0)
	if !bf.Converged || !sameRoutes(res, bf) {
		t.Fatalf("the kernel and the sweep (converged %v) disagree at scale", bf.Converged)
	}
}

// TestWorkspaceReuse: a single Workspace driven across many destinations
// and graphs produces Results bit-identical to fresh BellmanFordEngine
// calls — the contract the serve snapshot builder's worker pool relies
// on.
func TestWorkspaceReuse(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	a, err := core.InferString("lex(delay(16,3), bw(4))")
	if err != nil {
		t.Fatal(err)
	}
	eng := exec.For(a.OT)
	ws := NewWorkspace()
	for trial := 0; trial < 10; trial++ {
		g := graph.Random(r, 4+r.Intn(10), 0.35, graph.UniformLabels(a.OT.F.Size()))
		origin := a.OT.Carrier().Elems[r.Intn(a.OT.Carrier().Size())]
		for dest := 0; dest < g.N; dest++ {
			got := ws.BellmanFord(eng, g, dest, origin, 0)
			want := BellmanFordEngine(eng, g, dest, origin, 0)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d dest %d: workspace result differs:\n got: %+v\nwant: %+v", trial, dest, got, want)
			}
			// The Result must own its slices: mutating it must not leak
			// into the next workspace run.
			if len(got.NextHop) > 0 {
				got.NextHop[0] = -99
				got.Routed[0] = !got.Routed[0]
			}
		}
	}
}

// fullSweep is the textbook synchronous iteration — every node
// re-evaluated every round — kept here as the oracle for bellmanFord's
// stale-set sweep.
func fullSweep(eng exec.Algebra, g *graph.Graph, dest int, origin int32, maxRounds int) (routed []bool, w []int32, nextHop []int, rounds int, converged bool) {
	routed, w, nextHop = make([]bool, g.N), make([]int32, g.N), make([]int, g.N)
	for i := range nextHop {
		nextHop[i] = -1
	}
	routed[dest], w[dest] = true, origin
	for round := 1; round <= maxRounds; round++ {
		prevR, prevW := append([]bool(nil), routed...), append([]int32(nil), w...)
		changed := false
		for u := 0; u < g.N; u++ {
			if u == dest {
				continue
			}
			bestArc := -1
			var best int32
			for _, ai := range g.Out(u) {
				v := g.Arcs[ai].To
				if !prevR[v] {
					continue
				}
				if cand := eng.Apply(g.Arcs[ai].Label, prevW[v]); bestArc < 0 || eng.Lt(cand, best) {
					bestArc, best = int(ai), cand
				}
			}
			nr, nh := bestArc >= 0, -1
			if nr {
				nh = g.Arcs[bestArc].To
			}
			if nr != routed[u] || (nr && w[u] != best) || nextHop[u] != nh {
				changed = true
				routed[u], nextHop[u] = nr, nh
				if nr {
					w[u] = best
				}
			}
		}
		rounds = round
		if !changed {
			return routed, w, nextHop, rounds, true
		}
	}
	return routed, w, nextHop, rounds, false
}

// TestStaleSweepMatchesFullSweep: re-evaluating only nodes with a
// changed out-neighbour leaves the state after every round — and so the
// round count, the verdict and the state a round cap cuts off at —
// exactly the full sweep's, on converging and oscillating algebras, on
// base graphs and on masked and overlay views, with one workspace reused
// throughout.
func TestStaleSweepMatchesFullSweep(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	ws := NewWorkspace()
	exprs := []string{"gadget", "scoped(bw(4), delay(16,3))", "lex(delay(16,3), bw(4))", "left(lp(3))"}
	for trial := 0; trial < 120; trial++ {
		expr := exprs[trial%len(exprs)]
		if trial >= 60 {
			expr = deltaExpr(r, 2)
		}
		a, err := core.InferString(expr)
		if err != nil {
			t.Fatal(err)
		}
		origin := a.OT.Carrier().Elems[r.Intn(a.OT.Carrier().Size())]
		eng := exec.For(a.OT, origin)
		g := deltaTopo(r, a.OT.F.Size())
		switch trial % 3 {
		case 1:
			disabled := make([]bool, len(g.Arcs))
			for i := range disabled {
				disabled[i] = r.Intn(5) == 0
			}
			g = g.MaskArcs(disabled)
		case 2:
			disabled := make([]bool, len(g.Arcs))
			for k := 0; k < 3; k++ {
				ai := r.Intn(len(g.Arcs))
				disabled[ai] = !disabled[ai]
				g = g.WithArcToggled(ai, disabled)
			}
		}
		o := exec.MustIntern(eng, origin)
		for _, maxRounds := range []int{2*g.N + 4, 1 + r.Intn(4)} {
			dest := r.Intn(g.N)
			raw := ws.BellmanFordRaw(eng, g, dest, origin, maxRounds)
			routed, w, nextHop, rounds, converged := fullSweep(eng, g, dest, o, maxRounds)
			if raw.Rounds != rounds || raw.Converged != converged {
				t.Fatalf("trial %d %s cap %d: rounds/converged %d/%v, full sweep %d/%v", trial, expr, maxRounds, raw.Rounds, raw.Converged, rounds, converged)
			}
			for u := 0; u < g.N; u++ {
				if raw.Routed[u] != routed[u] || raw.NextHop[u] != nextHop[u] || (routed[u] && raw.W[u] != w[u]) {
					t.Fatalf("trial %d %s cap %d node %d: got (%v,%d,%d), full sweep (%v,%d,%d)", trial, expr, maxRounds, u,
						raw.Routed[u], raw.W[u], raw.NextHop[u], routed[u], w[u], nextHop[u])
				}
			}
		}
	}
}
