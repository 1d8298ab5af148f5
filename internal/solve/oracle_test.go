package solve

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/value"
)

// This file keeps the arc-index solver kernels the packed adjacency rows
// replaced — every relaxation going row → arc index → graph.Arc, routed
// and weight in separate arrays — as the oracle for the row-form kernels:
// state, round or pop count and relaxation count must agree exactly.

// oracleBellmanFord is the arc-index synchronous sweep.
func (ws *Workspace) oracleBellmanFord(eng exec.Algebra, g *graph.Graph, dest int, origin value.V, maxRounds int) (int, uint64, bool) {
	if maxRounds <= 0 {
		maxRounds = 2*g.N + 4
	}
	o := exec.MustIntern(eng, origin)
	ws.reset(g.N, dest, o)
	routed, w, nextHop := ws.routed, ws.w, ws.nextHop
	prevW, prevR := make([]int32, g.N), make([]bool, g.N)
	stale, staleNext := ws.stale, ws.staleNext
	rerouted := func(u int) {
		for _, ai := range g.In(u) {
			staleNext[g.Arcs[ai].From] = true
		}
	}
	rounds := 0
	var relaxations uint64
	for round := 1; round <= maxRounds; round++ {
		copy(prevW, w)
		copy(prevR, routed)
		changed := false
		for u := 0; u < g.N; u++ {
			if !stale[u] {
				continue
			}
			stale[u] = false
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
				relaxations++
				cand := eng.Apply(g.Arcs[ai].Label, prevW[v])
				if bestArc < 0 || eng.Lt(cand, best) {
					bestArc, best = int(ai), cand
				}
			}
			if bestArc < 0 {
				if routed[u] {
					routed[u] = false
					nextHop[u] = -1
					changed = true
					rerouted(u)
				}
				continue
			}
			nh := g.Arcs[bestArc].To
			if !routed[u] || w[u] != best {
				rerouted(u)
			}
			if !routed[u] || w[u] != best || nextHop[u] != nh {
				changed = true
				routed[u] = true
				w[u] = best
				nextHop[u] = nh
			}
		}
		rounds = round
		if !changed {
			return rounds, relaxations, true
		}
		stale, staleNext = staleNext, stale
	}
	return rounds, relaxations, false
}

// oracleDrain is the arc-index worklist drain.
func (ws *Workspace) oracleDrain(eng exec.Algebra, g *graph.Graph, disabled []bool, dest, maxPops int, warm WarmLoader) (pops int, relaxations uint64, converged bool) {
	if maxPops <= 0 {
		maxPops = defaultPopBudget(g.N)
	}
	rev := g.RevIn()
	arcs := g.Arcs
	routed, w, nextHop := ws.routed, ws.w, ws.nextHop
	head := 0
	for head < len(ws.queue) {
		if pops >= maxPops {
			return pops, relaxations, false
		}
		if head > 1024 && head*2 > len(ws.queue) {
			n := copy(ws.queue, ws.queue[head:])
			ws.queue = ws.queue[:n]
			head = 0
		}
		u := ws.queue[head]
		head++
		ws.dirty[u] = false
		pops++
		if warm != nil {
			ws.ensure(u, warm)
		}
		bestArc := -1
		var best int32
		for _, ai := range g.Out(u) {
			v := arcs[ai].To
			if warm != nil {
				ws.ensure(v, warm)
			}
			if !routed[v] {
				continue
			}
			relaxations++
			cand := eng.Apply(arcs[ai].Label, w[v])
			if bestArc < 0 || eng.Lt(cand, best) {
				bestArc, best = int(ai), cand
			}
		}
		changed := false
		if bestArc < 0 {
			if routed[u] {
				routed[u] = false
				nextHop[u] = -1
				changed = true
			}
		} else {
			if !routed[u] || w[u] != best {
				changed = true
			}
			routed[u] = true
			w[u] = best
			nextHop[u] = arcs[bestArc].To
		}
		if !changed {
			continue
		}
		for _, ai := range rev.In(u) {
			if disabled != nil && int(ai) < len(disabled) && disabled[ai] {
				continue
			}
			ws.push(arcs[ai].From, dest)
		}
	}
	return pops, relaxations, true
}

// kernelCase is one algebra × backend of the kernel differential.
type kernelCase struct {
	name   string
	eng    exec.Algebra
	origin value.V
	labels int
}

// kernelCases covers the backends and the algebra shapes that stress
// tie order: lex(delay(6,3),hops(4)) saturates both ceilings on any
// graph past a few hops, so most candidates tie and only the first
// minimal head may win; scoped(bw(4),delay(8,4)) is the M-only policy
// product whose sweeps can hit the round cap.
func kernelCases(t *testing.T) []kernelCase {
	t.Helper()
	var out []kernelCase
	for _, c := range []struct {
		expr string
		mode exec.Mode
	}{
		{"lex(delay(6,3),hops(4))", exec.ModeCompiled},
		{"lex(delay(6,3),hops(4))", exec.ModeTiered},
		{"lex(delay(6,3),hops(4))", exec.ModeDynamic},
		{"scoped(bw(4),delay(8,4))", exec.ModeCompiled},
	} {
		a, err := core.InferString(c.expr)
		if err != nil {
			t.Fatal(err)
		}
		origin := a.OT.DefaultOrigin()
		eng, err := exec.New(a.OT, c.mode, origin)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, kernelCase{fmt.Sprintf("%s/%s", c.expr, c.mode), eng, origin, a.OT.F.Size()})
	}
	return out
}

// kernelTopo draws GNP, ring, grid and scale-free graphs in turn.
func kernelTopo(r *rand.Rand, i, labels int) *graph.Graph {
	pick := graph.UniformLabels(labels)
	switch i % 4 {
	case 0:
		return graph.Random(r, 6+r.Intn(14), 0.25, pick)
	case 1:
		return graph.Ring(r, 5+r.Intn(12), pick)
	case 2:
		return graph.Grid(r, 2+r.Intn(4), 2+r.Intn(4), pick)
	default:
		return graph.ScaleFree(r, 10+r.Intn(30), 2, pick)
	}
}

func sameState(t *testing.T, tag string, got, want *Workspace, only func(u int) bool) {
	t.Helper()
	for u := range want.routed {
		if only != nil && !only(u) {
			continue
		}
		if got.routed[u] != want.routed[u] || got.nextHop[u] != want.nextHop[u] || (want.routed[u] && got.w[u] != want.w[u]) {
			t.Fatalf("%s: node %d: (routed %v, w %d, next hop %d), arc-index kernel (%v, %d, %d)", tag, u,
				got.routed[u], got.w[u], got.nextHop[u], want.routed[u], want.w[u], want.nextHop[u])
		}
	}
}

// TestKernelsMatchArcIndexOracle: over GNP/ring/grid/scale-free graphs ×
// {compiled, tiered, dynamic lex(delay,hops) with saturating ceilings,
// the unconverged-capable scoped product} × a dense random mask followed
// by a 30-step toggle chain, the row-form sweep and drain leave exactly
// the arc-index kernels' state — slot for slot, rounds or pops,
// relaxation count and verdict — from scratch, under a round cap, and
// draining dense and sparse warm starts from arbitrary seeds.
func TestKernelsMatchArcIndexOracle(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	ws, ows := NewWorkspace(), NewWorkspace()
	for ci, kc := range kernelCases(t) {
		for gi := 0; gi < 8; gi++ {
			g := kernelTopo(r, gi, kc.labels)
			m := len(g.Arcs)
			disabled := make([]bool, m)
			if gi%2 == 1 {
				for i := range disabled {
					disabled[i] = r.Intn(6) == 0
				}
			}
			view := g.MaskArcs(disabled)
			dest := r.Intn(g.N)
			for step := 0; step < 30; step++ {
				tag := fmt.Sprintf("%s graph %d step %d", kc.name, gi, step)
				ais := make([]int, 1+r.Intn(4))
				for i := range ais {
					ais[i] = r.Intn(m)
					disabled[ais[i]] = !disabled[ais[i]]
				}
				// The previous view's fixpoint is the warm start.
				ws.bellmanFord(kc.eng, view, dest, kc.origin, 0)
				prevRouted, prevW, prevNH := slices.Clone(ws.routed), slices.Clone(ws.w), slices.Clone(ws.nextHop)
				warm := func(u int) (bool, int32, int) { return prevRouted[u], prevW[u], prevNH[u] }
				view = view.WithArcsToggled(ais, disabled)

				for _, maxRounds := range []int{0, 1 + r.Intn(4)} {
					rounds, relax, conv := ws.bellmanFord(kc.eng, view, dest, kc.origin, maxRounds)
					oRounds, oRelax, oConv := ows.oracleBellmanFord(kc.eng, view, dest, kc.origin, maxRounds)
					if rounds != oRounds || relax != oRelax || conv != oConv {
						t.Fatalf("%s cap %d: sweep rounds/relaxations/converged %d/%d/%v, arc-index kernel %d/%d/%v",
							tag, maxRounds, rounds, relax, conv, oRounds, oRelax, oConv)
					}
					sameState(t, tag+" sweep", ws, ows, nil)
				}

				// Drain from the same warm state and seeds: toggle tails
				// plus a few arbitrary nodes. A nil mask exercises the
				// wasted-pop path on every other step.
				mask := disabled
				if step%2 == 1 {
					mask = nil
				}
				seeds := []int{r.Intn(g.N), r.Intn(g.N)}
				for _, ai := range ais {
					seeds = append(seeds, g.Arcs[ai].From)
				}
				o := exec.MustIntern(kc.eng, kc.origin)
				for _, sparse := range []bool{false, true} {
					var lazy WarmLoader
					for _, w := range []*Workspace{ws, ows} {
						if sparse {
							lazy = WarmStart(warm)
							w.sparseReset(g.N)
							w.loadNode(dest, true, o, -1)
						} else {
							w.reset(g.N, dest, o)
							w.resetWorklist(g.N)
							for u := 0; u < g.N; u++ {
								if u != dest && prevRouted[u] {
									w.routed[u], w.w[u], w.nextHop[u] = true, prevW[u], prevNH[u]
								}
							}
						}
						for _, u := range seeds {
							w.push(u, dest)
						}
					}
					maxPops := 0
					if ci == 3 && step%5 == 0 {
						maxPops = 1 + r.Intn(6) // cut the drain short too
					}
					pops, relax, conv := ws.drain(kc.eng, view, mask, dest, maxPops, lazy, false)
					oPops, oRelax, oConv := ows.oracleDrain(kc.eng, view, mask, dest, maxPops, lazy)
					if pops != oPops || relax != oRelax || conv != oConv {
						t.Fatalf("%s sparse=%v: drain pops/relaxations/converged %d/%d/%v, arc-index kernel %d/%d/%v",
							tag, sparse, pops, relax, conv, oPops, oRelax, oConv)
					}
					if !slices.Equal(ws.touchList, ows.touchList) || !slices.Equal(ws.queue, ows.queue) {
						t.Fatalf("%s sparse=%v: touch order %v / queue %v, arc-index kernel %v / %v",
							tag, sparse, ws.touchList, ws.queue, ows.touchList, ows.queue)
					}
					var only func(u int) bool
					if sparse {
						for u := 0; u < g.N; u++ {
							if (ws.loaded[u] == ws.loadEpoch) != (ows.loaded[u] == ows.loadEpoch) {
								t.Fatalf("%s: node %d materialized by one drain only", tag, u)
							}
						}
						only = func(u int) bool { return ows.loaded[u] == ows.loadEpoch }
					}
					sameState(t, fmt.Sprintf("%s drain sparse=%v", tag, sparse), ws, ows, only)
				}
			}
		}
	}
}
