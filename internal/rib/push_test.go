package rib

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/solve"
	"metarouting/internal/value"
)

// pushGraph draws the push drain's fixture: a scale-free graph whose
// node 1 is forced into a hub of at least 500 arcs each way, with mostly
// coarse labels (label 0 three times in four) so equal-cost sets are
// common, and a parallel twin for one arc in eight — a different label
// mostly, the same one sometimes — shuffled in among the originals so
// parallel arcs interleave with others in arc-index order.
func pushGraph(r *rand.Rand, n, labels int) *graph.Graph {
	coarse := func(r *rand.Rand, _, _ int) int {
		if r.Intn(4) > 0 {
			return 0
		}
		return r.Intn(labels)
	}
	sf := graph.ScaleFree(r, n, 2, coarse)
	arcs := append([]graph.Arc(nil), sf.Arcs...)
	linked := make(map[[2]int]bool, len(arcs))
	for _, a := range arcs {
		linked[[2]int{a.From, a.To}] = true
	}
	const hub = 1
	for v := 2; v < n && v < 502; v++ {
		for _, a := range [][2]int{{hub, v}, {v, hub}} {
			if !linked[a] {
				arcs = append(arcs, graph.Arc{From: a[0], To: a[1], Label: coarse(r, 0, 0)})
			}
		}
	}
	for _, a := range arcs[:len(arcs):len(arcs)] {
		if r.Intn(8) == 0 {
			twin := a
			if r.Intn(3) > 0 {
				twin.Label = (a.Label + 1 + r.Intn(labels-1)) % labels
			}
			arcs = append(arcs, twin)
		}
	}
	r.Shuffle(len(arcs), func(i, j int) { arcs[i], arcs[j] = arcs[j], arcs[i] })
	return graph.MustNew(n, arcs)
}

// pushBatch draws one batch for a destination's chain, applying it to
// disabled: kind 0 fails, 1 restores, 2 mixes, and every batch also
// fails the primary arc of a routed node — one with an equal-cost
// sibling on even steps where one exists, one without on odd steps —
// and toggles an arc out of the hub.
func pushBatch(r *rand.Rand, g *graph.Graph, col *PagedColumn, disabled []bool, step int) []solve.ArcToggle {
	var toggles []solve.ArcToggle
	seen := make(map[int]bool)
	flip := func(ai int, down bool) {
		if seen[ai] || disabled[ai] == down {
			return
		}
		seen[ai] = true
		disabled[ai] = down
		toggles = append(toggles, solve.ArcToggle{Arc: ai, Down: down})
	}
	kind := step % 3
	for i := 0; i < 3; i++ {
		ai := r.Intn(len(g.Arcs))
		switch {
		case kind == 0 || kind == 2 && i%2 == 0:
			flip(ai, true)
		default:
			for k := 0; k < 64; k++ {
				if ai := r.Intn(len(disabled)); disabled[ai] {
					flip(ai, false)
					break
				}
			}
		}
	}
	hubRow := g.RevIn().Out(1)
	flip(int(hubRow[r.Intn(len(hubRow))]), kind != 1)
	wantSibling := step%2 == 0
	start := r.Intn(g.N)
	for k := 0; k < g.N; k++ {
		u := (start + k) % g.N
		nh := col.NextHops(u)
		if len(nh) == 0 || (len(nh) > 1) != wantSibling {
			continue
		}
		for _, ai := range g.Out(u) {
			if g.Arcs[ai].To == int(nh[0]) && !disabled[ai] {
				flip(int(ai), true)
				return toggles
			}
		}
	}
	return toggles
}

// TestPushDeltaMatchesSweep is the differential for the strict-I push
// drain and the edited equal-cost spans. On pushGraph's scale-free graph
// with a 500-arc hub, coarse labels and parallel arcs, every destination
// carries its column through a chain of fail, restore and mixed batches
// (downed primaries with and without an equal-cost sibling, hub toggles)
// by DeltaDestPaged, on the compiled lex(delay(32,3), hops(8)) and the
// tiered lex(delay(255,3), hops(32)). Every rebuilt column — slots,
// spans, Converged and Clean — must equal BuildDestColumn's, whose sweep
// shares nothing with the drain, and most rebuilds must take the sparse
// push path.
func TestPushDeltaMatchesSweep(t *testing.T) {
	for _, tc := range []struct {
		name, expr string
		tiered     bool
	}{
		{"compiled", "lex(delay(32,3), hops(8))", false},
		{"tiered", "lex(delay(255,3), hops(32))", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := core.InferString(tc.expr)
			if err != nil {
				t.Fatal(err)
			}
			var eng exec.Algebra
			if tc.tiered {
				eng = exec.NewTiered(a.OT)
			} else if eng, err = exec.Compile(a.OT); err != nil {
				t.Fatal(err)
			}
			if plan := solve.NewPlan(eng); !plan.Kernel.I || plan.Warm != solve.WarmTree {
				t.Fatalf("plan %v: the fixture needs the strict-I clean-tree row", plan)
			}
			r := rand.New(rand.NewSource(40))
			g := pushGraph(r, 560, a.OT.F.Size())
			origin := a.OT.DefaultOrigin()
			pushed, rebuilds := pushChains(t, eng, g, origin, r)
			if 4*pushed < 3*rebuilds {
				t.Fatalf("only %d of %d rebuilds took the sparse push path", pushed, rebuilds)
			}
			t.Logf("%d of %d rebuilds on the sparse push path", pushed, rebuilds)
		})
	}
}

// TestPushDeltaWorsenedPrimary is the one case of a strict-I relaxation
// that must pull without an invalidated subtree behind it: a next hop
// whose weight improves while the candidate through it gets worse, which
// I allows and M forbids. In lex(delay(8,3), hops(8)) node 1 reaches 0 at
// (7,3) over three arcs; restoring 1→4 gives it (6,6) over six. Node 9's
// only arc, 9→1 at (+2,+1), saturates the delay either way, so its
// candidate goes from (8,4) to (8,7): 9 must be pulled, and its weight
// must move to the worse one.
func TestPushDeltaWorsenedPrimary(t *testing.T) {
	a, err := core.InferString("lex(delay(8,3), hops(8))")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := exec.Compile(a.OT)
	if err != nil {
		t.Fatal(err)
	}
	const d1, d2, d3 = 0, 1, 2 // (+1,+1), (+2,+1), (+3,+1)
	g := graph.MustNew(10, []graph.Arc{
		{From: 1, To: 2, Label: d3}, {From: 2, To: 3, Label: d3}, {From: 3, To: 0, Label: d1},
		{From: 1, To: 4, Label: d1}, {From: 4, To: 5, Label: d1}, {From: 5, To: 6, Label: d1},
		{From: 6, To: 7, Label: d1}, {From: 7, To: 8, Label: d1}, {From: 8, To: 0, Label: d1},
		{From: 9, To: 1, Label: d2},
	})
	const restored = 3
	disabled := make([]bool, len(g.Arcs))
	disabled[restored] = true
	origin := a.OT.DefaultOrigin()
	ws := solve.NewWorkspace()
	prev, err := BuildDestPaged(eng, g.MaskArcs(disabled), 0, origin, ws)
	if err != nil {
		t.Fatal(err)
	}
	disabled[restored] = false
	next, st, _, err := DeltaDestPaged(eng, g, disabled, 0, origin, ws, prev, []solve.ArcToggle{{Arc: restored}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := BuildDestColumn(eng, g, 0, origin, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameColumn(next.Flatten(), want); err != nil {
		t.Fatal(err)
	}
	w0, _ := prev.Route(9)
	w1, _ := next.Route(9)
	if !st.UsedDelta || st.Moved == nil || w0 == w1 || !eng.Lt(w0, w1) {
		t.Fatalf("fixture: delta %v, node 9 from %v to %v; want the sparse path and a worse weight",
			st.UsedDelta, value.Format(eng.Value(w0)), value.Format(eng.Value(w1)))
	}
}

// pushChains runs TestPushDeltaMatchesSweep's chains, one per
// destination, and reports how many rebuilds took the sparse path.
func pushChains(t *testing.T, eng exec.Algebra, g *graph.Graph, origin value.V, r *rand.Rand) (pushed, rebuilds int) {
	ws, ows := solve.NewWorkspace(), solve.NewWorkspace()
	for dest := 0; dest < g.N; dest++ {
		disabled := make([]bool, len(g.Arcs))
		view := g
		col, err := BuildDestPaged(eng, g, dest, origin, ws)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 4; step++ {
			toggles := pushBatch(r, g, col, disabled, step)
			view = g.MaskArcs(disabled)
			next, st, _, err := DeltaDestPaged(eng, view, disabled, dest, origin, ws, col, toggles)
			if err != nil {
				t.Fatal(err)
			}
			rebuilds++
			if st.UsedDelta && st.Moved != nil {
				pushed++
			}
			want, err := BuildDestColumn(eng, view, dest, origin, ows)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameColumn(next.Flatten(), want); err != nil {
				t.Fatalf("dest %d step %d (%d toggles, delta %v): %v", dest, step, len(toggles), st.UsedDelta, err)
			}
			col = next
		}
	}
	return pushed, rebuilds
}

// sameColumn reports the first difference between two flat columns.
func sameColumn(got, want *Column) error {
	if got.Converged != want.Converged || got.Clean != want.Clean {
		return fmt.Errorf("converged/clean %v/%v, want %v/%v", got.Converged, got.Clean, want.Converged, want.Clean)
	}
	for u := range want.Slots {
		gs, ws := got.Slots[u], want.Slots[u]
		gh, wh := got.NextHops(u), want.NextHops(u)
		if gs.Routed != ws.Routed || gs.W != ws.W || !slices.Equal(gh, wh) {
			return fmt.Errorf("node %d: routed %v w %d span %v, want routed %v w %d span %v", u, gs.Routed, gs.W, gh, ws.Routed, ws.W, wh)
		}
	}
	if !slices.Equal(got.Pool, want.Pool) || !slices.Equal(got.Slots, want.Slots) {
		return fmt.Errorf("layout differs with equal routes")
	}
	return nil
}
