package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewValidates(t *testing.T) {
	if _, err := New(2, []Arc{{0, 5, 0}}); err == nil {
		t.Fatal("out-of-range arc must be rejected")
	}
	if _, err := New(2, []Arc{{1, 1, 0}}); err == nil {
		t.Fatal("self-loop must be rejected")
	}
	g, err := New(3, []Arc{{0, 1, 0}, {1, 2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 3 || len(g.Arcs) != 2 {
		t.Fatal("graph fields wrong")
	}
}

func TestAdjacency(t *testing.T) {
	g := MustNew(3, []Arc{{0, 1, 0}, {0, 2, 0}, {1, 2, 0}})
	if len(g.Out(0)) != 2 || len(g.Out(1)) != 1 || len(g.Out(2)) != 0 {
		t.Fatal("Out wrong")
	}
	if len(g.In(2)) != 2 || len(g.In(0)) != 0 {
		t.Fatal("In wrong")
	}
	for _, ai := range g.Out(0) {
		if g.Arcs[ai].From != 0 {
			t.Fatal("Out indexes wrong arcs")
		}
	}
}

func TestSimplePaths(t *testing.T) {
	// Diamond: 0→1→3, 0→2→3, plus direct 0→3.
	g := MustNew(4, []Arc{{0, 1, 0}, {0, 2, 0}, {1, 3, 0}, {2, 3, 0}, {0, 3, 0}})
	paths := g.SimplePaths(0, 3, 0)
	if len(paths) != 3 {
		t.Fatalf("want 3 simple paths, got %d", len(paths))
	}
	short := g.SimplePaths(0, 3, 1)
	if len(short) != 1 {
		t.Fatalf("maxLen=1 must keep only the direct path, got %d", len(short))
	}
	if got := g.SimplePaths(3, 0, 0); len(got) != 0 {
		t.Fatal("no reverse paths expected")
	}
}

func TestSimplePathsAreSimple(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g := Random(r, 7, 0.35, UniformLabels(3))
	for _, p := range g.SimplePaths(5, 0, 0) {
		seen := map[int]bool{}
		// Walk the arc sequence, checking continuity and node uniqueness.
		cur := 5
		for _, ai := range p {
			if g.Arcs[ai].From != cur {
				t.Fatal("discontinuous path")
			}
			if seen[cur] {
				t.Fatal("repeated node")
			}
			seen[cur] = true
			cur = g.Arcs[ai].To
		}
		if cur != 0 {
			t.Fatal("path does not end at destination")
		}
	}
}

func TestReachable(t *testing.T) {
	g := MustNew(4, []Arc{{1, 0, 0}, {2, 1, 0}})
	r := g.Reachable(0)
	if !r[0] || !r[1] || !r[2] || r[3] {
		t.Fatalf("reachability = %v", r)
	}
}

func TestRandomAlwaysReachesZero(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := Random(r, 12, 0.1, UniformLabels(2))
		reach := g.Reachable(0)
		for _, ok := range reach {
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomNoDuplicateArcsNoSelfLoops(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g := Random(r, 10, 0.3, UniformLabels(2))
	seen := map[[2]int]bool{}
	for _, a := range g.Arcs {
		if a.From == a.To {
			t.Fatal("self loop")
		}
		k := [2]int{a.From, a.To}
		if seen[k] {
			t.Fatalf("duplicate arc %v", k)
		}
		seen[k] = true
	}
}

func TestRing(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	g := Ring(r, 5, UniformLabels(2))
	if g.N != 5 || len(g.Arcs) != 10 {
		t.Fatalf("ring shape wrong: n=%d m=%d", g.N, len(g.Arcs))
	}
	for u := 0; u < 5; u++ {
		if len(g.Out(u)) != 2 {
			t.Fatalf("ring out-degree at %d = %d", u, len(g.Out(u)))
		}
	}
}

func TestGrid(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	g := Grid(r, 3, 4, UniformLabels(2))
	if g.N != 12 {
		t.Fatalf("grid nodes = %d", g.N)
	}
	// 3 rows × 3 horizontal + 2 rows… total undirected edges = 3*3 + 2*4 = 17,
	// directed = 34.
	if len(g.Arcs) != 34 {
		t.Fatalf("grid arcs = %d", len(g.Arcs))
	}
	// Corner has out-degree 2.
	if len(g.Out(0)) != 2 {
		t.Fatalf("corner degree = %d", len(g.Out(0)))
	}
}

func TestTwoLevel(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	reg := TwoLevel(r, 3, 4, 0.2, 2, UniformLabels(2), UniformLabels(2))
	g := reg.Graph
	if g.N != 12 {
		t.Fatalf("nodes = %d", g.N)
	}
	if len(reg.Inter) != len(g.Arcs) {
		t.Fatal("Inter must parallel Arcs")
	}
	interCount := 0
	for i, a := range g.Arcs {
		crosses := reg.RegionOf[a.From] != reg.RegionOf[a.To]
		if crosses != reg.Inter[i] {
			t.Fatalf("arc %v: Inter flag %v but crossing %v", a, reg.Inter[i], crosses)
		}
		if crosses {
			interCount++
		}
	}
	if interCount == 0 {
		t.Fatal("expected inter-region arcs")
	}
	// Everything must reach node 0 through the gateway ring.
	for u, ok := range g.Reachable(0) {
		if !ok {
			t.Fatalf("node %d cannot reach 0", u)
		}
	}
}

func TestArcsOf(t *testing.T) {
	g := MustNew(3, []Arc{{0, 1, 7}, {1, 2, 8}})
	idxs, ok := g.ArcsOf(Path{0, 1, 2})
	if !ok || len(idxs) != 2 || g.Arcs[idxs[0]].Label != 7 {
		t.Fatalf("ArcsOf = %v %v", idxs, ok)
	}
	if _, ok := g.ArcsOf(Path{0, 2}); ok {
		t.Fatal("missing hop must fail")
	}
}

func TestGadgets(t *testing.T) {
	gg := GoodGadget()
	if gg.N != 4 || len(gg.Arcs) != 6 {
		t.Fatal("good gadget shape")
	}
	bg, arcs := BadGadgetArcs()
	if bg.N != 4 || len(arcs) != 6 {
		t.Fatal("bad gadget shape")
	}
	for u := 1; u <= 3; u++ {
		if len(bg.Out(u)) != 2 {
			t.Fatalf("bad gadget node %d must have direct and via arcs", u)
		}
	}
}

func TestDegrees(t *testing.T) {
	g := MustNew(3, []Arc{{0, 1, 0}, {0, 2, 0}, {1, 2, 0}})
	d := g.Degrees()
	if d[0] != 0 || d[1] != 1 || d[2] != 2 {
		t.Fatalf("degrees = %v", d)
	}
}

func TestScaleFreeConnectedAndHeavyTailed(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	g := ScaleFree(r, 60, 2, UniformLabels(3))
	for u, ok := range g.Reachable(0) {
		if !ok {
			t.Fatalf("node %d cannot reach 0", u)
		}
	}
	// Heavy tail: the max degree should greatly exceed the median.
	d := g.Degrees()
	if d[len(d)-1] < 3*d[len(d)/2] {
		t.Fatalf("degree distribution too flat: median %d, max %d", d[len(d)/2], d[len(d)-1])
	}
	// No duplicate arcs or self loops.
	seen := map[[2]int]bool{}
	for _, a := range g.Arcs {
		if a.From == a.To {
			t.Fatal("self loop")
		}
		k := [2]int{a.From, a.To}
		if seen[k] {
			t.Fatal("duplicate arc")
		}
		seen[k] = true
	}
}

// naiveRows filters Arcs directly: the adjacency every view of base under
// disabled must present, in ascending arc order.
func naiveRows(base *Graph, disabled []bool) (out, in [][]int32, outHops, inHops [][]Hop) {
	out, in = make([][]int32, base.N), make([][]int32, base.N)
	outHops, inHops = make([][]Hop, base.N), make([][]Hop, base.N)
	for i, a := range base.Arcs {
		if i < len(disabled) && disabled[i] {
			continue
		}
		out[a.From] = append(out[a.From], int32(i))
		outHops[a.From] = append(outHops[a.From], Hop{Node: int32(a.To), Label: int32(a.Label)})
		in[a.To] = append(in[a.To], int32(i))
		inHops[a.To] = append(inHops[a.To], Hop{Node: int32(a.From), Label: int32(a.Label)})
	}
	return out, in, outHops, inHops
}

// maskEqual checks that all four row accessors of view agree with a
// from-scratch MaskArcs of base under disabled and with a naive filter
// of Arcs, and that every row is capped.
func maskEqual(t *testing.T, base, view *Graph, disabled []bool) {
	t.Helper()
	want := base.MaskArcs(disabled)
	out, in, outHops, inHops := naiveRows(base, disabled)
	for u := 0; u < base.N; u++ {
		if !slices.Equal(view.Out(u), out[u]) || !slices.Equal(want.Out(u), out[u]) {
			t.Fatalf("node %d: out rows: view %v, dense %v, naive %v", u, view.Out(u), want.Out(u), out[u])
		}
		if !slices.Equal(view.In(u), in[u]) || !slices.Equal(want.In(u), in[u]) {
			t.Fatalf("node %d: in rows: view %v, dense %v, naive %v", u, view.In(u), want.In(u), in[u])
		}
		if !slices.Equal(view.OutHops(u), outHops[u]) || !slices.Equal(want.OutHops(u), outHops[u]) {
			t.Fatalf("node %d: out hops: view %v, dense %v, naive %v", u, view.OutHops(u), want.OutHops(u), outHops[u])
		}
		if !slices.Equal(view.InHops(u), inHops[u]) || !slices.Equal(want.InHops(u), inHops[u]) {
			t.Fatalf("node %d: in hops: view %v, dense %v, naive %v", u, view.InHops(u), want.InHops(u), inHops[u])
		}
		for _, g := range []*Graph{view, want} {
			if cap(g.Out(u)) != len(g.Out(u)) || cap(g.In(u)) != len(g.In(u)) ||
				cap(g.OutHops(u)) != len(g.OutHops(u)) || cap(g.InHops(u)) != len(g.InHops(u)) {
				t.Fatalf("node %d: a row is not capped — an append on it would reach its neighbour", u)
			}
		}
	}
}

func TestMaskArcs(t *testing.T) {
	g := MustNew(3, []Arc{{0, 1, 0}, {0, 2, 0}, {1, 2, 0}, {2, 0, 0}})
	disabled := []bool{false, true, false, false}
	v := g.MaskArcs(disabled)
	if !slices.Equal(v.Out(0), []int32{0}) || !slices.Equal(v.In(2), []int32{2}) {
		t.Fatalf("masked adjacency wrong: out(0)=%v in(2)=%v", v.Out(0), v.In(2))
	}
	// The view shares arcs; indices stay valid.
	if &v.Arcs[0] != &g.Arcs[0] {
		t.Fatal("view must share the Arcs slice")
	}
	// The base graph is untouched.
	if len(g.Out(0)) != 2 {
		t.Fatal("MaskArcs mutated its receiver")
	}
	// Nothing disabled ⇒ identical adjacency.
	maskEqual(t, g, g.MaskArcs(make([]bool, 4)), make([]bool, 4))
}

// TestMaskArcsEmptyMaskIsOrigin: a mask that disables nothing — nil,
// short, all false, or set only past the last arc — needs no second
// adjacency index, so MaskArcs hands back the unmasked graph itself,
// from a view as from the base; its rows are what a dense re-index of
// the empty mask would hold. Any set bit still yields a fresh dense
// view, and toggle batches chain off that one through the mask-sweep
// path.
func TestMaskArcsEmptyMaskIsOrigin(t *testing.T) {
	g := Random(rand.New(rand.NewSource(23)), 12, 0.4, UniformLabels(3))
	m := len(g.Arcs)
	down := make([]bool, m)
	down[1] = true
	view := g.MaskArcs(down)
	if view == g || slices.Equal(view.Out(g.Arcs[1].From), g.Out(g.Arcs[1].From)) {
		t.Fatal("a mask with a bit set must produce a fresh masked view")
	}
	for name, mask := range map[string][]bool{
		"nil": nil, "short": make([]bool, m/2), "all false": make([]bool, m), "set past the arcs": append(make([]bool, m), true),
	} {
		if got := g.MaskArcs(mask); got != g {
			t.Errorf("%s mask on the base: got a new graph, want the base itself", name)
		}
		if got := view.MaskArcs(mask); got != g {
			t.Errorf("%s mask on a view: got %p, want the unmasked base %p", name, got, g)
		}
	}
	maskEqual(t, g, g, nil)
	down[1], down[2] = false, true
	maskEqual(t, g, view.WithArcsToggled([]int{1, 2}, down), down)
}

// TestWithArcToggled: a random toggle sequence built with copy-on-write
// row rebuilds always matches a from-scratch mask, and prior views are
// never mutated.
func TestWithArcToggled(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		g := Random(r, 4+r.Intn(8), 0.4, UniformLabels(3))
		disabled := make([]bool, len(g.Arcs))
		view := g.MaskArcs(disabled)
		for step := 0; step < 30; step++ {
			ai := r.Intn(len(g.Arcs))
			disabled[ai] = !disabled[ai]
			prev := view
			prevDisabled := make([]bool, len(disabled))
			copy(prevDisabled, disabled)
			prevDisabled[ai] = !prevDisabled[ai]
			view = view.WithArcToggled(ai, disabled)
			maskEqual(t, g, view, disabled)
			maskEqual(t, g, prev, prevDisabled) // old snapshot intact
		}
	}
}

// TestWithArcsToggled: the batched row rebuild must agree with a
// from-scratch mask for toggle batches of every shape — disjoint arcs,
// arcs sharing endpoints, and repeat toggles of the same arc — without
// mutating prior views.
func TestWithArcsToggled(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		g := Random(r, 4+r.Intn(8), 0.4, UniformLabels(3))
		disabled := make([]bool, len(g.Arcs))
		view := g.MaskArcs(disabled)
		for step := 0; step < 15; step++ {
			ais := make([]int, 1+r.Intn(6))
			for i := range ais {
				ais[i] = r.Intn(len(g.Arcs)) // duplicates allowed on purpose
			}
			prev := view
			prevDisabled := make([]bool, len(disabled))
			copy(prevDisabled, disabled)
			for _, ai := range ais {
				disabled[ai] = !disabled[ai]
			}
			view = view.WithArcsToggled(ais, disabled)
			maskEqual(t, g, view, disabled)
			maskEqual(t, g, prev, prevDisabled) // old snapshot intact
		}
	}
}

// TestParallelMatchesPairCount holds Graph.Parallel to a count of arcs
// per (tail, head) pair on random graphs with duplicated arcs, asked
// through masked and overlay views as well as the graph itself.
func TestParallelMatchesPairCount(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		base := Random(r, 30, 0.1, UniformLabels(3))
		arcs := append([]Arc(nil), base.Arcs...)
		for _, a := range base.Arcs {
			if r.Intn(4) == 0 {
				arcs = append(arcs, Arc{From: a.From, To: a.To, Label: r.Intn(3)})
			}
		}
		r.Shuffle(len(arcs), func(i, j int) { arcs[i], arcs[j] = arcs[j], arcs[i] })
		g := MustNew(30, arcs)
		count := map[[2]int]int{}
		for _, a := range arcs {
			count[[2]int{a.From, a.To}]++
		}
		disabled := make([]bool, len(arcs))
		for i := range disabled {
			disabled[i] = r.Intn(5) == 0
		}
		for _, view := range []*Graph{g, g.MaskArcs(disabled), g.WithArcsToggled([]int{0}, disabled)} {
			for ai, a := range arcs {
				if want := count[[2]int{a.From, a.To}] > 1; view.Parallel(ai) != want {
					t.Fatalf("trial %d arc %d (%d→%d): Parallel %v, want %v", trial, ai, a.From, a.To, !want, want)
				}
			}
		}
	}
}
