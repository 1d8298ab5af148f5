package rib

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/solve"
)

// TestPagedDifferential is the paged acceptance differential: across
// random algebras × GNP/ring/grid × both engine backends, a delta toggle
// chain driven through DeltaDestPaged must flatten bit-identically to
// the naive BuildDestColumn on the masked view at every step — slots,
// pools, convergence and the clean certificate. CI runs the package
// under -race, which also guards the aliased shared pages.
func TestPagedDifferential(t *testing.T) {
	for _, src := range []string{"delay(16,3)", "lex(delay(8,2), hops(8))"} {
		a := alg(t, src)
		for backend, eng := range engines(t, a) {
			r := rand.New(rand.NewSource(23))
			graphs := map[string]*graph.Graph{
				"gnp":  graph.Random(r, 14, 0.3, graph.UniformLabels(a.F.Size())),
				"ring": graph.Ring(r, 12, graph.UniformLabels(a.F.Size())),
				"grid": graph.Grid(r, 3, 4, graph.UniformLabels(a.F.Size())),
			}
			for shape, g := range graphs {
				ws := solve.NewWorkspace()
				disabled := make([]bool, len(g.Arcs))
				org := originFor(a)
				prevPaged, err := BuildDestPaged(eng, g.MaskArcs(disabled), 0, org, ws)
				if err != nil {
					t.Fatal(err)
				}
				sharedPages := false
				for step := 0; step < 10; step++ {
					ai := r.Intn(len(g.Arcs))
					disabled[ai] = !disabled[ai]
					view := g.MaskArcs(disabled)
					toggles := []solve.ArcToggle{{Arc: ai, Down: disabled[ai]}}
					tag := fmt.Sprintf("%s/%s/%s step %d", src, backend, shape, step)

					flat, err := BuildDestColumn(eng, view, 0, org, solve.NewWorkspace())
					if err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					paged, _, ps, err := DeltaDestPaged(eng, view, disabled, 0, org, ws, prevPaged, toggles)
					if err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					if ps.Shared > 0 {
						sharedPages = true
						// Shared pages must be aliases of the previous
						// generation, never copies.
						aliased := 0
						for pi, p := range paged.Pages {
							if prevPaged.Pages[pi] == p {
								aliased++
							}
						}
						if aliased != ps.Shared {
							t.Fatalf("%s: PageStats says %d shared, %d pages actually aliased", tag, ps.Shared, aliased)
						}
					}
					if got := paged.Flatten(); !reflect.DeepEqual(got, flat) {
						t.Fatalf("%s: flattened paged column differs from the naive build\n got %+v\nwant %+v", tag, got, flat)
					}
					// Delta drain or scratch fallback, the emitted change
					// list is what an all-slots comparison would find.
					checkChanges(t, tag, prevPaged, paged, ps.Changes, ps.Changed)
					prevPaged = paged
				}
				if !sharedPages && g.N > PageSize {
					t.Fatalf("%s/%s/%s: copy-on-write never shared a page", src, backend, shape)
				}
			}
		}
	}
}

// boundaryGraph builds a 70-node topology (pages 0 and 1 of a paged
// column) where every non-hub node reaches dest 0 through two
// equal-cost hubs — an ECMP span on both sides of the 64-slot page
// boundary.
func boundaryGraph(t *testing.T) *graph.Graph {
	t.Helper()
	arcs := []graph.Arc{{From: 1, To: 0, Label: 0}, {From: 2, To: 0, Label: 0}}
	for u := 3; u < 70; u++ {
		arcs = append(arcs, graph.Arc{From: u, To: 1, Label: 0}, graph.Arc{From: u, To: 2, Label: 0})
	}
	g, err := graph.New(70, arcs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPageBoundaryECMPSpans pins the page-local pool invariant: a
// node's ECMP span lives wholly inside its own page's pool, including
// for the nodes straddling the 64-slot page boundary, and a delta that
// only touches page 1 leaves page 0 aliased.
func TestPageBoundaryECMPSpans(t *testing.T) {
	a := alg(t, "delay(8,2)")
	eng := exec.NewDynamic(a)
	g := boundaryGraph(t)
	ws := solve.NewWorkspace()
	org := originFor(a)

	col, err := BuildDestPaged(eng, g, 0, org, ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Pages) != 2 {
		t.Fatalf("70 nodes laid out over %d pages, want 2", len(col.Pages))
	}
	for _, u := range []int{62, 63, 64, 65} {
		nh := col.NextHops(u)
		if len(nh) != 2 {
			t.Fatalf("node %d: ECMP %v, want both hubs", u, nh)
		}
		p := col.Pages[u>>PageShift]
		s := p.Slots[u&PageMask]
		if end := p.SpanEnd(u & PageMask); int(end) > len(p.Pool) {
			t.Fatalf("node %d: span [%d,%d) escapes its page pool (len %d)", u, s.NhOff, end, len(p.Pool))
		}
	}
	flat, err := BuildDestColumn(eng, g, 0, org, ws)
	if err != nil {
		t.Fatal(err)
	}
	if got := col.Flatten(); !reflect.DeepEqual(got, flat) {
		t.Fatalf("boundary column flattens unequal to flat build\n got %+v\nwant %+v", got, flat)
	}

	// Fail one of node 64's hub arcs: the frontier is {64}, wholly in
	// page 1, so page 0 must ride along by pointer.
	ai := -1
	for i, arc := range g.Arcs {
		if arc.From == 64 && arc.To == 1 {
			ai = i
		}
	}
	if ai < 0 {
		t.Fatal("arc 64→1 not found")
	}
	disabled := make([]bool, len(g.Arcs))
	disabled[ai] = true
	view := g.WithArcToggled(ai, disabled)
	toggles := []solve.ArcToggle{{Arc: ai, Down: true}}
	next, st, ps, err := DeltaDestPaged(eng, view, disabled, 0, org, ws, col, toggles)
	if err != nil {
		t.Fatal(err)
	}
	if !st.UsedDelta {
		t.Fatal("single-arc toggle fell back to a scratch rebuild")
	}
	if ps.Cloned != 1 || ps.Shared != 1 {
		t.Fatalf("cloned %d, shared %d pages, want 1 and 1", ps.Cloned, ps.Shared)
	}
	if next.Pages[0] != col.Pages[0] {
		t.Fatal("untouched page 0 was cloned, not shared")
	}
	if next.Pages[1] == col.Pages[1] {
		t.Fatal("touched page 1 was shared, not cloned")
	}
	if nh := next.NextHops(64); len(nh) != 1 || nh[0] != 2 {
		t.Fatalf("node 64 after hub loss: ECMP %v, want [2]", nh)
	}
	checkChanges(t, "hub loss at node 64", col, next, ps.Changes, ps.Changed)
	scratch, err := BuildDestColumn(eng, view, 0, org, solve.NewWorkspace())
	if err != nil {
		t.Fatal(err)
	}
	if got := next.Flatten(); !reflect.DeepEqual(got, scratch) {
		t.Fatalf("post-delta boundary column flattens unequal to scratch build\n got %+v\nwant %+v", got, scratch)
	}
}

// TestDeltaPagedAllocs pins the paged delta rebuild's allocations to the
// pages whose routes change. A warm rebuild allocates the column header,
// the redo list and the span scratch, and only once a page changes the
// change list, one page-table copy and a page plus a pool per changed
// page — a handful of objects at 1024 nodes, and O(frontier) bytes. A
// rebuild handed a toggle that cannot move the column (an arc off every
// ECMP set, failed and restored) changes no page: it clones nothing and
// shares prev's page table outright.
func TestDeltaPagedAllocs(t *testing.T) {
	a := alg(t, "lex(delay(8,2), hops(8))")
	eng, err := exec.Compile(a)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Random(rand.New(rand.NewSource(11)), 1024, 0.008, graph.UniformLabels(a.F.Size()))
	ws := solve.NewWorkspace()
	org := originFor(a)
	base, err := BuildDestPaged(eng, g, 0, org, ws)
	if err != nil {
		t.Fatal(err)
	}
	// Two arcs out of routed nodes: moving is a single-next-hop node's
	// primary, inert is on no node's ECMP set.
	moving, inert := -1, -1
	for ai, arc := range g.Arcs {
		nh := base.NextHops(arc.From)
		switch {
		case len(nh) == 0:
		case len(nh) == 1 && nh[0] == int32(arc.To):
			moving = max(moving, ai)
		case !slices.Contains(nh, int32(arc.To)):
			inert = max(inert, ai)
		}
	}
	if moving < 0 || inert < 0 {
		t.Fatalf("fixture lacks an arc: moving %d, inert %d", moving, inert)
	}
	// pair returns a closure that fails arc ai and restores it, starting
	// from *prev and leaving the restored column there; changed sums the
	// pages the two rebuilds changed. The views are built up front.
	pair := func(ai int, prev **PagedColumn, changed *int) func() {
		disabled := make([]bool, len(g.Arcs))
		disabled[ai] = true
		view, none := g.WithArcToggled(ai, disabled), make([]bool, len(g.Arcs))
		togDown, togUp := []solve.ArcToggle{{Arc: ai, Down: true}}, []solve.ArcToggle{{Arc: ai, Down: false}}
		return func() {
			down, st, ps, err := DeltaDestPaged(eng, view, disabled, 0, org, ws, *prev, togDown)
			if err != nil || !st.UsedDelta {
				t.Fatalf("arc %d down: err=%v usedDelta=%v", ai, err, st.UsedDelta)
			}
			up, st, psUp, err := DeltaDestPaged(eng, g, none, 0, org, ws, down, togUp)
			if err != nil || !st.UsedDelta {
				t.Fatalf("arc %d up: err=%v usedDelta=%v", ai, err, st.UsedDelta)
			}
			*prev, *changed = up, ps.Cloned+psUp.Cloned
		}
	}

	prev, changed := base, 0
	run := pair(moving, &prev, &changed)
	run()
	maxChanged := 0
	allocs := testing.AllocsPerRun(20, func() {
		run()
		maxChanged = max(maxChanged, changed)
	})
	pages := numPages(g.N)
	if maxChanged == 0 || maxChanged >= pages {
		t.Fatalf("steady-state single-arc delta pair changed %d of %d pages", maxChanged, pages)
	}
	// Per rebuild: header, the solver's touched list, redo list, span
	// scratch, change list and page-table copy; per changed page: the
	// page and its pool.
	if limit := float64(2*6 + 2*maxChanged); allocs > limit {
		t.Fatalf("paged delta rebuild pair allocates %.0f objects per run (%d changed pages), want ≤ %.0f", allocs, maxChanged, limit)
	}
	t.Logf("moving arc %d: %.0f allocs per pair, %d changed pages", moving, allocs, maxChanged)

	prev = base
	run = pair(inert, &prev, &changed)
	allocs = testing.AllocsPerRun(20, func() {
		run()
		if changed != 0 || &prev.Pages[0] != &base.Pages[0] {
			t.Fatalf("inert arc %d: %d pages changed, page table shared %v", inert, changed, &prev.Pages[0] == &base.Pages[0])
		}
	})
	// Per rebuild: header, touched list, redo list, span scratch —
	// nothing per page.
	if allocs > 2*4 {
		t.Fatalf("inert delta rebuild pair allocates %.0f objects per run, want ≤ 8", allocs)
	}
	t.Logf("inert arc %d: %.0f allocs per pair", inert, allocs)
}
