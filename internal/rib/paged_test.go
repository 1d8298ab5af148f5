package rib

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/solve"
)

// TestPagedDifferential is the paged-vs-flat acceptance differential:
// across random algebras × GNP/ring/grid × both engine backends, a
// delta toggle chain driven through DeltaDestPaged must flatten
// bit-identically to the flat DeltaDestColumn result (itself pinned to
// from-scratch builds by TestDeltaColumnDifferential) at every step —
// slots, pools, convergence and the clean certificate. CI runs the
// package under -race, which also guards the aliased shared pages.
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
				prevFlat, err := BuildDestColumn(eng, g.MaskArcs(disabled), 0, org, ws)
				if err != nil {
					t.Fatal(err)
				}
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

					flat, _, err := DeltaDestColumn(eng, view, disabled, 0, org, ws, prevFlat, toggles)
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
						t.Fatalf("%s: flattened paged column differs from flat delta column\n got %+v\nwant %+v", tag, got, flat)
					}
					// Delta drain or scratch fallback, the emitted change
					// list is what an all-slots comparison would find.
					checkChanges(t, tag, prevPaged, paged, ps.Changes, ps.Changed)
					prevFlat, prevPaged = flat, paged
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
		if int(s.NhOff+s.NhLen) > len(p.Pool) {
			t.Fatalf("node %d: span [%d,%d) escapes its page pool (len %d)", u, s.NhOff, s.NhOff+s.NhLen, len(p.Pool))
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
	if len(ps.DirtyPages) != 1 || ps.DirtyPages[0] != 1 {
		t.Fatalf("dirty pages = %v, want [1]", ps.DirtyPages)
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

// TestDeltaColumnAllocs pins the flat delta rebuild's allocation count:
// the epoch-stamped redo bitmap replaced the per-call map, so a warm
// rebuild allocates only the column header, slot arena and pool (plus
// solver slice growth) — a handful of objects regardless of node count
// or frontier shape.
func TestDeltaColumnAllocs(t *testing.T) {
	a := alg(t, "lex(delay(8,2), hops(8))")
	eng, err := exec.Compile(a)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Random(rand.New(rand.NewSource(11)), 1024, 0.008, graph.UniformLabels(a.F.Size()))
	ws := solve.NewWorkspace()
	org := originFor(a)
	ai := 7
	disabledDown := make([]bool, len(g.Arcs))
	disabledDown[ai] = true
	disabledUp := make([]bool, len(g.Arcs))
	viewDown := g.WithArcToggled(ai, disabledDown)
	viewUp := g
	togDown := []solve.ArcToggle{{Arc: ai, Down: true}}
	togUp := []solve.ArcToggle{{Arc: ai, Down: false}}

	prev, err := BuildDestColumn(eng, g, 0, org, ws)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the workspace and verify the delta path actually engages.
	down, st, err := DeltaDestColumn(eng, viewDown, disabledDown, 0, org, ws, prev, togDown)
	if err != nil || !st.UsedDelta {
		t.Fatalf("down toggle: err=%v usedDelta=%v", err, st.UsedDelta)
	}
	up, st, err := DeltaDestColumn(eng, viewUp, disabledUp, 0, org, ws, down, togUp)
	if err != nil || !st.UsedDelta {
		t.Fatalf("up toggle: err=%v usedDelta=%v", err, st.UsedDelta)
	}
	prev = up

	allocs := testing.AllocsPerRun(20, func() {
		d, _, err := DeltaDestColumn(eng, viewDown, disabledDown, 0, org, ws, prev, togDown)
		if err != nil {
			t.Fatal(err)
		}
		u, _, err := DeltaDestColumn(eng, viewUp, disabledUp, 0, org, ws, d, togUp)
		if err != nil {
			t.Fatal(err)
		}
		prev = u
	})
	if allocs > 10 {
		t.Fatalf("flat delta rebuild pair allocates %.0f objects per run, want ≤ 10", allocs)
	}
}

// TestDeltaPagedAllocs pins the paged delta rebuild: beyond the flat
// guard's bound it must allocate only the column header, the page
// table copy, the dirty-page set, the one presized change list and the
// cloned pages themselves — still a handful of objects at 1024 nodes,
// and (unlike the flat path) O(frontier) bytes.
func TestDeltaPagedAllocs(t *testing.T) {
	a := alg(t, "lex(delay(8,2), hops(8))")
	eng, err := exec.Compile(a)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Random(rand.New(rand.NewSource(11)), 1024, 0.008, graph.UniformLabels(a.F.Size()))
	ws := solve.NewWorkspace()
	org := originFor(a)
	ai := 7
	disabledDown := make([]bool, len(g.Arcs))
	disabledDown[ai] = true
	disabledUp := make([]bool, len(g.Arcs))
	viewDown := g.WithArcToggled(ai, disabledDown)
	viewUp := g
	togDown := []solve.ArcToggle{{Arc: ai, Down: true}}
	togUp := []solve.ArcToggle{{Arc: ai, Down: false}}

	prev, err := BuildDestPaged(eng, g, 0, org, ws)
	if err != nil {
		t.Fatal(err)
	}
	down, st, ps, err := DeltaDestPaged(eng, viewDown, disabledDown, 0, org, ws, prev, togDown)
	if err != nil || !st.UsedDelta {
		t.Fatalf("down toggle: err=%v usedDelta=%v", err, st.UsedDelta)
	}
	if ps.Shared == 0 {
		t.Fatal("down toggle shared no pages")
	}
	up, st, _, err := DeltaDestPaged(eng, viewUp, disabledUp, 0, org, ws, down, togUp)
	if err != nil || !st.UsedDelta {
		t.Fatalf("up toggle: err=%v usedDelta=%v", err, st.UsedDelta)
	}
	prev = up

	var maxCloned int
	allocs := testing.AllocsPerRun(20, func() {
		d, _, psD, err := DeltaDestPaged(eng, viewDown, disabledDown, 0, org, ws, prev, togDown)
		if err != nil {
			t.Fatal(err)
		}
		u, _, psU, err := DeltaDestPaged(eng, viewUp, disabledUp, 0, org, ws, d, togUp)
		if err != nil {
			t.Fatal(err)
		}
		if psD.Cloned > maxCloned {
			maxCloned = psD.Cloned
		}
		if psU.Cloned > maxCloned {
			maxCloned = psU.Cloned
		}
		prev = u
	})
	pages := numPages(g.N)
	if maxCloned >= pages/2 {
		t.Fatalf("steady-state single-arc delta cloned %d of %d pages", maxCloned, pages)
	}
	// Header + page-table copy + dirty set + change list + (pool per
	// cloned page), twice per run. The bound leaves room for a scattered frontier but
	// catches any return to O(N) slot copies.
	if limit := float64(8 + 4*maxCloned); allocs > limit {
		t.Fatalf("paged delta rebuild pair allocates %.0f objects per run (max %d cloned pages), want ≤ %.0f", allocs, maxCloned, limit)
	}
}
