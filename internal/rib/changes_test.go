package rib

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/solve"
	"metarouting/internal/value"
)

// Tests for the change list a paged rebuild emits (PageStats.Changes /
// Changed, DiffPaged). The oracle is the comparison the serve layer used
// to run after the fact: every slot of the previous and the new column
// through the column's read surface.

// scanChanges is the all-slots oracle: the changed slots of next against
// prev, ascending, next-hop sets copied (nil when empty).
func scanChanges(prev, next *PagedColumn) []SlotPatch {
	var out []SlotPatch
	for u := 0; u < next.N; u++ {
		pw, pr := prev.Route(u)
		nw, nr := next.Route(u)
		if pr == nr && (!nr || pw == nw && slices.Equal(prev.NextHops(u), next.NextHops(u))) {
			continue
		}
		ch := SlotPatch{Node: u, Routed: nr}
		if nr {
			ch.W = nw
			if nh := next.NextHops(u); len(nh) > 0 {
				ch.NextHop = append([]int32(nil), nh...)
			}
		}
		out = append(out, ch)
	}
	return out
}

// checkChanges holds a rebuild's emitted list against the oracle: exact
// count, the n/2+1 materialisation cap, and patch-for-patch equality
// (including nil-vs-empty next-hop sets) on everything materialised.
func checkChanges(t *testing.T, tag string, prev, next *PagedColumn, changes []SlotPatch, changed int) {
	t.Helper()
	want := scanChanges(prev, next)
	if changed != len(want) {
		t.Fatalf("%s: Changed = %d, all-slots scan finds %d", tag, changed, len(want))
	}
	if limit := next.N/2 + 1; len(want) > limit {
		want = want[:limit]
	}
	if len(changes) != len(want) {
		t.Fatalf("%s: %d patches materialised, want %d", tag, len(changes), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(changes[i], want[i]) {
			t.Fatalf("%s: patch %d = %+v, want %+v", tag, i, changes[i], want[i])
		}
	}
}

// arcIndex finds the from→to arc.
func arcIndex(t testing.TB, g *graph.Graph, from, to int) int {
	t.Helper()
	for _, ai := range g.Out(from) {
		if g.Arcs[ai].To == to {
			return int(ai)
		}
	}
	t.Fatalf("arc %d→%d not found", from, to)
	return -1
}

// TestChangeListECMPOnlyAtToggleTail: failing a node's non-primary
// equal-cost arc moves neither its weight nor its primary next hop — the
// solver touches nothing — yet its ECMP set shrinks. The change is found
// only because toggle tails are in the redo set; node 64 sits on the
// partial last page of the 70-node column.
func TestChangeListECMPOnlyAtToggleTail(t *testing.T) {
	a := alg(t, "delay(8,2)")
	g := boundaryGraph(t)
	for backend, eng := range engines(t, a) {
		ws := solve.NewWorkspace()
		col, err := BuildDestPaged(eng, g, 0, originFor(a), ws)
		if err != nil {
			t.Fatal(err)
		}
		if nh := col.NextHops(64); len(nh) != 2 || nh[0] != 1 {
			t.Fatalf("%s: node 64 ECMP %v, want primary hub 1 of two", backend, nh)
		}
		ai := arcIndex(t, g, 64, 2)
		disabled := make([]bool, len(g.Arcs))
		disabled[ai] = true
		toggles := []solve.ArcToggle{{Arc: ai, Down: true}}
		next, st, ps, err := DeltaDestPaged(eng, g.WithArcToggled(ai, disabled), disabled, 0, originFor(a), ws, col, toggles)
		if err != nil || !st.UsedDelta {
			t.Fatalf("%s: err=%v usedDelta=%v", backend, err, st.UsedDelta)
		}
		if len(st.Touched) != 0 {
			t.Fatalf("%s: solver touched %v, the fixture wants a weight-neutral toggle", backend, st.Touched)
		}
		w0, _ := col.Route(64)
		want := []SlotPatch{{Node: 64, Routed: true, W: w0, NextHop: []int32{1}}}
		if !reflect.DeepEqual(ps.Changes, want) || ps.Changed != 1 {
			t.Fatalf("%s: Changes = %+v (Changed %d), want %+v", backend, ps.Changes, ps.Changed, want)
		}
		checkChanges(t, backend, col, next, ps.Changes, ps.Changed)
		// The patch aliases the new column's page pool rather than copying.
		if &ps.Changes[0].NextHop[0] != &next.NextHops(64)[0] {
			t.Fatalf("%s: patch next-hop set is a copy, want an alias of the new page pool", backend)
		}
	}
}

// fanGraph is dest 0, a relay 1 with a direct arc to 0 and a three-hop
// detour 1→2→3→0, and every other node hanging off the relay: whatever
// happens to the relay's weight happens to n-4 leaves at once.
func fanGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	arcs := []graph.Arc{{From: 1, To: 0}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 0}}
	for u := 4; u < n; u++ {
		arcs = append(arcs, graph.Arc{From: u, To: 1})
	}
	g, err := graph.New(n, arcs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestChangeListHalfColumnCap: a column that changes in more than half
// its slots keeps the exact count but materialises only n/2+1 patches —
// on the delta path (restoring the relay's direct arc seeds a one-node
// frontier that re-weights every leaf) and on the frontier-cutover
// scratch fallback (failing it invalidates the relay's whole subtree).
func TestChangeListHalfColumnCap(t *testing.T) {
	a := alg(t, "delay(16,3)")
	const n = 150 // three pages, the last one partial
	g := fanGraph(t, n)
	direct := arcIndex(t, g, 1, 0)
	for backend, eng := range engines(t, a) {
		ws := solve.NewWorkspace()
		down := make([]bool, len(g.Arcs))
		down[direct] = true
		up := make([]bool, len(g.Arcs))
		detour, err := BuildDestPaged(eng, g.MaskArcs(down), 0, originFor(a), ws)
		if err != nil {
			t.Fatal(err)
		}

		raised, st, ps, err := DeltaDestPaged(eng, g, up, 0, originFor(a), ws, detour,
			[]solve.ArcToggle{{Arc: direct, Down: false}})
		if err != nil || !st.UsedDelta || st.Frontier != 1 {
			t.Fatalf("%s raise: err=%v usedDelta=%v frontier=%d", backend, err, st.UsedDelta, st.Frontier)
		}
		if ps.Changed != n-3 || len(ps.Changes) != n/2+1 {
			t.Fatalf("%s raise: Changed %d with %d patches, want %d with %d", backend, ps.Changed, len(ps.Changes), n-3, n/2+1)
		}
		checkChanges(t, backend+" raise", detour, raised, ps.Changes, ps.Changed)

		failed, st, ps, err := DeltaDestPaged(eng, g.MaskArcs(down), down, 0, originFor(a), ws, raised,
			[]solve.ArcToggle{{Arc: direct, Down: true}})
		if err != nil || st.UsedDelta || 2*st.Frontier < n {
			t.Fatalf("%s fail: err=%v usedDelta=%v frontier=%d, want the frontier cutover", backend, err, st.UsedDelta, st.Frontier)
		}
		if ps.Cloned != len(failed.Pages) || ps.Changed != n-3 || len(ps.Changes) != n/2+1 {
			t.Fatalf("%s fail: cloned %d, Changed %d with %d patches", backend, ps.Cloned, ps.Changed, len(ps.Changes))
		}
		checkChanges(t, backend+" fail", raised, failed, ps.Changes, ps.Changed)
		if !reflect.DeepEqual(failed.Flatten(), detour.Flatten()) {
			t.Fatalf("%s: fail after raise does not return to the detour column", backend)
		}
	}
}

// TestChangeListUnusablePrev covers the rebuilds that never reach the
// solver's warm start: an unconverged previous column is rebuilt with
// BuildDestPaged and diffed with DiffPaged; a column whose only
// difference is its Converged flag has no slot changes; and without a
// previous column of the same length there is nothing to diff.
func TestChangeListUnusablePrev(t *testing.T) {
	a := alg(t, "delay(16,3)")
	eng := exec.NewDynamic(a)
	const n = 150
	g := fanGraph(t, n)
	ws := solve.NewWorkspace()
	col, err := BuildDestPaged(eng, g, 0, originFor(a), ws)
	if err != nil {
		t.Fatal(err)
	}
	leaf := arcIndex(t, g, 100, 1)
	disabled := make([]bool, len(g.Arcs))
	disabled[leaf] = true
	view := g.WithArcToggled(leaf, disabled)
	toggles := []solve.ArcToggle{{Arc: leaf, Down: true}}

	unconverged := *col
	unconverged.Converged = false
	next, st, ps, err := DeltaDestPaged(eng, view, disabled, 0, originFor(a), ws, &unconverged, toggles)
	if err != nil || st.UsedDelta || ps.Cloned != len(next.Pages) {
		t.Fatalf("unconverged prev: err=%v usedDelta=%v cloned=%d", err, st.UsedDelta, ps.Cloned)
	}
	if want := []SlotPatch{{Node: 100}}; !reflect.DeepEqual(ps.Changes, want) || ps.Changed != 1 {
		t.Fatalf("unconverged prev: Changes = %+v (Changed %d), want %+v", ps.Changes, ps.Changed, want)
	}
	checkChanges(t, "unconverged prev", &unconverged, next, ps.Changes, ps.Changed)

	if changes, changed := DiffPaged(&unconverged, col); changes != nil || changed != 0 {
		t.Fatalf("Converged flip alone diffs to %+v (%d), want nothing", changes, changed)
	}

	short, err := BuildDestPaged(eng, fanGraph(t, n-1), 0, originFor(a), ws)
	if err != nil {
		t.Fatal(err)
	}
	for tag, prev := range map[string]*PagedColumn{"nil prev": nil, "shorter prev": short} {
		_, st, ps, err := DeltaDestPaged(eng, view, disabled, 0, originFor(a), ws, prev, toggles)
		if err != nil || st.UsedDelta || ps.Changes != nil || ps.Changed != 0 {
			t.Fatalf("%s: err=%v usedDelta=%v Changes=%+v Changed=%d", tag, err, st.UsedDelta, ps.Changes, ps.Changed)
		}
	}
}

// hubGraph is the scale-free worst case in miniature: dest 0, a hub 1
// with a primary uplink 1→0 and a backup 1→2→0, leaves hanging off the
// hub, and enough bystanders attached straight to the destination that
// the hub's subtree stays under the solver's N/2 frontier cutover.
func hubGraph(t testing.TB, leaves int) (g *graph.Graph, primary int) {
	t.Helper()
	n := 3 + leaves + leaves + 8
	arcs := []graph.Arc{{From: 1, To: 0}, {From: 1, To: 2}, {From: 2, To: 0}}
	for u := 3; u < 3+leaves; u++ {
		arcs = append(arcs, graph.Arc{From: u, To: 1})
	}
	for u := 3 + leaves; u < n; u++ {
		arcs = append(arcs, graph.Arc{From: u, To: 0})
	}
	g, err := graph.New(n, arcs)
	if err != nil {
		t.Fatal(err)
	}
	return g, 0
}

// hubFixture builds the hub topology's initial column on a compiled
// engine plus the two toggle steps (fail, restore) of the hub's primary
// uplink.
type hubFixture struct {
	eng    exec.Algebra
	g      *graph.Graph
	origin value.V
	col    *PagedColumn
	steps  [2]hubStep
}

type hubStep struct {
	view     *graph.Graph
	disabled []bool
	toggles  []solve.ArcToggle
}

func newHubFixture(t testing.TB, leaves int, ws *solve.Workspace) *hubFixture {
	t.Helper()
	a := alg(t, "lex(delay(32,3), hops(8))")
	eng, err := exec.Compile(a)
	if err != nil {
		t.Fatal(err)
	}
	g, primary := hubGraph(t, leaves)
	col, err := BuildDestPaged(eng, g, 0, originFor(a), ws)
	if err != nil {
		t.Fatal(err)
	}
	down := make([]bool, len(g.Arcs))
	down[primary] = true
	f := &hubFixture{eng: eng, g: g, origin: originFor(a), col: col}
	f.steps[0] = hubStep{g.WithArcToggled(primary, down), down, []solve.ArcToggle{{Arc: primary, Down: true}}}
	f.steps[1] = hubStep{g, make([]bool, len(g.Arcs)), []solve.ArcToggle{{Arc: primary, Down: false}}}
	return f
}

// TestDeltaHubFailure fails and restores the primary uplink of a hub
// with 20 000 leaves. Both rebuilds must stay on the delta path, touch
// the hub and every leaf, report them ascending and duplicate-free, and
// land bit-identical to a from-scratch build on the masked graph. (The
// touched set used to be insertion-sorted, which on this shape — the
// invalidation walk emits the leaves in descending order — is the
// quadratic worst case.)
func TestDeltaHubFailure(t *testing.T) {
	const leaves = 20000
	ws := solve.NewWorkspace()
	f := newHubFixture(t, leaves, ws)
	prev := f.col
	for i, step := range f.steps {
		tag := fmt.Sprintf("step %d", i)
		next, st, ps, err := DeltaDestPaged(f.eng, step.view, step.disabled, 0, f.origin, ws, prev, step.toggles)
		if err != nil || !st.UsedDelta {
			t.Fatalf("%s: err=%v usedDelta=%v frontier=%d", tag, err, st.UsedDelta, st.Frontier)
		}
		if len(st.Touched) != leaves+1 {
			t.Fatalf("%s: touched %d nodes, want the hub and its %d leaves", tag, len(st.Touched), leaves)
		}
		for j := 1; j < len(st.Touched); j++ {
			if st.Touched[j-1] >= st.Touched[j] {
				t.Fatalf("%s: Touched[%d..%d] = %d, %d: not strictly ascending", tag, j-1, j, st.Touched[j-1], st.Touched[j])
			}
		}
		scratch, err := BuildDestPaged(f.eng, f.g.MaskArcs(step.disabled), 0, f.origin, solve.NewWorkspace())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(next.Flatten(), scratch.Flatten()) {
			t.Fatalf("%s: delta column differs from a from-scratch build on the masked graph", tag)
		}
		checkChanges(t, tag, prev, next, ps.Changes, ps.Changed)
		if ps.Changed != leaves+1 {
			t.Fatalf("%s: %d slots changed, want %d", tag, ps.Changed, leaves+1)
		}
		prev = next
	}
}

// BenchmarkDeltaHubFailure times one fail + restore pair of the hub's
// primary uplink through DeltaDestPaged.
func BenchmarkDeltaHubFailure(b *testing.B) {
	ws := solve.NewWorkspace()
	f := newHubFixture(b, 20000, ws)
	prev := f.col
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, step := range f.steps {
			next, st, _, err := DeltaDestPaged(f.eng, step.view, step.disabled, 0, f.origin, ws, prev, step.toggles)
			if err != nil || !st.UsedDelta {
				b.Fatalf("err=%v usedDelta=%v", err, st.UsedDelta)
			}
			prev = next
		}
	}
}
