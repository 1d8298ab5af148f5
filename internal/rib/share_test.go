package rib

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/solve"
)

// pageRoutesEqual reports whether page pi carries the same routes in two
// generations of an n-node column: routedness, weight index and ECMP
// span of every slot, read through the page surface alone.
func pageRoutesEqual(prev, next *ColumnPage, pi, n int) bool {
	for i := 0; i < PageLen(pi, n); i++ {
		ps, ns := prev.Slots[i], next.Slots[i]
		if ps.Routed != ns.Routed || ps.W != ns.W || !slices.Equal(prev.hops(i), next.hops(i)) {
			return false
		}
	}
	return true
}

// ecmpOnlyBatch fails one non-primary equal-cost arc of a node whose
// ECMP set in col holds two or more next hops, applying it to disabled:
// the node keeps its weight and primary, and only its span shrinks.
func ecmpOnlyBatch(r *rand.Rand, g *graph.Graph, col *PagedColumn, disabled []bool) ([]int, []solve.ArcToggle) {
	start := r.Intn(g.N)
	for k := 0; k < g.N; k++ {
		u := (start + k) % g.N
		nh := col.NextHops(u)
		if len(nh) < 2 {
			continue
		}
		alt := nh[1+r.Intn(len(nh)-1)]
		for _, ai := range g.Out(u) {
			if g.Arcs[ai].To == int(alt) && !disabled[ai] {
				disabled[ai] = true
				return []int{int(ai)}, []solve.ArcToggle{{Arc: int(ai), Down: true}}
			}
		}
	}
	return nil, nil
}

// TestDeltaClonesOnlyChangedPages is the leader's counterpart of the
// follower's TestApplyDeltaSharesUntouchedPages: a delta rebuild clones
// exactly the pages whose routes change. Over compiled and tiered
// engines, scale-free graphs with hubs and a partial last page, sparse,
// log and dense warm starts, and fail, restore, mixed and ECMP-only
// batches, every delta-path column must share page pi with prev by
// pointer if and only if every slot and span on it is equal; share the
// page table itself when nothing changed; flatten to BuildDestColumn;
// report Changes/Changed as an all-slots comparison finds them; and
// hand out each patch's NextHop as a view of the new page pool.
func TestDeltaClonesOnlyChangedPages(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	warmRuns := map[string]int{}
	var ecmpOnly, redoShared, tableShared int
	for _, c := range []struct {
		expr string
		mode exec.Mode
	}{
		{"lex(delay(6,3),hops(4))", exec.ModeCompiled},
		{"lex(delay(6,3),hops(4))", exec.ModeTiered},
		{"scoped(bw(4),delay(8,4))", exec.ModeCompiled},
	} {
		a, err := core.InferString(c.expr)
		if err != nil {
			t.Fatal(err)
		}
		org := a.OT.DefaultOrigin()
		eng, err := exec.New(a.OT, c.mode, org)
		if err != nil {
			t.Fatal(err)
		}
		pick := graph.UniformLabels(a.OT.F.Size())
		for gi, g := range []*graph.Graph{graph.ScaleFree(r, 200, 2, pick), graph.ScaleFree(r, 333, 3, pick)} {
			for _, dest := range []int{0, g.N / 2, g.N - 1} {
				ws := solve.NewWorkspace()
				disabled := make([]bool, len(g.Arcs))
				view := g
				col, err := BuildDestPaged(eng, view, dest, org, ws)
				if err != nil {
					t.Fatal(err)
				}
				for step := 0; step < 48; step++ {
					tag := fmt.Sprintf("%s/%s graph %d dest %d step %d", c.expr, c.mode, gi, dest, step)
					// The warm start follows the previous column's
					// certificates: clean ⇒ sparse, logged ⇒ log, else
					// dense. Dropping them forces the other two.
					prev := col
					switch step % 3 {
					case 1:
						p := *col
						p.Clean = false
						prev = &p
					case 2:
						p := *col
						p.Clean, p.log = false, nil
						prev = &p
					}
					var arcs []int
					var toggles []solve.ArcToggle
					if step%4 == 3 {
						arcs, toggles = ecmpOnlyBatch(r, g, col, disabled)
					} else {
						arcs, toggles = stormBatch(r, disabled, step%4)
					}
					view = view.WithArcsToggled(arcs, disabled)
					next, st, ps, err := DeltaDestPaged(eng, view, disabled, dest, org, ws, prev, toggles)
					if err != nil {
						t.Fatal(err)
					}
					flat, err := BuildDestColumn(eng, view, dest, org, solve.NewWorkspace())
					if err != nil {
						t.Fatal(err)
					}
					if got := next.Flatten(); !reflect.DeepEqual(got, flat) {
						t.Fatalf("%s: flattened column differs from BuildDestColumn\n got %+v\nwant %+v", tag, got, flat)
					}
					checkChanges(t, tag, prev, next, ps.Changes, ps.Changed)
					for _, p := range ps.Changes {
						if nh := next.NextHops(p.Node); len(p.NextHop) != len(nh) || len(nh) > 0 && &p.NextHop[0] != &nh[0] {
							t.Fatalf("%s: patch at node %d holds next hops outside the new column's page pool", tag, p.Node)
						}
					}
					col = next
					if !st.UsedDelta {
						continue
					}
					switch {
					case prev.Clean:
						warmRuns["sparse"]++
					case prev.log != nil:
						warmRuns["log"]++
					default:
						warmRuns["dense"]++
					}
					cloned := 0
					for pi, np := range next.Pages {
						op := prev.Pages[pi]
						same := pageRoutesEqual(op, np, pi, g.N)
						if (np == op) != same {
							t.Fatalf("%s: page %d shared=%v but routes equal=%v", tag, pi, np == op, same)
						}
						if np != op {
							cloned++
						}
					}
					if ps.Cloned != cloned || ps.Shared != len(next.Pages)-cloned {
						t.Fatalf("%s: PageStats cloned %d shared %d, the table shows %d cloned of %d", tag, ps.Cloned, ps.Shared, cloned, len(next.Pages))
					}
					if cloned == 0 {
						if &next.Pages[0] != &prev.Pages[0] {
							t.Fatalf("%s: nothing changed, yet the page table was copied", tag)
						}
						tableShared++
					}
					redo := map[int]bool{}
					for _, u := range st.Touched {
						redo[u>>PageShift] = true
					}
					for _, tg := range toggles {
						if x := g.Arcs[tg.Arc].From; x != dest {
							redo[x>>PageShift] = true
						}
					}
					for pi := range redo {
						if next.Pages[pi] == prev.Pages[pi] {
							redoShared++
						}
					}
					if ps.Changed > 0 && !slices.ContainsFunc(ps.Changes, func(p SlotPatch) bool {
						w, routed := prev.Route(p.Node)
						return !routed || !p.Routed || p.W != w || len(p.NextHop) == 0 || p.NextHop[0] != prev.NextHops(p.Node)[0]
					}) {
						ecmpOnly++
					}
				}
			}
		}
	}
	for _, kind := range []string{"sparse", "log", "dense"} {
		if warmRuns[kind] == 0 {
			t.Fatalf("no delta rebuild took the %s warm start (runs: %v)", kind, warmRuns)
		}
	}
	if ecmpOnly == 0 || redoShared == 0 || tableShared == 0 {
		t.Fatalf("coverage: %d ECMP-only rebuilds, %d redo pages kept shared, %d tables shared", ecmpOnly, redoShared, tableShared)
	}
	t.Logf("warm starts %v; %d ECMP-only rebuilds, %d redo pages kept shared, %d tables shared", warmRuns, ecmpOnly, redoShared, tableShared)
}
