package rib

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/ost"
	"metarouting/internal/solve"
	"metarouting/internal/value"
)

// derivationCase is one algebra of the derivation-log differential.
// policy marks the named scoped(bw, delay) products whose rebuilds must
// mostly take the warm path.
type derivationCase struct {
	expr   string
	ot     *ost.OrderTransform
	origin value.V
	policy bool
}

// derivationCases returns the named policy products — two compiled M
// tables and the forwardable scoped(hops(0), delay(64,4)), whose infinite
// carrier runs on an engine without tables and must never log — and the
// M-licensed members of the random corpus.
func derivationCases(t *testing.T, r *rand.Rand) []derivationCase {
	t.Helper()
	var out []derivationCase
	for _, n := range []struct {
		expr   string
		policy bool
	}{{"scoped(bw(4), delay(64,4))", true}, {"scoped(bw(4), delay(8,4))", true}, {"scoped(hops(0), delay(64,4))", false}} {
		a, err := core.InferString(n.expr)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, derivationCase{n.expr, a.OT, a.OT.DefaultOrigin(), n.policy})
	}
	for tries := 0; len(out) < 7 && tries < 400; tries++ {
		src := randExpr(r, 2)
		a, err := core.InferString(src)
		if err != nil {
			t.Fatal(err)
		}
		if !a.OT.Finite() || a.OT.Carrier().Size() > 4000 {
			continue
		}
		eng, err := exec.Compile(a.OT)
		if err != nil {
			t.Fatal(err)
		}
		if tab := exec.Tables(eng); tab == nil || !tab.Monotone {
			continue
		}
		elems := a.OT.Carrier().Elems
		out = append(out, derivationCase{src, a.OT, elems[r.Intn(len(elems))], false})
	}
	return out
}

// scopedLabels returns label pickers drawing inter-region arcs from a
// scoped product's tag-1 functions and intra-region arcs from the rest,
// as graph.TwoLevel's regions intend.
func scopedLabels(ot *ost.OrderTransform) (intra, inter graph.LabelPicker) {
	nInter := 0
	for _, f := range ot.F.Fns {
		if strings.HasPrefix(f.Name, "(1,") {
			nInter++
		}
	}
	if nInter == 0 || nInter == ot.F.Size() {
		pick := graph.UniformLabels(ot.F.Size())
		return pick, pick
	}
	n := ot.F.Size()
	return func(r *rand.Rand, _, _ int) int { return nInter + r.Intn(n-nInter) },
		func(r *rand.Rand, _, _ int) int { return r.Intn(nInter) }
}

// derivationTopos draws GNP, ring, grid, scale-free and two-level region
// graphs of about n nodes.
func derivationTopos(r *rand.Rand, ot *ost.OrderTransform, n int) map[string]*graph.Graph {
	pick := graph.UniformLabels(ot.F.Size())
	intra, inter := scopedLabels(ot)
	return map[string]*graph.Graph{
		"gnp":        graph.Random(r, n, 3.0/float64(n), pick),
		"ring":       graph.Ring(r, n, pick),
		"grid":       graph.Grid(r, n/8, 8, pick),
		"scale-free": graph.ScaleFree(r, n, 2, pick),
		"two-level":  graph.TwoLevel(r, n/12, 12, 0.3, n/6, intra, inter).Graph,
	}
}

// stormBatch draws one batch of arc toggles, applying it to disabled:
// kind 0 fails 1–4 enabled arcs, kind 1 restores 1–4 disabled ones (or
// fails when none is down), kind 2 does one or two of each.
func stormBatch(r *rand.Rand, disabled []bool, kind int) ([]int, []solve.ArcToggle) {
	var up, down []int
	for ai, d := range disabled {
		if d {
			down = append(down, ai)
		} else {
			up = append(up, ai)
		}
	}
	if kind == 1 && len(down) == 0 {
		kind = 0
	}
	var fails, restores int
	switch kind {
	case 0:
		fails = 1 + r.Intn(4)
	case 1:
		restores = 1 + r.Intn(4)
	default:
		fails, restores = 1+r.Intn(2), 1+r.Intn(2)
	}
	var arcs []int
	pick := func(from []int, k int) {
		for i := 0; i < k && i < len(from); i++ {
			j := i + r.Intn(len(from)-i)
			from[i], from[j] = from[j], from[i]
			arcs = append(arcs, from[i])
		}
	}
	pick(up, fails)
	pick(down, restores)
	toggles := make([]solve.ArcToggle, len(arcs))
	for i, ai := range arcs {
		disabled[ai] = !disabled[ai]
		toggles[i] = solve.ArcToggle{Arc: ai, Down: disabled[ai]}
	}
	return arcs, toggles
}

// checkLog holds a column's derivation log to the invariant the next
// warm start relies on: replayed with implicit parents (the latest
// earlier entry at the arc's head, the origin at the destination), every
// entry has a parent, a node's weights strictly fall along the log, and
// each node's last entry carries its weight in the column — so exactly
// the routed nodes other than the destination have entries.
func checkLog(t *testing.T, tag string, eng exec.Algebra, g *graph.Graph, c *PagedColumn) {
	t.Helper()
	tab := exec.Tables(eng)
	last := make([]int32, c.N) // -1: no entry yet
	for u := range last {
		last[u] = -1
	}
	last[c.Dest], _ = c.Route(c.Dest)
	for i, ai := range c.log {
		a := g.Arcs[ai]
		if a.From == c.Dest {
			t.Fatalf("%s: log entry %d on arc %d leaves the destination", tag, i, ai)
		}
		pw := last[a.To]
		if pw < 0 {
			t.Fatalf("%s: log entry %d on arc %d→%d has no parent", tag, i, a.From, a.To)
		}
		w := int32(tab.Fn[a.Label*tab.N+int(pw)])
		if prev := last[a.From]; prev >= 0 && tab.Rank[w] >= tab.Rank[prev] {
			t.Fatalf("%s: log entry %d does not lower node %d's weight", tag, i, a.From)
		}
		last[a.From] = w
	}
	for u := 0; u < c.N; u++ {
		w, routed := c.Route(u)
		if u != c.Dest && (routed != (last[u] >= 0) || routed && w != last[u]) {
			t.Fatalf("%s: node %d routed %v at %d, last log entry at %d", tag, u, routed, w, last[u])
		}
	}
}

// TestDerivationDeltaMatchesScratch is the log warm start's differential.
// For the named policy products and the M-licensed members of the random
// corpus, on GNP, ring, grid, scale-free and two-level graphs, every
// destination's column is carried through a chain of 42 fail, restore and
// mixed batches by DeltaDestPaged, its log riding along; after each batch
// the column must equal BuildDestPaged on the same view — pages and pools,
// totals, Converged and Clean — its change list must be what an all-slots
// scan finds, and its log must satisfy checkLog. Columns on compiled M
// tables always carry a log and others never do, and the policy products
// must take the warm path on at least 90 % of their rebuilds.
func TestDerivationDeltaMatchesScratch(t *testing.T) {
	r := rand.New(rand.NewSource(131))
	var policy, policyWarm, logWarm, logged int
	for _, c := range derivationCases(t, r) {
		eng := exec.For(c.ot, c.origin)
		tab := exec.Tables(eng)
		wantLog := tab != nil && tab.Monotone
		if c.policy && !wantLog {
			t.Fatalf("%s: the policy product must compile to an M table", c.expr)
		}
		n := 24
		if c.policy {
			n = 48
		}
		topos := derivationTopos(r, c.ot, n)
		for _, shape := range []string{"gnp", "ring", "grid", "scale-free", "two-level"} {
			g := topos[shape]
			for dest := 0; dest < g.N; dest++ {
				ws, sws := solve.NewWorkspace(), solve.NewWorkspace()
				disabled := make([]bool, len(g.Arcs))
				view := g
				prev, err := BuildDestPaged(eng, view, dest, c.origin, ws)
				if err != nil {
					t.Fatal(err)
				}
				for step := 0; step < 42; step++ {
					tag := fmt.Sprintf("%s %s dest %d step %d", c.expr, shape, dest, step)
					arcs, toggles := stormBatch(r, disabled, step%3)
					view = view.WithArcsToggled(arcs, disabled)
					got, st, ps, err := DeltaDestPaged(eng, view, disabled, dest, c.origin, ws, prev, toggles)
					if err != nil {
						t.Fatal(err)
					}
					want, err := BuildDestPaged(eng, view, dest, c.origin, sws)
					if err != nil {
						t.Fatal(err)
					}
					if got.Converged != want.Converged || got.Clean != want.Clean {
						t.Fatalf("%s (delta %v): converged/clean %v/%v, scratch %v/%v", tag, st.UsedDelta,
							got.Converged, got.Clean, want.Converged, want.Clean)
					}
					for pi, p := range want.Pages {
						if q := got.Pages[pi]; q.Slots != p.Slots || q.Live != p.Live || !slices.Equal(q.Pool, p.Pool) {
							t.Fatalf("%s: page %d differs\n got %+v\nwant %+v", tag, pi, q, p)
						}
					}
					if got.Bytes() != want.Bytes() || got.Live() != want.Live() {
						t.Fatalf("%s: totals %d B/%d live, scratch %d B/%d live", tag, got.Bytes(), got.Live(), want.Bytes(), want.Live())
					}
					checkChanges(t, tag, prev, got, ps.Changes, ps.Changed)
					// A scratch build and the log warm start write a log;
					// the sparse and dense warm starts do not.
					if (got.log != nil) != (wantLog && (!st.UsedDelta || !prev.Clean && prev.log != nil)) {
						t.Fatalf("%s: log of %d entries (delta %v, previous clean %v, M table %v)", tag, len(got.log), st.UsedDelta, prev.Clean, wantLog)
					}
					if got.log != nil {
						logged++
						checkLog(t, tag, eng, view, got)
					}
					if st.UsedDelta && prev.log != nil && !prev.Clean {
						logWarm++
					}
					if c.policy {
						policy++
						if st.UsedDelta {
							policyWarm++
						}
					}
					prev = got
				}
			}
		}
	}
	if policy == 0 || 10*policyWarm < 9*policy || logWarm < policy/2 {
		t.Fatalf("the policy products took the warm path on %d of %d rebuilds; the log warm start ran %d times", policyWarm, policy, logWarm)
	}
	t.Logf("policy rebuilds: %d of %d warm; log warm starts: %d; logged columns checked: %d", policyWarm, policy, logWarm, logged)
}

// policyStorms is the storm-policy-2k shape: the policy product compiled,
// a 2 000-node scale-free graph with uniform labels, destinations spread
// evenly, and 4-arc storms partitioning a random permutation of the arcs.
// views[2k] fails storm k, views[2k+1] restores it.
type policyStorms struct {
	eng    exec.Algebra
	org    value.V
	g      *graph.Graph
	dests  []int
	views  []*graph.Graph
	toggle [][]solve.ArcToggle
	mask   [][]bool
}

func newPolicyStorms(tb testing.TB, dests, storms int) *policyStorms {
	tb.Helper()
	a, err := core.InferString("scoped(bw(4), delay(64,4))")
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := exec.Compile(a.OT)
	if err != nil {
		tb.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	ps := &policyStorms{eng: eng, org: a.OT.DefaultOrigin(),
		g: graph.ScaleFree(r, 2000, 2, graph.UniformLabels(a.OT.F.Size()))}
	for i := 0; i < dests; i++ {
		ps.dests = append(ps.dests, i*ps.g.N/dests)
	}
	perm := r.Perm(len(ps.g.Arcs))
	disabled := make([]bool, len(ps.g.Arcs))
	for k := 0; k < storms; k++ {
		arcs := perm[4*k : 4*k+4]
		for _, down := range []bool{true, false} {
			tg := make([]solve.ArcToggle, len(arcs))
			for i, ai := range arcs {
				disabled[ai] = down
				tg[i] = solve.ArcToggle{Arc: ai, Down: down}
			}
			ps.views = append(ps.views, ps.g.WithArcsToggled(arcs, disabled))
			ps.toggle = append(ps.toggle, tg)
			ps.mask = append(ps.mask, append([]bool(nil), disabled...))
		}
	}
	return ps
}

// TestDerivationDeltaAllocs: on the storm-policy-2k shape, with a warm
// workspace, a logged delta allocates the column header, the page-table
// copy, the dirty-page and change lists, the touched list, the warm-start
// closure, the cloned pages and the exactly sized log — the replay's and
// the compaction's scratch live in the workspace, so nothing else is
// allocated and nothing is sized by N.
func TestDerivationDeltaAllocs(t *testing.T) {
	ps := newPolicyStorms(t, 1, 8)
	ws := solve.NewWorkspace()
	dest := ps.dests[0]
	col, err := BuildDestPaged(ps.eng, ps.g, dest, ps.org, ws)
	if err != nil {
		t.Fatal(err)
	}
	if col.log == nil || col.Clean {
		t.Fatalf("the policy column must be logged and unclean (log %d entries, clean %v)", len(col.log), col.Clean)
	}
	// One pass over the storms grows the workspace; the measured passes
	// then replay the same storms from the same column.
	run := func() (cloned, deltas int) {
		prev := col
		for i, view := range ps.views {
			next, st, pst, err := DeltaDestPaged(ps.eng, view, ps.mask[i], dest, ps.org, ws, prev, ps.toggle[i])
			if err != nil {
				t.Fatal(err)
			}
			if st.UsedDelta {
				deltas++
			}
			if len(next.log) != cap(next.log) {
				t.Fatalf("storm view %d: log of %d entries in %d slots", i, len(next.log), cap(next.log))
			}
			cloned += pst.Cloned
			prev = next
		}
		return cloned, deltas
	}
	cloned, deltas := run()
	if deltas < len(ps.views)-1 {
		t.Fatalf("only %d of %d storm rebuilds took the log warm start", deltas, len(ps.views))
	}
	allocs := testing.AllocsPerRun(5, func() { run() })
	// Per delta: header, page table, dirty list, change list, touched
	// list, closure and log; per cloned page, the page and its pool.
	if limit := float64(7*len(ps.views) + 2*cloned); allocs > limit {
		t.Fatalf("%d logged deltas cloning %d pages allocate %.0f objects, want ≤ %.0f", len(ps.views), cloned, allocs, limit)
	}
	t.Logf("%d logged deltas: %.0f objects, %d pages cloned of %d per column", len(ps.views), allocs, cloned, len(col.Pages))
}

// BenchmarkDerivationDelta is one destination's rebuild on the
// storm-policy-2k shape, over 4-arc fail/restore pairs across 16
// destinations: the log warm start ("logged", DeltaDestPaged carrying
// each column's log) against the scratch build every rebuild fell back
// to before it ("scratch", BuildDestPaged on the same view).
func BenchmarkDerivationDelta(b *testing.B) {
	ps := newPolicyStorms(b, 16, 64)
	for _, mode := range []string{"logged", "scratch"} {
		b.Run(mode, func(b *testing.B) {
			ws := solve.NewWorkspace()
			cols := make([]*PagedColumn, len(ps.dests))
			for i, d := range ps.dests {
				var err error
				if cols[i], err = BuildDestPaged(ps.eng, ps.g, d, ps.org, ws); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				di := i % len(ps.dests)
				vi := i / len(ps.dests) % len(ps.views)
				var err error
				if mode == "logged" {
					cols[di], _, _, err = DeltaDestPaged(ps.eng, ps.views[vi], ps.mask[vi], ps.dests[di], ps.org, ws, cols[di], ps.toggle[vi])
				} else {
					cols[di], err = BuildDestPaged(ps.eng, ps.views[vi], ps.dests[di], ps.org, ws)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
