package rib

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/solve"
	"metarouting/internal/value"
)

// BuildDestEngine is the value-level oracle for every column builder:
// the boxed-value sweep (Workspace.BellmanFord, no interning, no kernel,
// no pages) and one freshly allocated *Entry per routed node, its ECMP
// set found by re-applying each out-arc to the neighbour's value. It
// shares no code with the index-form builders past the engine itself.
func BuildDestEngine(eng exec.Algebra, g *graph.Graph, dest int, origin value.V, ws *solve.Workspace) ([]*Entry, bool, error) {
	if dest < 0 || dest >= g.N {
		return nil, false, fmt.Errorf("rib: destination %d out of range", dest)
	}
	if ws == nil {
		ws = solve.NewWorkspace()
	}
	res := ws.BellmanFord(eng, g, dest, origin, 0)
	entries := make([]*Entry, g.N)
	for u := range entries {
		entries[u] = entryFromResult(eng, g, res, u)
	}
	return entries, res.Converged, nil
}

// entryFromResult builds node u's entry toward res.Dest (nil when
// unrouted): the selected weight plus the ECMP set of every neighbour
// offering an order-equivalent best weight, primary first.
func entryFromResult(eng exec.Algebra, g *graph.Graph, res *solve.Result, u int) *Entry {
	if !res.Routed[u] {
		return nil
	}
	e := &Entry{Weight: res.Weights[u]}
	if u == res.Dest {
		return e
	}
	e.NextHops = append(e.NextHops, res.NextHop[u])
	best := exec.MustIntern(eng, res.Weights[u])
	for _, h := range g.OutHops(u) {
		v := int(h.Node)
		if v == res.NextHop[u] || !res.Routed[v] {
			continue
		}
		cand := eng.Apply(int(h.Label), exec.MustIntern(eng, res.Weights[v]))
		if eng.Equiv(cand, best) {
			e.NextHops = append(e.NextHops, v)
		}
	}
	return e
}

// oracleAppendNextHopSet is the arc-index ECMP scan the packed adjacency
// rows replaced (row → arc index → graph.Arc), kept as the oracle for
// appendNextHopSet.
func oracleAppendNextHopSet(eng exec.Algebra, g *graph.Graph, routed []bool, w []int32, nextHop []int, u int, pool []int32) []int32 {
	pool = append(pool, int32(nextHop[u]))
	best := w[u]
	for _, ai := range g.Out(u) {
		v := g.Arcs[ai].To
		if v == nextHop[u] || !routed[v] {
			continue
		}
		if eng.Equiv(eng.Apply(g.Arcs[ai].Label, w[v]), best) {
			pool = append(pool, int32(v))
		}
	}
	return pool
}

// oraclePages lays scratch solver state out in pages through the oracle
// scan.
func oraclePages(eng exec.Algebra, g *graph.Graph, raw solve.Raw, dest int) []*ColumnPage {
	pages := make([]*ColumnPage, numPages(g.N))
	for pi := range pages {
		np := &ColumnPage{Pool: []int32{}}
		for i := 0; i < PageLen(pi, g.N); i++ {
			u := pi<<PageShift + i
			if !raw.Routed[u] {
				continue
			}
			s := EntrySlot{W: raw.W[u], Routed: true, NhOff: int32(len(np.Pool))}
			if u != dest {
				np.Pool = oracleAppendNextHopSet(eng, g, raw.Routed, raw.W, raw.NextHop, u, np.Pool)
			}
			s.NhLen = slotLen(int32(len(np.Pool)) - s.NhOff)
			np.Slots[i] = s
			np.Live++
		}
		pages[pi] = np
	}
	return pages
}

func samePages(t *testing.T, tag string, got, want []*ColumnPage) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pages, want %d", tag, len(got), len(want))
	}
	for pi := range want {
		if !reflect.DeepEqual(got[pi], want[pi]) {
			t.Fatalf("%s: page %d differs\n got %+v\nwant %+v", tag, pi, got[pi], want[pi])
		}
	}
}

// TestPagedMatchesArcIndexOracle: over GNP/ring/grid/scale-free graphs ×
// {compiled, tiered and dynamic lex(delay(6,3),hops(4)) — both ceilings
// saturate, so ECMP sets are wide — and the scoped policy product whose
// columns are converged but not clean} × a random mask followed by a
// 30-step toggle chain of overlay views: BuildDestPaged equals, page for
// page, the oracle scan over the same solver state, and DeltaDestPaged
// equals a scratch build on the same view on its sparse path, its dense
// path and every fallback (unusable previous column, frontier cutover).
func TestPagedMatchesArcIndexOracle(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	var sparse, dense, cutover, unusable int
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
		org := a.OT.DefaultOrigin()
		eng, err := exec.New(a.OT, c.mode, org)
		if err != nil {
			t.Fatal(err)
		}
		pick := graph.UniformLabels(a.OT.F.Size())
		for gi, g := range []*graph.Graph{
			graph.Random(r, 90, 0.04, pick),
			graph.Ring(r, 70, pick),
			graph.Grid(r, 9, 9, pick),
			graph.ScaleFree(r, 150, 2, pick),
		} {
			ws, ows := solve.NewWorkspace(), solve.NewWorkspace()
			disabled := make([]bool, len(g.Arcs))
			if gi%2 == 1 {
				for i := range disabled {
					disabled[i] = r.Intn(8) == 0
				}
			}
			view := g.MaskArcs(disabled)
			dest := r.Intn(g.N)
			prev, err := BuildDestPaged(eng, view, dest, org, ws)
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 30; step++ {
				tag := fmt.Sprintf("%s/%s graph %d step %d", c.expr, c.mode, gi, step)
				ais := make([]int, 1+r.Intn(4))
				for i := range ais {
					ais[i] = r.Intn(len(g.Arcs))
				}
				var toggles []solve.ArcToggle
				for i, ai := range ais {
					if i > 0 && ai == ais[0] {
						continue // a repeat would net out; keep the toggle list exact
					}
					disabled[ai] = !disabled[ai]
					toggles = append(toggles, solve.ArcToggle{Arc: ai, Down: disabled[ai]})
				}
				var batch []int
				for _, tg := range toggles {
					batch = append(batch, tg.Arc)
				}
				view = view.WithArcsToggled(batch, disabled)

				scratch, err := BuildDestPaged(eng, view, dest, org, ws)
				if err != nil {
					t.Fatal(err)
				}
				raw := ows.BellmanFordRaw(eng, view, dest, org, 0)
				if scratch.Converged != raw.Converged || scratch.Clean != (raw.Converged && ows.VerifyForwardTree(eng, raw)) {
					t.Fatalf("%s: scratch flags differ from the solver's verdict", tag)
				}
				samePages(t, tag+" scratch", scratch.Pages, oraclePages(eng, view, raw, dest))

				warm := prev
				switch step % 10 {
				case 3:
					warm = nil
				case 7:
					cp := *prev
					cp.Converged = false
					warm = &cp
				}
				delta, st, _, err := DeltaDestPaged(eng, view, disabled, dest, org, ws, warm, toggles)
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case st.UsedDelta && warm.Clean:
					sparse++
				case st.UsedDelta:
					dense++
				case warm != prev:
					unusable++
				case st.Frontier > 0:
					cutover++
				}
				if delta.Converged != scratch.Converged || delta.Clean != scratch.Clean ||
					delta.Bytes() != scratch.Bytes() || delta.Live() != scratch.Live() {
					t.Fatalf("%s: delta flags/footprint (%v %v %d %d) differ from scratch (%v %v %d %d)", tag,
						delta.Converged, delta.Clean, delta.Bytes(), delta.Live(),
						scratch.Converged, scratch.Clean, scratch.Bytes(), scratch.Live())
				}
				samePages(t, tag+" delta", delta.Pages, scratch.Pages)
				prev = delta
			}
		}
	}
	if sparse == 0 || dense == 0 || cutover == 0 || unusable == 0 {
		t.Fatalf("a delta path went unexercised: sparse %d, dense %d, frontier cutover %d, unusable prev %d", sparse, dense, cutover, unusable)
	}
	t.Logf("delta paths: sparse %d, dense %d, frontier cutover %d, unusable prev %d", sparse, dense, cutover, unusable)
}
