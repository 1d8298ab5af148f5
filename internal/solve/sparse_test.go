package solve

import (
	"math/rand"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
)

// hopCounter is a warm start that counts its next-hop reads.
type hopCounter struct {
	WarmStart
	hops int
}

func (c *hopCounter) NextHop(u int) int {
	c.hops++
	return c.WarmStart.NextHop(u)
}

// TestSparseNextHopLoads guards the weight-only overlay. On a 4 000-node
// scale-free graph, sparse deltas whose toggles sit at hubs — restored
// arcs, failed arcs that are not the hub's primary — plus a failed
// primary arc elsewhere that cuts a subtree load the out-rows of the
// hubs and of every popped node. The previous column's next hop may be
// read only at the cut tails, at the in-neighbours the subtree walk
// inspects and at the nodes the clean certificate's chain walk crosses,
// counted here from the scratch build on the new view. An overlay that
// loaded next hops with weights would read one per loaded node, which on
// most of these batches is over twice that bound.
func TestSparseNextHopLoads(t *testing.T) {
	a, err := core.InferString("lex(delay(32,3), hops(8))")
	if err != nil {
		t.Fatal(err)
	}
	origin := a.OT.DefaultOrigin()
	eng, err := exec.Compile(a.OT)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(34))
	g := graph.ScaleFree(r, 4000, 2, graph.UniformLabels(a.OT.F.Size()))
	rev := g.RevIn()
	ws, ref := NewWorkspace(), NewWorkspace()
	deltas, apart := 0, 0
	for trial := 0; trial < 40; trial++ {
		dest := 10 + r.Intn(g.N-10)
		// The previous column is built with two arcs of each hub down.
		disabled := make([]bool, len(g.Arcs))
		for hub := 0; hub < 3; hub++ {
			out := g.Out(hub)
			disabled[out[r.Intn(len(out))]] = true
			disabled[out[r.Intn(len(out))]] = true
		}
		prev := ownRaw(ws.ScratchRaw(eng, g.MaskArcs(disabled), dest, origin))
		if !ws.VerifyForwardTree(prev) {
			t.Fatalf("trial %d: the scratch column toward %d is not a clean tree", trial, dest)
		}
		var toggles []ArcToggle
		for ai, down := range disabled {
			if down {
				toggles = append(toggles, ArcToggle{Arc: ai})
			}
		}
		// Each hub fails an out-arc that is not its primary.
		for hub := 0; hub < 3; hub++ {
			out := g.Out(hub)
			if ai := int(out[r.Intn(len(out))]); !disabled[ai] && g.Arcs[ai].To != prev.NextHop[hub] {
				toggles = append(toggles, ArcToggle{Arc: ai, Down: true})
			}
		}
		// A cut: the primary arc of a late-joining, hence low-degree, node.
		if x := g.N/2 + r.Intn(g.N/2); x != dest && prev.Routed[x] {
			for _, ai := range g.Out(x) {
				if g.Arcs[ai].To == prev.NextHop[x] && !disabled[ai] {
					toggles = append(toggles, ArcToggle{Arc: int(ai), Down: true})
					break
				}
			}
		}
		for _, tg := range toggles {
			disabled[tg.Arc] = tg.Down
		}
		view := g.MaskArcs(disabled)
		warm := &hopCounter{WarmStart: rawWarm(prev)}
		_, st := ws.BellmanFordDeltaLog(eng, view, disabled, dest, origin, warm, true, nil, toggles, 0)
		if !st.UsedDelta {
			continue
		}
		deltas++
		loaded := 0
		for u := 0; u < g.N; u++ {
			if ws.loaded[u] == ws.loadEpoch {
				loaded++
			}
		}
		// Cut tails and the subtree walk's in-neighbours, from the previous
		// column's tree.
		bound := 0
		for _, tg := range toggles {
			x := g.Arcs[tg.Arc].From
			if !tg.Down || x == dest || !prev.Routed[x] {
				continue
			}
			bound++
			if prev.NextHop[x] != g.Arcs[tg.Arc].To {
				continue
			}
			stack := []int{x}
			for len(stack) > 0 {
				s := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, h := range rev.InHops(s) {
					if v := int(h.Node); v != dest {
						bound++
						if prev.Routed[v] && prev.NextHop[v] == s {
							stack = append(stack, v)
						}
					}
				}
			}
		}
		// The chain walk: every node on a touched routed node's chain in
		// the new column.
		want := ref.ScratchRaw(eng, view, dest, origin)
		walked := make([]bool, g.N)
		for _, u := range st.Touched {
			for ; want.Routed[u] && u != dest && !walked[u]; u = want.NextHop[u] {
				walked[u] = true
				bound++
			}
		}
		if warm.hops > bound {
			t.Fatalf("trial %d (dest %d): %d next-hop reads, bound %d (%d nodes loaded)", trial, dest, warm.hops, bound, loaded)
		}
		if loaded > 2*bound {
			apart++
		}
		got := ws.raw(dest, 0, true)
		for _, u := range st.Touched {
			if got.Routed[u] != want.Routed[u] || want.Routed[u] && (got.W[u] != want.W[u] || got.NextHop[u] != want.NextHop[u]) {
				t.Fatalf("trial %d (dest %d): touched node %d differs from the scratch build", trial, dest, u)
			}
		}
		if trial < 3 {
			t.Logf("dest %d: %d next-hop reads, bound %d, %d nodes loaded, %d touched", dest, warm.hops, bound, loaded, len(st.Touched))
		}
	}
	if deltas < 20 || 2*apart < deltas {
		t.Fatalf("%d of 40 batches ran the sparse delta, %d of them loading over twice the bound: the fixture no longer tells an eager overlay apart", deltas, apart)
	}
	t.Logf("%d sparse deltas, %d loading over twice the bound", deltas, apart)
}
