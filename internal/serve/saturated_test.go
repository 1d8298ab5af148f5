package serve

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/replica"
	"metarouting/internal/rib"
	"metarouting/internal/serve/wire"
	"metarouting/internal/solve"
)

// satHubs are the saturated-span fixture's hubs and their fan widths:
// the first and last slot of a page, the first slot of the next page
// right after, two adjacent slots mid-page and the column's last node,
// with 254 (one short of saturating a page slot's NhLen) to 300 equal-
// cost next hops each.
var satHubs = []struct{ node, width int }{
	{64, 255}, {127, 256}, {128, 300}, {400, 254}, {401, 280}, {639, 255},
}

// satGraph is the 640-node fixture (ten pages): every node that is not a
// hub or the destination 0 is a middle with one arc to 0, and hub k has
// arcs to satHubs[k].width consecutive middles, the fans overlapping.
// One label throughout, so each hub's route ties over its whole fan.
func satGraph() (*graph.Graph, []int) {
	const n = 640
	hub := map[int]bool{0: true}
	for _, h := range satHubs {
		hub[h.node] = true
	}
	var mids []int
	var arcs []graph.Arc
	for u := 1; u < n; u++ {
		if !hub[u] {
			mids = append(mids, u)
			arcs = append(arcs, graph.Arc{From: u, To: 0})
		}
	}
	for k, h := range satHubs {
		for i := 0; i < h.width; i++ {
			arcs = append(arcs, graph.Arc{From: h.node, To: mids[(40*k+i)%len(mids)]})
		}
	}
	return graph.MustNew(n, arcs), mids
}

// TestSaturatedSpansEverywhere: spans of 254–300 hops, which saturate a
// page slot's 8-bit NhLen (all but the 254) at several page positions,
// come back exact on every path a column takes — the scratch build, the
// delta rebuilds (a saturated span losing hops, unsaturating, and every
// fan losing one shared middle at once, then all of it restored), the
// follower's patch of a decoded delta and a full record's decode, each
// page for page with the leader's — flatten to the naive build, and
// answer the staged batch resolver and Forward as the naive column does.
// A built column's footprint equals its decoded copy's: pools are exact
// on both sides.
func TestSaturatedSpansEverywhere(t *testing.T) {
	a, err := core.InferString("delay(16,3)")
	if err != nil {
		t.Fatal(err)
	}
	origin := a.OT.DefaultOrigin()
	eng := exec.For(a.OT, origin)
	g, mids := satGraph()
	ws := solve.NewWorkspace()
	disabled := make([]bool, len(g.Arcs))
	// hubArc is hub k's arc to the i-th middle of its fan.
	hubArc := func(k, i int) int {
		arc := len(mids) + i
		for _, h := range satHubs[:k] {
			arc += h.width
		}
		return arc
	}

	// check holds col, and a follower's copy of it, to the naive build
	// on the current view, through every read surface.
	check := func(tag string, col, follower *rib.PagedColumn) {
		t.Helper()
		flat, err := rib.BuildDestColumn(eng, g.MaskArcs(disabled), 0, origin, solve.NewWorkspace())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(col.Flatten(), flat) {
			t.Fatalf("%s: the paged column does not flatten to the naive build", tag)
		}
		if !reflect.DeepEqual(follower.Pages, col.Pages) || follower.Bytes() != col.Bytes() || follower.Live() != col.Live() {
			t.Fatalf("%s: the follower's pages differ from the leader's (%d B vs %d B)", tag, follower.Bytes(), col.Bytes())
		}
		saturated := 0
		for _, h := range satHubs {
			if s := col.Pages[h.node>>rib.PageShift].Slots[h.node&rib.PageMask]; s.NhLen == rib.MaxPageNhLen {
				saturated++
			}
		}
		if saturated == 0 {
			t.Fatalf("%s: no hub's slot is saturated", tag)
		}
		qs := make([]wire.Query, g.N)
		for u := range qs {
			qs[u] = wire.Query{Kind: wire.QueryDest, From: int32(u), Arg: 0}
		}
		sc := &batchScratch{}
		for role, c := range map[string]*rib.PagedColumn{"leader": col, "follower": follower} {
			if err := sameResolution(t, tag+"/"+role, stubView{nodes: g.N, cols: map[int]*rib.PagedColumn{0: c}}, sc, qs); err != nil {
				t.Fatal(err)
			}
			for u, a := range sc.as {
				if got, want := sc.pool[a.NhOff:a.NhOff+uint32(a.NhLen)], flat.NextHops(u); !slices.Equal(got, want) {
					t.Fatalf("%s/%s: node %d answers %d hops, the naive build holds %d", tag, role, u, len(got), len(want))
				}
			}
		}
		for u := 0; u < g.N; u++ {
			var want graph.Path
			for v := u; flat.Slots[v].Routed; v = int(flat.Pool[flat.Slots[v].NhOff]) {
				if want = append(want, v); v == 0 {
					break
				}
			}
			if got, err := col.Forward(u); !slices.Equal(got, want) || (err == nil) != (len(want) > 0) {
				t.Fatalf("%s: Forward(%d) = %v (%v), the naive build's primaries give %v", tag, u, got, err, want)
			}
		}
	}
	full := func(v uint64, col *rib.PagedColumn) *rib.PagedColumn {
		t.Helper()
		rec, err := replica.DecodeRecord(replica.EncodeFull(&replica.Full{Version: v, Nodes: g.N, Disabled: replica.NewMask(len(g.Arcs)), Columns: []*rib.PagedColumn{col}}))
		if err != nil {
			t.Fatal(err)
		}
		return rec.Full.Columns[0]
	}

	col, err := rib.BuildDestPaged(eng, g, 0, origin, ws)
	if err != nil {
		t.Fatal(err)
	}
	for pi, p := range col.Pages {
		if cap(p.Pool) != len(p.Pool) {
			t.Fatalf("built page %d's pool has %d slack entries", pi, cap(p.Pool)-len(p.Pool))
		}
	}
	st, err := replica.ApplyFull(&replica.Full{Version: 1, Nodes: g.N, Disabled: replica.NewMask(len(g.Arcs)), Columns: []*rib.PagedColumn{full(1, col)}})
	if err != nil {
		t.Fatal(err)
	}
	check("scratch build", col, st.Cols[0])

	// Hub k's fan is middles [40k, 40k+width): the 211th middle is in
	// every fan, and its arc to 0 is arc 210.
	const shared = 210
	steps := [][]solve.ArcToggle{
		{{Arc: hubArc(1, 3), Down: true}},                         // 127: 256 → 255, still saturated
		{{Arc: hubArc(0, 7), Down: true}},                         // 64: 255 → 254
		{{Arc: shared, Down: true}},                               // every fan loses the shared middle
		{{Arc: hubArc(1, 3)}, {Arc: hubArc(0, 7)}, {Arc: shared}}, // all restored
	}
	for i, toggles := range steps {
		v := uint64(i + 2)
		for _, tg := range toggles {
			disabled[tg.Arc] = tg.Down
		}
		next, _, ps, err := rib.DeltaDestPaged(eng, g.MaskArcs(disabled), disabled, 0, origin, ws, col, toggles)
		if err != nil {
			t.Fatal(err)
		}
		tag := fmt.Sprintf("delta to v%d", v)
		if ps.Changed == 0 {
			t.Fatalf("%s: no slot changed", tag)
		}
		rec, err := replica.DecodeRecord(replica.EncodeDelta(&replica.Delta{FromVersion: v - 1, Version: v, Toggles: toggles,
			Diffs: []replica.ColumnDiff{{Dest: 0, Converged: next.Converged, Changes: ps.Changes}}}))
		if err != nil {
			t.Fatal(err)
		}
		if st, err = replica.ApplyDelta(st, rec.Delta); err != nil {
			t.Fatal(err)
		}
		check(tag, next, st.Cols[0])
		check(tag+" (full record)", next, full(v, next))
		col = next
	}
}
