package replica

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/rib"
	"metarouting/internal/solve"
)

// fanMids is the fan's middle count: one more equal-cost next hop than
// a flat EntrySlot's NhLen counts, so u's span saturates the flat slot
// as well as the page slot, and the middles after it start past 16 bits
// in page 0's pool — a wide page.
const fanMids = rib.MaxNhLen + 1

// fanGraph is the 65 538-node fan u = 1 → middles 2..65 537 → d = 0, one
// label throughout, so u's route toward d ties over every middle. Arc
// 2(m-2) is u → m and arc 2(m-2)+1 is m → d.
func fanGraph() *graph.Graph {
	arcs := make([]graph.Arc, 0, 2*fanMids)
	for m := 2; m < fanMids+2; m++ {
		arcs = append(arcs, graph.Arc{From: 1, To: m}, graph.Arc{From: m, To: 0})
	}
	return graph.MustNew(fanMids+2, arcs)
}

// sameLayout reports whether two columns hold the same routes in the
// same bytes: slots, pool and convergence, flattened. The Clean
// certificate is the leader's alone and does not travel.
func sameLayout(got, want *rib.PagedColumn) bool {
	g, w := got.Flatten(), want.Flatten()
	return g.Dest == w.Dest && g.Converged == w.Converged && slices.Equal(g.Slots, w.Slots) && slices.Equal(g.Pool, w.Pool)
}

// TestWideSpanRoundTrips: a span too long for a flat slot's 16-bit NhLen
// saturates it, and the page slot's 8-bit one, and still reads back
// exactly, on every path a column takes; the slots after it, whose page
// starts saturate the 16-bit NhOff, read theirs off the page's side
// array. u's 65 536 next hops, then 65 535 (the flat saturation value
// itself, and the first start a page slot saturates at) once one
// middle's arc to d fails, then 65 534 once u's arc to a middle on its
// own page fails too, must come
// back whole from the paged build and both deltas, flatten to the naive
// build, frame byte-identically to the oracle encoder (which writes
// SpanEnd − NhOff) and survive a follower's full bootstrap and delta
// patches.
func TestWideSpanRoundTrips(t *testing.T) {
	a, err := core.InferString("delay(16,3)")
	if err != nil {
		t.Fatal(err)
	}
	origin := a.OT.DefaultOrigin()
	eng := exec.For(a.OT, origin)
	g := fanGraph()
	ws := solve.NewWorkspace()
	disabled := make([]bool, len(g.Arcs))

	// check holds col to the naive build on the current view and u's span
	// to the middles not cut off.
	check := func(tag string, col *rib.PagedColumn, cut ...int32) {
		t.Helper()
		flat, err := rib.BuildDestColumn(eng, g.MaskArcs(disabled), 0, origin, solve.NewWorkspace())
		if err != nil {
			t.Fatal(err)
		}
		if got := col.Flatten(); !reflect.DeepEqual(got, flat) {
			t.Fatalf("%s: the paged column does not flatten to the naive build", tag)
		}
		span := col.NextHops(1)
		if !slices.Equal(span, flat.NextHops(1)) {
			t.Fatalf("%s: u's span has %d hops, the naive build's %d", tag, len(span), len(flat.NextHops(1)))
		}
		want := make([]int32, 0, fanMids)
		for m := int32(2); m < fanMids+2; m++ {
			if !slices.Contains(cut, m) {
				want = append(want, m)
			}
		}
		got := slices.Clone(span)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: u's span has %d hops, want the %d middles left", tag, len(span), len(want))
		}
		p := col.Pages[0]
		if s := p.Slots[1]; s.NhLen != rib.MaxPageNhLen {
			t.Fatalf("%s: u's NhLen = %d for %d hops, want it saturated at %d", tag, s.NhLen, len(want), rib.MaxPageNhLen)
		}
		// Middle 2, the slot after u's span, starts where that span ends,
		// which saturates its NhOff until u is down to 65 534 hops.
		if s := p.Slots[2]; p.Start(2) != int32(len(want)) || int(s.NhOff) != min(len(want), math.MaxUint16) {
			t.Fatalf("%s: middle 2 starts at %d (NhOff %d), want %d", tag, p.Start(2), s.NhOff, len(want))
		}
	}
	full := func(v uint64, col *rib.PagedColumn) []byte {
		f := &Full{Version: v, Nodes: g.N, Disabled: maskOf(disabled), Columns: []*rib.PagedColumn{col}}
		frame := EncodeFull(f)
		if !bytes.Equal(frame, oracleEncodeFull(f, []*rib.Column{col.Flatten()})) {
			t.Fatalf("v%d: full frame differs from the oracle encoder's", v)
		}
		return frame
	}

	col, err := rib.BuildDestPaged(eng, g, 0, origin, ws)
	if err != nil {
		t.Fatal(err)
	}
	check("scratch build", col)
	rec, err := DecodeRecord(full(1, col))
	if err != nil {
		t.Fatal(err)
	}
	st, err := ApplyFull(rec.Full)
	if err != nil {
		t.Fatal(err)
	}
	if !sameLayout(st.Cols[0], col) {
		t.Fatal("full record: the follower's column differs from the leader's")
	}

	const farMid, nearMid = 40000, 5 // pages 625 and 0
	steps := []struct {
		arc int
		cut []int32
	}{
		{2*(farMid-2) + 1, []int32{farMid}},           // farMid → d
		{2 * (nearMid - 2), []int32{farMid, nearMid}}, // u → nearMid
	}
	for i, step := range steps {
		v := uint64(i + 2)
		disabled[step.arc] = true
		toggles := []solve.ArcToggle{{Arc: step.arc, Down: true}}
		next, _, ps, err := rib.DeltaDestPaged(eng, g.MaskArcs(disabled), disabled, 0, origin, ws, col, toggles)
		if err != nil {
			t.Fatal(err)
		}
		tag := fmt.Sprintf("delta to v%d", v)
		check(tag, next, step.cut...)
		frame := EncodeDelta(&Delta{FromVersion: v - 1, Version: v, Toggles: toggles,
			Diffs: []ColumnDiff{{Dest: 0, Converged: next.Converged, Changes: ps.Changes}}})
		rec, err := DecodeRecord(frame)
		if err != nil {
			t.Fatal(err)
		}
		if st, err = ApplyDelta(st, rec.Delta); err != nil {
			t.Fatal(err)
		}
		if !sameLayout(st.Cols[0], next) {
			t.Fatalf("%s: the follower's patched column differs from the leader's", tag)
		}
		if rec, err = DecodeRecord(full(v, next)); err != nil || !sameLayout(rec.Full.Columns[0], next) {
			t.Fatalf("%s: full record does not round-trip the column (%v)", tag, err)
		}
		col = next
	}
}
