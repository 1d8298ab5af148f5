package rib

// Tests for the replica-side surface of the paged column: Paged (the
// inverse of Flatten), Patch (the copy-on-write slot patch a follower
// applies), and the allocation-light Forward.

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"metarouting/internal/exec"
	"metarouting/internal/graph"
)

// flatFromRoutes lays a flat column out canonically from per-node
// content: routes[u] == nil is unrouted, otherwise {w, hops...}.
func flatFromRoutes(dest int, routes [][]int32) *Column {
	c := &Column{Dest: dest, Converged: true, Slots: make([]EntrySlot, len(routes)), Pool: []int32{}}
	for u, r := range routes {
		if r == nil {
			continue
		}
		c.Slots[u] = EntrySlot{W: r[0], Routed: true, NhOff: int32(len(c.Pool)), NhLen: slotLen(int32(len(r) - 1))}
		c.Pool = append(c.Pool, r[1:]...)
	}
	return c
}

// holedRoutes is a 200-node column toward 0 with every page shape the
// layout has to get right: page 0 ends on a two-hop ECMP span (node
// 63), page 1 is wholly unrouted, page 2 is full, page 3 is partial.
func holedRoutes() [][]int32 {
	routes := make([][]int32, 200)
	routes[0] = []int32{0}
	routes[1], routes[2] = []int32{1, 0}, []int32{1, 0}
	for u := 3; u < len(routes); u++ {
		if u>>PageShift != 1 {
			routes[u] = []int32{2, 1, 2}
		}
	}
	return routes
}

// TestPagedRoundTrip pins Paged as Flatten's inverse in both
// directions, pools exact, totals consistent.
func TestPagedRoundTrip(t *testing.T) {
	flat := flatFromRoutes(0, holedRoutes())
	flat.Clean = true
	paged := flat.Paged()
	if got := paged.Flatten(); !reflect.DeepEqual(got, flat) {
		t.Fatalf("Paged().Flatten() differs\n got %+v\nwant %+v", got, flat)
	}
	if again := paged.Flatten().Paged(); !reflect.DeepEqual(again, paged) {
		t.Fatal("Flatten().Paged() does not reproduce the paged column")
	}
	if len(paged.Pages) != 4 || paged.Pages[1].Live != 0 || len(paged.Pages[1].Pool) != 0 {
		t.Fatalf("page 1 should be empty: %d pages, live %d, pool %d", len(paged.Pages), paged.Pages[1].Live, len(paged.Pages[1].Pool))
	}
	if nh := paged.NextHops(63); !reflect.DeepEqual(nh, []int32{1, 2}) {
		t.Fatalf("boundary span at node 63 = %v", nh)
	}
	live := 0
	for _, s := range flat.Slots {
		if s.Routed {
			live++
		}
	}
	if paged.Live() != live || paged.Bytes() != len(paged.Pages)*PageSize*entrySlotBytes+4*len(flat.Pool) {
		t.Fatalf("totals: live %d (flat %d), bytes %d", paged.Live(), live, paged.Bytes())
	}
	for pi, p := range paged.Pages {
		if cap(p.Pool) != len(p.Pool) {
			t.Fatalf("page %d pool has %d slack entries", pi, cap(p.Pool)-len(p.Pool))
		}
	}
	// A solver-built column round-trips too (its pools carry builder
	// slack, which is not content).
	a := alg(t, "delay(8,2)")
	built, err := BuildDestPaged(exec.NewDynamic(a), boundaryGraph(t), 0, originFor(a), nil)
	if err != nil {
		t.Fatal(err)
	}
	if again := built.Flatten().Paged(); !reflect.DeepEqual(again, built) {
		t.Fatal("solver-built column does not survive Flatten().Paged()")
	}
}

// TestPatchMatchesRelay drives random patch chains — reroutes, ECMP
// growth and shrinkage, unrouting, routing into the empty page — and
// checks every step against a from-scratch paging of the same routes,
// page for page, with exactly the patched pages cloned.
func TestPatchMatchesRelay(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	routes := holedRoutes()
	cur := flatFromRoutes(0, routes).Paged()
	for step := 0; step < 200; step++ {
		var patches []SlotPatch
		dirty := map[int]bool{}
		for u := 1 + r.Intn(40); u < len(routes); u += 1 + r.Intn(60) {
			p := SlotPatch{Node: u}
			if r.Intn(4) > 0 {
				p.Routed, p.W = true, int32(r.Intn(9))
				for h := 0; h <= r.Intn(3); h++ {
					p.NextHop = append(p.NextHop, int32(r.Intn(len(routes))))
				}
				routes[u] = append([]int32{p.W}, p.NextHop...)
			} else {
				routes[u] = nil
			}
			patches = append(patches, p)
			dirty[u>>PageShift] = true
		}
		next, err := cur.Patch(step%5 != 0, patches)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		want := flatFromRoutes(0, routes)
		want.Converged = step%5 != 0
		if !reflect.DeepEqual(next, want.Paged()) {
			t.Fatalf("step %d: patched column differs from a fresh paging\n got %+v\nwant %+v", step, next.Flatten(), want)
		}
		for pi := range next.Pages {
			if cloned := next.Pages[pi] != cur.Pages[pi]; cloned != dirty[pi] {
				t.Fatalf("step %d page %d: cloned=%v, patched=%v", step, pi, cloned, dirty[pi])
			}
		}
		cur = next
	}
}

// TestPatchRejects pins the checks that keep a wire-supplied patch from
// producing a column Forward cannot walk.
func TestPatchRejects(t *testing.T) {
	c := flatFromRoutes(0, holedRoutes()).Paged()
	for name, patches := range map[string][]SlotPatch{
		"node past the column":    {{Node: 200}},
		"negative node":           {{Node: -1}},
		"descending nodes":        {{Node: 9}, {Node: 5}},
		"duplicate node":          {{Node: 9}, {Node: 9}},
		"next hop past column":    {{Node: 9, Routed: true, NextHop: []int32{200}}},
		"negative next hop":       {{Node: 9, Routed: true, NextHop: []int32{1, -1}}},
		"routed, no next hop":     {{Node: 9, Routed: true}},
		"destination with a hop":  {{Node: 0, Routed: true, NextHop: []int32{1}}},
		"bad patch after a clean": {{Node: 5, Routed: true, NextHop: []int32{1}}, {Node: 70, Routed: true}},
	} {
		if _, err := c.Patch(true, patches); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if got, err := c.Patch(false, nil); err != nil || got.Converged || got.Pages[0] != c.Pages[0] {
		t.Fatalf("empty patch: %v", err)
	}
}

// forwardBitmap is the walk Forward replaced — an N-slot visited bitmap
// from the first hop — kept as the oracle for error texts and for which
// node a loop is reported at.
func forwardBitmap(c *PagedColumn, from int) (graph.Path, error) {
	n, dest := c.N, c.Dest
	if from < 0 || from >= n {
		return nil, fmt.Errorf("rib: node %d out of range [0,%d)", from, n)
	}
	var p graph.Path
	seen := make([]bool, n)
	for u := from; ; u = int(c.NextHops(u)[0]) {
		if _, ok := c.Route(u); !ok {
			return nil, fmt.Errorf("rib: node %d has no route to %d", u, dest)
		}
		if seen[u] {
			return nil, fmt.Errorf("rib: forwarding loop at node %d toward %d", u, dest)
		}
		seen[u] = true
		p = append(p, u)
		if u == dest {
			return p, nil
		}
	}
}

// forwardCases is a 400-node column toward 0: a 300-hop chain (well
// past forwardScanHops), a short loop, a 40-node cycle entered after a
// 40-hop tail (so the repeat is found by the bitmap and reported at the
// entry node), a chain into an unrouted node, and holes.
func forwardCases() [][]int32 {
	routes := make([][]int32, 400)
	routes[0] = []int32{0}
	for u := 1; u <= 300; u++ {
		routes[u] = []int32{1, int32(u - 1)}
	}
	routes[310], routes[311], routes[312] = []int32{1, 311}, []int32{1, 312}, []int32{1, 310}
	for u := 320; u < 360; u++ { // 40-node cycle
		routes[u] = []int32{1, int32(u + 1)}
	}
	routes[359] = []int32{1, 320}
	for u := 361; u < 400; u++ { // the tail, 399 down to 360
		routes[u] = []int32{1, int32(u - 1)}
	}
	routes[360] = []int32{1, 340} // enters the cycle mid-way
	routes[305] = []int32{1, 304} // 304 is unrouted
	return routes
}

// TestForwardWalks runs every walk shape against the paged column and
// the bitmap oracle: same path, same error, byte for byte.
func TestForwardWalks(t *testing.T) {
	c := flatFromRoutes(0, forwardCases()).Paged()
	for _, from := range []int{-1, 400, 0, 1, 31, 32, 33, 34, 300, 303, 305, 310, 312, 320, 345, 360, 399} {
		got, gerr := c.Forward(from)
		want, werr := forwardBitmap(c, from)
		if !reflect.DeepEqual(got, want) || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Errorf("Forward(%d) = %v, %v\nwant %v, %v", from, got, gerr, want, werr)
		}
	}
	if _, err := c.Forward(399); err == nil || err.Error() != "rib: forwarding loop at node 340 toward 0" {
		t.Fatalf("long-tail loop reported as %v", err)
	}
}

// TestForwardAllocs guards the point of the scan: a short walk on a
// large column allocates its path and nothing sized by the column.
func TestForwardAllocs(t *testing.T) {
	routes := make([][]int32, 1<<16)
	routes[0] = []int32{0}
	for u := 1; u < len(routes); u++ {
		routes[u] = []int32{1, int32(u - 1)}
	}
	c := flatFromRoutes(0, routes).Paged()
	walk := func() {
		if p, err := c.Forward(4); err != nil || len(p) != 5 {
			t.Fatalf("Forward(4) = %v, %v", p, err)
		}
	}
	// Five appends grow the path 1→2→4→8: four allocations, no more.
	if allocs := testing.AllocsPerRun(100, walk); allocs > 4 {
		t.Errorf("5-hop Forward allocates %.0f objects, want ≤ 4", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		walk()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / 100; per > 256 {
		t.Errorf("5-hop Forward on a %d-node column allocates %d B", len(routes), per)
	}
}
