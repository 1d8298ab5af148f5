package rib

import (
	"fmt"
	"unsafe"

	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/solve"
	"metarouting/internal/value"
)

// This file holds the arena-flat route column: the index-form
// replacement for []*Entry. A Column packs one destination's routes
// into two contiguous slices — fixed-width EntrySlots plus a shared
// next-hop pool — so a 100k-node column is two allocations instead of
// 100k, weights are engine indices instead of boxed interface values,
// and snapshots share untouched columns by pointer exactly as the
// pointer table did. The legacy *Entry API remains available as a
// materializing view (Column.Entry, RIB.Lookup).

// EntrySlot is one node's route toward the column's destination in
// index form. The zero slot means unrouted.
type EntrySlot struct {
	// W is the selected weight's engine index (valid only when Routed).
	// Engine intern tables are append-only, so the index stays valid for
	// the life of the engine — across snapshots and warm starts.
	W int32
	// NhOff/NhLen delimit the ECMP next-hop set in Column.Pool, primary
	// first. NhLen is 0 at the destination itself.
	NhOff int32
	NhLen int32
	// Routed marks the node as holding a route.
	Routed bool
}

// entrySlotBytes is the in-memory slot width including padding.
const entrySlotBytes = int(unsafe.Sizeof(EntrySlot{}))

// Column is one destination's full route column in arena form.
type Column struct {
	// Dest is the destination node anchoring the column.
	Dest int
	// Converged reports whether the solver run reached a fixpoint.
	Converged bool
	// Clean is the verified clean-forwarding-tree certificate: every
	// routed slot's primary next-hop chain reaches Dest. Solver-built
	// columns carry a verified verdict; adapters and decoders leave it
	// false (conservative — the next delta then takes the dense path).
	Clean bool
	// Slots[u] is node u's route; len(Slots) == g.N.
	Slots []EntrySlot
	// Pool is the next-hop arena all slots index into.
	Pool []int32

	// live caches the routed-slot count when liveOK (set by builders,
	// which count during their single pass); decoded columns fall back
	// to a scan.
	live   int
	liveOK bool
}

// Bytes returns the column's arena footprint in bytes (slot and pool
// backing arrays; the header is negligible and excluded).
func (c *Column) Bytes() int {
	return len(c.Slots)*entrySlotBytes + len(c.Pool)*4
}

// Live returns the number of routed slots.
func (c *Column) Live() int {
	if c.liveOK {
		return c.live
	}
	n := 0
	for i := range c.Slots {
		if c.Slots[i].Routed {
			n++
		}
	}
	return n
}

// DestNode, NumNodes, IsConverged, IsClean and Flatten adapt the flat
// column to the Col interface (field names already take the direct
// spellings). Flatten is the identity — a flat column is its own
// canonical form.
func (c *Column) DestNode() int     { return c.Dest }
func (c *Column) NumNodes() int     { return len(c.Slots) }
func (c *Column) IsConverged() bool { return c.Converged }
func (c *Column) IsClean() bool     { return c.Clean }
func (c *Column) Flatten() *Column  { return c }

// Route returns node u's selected weight index (ok=false when unrouted
// or out of range) — the index-form point read the batch resolver uses.
func (c *Column) Route(u int) (int32, bool) {
	if u < 0 || u >= len(c.Slots) || !c.Slots[u].Routed {
		return 0, false
	}
	return c.Slots[u].W, true
}

// NextHops returns node u's ECMP next-hop view (aliasing the pool;
// read-only, primary first). Nil when unrouted or at the destination.
func (c *Column) NextHops(u int) []int32 {
	if u < 0 || u >= len(c.Slots) || !c.Slots[u].Routed || c.Slots[u].NhLen == 0 {
		return nil
	}
	s := c.Slots[u]
	return c.Pool[s.NhOff : s.NhOff+s.NhLen : s.NhOff+s.NhLen]
}

// AppendNextHops appends node u's ECMP next-hop span to dst and
// returns the extended slice — the batched query plane's copy-out
// entry point: callers accumulate many nodes' spans into one shared
// pool buffer without per-node slice headers or aliasing hazards.
func (c *Column) AppendNextHops(dst []int32, u int) []int32 {
	if u < 0 || u >= len(c.Slots) || !c.Slots[u].Routed {
		return dst
	}
	s := c.Slots[u]
	return append(dst, c.Pool[s.NhOff:s.NhOff+s.NhLen]...)
}

// Forward resolves the forwarding path from a node to the column's
// destination following primary next hops; it fails on missing routes
// and forwarding loops. The walk needs nothing but the column itself,
// so replication followers forward straight off decoded columns —
// RIB.Forward delegates here.
func (c *Column) Forward(from int) (graph.Path, error) {
	if from < 0 || from >= len(c.Slots) {
		return nil, fmt.Errorf("rib: node %d out of range [0,%d)", from, len(c.Slots))
	}
	var p graph.Path
	var seen visited
	u := from
	for {
		if !c.Slots[u].Routed {
			return nil, fmt.Errorf("rib: node %d has no route to %d", u, c.Dest)
		}
		if seen.revisits(p, u, len(c.Slots)) {
			return nil, &LoopError{Node: u, Dest: c.Dest}
		}
		p = append(p, u)
		if u == c.Dest {
			return p, nil
		}
		u = int(c.Pool[c.Slots[u].NhOff])
	}
}

// Entry materializes node u's legacy *Entry view (nil when unrouted).
// The returned entry is freshly allocated: this is the compatibility
// adapter, not the hot path.
func (c *Column) Entry(eng exec.Algebra, u int) *Entry {
	if u < 0 || u >= len(c.Slots) || !c.Slots[u].Routed {
		return nil
	}
	s := c.Slots[u]
	e := &Entry{Weight: eng.Value(s.W)}
	if s.NhLen > 0 {
		e.NextHops = make([]int, s.NhLen)
		for i, v := range c.Pool[s.NhOff : s.NhOff+s.NhLen] {
			e.NextHops[i] = int(v)
		}
	}
	return e
}

// BuildDestColumn computes the arena column for a single destination —
// the column-store counterpart of BuildDestEngine, and the unit of work
// the serve snapshot builder shards across its pool. It consumes the
// solver's index-form Raw view directly, so no interface values or
// per-entry allocations are produced: one slot slice, one pool slice.
func BuildDestColumn(eng exec.Algebra, g *graph.Graph, dest int, origin value.V, ws *solve.Workspace) (*Column, error) {
	if dest < 0 || dest >= g.N {
		return nil, fmt.Errorf("rib: destination %d out of range", dest)
	}
	if ws == nil {
		ws = solve.NewWorkspace()
	}
	raw := ws.BellmanFordRaw(eng, g, dest, origin, 0)
	c := &Column{Dest: dest, Converged: raw.Converged, Slots: make([]EntrySlot, g.N)}
	c.Clean = raw.Converged && ws.VerifyForwardTree(raw)
	c.Pool = make([]int32, 0, g.N)
	for u := 0; u < g.N; u++ {
		fillSlot(eng, g, raw.Routed, raw.W, raw.NextHop, dest, u, c)
	}
	c.liveOK = true
	return c, nil
}

// appendNextHopSet appends node u's ECMP next-hop set (primary first,
// then every other routed out-neighbour whose arc extension is
// order-equivalent to the selected weight) to pool. It is the one ECMP
// scan both column layouts share, mirroring entryFromResult exactly, so
// flat, paged and pointer columns stay bit-identical by construction.
// u must be routed and must not be the destination. Like the sweep that
// produced the state, it reads a compiled total-order engine's tables
// directly (exec.Tables) and goes through the interface otherwise.
func appendNextHopSet(eng exec.Algebra, g *graph.Graph, routed []bool, w []int32, nextHop []int, u int, pool []int32) []int32 {
	primary, best := int32(nextHop[u]), w[u]
	pool = append(pool, primary)
	if t := exec.Tables(eng); t != nil {
		fn, rank, stride := t.Fn, t.Rank, t.N
		bestRank := rank[best]
		for _, h := range g.OutHops(u) {
			v := h.Node
			if v == primary || !routed[v] {
				continue
			}
			if rank[fn[int(h.Label)*stride+int(w[v])]] == bestRank {
				pool = append(pool, v)
			}
		}
		return pool
	}
	for _, h := range g.OutHops(u) {
		v := h.Node
		if v == primary || !routed[v] {
			continue
		}
		if eng.Equiv(eng.Apply(int(h.Label), w[v]), best) {
			pool = append(pool, v)
		}
	}
	return pool
}

// fillSlot writes node u's slot from index-form solver state, appending
// its ECMP set to the column pool and maintaining the live-count cache.
func fillSlot(eng exec.Algebra, g *graph.Graph, routed []bool, w []int32, nextHop []int, dest, u int, c *Column) {
	if !routed[u] {
		c.Slots[u] = EntrySlot{}
		return
	}
	s := EntrySlot{W: w[u], Routed: true, NhOff: int32(len(c.Pool))}
	c.live++
	if u == dest {
		c.Slots[u] = s
		return
	}
	c.Pool = appendNextHopSet(eng, g, routed, w, nextHop, u, c.Pool)
	s.NhLen = int32(len(c.Pool)) - s.NhOff
	c.Slots[u] = s
}

// DeltaDestColumn recomputes the arena column for a single destination
// after the given arc toggles, warm-starting from prev's slots — the
// column-store counterpart of DeltaDestEngine. The warm start reads
// engine weight indices straight out of prev's arena, so no values are
// re-interned. When the delta drain runs, untouched slots are copied
// wholesale and only touched nodes and toggle tails re-run the ECMP
// scan; on any fallback the column is rebuilt from scratch. Either way
// the result is bit-identical to BuildDestColumn on g.
func DeltaDestColumn(eng exec.Algebra, g *graph.Graph, disabled []bool, dest int, origin value.V, ws *solve.Workspace, prev *Column, toggles []solve.ArcToggle) (*Column, solve.DeltaStats, error) {
	if dest < 0 || dest >= g.N {
		return nil, solve.DeltaStats{}, fmt.Errorf("rib: destination %d out of range", dest)
	}
	if ws == nil {
		ws = solve.NewWorkspace()
	}
	if prev == nil || len(prev.Slots) != g.N || !prev.Slots[dest].Routed || !prev.Converged {
		col, err := BuildDestColumn(eng, g, dest, origin, ws)
		return col, solve.DeltaStats{}, err
	}
	warm := func(u int) (bool, int32, int) {
		s := prev.Slots[u]
		if !s.Routed {
			return false, 0, -1
		}
		if u == dest {
			return true, s.W, -1
		}
		return true, s.W, int(prev.Pool[s.NhOff])
	}
	raw, st := ws.BellmanFordDeltaRaw(eng, g, disabled, dest, origin, warm, prev.Clean, toggles, 0)
	c := &Column{Dest: dest, Converged: raw.Converged, Clean: st.Clean, Slots: make([]EntrySlot, g.N)}
	if !st.UsedDelta {
		c.Pool = make([]int32, 0, g.N)
		for u := 0; u < g.N; u++ {
			fillSlot(eng, g, raw.Routed, raw.W, raw.NextHop, dest, u, c)
		}
		c.liveOK = true
		return c, st, nil
	}
	// Delta path: rebuild only touched nodes and toggle tails; every
	// other node's route did not move, so its slot is copied and its
	// next-hop span transplanted verbatim. The pool is rebuilt (offsets
	// shift) but the spans' contents are identical to a from-scratch
	// build, by the same argument as DeltaDestEngine. The redo set is
	// the workspace's reusable epoch bitmap — the only allocations left
	// on this path are the column itself.
	markRedo(ws, g, st.Touched, toggles, dest)
	c.Pool = make([]int32, 0, len(prev.Pool)+8)
	for u := 0; u < g.N; u++ {
		if ws.Marked(u) {
			fillSlot(eng, g, raw.Routed, raw.W, raw.NextHop, dest, u, c)
			continue
		}
		s := prev.Slots[u]
		if !s.Routed {
			c.Slots[u] = EntrySlot{}
			continue
		}
		ns := EntrySlot{W: s.W, Routed: true, NhOff: int32(len(c.Pool)), NhLen: s.NhLen}
		c.Pool = append(c.Pool, prev.Pool[s.NhOff:s.NhOff+s.NhLen]...)
		c.Slots[u] = ns
		c.live++
	}
	c.liveOK = true
	return c, st, nil
}

// markRedo loads the delta rebuild's redo set — touched nodes plus
// toggle tails — into the workspace's reusable epoch bitmap. The raw
// solver state is valid at exactly these nodes on the sparse path, and
// their ECMP scans read only state the drain materialized.
func markRedo(ws *solve.Workspace, g *graph.Graph, touched []int, toggles []solve.ArcToggle, dest int) {
	ws.ResetMarks(g.N)
	for _, u := range touched {
		ws.Mark(u)
	}
	for _, t := range toggles {
		if x := g.Arcs[t.Arc].From; x != dest {
			ws.Mark(x)
		}
	}
}

// ColumnFromEntries converts a legacy pointer column into arena form,
// interning each entry weight on eng. It exists for adapters and
// differential tests; new code should build columns directly.
func ColumnFromEntries(eng exec.Algebra, dest int, entries []*Entry, converged bool) (*Column, error) {
	c := &Column{Dest: dest, Converged: converged, Slots: make([]EntrySlot, len(entries))}
	c.Pool = make([]int32, 0, len(entries))
	for u, e := range entries {
		if e == nil {
			continue
		}
		w, err := eng.Intern(e.Weight)
		if err != nil {
			return nil, fmt.Errorf("rib: column %d node %d: %v", dest, u, err)
		}
		s := EntrySlot{W: w, Routed: true, NhOff: int32(len(c.Pool)), NhLen: int32(len(e.NextHops))}
		for _, v := range e.NextHops {
			c.Pool = append(c.Pool, int32(v))
		}
		c.Slots[u] = s
		c.live++
	}
	c.liveOK = true
	return c, nil
}
