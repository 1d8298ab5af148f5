package rib

import (
	"fmt"
	"math"
	"unsafe"

	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/solve"
	"metarouting/internal/value"
)

// This file holds the flat route column and its naive build. Servers,
// RIBs and replicas store only PagedColumn; a Column is one
// destination's routes in a single slot slice plus one next-hop pool, the
// layout PagedColumn.Flatten produces. BuildDestColumn fills one straight
// from a scratch sweep, slot by slot, with no pages, log or warm start:
// it is the oracle the paged builders and the benchmark harness compare
// against, and PagedColumn.Flatten of any paged build or delta on the
// same view must equal it bit for bit.

// EntrySlot is one node's route toward the column's destination in
// index form, 12 bytes wide. The zero slot means unrouted.
type EntrySlot struct {
	// W is the selected weight's engine index (valid only when Routed).
	// Engine intern tables are append-only, so the index stays valid for
	// the life of the engine — across snapshots and warm starts.
	W int32
	// NhOff/NhLen delimit the ECMP next-hop set in the pool, primary
	// first. NhLen is 0 at the destination itself. It saturates at
	// MaxNhLen: a span that long or longer ends where the next routed
	// slot's span starts, or at the pool's end — exact, because every
	// builder appends spans in slot order (see SpanEnd).
	NhOff int32
	NhLen uint16
	// Routed marks the node as holding a route.
	Routed bool
}

// MaxNhLen is the largest span length an EntrySlot records itself; a
// slot holding it is saturated and its span's end is read off the layout.
const MaxNhLen = math.MaxUint16

// entrySlotBytes is the in-memory slot width including padding.
const entrySlotBytes = int(unsafe.Sizeof(EntrySlot{}))

// slotLen is the NhLen a slot records for a span of n next hops.
func slotLen(n int32) uint16 { return uint16(min(n, MaxNhLen)) }

// spanEnd returns the pool offset where slot i's span ends. An
// unsaturated slot says so itself; a saturated one's span runs to the
// next routed slot's NhOff, or to the end of the pool — the canonical
// layout (spans appended in slot order) leaves no gap between them.
// The loop lives in saturatedEnd so that this stays inlinable.
func spanEnd(slots []EntrySlot, pool []int32, i int) int32 {
	if s := &slots[i]; s.NhLen < MaxNhLen {
		return s.NhOff + int32(s.NhLen)
	}
	return saturatedEnd(slots, pool, i)
}

// saturatedEnd is spanEnd for a saturated slot i.
func saturatedEnd(slots []EntrySlot, pool []int32, i int) int32 {
	for j := i + 1; j < len(slots); j++ {
		if slots[j].Routed {
			return slots[j].NhOff
		}
	}
	return int32(len(pool))
}

// SpanEnd returns the pool offset where node u's next-hop span ends,
// saturated slots included.
func (c *Column) SpanEnd(u int) int32 { return spanEnd(c.Slots, c.Pool, u) }

// NextHops returns node u's ECMP next-hop span as a view of the pool,
// primary first (empty when unrouted or at the destination).
func (c *Column) NextHops(u int) []int32 { return c.Pool[c.Slots[u].NhOff:c.SpanEnd(u)] }

// Column is one destination's full route column in flat form.
type Column struct {
	// Dest is the destination node anchoring the column.
	Dest int
	// Converged reports whether the solver run reached a fixpoint.
	Converged bool
	// Clean is the verified clean-forwarding-tree certificate: every
	// routed slot's primary next-hop chain reaches Dest.
	Clean bool
	// Slots[u] is node u's route; len(Slots) == g.N.
	Slots []EntrySlot
	// Pool is the next-hop arena all slots index into.
	Pool []int32
}

// BuildDestColumn computes the flat column for a single destination
// from scratch: one sweep (Workspace.BellmanFordRaw, whatever kernel the
// engine's plan licenses, so the oracle stays independent of the
// best-first kernels the paged builders run), then every slot in
// ascending order with its ECMP span appended to one pool.
func BuildDestColumn(eng exec.Algebra, g *graph.Graph, dest int, origin value.V, ws *solve.Workspace) (*Column, error) {
	if dest < 0 || dest >= g.N {
		return nil, fmt.Errorf("rib: destination %d out of range", dest)
	}
	if ws == nil {
		ws = solve.NewWorkspace()
	}
	raw := ws.BellmanFordRaw(eng, g, dest, origin, 0)
	c := &Column{Dest: dest, Converged: raw.Converged, Slots: make([]EntrySlot, g.N)}
	c.Clean = raw.Converged && ws.VerifyForwardTree(eng, raw)
	c.Pool = make([]int32, 0, g.N)
	for u := 0; u < g.N; u++ {
		if !raw.Routed[u] {
			continue
		}
		s := EntrySlot{W: raw.W[u], Routed: true, NhOff: int32(len(c.Pool))}
		if u != dest {
			c.Pool = appendNextHopSet(eng, g, raw.Routed, raw.W, raw.NextHop, u, c.Pool)
		}
		s.NhLen = slotLen(int32(len(c.Pool)) - s.NhOff)
		c.Slots[u] = s
	}
	return c, nil
}

// appendNextHopSet appends node u's ECMP next-hop set (primary first,
// then every other routed out-neighbour whose arc extension is
// order-equivalent to the selected weight) to pool. It is the one ECMP
// scan every column builder shares, so flat and paged columns stay
// bit-identical by construction. u must be routed and must not be the
// destination. Like the sweep that produced the state, it reads a
// compiled total-order engine's tables directly (exec.Tables) and goes
// through the interface otherwise.
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
