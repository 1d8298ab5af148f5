// Package rib assembles per-destination solver results into a routing
// information base: the table a router would actually hold, with weight
// lookup, next-hop sets (equal-cost multipath over order-equivalent
// routes), and forwarding-path resolution with loop detection.
package rib

import (
	"fmt"
	"sort"

	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/ost"
	"metarouting/internal/prop"
	"metarouting/internal/solve"
	"metarouting/internal/value"
)

// Entry is one node's route toward one destination.
type Entry struct {
	// Weight is the selected route's weight.
	Weight value.V
	// NextHops lists every neighbour offering an order-equivalent best
	// weight (ECMP set); NextHops[0] is the solver's primary choice.
	NextHops []int
}

// RIB holds routes from every node to every requested destination.
// Internally the table is arena-flat — one *Column per destination —
// and the historical *Entry surface (Lookup) materializes views on
// demand; hot paths (Forward, ECMPWidth) read slots directly.
type RIB struct {
	eng exec.Algebra
	g   *graph.Graph
	// cols[dest] is the destination's arena column (flat or paged).
	cols map[int]Col
}

// Build computes a RIB for the given destinations and their originated
// weights, using the synchronous fixpoint solver (correct for monotone
// algebras; a converged fixpoint is a stable routing for increasing
// ones). The execution backend is chosen by exec.For over all origin
// weights; use BuildEngine to pin one. Destinations whose solver run
// does not converge are reported in the error but present (best-effort)
// in the table.
func Build(alg *ost.OrderTransform, g *graph.Graph, origins map[int]value.V) (*RIB, error) {
	vs := make([]value.V, 0, len(origins))
	for _, v := range origins {
		vs = append(vs, v)
	}
	return BuildEngine(exec.For(alg, vs...), g, origins)
}

// BuildEngine is Build over an explicit execution engine. Columns are
// built arena-form straight from the solver's index-form state.
func BuildEngine(eng exec.Algebra, g *graph.Graph, origins map[int]value.V) (*RIB, error) {
	r := &RIB{eng: eng, g: g, cols: make(map[int]Col, len(origins))}
	var unconverged []int
	ws := solve.NewWorkspace()
	for dest, origin := range origins {
		col, err := BuildDestColumn(eng, g, dest, origin, ws)
		if err != nil {
			return nil, err
		}
		if !col.Converged {
			unconverged = append(unconverged, dest)
		}
		r.cols[dest] = col
	}
	if len(unconverged) > 0 {
		return r, fmt.Errorf("rib: fixpoint did not converge for destinations %v", unconverged)
	}
	return r, nil
}

// BuildDestEngine computes the entry column for a single destination —
// the per-destination unit of work the serve snapshot builder shards
// across its worker pool. ws supplies reusable solver buffers and may be
// nil. The returned entries are freshly allocated and safe to share
// read-only across snapshots.
func BuildDestEngine(eng exec.Algebra, g *graph.Graph, dest int, origin value.V, ws *solve.Workspace) ([]*Entry, bool, error) {
	if dest < 0 || dest >= g.N {
		return nil, false, fmt.Errorf("rib: destination %d out of range", dest)
	}
	if ws == nil {
		ws = solve.NewWorkspace()
	}
	res := ws.BellmanFord(eng, g, dest, origin, 0)
	return entriesFromResult(eng, g, res), res.Converged, nil
}

// entriesFromResult builds a full entry column from a solver result.
func entriesFromResult(eng exec.Algebra, g *graph.Graph, res *solve.Result) []*Entry {
	entries := make([]*Entry, g.N)
	for u := 0; u < g.N; u++ {
		entries[u] = entryFromResult(eng, g, res, u)
	}
	return entries
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
	// ECMP: any other neighbour offering an equivalent weight. The
	// solver produced these weights, so they re-intern for free.
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

// DeltaLicensed reports whether an algebra's inferred properties license
// warm-start delta reconvergence: monotonicity (M) makes every fixpoint
// reached from realisable warm-start values path-optimal, and
// increasingness (I) gives the unique-fixpoint reconvergence guarantee
// of Daggitt & Griffin for policy-rich algebras. Only properties the
// checker established as True count — Unknown or False means the serve
// layer falls back to from-scratch rebuilds.
func DeltaLicensed(t *ost.OrderTransform) bool {
	return DeltaLicensedSet(t.Props)
}

// DeltaLicensedSet is DeltaLicensed over a bare property set — the form
// callers holding a core inference result (whose derived judgements live
// on the Algebra node, not the order transform) use to gate the serve
// layer's warm-start path.
func DeltaLicensedSet(p prop.Set) bool {
	return p.Holds(prop.MLeft) || p.Holds(prop.ILeft)
}

// DeltaDestEngine recomputes the entry column for a single destination
// after the given arc toggles, warm-starting from the previous column
// prev (which the caller asserts came from a converged build of the
// same destination and origin on the pre-toggle graph). g must be the
// post-toggle view and disabled the post-toggle mask. When the delta
// drain runs, only entries of touched nodes and toggle tails are
// rebuilt; every other node shares its previous *Entry pointer, which
// is sound because an untouched node kept its own state, its entire
// out-neighbourhood's state, and its enabled arc set. On any fallback
// (unusable warm start, oversized frontier, budget exhaustion) the
// column is rebuilt from scratch; either way the returned column is
// bit-identical to BuildDestEngine on g.
func DeltaDestEngine(eng exec.Algebra, g *graph.Graph, disabled []bool, dest int, origin value.V, ws *solve.Workspace, prev []*Entry, toggles []solve.ArcToggle) ([]*Entry, bool, solve.DeltaStats, error) {
	if dest < 0 || dest >= g.N {
		return nil, false, solve.DeltaStats{}, fmt.Errorf("rib: destination %d out of range", dest)
	}
	if ws == nil {
		ws = solve.NewWorkspace()
	}
	if len(prev) != g.N || prev[dest] == nil {
		entries, converged, err := BuildDestEngine(eng, g, dest, origin, ws)
		return entries, converged, solve.DeltaStats{}, err
	}
	prevRes := &solve.Result{
		Dest:      dest,
		Routed:    make([]bool, g.N),
		Weights:   make([]value.V, g.N),
		NextHop:   make([]int, g.N),
		Converged: true,
	}
	for u, e := range prev {
		prevRes.NextHop[u] = -1
		if e == nil {
			continue
		}
		prevRes.Routed[u] = true
		prevRes.Weights[u] = e.Weight
		if u != dest {
			prevRes.NextHop[u] = e.NextHops[0]
		}
	}
	res, st := ws.BellmanFordDelta(eng, g, disabled, dest, origin, prevRes, toggles, 0)
	if !st.UsedDelta {
		return entriesFromResult(eng, g, res), res.Converged, st, nil
	}
	entries := append([]*Entry(nil), prev...)
	for _, u := range st.Touched {
		entries[u] = entryFromResult(eng, g, res, u)
	}
	// Toggle tails outside the touched set: their weight fixpoint did
	// not move, but a raised arc can add — and a downed non-primary arc
	// can remove — an equal-cost member of their ECMP set.
	for _, t := range toggles {
		x := g.Arcs[t.Arc].From
		if x == dest || containsSorted(st.Touched, x) {
			continue
		}
		entries[x] = entryFromResult(eng, g, res, x)
	}
	return entries, true, st, nil
}

// containsSorted reports membership in an ascending int slice.
func containsSorted(xs []int, x int) bool {
	i := sort.SearchInts(xs, x)
	return i < len(xs) && xs[i] == x
}

// FromColumns assembles a RIB from per-destination flat arena columns
// computed elsewhere. The columns are adopted, not copied; callers must
// treat them as immutable afterwards.
func FromColumns(eng exec.Algebra, g *graph.Graph, cols map[int]*Column) *RIB {
	cs := make(map[int]Col, len(cols))
	for d, c := range cols {
		cs[d] = c
	}
	return &RIB{eng: eng, g: g, cols: cs}
}

// FromCols assembles a RIB from per-destination columns in either
// layout (the serve snapshot builder's constructor — its column map is
// interface-typed so paged and flat snapshots share one publish path).
// The columns are adopted, not copied.
func FromCols(eng exec.Algebra, g *graph.Graph, cols map[int]Col) *RIB {
	return &RIB{eng: eng, g: g, cols: cols}
}

// FromEntries assembles a RIB from legacy pointer columns, converting
// them to arena form (the compatibility constructor; new code should
// use FromColumns). Entry weights must intern on eng — true for every
// solver-produced column — or FromEntries panics.
func FromEntries(eng exec.Algebra, g *graph.Graph, table map[int][]*Entry) *RIB {
	cols := make(map[int]Col, len(table))
	for dest, entries := range table {
		col, err := ColumnFromEntries(eng, dest, entries, true)
		if err != nil {
			panic(fmt.Sprintf("rib: FromEntries: %v", err))
		}
		cols[dest] = col
	}
	return &RIB{eng: eng, g: g, cols: cols}
}

// Column returns dest's arena column (nil when unknown).
func (r *RIB) Column(dest int) Col {
	c, ok := r.cols[dest]
	if !ok {
		return nil
	}
	return c
}

// Engine exposes the execution engine the RIB was built on.
func (r *RIB) Engine() exec.Algebra { return r.eng }

// Destinations lists the destinations the RIB covers.
func (r *RIB) Destinations() []int {
	out := make([]int, 0, len(r.cols))
	for d := range r.cols {
		out = append(out, d)
	}
	return out
}

// Lookup returns node's entry toward dest (nil if unrouted or unknown
// destination). The entry is materialized from the arena column on
// each call; index-form readers should use Column instead.
func (r *RIB) Lookup(node, dest int) *Entry {
	c, ok := r.cols[dest]
	if !ok {
		return nil
	}
	return c.Entry(r.eng, node)
}

// Forward resolves the forwarding path from a node to dest following
// primary next hops; it fails on missing routes and forwarding loops.
func (r *RIB) Forward(from, dest int) (graph.Path, error) {
	c, ok := r.cols[dest]
	if !ok {
		return nil, fmt.Errorf("rib: unknown destination %d", dest)
	}
	return c.Forward(from)
}

// ECMPWidth returns the number of equal-cost next hops at node toward
// dest (0 when unrouted).
func (r *RIB) ECMPWidth(node, dest int) int {
	c, ok := r.cols[dest]
	if !ok {
		return 0
	}
	return len(c.NextHops(node))
}
