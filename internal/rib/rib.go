// Package rib assembles per-destination solver results into a routing
// information base: the table a router would actually hold, with weight
// lookup, next-hop sets (equal-cost multipath over order-equivalent
// routes), and forwarding-path resolution with loop detection.
package rib

import (
	"fmt"

	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/ost"
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
// Internally the table is one paged column per destination, and the
// historical *Entry surface (Lookup) materializes views on demand; hot
// paths (Forward, ECMPWidth) read slots directly.
type RIB struct {
	eng  exec.Algebra
	g    *graph.Graph
	cols map[int]*PagedColumn
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
// built paged (BuildDestPaged) straight from the solver's index-form
// state.
func BuildEngine(eng exec.Algebra, g *graph.Graph, origins map[int]value.V) (*RIB, error) {
	r := &RIB{eng: eng, g: g, cols: make(map[int]*PagedColumn, len(origins))}
	var unconverged []int
	ws := solve.NewWorkspace()
	for dest, origin := range origins {
		col, err := BuildDestPaged(eng, g, dest, origin, ws)
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

// FromColumns assembles a RIB from per-destination paged columns
// computed elsewhere — the serve snapshot builder's constructor. The
// columns are adopted, not copied; callers must treat them as immutable
// afterwards.
func FromColumns(eng exec.Algebra, g *graph.Graph, cols map[int]*PagedColumn) *RIB {
	return &RIB{eng: eng, g: g, cols: cols}
}

// Column returns dest's column (nil when unknown).
func (r *RIB) Column(dest int) *PagedColumn { return r.cols[dest] }

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
