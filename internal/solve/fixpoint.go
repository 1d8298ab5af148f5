package solve

import (
	"metarouting/internal/graph"
	"metarouting/internal/sgt"
	"metarouting/internal/value"
)

// FixpointResult is the solution of the algebraic iteration
// x ← A(x) ⊕ b over a semigroup transform.
type FixpointResult struct {
	// Dest is the destination node.
	Dest int
	// Routed marks nodes whose weight is defined.
	Routed []bool
	// Weights holds the ⊕-summarized weight per node.
	Weights []value.V
	// Rounds counts iterations performed.
	Rounds int
	// Converged reports whether a fixpoint was reached.
	Converged bool
}

// Fixpoint solves the single-destination routing equations over a
// semigroup transform (S, ⊕, F):
//
//	x_dest = origin
//	x_u    = ⊕ { f_(u,v)(x_v) : arcs (u,v) }       (u ≠ dest)
//
// by Jacobi iteration from the origin, stopping at a fixpoint or after
// maxRounds (≤ 0 means 2·N+4). This is the Gondran–Minoux style algebraic
// path algorithm; with the min-set transform of internal/quadrant it
// computes the full set of Pareto-optimal weights under a partial order.
func Fixpoint(alg *sgt.SemigroupTransform, g *graph.Graph, dest int, origin value.V, maxRounds int) *FixpointResult {
	if maxRounds <= 0 {
		maxRounds = 2*g.N + 4
	}
	res := &FixpointResult{
		Dest:    dest,
		Routed:  make([]bool, g.N),
		Weights: make([]value.V, g.N),
	}
	res.Routed[dest] = true
	res.Weights[dest] = origin
	for round := 1; round <= maxRounds; round++ {
		prevW := append([]value.V(nil), res.Weights...)
		prevR := append([]bool(nil), res.Routed...)
		changed := false
		for u := 0; u < g.N; u++ {
			if u == dest {
				continue
			}
			var acc value.V
			have := false
			for _, h := range g.OutHops(u) {
				v := h.Node
				if !prevR[v] {
					continue
				}
				cand := alg.F.Fns[h.Label].Apply(prevW[v])
				if !have {
					acc, have = cand, true
				} else {
					acc = alg.Add.Op(acc, cand)
				}
			}
			if !have {
				if res.Routed[u] {
					res.Routed[u] = false
					changed = true
				}
				continue
			}
			if !res.Routed[u] || res.Weights[u] != acc {
				res.Routed[u] = true
				res.Weights[u] = acc
				changed = true
			}
		}
		res.Rounds = round
		if !changed {
			res.Converged = true
			return res
		}
	}
	res.Converged = false
	return res
}
