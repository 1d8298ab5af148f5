// Package solve implements the routing algorithms that consume metarouting
// algebras: a generalized Dijkstra for monotone algebras (global optima),
// a synchronous Bellman–Ford iteration (the idealized distance/path-vector
// dynamics, converging to local optima for increasing algebras), an
// algebraic fixpoint solver for semigroup transforms, and brute-force
// ground truth plus optimality verifiers used by the experiments.
//
// All solvers compute routes *toward* a single destination: the
// destination originates a weight, and the weight of a route at node u is
// the composition of arc functions along the path applied to that origin,
// per §II's functional weight model.
package solve

import (
	"fmt"

	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/ost"
	"metarouting/internal/value"
)

// Result is a single-destination routing solution.
type Result struct {
	// Dest is the destination node.
	Dest int
	// Routed marks nodes that hold a route to Dest.
	Routed []bool
	// Weights holds each routed node's route weight.
	Weights []value.V
	// NextHop holds each routed node's forwarding neighbour (-1 at Dest).
	NextHop []int
	// Rounds counts iterations (Bellman–Ford/fixpoint) or settle steps
	// (Dijkstra).
	Rounds int
	// Converged reports whether the solver reached a fixpoint within its
	// round budget. Dijkstra always converges.
	Converged bool
}

// Route reconstructs the node path from u to the destination by following
// next hops; ok is false if u has no route or a forwarding loop is hit.
func (r *Result) Route(u int) (graph.Path, bool) {
	return r.route(u, make([]int, len(r.Routed)), 1)
}

// route is Route against caller-owned loop-detection scratch: a node is
// on the current chain iff seen[node] == stamp, so one slice serves many
// walks without clearing. Results are shared across goroutines via
// snapshots, which is why the scratch lives with the caller rather than
// being cached on r.
func (r *Result) route(u int, seen []int, stamp int) (graph.Path, bool) {
	if !r.Routed[u] {
		return nil, false
	}
	var p graph.Path
	for u != r.Dest {
		if seen[u] == stamp {
			return nil, false // forwarding loop
		}
		seen[u] = stamp
		p = append(p, u)
		u = r.NextHop[u]
		if u < 0 {
			return nil, false
		}
	}
	return append(p, r.Dest), true
}

// LoopFree reports whether every routed node's next-hop chain reaches the
// destination without revisiting a node.
func (r *Result) LoopFree() bool {
	seen := make([]int, len(r.Routed))
	for u := range r.Routed {
		if !r.Routed[u] {
			continue
		}
		if _, ok := r.route(u, seen, u+1); !ok {
			return false
		}
	}
	return true
}

// arcFn resolves an arc's function.
func arcFn(alg *ost.OrderTransform, g *graph.Graph, arcIdx int) func(value.V) value.V {
	return alg.F.Fns[g.Arcs[arcIdx].Label].Apply
}

// Dijkstra computes routes to dest with the generalized Dijkstra
// algorithm: repeatedly settle an unsettled node whose tentative weight is
// minimal under the algebra's preorder, then relax the in-arcs of the
// settled node. For monotone algebras over total preorders the result is
// globally optimal (§II); for non-monotone algebras the result is
// well-defined but carries no optimality guarantee — exactly the
// distinction the experiments probe.
//
// The execution backend is chosen by exec.For: finite algebras run on
// compiled tables, everything else interprets the order transform. Use
// DijkstraEngine to pin a backend explicitly.
func Dijkstra(alg *ost.OrderTransform, g *graph.Graph, dest int, origin value.V) *Result {
	return DijkstraEngine(exec.For(alg, origin), g, dest, origin)
}

// BellmanFord runs the synchronous distributed iteration: in each round
// every node recomputes its best route from its neighbours' previous-round
// routes. This is the idealized dynamics of distance/path-vector
// protocols. It stops at a fixpoint or after maxRounds (≤ 0 means 2·N+4).
// For increasing algebras the fixpoint is a local optimum; non-increasing
// algebras may oscillate forever, which the Converged flag reports.
// The execution backend is chosen by exec.For; use BellmanFordEngine to
// pin one explicitly.
func BellmanFord(alg *ost.OrderTransform, g *graph.Graph, dest int, origin value.V, maxRounds int) *Result {
	return BellmanFordEngine(exec.For(alg, origin), g, dest, origin, maxRounds)
}

// GaussSeidel is BellmanFord with in-place (chaotic relaxation) updates:
// within a round, nodes immediately see the updates of lower-numbered
// nodes. For monotone algebras it converges to the same fixpoint as the
// Jacobi iteration, usually in fewer rounds — the ablation benches
// quantify the gap. maxRounds ≤ 0 picks the same default budget.
// The execution backend is chosen by exec.For; use GaussSeidelEngine to
// pin one explicitly.
func GaussSeidel(alg *ost.OrderTransform, g *graph.Graph, dest int, origin value.V, maxRounds int) *Result {
	return GaussSeidelEngine(exec.For(alg, origin), g, dest, origin, maxRounds)
}

// BruteForce enumerates every simple path from each node to dest (up to
// maxLen hops; ≤ 0 means N-1) and returns, per node, the set of minimal
// path weights under the algebra's preorder — the ground truth for global
// optimality. Exponential; intended for small graphs.
func BruteForce(alg *ost.OrderTransform, g *graph.Graph, dest int, origin value.V, maxLen int) [][]value.V {
	// Resolve each arc's function once — re-deriving the closure through
	// arcFn per path step dominated the inner loop on dense graphs.
	fns := make([]func(value.V) value.V, len(g.Arcs))
	for i := range g.Arcs {
		fns[i] = alg.F.Fns[g.Arcs[i].Label].Apply
	}
	out := make([][]value.V, g.N)
	for u := 0; u < g.N; u++ {
		if u == dest {
			out[u] = []value.V{origin}
			continue
		}
		var weights []value.V
		for _, path := range g.SimplePaths(u, dest, maxLen) {
			w := origin
			for i := len(path) - 1; i >= 0; i-- {
				w = fns[path[i]](w)
			}
			weights = append(weights, w)
		}
		out[u] = alg.Ord.MinSet(weights)
	}
	return out
}

// VerifyGlobal checks a solution against brute-force ground truth: every
// routed node's weight must be equivalent to some minimal path weight and
// ≲ every minimal path weight; nodes with paths must be routed. It
// returns ok plus a human-readable discrepancy report ("" when ok).
func VerifyGlobal(alg *ost.OrderTransform, g *graph.Graph, dest int, origin value.V, res *Result) (bool, string) {
	truth := BruteForce(alg, g, dest, origin, 0)
	for u := 0; u < g.N; u++ {
		switch {
		case len(truth[u]) == 0 && res.Routed[u]:
			return false, fmt.Sprintf("node %d routed but has no path", u)
		case len(truth[u]) > 0 && !res.Routed[u]:
			return false, fmt.Sprintf("node %d has paths but no route", u)
		case len(truth[u]) == 0:
			continue
		}
		w := res.Weights[u]
		matched := false
		for _, t := range truth[u] {
			if alg.Ord.Equiv(w, t) {
				matched = true
			}
			if alg.Ord.Lt(t, w) {
				return false, fmt.Sprintf("node %d: weight %s is strictly worse than optimal %s",
					u, value.Format(w), value.Format(t))
			}
		}
		if !matched {
			return false, fmt.Sprintf("node %d: weight %s matches no optimal weight %s",
				u, value.Format(w), value.FormatSet(truth[u]))
		}
	}
	return true, ""
}

// VerifyDominates checks the M-only ("walk optimum") guarantee: a
// converged fixpoint over a monotone algebra yields weights that are ≲
// the weight of *every* simple path, because simple paths are a subset of
// the walks the fixpoint minimizes over. Unlike VerifyGlobal it does not
// require the weight to be realized by a simple path — for monotone but
// non-nondecreasing algebras (e.g. scoped products whose inter-region
// arcs originate fresh attributes) the optimum may only be realized by a
// walk.
func VerifyDominates(alg *ost.OrderTransform, g *graph.Graph, dest int, origin value.V, res *Result) (bool, string) {
	for u := 0; u < g.N; u++ {
		if u == dest {
			continue
		}
		for _, path := range g.SimplePaths(u, dest, 0) {
			w := origin
			for i := len(path) - 1; i >= 0; i-- {
				w = arcFn(alg, g, path[i])(w)
			}
			if !res.Routed[u] {
				return false, fmt.Sprintf("node %d has a path but no route", u)
			}
			if !alg.Ord.Leq(res.Weights[u], w) {
				return false, fmt.Sprintf("node %d: weight %s does not dominate path weight %s",
					u, value.Format(res.Weights[u]), value.Format(w))
			}
		}
	}
	return true, ""
}

// VerifyLocal checks local optimality (stability): every routed node's
// weight equals the application of its next-hop arc to the next hop's
// weight, and no alternative arc offers a strictly better weight given the
// neighbours' current routes — i.e. the solution is a stable routing in
// Sobrinho's sense.
func VerifyLocal(alg *ost.OrderTransform, g *graph.Graph, dest int, origin value.V, res *Result) (bool, string) {
	if !res.Routed[dest] || !alg.Ord.Equiv(res.Weights[dest], origin) {
		return false, "destination must hold its originated weight"
	}
	for u := 0; u < g.N; u++ {
		if u == dest {
			continue
		}
		if !res.Routed[u] {
			// Unrouted is stable only if no neighbour offers a route.
			for _, h := range g.OutHops(u) {
				if res.Routed[h.Node] {
					return false, fmt.Sprintf("node %d unrouted but neighbour %d has a route", u, h.Node)
				}
			}
			continue
		}
		// Weight consistency with the chosen next hop.
		nhLabel := -1
		for _, h := range g.OutHops(u) {
			if int(h.Node) == res.NextHop[u] {
				nhLabel = int(h.Label)
				break
			}
		}
		if nhLabel < 0 || !res.Routed[res.NextHop[u]] {
			return false, fmt.Sprintf("node %d: next hop %d invalid", u, res.NextHop[u])
		}
		expect := alg.F.Fns[nhLabel].Apply(res.Weights[res.NextHop[u]])
		if res.Weights[u] != expect && !alg.Ord.Equiv(res.Weights[u], expect) {
			return false, fmt.Sprintf("node %d: weight %s inconsistent with next hop (%s)",
				u, value.Format(res.Weights[u]), value.Format(expect))
		}
		// No strictly better alternative.
		for _, h := range g.OutHops(u) {
			v := h.Node
			if !res.Routed[v] {
				continue
			}
			cand := alg.F.Fns[h.Label].Apply(res.Weights[v])
			if alg.Ord.Lt(cand, res.Weights[u]) {
				return false, fmt.Sprintf("node %d: arc to %d offers %s, better than %s",
					u, v, value.Format(cand), value.Format(res.Weights[u]))
			}
		}
	}
	return true, ""
}
