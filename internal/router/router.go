// Package router realizes the paper's opening equation
//
//	routing protocol = routing language + routing algorithm + proof
//
// as an API: a Router pairs an inferred algebra with a routing algorithm,
// and construction *fails* — with the inference engine's causal
// explanation — when the algebra's derived properties do not license the
// algorithm. The "proof" component is the machine-checked property
// derivation.
//
// A router picks no execution backend of its own: Engine is exec.For,
// the constructor every other solve path uses, so the -engine policy and
// the auto choice (compiled up to exec.AutoLimit, tiered past it) hold
// here too.
package router

import (
	"fmt"
	"math/rand"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/prop"
	"metarouting/internal/protocol"
	"metarouting/internal/solve"
	"metarouting/internal/value"
)

// Algorithm names a routing algorithm with a property-based license.
type Algorithm string

// The available algorithms and what licenses them.
const (
	// Dijkstra requires M ∧ ND over a full (total) preorder; yields
	// global optima.
	Dijkstra Algorithm = "dijkstra"
	// Fixpoint (synchronous Bellman–Ford/Gauss–Seidel) requires M; its
	// converged solution dominates every path (global optima over walks).
	Fixpoint Algorithm = "fixpoint"
	// PathVector requires I; the asynchronous protocol is then guaranteed
	// to converge to a stable routing (local optima).
	PathVector Algorithm = "pathvector"
	// DistanceVector requires I plus a function-fixed ⊤ (T and HasTop):
	// without paths, termination after withdrawals rests on bounded
	// counting into the ⊤ ceiling.
	DistanceVector Algorithm = "distancevector"
)

// Algorithms lists every algorithm in display order.
var Algorithms = []Algorithm{Dijkstra, Fixpoint, PathVector, DistanceVector}

// LicenseError reports a refused pairing, carrying the engine's causal
// explanation of the missing property.
type LicenseError struct {
	Algorithm Algorithm
	Missing   prop.ID
	// Explanation is Algebra.Explain(Missing).
	Explanation string
}

// Error implements error.
func (e *LicenseError) Error() string {
	return fmt.Sprintf("router: %s requires %s, which the algebra lacks:\n%s",
		e.Algorithm, e.Missing, e.Explanation)
}

// Router is a licensed (algebra, algorithm) pairing.
type Router struct {
	// Algebra is the inferred routing algebra.
	Algebra *core.Algebra
	// Algo is the licensed algorithm.
	Algo Algorithm
}

// New checks the license and builds a Router. The returned error, when
// non-nil, is a *LicenseError naming the first missing property with its
// causal explanation.
func New(a *core.Algebra, algo Algorithm) (*Router, error) {
	var required []prop.ID
	switch algo {
	case Dijkstra:
		required = []prop.ID{prop.MLeft, prop.NDLeft, prop.Full}
	case Fixpoint:
		required = []prop.ID{prop.MLeft}
	case PathVector:
		required = []prop.ID{prop.ILeft}
	case DistanceVector:
		required = []prop.ID{prop.ILeft, prop.HasTop, prop.TopFixed}
	default:
		return nil, fmt.Errorf("router: unknown algorithm %q", algo)
	}
	for _, id := range required {
		if !a.Props.Holds(id) {
			return nil, &LicenseError{Algorithm: algo, Missing: id, Explanation: a.Explain(id)}
		}
	}
	return &Router{Algebra: a, Algo: algo}, nil
}

// Licensed returns the algorithms the algebra's properties license, in
// display order — the "what may I run?" query.
func Licensed(a *core.Algebra) []Algorithm {
	var out []Algorithm
	for _, algo := range Algorithms {
		if _, err := New(a, algo); err == nil {
			out = append(out, algo)
		}
	}
	return out
}

// Engine returns the execution engine for one originated weight:
// exec.For's, the one rib, solve and serve build on the same algebra.
func (r *Router) Engine(origin value.V) exec.Algebra { return exec.For(r.Algebra.OT, origin) }

// Solve computes routes to dest with the licensed algorithm on Engine's
// backend. The asynchronous algorithms (PathVector, DistanceVector) are
// driven with a seeded scheduler and their quiescent state is returned
// in Result form.
func (r *Router) Solve(g *graph.Graph, dest int, origin value.V, seed int64) (*solve.Result, error) {
	eng := r.Engine(origin)
	switch r.Algo {
	case Dijkstra:
		return solve.DijkstraEngine(eng, g, dest, origin), nil
	case Fixpoint:
		res := solve.BellmanFordEngine(eng, g, dest, origin, 0)
		if !res.Converged {
			return res, fmt.Errorf("router: fixpoint did not converge within budget")
		}
		return res, nil
	case PathVector, DistanceVector:
		out := protocol.RunEngine(eng, g, protocol.Config{
			Dest: dest, Origin: origin, MaxDelay: 3,
			Rand:           rand.New(rand.NewSource(seed)),
			DistanceVector: r.Algo == DistanceVector,
		})
		if !out.Converged {
			return nil, fmt.Errorf("router: protocol did not quiesce within budget")
		}
		res := &solve.Result{
			Dest:      dest,
			Routed:    out.Routed,
			Weights:   out.Weights,
			NextHop:   out.NextHop,
			Rounds:    out.Steps,
			Converged: true,
		}
		return res, nil
	default:
		return nil, fmt.Errorf("router: unknown algorithm %q", r.Algo)
	}
}

// Guarantee describes, in prose, what the licensed pairing promises —
// the statement the paper's proof component would make.
func (r *Router) Guarantee() string {
	switch r.Algo {
	case Dijkstra:
		return "globally optimal routes: M ∧ ND over a total preorder make the greedy settle order exact"
	case Fixpoint:
		return "path-dominating routes: M makes the converged fixpoint ≲ every path weight"
	case PathVector:
		return "convergence to a stable routing under any message schedule: I forbids policy disputes"
	case DistanceVector:
		return "convergence with bounded counting: I drives weights into the function-fixed ⊤ after loss"
	default:
		return "unknown"
	}
}
