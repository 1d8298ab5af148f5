package solve

import (
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/value"
)

// WorklistEngine solves a single destination with the worklist drain from
// scratch — an oracle the differentials hold the sweep and the kernels
// to; the result is bit-identical to BellmanFordEngine whenever the
// synchronous solver converges. maxPops ≤ 0 applies the default budget.
func WorklistEngine(eng exec.Algebra, g *graph.Graph, dest int, origin value.V, maxPops int) *Result {
	return NewWorkspace().Worklist(eng, g, dest, origin, maxPops)
}

// Worklist runs the worklist drain out of the workspace's reusable
// buffers, seeding from the destination's in-neighbours.
func (ws *Workspace) Worklist(eng exec.Algebra, g *graph.Graph, dest int, origin value.V, maxPops int) *Result {
	o := exec.MustIntern(eng, origin)
	ws.reset(g.N, dest, o)
	ws.resetWorklist(g.N)
	for _, h := range g.RevIn().InHops(dest) {
		ws.push(int(h.Node), dest)
	}
	pops, _, converged := ws.drain(eng, g, nil, dest, maxPops, nil, false)
	return ws.materialize(eng, dest, pops, converged)
}

// verifyFull is the certificate every chain walked: the verdict the
// ⊤-only walks of VerifyForwardTree and verifyTouched must reproduce.
func (ws *Workspace) verifyFull(raw Raw) bool {
	return ws.verifyAll(len(raw.Routed), raw.Dest, nil)
}
