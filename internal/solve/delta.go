package solve

import (
	"slices"
	"time"

	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/value"
)

// This file holds the worklist (SPFA-style) variant of the engine-backed
// Bellman–Ford and its delta entry point. Instead of sweeping every node
// each round, a FIFO of dirty nodes is drained to fixpoint: popping a
// node recomputes its best weight from its out-arcs with the exact
// selection loop of the synchronous solver (first arc achieving a
// minimal candidate wins), and a routedness-or-weight change re-dirties
// the node's in-neighbours through the unmasked base graph's in-rows
// (Graph.RevIn). The delta entry point warm-starts that drain from a
// previous Result: for an arc-down event the forwarding subtree that
// routed through the arc is invalidated before re-relaxation (so stale
// local optima cannot survive on non-tree nodes they were never valid for),
// for an arc-up event the arc's tail is seeded, and everything outside
// the frontier keeps its previous fixpoint value untouched.

// ArcToggle describes one net arc state change feeding a delta solve:
// arc index plus its new state (Down true = arc now disabled).
type ArcToggle struct {
	Arc  int
	Down bool
}

// DeltaStats reports how a delta solve ran. When UsedDelta is false the
// solver fell back to a from-scratch Bellman–Ford (unusable previous
// result, frontier too large, or the drain failed to converge inside
// its budget) and only Frontier is meaningful.
type DeltaStats struct {
	// UsedDelta is true when the warm-start drain produced the result.
	UsedDelta bool
	// Frontier is the number of seed nodes (invalidated subtree members
	// plus up-arc tails) the toggles dirtied.
	Frontier int
	// Pops counts worklist pops; Relaxations counts arc relaxations.
	Pops        int
	Relaxations uint64
	// Touched lists, in ascending order, every node that was ever
	// enqueued during the drain — a superset of the nodes whose
	// routedness, weight or next hop differs from the previous result.
	// A node absent from Touched also kept its out-neighbours' weights,
	// so its equal-cost set can differ only through its own out-row: only
	// at the tail of a toggle handed to the solve, which the RIB layer
	// refills beside Touched. A toggle the caller left out because it
	// cannot move the column (serve's per-toggle skip rule) moves no
	// equal-cost set either. Every other entry is reused by pointer.
	Touched []int
	// Clean reports that the produced fixpoint was verified to be a
	// clean dest-rooted forwarding tree — every routed node's primary
	// next-hop chain reaches the destination (see VerifyForwardTree).
	// Only BellmanFordDeltaRaw/Log set it; a clean result licenses the
	// O(frontier) sparse warm start on the next delta for the same
	// destination.
	Clean bool
}

// defaultPopBudget mirrors the synchronous solver's round budget: the
// sweep solver gives up after 2N+4 rounds of N node recomputations, so
// the worklist gives up after the same number of pops. Algebras that
// oscillate (non-monotone policy gadgets) hit the budget and report
// Converged=false instead of looping forever.
func defaultPopBudget(n int) int { return (2*n+4)*n + n + 4 }

// WorklistEngine solves a single destination with the worklist solver;
// the result is bit-identical to BellmanFordEngine whenever the
// synchronous solver converges. maxPops ≤ 0 applies the default budget.
func WorklistEngine(eng exec.Algebra, g *graph.Graph, dest int, origin value.V, maxPops int) *Result {
	return NewWorkspace().Worklist(eng, g, dest, origin, maxPops)
}

// Worklist runs the worklist solver out of the workspace's reusable
// buffers, seeding from the destination's in-neighbours.
func (ws *Workspace) Worklist(eng exec.Algebra, g *graph.Graph, dest int, origin value.V, maxPops int) *Result {
	var t0 time.Time
	if ws.Metrics != nil {
		t0 = time.Now()
	}
	o := exec.MustIntern(eng, origin)
	ws.reset(g.N, dest, o)
	ws.resetWorklist(g.N)
	for _, h := range g.RevIn().InHops(dest) {
		ws.push(int(h.Node), dest)
	}
	pops, relaxations, converged := ws.drain(eng, g, nil, dest, maxPops, nil)
	res := ws.materialize(eng, dest, pops, converged)
	if m := ws.Metrics; m != nil {
		m.Runs.Inc()
		m.Rounds.Add(uint64(pops))
		m.Relaxations.Add(relaxations)
		m.SolveNS.Observe(time.Since(t0).Nanoseconds())
	}
	return res
}

// WarmStart supplies one node's previous fixpoint state to
// BellmanFordDeltaRaw in index form: routed, the engine weight index,
// and the primary next hop (-1 at the destination and at unrouted
// nodes). Answered straight from a column's slots, it lets delta warm
// starts share state by index instead of re-interning a column of
// interface values.
type WarmStart func(u int) (routed bool, w int32, nextHop int)

// WarmLoader is a previous column as the lazy warm-start overlay reads
// it, one field at a time: a node's routedness and weight index when the
// overlay first touches it, its primary next hop (-1 at the destination
// and at unrouted nodes) only where a warm start needs that too (see
// Workspace.hop). rib.DeltaDestPaged hands in its previous column itself,
// so a rebuild allocates no loader; a WarmStart is one as well.
type WarmLoader interface {
	Weight(u int) (routed bool, w int32)
	NextHop(u int) int
}

// Weight is f(u) without the next hop.
func (f WarmStart) Weight(u int) (bool, int32) {
	r, w, _ := f(u)
	return r, w
}

// NextHop is f(u)'s next hop.
func (f WarmStart) NextHop(u int) int {
	_, _, nh := f(u)
	return nh
}

// BellmanFordDeltaRaw re-solves dest after the given arc toggles,
// warm-starting from prev, and returns a workspace-aliased Raw. g must
// already be the post-toggle view and disabled the post-toggle mask (nil
// is accepted and only costs wasted pops). prev must describe a
// converged fixpoint for the same destination and origin on the
// pre-toggle graph (the caller asserts convergence; the origin is
// re-checked here). The result is bit-identical to a from-scratch build
// on g for algebras whose plan opens the delta path (Plan.Warm: M or I —
// the caller gates on it). Whenever the warm start is unusable — a
// mismatched origin, a frontier of half the graph or more, or a drain
// that exhausts maxPops — the from-scratch solver runs (ScratchRaw: the
// licensed best-first kernel or the sweep) and only DeltaStats.Frontier
// and Clean are meaningful, so the answer is correct for every algebra;
// only the speed differs.
//
// cleanPrev, asserted by the caller, certifies that prev is a clean
// dest-rooted forwarding tree (the previous column's verified Clean
// flag). It selects the sparse warm start: previous state is
// materialized lazily through prev only where the drain looks, the
// dense path's O(N) loading, purging and indexing passes are skipped
// entirely (sound because the purge is a no-op on a clean tree), and
// the whole delta costs O(frontier·deg). On the sparse path the
// returned Raw is only populated at touched nodes, toggle tails and
// their out-neighbourhoods — exactly the slots the RIB delta rebuild
// reads, next hops at the first two only; every other entry is stale
// scratch.
func (ws *Workspace) BellmanFordDeltaRaw(eng exec.Algebra, g *graph.Graph, disabled []bool, dest int, origin value.V, prev WarmStart, cleanPrev bool, toggles []ArcToggle, maxPops int) (Raw, DeltaStats) {
	return ws.BellmanFordDeltaLog(eng, g, disabled, dest, origin, prev, cleanPrev, nil, toggles, maxPops)
}

// BellmanFordDeltaLog is BellmanFordDeltaRaw with the warm start read
// through a WarmLoader and given the previous column's
// derivation log as well (DerivationLog; nil when it has none). When prev
// is not certified clean, the log is non-nil and the workspace's plan
// says WarmLog, it takes the third warm start (derivation.go): a forward pass
// over the log finds the entries the batch's failed arcs invalidated,
// and a drain seeded with the nodes whose last entry went invalid and
// the toggle tails lowers the state to the new fixpoint, recording its
// own improvements — O(log + frontier) for fail, restore and mixed
// batches alike, with the Raw populated as on the sparse path. Clean is
// then verified over every routed node, since the previous column was
// not a clean tree. Afterwards DerivationLog returns the new column's
// log on this path and on a scratch fallback that ran the kernel.
func (ws *Workspace) BellmanFordDeltaLog(eng exec.Algebra, g *graph.Graph, disabled []bool, dest int, origin value.V, prev WarmLoader, cleanPrev bool, log []int32, toggles []ArcToggle, maxPops int) (Raw, DeltaStats) {
	var t0 time.Time
	if ws.Metrics != nil {
		t0 = time.Now()
	}
	scratch := func(frontier int) (Raw, DeltaStats) {
		raw := ws.ScratchRaw(eng, g, dest, origin)
		clean := raw.Converged && ws.VerifyForwardTree(raw)
		return raw, DeltaStats{Frontier: frontier, Clean: clean}
	}
	o := exec.MustIntern(eng, origin)
	if routedD, wD := prev.Weight(dest); !routedD || wD != o {
		return scratch(0)
	}
	var pops, frontier int
	var relaxations uint64
	var ok bool
	var warm WarmLoader
	plan := ws.plan(eng)
	logWarm := !cleanPrev && log != nil && plan.Warm == WarmLog
	if cleanPrev || logWarm {
		warm = prev
		ws.sparseReset(g.N)
		ws.loadNode(dest, true, o, -1)
	}
	if logWarm {
		t := plan.Kernel.Table
		ws.replayLog(t, g, disabled, dest, o, log, toggles)
		pops, relaxations, frontier, ok = ws.deltaDrainLog(t, g, disabled, dest, prev, toggles, maxPops)
	} else if cleanPrev {
		pops, relaxations, frontier, ok = ws.deltaDrainSparse(eng, g, disabled, dest, prev, toggles, maxPops)
	} else {
		ws.reset(g.N, dest, o)
		ws.resetWorklist(g.N)
		for u := 0; u < g.N; u++ {
			if u == dest {
				continue
			}
			routed, w := prev.Weight(u)
			if !routed {
				continue
			}
			ws.routed[u] = true
			ws.w[u] = w
			ws.nextHop[u] = prev.NextHop(u)
		}
		pops, relaxations, frontier, ok = ws.deltaDrain(eng, g, disabled, dest, toggles, maxPops)
	}
	if !ok {
		return scratch(frontier)
	}
	// Certify the new fixpoint for the next warm start. Touched chains
	// suffice after the dense and sparse warm starts: those were purged
	// or certified clean, so any new forwarding cycle must pass through a
	// touched node — see verifyTouched. The log warm start started from a
	// column that was not a clean tree, so every chain is walked; on an
	// unclean result the first loop ends the walk.
	st := DeltaStats{
		UsedDelta:   true,
		Frontier:    frontier,
		Pops:        pops,
		Relaxations: relaxations,
		Touched:     ws.sortedTouched(),
	}
	if logWarm {
		st.Clean = ws.verifyAll(g.N, dest, warm)
		ws.logged = true
	} else {
		st.Clean = ws.verifyTouched(g.N, dest, warm)
	}
	if m := ws.Metrics; m != nil {
		m.Runs.Inc()
		m.Rounds.Add(uint64(pops))
		m.Relaxations.Add(relaxations)
		m.SolveNS.Observe(time.Since(t0).Nanoseconds())
	}
	return ws.raw(dest, pops, true), st
}

// deltaDrain is the shared warm-start core: with the previous fixpoint
// already loaded into the workspace state it builds the forwarding-tree
// children index, invalidates ⊤-plateau phantom routes and downed
// subtrees, seeds the frontier, and drains the worklist. ok is false
// when the caller must fall back to the from-scratch sweep (frontier at
// half the graph or more, or an unconverged drain).
func (ws *Workspace) deltaDrain(eng exec.Algebra, g *graph.Graph, disabled []bool, dest int, toggles []ArcToggle, maxPops int) (pops int, relaxations uint64, frontier int, ok bool) {
	// Children index over the previous forwarding tree (descending node
	// order so each child list comes out ascending).
	for u := g.N - 1; u >= 0; u-- {
		if u == dest || !ws.routed[u] || ws.nextHop[u] < 0 {
			continue
		}
		p := ws.nextHop[u]
		ws.childNext[u] = ws.childHead[p]
		ws.childHead[p] = int32(u)
	}
	// Routed nodes whose next-hop chain never reaches dest — ⊤-plateau
	// forwarding loops that sustain each other circularly — must not
	// survive the warm start: their support is not a real path, so it
	// can outlive the connectivity that once seeded it and leave phantom
	// routes a from-scratch build would not have. Mark the dest-rooted
	// tree through the children index and invalidate everything routed
	// outside it.
	inTree := ws.inTree
	for i := range inTree {
		inTree[i] = false
	}
	inTree[dest] = true
	var stack []int
	stack = append(stack, dest)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for c := ws.childHead[s]; c >= 0; c = ws.childNext[c] {
			if !inTree[c] {
				inTree[c] = true
				stack = append(stack, int(c))
			}
		}
	}
	for u := 0; u < g.N; u++ {
		if u != dest && ws.routed[u] && !inTree[u] {
			ws.routed[u] = false
			ws.nextHop[u] = -1
			ws.push(u, dest)
		}
	}
	// Frontier: invalidate the forwarding subtree behind each downed
	// primary arc (every node whose chain traversed the arc), then seed
	// the tail of each raised arc.
	for _, t := range toggles {
		if !t.Down {
			continue
		}
		x, y := g.Arcs[t.Arc].From, g.Arcs[t.Arc].To
		if x == dest || !ws.routed[x] || ws.nextHop[x] != y {
			continue
		}
		stack = append(stack[:0], x)
		for len(stack) > 0 {
			s := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !ws.routed[s] {
				continue
			}
			ws.routed[s] = false
			ws.nextHop[s] = -1
			ws.push(s, dest)
			for c := ws.childHead[s]; c >= 0; c = ws.childNext[c] {
				stack = append(stack, int(c))
			}
		}
	}
	// Invalidation flips nodes to unrouted silently — no pop ever
	// reports the transition for nodes that stay unrouted — yet a
	// neighbour outside the frontier may have held one of them as an
	// equal-cost alternative. Push the in-neighbours of every
	// invalidated node so they rescan and land in the touched set (their
	// weights won't move; this is an entry-level obligation).
	rev := g.RevIn()
	for i, inval := 0, len(ws.queue); i < inval; i++ {
		ws.pushTails(rev, disabled, ws.queue[i], dest)
	}
	for _, t := range toggles {
		if !t.Down && g.Arcs[t.Arc].From != dest {
			ws.push(g.Arcs[t.Arc].From, dest)
		}
	}
	frontier = len(ws.queue)
	if 2*frontier >= g.N {
		// Heuristic cutover: a frontier of half the nodes or more will
		// touch most of the graph anyway — the sweep solver's tight loop
		// wins over worklist bookkeeping.
		return 0, 0, frontier, false
	}
	var converged bool
	pops, relaxations, converged = ws.drain(eng, g, disabled, dest, maxPops, nil)
	if !converged {
		return pops, relaxations, frontier, false
	}
	return pops, relaxations, frontier, true
}

// resetWorklist sizes and clears the worklist scratch for an n-node
// drain.
func (ws *Workspace) resetWorklist(n int) {
	if cap(ws.dirty) < n {
		ws.dirty = make([]bool, n)
		ws.touched = make([]bool, n)
		ws.childHead = make([]int32, n)
		ws.childNext = make([]int32, n)
	}
	ws.dirty = ws.dirty[:n]
	ws.touched = ws.touched[:n]
	ws.childHead = ws.childHead[:n]
	ws.childNext = ws.childNext[:n]
	for i := 0; i < n; i++ {
		ws.dirty[i] = false
		ws.touched[i] = false
		ws.childHead[i] = -1
		ws.childNext[i] = -1
	}
	ws.queue = ws.queue[:0]
	ws.touchList = ws.touchList[:0]
}

// push enqueues u for recomputation unless it is the destination or
// already queued, and records it in the ever-touched set.
func (ws *Workspace) push(u, dest int) {
	if u == dest || ws.dirty[u] {
		return
	}
	ws.dirty[u] = true
	ws.queue = append(ws.queue, u)
	if !ws.touched[u] {
		ws.touched[u] = true
		ws.touchList = append(ws.touchList, u)
	}
}

// pushTails enqueues the tail of every enabled arc entering u. rev is
// the unmasked base graph (Graph.RevIn), whose rows list masked arcs
// too; disabled skips them. A nil mask skips none, which merely enqueues
// tails that will rescan to no change.
func (ws *Workspace) pushTails(rev *graph.Graph, disabled []bool, u, dest int) {
	ais := rev.In(u)
	for k, h := range rev.InHops(u) {
		if ai := int(ais[k]); ai < len(disabled) && disabled[ai] {
			continue
		}
		ws.push(int(h.Node), dest)
	}
}

// sortedTouched returns a fresh ascending copy of the ever-enqueued set.
// The set is short on a typical toggle but not by construction: the
// frontier cutover bounds it only by N/2, and on a scale-free graph one
// hub uplink failure touches thousands of nodes.
func (ws *Workspace) sortedTouched() []int {
	out := append([]int(nil), ws.touchList...)
	slices.Sort(out)
	return out
}

// drain runs the worklist to fixpoint (or until maxPops, ≤ 0 meaning
// the default budget). Popping a node rescans its enabled out-arcs
// against live state with the synchronous solver's exact selection loop
// — first arc achieving a minimal candidate — so tie-breaks agree with
// a from-scratch build; a routedness or weight change then dirties the
// node's in-neighbours (pushTails). warm, when non-nil, runs the drain
// over the sparse lazy overlay: popped nodes and scanned out-neighbours
// are materialized from the previous fixpoint on first access instead of
// having been bulk-loaded — weights only, since a pop writes its node's
// next hop and a scan reads none.
func (ws *Workspace) drain(eng exec.Algebra, g *graph.Graph, disabled []bool, dest, maxPops int, warm WarmLoader) (pops int, relaxations uint64, converged bool) {
	if maxPops <= 0 {
		maxPops = defaultPopBudget(g.N)
	}
	rev := g.RevIn()
	routed, w, nextHop := ws.routed, ws.w, ws.nextHop
	head := 0
	for head < len(ws.queue) {
		if pops >= maxPops {
			return pops, relaxations, false
		}
		// Compact the spent prefix so queue growth tracks the number of
		// pending nodes, not total enqueues.
		if head > 1024 && head*2 > len(ws.queue) {
			n := copy(ws.queue, ws.queue[head:])
			ws.queue = ws.queue[:n]
			head = 0
		}
		u := ws.queue[head]
		head++
		ws.dirty[u] = false
		pops++
		if warm != nil {
			ws.ensure(u, warm)
		}
		nh := -1
		var best int32
		for _, h := range g.OutHops(u) {
			v := int(h.Node)
			if warm != nil {
				ws.ensure(v, warm)
			}
			if !routed[v] {
				continue
			}
			relaxations++
			cand := eng.Apply(int(h.Label), w[v])
			if nh < 0 || eng.Lt(cand, best) {
				nh, best = v, cand
			}
		}
		changed := false
		if nh < 0 {
			if routed[u] {
				routed[u] = false
				nextHop[u] = -1
				changed = true
			}
		} else {
			if !routed[u] || w[u] != best {
				changed = true
			}
			routed[u] = true
			w[u] = best
			nextHop[u] = nh
		}
		if changed {
			ws.pushTails(rev, disabled, u, dest)
		}
	}
	return pops, relaxations, true
}
