package solve

import (
	"slices"
	"time"

	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/value"
)

// This file holds the worklist (SPFA-style) drain behind the delta
// solver and its entry points. A FIFO of dirty nodes is drained to
// fixpoint: popping a node pulls — recomputes its best weight from its
// out-arcs with the exact selection loop of the synchronous solver
// (first arc achieving a minimal candidate wins) — and a routedness-or-
// weight change is then passed to the node's in-neighbours through the
// unmasked base graph's in-rows (Graph.RevIn). Without a strict-I
// licence every such in-neighbour is dirtied and pulls in turn; under
// strict I each one relaxes the one arc that changed against its own
// state and pulls only when that arc can have been its selection
// (relaxIn). The delta entry points warm-start that drain from a
// previous column: for an arc-down event the forwarding subtree that
// routed through the arc is invalidated before re-relaxation (so stale
// local optima cannot survive on non-tree nodes they were never valid
// for), for an arc-up event the arc is relaxed at its tail, and
// everything outside the frontier keeps its previous fixpoint value
// untouched.

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
	// Frontier is the number of seed nodes the toggles dirtied before the
	// drain: invalidated subtree members, the in-neighbours their loss
	// dirtied and the tails of restored arcs — under strict I only the
	// in-neighbours whose selection was lost and the tails whose arc
	// improves them. After the log warm start: S plus the drain's seeds.
	Frontier int
	// Pops counts worklist pops; Relaxations counts the arc candidates
	// evaluated (one arc function applied to one weight), by pulls,
	// by relaxations of single arcs and by tie-breaks alike.
	Pops        int
	Relaxations uint64
	// Restarts is |S| after the log warm start (replayLog), else 0.
	// LogVisited counts what that warm start's replay read, fallback or
	// not: an index slot per failed toggle and per enabled in-arc of an
	// invalid entry's node, and an entry per chain step from each — the
	// log warm start's counted cost, whatever the log's length.
	Restarts   int
	LogVisited int
	// Touched lists, in ascending order, every node the drain enqueued
	// or recorded — a superset of the nodes whose routedness, weight,
	// next hop or equal-cost set differs from the previous result,
	// except at the tail of a toggle handed to the solve, which the RIB
	// layer refills beside Touched. Under strict I an in-neighbour of a
	// changed node is recorded, not enqueued, when the changed arc starts
	// or stops tying its weight. A toggle the caller left out because it
	// cannot move the column (serve's per-toggle skip rule) moves no
	// equal-cost set either. Every other entry is reused by pointer.
	Touched []int
	// Moved, after the sparse warm start, holds every node whose
	// routedness or weight may differ from the previous result (each is
	// on Touched, and the drain pulled it, so its whole out-row's state
	// is in the Raw). A node outside Moved kept its previous route, so
	// the RIB layer edits a redo node's equal-cost span from its previous
	// one instead of rescanning the row when the node itself is outside
	// Moved. It aliases the workspace like Raw: valid until the next
	// solve. Nil on every other path.
	Moved NodeSet
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
// returned Raw is only populated at touched nodes, toggle tails and the
// out-rows of the nodes in DeltaStats.Moved — exactly the slots the RIB
// delta rebuild reads, next hops at the first two only; every other
// entry is stale scratch. Under strict I the drain pushes (see drain),
// so the cost is the arcs into the nodes that move plus the out-rows of
// the nodes that pull.
func (ws *Workspace) BellmanFordDeltaRaw(eng exec.Algebra, g *graph.Graph, disabled []bool, dest int, origin value.V, prev WarmStart, cleanPrev bool, toggles []ArcToggle, maxPops int) (Raw, DeltaStats) {
	return ws.BellmanFordDeltaLog(eng, g, disabled, dest, origin, prev, cleanPrev, nil, toggles, maxPops)
}

// BellmanFordDeltaLog is BellmanFordDeltaRaw with the warm start read
// through a WarmLoader and given the previous column's derivation log as
// well (DerivationLog; nil when it has none). When prev is not certified
// clean, the log and the mask are non-nil and the workspace's plan says
// WarmLog, it takes the third warm start (derivation.go): an arc-only
// replay through the log's index finds S, the nodes whose last entry
// went invalid, which settle first; a drain then lowers the state to
// the new fixpoint, recording its own improvements. The replay costs an
// index read per failed toggle and per enabled in-arc of each invalid
// entry's node, plus the chain steps from those reads
// (DeltaStats.LogVisited), and the drain runs over S and the frontier,
// with the Raw populated as on the sparse path. Clean is then verified
// over every routed node, since the previous column was not a clean
// tree. Afterwards DerivationLog returns the new column's log on this
// path and on a scratch fallback that ran the kernel.
func (ws *Workspace) BellmanFordDeltaLog(eng exec.Algebra, g *graph.Graph, disabled []bool, dest int, origin value.V, prev WarmLoader, cleanPrev bool, log *Log, toggles []ArcToggle, maxPops int) (Raw, DeltaStats) {
	var t0 time.Time
	if ws.Metrics != nil {
		t0 = time.Now()
	}
	visited := 0
	scratch := func(frontier int) (Raw, DeltaStats) {
		raw := ws.ScratchRaw(eng, g, dest, origin)
		clean := raw.Converged && ws.VerifyForwardTree(eng, raw)
		return raw, DeltaStats{Frontier: frontier, Clean: clean, LogVisited: visited}
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
	logWarm := !cleanPrev && log != nil && disabled != nil && plan.Warm == WarmLog
	if cleanPrev || logWarm {
		warm = prev
		ws.sparseReset(g.N)
		ws.loadNode(dest, true, o, -1)
	}
	if logWarm {
		visited = ws.replayLog(g, disabled, log, toggles)
		pops, relaxations, frontier, ok = ws.deltaDrainLog(plan.Kernel.Table, g, disabled, dest, prev, toggles, maxPops)
	} else if cleanPrev {
		pops, relaxations, frontier, ok = ws.deltaDrainSparse(eng, g, disabled, dest, prev, toggles, maxPops, plan.Kernel.I)
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
	// touched node — see verifyTouched, which under strict I walks only
	// the ⊤-weighted ones. The log warm start started from a column that
	// was not a clean tree, so every chain is walked; on an unclean
	// result the first loop ends the walk.
	st := DeltaStats{
		UsedDelta:   true,
		Frontier:    frontier,
		Pops:        pops,
		Relaxations: relaxations,
		Touched:     ws.sortedTouched(),
	}
	if logWarm {
		st.Clean = ws.verifyAll(g.N, dest, warm)
		st.Restarts, st.LogVisited = len(ws.restarts), visited
		ws.logged = true
	} else {
		st.Clean = ws.verifyTouched(eng, plan, g.N, dest, warm)
	}
	if cleanPrev {
		st.Moved = ws.moved
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
	pops, relaxations, converged = ws.drain(eng, g, disabled, dest, maxPops, nil, false)
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
	ws.moved = ws.moved.sized(n)
	clear(ws.moved)
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
	ws.touch(u)
}

// touch records u in the ever-touched set without enqueueing it: its
// weight stands, but its next hop or equal-cost set may not.
func (ws *Workspace) touch(u int) {
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
// the default budget). Popping a node pulls: it rescans its enabled
// out-arcs against live state with the synchronous solver's exact
// selection loop — first arc achieving a minimal candidate — so
// tie-breaks agree with a from-scratch build. A routedness or weight
// change marks the node moved and is then passed on: with push false
// every in-neighbour is dirtied (pushTails); with push true — licensed
// by strict I, see relaxIn — each in-neighbour relaxes the one arc that
// changed and is dirtied only if that arc can have been or become its
// selection. warm, when non-nil, runs the drain over the sparse lazy
// overlay: popped nodes and scanned out-neighbours are materialized from
// the previous fixpoint on first access instead of having been
// bulk-loaded — weights only, since a pop writes its node's next hop and
// a scan reads none. push needs the overlay.
func (ws *Workspace) drain(eng exec.Algebra, g *graph.Graph, disabled []bool, dest, maxPops int, warm WarmLoader, push bool) (pops int, relaxations uint64, converged bool) {
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
		wasRouted, was := routed[u], w[u]
		if nh < 0 {
			if !wasRouted {
				continue
			}
			routed[u] = false
			nextHop[u] = -1
		} else {
			routed[u] = true
			w[u] = best
			nextHop[u] = nh
			if wasRouted && was == best {
				continue
			}
		}
		ws.moved.add(u)
		if push {
			relaxations += ws.relaxIn(eng, g, disabled, u, wasRouted, was, dest, warm)
		} else {
			ws.pushTails(rev, disabled, u, dest)
		}
	}
	return pops, relaxations, true
}

// relaxIn passes node v's change of route — from (wasRouted, was) to its
// live state — to its in-neighbours under strict I, one arc at a time.
// Every in-neighbour u that is not dirty is a fixpoint of its own row
// against the state before the change: its weight is the least
// candidate, and its next hop the head of the first arc in row order
// that reaches it. Over an antisymmetric total order "reaches" is index
// equality, and only the arcs to v changed candidate, so:
//
//   - a candidate strictly below u's weight (or any, at an unrouted u)
//     is u's new selection: u is dirtied and pulls;
//   - an arc that tied u's weight and still does changes nothing;
//   - an arc that stops tying: if v is u's next hop the selection is
//     gone and u pulls; otherwise only u's equal-cost set shrank, and u
//     is recorded for the RIB layer;
//   - an arc that starts tying widens u's equal-cost set (u is recorded)
//     and becomes u's next hop if it comes before the current next
//     hop's arc (tieBreak).
//
// A worse or unchanged candidate that never tied leaves u as it is; its
// row is never read. It returns the candidates it evaluated.
func (ws *Workspace) relaxIn(eng exec.Algebra, g *graph.Graph, disabled []bool, v int, wasRouted bool, was int32, dest int, warm WarmLoader) (relaxations uint64) {
	rev := g.RevIn()
	ais := rev.In(v)
	vRouted, wv := ws.routed[v], ws.w[v]
	for k, h := range rev.InHops(v) {
		ai := int(ais[k])
		if ai < len(disabled) && disabled[ai] {
			continue
		}
		u := int(h.Node)
		if u == dest || ws.dirty[u] {
			continue
		}
		ws.ensure(u, warm)
		label := int(h.Label)
		cand := int32(-1)
		if vRouted {
			relaxations++
			cand = eng.Apply(label, wv)
		}
		if !ws.routed[u] {
			if cand >= 0 {
				ws.push(u, dest)
			}
			continue
		}
		wu := ws.w[u]
		if cand >= 0 && cand != wu && eng.Lt(cand, wu) {
			ws.push(u, dest)
			continue
		}
		old := int32(-1)
		if wasRouted {
			relaxations++
			old = eng.Apply(label, was)
		}
		switch {
		case (cand == wu) == (old == wu):
		case old == wu && ws.hop(u, warm) == v:
			ws.push(u, dest)
		case old == wu:
			ws.touch(u)
		default:
			relaxations += ws.tieBreak(eng, g, u, v, ai, warm)
			ws.touch(u)
		}
	}
	return relaxations
}

// tieBreak makes v the next hop of u, whose weight arc ai = u→v now
// ties, when ai comes before every arc of u's row that reaches u's weight
// through its current next hop — the sweep's first-arc rule, with rows
// in ascending arc-index order. Only arcs to the current next hop are
// evaluated; an ai missing from the view (a nil mask) changes nothing.
// It returns the candidates it evaluated.
func (ws *Workspace) tieBreak(eng exec.Algebra, g *graph.Graph, u, v, ai int, warm WarmLoader) (relaxations uint64) {
	p, wu := ws.hop(u, warm), ws.w[u]
	arcs := g.Out(u)
	for k, h := range g.OutHops(u) {
		if a := int(arcs[k]); a >= ai {
			if a == ai {
				ws.nextHop[u] = v
			}
			return relaxations
		}
		if int(h.Node) != p {
			continue
		}
		ws.ensure(p, warm)
		if ws.routed[p] {
			relaxations++
			if eng.Apply(int(h.Label), ws.w[p]) == wu {
				return relaxations
			}
		}
	}
	return relaxations
}
