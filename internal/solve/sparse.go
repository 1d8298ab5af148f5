package solve

import (
	"metarouting/internal/exec"
	"metarouting/internal/graph"
)

// This file holds the O(frontier) side of the delta solver: epoch-stamped
// node sets (so per-run state never needs an O(N) clear), a lazy
// warm-start overlay that materializes previous-fixpoint state only for
// nodes the drain actually visits — routedness and weight on first
// touch, the primary next hop only where a warm start reads it — and the
// forward-chain verifier that
// certifies a fixpoint as "clean" — every routed node's primary next-hop
// chain reaches the destination. Cleanliness is what licenses the sparse
// path: on a clean warm start the dense path's ⊤-plateau purge is
// provably a no-op (the purge invalidates exactly the routed nodes
// outside the dest-rooted forwarding tree, and a clean fixpoint has
// none), so skipping it — and with it every O(N) pass of the dense warm
// start — leaves the result bit-identical.

// resetEpochSet readies an epoch-stamped set for n nodes: membership is
// arr[u] == epoch. A normal reset is one integer bump; growth and epoch
// wraparound fall back to a zeroed array. Clearing on wraparound runs at
// full capacity so a later regrowth cannot resurrect stale members.
func resetEpochSet(arr []uint32, epoch uint32, n int) ([]uint32, uint32) {
	if cap(arr) < n {
		return make([]uint32, n), 1
	}
	arr = arr[:n]
	epoch++
	if epoch == 0 {
		full := arr[:cap(arr)]
		for i := range full {
			full[i] = 0
		}
		epoch = 1
	}
	return arr, epoch
}

// ResetMarks readies the workspace's reusable node bitmap for an n-node
// pass, dropping every previous mark in O(1). The bitmap is scratch the
// same way the solver buffers are: callers own it between ResetMarks
// calls, and the RIB delta rebuild uses it as its redo set instead of
// allocating a map per rebuild.
func (ws *Workspace) ResetMarks(n int) {
	ws.marks, ws.markEpoch = resetEpochSet(ws.marks, ws.markEpoch, n)
}

// Mark adds node u to the bitmap (ResetMarks must have covered u).
func (ws *Workspace) Mark(u int) { ws.marks[u] = ws.markEpoch }

// Marked reports whether u was marked since the last ResetMarks.
func (ws *Workspace) Marked(u int) bool { return ws.marks[u] == ws.markEpoch }

// loadNode installs one node's state into the solver arrays and records
// it as live in the lazy overlay, so a later ensure cannot clobber it
// with stale warm-start values.
func (ws *Workspace) loadNode(u int, routed bool, w int32, nextHop int) {
	ws.loaded[u] = ws.loadEpoch
	ws.routed[u] = routed
	ws.w[u] = w
	ws.nextHop[u] = nextHop
}

// hopUnloaded marks an overlay node whose previous primary next hop has
// not been read yet (see ensure and hop). No next hop is negative but -1.
const hopUnloaded = -2

// ensure materializes node u's previous-fixpoint routedness and weight on
// first access, leaving its next hop unloaded. Every read or write of
// routed/w/nextHop on the sparse path must be preceded by an ensure (or
// loadNode) for that node — unloaded entries hold garbage from earlier
// runs — and every read of a next hop the drain did not write goes
// through hop. Most loads are the out-neighbours a popped node scans,
// which need the weight alone; skipping the next hop keeps those loads
// off the previous column's next-hop pool.
func (ws *Workspace) ensure(u int, warm WarmLoader) {
	if ws.loaded[u] == ws.loadEpoch {
		return
	}
	r, w := warm.Weight(u)
	ws.loadNode(u, r, w, hopUnloaded)
}

// hop returns a loaded node's primary next hop, reading the previous
// column's on first need. The drain writes the next hop of every node it
// pops, so after a converged drain Raw.NextHop is valid at every touched
// node; the readers of a previous next hop are the downed-primary test,
// the subtree walk and the chain walk of the clean certificate. Off the
// overlay the sentinel never occurs and warm is never called.
func (ws *Workspace) hop(u int, warm WarmLoader) int {
	nh := ws.nextHop[u]
	if nh == hopUnloaded {
		nh = warm.NextHop(u)
		ws.nextHop[u] = nh
	}
	return nh
}

// sparseReset readies the workspace for a sparse delta drain without any
// O(N) pass: value arrays are sized but not cleared (the loaded overlay
// gates their validity), and worklist scratch is cleared through the
// previous run's touch list — every dirty/touched bit set since the last
// truncation belongs to a node on touchList (push maintains this; an
// aborted drain's leftovers are still touch-listed). Clears run at full
// capacity so a later larger run cannot resurrect stale bits.
func (ws *Workspace) sparseReset(n int) {
	if cap(ws.routed) < n {
		ws.routed = make([]bool, n)
		ws.inTree = make([]bool, n)
		ws.w = make([]int32, n)
		ws.prevW = make([]int32, n)
		ws.nextHop = make([]int, n)
		if ws.Metrics != nil {
			ws.Metrics.Grows.Inc()
		}
	} else if ws.Metrics != nil {
		ws.Metrics.ReuseHits.Inc()
	}
	ws.routed = ws.routed[:n]
	ws.inTree = ws.inTree[:n]
	ws.w = ws.w[:n]
	ws.prevW = ws.prevW[:n]
	ws.nextHop = ws.nextHop[:n]
	if cap(ws.dirty) < n || cap(ws.touched) < n ||
		cap(ws.childHead) < n || cap(ws.childNext) < n {
		// Grow all four together: resetWorklist uses cap(dirty) as its
		// lone grow sentinel, so the buffers must stay in lockstep.
		ws.dirty = make([]bool, n)
		ws.touched = make([]bool, n)
		ws.childHead = make([]int32, n)
		ws.childNext = make([]int32, n)
	} else {
		ws.dirty = ws.dirty[:n]
		ws.touched = ws.touched[:n]
		dirtyFull := ws.dirty[:cap(ws.dirty)]
		touchedFull := ws.touched[:cap(ws.touched)]
		for _, u := range ws.touchList {
			if u < len(dirtyFull) {
				dirtyFull[u] = false
			}
			if u < len(touchedFull) {
				touchedFull[u] = false
			}
		}
	}
	ws.queue = ws.queue[:0]
	ws.touchList = ws.touchList[:0]
	ws.loaded, ws.loadEpoch = resetEpochSet(ws.loaded, ws.loadEpoch, n)
	ws.logged = false
}

// deltaDrainSparse is deltaDrain for a certified-clean warm start. The
// previous forwarding state has no ⊤-plateau loops, so the global tree
// purge is a no-op and is skipped; downed forwarding subtrees are
// discovered through the base graph's in-rows (a node's children in the
// previous tree are exactly the in-neighbours whose next hop is the
// node) instead of a full children index. Work is proportional to the
// frontier and its neighbourhood, never to g.N. Alongside the drain
// itself it guarantees that, on success, every touched node and the tail
// of every toggle it is handed (bar the destination) has its full
// out-neighbourhood materialized and, where routed, its next hop loaded —
// the RIB rebuild re-runs ECMP scans at exactly those nodes. The
// obligation is to the toggles handed in, not to the batch: a caller may
// leave out a toggle that cannot move the column (serve's skip rule,
// applied per toggle), and then that tail is neither loaded nor refilled.
func (ws *Workspace) deltaDrainSparse(eng exec.Algebra, g *graph.Graph, disabled []bool, dest int, warm WarmLoader, toggles []ArcToggle, maxPops int) (pops int, relaxations uint64, frontier int, ok bool) {
	rev := g.RevIn()
	arcs := g.Arcs
	stack := ws.stack[:0]
	for _, t := range toggles {
		x := arcs[t.Arc].From
		if x == dest {
			// The solver never reads the destination's out-arcs and the
			// RIB refills no slot for them; on a scale-free graph the
			// destination is often the largest hub.
			continue
		}
		// Materialize the toggle tail and its out-neighbourhood up front:
		// the RIB layer re-runs the ECMP scan at every toggle tail even
		// when its weight fixpoint does not move.
		ws.ensure(x, warm)
		for _, h := range g.OutHops(x) {
			ws.ensure(int(h.Node), warm)
		}
		if !t.Down {
			continue
		}
		// The downed-primary test loads a routed tail's next hop, which
		// the refill reads whether or not the drain pops the tail.
		if !ws.routed[x] || ws.hop(x, warm) != arcs[t.Arc].To {
			continue
		}
		// Invalidate the forwarding subtree behind the downed primary
		// arc, walking previous-tree children via reverse arcs.
		stack = append(stack, x)
		for len(stack) > 0 {
			s := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !ws.routed[s] {
				continue
			}
			ws.routed[s] = false
			ws.nextHop[s] = -1
			ws.push(s, dest)
			for _, h := range rev.InHops(s) {
				v := int(h.Node)
				if v == dest {
					continue
				}
				ws.ensure(v, warm)
				if ws.routed[v] && ws.hop(v, warm) == s {
					stack = append(stack, v)
				}
			}
		}
	}
	ws.stack = stack
	// Entry-level obligation shared with the dense path: in-neighbours
	// of invalidated nodes rescan so lost ECMP alternatives are
	// re-derived at the RIB layer.
	for i, inval := 0, len(ws.queue); i < inval; i++ {
		ws.pushTails(rev, disabled, ws.queue[i], dest)
	}
	for _, t := range toggles {
		if !t.Down && arcs[t.Arc].From != dest {
			ws.push(arcs[t.Arc].From, dest)
		}
	}
	frontier = len(ws.queue)
	if 2*frontier >= g.N {
		return 0, 0, frontier, false
	}
	var converged bool
	pops, relaxations, converged = ws.drain(eng, g, disabled, dest, maxPops, warm)
	if !converged {
		return pops, relaxations, frontier, false
	}
	return pops, relaxations, frontier, true
}

// verifyChain walks u's primary next-hop chain until it reaches the
// destination or an already-verified node, then marks the whole walk
// verified. It fails on a forwarding cycle and on a routed node
// forwarding to an unrouted one — either means the fixpoint is not a
// clean dest-rooted tree. A cycle is caught by Brent's method: the walk
// parks at its current node after 1, 2, 4, … steps and fails on coming
// back to where it parked, within twice the cycle's reach and with no
// per-node marks. warm, when non-nil, materializes unvisited nodes from
// the lazy overlay as the walk crosses them, next hops included.
func (ws *Workspace) verifyChain(u, dest int, warm WarmLoader) bool {
	path := ws.vstack[:0]
	defer func() { ws.vstack = path }()
	park, lap, steps := -1, 1, 0
	for u != dest && ws.vmarks[u] != ws.vmarkEpoch {
		if warm != nil {
			ws.ensure(u, warm)
		}
		if !ws.routed[u] || u == park {
			return false
		}
		if steps == lap {
			park, lap, steps = u, 2*lap, 0
		}
		steps++
		path = append(path, u)
		u = ws.hop(u, warm)
	}
	for _, v := range path {
		ws.vmarks[v] = ws.vmarkEpoch
	}
	return true
}

// verifyTouched certifies a converged delta fixpoint as clean by walking
// the forwarding chain of every touched routed node. Untouched nodes
// need no walk: starting from a purged (or certified-clean) warm start,
// an untouched node's chain either stays on unchanged previous-tree
// edges all the way to the destination or crosses a touched node, whose
// own walk covers the remainder. Any new forwarding cycle must contain a
// touched node — a cycle of untouched nodes would have existed in the
// clean previous fixpoint — so the restricted walk finds it.
func (ws *Workspace) verifyTouched(n, dest int, warm WarmLoader) bool {
	ws.vmarks, ws.vmarkEpoch = resetEpochSet(ws.vmarks, ws.vmarkEpoch, n)
	for _, t := range ws.touchList {
		if !ws.routed[t] {
			continue
		}
		if !ws.verifyChain(t, dest, warm) {
			return false
		}
	}
	return true
}

// VerifyForwardTree reports whether a solver result is a clean
// dest-rooted forwarding tree: every routed node's primary next-hop
// chain reaches the destination (no ⊤-plateau loops). raw must be the
// workspace's own live state (the Raw returned by BellmanFordRaw or
// BellmanFordDeltaRaw, before any later solve). The RIB layer stamps
// the verdict on its columns; a clean previous column is what licenses
// the sparse delta path on the next swap.
func (ws *Workspace) VerifyForwardTree(raw Raw) bool {
	return ws.verifyAll(len(raw.Routed), raw.Dest, nil)
}

// verifyAll walks every routed node's forwarding chain, stopping at the
// first that fails. warm, when non-nil, materializes nodes from the lazy
// overlay — the log warm start's certificate, which cannot restrict the
// walk to touched nodes as verifyTouched does: its previous column was
// not a clean tree.
func (ws *Workspace) verifyAll(n, dest int, warm WarmLoader) bool {
	ws.vmarks, ws.vmarkEpoch = resetEpochSet(ws.vmarks, ws.vmarkEpoch, n)
	for u := 0; u < n; u++ {
		if warm != nil {
			ws.ensure(u, warm)
		}
		if ws.routed[u] && !ws.verifyChain(u, dest, warm) {
			return false
		}
	}
	return true
}
