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

// NodeSet is a bitset over node indices.
type NodeSet []uint64

// Has reports whether u is in the set.
func (s NodeSet) Has(u int) bool { return s[u>>6]>>(uint(u)&63)&1 != 0 }

func (s NodeSet) add(u int) { s[u>>6] |= 1 << (uint(u) & 63) }

func (s NodeSet) remove(u int) { s[u>>6] &^= 1 << (uint(u) & 63) }

// sized returns s covering n nodes, reallocated (empty) when too short.
func (s NodeSet) sized(n int) NodeSet {
	words := (n + 63) >> 6
	if cap(s) < words {
		return make(NodeSet, words)
	}
	return s[:words]
}

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
		movedFull := ws.moved[:cap(ws.moved)]
		for _, u := range ws.touchList {
			if u < len(dirtyFull) {
				dirtyFull[u] = false
			}
			if u < len(touchedFull) {
				touchedFull[u] = false
			}
			if u>>6 < len(movedFull) {
				movedFull.remove(u)
			}
		}
	}
	ws.moved = ws.moved.sized(n)
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
// frontier and its neighbourhood, never to g.N.
//
// push selects how a change reaches in-neighbours (see drain): under
// strict I the invalidated nodes and the restored arcs are relaxed one
// arc at a time (relaxIn, tieBreak) and only the nodes whose selection
// can have moved pull; otherwise every in-neighbour of an invalidated
// node and every restored arc's tail is dirtied and pulls, as a pull
// drain does. Either way, on success every moved node has its whole
// out-row's state loaded, and every touched node and the tail of every
// toggle it is handed (bar the destination) has its own routedness,
// weight and, where routed, next hop loaded — what the RIB rebuild reads
// at the redo set. The obligation is to the toggles handed in, not to
// the batch: a caller may leave out a toggle that cannot move the column
// (serve's skip rule, applied per toggle), and then that tail is neither
// loaded nor refilled.
func (ws *Workspace) deltaDrainSparse(eng exec.Algebra, g *graph.Graph, disabled []bool, dest int, warm WarmLoader, toggles []ArcToggle, maxPops int, push bool) (pops int, relaxations uint64, frontier int, ok bool) {
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
		ws.ensure(x, warm)
		if !ws.routed[x] || ws.hop(x, warm) != arcs[t.Arc].To || !t.Down {
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
	// Invalidation flips nodes to unrouted silently; their in-neighbours
	// outside the subtree may have held them as equal-cost alternatives.
	for i, inval := 0, len(ws.queue); i < inval; i++ {
		s := ws.queue[i]
		ws.moved.add(s)
		if push {
			relaxations += ws.relaxIn(eng, g, disabled, s, true, ws.w[s], dest, warm)
		} else {
			ws.pushTails(rev, disabled, s, dest)
		}
	}
	// A restored arc is one new candidate at its tail.
	for _, t := range toggles {
		x, y := arcs[t.Arc].From, arcs[t.Arc].To
		if t.Down || x == dest || ws.dirty[x] {
			continue
		}
		if !push {
			ws.push(x, dest)
			continue
		}
		ws.ensure(y, warm)
		if !ws.routed[y] {
			continue
		}
		relaxations++
		cand := eng.Apply(arcs[t.Arc].Label, ws.w[y])
		switch wx := ws.w[x]; {
		case !ws.routed[x] || cand != wx && eng.Lt(cand, wx):
			ws.push(x, dest)
		case cand == wx:
			relaxations += ws.tieBreak(eng, g, x, y, t.Arc, warm)
			ws.touch(x)
		}
	}
	frontier = len(ws.queue)
	if 2*frontier >= g.N {
		return 0, relaxations, frontier, false
	}
	pops, more, converged := ws.drain(eng, g, disabled, dest, maxPops, warm, push)
	return pops, relaxations + more, frontier, converged
}

// verifyChain walks u's primary next-hop chain until it reaches the
// destination, an already-verified node or — when top ≥ 0 — a node whose
// weight is not top, then marks the whole walk verified. It fails on a
// forwarding cycle and on a routed node forwarding to an unrouted one —
// either means the fixpoint is not a clean dest-rooted tree. A cycle is
// caught by Brent's method: the walk parks at its current node after 1,
// 2, 4, … steps and fails on coming back to where it parked, within
// twice the cycle's reach and with no per-node marks. warm, when
// non-nil, materializes unvisited nodes from the lazy overlay as the walk
// crosses them, next hops included.
func (ws *Workspace) verifyChain(u, dest int, warm WarmLoader, top int32) bool {
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
		if top >= 0 && ws.w[u] != top {
			break
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

// strictTop says whether a certificate may walk ⊤ chains alone and, if
// so, which weight index is ⊤ (-1 when no node can hold it). It may under
// strict I over an antisymmetric order, on a fixpoint: a routed node's
// weight is f(weight of its next hop) for its primary arc's f, which
// lies strictly above the next hop's weight unless that weight is ⊤,
// which f fixes. So below ⊤ every chain strictly falls and, on a finite
// walk, reaches the destination; only a chain of ⊤-weighted nodes can
// loop, and it stops being one at its first node below ⊤. Without ⊤ (SI,
// or an interning engine that never met ⊤) no chain can loop. ⊤ is found
// with exec.Top, which interns nothing; an engine it cannot read keeps
// the full walk.
func (ws *Workspace) strictTop(eng exec.Algebra, plan Plan) (top int32, ok bool) {
	if !plan.Kernel.I {
		return -1, false
	}
	if ws.topEng == eng {
		return ws.topW, true
	}
	w, interned, known := exec.Top(eng)
	switch {
	case !known:
		return -1, false
	case !interned:
		return -1, true
	}
	ws.topEng, ws.topW = eng, w
	return w, true
}

// verifyTouched certifies a converged delta fixpoint as clean by walking
// the forwarding chain of every touched routed node. Untouched nodes
// need no walk: starting from a purged (or certified-clean) warm start,
// an untouched node's chain either stays on unchanged previous-tree
// edges all the way to the destination or crosses a touched node, whose
// own walk covers the remainder. Any new forwarding cycle must contain a
// touched node — a cycle of untouched nodes would have existed in the
// clean previous fixpoint — so the restricted walk finds it. Under strict
// I (strictTop) only the touched nodes at ⊤ are walked, each up to its
// first node below ⊤.
func (ws *Workspace) verifyTouched(eng exec.Algebra, plan Plan, n, dest int, warm WarmLoader) bool {
	top, strict := ws.strictTop(eng, plan)
	if strict && top < 0 {
		return true
	}
	ws.vmarks, ws.vmarkEpoch = resetEpochSet(ws.vmarks, ws.vmarkEpoch, n)
	for _, t := range ws.touchList {
		if !ws.routed[t] || strict && ws.w[t] != top {
			continue
		}
		if !ws.verifyChain(t, dest, warm, top) {
			return false
		}
	}
	return true
}

// VerifyForwardTree reports whether a solver result is a clean
// dest-rooted forwarding tree: every routed node's primary next-hop
// chain reaches the destination (no ⊤-plateau loops). raw must be the
// workspace's own live state (the Raw returned by BellmanFordRaw,
// ScratchRaw or BellmanFordDeltaRaw, before any later solve) on eng. The
// RIB layer stamps the verdict on its columns; a clean previous column
// is what licenses the sparse delta path on the next swap. Under strict I
// only the chains of ⊤-weighted nodes are walked (see strictTop): one
// pass over the weights, and none at all without a ⊤.
func (ws *Workspace) VerifyForwardTree(eng exec.Algebra, raw Raw) bool {
	n := len(raw.Routed)
	top, strict := ws.strictTop(eng, ws.plan(eng))
	if !strict {
		return ws.verifyAll(n, raw.Dest, nil)
	}
	if top < 0 {
		return true
	}
	ws.vmarks, ws.vmarkEpoch = resetEpochSet(ws.vmarks, ws.vmarkEpoch, n)
	for u, wu := range ws.w[:n] {
		if wu == top && ws.routed[u] && !ws.verifyChain(u, raw.Dest, nil, top) {
			return false
		}
	}
	return true
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
		if ws.routed[u] && !ws.verifyChain(u, dest, warm, -1) {
			return false
		}
	}
	return true
}
