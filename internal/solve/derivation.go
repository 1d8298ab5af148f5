package solve

import (
	"slices"

	"metarouting/internal/compile"
	"metarouting/internal/graph"
)

// This file holds the warm start M licenses: the derivation log. On a
// table that proves M (compile.Compiled.Monotone) the best-first kernel
// records the arc of every weight improvement it makes, in creation
// order, and so does the logged delta drain below; a column keeps that
// log, compacted, for its next rebuild. Treat "unrouted" as a weight
// above every other and let F_old, F_new be the one-step operators
// before and after a batch of arc toggles, X_old = GFP(F_old) the
// previous column.
//
//   - Parents are implicit. The parent of an entry on arc x→y is the
//     latest earlier entry at y (the destination's origin when y is the
//     destination), so its weight is f_arc(weight of the parent) and the
//     log stores only arcs. Compaction keeps the ancestor closure of each
//     node's last entry, which leaves every kept entry's parent in place.
//   - Validity. An entry is valid iff its arc did not fail in this batch
//     and its parent is valid. By induction in log order and M, a valid
//     entry at x bounds GFP_new(x) from above.
//   - Seed state. Y(x) is the minimum-rank weight over x's valid entries
//     (unrouted if none) where x's last entry is invalid, X_old(x)
//     elsewhere. Y ≥ GFP_new and F_new(Y) ≤ Y — each valid entry's arc is
//     still there and its parent's node sits at or below the parent's
//     weight — so a worklist drain seeded with the invalid-last nodes and
//     the batch's arc tails only ever lowers a weight, and stops at
//     GFP_new: the state the kernel and the sweep reach from scratch.
//     Restored arcs only add candidates, so the same Y serves fail,
//     restore and mixed batches.
//
// The minimum-rank rule is what makes Y a post-fixpoint. In the logs
// written here a node's weights strictly fall, so it picks the latest
// valid entry; "unrouted wherever the last entry is invalid" is not a
// post-fixpoint, and TestDerivationDeltaMutantsFail shows it raising a
// weight. DESIGN §4d carries the full argument.

// WarmStartKind names the warm start a delta rebuild takes on columns
// that are not verified clean trees (those always take the sparse one):
// "derivation log (M)" when compiled tables prove M, "clean tree" when
// the licence is strict I (the kernel's columns are forwarding trees below
// the top weight, so the sparse warm start is the one that runs), and
// "dense" otherwise.
func (l Licence) WarmStartKind() string {
	switch {
	case l.logTable() != nil:
		return "derivation log (M)"
	case l.i:
		return "clean tree"
	}
	return "dense"
}

// logTable returns the tables the derivation log is kept over: those of an
// M licence verified on compiled tables, nil otherwise.
func (l Licence) logTable() *compile.Compiled {
	if l.m {
		return l.tab
	}
	return nil
}

// DerivationLog returns the derivation log of the workspace's last solve
// — the kernel on an M-licensed table, or a delta that took the log warm
// start — or nil when that solve recorded none. g and dest must be the
// ones the solve ran on. The slice is exactly sized and must not be
// modified: a delta whose log did not change returns the previous
// column's slice itself. A log longer than 5/4 of the node count is first
// compacted to the ancestor closure of every node's last entry (1.1–1.3 N
// entries on the policy workloads); a shorter one keeps the superseded
// entries a few deltas appended, which costs nothing but their bytes.
func (ws *Workspace) DerivationLog(g *graph.Graph, dest int) []int32 {
	if !ws.logged {
		return nil
	}
	base, buf := ws.logBase, ws.logBuf
	n := len(base) + len(buf)
	if n <= g.N+g.N/4 {
		if len(buf) == 0 && base != nil {
			return base
		}
		// Non-nil even when empty: a column routed at its destination
		// alone has a log, and it has no entries.
		return append(append(make([]int32, 0, n), base...), buf...)
	}
	if base != nil {
		buf = slices.Grow(buf, len(base))[:n]
		copy(buf[len(base):], buf[:n-len(base)])
		copy(buf, base)
	}
	kept := ws.compactLog(g, dest, buf)
	out := make([]int32, len(kept))
	copy(out, kept)
	// A second call returns the same log.
	ws.logBase, ws.logBuf = out, buf[:0]
	return out
}

// compactLog keeps the ancestor closure of every node's last entry of
// buf, in place, and returns the kept suffix. It walks backward: the first
// entry met at a node is its last one, and a kept entry on x→y needs the
// next entry met at y, the latest at y before it. The node states borrow
// prevW (0 unmet, 1 met, 2 an entry is needed), which no solve reads
// once it has returned. Kept entries are written from the end of buf
// down, never over one not yet read.
func (ws *Workspace) compactLog(g *graph.Graph, dest int, buf []int32) []int32 {
	state := ws.prevW[:g.N]
	clear(state)
	w := len(buf)
	for i := len(buf) - 1; i >= 0; i-- {
		ai := buf[i]
		arc := &g.Arcs[ai]
		if state[arc.From] == 1 {
			continue
		}
		state[arc.From] = 1
		w--
		buf[w] = ai
		if arc.To != dest {
			state[arc.To] = 2
		}
	}
	return buf[w:]
}

// failedArc reports whether arc ai, enabled when the previous column was
// built, failed in this batch: the post-toggle mask disables it, or —
// without a mask — a toggle takes it down.
func failedArc(ai int32, disabled []bool, toggles []ArcToggle) bool {
	if disabled != nil {
		return int(ai) < len(disabled) && disabled[ai]
	}
	for _, tg := range toggles {
		if tg.Down && tg.Arc == int(ai) {
			return true
		}
	}
	return false
}

// replayLog is the forward pass over a previous column's derivation log
// against a batch of toggles. It leaves logInval listing (with repeats)
// the nodes whose latest entry went invalid at some point, and logBase
// then logBuf holding the valid entries in order — the new log's prefix,
// ancestor-closed because an invalid entry's descendants are invalid
// too. For every node x with an entry it leaves prevW[x] the weight of
// x's latest entry, -1 when that entry is invalid, and childHead[x] the
// minimum-rank weight over x's valid entries, -1 when it has none
// (prevW[x] is -2 at nodes without one). Both arrays are the dense warm
// start's and the sweep's, idle on the log path, so the replay adds no
// per-node memory. When no failed arc appears in the log, every entry is
// valid and no node is a seed: the pass stops there and the prefix is
// the old log itself.
func (ws *Workspace) replayLog(t *compile.Compiled, g *graph.Graph, disabled []bool, dest int, o int32, log []int32, toggles []ArcToggle) {
	ws.logBase, ws.logBuf, ws.logInval = log, ws.logBuf[:0], ws.logInval[:0]
	failed := false
	if slices.ContainsFunc(toggles, func(tg ArcToggle) bool { return tg.Down }) {
		for _, ai := range log {
			if failedArc(ai, disabled, toggles) {
				failed = true
				break
			}
		}
	}
	if !failed {
		return
	}
	ws.logBase = nil
	last, best := ws.prevW[:g.N], ws.childHead[:g.N]
	for i := range last {
		last[i] = -2
	}
	fn, rank, stride := t.Fn, t.Rank, t.N
	buf, inval := ws.logBuf, ws.logInval
	for _, ai := range log {
		arc := &g.Arcs[ai]
		x, pw := arc.From, o
		if arc.To != dest {
			pw = max(last[arc.To], -1)
		}
		if last[x] == -2 {
			best[x] = -1
		}
		if pw < 0 || failedArc(ai, disabled, toggles) {
			if last[x] != -1 {
				inval = append(inval, int32(x))
			}
			last[x] = -1
			continue
		}
		wx := int32(fn[arc.Label*stride+int(pw)])
		last[x] = wx
		if b := best[x]; b < 0 || rank[wx] < rank[b] {
			best[x] = wx
		}
		buf = append(buf, ai)
	}
	ws.logBuf, ws.logInval = buf, inval
}

// deltaDrainLog is the log warm start's seeding and drain, after
// replayLog and with the sparse overlay reset and the destination
// loaded. Seeds are the nodes whose latest entry is invalid, loaded at
// their minimum-rank valid weight, and the tails of every toggled arc
// (a failed arc may have been a primary next hop, a restored one may
// offer a better candidate). ok is false when the caller must fall back
// to a scratch build: a frontier of half the graph or more, an exhausted
// pop budget, or a drain step that would raise a weight.
func (ws *Workspace) deltaDrainLog(t *compile.Compiled, g *graph.Graph, disabled []bool, dest int, warm WarmStart, toggles []ArcToggle, maxPops int) (pops int, relaxations uint64, frontier int, ok bool) {
	last, best := ws.prevW, ws.childHead
	for _, x := range ws.logInval {
		if last[x] == -1 && !ws.dirty[x] {
			ws.loadNode(int(x), best[x] >= 0, best[x], -1)
			ws.push(int(x), dest)
		}
	}
	for _, tg := range toggles {
		ws.push(g.Arcs[tg.Arc].From, dest)
	}
	frontier = len(ws.queue)
	if 2*frontier >= g.N {
		return 0, 0, frontier, false
	}
	if maxPops <= 0 {
		maxPops = defaultPopBudget(g.N)
	}
	if pops, relaxations, ok = ws.drainLog(t, g, disabled, dest, maxPops, warm); !ok {
		return pops, relaxations, frontier, false
	}
	// A seed the drain never lowered still differs from the previous
	// column, and no pop reported it: its in-neighbours, whose weights
	// stand but whose equal-cost sets may not, rescan now.
	rev := g.RevIn()
	ws.queue = ws.queue[:0]
	for _, x := range ws.logInval {
		x := int(x)
		if last[x] != -1 || ws.routed[x] != (best[x] >= 0) || ws.routed[x] && ws.w[x] != best[x] {
			continue
		}
		if r, w, _ := warm(x); r != ws.routed[x] || r && w != ws.w[x] {
			ws.pushTails(rev, disabled, x, dest)
		}
	}
	more, moreRelax, ok := ws.drainLog(t, g, disabled, dest, maxPops-pops, warm)
	return pops + more, relaxations + moreRelax, frontier, ok
}

// drainLog is drain over a compiled table's rank and function rows, on
// the sparse overlay, appending the arc of every weight improvement to
// logBuf. Seeded from a post-fixpoint it never raises a weight; a step
// that would (only a broken seed state can cause one) reports through
// onRaise and returns ok false.
func (ws *Workspace) drainLog(t *compile.Compiled, g *graph.Graph, disabled []bool, dest, maxPops int, warm WarmStart) (pops int, relaxations uint64, ok bool) {
	rev := g.RevIn()
	fn, rank, stride := t.Fn, t.Rank, t.N
	routed, w, nextHop := ws.routed, ws.w, ws.nextHop
	head := 0
	for head < len(ws.queue) {
		if pops >= maxPops {
			return pops, relaxations, false
		}
		if head > 1024 && head*2 > len(ws.queue) {
			n := copy(ws.queue, ws.queue[head:])
			ws.queue = ws.queue[:n]
			head = 0
		}
		u := ws.queue[head]
		head++
		ws.dirty[u] = false
		pops++
		ws.ensure(u, warm)
		nh, k := -1, 0
		var cand, bestRank uint16
		for i, h := range g.OutHops(u) {
			v := int(h.Node)
			ws.ensure(v, warm)
			if !routed[v] {
				continue
			}
			relaxations++
			c := fn[int(h.Label)*stride+int(w[v])]
			if r := rank[c]; nh < 0 || r < bestRank {
				nh, k, cand, bestRank = v, i, c, r
			}
		}
		if nh < 0 {
			if routed[u] {
				ws.raised(u)
				return pops, relaxations, false
			}
			continue
		}
		if routed[u] {
			wu := w[u]
			if wu == int32(cand) {
				nextHop[u] = nh
				continue
			}
			if bestRank > rank[wu] {
				ws.raised(u)
				return pops, relaxations, false
			}
		}
		routed[u], w[u], nextHop[u] = true, int32(cand), nh
		ws.logBuf = append(ws.logBuf, g.Out(u)[k])
		ws.pushTails(rev, disabled, u, dest)
	}
	return pops, relaxations, true
}

// raised reports a drain step that would raise u's weight to the test
// hook, when one is set.
func (ws *Workspace) raised(u int) {
	if ws.onRaise != nil {
		ws.onRaise(u)
	}
}
