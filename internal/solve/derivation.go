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
// log, compacted, for its next rebuild. Treat "unrouted" as ⊤, and let
// F_old, F_new be the one-step operators before and after a batch of arc
// toggles and X_old = GFP(F_old) the previous column.
//
//   - Parents are implicit: the parent of an entry on arc x→y is the
//     latest earlier entry at y (the origin at the destination), and its
//     weight is f_arc(the parent's). A node's last entry carries its
//     column weight, and none of its entries lies below it. Compaction
//     keeps the ancestor closure of each node's last entry.
//   - An entry is valid iff its arc did not fail and its parent is valid;
//     by induction and M a valid entry at x bounds GFP_new(x) from above.
//     The replay reads arcs only, and yields S: the nodes whose last
//     entry went invalid.
//   - Settle: S starts unrouted and drains restricted to S, against
//     X_old outside it. That is Kleene descent from ⊤, so the state stays
//     at or above GFP_new, and by induction in log order each settled
//     weight lies at or below every valid entry at its node.
//   - The settled S beside X_old is then a post-fixpoint of F_new at or
//     above GFP_new, so the logged drain, seeded with the toggle tails
//     and the in-neighbours of what S moved, only lowers weights and
//     stops at GFP_new, the scratch build's state, for fail, restore and
//     mixed batches alike.
//
// Skipping the settle lets a tail pop while the node it leans on is still
// unrouted, and TestDerivationDeltaMutantsFail shows that raising a
// weight. DESIGN §"Warm starts licensed by M" carries the full argument.

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

// replayLog is the arc-only pass over a previous column's derivation log
// against a batch of toggles. A compare scan finds p0, the first entry on
// a failed arc; every entry before it is valid. From p0 on, an entry is
// invalid when its arc failed or its head's latest entry is invalid, as
// the epoch-stamped restart marks record. It leaves logBase then logBuf
// holding the valid entries in order — the new log's prefix — and
// restarts listing every node whose latest entry went invalid at some
// point; the marks say which are in S (see seedRestarts). disabled is
// the post-toggle mask: an arc of the log that it disables failed.
func (ws *Workspace) replayLog(g *graph.Graph, disabled []bool, log []int32, toggles []ArcToggle) {
	ws.logBase, ws.logBuf, ws.restarts = log, ws.logBuf[:0], ws.restarts[:0]
	p0 := len(log)
	if slices.ContainsFunc(toggles, func(tg ArcToggle) bool { return tg.Down }) {
		for i, ai := range log {
			if disabled[ai] {
				p0 = i
				break
			}
		}
	}
	if p0 == len(log) {
		return
	}
	ws.logBase = log[:p0:p0]
	ws.restart, ws.restartEpoch = resetEpochSet(ws.restart, ws.restartEpoch, g.N)
	mark, epoch := ws.restart, ws.restartEpoch
	buf, s := ws.logBuf, ws.restarts
	for _, ai := range log[p0:] {
		arc := &g.Arcs[ai]
		x := arc.From
		if mark[arc.To] == epoch || disabled[ai] {
			if mark[x] != epoch {
				mark[x] = epoch
				s = append(s, int32(x))
			}
			continue
		}
		mark[x] = 0
		buf = append(buf, ai)
	}
	ws.logBuf, ws.restarts = buf, s
}

// restarting reports whether u is in S.
func (ws *Workspace) restarting(u int) bool { return ws.restart[u] == ws.restartEpoch }

// deltaDrainLog is the log warm start's settle and drain, after replayLog
// and with the sparse overlay reset and the destination loaded. S settles
// (drainLog's settle mode); then the in-neighbours outside S of every
// node of S whose route changed are pushed, as are the toggle tails, and
// the logged drain runs. ok is false when the caller must fall back to a
// scratch build: a frontier of half the graph or more, an exhausted pop
// budget, or a drain step that would raise a weight.
func (ws *Workspace) deltaDrainLog(t *compile.Compiled, g *graph.Graph, disabled []bool, dest int, warm WarmLoader, toggles []ArcToggle, maxPops int) (pops int, relaxations uint64, frontier int, ok bool) {
	if maxPops <= 0 {
		maxPops = defaultPopBudget(g.N)
	}
	if frontier = ws.seedRestarts(dest); 2*frontier >= g.N {
		return 0, 0, frontier, false
	}
	if pops, relaxations, ok = ws.drainLog(t, g, disabled, dest, maxPops, warm, true); !ok {
		return pops, relaxations, frontier, false
	}
	rev := g.RevIn()
	ws.queue = ws.queue[:0]
	for _, x := range ws.restarts {
		if r, w := warm.Weight(int(x)); r != ws.routed[x] || r && w != ws.w[x] {
			ws.pushIn(rev, disabled, int(x), dest, false)
		}
	}
	for _, tg := range toggles {
		ws.push(g.Arcs[tg.Arc].From, dest)
	}
	if frontier += len(ws.queue); 2*frontier >= g.N {
		return pops, relaxations, frontier, false
	}
	more, moreRelax, ok := ws.drainLog(t, g, disabled, dest, maxPops-pops, warm, false)
	return pops + more, relaxations + moreRelax, frontier, ok
}

// seedRestarts loads S unrouted and queues it, trims restarts to S
// without repeats, and returns |S|.
func (ws *Workspace) seedRestarts(dest int) int {
	s := ws.restarts[:0]
	for _, x := range ws.restarts {
		if u := int(x); ws.restarting(u) && !ws.dirty[u] {
			ws.loadNode(u, false, 0, -1)
			ws.push(u, dest)
			s = append(s, x)
		}
	}
	ws.restarts = s
	return len(s)
}

// pushIn enqueues the tail of every enabled arc entering u that is in S
// (in true) or outside it (in false); see pushTails.
func (ws *Workspace) pushIn(rev *graph.Graph, disabled []bool, u, dest int, in bool) {
	ais := rev.In(u)
	for k, h := range rev.InHops(u) {
		if ai := int(ais[k]); ai < len(disabled) && disabled[ai] {
			continue
		}
		if v := int(h.Node); ws.restarting(v) == in {
			ws.push(v, dest)
		}
	}
}

// drainLog is drain over a compiled table's rank and function rows, on
// the sparse overlay, appending the arc of every weight improvement to
// logBuf. Seeded from a post-fixpoint it never raises a weight; a step
// that would (only a broken seed state can cause one) reports through
// onRaise and returns ok false. With settle set, a node that moves
// pushes only its in-neighbours in S.
func (ws *Workspace) drainLog(t *compile.Compiled, g *graph.Graph, disabled []bool, dest, maxPops int, warm WarmLoader, settle bool) (pops int, relaxations uint64, ok bool) {
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
		if settle {
			ws.pushIn(rev, disabled, u, dest, true)
		} else {
			ws.pushTails(rev, disabled, u, dest)
		}
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
