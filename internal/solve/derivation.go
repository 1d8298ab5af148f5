package solve

import (
	"cmp"
	"slices"

	"metarouting/internal/compile"
	"metarouting/internal/graph"
)

// This file holds the warm start M licenses: the derivation log. On a
// table that proves M (compile.Compiled.Monotone) the best-first kernel
// records the arc of every weight improvement it makes, in creation
// order, and so does the logged delta drain below; a column keeps that
// log (Log, dlog.go) for its next rebuild. Treat "unrouted" as ⊤, and
// let F_old, F_new be the one-step operators before and after a batch of
// arc toggles and X_old = GFP(F_old) the previous column.
//
//   - Parents are implicit: the parent of an entry on arc x→y is the
//     latest earlier live entry at y (the origin at the destination),
//     and its weight is f_arc(the parent's). A node's last entry carries
//     its column weight, and none of its entries lies below it.
//     Compaction keeps the ancestor closure of each node's last entry.
//   - An entry is valid iff its arc did not fail and its parent is valid;
//     by induction and M a valid entry at x bounds GFP_new(x) from above.
//     The replay reads arcs only. It finds the invalid entries as a
//     closure through the log's per-node index — the entries on the
//     failed arcs, then the children of each invalid one — and yields S:
//     the nodes whose last entry went invalid.
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
// ones the solve ran on. The log is immutable and shares structure with
// the previous column's: a delta derives it by unlinking the entries its
// replay found invalid and appending the ones its drain wrote, copying
// only the leaves and directory pages that holds (Log), and a delta that
// changed neither returns the previous column's log itself. Once
// positions have grown by more than N/4 since the last compaction — a
// kernel's log counts whole — it is rebuilt from the ancestor closure of
// every node's last entry (1.1–1.3 N entries on the policy workloads), an
// O(N) pass that the growth pays for. A second call returns the same log.
func (ws *Workspace) DerivationLog(g *graph.Graph, dest int) *Log {
	if !ws.logged {
		return nil
	}
	prev, buf := ws.logPrev, ws.logBuf
	var next *Log
	switch {
	case prev == nil && len(buf) > g.N/4:
		next = freshLog(g, ws.compactLog(g, dest, buf))
	case prev == nil:
		// Non-nil even when empty: a column routed at its destination
		// alone has a log, and it has no entries.
		next = freshLog(g, buf)
		next.grown = next.live
	case len(ws.logDead) == 0 && len(buf) == 0:
		return prev
	default:
		next = prev.derive(g, ws.logDead, buf)
		if int(next.grown) > g.N/4 {
			if cap(ws.logMark) < int(next.n) {
				ws.logMark = make([]bool, next.n)
			}
			mark := ws.logMark[:next.n]
			clear(mark)
			buf = next.appendLive(buf[:0], mark)
			next = freshLog(g, ws.compactLog(g, dest, buf))
		}
	}
	ws.logPrev, ws.logBuf, ws.logDead = next, buf[:0], ws.logDead[:0]
	return next
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

// replayLog is the arc-only replay of a previous column's derivation log
// against a batch of toggles, by closure over the log's index. The
// entries on a failed arc x→y are found on x's chain; the children of an
// invalid entry at y — the entries that took it as their parent — are
// the live entries on y's enabled in-arcs w→y that lie after it and
// before y's next live entry, found on each w's chain. An entry is
// invalid iff it is reached, which is the recursive definition (its arc
// failed or its parent is invalid), so the closure is exactly the set a
// pass over the whole log in order would mark. It leaves logPrev = log,
// logDead holding the invalid entries by position, and restarts listing
// the node of each in that order; the marks say which are in S, the
// nodes whose last entry is invalid (see seedRestarts), so S is seeded
// in the order of each node's first invalid entry. It returns the number
// of index slots and entries it read. disabled is the post-toggle mask;
// every arc of the log it disables must be a failed toggle of the batch
// (an arc that failed earlier carries no live entry), and a batch
// without one invalidates nothing.
func (ws *Workspace) replayLog(g *graph.Graph, disabled []bool, log *Log, toggles []ArcToggle) (visited int) {
	ws.logPrev, ws.logBuf, ws.restarts = log, ws.logBuf[:0], ws.restarts[:0]
	dead := ws.logDead[:0]
	for _, tg := range toggles {
		if !tg.Down {
			continue
		}
		x := int32(g.Arcs[tg.Arc].From)
		visited++
		next := noEntry
		for p := log.last.at(x); p >= 0; {
			arc, prev := log.entry(p)
			visited++
			if arc == int32(tg.Arc) {
				dead = append(dead, deadEntry{pos: p, node: x, next: next})
			}
			next, p = p, prev
		}
	}
	rev := g.RevIn()
	for i := 0; i < len(dead); i++ {
		d := dead[i]
		ais := rev.In(int(d.node))
		for k, h := range rev.InHops(int(d.node)) {
			ai := ais[k]
			if disabled[ai] {
				continue
			}
			visited++
			next := noEntry
			for q := log.last.at(h.Node); q > d.pos; {
				arc, prev := log.entry(q)
				visited++
				if arc == ai && q < d.next {
					dead = append(dead, deadEntry{pos: q, node: h.Node, next: next})
				}
				next, q = q, prev
			}
		}
	}
	slices.SortFunc(dead, func(a, b deadEntry) int { return cmp.Compare(a.pos, b.pos) })
	ws.restart, ws.restartEpoch = resetEpochSet(ws.restart, ws.restartEpoch, g.N)
	for _, d := range dead {
		if d.next == noEntry {
			ws.restart[d.node] = ws.restartEpoch
		}
		ws.restarts = append(ws.restarts, d.node)
	}
	ws.logDead = dead
	return visited
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
