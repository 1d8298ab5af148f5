package solve

import (
	"math/bits"
	"time"

	"metarouting/internal/compile"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/value"
)

// This file holds the licensed scratch solver: the from-scratch column
// build the algebra's proof chooses. When a Plan's kernel is M or strict I
// over an antisymmetric total order, ScratchRaw settles nodes best-first
// and returns exactly the state a converged synchronous sweep leaves —
// routedness, weights and next hops — in one pass over the arcs instead
// of one per round:
//
//   - M: the sweep from "all unrouted" descends to the greatest fixpoint
//     of a monotone operator; so does any fair chaotic iteration from the
//     same start, which is what the kernel is — every value it writes is
//     an arc function applied to a value at or above the greatest
//     fixpoint, and it stops only when each node holds the minimum over
//     its out-arcs of its neighbours' final weights. A candidate may beat
//     an already settled node here, so the node is re-queued.
//   - strict I (I with ⊤ fixed, or SI): among states routed exactly where
//     the destination is reachable, the fixpoint is unique (a minimal
//     disagreeing weight would need a strictly smaller, hence agreeing,
//     parent), and label-setting reaches it with every node settled once.
//
// Antisymmetry turns "tied weight" into "same weight index", which is
// what makes the result bit-identical rather than merely equivalent. The
// kernel always converges; where a sweep would have stopped at its
// 2N+4-round budget before the fixpoint, ScratchRaw returns the fixpoint
// with Converged true.
//
// Two kernels implement it. On a compiled engine whose tables verified
// the licence cell by cell, bestFirst drains rank buckets and indexes the
// flat tables. On every other engine — tiered, dynamic, or compiled but
// hidden — the licence is the inference's, and bestFirstLt keys the same
// intrusive lists by interned weight id, with a small heap over the
// distinct queued ids ordered by the engine's Lt. Without a licence
// ScratchRaw runs the sweep.

// ScratchRaw solves dest from scratch with the kernel the workspace's
// plan picks (Plan.Kernel) and returns a Raw aliasing the workspace,
// like BellmanFordRaw. On a best-first kernel Rounds counts node settles
// and Converged is always true; on the sweep the result is
// BellmanFordRaw's with the default round budget.
func (ws *Workspace) ScratchRaw(eng exec.Algebra, g *graph.Graph, dest int, origin value.V) Raw {
	plan := ws.plan(eng)
	if !plan.Kernel.M && !plan.Kernel.I {
		return ws.BellmanFordRaw(eng, g, dest, origin, 0)
	}
	var t0 time.Time
	if ws.Metrics != nil {
		t0 = time.Now()
	}
	o := exec.MustIntern(eng, origin)
	var settles int
	var relaxations uint64
	if t := plan.Kernel.Table; t != nil {
		settles, relaxations = ws.bestFirst(t, g, dest, o, true)
	} else if settles, relaxations = ws.bestFirstLt(eng, plan, g, dest, o, true); settles < 0 {
		return ws.BellmanFordRaw(eng, g, dest, origin, 0)
	}
	if m := ws.Metrics; m != nil {
		m.Runs.Inc()
		m.Rounds.Add(uint64(settles))
		m.Relaxations.Add(relaxations)
		m.SolveNS.Observe(time.Since(t0).Nanoseconds())
	}
	return ws.raw(dest, settles, true)
}

// link pushes u onto the front of the list at *head (a node, or negative
// when the list is empty), threading it through next and back (back[u]
// == u marks a list head, -1 a node in no list), and reports whether the
// list was empty.
func link(head *int32, u int, next []int32, back []int) bool {
	h := *head
	next[u] = max(h, -1)
	if h >= 0 {
		back[h] = u
	}
	back[u] = u
	*head = int32(u)
	return h < 0
}

// unlink removes u from the list at *head and reports whether the list is
// now empty.
func unlink(head *int32, u int, next []int32, back []int) bool {
	nx, bk := next[u], back[u]
	if bk == u {
		*head = nx
		if nx >= 0 {
			back[nx] = int(nx)
		}
	} else {
		next[bk] = nx
		if nx >= 0 {
			back[nx] = bk
		}
	}
	back[u] = -1
	return *head < 0
}

// rankBuckets is the table kernel's priority queue: one intrusive list
// of queued nodes per rank (see link), threaded through two per-node
// arrays the caller lends, plus a bitmap of the non-empty ranks so the
// minimum is found a word at a time. Only the per-rank heads and the
// bitmap are its own; every list is empty between solves.
type rankBuckets struct {
	head []int32
	bits []uint64
	// lo is a word index below which no bit is set.
	lo int
}

// size readies the buckets for n ranks.
func (b *rankBuckets) size(n int) {
	if cap(b.head) < n {
		b.head = make([]int32, n)
		for i := range b.head {
			b.head[i] = -1
		}
		b.bits = make([]uint64, (n+63)>>6)
	}
	b.head = b.head[:n]
	b.bits = b.bits[:(n+63)>>6]
	b.lo = 0
}

// insert queues u at rank r.
func (b *rankBuckets) insert(u int, r uint16, next []int32, back []int) {
	if link(&b.head[r], u, next, back) {
		b.bits[r>>6] |= 1 << (r & 63)
	}
	if wi := int(r >> 6); wi < b.lo {
		b.lo = wi
	}
}

// remove unlinks u, queued at rank r.
func (b *rankBuckets) remove(u int, r uint16, next []int32, back []int) {
	if unlink(&b.head[r], u, next, back) {
		b.bits[r>>6] &^= 1 << (r & 63)
	}
}

// popMin dequeues a node of the lowest queued rank, or returns -1 when
// every bucket is empty.
func (b *rankBuckets) popMin(next []int32, back []int) int {
	for ; b.lo < len(b.bits); b.lo++ {
		x := b.bits[b.lo]
		if x == 0 {
			continue
		}
		r := b.lo<<6 | bits.TrailingZeros64(x)
		u := int(b.head[r])
		if unlink(&b.head[r], u, next, back) {
			b.bits[b.lo] = x &^ (1 << (r & 63))
		}
		return u
	}
	return -1
}

// idBuckets is the comparison kernel's priority queue: the same intrusive
// lists, one per interned weight id, and a binary heap of the distinct
// queued ids ordered by the engine's Lt. head[id] is -1 for an id not in
// the heap and idQueued for one in the heap whose list has emptied; the
// heap drops such an id when it surfaces. head grows with the engine's
// interned ids and is all -1 again whenever the heap is empty, so no
// solve resets it.
type idBuckets struct {
	head []int32
	heap []int32
}

const idQueued = -2

// insert queues u under weight id w.
func (b *idBuckets) insert(eng exec.Algebra, u int, w int32, next []int32, back []int) {
	for int(w) >= len(b.head) {
		b.head = append(b.head, -1)
	}
	if b.head[w] == -1 {
		b.push(eng, w)
	}
	link(&b.head[w], u, next, back)
}

// remove unlinks u, queued under weight id w.
func (b *idBuckets) remove(u int, w int32, next []int32, back []int) {
	if unlink(&b.head[w], u, next, back) {
		b.head[w] = idQueued
	}
}

// popMin dequeues a node of the least queued weight, or returns -1 when
// the heap is empty.
func (b *idBuckets) popMin(eng exec.Algebra, next []int32, back []int) int {
	for len(b.heap) > 0 {
		w := b.heap[0]
		if u := int(b.head[w]); u >= 0 {
			if unlink(&b.head[w], u, next, back) {
				b.head[w] = idQueued
			}
			return u
		}
		b.head[w] = -1
		b.pop(eng)
	}
	return -1
}

// push adds id w to the heap.
func (b *idBuckets) push(eng exec.Algebra, w int32) {
	h := append(b.heap, w)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eng.Lt(w, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = w
	b.heap = h
}

// pop removes the heap's least id.
func (b *idBuckets) pop(eng exec.Algebra) {
	h := b.heap
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && eng.Lt(h[c+1], h[c]) {
			c++
		}
		if !eng.Lt(h[c], last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	b.heap = h
}

// clear empties the queue after an abandoned solve.
func (b *idBuckets) clear() {
	for _, w := range b.heap {
		b.head[w] = -1
	}
	b.heap = b.heap[:0]
}

// bestFirst is the table kernel over t's tables. Settling a node
// relaxes its in-arcs push-style; a tail whose weight improves moves to
// its new rank's bucket, below the one being drained if need be (only
// under M). requeue false leaves settled nodes alone — label-setting
// proper, which strict I makes exact and M does not; the differential
// tests run that mutant to show the re-queue is needed. The list links
// borrow prevW (next) and nextHop (back), which hold nothing until the
// primary pass: every list is empty when the loop ends, so nextHop is
// back to all -1 for that pass to fill. On an M-licensed table every
// weight improvement's arc goes to logBuf: the derivation log
// (derivation.go).
func (ws *Workspace) bestFirst(t *compile.Compiled, g *graph.Graph, dest int, o int32, requeue bool) (settles int, relaxations uint64) {
	ws.reset(g.N, dest, o)
	fn, rank, stride := t.Fn, t.Rank, t.N
	w, next, back := ws.w, ws.prevW, ws.nextHop
	bq := &ws.buckets
	bq.size(t.N)
	bq.insert(dest, rank[o], next, back)
	logging := t.Monotone
	ws.logPrev, ws.logBuf = nil, ws.logBuf[:0]
	var arcs []int32
	for {
		u := bq.popMin(next, back)
		if u < 0 {
			break
		}
		settles++
		wu := int(w[u])
		if logging {
			arcs = g.In(u)
		}
		for k, h := range g.InHops(u) {
			p := int(h.Node)
			if p == dest {
				continue
			}
			relaxations++
			cand := fn[int(h.Label)*stride+wu]
			rc := rank[cand]
			if wp := w[p]; wp >= 0 {
				if rc >= rank[wp] {
					continue
				}
				if back[p] >= 0 {
					bq.remove(p, rank[wp], next, back)
				} else if !requeue {
					continue
				}
			}
			w[p] = int32(cand)
			if logging {
				ws.logBuf = append(ws.logBuf, arcs[k])
			}
			bq.insert(p, rc, next, back)
		}
	}
	ws.logged = logging
	// Primary next hops over the final weights, by the sweep's rule: the
	// first out-arc whose candidate has minimal rank. A node's weight is
	// that minimum, so the first out-arc reaching its rank is the one.
	routed, nextHop := ws.routed, ws.nextHop
	for u, wu := range w {
		if wu < 0 {
			continue
		}
		routed[u] = true
		if u == dest {
			continue
		}
		best := rank[wu]
		for _, h := range g.OutHops(u) {
			pw := w[h.Node]
			if pw < 0 {
				continue
			}
			relaxations++
			if rank[fn[int(h.Label)*stride+int(pw)]] == best {
				nextHop[u] = int(h.Node)
				break
			}
		}
	}
	return settles, relaxations
}

// bestFirstLt is the comparison kernel: bestFirst on any engine, with
// weight ids for ranks, Apply for the table lookup and idBuckets for the
// queue. Under M a weight may keep falling on inputs whose order is not
// well-founded, so past (2N+4)·N settles — more than the sweep's whole
// round budget could re-evaluate — it gives up and returns settles -1,
// with the queue emptied, for ScratchRaw to sweep instead.
func (ws *Workspace) bestFirstLt(eng exec.Algebra, plan Plan, g *graph.Graph, dest int, o int32, requeue bool) (settles int, relaxations uint64) {
	ws.reset(g.N, dest, o)
	w, next, back := ws.w, ws.prevW, ws.nextHop
	q := &ws.ids
	q.insert(eng, dest, o, next, back)
	chk := newRelaxCheck(eng, plan)
	budget := (2*g.N + 4) * g.N
	for {
		u := q.popMin(eng, next, back)
		if u < 0 {
			break
		}
		if settles++; settles > budget {
			q.clear()
			return -1, relaxations
		}
		wu := w[u]
		for _, h := range g.InHops(u) {
			p := int(h.Node)
			if p == dest {
				continue
			}
			relaxations++
			cand := eng.Apply(int(h.Label), wu)
			chk.relax(wu, cand)
			if wp := w[p]; wp >= 0 {
				if cand == wp || !eng.Lt(cand, wp) {
					continue
				}
				if back[p] >= 0 {
					q.remove(p, wp, next, back)
				} else if !requeue {
					continue
				}
			}
			w[p] = cand
			q.insert(eng, p, cand, next, back)
		}
	}
	// Primary next hops by the sweep's rule: the first out-arc whose
	// candidate is minimal, which on an antisymmetric order is the first
	// one whose candidate is the node's own weight.
	routed, nextHop := ws.routed, ws.nextHop
	for u, wu := range w {
		if wu < 0 {
			continue
		}
		routed[u] = true
		if u == dest {
			continue
		}
		for _, h := range g.OutHops(u) {
			pw := w[h.Node]
			if pw < 0 {
				continue
			}
			relaxations++
			if eng.Apply(int(h.Label), pw) == wu {
				nextHop[u] = int(h.Node)
				break
			}
		}
	}
	return settles, relaxations
}
