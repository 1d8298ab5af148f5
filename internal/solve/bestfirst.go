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
// build the algebra's proof chooses. On a ranked compiled engine whose
// tables carry a licence (compile.Compiled.Monotone or
// StrictlyIncreasing), ScratchRaw settles nodes best-first out of rank
// buckets and returns exactly the state a converged synchronous sweep
// leaves — routedness, weights and next hops — in one pass over the
// arcs instead of one per round:
//
//   - M: the sweep from "all unrouted" descends to the greatest fixpoint
//     of a monotone operator; so does any fair chaotic iteration from the
//     same start, which is what the kernel is — every value it writes is
//     an arc function applied to a value at or above the greatest
//     fixpoint, and it stops only when each node holds the minimum over
//     its out-arcs of its neighbours' final weights. A candidate may beat
//     an already settled node here, so the node is re-queued.
//   - strict I: among states routed exactly where the destination is
//     reachable, the fixpoint is unique (a minimal disagreeing weight
//     would need a strictly smaller, hence agreeing, parent), and
//     label-setting reaches it with every node settled once.
//
// The injective rank turns "same rank" into "same weight index", which is
// what makes the result bit-identical rather than merely equivalent. The
// kernel always converges; where a sweep would have stopped at its
// 2N+4-round budget before the fixpoint, ScratchRaw returns the fixpoint
// with Converged true. Every other engine — tiered, dynamic, rank-less or
// unlicensed — runs the sweep.

// ScratchSolver names the from-scratch solver ScratchRaw runs on eng:
// "best-first (M)" or "best-first (I)" when eng's compiled tables carry
// the licence in parentheses (M wins when both hold), "sweep" otherwise.
func ScratchSolver(eng exec.Algebra) string {
	switch t := licensed(eng); {
	case t == nil:
		return "sweep"
	case t.Monotone:
		return "best-first (M)"
	}
	return "best-first (I)"
}

// licensed returns eng's tables when they license the best-first kernel,
// nil when the sweep must run.
func licensed(eng exec.Algebra) *compile.Compiled {
	if t := exec.Tables(eng); t != nil && (t.Monotone || t.StrictlyIncreasing) {
		return t
	}
	return nil
}

// ScratchRaw solves dest from scratch with the solver the algebra's
// licence picks (see ScratchSolver) and returns a Raw aliasing the
// workspace, like BellmanFordRaw. On the best-first kernel Rounds counts
// node settles and Converged is always true; on the sweep the result is
// BellmanFordRaw's with the default round budget.
func (ws *Workspace) ScratchRaw(eng exec.Algebra, g *graph.Graph, dest int, origin value.V) Raw {
	t := licensed(eng)
	if t == nil {
		return ws.BellmanFordRaw(eng, g, dest, origin, 0)
	}
	var t0 time.Time
	if ws.Metrics != nil {
		t0 = time.Now()
	}
	settles, relaxations := ws.bestFirst(t, g, dest, exec.MustIntern(eng, origin), true)
	if m := ws.Metrics; m != nil {
		m.Runs.Inc()
		m.Rounds.Add(uint64(settles))
		m.Relaxations.Add(relaxations)
		m.SolveNS.Observe(time.Since(t0).Nanoseconds())
	}
	return ws.raw(dest, settles, true)
}

// rankBuckets is the best-first kernel's priority queue: one intrusive
// doubly-linked list of queued nodes per rank, threaded through two
// per-node arrays the caller lends (next, and back, where back[u] == u
// marks a list head and -1 a node in no list), plus a bitmap of the
// non-empty ranks so the minimum is found a word at a time. Only the
// per-rank heads and the bitmap are its own; every list is empty between
// solves.
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
	h := b.head[r]
	next[u] = h
	if h >= 0 {
		back[h] = u
	} else {
		b.bits[r>>6] |= 1 << (r & 63)
	}
	back[u] = u
	b.head[r] = int32(u)
	if wi := int(r >> 6); wi < b.lo {
		b.lo = wi
	}
}

// remove unlinks u, queued at rank r.
func (b *rankBuckets) remove(u int, r uint16, next []int32, back []int) {
	nx, bk := next[u], back[u]
	if bk == u {
		b.head[r] = nx
		if nx >= 0 {
			back[nx] = int(nx)
		} else {
			b.bits[r>>6] &^= 1 << (r & 63)
		}
	} else {
		next[bk] = nx
		if nx >= 0 {
			back[nx] = bk
		}
	}
	back[u] = -1
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
		nx := next[u]
		b.head[r] = nx
		if nx >= 0 {
			back[nx] = int(nx)
		} else {
			b.bits[b.lo] = x &^ (1 << (r & 63))
		}
		back[u] = -1
		return u
	}
	return -1
}

// bestFirst is the licensed kernel over t's tables. Settling a node
// relaxes its in-arcs push-style; a tail whose weight improves moves to
// its new rank's bucket, below the one being drained if need be (only
// under M). requeue false leaves settled nodes alone — label-setting
// proper, which strict I makes exact and M does not; the differential
// tests run that mutant to show the re-queue is needed. The list links
// borrow prevW (next) and nextHop (back), which hold nothing until the
// primary pass: every list is empty when the loop ends, so nextHop is
// back to all -1 for that pass to fill.
func (ws *Workspace) bestFirst(t *compile.Compiled, g *graph.Graph, dest int, o int32, requeue bool) (settles int, relaxations uint64) {
	ws.reset(g.N, dest, o)
	fn, rank, stride := t.Fn, t.Rank, t.N
	w, next, back := ws.w, ws.prevW, ws.nextHop
	bq := &ws.buckets
	bq.size(t.N)
	bq.insert(dest, rank[o], next, back)
	for {
		u := bq.popMin(next, back)
		if u < 0 {
			break
		}
		settles++
		wu := int(w[u])
		for _, h := range g.InHops(u) {
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
			bq.insert(p, rc, next, back)
		}
	}
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
