package solve

import (
	"sort"
	"time"

	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/value"
)

// This file holds the engine-level solvers: every algorithm is written
// once against exec.Algebra (weights as int32 indices) and runs
// unchanged over the dynamic and compiled backends. The ost-level entry
// points (Dijkstra, BellmanFord, …) are thin wrappers that pick a
// backend with exec.For, so finite algebras get table-lookup inner loops
// automatically. Index equality coincides with value equality on both
// backends, which is what keeps the change-detection logic identical to
// the historical dynamic solvers.

// resolveResult converts an index-form solution into Result, resolving
// routed weights through the engine (unrouted nodes keep a nil weight).
func resolveResult(eng exec.Algebra, dest int, routed []bool, w []int32, nextHop []int, rounds int, converged bool) *Result {
	res := &Result{
		Dest:      dest,
		Routed:    routed,
		Weights:   make([]value.V, len(routed)),
		NextHop:   nextHop,
		Rounds:    rounds,
		Converged: converged,
	}
	for u := range routed {
		if routed[u] {
			res.Weights[u] = eng.Value(w[u])
		}
	}
	return res
}

func newEngineState(g *graph.Graph, dest int, origin int32) (routed []bool, w []int32, nextHop []int) {
	routed = make([]bool, g.N)
	w = make([]int32, g.N)
	nextHop = make([]int, g.N)
	for i := range nextHop {
		nextHop[i] = -1
	}
	routed[dest] = true
	w[dest] = origin
	return routed, w, nextHop
}

// DijkstraEngine is the generalized Dijkstra over an execution engine;
// semantics match Dijkstra.
func DijkstraEngine(eng exec.Algebra, g *graph.Graph, dest int, origin value.V) *Result {
	o := exec.MustIntern(eng, origin)
	routed, w, nextHop := newEngineState(g, dest, o)
	settled := make([]bool, g.N)
	for rounds := 0; ; rounds++ {
		u := -1
		for v := 0; v < g.N; v++ {
			if settled[v] || !routed[v] {
				continue
			}
			if u < 0 || eng.Lt(w[v], w[u]) {
				u = v
			}
		}
		if u < 0 {
			return resolveResult(eng, dest, routed, w, nextHop, rounds, true)
		}
		settled[u] = true
		for _, in := range g.InHops(u) {
			p := int(in.Node)
			if settled[p] {
				continue
			}
			cand := eng.Apply(int(in.Label), w[u])
			if !routed[p] || eng.Lt(cand, w[p]) {
				routed[p] = true
				w[p] = cand
				nextHop[p] = u
			}
		}
	}
}

// Workspace holds the per-run scratch buffers of the synchronous
// fixpoint solver, so a worker that computes many destinations in a row
// — the shape of the serve snapshot builder's pool — reuses one set of
// allocations instead of five fresh slices per destination. A Workspace
// is not safe for concurrent use; give each worker its own.
type Workspace struct {
	routed  []bool
	w       []int32
	nextHop []int
	// prevW is the synchronous iteration's previous-round weights, -1
	// at unrouted nodes; inTree is the dense warm start's forwarding-tree
	// marks (see deltaDrain).
	prevW  []int32
	inTree []bool
	// stale and staleNext are the synchronous iteration's re-evaluation
	// sets for the current and the next round (see bellmanFord).
	stale, staleNext []bool
	// buckets and ids are the best-first kernels' queues, sized by the
	// carrier's rank count or the engine's interned ids, not by the graph
	// (see bestFirst and bestFirstLt).
	buckets rankBuckets
	ids     idBuckets

	// Worklist-solver scratch (see delta.go): FIFO of dirty nodes with a
	// membership bitmap, the set of nodes ever enqueued during a drain,
	// and an intrusive children index over the previous forwarding tree
	// used to invalidate subtrees on arc-down events.
	dirty     []bool
	queue     []int
	touched   []bool
	touchList []int
	childHead []int32
	childNext []int32

	// Epoch-stamped node sets (see sparse.go). loaded gates the sparse
	// delta drain's lazy warm-start overlay; vmarks memoizes forward-chain
	// verification. Bumping an epoch invalidates a whole set in O(1), so
	// neither needs a per-run O(N) clear.
	loaded, vmarks        []uint32
	loadEpoch, vmarkEpoch uint32
	// stack and vstack are DFS/chain scratch for the sparse drain and
	// the chain verifier.
	stack, vstack []int
	// moved is the drains' bitset of nodes whose routedness or weight
	// changed (DeltaStats.Moved); every member is on touchList, which is
	// how a sparse reset clears it.
	moved NodeSet
	// topEng and topW cache exec.Top for the last engine whose ⊤ was
	// found interned: an intern table is append-only, so the index stays.
	topEng exec.Algebra
	topW   int32

	// Derivation-log scratch (see derivation.go). The last solve's log is
	// logPrev (a previous column's log, read only; nil after a kernel run)
	// less logDead, the entries its replay found invalid, plus logBuf, the
	// arcs its kernel or drain appended; logged says whether that solve
	// kept one. restarts lists S, the nodes the replay restarts, and
	// restart stamps them with restartEpoch; logMark is the compaction's
	// position scratch, which also borrows prevW.
	logPrev          *Log
	logDead          []deadEntry
	logBuf, restarts []int32
	logMark          []bool
	logged           bool
	restart          []uint32
	restartEpoch     uint32
	// onRaise, set by tests, hears of a logged drain step that would
	// raise a weight — the invariant the log warm start's proof promises.
	onRaise func(u int)

	// Plan, when non-nil, picks ScratchRaw's kernel and the delta's warm
	// start; nil reads the engine's own (NewPlan). A server shares its
	// plan with every workspace of its pool.
	Plan *Plan

	// Metrics, when non-nil, receives per-stage solver telemetry (run
	// durations, relax-pass and relaxation counts, buffer reuse). Several
	// workspaces may share one Metrics.
	Metrics *Metrics
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// reset sizes the buffers for an n-node run and installs the origin.
// Unrouted nodes start at weight -1, which no engine index takes: the
// sweep keeps that invariant so one load of prevW answers both "routed"
// and "at what weight".
func (ws *Workspace) reset(n, dest int, origin int32) {
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
	if cap(ws.stale) < n {
		// Sized on their own: the delta drains grow the route buffers
		// without ever sweeping.
		ws.stale = make([]bool, n)
		ws.staleNext = make([]bool, n)
	}
	ws.stale = ws.stale[:n]
	ws.staleNext = ws.staleNext[:n]
	for i := 0; i < n; i++ {
		ws.routed[i] = false
		ws.w[i] = -1
		ws.nextHop[i] = -1
		ws.stale[i] = true
		ws.staleNext[i] = false
	}
	ws.routed[dest] = true
	ws.w[dest] = origin
	ws.logged, ws.logPrev, ws.logBuf = false, nil, ws.logBuf[:0]
}

// materialize copies the workspace state into a fresh Result (the
// buffers are about to be reused, so the Result must own its slices).
func (ws *Workspace) materialize(eng exec.Algebra, dest, rounds int, converged bool) *Result {
	res := &Result{
		Dest:      dest,
		Routed:    append([]bool(nil), ws.routed...),
		Weights:   make([]value.V, len(ws.routed)),
		NextHop:   append([]int(nil), ws.nextHop...),
		Rounds:    rounds,
		Converged: converged,
	}
	for u := range ws.routed {
		if ws.routed[u] {
			res.Weights[u] = eng.Value(ws.w[u])
		}
	}
	return res
}

// BellmanFordEngine is the synchronous fixpoint iteration over an
// execution engine; semantics match BellmanFord.
func BellmanFordEngine(eng exec.Algebra, g *graph.Graph, dest int, origin value.V, maxRounds int) *Result {
	return NewWorkspace().BellmanFord(eng, g, dest, origin, maxRounds)
}

// BellmanFord runs BellmanFordEngine out of the workspace's reusable
// buffers. The returned Result owns fresh copies of its slices and is
// bit-identical to a BellmanFordEngine call with the same arguments.
// When ws.Metrics is set, the run's duration, relax passes and
// relaxation count are recorded (one clock read pair per run — the
// inner loops stay uninstrumented).
func (ws *Workspace) BellmanFord(eng exec.Algebra, g *graph.Graph, dest int, origin value.V, maxRounds int) *Result {
	raw := ws.BellmanFordRaw(eng, g, dest, origin, maxRounds)
	return ws.materialize(eng, dest, raw.Rounds, raw.Converged)
}

// Raw is an index-form single-destination solution whose slices alias
// the workspace's reusable buffers: weights are engine indices, not
// resolved values. A Raw is valid only until the workspace's next solve
// and must be treated as read-only — it exists so the RIB layer can
// fill arena columns straight from solver state without materializing
// one interface value and three fresh slices per destination.
type Raw struct {
	// Dest is the destination node.
	Dest int
	// Routed marks nodes holding a route; W holds their engine weight
	// index and NextHop their forwarding neighbour (-1 at Dest and at
	// unrouted nodes).
	Routed  []bool
	W       []int32
	NextHop []int
	// Rounds and Converged mirror Result.
	Rounds    int
	Converged bool
}

// raw wraps the workspace's live state as a Raw view.
func (ws *Workspace) raw(dest, rounds int, converged bool) Raw {
	return Raw{
		Dest:      dest,
		Routed:    ws.routed,
		W:         ws.w,
		NextHop:   ws.nextHop,
		Rounds:    rounds,
		Converged: converged,
	}
}

// BellmanFordRaw is BellmanFord without the materialization step: the
// returned Raw aliases the workspace buffers (valid until the next
// solve) and is index-form — the arena column builders consume it.
func (ws *Workspace) BellmanFordRaw(eng exec.Algebra, g *graph.Graph, dest int, origin value.V, maxRounds int) Raw {
	var t0 time.Time
	if ws.Metrics != nil {
		t0 = time.Now()
	}
	rounds, relaxations, converged := ws.bellmanFord(eng, g, dest, origin, maxRounds)
	if m := ws.Metrics; m != nil {
		m.Runs.Inc()
		m.Rounds.Add(uint64(rounds))
		m.Relaxations.Add(relaxations)
		m.SolveNS.Observe(time.Since(t0).Nanoseconds())
	}
	return ws.raw(dest, rounds, converged)
}

// bellmanFord is the synchronous (Jacobi) iteration: every round
// re-selects each node's best route from its out-neighbours' routes of
// the round before. A node's selection is a function of those routes
// alone, so a round re-evaluates only the stale nodes — those with an
// out-neighbour whose route changed in the previous round — and leaves
// the others as they are: the state after every round, the round count
// and the convergence verdict are exactly the full sweep's, at fewer
// relaxations.
func (ws *Workspace) bellmanFord(eng exec.Algebra, g *graph.Graph, dest int, origin value.V, maxRounds int) (int, uint64, bool) {
	if maxRounds <= 0 {
		maxRounds = 2*g.N + 4
	}
	o := exec.MustIntern(eng, origin)
	ws.reset(g.N, dest, o)
	routed, w, nextHop := ws.routed, ws.w, ws.nextHop
	prevW := ws.prevW
	stale, staleNext := ws.stale, ws.staleNext
	var fn, rank []uint16
	var stride int
	if t := exec.Tables(eng); t != nil {
		fn, rank, stride = t.Fn, t.Rank, t.N
	}
	// rerouted marks u's in-neighbours stale for the next round.
	rerouted := func(u int) {
		for _, h := range g.InHops(u) {
			staleNext[h.Node] = true
		}
	}
	rounds := 0
	var relaxations uint64
	for round := 1; round <= maxRounds; round++ {
		copy(prevW, w)
		changed := false
		for u := 0; u < g.N; u++ {
			if !stale[u] {
				continue
			}
			stale[u] = false
			if u == dest {
				continue
			}
			// First head achieving a minimal candidate wins.
			nh := -1
			var best int32
			if rank != nil {
				var bestRank uint16
				for _, h := range g.OutHops(u) {
					pw := prevW[h.Node]
					if pw < 0 {
						continue
					}
					relaxations++
					cand := fn[int(h.Label)*stride+int(pw)]
					if r := rank[cand]; nh < 0 || r < bestRank {
						nh, best, bestRank = int(h.Node), int32(cand), r
					}
				}
			} else {
				for _, h := range g.OutHops(u) {
					pw := prevW[h.Node]
					if pw < 0 {
						continue
					}
					relaxations++
					cand := eng.Apply(int(h.Label), pw)
					if nh < 0 || eng.Lt(cand, best) {
						nh, best = int(h.Node), cand
					}
				}
			}
			if nh < 0 {
				if routed[u] {
					routed[u] = false
					w[u] = -1
					nextHop[u] = -1
					changed = true
					rerouted(u)
				}
				continue
			}
			if w[u] != best {
				rerouted(u)
			}
			if w[u] != best || nextHop[u] != nh {
				changed = true
				routed[u] = true
				w[u] = best
				nextHop[u] = nh
			}
		}
		rounds = round
		if !changed {
			return rounds, relaxations, true
		}
		stale, staleNext = staleNext, stale
	}
	return rounds, relaxations, false
}

// GaussSeidelEngine is BellmanFordEngine with in-place (chaotic
// relaxation) updates; semantics match GaussSeidel.
func GaussSeidelEngine(eng exec.Algebra, g *graph.Graph, dest int, origin value.V, maxRounds int) *Result {
	if maxRounds <= 0 {
		maxRounds = 2*g.N + 4
	}
	o := exec.MustIntern(eng, origin)
	routed, w, nextHop := newEngineState(g, dest, o)
	rounds := 0
	for round := 1; round <= maxRounds; round++ {
		changed := false
		for u := 0; u < g.N; u++ {
			if u == dest {
				continue
			}
			nh := -1
			var best int32
			for _, h := range g.OutHops(u) {
				v := h.Node
				if !routed[v] {
					continue
				}
				cand := eng.Apply(int(h.Label), w[v])
				if nh < 0 || eng.Lt(cand, best) {
					nh, best = int(v), cand
				}
			}
			if nh < 0 {
				if routed[u] {
					routed[u] = false
					nextHop[u] = -1
					changed = true
				}
				continue
			}
			if !routed[u] || w[u] != best || nextHop[u] != nh {
				changed = true
				routed[u] = true
				w[u] = best
				nextHop[u] = nh
			}
		}
		rounds = round
		if !changed {
			return resolveResult(eng, dest, routed, w, nextHop, rounds, true)
		}
	}
	return resolveResult(eng, dest, routed, w, nextHop, rounds, false)
}

// KBestEngine computes the k best route weights over an execution
// engine; semantics match KBest.
func KBestEngine(eng exec.Algebra, g *graph.Graph, dest int, origin value.V, k, maxRounds int) *KBestResult {
	if k < 1 {
		panic("solve: KBest needs k ≥ 1")
	}
	if maxRounds <= 0 {
		maxRounds = 2*g.N + 2*k + 4
	}
	o := exec.MustIntern(eng, origin)
	weights := make([][]int32, g.N)
	weights[dest] = []int32{o}
	res := &KBestResult{Dest: dest}
	for round := 1; round <= maxRounds; round++ {
		prev := make([][]int32, g.N)
		copy(prev, weights)
		changed := false
		for u := 0; u < g.N; u++ {
			if u == dest {
				continue
			}
			var cands []int32
			for _, h := range g.OutHops(u) {
				for _, w := range prev[h.Node] {
					cands = append(cands, eng.Apply(int(h.Label), w))
				}
			}
			next := kMinIdx(eng, cands, k)
			if !sameIdx(next, weights[u]) {
				weights[u] = next
				changed = true
			}
		}
		res.Rounds = round
		if !changed {
			res.Converged = true
			break
		}
	}
	res.Weights = make([][]value.V, g.N)
	for u := range weights {
		if weights[u] == nil {
			continue
		}
		res.Weights[u] = make([]value.V, len(weights[u]))
		for i, w := range weights[u] {
			res.Weights[u][i] = eng.Value(w)
		}
	}
	return res
}

// kMinIdx sorts candidates by the (total) preorder, stably, and keeps
// the first k — the index-form twin of kMin.
func kMinIdx(eng exec.Algebra, cands []int32, k int) []int32 {
	sort.SliceStable(cands, func(i, j int) bool { return eng.Lt(cands[i], cands[j]) })
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make([]int32, len(cands))
	copy(out, cands)
	return out
}

func sameIdx(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ClosureEngine computes the transitive closure A⁺ over a semiring
// engine; semantics match Closure.
func ClosureEngine(sr exec.Semiring, g *graph.Graph, weights []value.V, maxRounds int) *ClosureResult {
	if maxRounds <= 0 {
		maxRounds = 2*g.N + 4
	}
	n := g.N
	wIdx := make([]int32, len(weights))
	for i, w := range weights {
		idx, err := sr.Intern(w)
		if err != nil {
			panic(err)
		}
		wIdx[i] = idx
	}
	a := make([][]int32, n)
	adef := make([][]bool, n)
	for u := 0; u < n; u++ {
		a[u] = make([]int32, n)
		adef[u] = make([]bool, n)
	}
	for _, arc := range g.Arcs {
		w := wIdx[arc.Label]
		if adef[arc.From][arc.To] {
			a[arc.From][arc.To] = sr.Add(a[arc.From][arc.To], w)
		} else {
			a[arc.From][arc.To] = w
			adef[arc.From][arc.To] = true
		}
	}
	x := cloneIdxMat(a)
	xdef := cloneDef(adef)
	res := &ClosureResult{}
	for round := 1; round <= maxRounds; round++ {
		nx := cloneIdxMat(a)
		ndef := cloneDef(adef)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				for k := 0; k < n; k++ {
					if !adef[u][k] || !xdef[k][v] {
						continue
					}
					term := sr.Mul(a[u][k], x[k][v])
					if ndef[u][v] {
						nx[u][v] = sr.Add(nx[u][v], term)
					} else {
						nx[u][v] = term
						ndef[u][v] = true
					}
				}
			}
		}
		res.Rounds = round
		if idxMatEqual(nx, ndef, x, xdef) {
			res.Converged = true
			break
		}
		x, xdef = nx, ndef
	}
	res.Defined = xdef
	res.X = make([][]value.V, n)
	for u := 0; u < n; u++ {
		res.X[u] = make([]value.V, n)
		for v := 0; v < n; v++ {
			if xdef[u][v] {
				res.X[u][v] = sr.Value(x[u][v])
			}
		}
	}
	return res
}

func cloneIdxMat(a [][]int32) [][]int32 {
	out := make([][]int32, len(a))
	for i := range a {
		out[i] = append([]int32(nil), a[i]...)
	}
	return out
}

func idxMatEqual(x [][]int32, xd [][]bool, y [][]int32, yd [][]bool) bool {
	for i := range x {
		for j := range x[i] {
			if xd[i][j] != yd[i][j] {
				return false
			}
			if xd[i][j] && x[i][j] != y[i][j] {
				return false
			}
		}
	}
	return true
}
