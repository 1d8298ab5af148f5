package solve

import (
	"math/rand"
	"slices"
	"testing"

	"metarouting/internal/compile"
	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
)

// rawWarm serves an owned Raw as a previous column.
func rawWarm(r Raw) WarmStart {
	return func(u int) (bool, int32, int) {
		if !r.Routed[u] {
			return false, 0, -1
		}
		return true, r.W[u], r.NextHop[u]
	}
}

// sameServed reports whether two solutions agree on routedness, and on
// weight and primary next hop wherever they are routed.
func sameServed(a, b Raw) bool {
	if !slices.Equal(a.Routed, b.Routed) {
		return false
	}
	for u, ok := range a.Routed {
		if ok && (a.W[u] != b.W[u] || a.NextHop[u] != b.NextHop[u]) {
			return false
		}
	}
	return true
}

// served is the column a delta on the lazy overlay serves: the drain's
// state where it loaded a node, the previous column's everywhere else.
func (ws *Workspace) served(n, dest int, prev WarmStart) Raw {
	for u := 0; u < n; u++ {
		ws.ensure(u, prev)
		ws.hop(u, prev)
	}
	return ownRaw(ws.raw(dest, 0, true))
}

// logDelta runs the log warm start with replay standing in for
// replayLog: it must leave S as replayLog does, as restarts and its
// marks. With settle false it skips the settle: S
// starts unrouted and is queued before the toggle tails, and the logged
// drain runs at once. ok is false on a fallback.
func (ws *Workspace) logDelta(t *compile.Compiled, g *graph.Graph, disabled []bool, dest int, o int32, prev WarmStart, toggles []ArcToggle, replay func(), settle bool) (Raw, bool) {
	ws.sparseReset(g.N)
	ws.loadNode(dest, true, o, -1)
	replay()
	var ok bool
	if settle {
		_, _, _, ok = ws.deltaDrainLog(t, g, disabled, dest, prev, toggles, 0)
	} else {
		ws.seedRestarts(dest)
		for _, tg := range toggles {
			ws.push(g.Arcs[tg.Arc].From, dest)
		}
		_, _, ok = ws.drainLog(t, g, disabled, dest, defaultPopBudget(g.N), prev, false)
	}
	return ws.served(g.N, dest, prev), ok
}

// restartAt puts x in S, as replayLog's marks do.
func (ws *Workspace) restartAt(x int) {
	ws.restart[x] = ws.restartEpoch
	ws.restarts = append(ws.restarts, int32(x))
}

// clearReplay readies a replay stand-in: no previous log and an empty S.
func (ws *Workspace) clearReplay(n int) {
	ws.logPrev, ws.logDead, ws.logBuf, ws.restarts = nil, ws.logDead[:0], ws.logBuf[:0], ws.restarts[:0]
	ws.restart, ws.restartEpoch = resetEpochSet(ws.restart, ws.restartEpoch, n)
}

// The broken warm starts the proof rules out, as replays.

// justifyByFinalWeights forgets the history: a node keeps its weight
// unless its primary next-hop chain crosses a failed arc, so a cycle of
// primary next hops that avoids every failed arc justifies itself.
func justifyByFinalWeights(ws *Workspace, prev Raw, g *graph.Graph, toggles []ArcToggle) func() {
	return func() {
		ws.clearReplay(g.N)
		bad := make([]bool, g.N)
		for changed := true; changed; {
			changed = false
			for x, ok := range prev.Routed {
				nh := prev.NextHop[x]
				if !ok || nh < 0 || bad[x] {
					continue
				}
				failed := bad[nh]
				for _, tg := range toggles {
					a := g.Arcs[tg.Arc]
					failed = failed || tg.Down && a.From == x && a.To == nh
				}
				if failed {
					bad[x], changed = true, true
					ws.restartAt(x)
				}
			}
		}
	}
}

// unpropagated replays the log but invalidates only the entries on
// failed arcs, not their descendants.
func unpropagated(ws *Workspace, g *graph.Graph, disabled []bool, log []int32) func() {
	return func() {
		ws.clearReplay(g.N)
		for _, ai := range log {
			x := g.Arcs[ai].From
			if disabled[ai] {
				if !ws.restarting(x) {
					ws.restartAt(x)
				}
				continue
			}
			ws.restart[x] = 0
		}
	}
}

// resetAlgebra is the chain 0 < 1 < … < 5 under the identity, constants
// (left(T)'s resets) and v ↦ max(v, 3): monotone, not increasing.
func resetAlgebra(t *testing.T) (exec.Algebra, *compile.Compiled) {
	t.Helper()
	konst := func(c int) func(int) int { return func(int) int { return c } }
	eng, tab := compiledOT(t, intOT("reset", 6, identity, identity, konst(1), konst(2), konst(3), konst(4),
		func(v int) int { return max(v, 3) }))
	if !tab.Monotone || tab.StrictlyIncreasing {
		t.Fatalf("reset algebra: licences M=%v strict-I=%v, want M only", tab.Monotone, tab.StrictlyIncreasing)
	}
	return eng, tab
}

// Labels of resetAlgebra.
const (
	lID = iota
	lK1
	lK2
	lK3
	lK4
	lMax3
)

// padded adds 16 leaves hanging off the destination, so a batch's
// frontier stays below the cutover at half the nodes.
func padded(n int, arcs []graph.Arc) *graph.Graph {
	for u := n; u < n+16; u++ {
		arcs = append(arcs, graph.Arc{From: u, To: 0, Label: lK4})
	}
	return graph.MustNew(n+16, arcs)
}

// TestDerivationDeltaMutantsFail runs the three broken warm starts the
// log's proof rules out, and each must disagree with a scratch build or
// trip the invariant that no logged drain step raises a weight (the
// onRaise hook):
//   - justification by final weights, on a left(T) reset cycle: node 1
//     reaches the destination over a reset arc, nodes 1 and 2 reset each
//     other to a better weight, and the reset arc fails — the cycle's
//     primary next hops avoid it and keep the phantom route;
//   - invalidity that stays on the failed arc's own entries, on the same
//     cycle;
//   - "unrouted wherever the last entry is invalid", the real replay with
//     the settle skipped, on a hand-made log of a legal descending
//     derivation where a toggle tail is popped while its support is still
//     unrouted: it raises.
//
// The real warm start agrees with scratch on each, and on 400 policy
// storms its drain never raises a weight.
func TestDerivationDeltaMutantsFail(t *testing.T) {
	eng, tab := resetAlgebra(t)
	ws := NewWorkspace()
	raised := false
	ws.onRaise = func(int) { raised = true }
	check := func(name string, g *graph.Graph, hand []int32, toggles []ArcToggle, settle bool, mutant func(prev Raw, disabled []bool, log *Log) func()) {
		t.Helper()
		prev := ownRaw(ws.ScratchRaw(eng, g, 0, 0))
		log := ws.DerivationLog(g, 0)
		if hand != nil {
			log = freshLog(g, hand)
		}
		disabled := make([]bool, len(g.Arcs))
		for _, tg := range toggles {
			disabled[tg.Arc] = tg.Down
		}
		view := g.MaskArcs(disabled)
		want := ownRaw(ws.ScratchRaw(eng, view, 0, 0))
		raised = false
		got, st := ws.BellmanFordDeltaLog(eng, view, disabled, 0, 0, rawWarm(prev), false, log, toggles, 0)
		if !st.UsedDelta || raised || !sameServed(ws.served(g.N, 0, rawWarm(prev)), want) {
			t.Fatalf("%s: the real warm start (delta %v, raised %v) disagrees with scratch\n got %+v\nwant %+v", name, st.UsedDelta, raised, got, want)
		}
		raised = false
		got, ok := ws.logDelta(tab, view, disabled, 0, 0, rawWarm(prev), toggles, mutant(prev, disabled, log), settle)
		if !raised && ok && sameServed(got, want) {
			t.Fatalf("%s: the mutant matched scratch without raising a weight", name)
		}
		t.Logf("%s: caught (raised %v, fallback %v, routes differ %v)", name, raised, !ok, !sameServed(got, want))
	}

	// Arc 0: 1→0 resets to 2; arcs 1, 2: 1→2 and 2→1 reset to 1. The
	// kernel logs 1→0, 2→1, 1→2 and leaves 1 and 2 at 1, forwarding to
	// each other; arc 0 fails.
	cycle := padded(3, []graph.Arc{{From: 1, To: 0, Label: lK2}, {From: 1, To: 2, Label: lK1}, {From: 2, To: 1, Label: lK1}})
	fail0 := []ArcToggle{{Arc: 0, Down: true}}
	check("justification by final weights", cycle, nil, fail0, true, func(prev Raw, _ []bool, _ *Log) func() {
		return justifyByFinalWeights(ws, prev, cycle, fail0)
	})
	check("invalidity not propagated", cycle, nil, fail0, true, func(_ Raw, disabled []bool, log *Log) func() {
		return unpropagated(ws, cycle, disabled, log.Arcs())
	})

	// Nodes x=1, m=2, p=3, k=4, k2=5, z=6. m resets to 3 at the
	// destination, x copies m, p caps x at 3; then k (1) lowers x and k2
	// (2) lowers m, after x's improvement. Failing x→k, m→k2 and p→z
	// invalidates x before m in log order, and p, a toggle tail, leans on
	// x alone.
	hand := padded(7, []graph.Arc{
		{From: 2, To: 0, Label: lK3}, {From: 1, To: 2, Label: lID}, {From: 3, To: 1, Label: lMax3},
		{From: 4, To: 0, Label: lK1}, {From: 1, To: 4, Label: lID}, {From: 5, To: 0, Label: lK2},
		{From: 2, To: 5, Label: lID}, {From: 6, To: 0, Label: lK4}, {From: 3, To: 6, Label: lID}})
	handLog := []int32{3, 7, 0, 1, 2, 4, 5, 6}
	for ai := 9; ai < len(hand.Arcs); ai++ {
		handLog = append(handLog, int32(ai)) // the padding leaves
	}
	handFail := []ArcToggle{{Arc: 4, Down: true}, {Arc: 6, Down: true}, {Arc: 8, Down: true}}
	check("unrouted for invalid nodes", hand, handLog, handFail, false, func(_ Raw, disabled []bool, log *Log) func() {
		return func() { ws.replayLog(hand.MaskArcs(disabled), disabled, log, handFail) }
	})

	// The invariant on the workload's algebra: chained fail and restore
	// storms on a 300-node scale-free graph, every destination's column
	// and log carried along. The settle-skipping mutant runs beside it.
	var logged, trips int
	policyLogStorms(t, ws, func(s logStorm) {
		raised = false
		mut, ok := ws.logDelta(s.tab, s.view, s.disabled, s.dest, s.o, rawWarm(s.prev), s.toggles,
			func() { ws.replayLog(s.view, s.disabled, s.log, s.toggles) }, false)
		if raised || ok && !sameServed(mut, s.want) {
			trips++
		}
		raised = false
		st := s.delta()
		if raised {
			t.Fatalf("dest %d step %d: a logged drain step raised a weight", s.dest, s.step)
		}
		if st.UsedDelta {
			logged++
		}
	})
	if logged < 300 {
		t.Fatalf("only %d of 400 policy rebuilds took the log warm start", logged)
	}
	t.Logf("policy storms: %d log warm starts, none raised; the settle-skipping mutant tripped on %d of 400", logged, trips)
}

// TestDerivationRestartsCounted holds the log warm start's counted cost
// to its contract on the policy storms: DeltaStats.Restarts is |S|, the
// number of nodes whose last log entry the batch invalidated, as a naive
// pass that recomputes every entry's validity from its parent counts it.
func TestDerivationRestartsCounted(t *testing.T) {
	ws := NewWorkspace()
	var logged, restarts int
	policyLogStorms(t, ws, func(s logStorm) {
		last := make([]int, s.g.N) // 0 no entry, 1 valid, 2 invalid
		for _, ai := range s.log.Arcs() {
			a := s.g.Arcs[ai]
			last[a.From] = 1
			if s.disabled[ai] || a.To != s.dest && last[a.To] == 2 {
				last[a.From] = 2
			}
		}
		want := 0
		for _, l := range last {
			if l == 2 {
				want++
			}
		}
		st := s.delta()
		if !st.UsedDelta {
			return
		}
		logged++
		restarts += st.Restarts
		if st.Restarts != want {
			t.Fatalf("dest %d step %d: %d restarts, the naive pass finds %d nodes whose last entry went invalid", s.dest, s.step, st.Restarts, want)
		}
	})
	if logged < 300 || restarts == 0 {
		t.Fatalf("fixture lost its teeth: %d log warm starts restarting %d nodes", logged, restarts)
	}
	t.Logf("%d log warm starts restarted %d nodes", logged, restarts)
}

// logStorm is one rebuild of policyLogStorms: a destination's previous
// column and log, the batch, the view and mask after it, and the scratch
// build on that view.
type logStorm struct {
	g, view    *graph.Graph
	tab        *compile.Compiled
	dest, step int
	o          int32
	prev, want Raw
	log        *Log
	disabled   []bool
	toggles    []ArcToggle
	delta      func() DeltaStats
}

// policyLogStorms drives chained 4-arc fail and restore storms of the
// workload's algebra, scoped(bw(4), delay(64,4)), on a 300-node
// scale-free graph: 20 storms at each of 20 destinations, 400 rebuilds.
// visit sees each rebuild before it runs and must call s.delta, which
// runs the real log warm start on ws and checks it against scratch; the
// column and log it leaves are carried to the next storm.
func policyLogStorms(t *testing.T, ws *Workspace, visit func(s logStorm)) {
	t.Helper()
	a, err := core.InferString("scoped(bw(4), delay(64,4))")
	if err != nil {
		t.Fatal(err)
	}
	peng, ptab := compiledOT(t, a.OT)
	r := rand.New(rand.NewSource(17))
	g := graph.ScaleFree(r, 300, 2, graph.UniformLabels(a.OT.F.Size()))
	origin := a.OT.DefaultOrigin()
	o := exec.MustIntern(peng, origin)
	for dest := 0; dest < g.N; dest += 15 {
		disabled := make([]bool, len(g.Arcs))
		prev := ownRaw(ws.ScratchRaw(peng, g, dest, origin))
		log := ws.DerivationLog(g, dest)
		view := g
		for step := 0; step < 20; step++ {
			var toggles []ArcToggle
			var arcs []int
			for len(toggles) < 4 {
				ai := r.Intn(len(g.Arcs))
				if disabled[ai] != (step%2 == 1) || slices.Contains(arcs, ai) {
					continue
				}
				disabled[ai] = !disabled[ai]
				arcs = append(arcs, ai)
				toggles = append(toggles, ArcToggle{Arc: ai, Down: disabled[ai]})
			}
			view = view.WithArcsToggled(arcs, disabled)
			s := logStorm{g: g, view: view, tab: ptab, dest: dest, step: step, o: o, prev: prev, log: log,
				disabled: disabled, toggles: toggles}
			s.want = ownRaw(NewWorkspace().ScratchRaw(peng, view, dest, origin))
			ran := false
			s.delta = func() DeltaStats {
				ran = true
				_, st := ws.BellmanFordDeltaLog(peng, view, disabled, dest, origin, rawWarm(s.prev), false, s.log, toggles, 0)
				next := ownRaw(ws.raw(dest, 0, true)) // a fallback's state is whole
				if st.UsedDelta {
					next = ws.served(g.N, dest, rawWarm(s.prev))
				}
				if !sameServed(next, s.want) {
					t.Fatalf("dest %d step %d (delta %v): the log warm start disagrees with scratch", dest, step, st.UsedDelta)
				}
				prev, log = next, ws.DerivationLog(view, dest)
				return st
			}
			visit(s)
			if !ran {
				t.Fatalf("dest %d step %d: the visit did not run the delta", dest, step)
			}
		}
	}
}
