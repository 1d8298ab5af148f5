package solve

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/value"
)

// The flat derivation log, kept as the indexed log's oracle: a []int32 of
// the live entries' arcs in order, replayed by a scan and copied whole on
// every rebuild.

// flatReplayLog is the flat replay. A compare scan finds p0, the first
// entry on a failed arc; every entry before it is valid. From p0 on, an
// entry is invalid when its arc failed or its head's latest entry is
// invalid, as the epoch-stamped restart marks record. It returns the
// valid entries in order — the new log's prefix — and leaves restarts
// listing every node whose latest entry went invalid at some point, in
// the order it did; the marks say which are in S (see seedRestarts).
// disabled is the post-toggle mask: an arc of the log that it disables
// failed.
func (ws *Workspace) flatReplayLog(g *graph.Graph, disabled []bool, log []int32, toggles []ArcToggle) (kept []int32) {
	ws.logPrev, ws.logDead, ws.logBuf, ws.restarts = nil, ws.logDead[:0], ws.logBuf[:0], ws.restarts[:0]
	p0 := len(log)
	if slices.ContainsFunc(toggles, func(tg ArcToggle) bool { return tg.Down }) {
		for i, ai := range log {
			if disabled[ai] {
				p0 = i
				break
			}
		}
	}
	kept = slices.Clone(log[:p0])
	if p0 == len(log) {
		return kept
	}
	ws.restart, ws.restartEpoch = resetEpochSet(ws.restart, ws.restartEpoch, g.N)
	mark, epoch := ws.restart, ws.restartEpoch
	for _, ai := range log[p0:] {
		arc := &g.Arcs[ai]
		x := arc.From
		if mark[arc.To] == epoch || disabled[ai] {
			if mark[x] != epoch {
				mark[x] = epoch
				ws.restarts = append(ws.restarts, int32(x))
			}
			continue
		}
		mark[x] = 0
		kept = append(kept, ai)
	}
	return kept
}

// flatDerivationLog is DerivationLog on the flat log: prefix (the flat
// replay's kept entries, or nil after a kernel run) then the entries the
// solve appended, copied into a new slice, with grown the entries
// appended since the last compaction before this solve. Past N/4 of
// growth — a kernel's log counts whole — it keeps the ancestor closure
// of every node's last entry, and growth restarts at 0.
func (ws *Workspace) flatDerivationLog(g *graph.Graph, dest int, prefix []int32, grown int) ([]int32, int) {
	log := append(slices.Clone(prefix), ws.logBuf...)
	if grown += len(ws.logBuf); grown > g.N/4 {
		return slices.Clone(ws.compactLog(g, dest, log)), 0
	}
	return log, grown
}

// logRebuild is one rebuild of logChains: the indexed log warm start's
// outcome beside the flat oracle's on the same previous column and log.
type logRebuild struct {
	tag      string
	view     *graph.Graph
	dest     int
	disabled []bool
	toggles  []ArcToggle
	// prevFlat is the previous log's live entries, read before the
	// rebuild; st is the indexed rebuild's stats, and s and flatS the S
	// each replay left.
	prevFlat  []int32
	st        DeltaStats
	s, flatS  []int32
	flatDelta bool
	// next is the indexed rebuild's log and nextFlat the oracle's, with
	// flatGrown the entries appended since its last compaction;
	// compacted says that the oracle compacted after a delta.
	next      *Log
	nextFlat  []int32
	flatGrown int
	compacted bool
}

// logChainCase is one M algebra of logChains on one backend.
type logChainCase struct {
	expr   string
	eng    exec.Algebra
	origin value.V
	labels int
}

// logChainCases returns the policy products and four M algebras of the
// random corpus, each on the compiled and the tiered engine: the plan,
// and so the log, is the algebra's on both.
func logChainCases(t *testing.T, r *rand.Rand) []logChainCase {
	t.Helper()
	var out []logChainCase
	add := func(expr string, a *core.Algebra) {
		eng, _ := compiledOT(t, a.OT)
		out = append(out, logChainCase{expr + "/compiled", eng, a.OT.DefaultOrigin(), a.OT.F.Size()},
			logChainCase{expr + "/tiered", exec.NewTiered(a.OT), a.OT.DefaultOrigin(), a.OT.F.Size()})
	}
	for _, expr := range []string{"scoped(bw(4), delay(64,4))", "scoped(bw(4), delay(8,4))"} {
		a, err := core.InferString(expr)
		if err != nil {
			t.Fatal(err)
		}
		add(expr, a)
	}
	for tries := 0; len(out) < 12; tries++ {
		if tries > 400 {
			t.Fatalf("corpus: only %d M algebras", len(out)/2-2)
		}
		src := deltaExpr(r, 2)
		a, err := core.InferString(src)
		if err != nil || !a.OT.Finite() || a.OT.Carrier().Size() > 4000 {
			continue
		}
		eng, err := exec.Compile(a.OT)
		if err != nil {
			continue
		}
		if exec.Tables(eng) != nil && NewPlan(eng).Kernel.M {
			add(src, a)
		}
	}
	return out
}

// chainBatch draws one batch of arc toggles, applying it to disabled:
// kind 0 fails 1–4 enabled arcs, kind 1 restores 1–4 disabled ones (or
// fails when none is down), kind 2 does one or two of each.
func chainBatch(r *rand.Rand, disabled []bool, kind int) ([]int, []ArcToggle) {
	var up, down []int
	for ai, d := range disabled {
		if d {
			down = append(down, ai)
		} else {
			up = append(up, ai)
		}
	}
	if kind == 1 && len(down) == 0 {
		kind = 0
	}
	fails, restores := 1+r.Intn(4), 0
	switch kind {
	case 1:
		fails, restores = 0, 1+r.Intn(4)
	case 2:
		fails, restores = 1+r.Intn(2), 1+r.Intn(2)
	}
	var arcs []int
	pick := func(from []int, k int) {
		for i := 0; i < k && i < len(from); i++ {
			j := i + r.Intn(len(from)-i)
			from[i], from[j] = from[j], from[i]
			arcs = append(arcs, from[i])
		}
	}
	pick(up, fails)
	pick(down, restores)
	toggles := make([]ArcToggle, len(arcs))
	for i, ai := range arcs {
		disabled[ai] = !disabled[ai]
		toggles[i] = ArcToggle{Arc: ai, Down: disabled[ai]}
	}
	return arcs, toggles
}

// logChains carries every third destination's column and log through 24
// chained fail, restore and mixed batches, for the policy products and
// the corpus's M algebras, compiled and tiered, on GNP, ring, grid,
// scale-free, two-level and sparse GNP graphs. Each rebuild runs the log
// warm start twice from the same previous column: on one workspace by the
// indexed replay and log, and on another by the flat replay and log,
// which carries its own log from the same kernel run. visit sees each
// rebuild after both ran. The indexed rebuild's column is carried on.
func logChains(t *testing.T, visit func(b *logRebuild)) {
	t.Helper()
	r := rand.New(rand.NewSource(59))
	for _, c := range logChainCases(t, r) {
		o := exec.MustIntern(c.eng, c.origin)
		pick := graph.UniformLabels(c.labels)
		// A sparse GNP graph beside the corpus families: destinations in
		// its small components keep kernel logs too short to compact.
		topos := append(ltTopos(r, c.labels, pick, pick), graph.Random(r, 40, 0.04, pick))
		for gi, g := range topos {
			for dest := 0; dest < g.N; dest += 3 {
				ws, fws := NewWorkspace(), NewWorkspace()
				prev := ownRaw(ws.ScratchRaw(c.eng, g, dest, c.origin))
				log := ws.DerivationLog(g, dest)
				fws.ScratchRaw(c.eng, g, dest, c.origin)
				flat, grown := fws.flatDerivationLog(g, dest, nil, 0)
				disabled := make([]bool, len(g.Arcs))
				view := g
				for step := 0; step < 24; step++ {
					arcs, toggles := chainBatch(r, disabled, step%3)
					view = view.WithArcsToggled(arcs, disabled)
					b := &logRebuild{tag: fmt.Sprintf("%s graph %d dest %d step %d", c.expr, gi, dest, step),
						view: view, dest: dest, disabled: disabled, toggles: toggles, prevFlat: log.Arcs()}
					if !slices.Equal(b.prevFlat, flat) {
						t.Fatalf("%s: the previous logs differ before the rebuild\nindexed %v\n   flat %v", b.tag, b.prevFlat, flat)
					}
					_, b.st = ws.BellmanFordDeltaLog(c.eng, view, disabled, dest, c.origin, rawWarm(prev), false, log, toggles, 0)
					b.s = slices.Clone(ws.restarts)
					next := ownRaw(ws.raw(dest, 0, true))
					if b.st.UsedDelta {
						next = ws.served(g.N, dest, rawWarm(prev))
					}
					b.next = ws.DerivationLog(view, dest)

					fws.sparseReset(g.N)
					fws.loadNode(dest, true, o, -1)
					kept := fws.flatReplayLog(view, disabled, flat, toggles)
					_, _, _, b.flatDelta = fws.deltaDrainLog(c.eng, NewPlan(c.eng), view, disabled, dest, rawWarm(prev), toggles, 0)
					b.flatS = slices.Clone(fws.restarts)
					if b.flatDelta {
						if !sameServed(fws.served(g.N, dest, rawWarm(prev)), next) {
							t.Fatalf("%s: the flat warm start's column differs from the indexed one's", b.tag)
						}
						b.nextFlat, grown = fws.flatDerivationLog(view, dest, kept, grown)
						b.compacted = grown == 0 && len(fws.logBuf) > 0
					} else {
						fws.ScratchRaw(c.eng, view, dest, c.origin)
						b.nextFlat, grown = fws.flatDerivationLog(view, dest, nil, 0)
					}
					b.flatGrown = grown
					visit(b)
					if got := log.Arcs(); !slices.Equal(got, b.prevFlat) {
						t.Fatalf("%s: the rebuild changed the previous log\n was %v\n now %v", b.tag, b.prevFlat, got)
					}
					prev, log, flat = next, b.next, b.nextFlat
				}
			}
		}
	}
}

// sameSet reports whether a and b hold the same nodes, ignoring order.
func sameSet(a, b []int32) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// TestIndexedReplayMatchesFlat is the indexed log's differential against
// the flat log (logChains): after every rebuild S, as a set, and
// DeltaStats.Restarts equal the flat replay's, both take the delta or
// both fall back, the new log's live entries equal the flat log's in
// order, its growth since the last compaction equals the flat log's — so
// compaction fires at the same rebuilds and keeps the same entries — and
// the previous log still reads as it did. Compaction must fire on the
// delta path, and the batches must invalidate entries.
func TestIndexedReplayMatchesFlat(t *testing.T) {
	var rebuilds, deltas, compactions, restarts, invalidating int
	logChains(t, func(b *logRebuild) {
		rebuilds++
		if b.st.UsedDelta != b.flatDelta {
			t.Fatalf("%s: indexed delta %v, flat delta %v", b.tag, b.st.UsedDelta, b.flatDelta)
		}
		if !sameSet(b.s, b.flatS) {
			t.Fatalf("%s: indexed S %v, flat S %v", b.tag, b.s, b.flatS)
		}
		if b.st.UsedDelta {
			deltas++
			if b.st.Restarts != len(b.flatS) {
				t.Fatalf("%s: %d restarts, the flat replay's S holds %d", b.tag, b.st.Restarts, len(b.flatS))
			}
			restarts += b.st.Restarts
			if b.compacted {
				compactions++
			}
		}
		if got := b.next.Arcs(); !slices.Equal(got, b.nextFlat) || b.next.Len() != len(got) || int(b.next.grown) != b.flatGrown {
			t.Fatalf("%s: the indexed log holds %v (Len %d, grown %d)\nthe flat log %v (grown %d)", b.tag, got, b.next.Len(), b.next.grown, b.nextFlat, b.flatGrown)
		}
		if b.st.LogVisited > 0 && len(b.s) > 0 {
			invalidating++
		}
	})
	if deltas < rebuilds*3/4 || compactions < 100 || restarts < 1000 || invalidating < 500 {
		t.Fatalf("fixture lost its teeth: %d of %d rebuilds by delta, %d compactions after one, %d restarts, %d invalidating rebuilds",
			deltas, rebuilds, compactions, restarts, invalidating)
	}
	t.Logf("%d rebuilds, %d by delta: %d compactions after one, %d restarts over %d invalidating rebuilds", rebuilds, deltas, compactions, restarts, invalidating)
}

// TestLogVisitedContract holds the replay's counted cost to its contract
// on every rebuild of logChains: DeltaStats.LogVisited ≤ the failed
// toggles + Σ over invalidated entries of (1 + the in-degree of the
// entry's node) + the chain steps, where a failed arc x→y's chain steps
// are x's live entries and an invalidated entry's are, per in-arc w→y of
// its node y, w's live entries after it. Every count comes from the
// previous log read flat, with the invalid entries found by the flat
// pass's rule, not from the index.
func TestLogVisitedContract(t *testing.T) {
	var visited, bound, logged int
	logChains(t, func(b *logRebuild) {
		rev := b.view.RevIn()
		log := b.prevFlat
		from := func(i int) int { return b.view.Arcs[log[i]].From }
		want := 0
		for _, tg := range b.toggles {
			if !tg.Down {
				continue
			}
			want++
			x := b.view.Arcs[tg.Arc].From
			for i := range log {
				if from(i) == x {
					want++
				}
			}
		}
		if want > 0 {
			last := make([]int, b.view.N) // -1 none, else the latest entry index
			for u := range last {
				last[u] = -1
			}
			invalid := make([]bool, len(log))
			for i, ai := range log {
				a := b.view.Arcs[ai]
				invalid[i] = b.disabled[ai] || a.To != b.dest && last[a.To] >= 0 && invalid[last[a.To]]
				last[a.From] = i
			}
			for i, bad := range invalid {
				if !bad {
					continue
				}
				y := from(i)
				want += 1 + len(rev.In(y))
				for _, h := range rev.InHops(y) {
					for j := i + 1; j < len(log); j++ {
						if from(j) == int(h.Node) {
							want++
						}
					}
				}
			}
		}
		if b.st.LogVisited > want {
			t.Fatalf("%s: the replay read %d index slots and entries, the contract allows %d", b.tag, b.st.LogVisited, want)
		}
		visited += b.st.LogVisited
		bound += want
		logged += len(log)
	})
	t.Logf("the replays read %d, the contract allows %d; the flat pass would have read up to %d entries", visited, bound, logged)
}
