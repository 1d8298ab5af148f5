package rib

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/ost"
	"metarouting/internal/solve"
	"metarouting/internal/value"
)

// derivationCase is one algebra of the derivation-log differential.
// policy marks the named scoped(bw, delay) products whose rebuilds must
// mostly take the warm path.
type derivationCase struct {
	expr   string
	ot     *ost.OrderTransform
	origin value.V
	policy bool
}

// derivationCases returns the named policy products — two compilable M
// algebras and the forwardable scoped(hops(0), delay(64,4)), whose
// infinite carrier runs only on engines without tables and logs there
// all the same — and the M-licensed members of the random corpus. The
// forwardable policy routes from (0, 60): its columns are clean trees
// (and keep no log) unless a region's delays reach the cap, where
// equal-weight loops make them unclean and the log warm start runs.
func derivationCases(t *testing.T, r *rand.Rand) []derivationCase {
	t.Helper()
	var out []derivationCase
	for _, n := range []struct {
		expr   string
		policy bool
	}{{"scoped(bw(4), delay(64,4))", true}, {"scoped(bw(4), delay(8,4))", true}, {"scoped(hops(0), delay(64,4))", false}} {
		a, err := core.InferString(n.expr)
		if err != nil {
			t.Fatal(err)
		}
		origin := a.OT.DefaultOrigin()
		if n.expr == "scoped(hops(0), delay(64,4))" {
			origin = value.Pair{A: 0, B: 60}
		}
		out = append(out, derivationCase{n.expr, a.OT, origin, n.policy})
	}
	for tries := 0; len(out) < 7 && tries < 400; tries++ {
		src := randExpr(r, 2)
		a, err := core.InferString(src)
		if err != nil {
			t.Fatal(err)
		}
		if !a.OT.Finite() || a.OT.Carrier().Size() > 4000 {
			continue
		}
		eng, err := exec.Compile(a.OT)
		if err != nil {
			t.Fatal(err)
		}
		if !solve.NewPlan(eng).Kernel.M {
			continue
		}
		elems := a.OT.Carrier().Elems
		out = append(out, derivationCase{src, a.OT, elems[r.Intn(len(elems))], false})
	}
	return out
}

// scopedLabels returns label pickers drawing inter-region arcs from a
// scoped product's tag-1 functions and intra-region arcs from the rest,
// as graph.TwoLevel's regions intend.
func scopedLabels(ot *ost.OrderTransform) (intra, inter graph.LabelPicker) {
	nInter := 0
	for _, f := range ot.F.Fns {
		if strings.HasPrefix(f.Name, "(1,") {
			nInter++
		}
	}
	if nInter == 0 || nInter == ot.F.Size() {
		pick := graph.UniformLabels(ot.F.Size())
		return pick, pick
	}
	n := ot.F.Size()
	return func(r *rand.Rand, _, _ int) int { return nInter + r.Intn(n-nInter) },
		func(r *rand.Rand, _, _ int) int { return r.Intn(nInter) }
}

// derivationTopos draws GNP, ring, grid, scale-free and two-level region
// graphs of about n nodes.
func derivationTopos(r *rand.Rand, ot *ost.OrderTransform, n int) map[string]*graph.Graph {
	pick := graph.UniformLabels(ot.F.Size())
	intra, inter := scopedLabels(ot)
	return map[string]*graph.Graph{
		"gnp":        graph.Random(r, n, 3.0/float64(n), pick),
		"ring":       graph.Ring(r, n, pick),
		"grid":       graph.Grid(r, n/8, 8, pick),
		"scale-free": graph.ScaleFree(r, n, 2, pick),
		"two-level":  graph.TwoLevel(r, n/12, 12, 0.3, n/6, intra, inter).Graph,
	}
}

// stormBatch draws one batch of arc toggles, applying it to disabled:
// kind 0 fails 1–4 enabled arcs, kind 1 restores 1–4 disabled ones (or
// fails when none is down), kind 2 does one or two of each.
func stormBatch(r *rand.Rand, disabled []bool, kind int) ([]int, []solve.ArcToggle) {
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
	var fails, restores int
	switch kind {
	case 0:
		fails = 1 + r.Intn(4)
	case 1:
		restores = 1 + r.Intn(4)
	default:
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
	toggles := make([]solve.ArcToggle, len(arcs))
	for i, ai := range arcs {
		disabled[ai] = !disabled[ai]
		toggles[i] = solve.ArcToggle{Arc: ai, Down: disabled[ai]}
	}
	return arcs, toggles
}

// checkLog holds a column's derivation log to the invariant the next
// warm start relies on: replayed with implicit parents (the latest
// earlier entry at the arc's head, the origin at the destination), every
// entry has a parent and recomputes from it, each node's last entry
// carries its weight in the column — so exactly the routed nodes other
// than the destination have entries — and a node's weights fall to that
// last entry: none of its entries lies below it. (They need not fall in
// log order: a restarted node settles down from unrouted, and its
// settling entries may lie above a valid entry of its own that the log
// still holds.)
func checkLog(t *testing.T, tag string, eng exec.Algebra, g *graph.Graph, c *PagedColumn) {
	t.Helper()
	last := make([]int32, c.N) // -1: no entry yet
	for u := range last {
		last[u] = -1
	}
	last[c.Dest], _ = c.Route(c.Dest)
	log := c.log.Arcs()
	if len(log) != c.log.Len() {
		t.Fatalf("%s: %d live entries, Len says %d", tag, len(log), c.log.Len())
	}
	weights := make([]int32, len(log))
	for i, ai := range log {
		a := g.Arcs[ai]
		if a.From == c.Dest {
			t.Fatalf("%s: log entry %d on arc %d leaves the destination", tag, i, ai)
		}
		pw := last[a.To]
		if pw < 0 {
			t.Fatalf("%s: log entry %d on arc %d→%d has no parent", tag, i, a.From, a.To)
		}
		weights[i] = eng.Apply(a.Label, pw)
		last[a.From] = weights[i]
	}
	for u := 0; u < c.N; u++ {
		w, routed := c.Route(u)
		if u != c.Dest && (routed != (last[u] >= 0) || routed && w != last[u]) {
			t.Fatalf("%s: node %d routed %v at %d, last log entry at %d", tag, u, routed, w, last[u])
		}
	}
	for i, ai := range log {
		if x := g.Arcs[ai].From; eng.Lt(weights[i], last[x]) {
			t.Fatalf("%s: log entry %d lies below node %d's last entry", tag, i, x)
		}
	}
}

// TestDerivationDeltaMatchesScratch is the log warm start's differential.
// For the named policy products and the M-licensed members of the random
// corpus, on GNP, ring, grid, scale-free and two-level graphs, every
// destination's column is carried through a chain of 42 fail, restore and
// mixed batches by DeltaDestPaged, its log riding along; after each batch
// the column must equal BuildDestPaged on the same view — pages and pools,
// totals, Converged and Clean — its change list must be what an all-slots
// scan finds, and its log must satisfy checkLog. Each case runs on the
// compiled engine, where the carrier compiles, and on the tiered one:
// under the M plan, unclean columns always carry a log on both, and
// others never do. The policy products must take the warm path on at
// least 90 % of their rebuilds, and the forwardable policy must take the
// log warm start.
func TestDerivationDeltaMatchesScratch(t *testing.T) {
	r := rand.New(rand.NewSource(131))
	var policy, policyWarm, logWarm, logged int
	logWarmBy := map[string]int{}
	for _, c := range derivationCases(t, r) {
		engines := map[string]exec.Algebra{"tiered": exec.NewTiered(c.ot)}
		if eng, err := exec.Compile(c.ot); err == nil {
			engines["compiled"] = eng
		}
		for _, backend := range []string{"compiled", "tiered"} {
			eng, ok := engines[backend]
			if !ok {
				continue
			}
			if !solve.NewPlan(eng).Kernel.M {
				t.Fatalf("%s/%s: the case must have the M plan", c.expr, backend)
			}
			n := 24
			if c.policy {
				n = 48
			}
			topos := derivationTopos(r, c.ot, n)
			for _, shape := range []string{"gnp", "ring", "grid", "scale-free", "two-level"} {
				g := topos[shape]
				for dest := 0; dest < g.N; dest++ {
					ws, sws := solve.NewWorkspace(), solve.NewWorkspace()
					disabled := make([]bool, len(g.Arcs))
					view := g
					prev, err := BuildDestPaged(eng, view, dest, c.origin, ws)
					if err != nil {
						t.Fatal(err)
					}
					for step := 0; step < 42; step++ {
						tag := fmt.Sprintf("%s/%s %s dest %d step %d", c.expr, backend, shape, dest, step)
						arcs, toggles := stormBatch(r, disabled, step%3)
						view = view.WithArcsToggled(arcs, disabled)
						got, st, ps, err := DeltaDestPaged(eng, view, disabled, dest, c.origin, ws, prev, toggles)
						if err != nil {
							t.Fatal(err)
						}
						want, err := BuildDestPaged(eng, view, dest, c.origin, sws)
						if err != nil {
							t.Fatal(err)
						}
						if got.Converged != want.Converged || got.Clean != want.Clean {
							t.Fatalf("%s (delta %v): converged/clean %v/%v, scratch %v/%v", tag, st.UsedDelta,
								got.Converged, got.Clean, want.Converged, want.Clean)
						}
						for pi, p := range want.Pages {
							if q := got.Pages[pi]; q.Slots != p.Slots || q.Live != p.Live || !slices.Equal(q.Pool, p.Pool) {
								t.Fatalf("%s: page %d differs\n got %+v\nwant %+v", tag, pi, q, p)
							}
						}
						if got.Bytes() != want.Bytes() || got.Live() != want.Live() {
							t.Fatalf("%s: totals %d B/%d live, scratch %d B/%d live", tag, got.Bytes(), got.Live(), want.Bytes(), want.Live())
						}
						checkChanges(t, tag, prev, got, ps.Changes, ps.Changed)
						// A scratch build and the log warm start write a log;
						// the sparse and dense warm starts do not, and a clean
						// column keeps none.
						if (got.log != nil) != (!got.Clean && (!st.UsedDelta || !prev.Clean && prev.log != nil)) {
							t.Fatalf("%s: log %v (delta %v, clean %v, previous clean %v)", tag, got.log != nil, st.UsedDelta, got.Clean, prev.Clean)
						}
						if got.log != nil {
							logged++
							checkLog(t, tag, eng, view, got)
						}
						if st.UsedDelta && prev.log != nil && !prev.Clean {
							logWarm++
							logWarmBy[c.expr+"/"+backend]++
						}
						if c.policy {
							policy++
							if st.UsedDelta {
								policyWarm++
							}
						}
						prev = got
					}
				}
			}
		}
	}
	if policy == 0 || 10*policyWarm < 9*policy || logWarm < policy/2 {
		t.Fatalf("the policy products took the warm path on %d of %d rebuilds; the log warm start ran %d times", policyWarm, policy, logWarm)
	}
	for _, k := range []string{"scoped(bw(4), delay(64,4))/compiled", "scoped(bw(4), delay(64,4))/tiered", "scoped(hops(0), delay(64,4))/tiered"} {
		if logWarmBy[k] == 0 {
			t.Fatalf("%s never took the log warm start (%v)", k, logWarmBy)
		}
	}
	t.Logf("policy rebuilds: %d of %d warm; log warm starts: %d (%v); logged columns checked: %d", policyWarm, policy, logWarm, logWarmBy, logged)
}

// TestCleanColumnKeepsNoLog: on compiled delay(8,2), whose M plan logs,
// a column that verifies Clean keeps no derivation log, whether a scratch
// build or a delta made it: its next delta is the sparse warm start,
// which never reads one. That next delta is unchanged by the log's
// absence — the same pages, verdicts and change count as from the same
// column with the log it used to keep — over chained fail, restore and
// mixed batches on every destination.
func TestCleanColumnKeepsNoLog(t *testing.T) {
	a := alg(t, "delay(8,2)")
	eng, err := exec.Compile(a)
	if err != nil {
		t.Fatal(err)
	}
	if !solve.NewPlan(eng).Kernel.M {
		t.Fatal("delay(8,2) must have the M plan")
	}
	org := originFor(a)
	r := rand.New(rand.NewSource(23))
	g := graph.Random(r, 40, 0.1, graph.UniformLabels(a.F.Size()))
	var clean int
	for dest := 0; dest < g.N; dest++ {
		ws := solve.NewWorkspace()
		col, err := BuildDestPaged(eng, g, dest, org, ws)
		if err != nil {
			t.Fatal(err)
		}
		// The log the column used to keep, as the workspace still holds
		// it: the kernel's, and after a delta whatever that solve wrote.
		kept := ws.DerivationLog(g, dest)
		disabled := make([]bool, len(g.Arcs))
		view := g
		for step := 0; step < 12; step++ {
			tag := fmt.Sprintf("dest %d step %d", dest, step)
			if !col.Clean || !col.Converged {
				t.Fatalf("%s: delay(8,2) column not clean", tag)
			}
			if col.log != nil {
				t.Fatalf("%s: a clean column keeps a log of %d entries", tag, col.log.Len())
			}
			clean++
			withLog := *col
			withLog.log = kept
			arcs, toggles := stormBatch(r, disabled, step%3)
			view = view.WithArcsToggled(arcs, disabled)
			got, st, ps, err := DeltaDestPaged(eng, view, disabled, dest, org, ws, col, toggles)
			if err != nil {
				t.Fatal(err)
			}
			next := ws.DerivationLog(view, dest)
			want, wst, wps, err := DeltaDestPaged(eng, view, disabled, dest, org, solve.NewWorkspace(), &withLog, toggles)
			if err != nil {
				t.Fatal(err)
			}
			if st.UsedDelta != wst.UsedDelta || got.Clean != want.Clean || ps.Changed != wps.Changed || want.log != nil {
				t.Fatalf("%s: delta %v/%v, clean %v/%v, %d/%d changed, log kept %v", tag, st.UsedDelta, wst.UsedDelta,
					got.Clean, want.Clean, ps.Changed, wps.Changed, want.log != nil)
			}
			for pi, p := range want.Pages {
				if q := got.Pages[pi]; q.Slots != p.Slots || !slices.Equal(q.Pool, p.Pool) {
					t.Fatalf("%s: page %d differs from the delta off the logged column", tag, pi)
				}
			}
			col, kept = got, next
		}
	}
	t.Logf("%d clean columns checked", clean)
}

// policyStorms is the storm-policy-2k shape: the policy product compiled,
// a scale-free graph (2 000 nodes in the workload) with uniform labels,
// destinations spread evenly, and 4-arc storms partitioning a random
// permutation of the arcs. views[2k] fails storm k, views[2k+1] restores
// it.
type policyStorms struct {
	eng    exec.Algebra
	org    value.V
	g      *graph.Graph
	dests  []int
	views  []*graph.Graph
	toggle [][]solve.ArcToggle
	mask   [][]bool
}

func newPolicyStorms(tb testing.TB, nodes, dests, storms int) *policyStorms {
	tb.Helper()
	a, err := core.InferString("scoped(bw(4), delay(64,4))")
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := exec.Compile(a.OT)
	if err != nil {
		tb.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	ps := &policyStorms{eng: eng, org: a.OT.DefaultOrigin(),
		g: graph.ScaleFree(r, nodes, 2, graph.UniformLabels(a.OT.F.Size()))}
	for i := 0; i < dests; i++ {
		ps.dests = append(ps.dests, i*ps.g.N/dests)
	}
	perm := r.Perm(len(ps.g.Arcs))
	disabled := make([]bool, len(ps.g.Arcs))
	for k := 0; k < storms; k++ {
		arcs := perm[4*k : 4*k+4]
		for _, down := range []bool{true, false} {
			tg := make([]solve.ArcToggle, len(arcs))
			for i, ai := range arcs {
				disabled[ai] = down
				tg[i] = solve.ArcToggle{Arc: ai, Down: down}
			}
			ps.views = append(ps.views, ps.g.WithArcsToggled(arcs, disabled))
			ps.toggle = append(ps.toggle, tg)
			ps.mask = append(ps.mask, append([]bool(nil), disabled...))
		}
	}
	return ps
}

// TestDerivationDeltaAllocs: on the storm-policy-2k shape, with a warm
// workspace, a logged delta allocates what its column changed — header,
// redo list, span scratch, touched list and warm-start closure, plus the
// page-table copy, the change list and the changed pages when a page
// changes — and what its log changed: the leaves and directory pages the
// delta wrote and one copy of each top slice (solve.Log.Bytes). The
// replay's and the compaction's scratch live in the workspace, so nothing
// else is allocated. The log's share is at most 2 KB a delta, and on the
// same storms at 8k nodes within 1.5× of its share at 2k: a delta's log
// costs what the delta changed, not what the column holds.
func TestDerivationDeltaAllocs(t *testing.T) {
	at2k := logDeltaBytes(t, 2000)
	at8k := logDeltaBytes(t, 8000)
	if at2k > 2048 || at8k > 1.5*at2k {
		t.Fatalf("a logged delta's log costs %.0f B at 2k nodes and %.0f B at 8k, want ≤ 2048 and ≤ 1.5× the 2k figure", at2k, at8k)
	}
	t.Logf("log bytes per delta: %.0f at 2k nodes, %.0f at 8k", at2k, at8k)
}

// logDeltaBytes replays 8 fail/restore storm pairs on one destination's
// column of the policy shape at n nodes, each pass from the same column,
// and holds a warm pass's allocated bytes to what its columns and logs
// changed. It returns the logs' bytes per delta.
func logDeltaBytes(t *testing.T, n int) float64 {
	t.Helper()
	ps := newPolicyStorms(t, n, 1, 8)
	ws := solve.NewWorkspace()
	dest := ps.dests[0]
	col, err := BuildDestPaged(ps.eng, ps.g, dest, ps.org, ws)
	if err != nil {
		t.Fatal(err)
	}
	if col.log == nil || col.Clean {
		t.Fatalf("%d nodes: the policy column must be logged and unclean (logged %v, clean %v)", n, col.log != nil, col.Clean)
	}
	const (
		headerBytes = int(unsafe.Sizeof(PagedColumn{}))
		pageBytes   = int(unsafe.Sizeof(ColumnPage{}))
		patchBytes  = int(unsafe.Sizeof(SlotPatch{}))
		// The span scratch and the warm-start closure.
		fixedBytes = 32*4 + 64
		// A changed page's pool, rounded up to its allocation class.
		poolSlack = 128
	)
	var colBytes, logBytes, deltas int
	run := func() {
		colBytes, logBytes, deltas = 0, 0, 0
		prev := col
		for i, view := range ps.views {
			next, st, pst, err := DeltaDestPaged(ps.eng, view, ps.mask[i], dest, ps.org, ws, prev, ps.toggle[i])
			if err != nil {
				t.Fatal(err)
			}
			if st.UsedDelta {
				deltas++
			}
			logBytes += next.log.Bytes(prev.log)
			colBytes += headerBytes + fixedBytes + 8*cap(st.Touched) + 8*(len(st.Touched)+len(ps.toggle[i]))
			if pst.Cloned > 0 {
				colBytes += 8*len(next.Pages) + patchBytes*cap(pst.Changes)
			}
			for pi, p := range next.Pages {
				if p != prev.Pages[pi] {
					colBytes += pageBytes + 4*cap(p.Pool) + poolSlack
				}
			}
			prev = next
		}
	}
	// One pass grows the workspace; the measured pass then replays the
	// same storms from the same column.
	run()
	if deltas < len(ps.views)-1 {
		t.Fatalf("%d nodes: only %d of %d storm rebuilds took the log warm start", n, deltas, len(ps.views))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	if got := int(after.TotalAlloc - before.TotalAlloc); got > colBytes+logBytes {
		t.Fatalf("%d nodes: %d logged deltas allocate %d B, want ≤ %d B for their columns and %d B for their logs", n, len(ps.views), got, colBytes, logBytes)
	} else {
		t.Logf("%d nodes: %d B allocated; columns changed %d B, logs %d B", n, got, colBytes, logBytes)
	}
	return float64(logBytes) / float64(len(ps.views))
}

// BenchmarkDerivationDelta is one destination's rebuild on the
// storm-policy-2k shape, over 4-arc fail/restore pairs across 16
// destinations: the log warm start ("logged", DeltaDestPaged carrying
// each column's log) against the scratch build every rebuild fell back
// to before it ("scratch", BuildDestPaged on the same view). logged
// reports the log warm start's counted cost: restarts/op, the nodes per
// rebuild whose last log entry the batch invalidated
// (DeltaStats.Restarts), and log-visits/op, the index slots and entries
// its replay read (DeltaStats.LogVisited).
func BenchmarkDerivationDelta(b *testing.B) {
	ps := newPolicyStorms(b, 2000, 16, 64)
	for _, mode := range []string{"logged", "scratch"} {
		b.Run(mode, func(b *testing.B) {
			ws := solve.NewWorkspace()
			cols := make([]*PagedColumn, len(ps.dests))
			for i, d := range ps.dests {
				var err error
				if cols[i], err = BuildDestPaged(ps.eng, ps.g, d, ps.org, ws); err != nil {
					b.Fatal(err)
				}
			}
			restarts, visits := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				di := i % len(ps.dests)
				vi := i / len(ps.dests) % len(ps.views)
				var err error
				if mode == "logged" {
					var st solve.DeltaStats
					cols[di], st, _, err = DeltaDestPaged(ps.eng, ps.views[vi], ps.mask[vi], ps.dests[di], ps.org, ws, cols[di], ps.toggle[vi])
					restarts += st.Restarts
					visits += st.LogVisited
				} else {
					cols[di], err = BuildDestPaged(ps.eng, ps.views[vi], ps.dests[di], ps.org, ws)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			if mode == "logged" {
				b.ReportMetric(float64(restarts)/float64(b.N), "restarts/op")
				b.ReportMetric(float64(visits)/float64(b.N), "log-visits/op")
			}
		})
	}
}
