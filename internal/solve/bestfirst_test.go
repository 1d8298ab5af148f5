package solve

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"metarouting/internal/compile"
	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/fn"
	"metarouting/internal/graph"
	"metarouting/internal/order"
	"metarouting/internal/ost"
	"metarouting/internal/prop"
	"metarouting/internal/value"
)

// intOT is an order transform over the int chain 0..n-1 whose preorder
// compares key(a) ≤ key(b) (lower preferred), one function per entry of
// fns.
func intOT(name string, n int, key func(int) int, fns ...func(int) int) *ost.OrderTransform {
	set := make([]fn.Fn, len(fns))
	for i, f := range fns {
		set[i] = fn.Fn{Name: fmt.Sprintf("f%d", i), Apply: func(v value.V) value.V { return f(v.(int)) }}
	}
	ord := order.New(name, value.Ints(0, n-1), func(a, b value.V) bool { return key(a.(int)) <= key(b.(int)) })
	return ost.New(name, ord, fn.NewFinite("F", set))
}

func identity(x int) int { return x }

// chainOT is the constructed M algebra: the chain 0 < 1 < … < n-1 with
// the identity and a decrement saturating at 0. Around a 2-cycle of
// decrement arcs the greatest fixpoint sits n-1 steps below the
// origin, one step per sweep round.
func chainOT(n int) *ost.OrderTransform {
	return intOT("chain", n, identity, identity, func(x int) int { return max(x-1, 0) })
}

// compiledOT compiles ot into a fresh engine (never the memoised one, so
// a test may overwrite its licences) and returns the engine and its
// tables.
func compiledOT(t testing.TB, ot *ost.OrderTransform) (exec.Algebra, *compile.Compiled) {
	t.Helper()
	eng, err := exec.Compile(ot)
	if err != nil {
		t.Fatal(err)
	}
	tab := exec.Tables(eng)
	if tab == nil {
		t.Fatalf("%s: no ranked tables", ot.Name)
	}
	return eng, tab
}

// ownRaw copies a Raw out of the workspace buffers it aliases.
func ownRaw(r Raw) Raw {
	r.Routed, r.W, r.NextHop = slices.Clone(r.Routed), slices.Clone(r.W), slices.Clone(r.NextHop)
	return r
}

// sameRoutes reports whether two solutions agree on routedness, weight
// index and primary next hop everywhere.
func sameRoutes(a, b Raw) bool {
	return slices.Equal(a.Routed, b.Routed) && slices.Equal(a.W, b.W) && slices.Equal(a.NextHop, b.NextHop)
}

// cycleGraph is node 1 reaching destination 0 over an identity arc,
// with decrement arcs both ways between nodes 1 and 2.
func cycleGraph() *graph.Graph {
	return graph.MustNew(3, []graph.Arc{{From: 1, To: 0, Label: 0}, {From: 1, To: 2, Label: 1}, {From: 2, To: 1, Label: 1}})
}

// TestScratchKernelBeyondSweepBudget is the one verdict the kernel
// changes, on purpose: on the constructed M algebra (a decrement around
// a 2-cycle on a 300-element chain, origin at the top) the greatest
// fixpoint is 299 decrements away and the sweep gains one per round, so
// with its default budget of 2N+4 = 10 rounds it stops short and says
// Converged false. The kernel re-queues the cycle 300 times and returns
// the greatest fixpoint — both nodes at 0 — with Converged true: exactly
// what the sweep returns once its budget is large enough to get there.
func TestScratchKernelBeyondSweepBudget(t *testing.T) {
	eng, tab := compiledOT(t, chainOT(300))
	if !tab.Monotone || tab.StrictlyIncreasing {
		t.Fatalf("licences M=%v strict-I=%v, want M only", tab.Monotone, tab.StrictlyIncreasing)
	}
	g := cycleGraph()
	ws := NewWorkspace()
	capped := ownRaw(ws.BellmanFordRaw(eng, g, 0, 299, 0))
	if capped.Converged || capped.Rounds != 2*g.N+4 {
		t.Fatalf("sweep: converged %v after %d rounds, want the 10-round budget exhausted", capped.Converged, capped.Rounds)
	}
	kernel := ownRaw(ws.ScratchRaw(eng, g, 0, 299))
	if !kernel.Converged || kernel.W[1] != 0 || kernel.W[2] != 0 {
		t.Fatalf("kernel: converged %v, weights %v; want the greatest fixpoint [299 0 0]", kernel.Converged, kernel.W)
	}
	long := ownRaw(ws.BellmanFordRaw(eng, g, 0, 299, 1000))
	if !long.Converged || !sameRoutes(kernel, long) {
		t.Fatalf("kernel %+v, sweep with a 1000-round budget %+v", kernel, long)
	}
	t.Logf("sweep: %d rounds unconverged at %v, %d to converge; kernel: %d settles", capped.Rounds, capped.W, long.Rounds, kernel.Rounds)
}

// TestScratchKernelMutantsFail runs the three mutants the differential
// must catch and checks that each one disagrees with the sweep:
//   - a kernel that never re-queues a settled node, on the M algebras
//     (the chain, and the policy product on a scale-free graph);
//   - a strict-I licence that accepted non-strict I, on an ND but
//     non-monotone table whose sweep oscillates: h(1) = 1 sustains a
//     2-cycle that alternates between 1 and 3 every round;
//   - an M licence that skipped the injectivity check, on a monotone
//     table with two equivalent weights: the kernel keeps the first one
//     it finds, the sweep the one behind the first tight out-arc.
//
// In each case the real licence must refuse the table.
func TestScratchKernelMutantsFail(t *testing.T) {
	ws := NewWorkspace()

	_, chain := compiledOT(t, chainOT(300))
	g := cycleGraph()
	ws.bestFirst(chain, g, 0, 299, false)
	if ws.w[1] == 0 {
		t.Fatal("chain: a kernel without re-queues still reached the greatest fixpoint")
	}

	a, err := core.InferString("scoped(bw(4), delay(64,4))")
	if err != nil {
		t.Fatal(err)
	}
	eng, policy := compiledOT(t, a.OT)
	sf := graph.ScaleFree(rand.New(rand.NewSource(3)), 300, 2, graph.UniformLabels(a.OT.F.Size()))
	o := exec.MustIntern(eng, a.OT.DefaultOrigin())
	differs := 0
	for dest := 0; dest < 20; dest++ {
		want := ownRaw(ws.BellmanFordRaw(eng, sf, dest, a.OT.DefaultOrigin(), 0))
		ws.bestFirst(policy, sf, dest, o, false)
		if !slices.Equal(ws.w, want.W) {
			differs++
		}
	}
	if differs == 0 {
		t.Fatal("policy: a kernel without re-queues matched the sweep on every destination")
	}

	// Non-strict I: 3 is the top; h is ND (h(x) ≥ x) but fixes 1 and is
	// not monotone (h(0) = 3 > h(1)). Arcs: 1→0 +1, 1→4 id, 4→0 id,
	// 2→1 h, 2→3 id, 3→2 id — node 1 reads 1 then 0, so node 2 reads 1
	// then 3 while its cycle partner copies it a round late.
	inc := func(x int) int { return min(x+1, 3) }
	h := func(x int) int { return [4]int{3, 1, 3, 3}[x] }
	eng, plateau := compiledOT(t, intOT("plateau", 4, identity, inc, identity, h))
	if plateau.Monotone || plateau.StrictlyIncreasing {
		t.Fatal("plateau: a licence was granted to a non-monotone, non-strict table")
	}
	pg := graph.MustNew(5, []graph.Arc{{From: 1, To: 0, Label: 0}, {From: 1, To: 4, Label: 1}, {From: 4, To: 0, Label: 1},
		{From: 2, To: 1, Label: 2}, {From: 2, To: 3, Label: 1}, {From: 3, To: 2, Label: 1}})
	want := ownRaw(ws.ScratchRaw(eng, pg, 0, 0))
	if want.Converged {
		t.Fatal("plateau: the sweep must oscillate")
	}
	plateau.StrictlyIncreasing = true
	if got := ws.ScratchRaw(eng, pg, 0, 0); got.Converged == want.Converged && sameRoutes(got, want) {
		t.Fatal("plateau: the non-strict mutant matched the sweep")
	}

	// Shared rank: weights 1 and 2 are equivalent; every function is a
	// constant, hence monotone. Arcs: 1→2 κ1, 1→0 κ2, 2→0 κ1.
	key := func(x int) int { return min(x, 1) }
	eng, tie := compiledOT(t, intOT("tie", 3, key, func(int) int { return 1 }, func(int) int { return 2 }))
	if tie.Monotone || tie.StrictlyIncreasing {
		t.Fatal("tie: a licence was granted to a rank shared by two weights")
	}
	tg := graph.MustNew(3, []graph.Arc{{From: 1, To: 2, Label: 0}, {From: 1, To: 0, Label: 1}, {From: 2, To: 0, Label: 0}})
	want = ownRaw(ws.ScratchRaw(eng, tg, 0, 0))
	tie.Monotone = true
	if got := ws.ScratchRaw(eng, tg, 0, 0); got.Converged == want.Converged && sameRoutes(got, want) {
		t.Fatal("tie: the mutant that skips the injectivity check matched the sweep")
	}
}

// hiddenEng hides an engine's tables from exec.Tables.
type hiddenEng struct{ exec.Algebra }

// TestScratchRawDispatch: the licence names the solver ScratchRaw runs,
// and ScratchRaw is exactly that solver — the table kernel (Rounds
// counting its settles) on ranked, licensed compiled tables, the
// comparison kernel wherever only the inferred set licenses it (tiered,
// dynamic, and tables hidden from exec.Tables), and BellmanFordRaw
// without a licence: on those engines without the inferred set, on the
// rank-less tags(2) product (¬Full) and on the unlicensed BAD GADGET and
// lex(delay, bw).
func TestScratchRawDispatch(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for _, c := range []struct {
		expr     string
		mode     exec.Mode
		hide     bool
		inferred bool
		want     string
	}{
		{"scoped(bw(4), delay(8,4))", exec.ModeCompiled, false, false, "best-first (M, table)"},
		{"delay(16,3)", exec.ModeCompiled, false, true, "best-first (M, table)"},
		{"lex(delay(6,3), hops(4))", exec.ModeCompiled, false, true, "best-first (I, table)"},
		{"lex(delay(6,3), hops(4))", exec.ModeCompiled, true, false, "sweep"},
		{"lex(delay(6,3), hops(4))", exec.ModeCompiled, true, true, "best-first (I, inferred)"},
		{"lex(delay(6,3), hops(4))", exec.ModeTiered, false, false, "sweep"},
		{"lex(delay(6,3), hops(4))", exec.ModeTiered, false, true, "best-first (I, inferred)"},
		{"scoped(bw(4), delay(8,4))", exec.ModeDynamic, false, true, "best-first (M, inferred)"},
		{"lex(delay(6,3), tags(2))", exec.ModeCompiled, false, true, "sweep"},
		{"gadget", exec.ModeCompiled, false, true, "sweep"},
		{"lex(delay(8,2), bw(4))", exec.ModeTiered, false, true, "sweep"},
	} {
		a, err := core.InferString(c.expr)
		if err != nil {
			t.Fatal(err)
		}
		origin := a.OT.DefaultOrigin()
		eng, err := exec.New(a.OT, c.mode, origin)
		if err != nil {
			t.Fatal(err)
		}
		if c.hide {
			eng = hiddenEng{eng}
		}
		var props prop.Set
		if c.inferred {
			props = a.Props
		}
		lic := NewLicence(eng, props)
		tag := fmt.Sprintf("%s/%s hidden=%v inferred=%v", c.expr, c.mode, c.hide, c.inferred)
		if got := lic.ScratchSolver(); got != c.want {
			t.Fatalf("%s: ScratchSolver = %q, want %q", tag, got, c.want)
		}
		g := graph.ScaleFree(r, 60, 2, graph.UniformLabels(a.OT.F.Size()))
		ws, ref := NewWorkspace(), NewWorkspace()
		ws.Licence = &lic
		for dest := 0; dest < g.N; dest += 7 {
			got := ownRaw(ws.ScratchRaw(eng, g, dest, origin))
			var want Raw
			o := exec.MustIntern(eng, origin)
			switch {
			case strings.HasSuffix(c.want, "table)"):
				settles, _ := ref.bestFirst(exec.Tables(eng), g, dest, o, true)
				want = ref.raw(dest, settles, true)
			case strings.HasSuffix(c.want, "inferred)"):
				settles, _ := ref.bestFirstLt(eng, lic, g, dest, o, true)
				want = ref.raw(dest, settles, true)
			default:
				want = ref.BellmanFordRaw(eng, g, dest, origin, 0)
			}
			if !reflect.DeepEqual(got, ownRaw(want)) {
				t.Fatalf("%s dest %d: ScratchRaw %+v, %s %+v", tag, dest, got, c.want, want)
			}
		}
	}
}

// scopedPickers returns label pickers drawing inter-region arcs from a
// scoped product's tag-1 functions and intra-region arcs from its tag-2
// ones, as graph.TwoLevel's regions intend.
func scopedPickers(ot *ost.OrderTransform) (intra, inter graph.LabelPicker) {
	nInter := 0
	for _, f := range ot.F.Fns {
		if strings.HasPrefix(f.Name, "(1,") {
			nInter++
		}
	}
	n := ot.F.Size()
	return func(r *rand.Rand, _, _ int) int { return nInter + r.Intn(n-nInter) },
		func(r *rand.Rand, _, _ int) int { return r.Intn(nInter) }
}

// TestScheduleIndependenceAtSize seeds ROADMAP 4(a) at the sizes the
// workloads run: four schedules — the synchronous sweep, the best-first
// kernel, in-place Gauss–Seidel and the worklist drain — reach the same
// routes, weights and primary next hops (each picks the first out-arc of
// minimal candidate over its final weights, the sweep's rule). The policy
// product (M) runs on 2 000-node scale-free and two-level region graphs,
// lex(delay(32,3), hops(8)) (strict I) on a 10 000-node scale-free graph,
// each on its base graph and under a random mask.
func TestScheduleIndependenceAtSize(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	policy, err := core.InferString("scoped(bw(4), delay(64,4))")
	if err != nil {
		t.Fatal(err)
	}
	lex, err := core.InferString("lex(delay(32,3), hops(8))")
	if err != nil {
		t.Fatal(err)
	}
	intra, inter := scopedPickers(policy.OT)
	for _, c := range []struct {
		name string
		a    *core.Algebra
		g    *graph.Graph
	}{
		{"policy/scale-free-2k", policy, graph.ScaleFree(r, 2000, 2, graph.UniformLabels(policy.OT.F.Size()))},
		{"policy/two-level-2k", policy, graph.TwoLevel(r, 40, 50, 0.06, 400, intra, inter).Graph},
		{"lex/scale-free-10k", lex, graph.ScaleFree(r, 10000, 2, graph.UniformLabels(lex.OT.F.Size()))},
	} {
		origin := c.a.OT.DefaultOrigin()
		eng := exec.For(c.a.OT, origin)
		if NewLicence(eng, c.a.Props).ScratchSolver() == "sweep" {
			t.Fatalf("%s: the workload algebra must be licensed", c.name)
		}
		disabled := make([]bool, len(c.g.Arcs))
		for i := range disabled {
			disabled[i] = r.Intn(8) == 0
		}
		ws := NewWorkspace()
		for vi, view := range []*graph.Graph{c.g, c.g.MaskArcs(disabled)} {
			dest := r.Intn(c.g.N)
			tag := fmt.Sprintf("%s view %d dest %d", c.name, vi, dest)
			sweep := ownRaw(ws.BellmanFordRaw(eng, view, dest, origin, 0))
			kernel := ownRaw(ws.ScratchRaw(eng, view, dest, origin))
			if !sweep.Converged || !sameRoutes(sweep, kernel) {
				t.Fatalf("%s: the kernel and the sweep (converged %v) disagree", tag, sweep.Converged)
			}
			for _, s := range []struct {
				name string
				res  *Result
			}{
				{"gauss-seidel", GaussSeidelEngine(eng, view, dest, origin, 0)},
				{"worklist", WorklistEngine(eng, view, dest, origin, 0)},
			} {
				if !s.res.Converged || !slices.Equal(s.res.Routed, sweep.Routed) || !slices.Equal(s.res.NextHop, sweep.NextHop) {
					t.Fatalf("%s: %s (converged %v) disagrees with the sweep on routes or next hops", tag, s.name, s.res.Converged)
				}
				for u, ok := range sweep.Routed {
					if ok && exec.MustIntern(eng, s.res.Weights[u]) != sweep.W[u] {
						t.Fatalf("%s: %s weight %s at node %d, sweep %s", tag, s.name,
							value.Format(s.res.Weights[u]), u, value.Format(eng.Value(sweep.W[u])))
					}
				}
			}
		}
	}
}

// TestScratchKernelAllocs: with a warm workspace one ScratchRaw
// allocates nothing, on the policy product's 2k-node graph and on a
// 10k-node lex graph, and the kernel grows no per-node buffer of its
// own — only what reset sizes (the list links borrow prevW and
// nextHop), plus the rank buckets sized by the carrier and, on the M
// table alone, the derivation log's buffer.
func TestScratchKernelAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for _, c := range []struct {
		expr string
		n    int
	}{{"scoped(bw(4), delay(64,4))", 2000}, {"lex(delay(32,3), hops(8))", 10000}} {
		a, err := core.InferString(c.expr)
		if err != nil {
			t.Fatal(err)
		}
		origin := a.OT.DefaultOrigin()
		eng, tab := compiledOT(t, a.OT)
		g := graph.ScaleFree(r, c.n, 2, graph.UniformLabels(a.OT.F.Size()))
		ws := NewWorkspace()
		ws.ScratchRaw(eng, g, 0, origin)
		for _, n := range []int{cap(ws.routed), cap(ws.w), cap(ws.nextHop), cap(ws.prevW), cap(ws.inTree), cap(ws.stale), cap(ws.staleNext)} {
			if n != g.N {
				t.Fatalf("%s: a reset buffer holds %d slots for %d nodes", c.expr, n, g.N)
			}
		}
		if cap(ws.buckets.head) != tab.N || cap(ws.buckets.bits) != (tab.N+63)/64 {
			t.Fatalf("%s: rank buckets %d/%d for %d ranks", c.expr, cap(ws.buckets.head), cap(ws.buckets.bits), tab.N)
		}
		// On the M table the derivation log, and everything else must
		// still be unset.
		if ws.logged != tab.Monotone || (len(ws.logBuf) > 0) != tab.Monotone {
			t.Fatalf("%s: M licence %v, but a log of %d entries (logged %v)", c.expr, tab.Monotone, len(ws.logBuf), ws.logged)
		}
		only := Workspace{routed: ws.routed, w: ws.w, nextHop: ws.nextHop, prevW: ws.prevW, inTree: ws.inTree,
			stale: ws.stale, staleNext: ws.staleNext, buckets: ws.buckets, logBuf: ws.logBuf, logged: ws.logged}
		if !reflect.DeepEqual(*ws, only) {
			t.Fatalf("%s: the kernel grew a buffer beyond reset's and the rank buckets", c.expr)
		}
		allocs := testing.AllocsPerRun(10, func() { ws.ScratchRaw(eng, g, 1, origin) })
		if allocs != 0 {
			t.Fatalf("%s: ScratchRaw allocates %.0f objects per run on a warm workspace, want 0", c.expr, allocs)
		}
	}
}

// BenchmarkScratchKernel times one from-scratch solve by the sweep and
// by the best-first kernel on the workloads' graphs: the policy product
// on a 2k-node scale-free graph (storm-policy-2k's every swap) and
// lex(delay(32,3), hops(8)) on a 100k-node one (storm-sparse-100k's
// boot).
func BenchmarkScratchKernel(b *testing.B) {
	for _, c := range []struct {
		name, expr string
		n          int
	}{{"policy-2k", "scoped(bw(4), delay(64,4))", 2000}, {"lex-100k", "lex(delay(32,3), hops(8))", 100000}} {
		a, err := core.InferString(c.expr)
		if err != nil {
			b.Fatal(err)
		}
		origin := a.OT.DefaultOrigin()
		eng := exec.For(a.OT, origin)
		g := graph.ScaleFree(rand.New(rand.NewSource(7)), c.n, 2, graph.UniformLabels(a.OT.F.Size()))
		for _, s := range []struct {
			name  string
			solve func(ws *Workspace, dest int) Raw
		}{
			{"sweep", func(ws *Workspace, dest int) Raw { return ws.BellmanFordRaw(eng, g, dest, origin, 0) }},
			{"kernel", func(ws *Workspace, dest int) Raw { return ws.ScratchRaw(eng, g, dest, origin) }},
		} {
			b.Run(c.name+"/"+s.name, func(b *testing.B) {
				ws := NewWorkspace()
				s.solve(ws, 0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchSink += s.solve(ws, i%16).Rounds
				}
			})
		}
	}
}

var benchSink int
