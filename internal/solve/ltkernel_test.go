package solve

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/ost"
	"metarouting/internal/prop"
)

// checkedProps model-checks the properties NewPlan reads on a finite
// order transform that no inference ran on; tests stamp the result on the
// transform, as inference would.
func checkedProps(ot *ost.OrderTransform) prop.Set {
	p := prop.Make()
	for _, id := range []prop.ID{prop.MLeft, prop.NDLeft, prop.ILeft, prop.SILeft, prop.TopFixed} {
		p.Put(id, ot.Check(id, nil, 0))
	}
	st, _ := ot.Ord.CheckFull(nil, 0)
	p.Derive(prop.Full, st, "checked")
	st, _ = ot.Ord.CheckAntisymmetric(nil, 0)
	p.Derive(prop.Antisymmetric, st, "checked")
	return p
}

// ltExpr draws a random algebra expression over finite and unbounded
// bases; the unbounded ones leave the carrier infinite, where only the
// tiered and dynamic engines run.
func ltExpr(r *rand.Rand, depth int) string {
	bases := []string{"delay(8,2)", "delay(16,3)", "delay(0,2)", "bw(4)", "hops(8)", "hops(0)", "lp(3)"}
	if depth <= 0 || r.Intn(3) == 0 {
		return bases[r.Intn(len(bases))]
	}
	switch r.Intn(4) {
	case 0:
		return fmt.Sprintf("lex(%s, %s)", ltExpr(r, depth-1), ltExpr(r, depth-1))
	case 1:
		return fmt.Sprintf("scoped(%s, %s)", ltExpr(r, depth-1), ltExpr(r, depth-1))
	case 2:
		return fmt.Sprintf("addtop(%s)", ltExpr(r, depth-1))
	default:
		return fmt.Sprintf("right(%s)", ltExpr(r, depth-1))
	}
}

// ltTopos draws the corpus families: GNP, ring, grid, scale-free, and
// graph.TwoLevel regions labelled by intra and inter.
func ltTopos(r *rand.Rand, labels int, intra, inter graph.LabelPicker) []*graph.Graph {
	pick := graph.UniformLabels(labels)
	return []*graph.Graph{
		graph.Random(r, 30, 0.1, pick),
		graph.Ring(r, 24, pick),
		graph.Grid(r, 5, 6, pick),
		graph.ScaleFree(r, 40, 2, pick),
		graph.TwoLevel(r, 4, 8, 0.25, 6, intra, inter).Graph,
	}
}

// TestLtKernelMatchesSweep is the comparison kernel's differential: on
// the tiered engine, licensed by the inferred set alone, ScratchRaw is
// bit-identical to BellmanFordRaw — routedness, weight ids, first-arc
// next hops and Converged — for lex(delay(255,3), hops(32)) (the query
// workloads' I algebra), the forwardable policy scoped(hops(0),
// delay(64,4)) and its bounded ¬ND twin scoped(hops(16), delay(64,4))
// (both M), and random inferred-I or -M algebras, on GNP, ring, grid,
// scale-free and two-level graphs under a random arc mask, for every
// destination. Where the sweep stops at its round budget short of the
// fixpoint the kernel does not; there it must match a sweep given the
// rounds to converge. The mutants: a kernel that never re-queues a
// settled node misses the greatest fixpoint under M, and a tied
// (¬Antisymmetric) preorder that the gate refuses would otherwise break
// the first-arc rule.
func TestLtKernelMatchesSweep(t *testing.T) {
	r := rand.New(rand.NewSource(131))
	type ltCase struct {
		expr string
		a    *core.Algebra
		want string
	}
	var cases []ltCase
	for _, n := range []struct{ expr, want string }{
		{"lex(delay(255,3), hops(32))", "best-first (I)"},
		{"scoped(hops(0), delay(64,4))", "best-first (M)"},
		{"scoped(hops(16), delay(64,4))", "best-first (M)"},
	} {
		a, err := core.InferString(n.expr)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, ltCase{n.expr, a, n.want})
	}
	kinds := map[string]int{}
	for tries := 0; kinds["M"] < 6 || kinds["I"] < 6; tries++ {
		if tries > 2000 {
			t.Fatalf("generator: only %v licensed algebras", kinds)
		}
		src := ltExpr(r, 2)
		a, err := core.InferString(src)
		if err != nil || !a.OT.F.Finite() {
			continue
		}
		if _, err := a.OT.CheckedDefaultOrigin(); err != nil {
			continue
		}
		want := NewPlan(exec.NewTiered(a.OT)).Kernel.String()
		if want == "sweep" {
			continue
		}
		k := want[len("best-first (") : len("best-first (")+1]
		if kinds[k] >= 6 {
			continue
		}
		kinds[k]++
		cases = append(cases, ltCase{src, a, want})
	}
	var unconverged int
	for _, c := range cases {
		origin := c.a.OT.DefaultOrigin()
		eng := exec.NewTiered(c.a.OT)
		if got := NewPlan(eng).Kernel.String(); got != c.want {
			t.Fatalf("%s: kernel %q, want %q", c.expr, got, c.want)
		}
		ws, ref := NewWorkspace(), NewWorkspace()
		intra, inter := graph.UniformLabels(c.a.OT.F.Size()), graph.UniformLabels(c.a.OT.F.Size())
		if strings.HasPrefix(c.expr, "scoped(") {
			intra, inter = scopedPickers(c.a.OT)
		}
		for gi, g := range ltTopos(r, c.a.OT.F.Size(), intra, inter) {
			disabled := make([]bool, len(g.Arcs))
			for i := range disabled {
				disabled[i] = r.Intn(7) == 0
			}
			for vi, view := range []*graph.Graph{g, g.MaskArcs(disabled)} {
				for dest := 0; dest < g.N; dest++ {
					tag := fmt.Sprintf("%s graph %d view %d dest %d", c.expr, gi, vi, dest)
					got := ownRaw(ws.ScratchRaw(eng, view, dest, origin))
					want := ref.BellmanFordRaw(eng, view, dest, origin, 0)
					if !want.Converged {
						unconverged++
						want = ref.BellmanFordRaw(eng, view, dest, origin, 64*g.N)
					}
					if got.Converged != want.Converged || !sameRoutes(got, want) {
						t.Fatalf("%s: ScratchRaw differs from the sweep\n got %+v\nwant %+v", tag, got, want)
					}
				}
			}
		}
	}
	t.Logf("%d algebras (%v random), %d sweeps needed more than the default budget", len(cases), kinds, unconverged)

	t.Run("mutant/no-requeue", func(t *testing.T) {
		// The chain's greatest fixpoint is 299 decrements around a
		// 2-cycle below the origin; label-setting stops at the first.
		chain := chainOT(300)
		chain.Props = checkedProps(chain)
		eng := exec.NewTiered(chain)
		plan := NewPlan(eng)
		if plan.Kernel.String() != "best-first (M)" {
			t.Fatalf("chain: kernel %v", plan.Kernel)
		}
		ws := NewWorkspace()
		ws.bestFirstLt(eng, plan, cycleGraph(), 0, exec.MustIntern(eng, 299), false)
		if eng.Value(ws.w[1]) == 0 {
			t.Fatal("chain: a kernel without re-queues still reached the greatest fixpoint")
		}
		a, err := core.InferString("scoped(bw(4), delay(64,4))")
		if err != nil {
			t.Fatal(err)
		}
		eng = exec.NewTiered(a.OT)
		plan = NewPlan(eng)
		sf := graph.ScaleFree(rand.New(rand.NewSource(3)), 300, 2, graph.UniformLabels(a.OT.F.Size()))
		o := exec.MustIntern(eng, a.OT.DefaultOrigin())
		differs := 0
		for dest := 0; dest < 20; dest++ {
			want := ownRaw(ws.BellmanFordRaw(eng, sf, dest, a.OT.DefaultOrigin(), 0))
			ws.bestFirstLt(eng, plan, sf, dest, o, false)
			if !slices.Equal(ws.w, want.W) {
				differs++
			}
		}
		if differs == 0 {
			t.Fatal("policy: a kernel without re-queues matched the sweep on every destination")
		}
	})

	t.Run("mutant/ties", func(t *testing.T) {
		// Weights 1 and 2 tie; every function is a constant, hence
		// monotone. Arcs: 1→2 κ1, 1→0 κ2, 2→0 κ1. The kernel keeps the
		// first tied weight it finds at node 1, the sweep the one behind
		// its first tight out-arc.
		tie := intOT("tie", 3, func(x int) int { return min(x, 1) }, func(int) int { return 1 }, func(int) int { return 2 })
		props := checkedProps(tie)
		if !props.Holds(prop.MLeft) || !props.Holds(prop.Full) || !props.Fails(prop.Antisymmetric) {
			t.Fatalf("tie: props %s, want M, Full and ¬Antisymmetric", props.Summary())
		}
		tie.Props = props
		eng := exec.NewTiered(tie)
		if k := NewPlan(eng).Kernel; k.M || k.I {
			t.Fatalf("tie: the gate granted %v to a preorder with ties", k)
		}
		tg := graph.MustNew(3, []graph.Arc{{From: 1, To: 2, Label: 0}, {From: 1, To: 0, Label: 1}, {From: 2, To: 0, Label: 0}})
		ws := NewWorkspace()
		want := ownRaw(ws.BellmanFordRaw(eng, tg, 0, 0, 0))
		ws.Plan = &Plan{Kernel: Kernel{M: true}}
		if got := ws.ScratchRaw(eng, tg, 0, 0); got.Converged == want.Converged && sameRoutes(got, want) {
			t.Fatal("tie: the mutant that skips the antisymmetry check matched the sweep")
		}
	})
}

// TestLtKernelAllocs: with a warm workspace and a warm tiered engine one
// ScratchRaw allocates nothing at the query workloads' algebra and a
// 10k-node scale-free graph, and every per-id list head is empty again
// after each solve, so none needs an O(#ids) reset.
func TestLtKernelAllocs(t *testing.T) {
	a, err := core.InferString("lex(delay(255,3), hops(32))")
	if err != nil {
		t.Fatal(err)
	}
	origin := a.OT.DefaultOrigin()
	eng := exec.NewTiered(a.OT)
	g := graph.ScaleFree(rand.New(rand.NewSource(47)), 10000, 2, graph.UniformLabels(a.OT.F.Size()))
	ws := NewWorkspace()
	for dest := 0; dest < 4; dest++ {
		ws.ScratchRaw(eng, g, dest, origin)
		if i := slices.IndexFunc(ws.ids.head, func(h int32) bool { return h != -1 }); i >= 0 || len(ws.ids.heap) != 0 {
			t.Fatalf("dest %d: id %d's list head is %d after the solve, heap %v", dest, i, ws.ids.head[max(i, 0)], ws.ids.heap)
		}
	}
	if interned, _ := exec.Tiers(eng); len(ws.ids.head) > interned {
		t.Fatalf("%d list heads for %d interned weights", len(ws.ids.head), interned)
	}
	allocs := testing.AllocsPerRun(10, func() { ws.ScratchRaw(eng, g, 1, origin) })
	if allocs != 0 {
		t.Fatalf("ScratchRaw allocates %.0f objects per run on a warm tiered workspace, want 0", allocs)
	}
}

// BenchmarkLtKernel times one from-scratch solve by the sweep and by the
// comparison kernel on the query workloads' algebra, on the tiered engine
// (exec.For compiles that algebra; the comparison kernel serves tiered
// ones) and a 10k-node scale-free graph.
func BenchmarkLtKernel(b *testing.B) {
	a, err := core.InferString("lex(delay(255,3), hops(32))")
	if err != nil {
		b.Fatal(err)
	}
	origin := a.OT.DefaultOrigin()
	eng := exec.NewTiered(a.OT)
	g := graph.ScaleFree(rand.New(rand.NewSource(7)), 10000, 2, graph.UniformLabels(a.OT.F.Size()))
	for _, s := range []struct {
		name  string
		solve func(ws *Workspace, dest int) Raw
	}{
		{"sweep", func(ws *Workspace, dest int) Raw { return ws.BellmanFordRaw(eng, g, dest, origin, 0) }},
		{"kernel", func(ws *Workspace, dest int) Raw { return ws.ScratchRaw(eng, g, dest, origin) }},
	} {
		b.Run(s.name, func(b *testing.B) {
			ws := NewWorkspace()
			s.solve(ws, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += s.solve(ws, i%16).Rounds
			}
		})
	}
}
