// Differential tests for the unified execution layer: randomly generated
// finite algebras crossed with GNP/ring/grid topologies, asserting that
// the dynamic and compiled backends produce *identical* results — same
// weights, next hops, round counts, protocol outcomes and RIB contents —
// for every solver and the simulator. This is the executable statement
// that the compiled tables are a faithful image of the dynamic algebra,
// which is what licenses exec.For to pick backends silently.
package exec_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"metarouting/internal/baselib"
	"metarouting/internal/bsg"
	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/ost"
	"metarouting/internal/protocol"
	"metarouting/internal/rib"
	"metarouting/internal/solve"
	"metarouting/internal/value"
)

// randExpr draws a random finite algebra expression. Bases are kept
// small so composite carriers stay well under the compile cap.
func randExpr(r *rand.Rand, depth int) string {
	bases := []string{"delay(8,2)", "delay(16,3)", "bw(4)", "bw(8)", "hops(8)", "lp(3)"}
	if depth <= 0 || r.Intn(3) == 0 {
		return bases[r.Intn(len(bases))]
	}
	switch r.Intn(5) {
	case 0:
		return fmt.Sprintf("lex(%s, %s)", randExpr(r, depth-1), randExpr(r, depth-1))
	case 1:
		return fmt.Sprintf("scoped(%s, %s)", randExpr(r, depth-1), randExpr(r, depth-1))
	case 2:
		return fmt.Sprintf("addtop(%s)", randExpr(r, depth-1))
	case 3:
		return fmt.Sprintf("left(%s)", randExpr(r, depth-1))
	default:
		return fmt.Sprintf("right(%s)", randExpr(r, depth-1))
	}
}

// randTopo draws one of the three topology families.
func randTopo(r *rand.Rand, labels int) *graph.Graph {
	switch r.Intn(3) {
	case 0:
		return graph.Random(r, 4+r.Intn(8), 0.3, graph.UniformLabels(labels))
	case 1:
		return graph.Ring(r, 4+r.Intn(8), graph.UniformLabels(labels))
	default:
		return graph.Grid(r, 2+r.Intn(3), 2+r.Intn(3), graph.UniformLabels(labels))
	}
}

// enginePair builds the two backends for one algebra, skipping algebras
// the compiler rejects (none are expected from randExpr's size budget).
func enginePair(t *testing.T, ot *ost.OrderTransform, origin value.V) (dyn, comp exec.Algebra) {
	t.Helper()
	dyn, err := exec.New(ot, exec.ModeDynamic, origin)
	if err != nil {
		t.Fatalf("%s: dynamic: %v", ot.Name, err)
	}
	comp, err = exec.New(ot, exec.ModeCompiled, origin)
	if err != nil {
		t.Fatalf("%s: compile: %v", ot.Name, err)
	}
	return dyn, comp
}

func diffOrigin(r *rand.Rand, ot *ost.OrderTransform) value.V {
	if b, ok := ot.Ord.Bot(); ok && r.Intn(2) == 0 {
		return b
	}
	elems := ot.Carrier().Elems
	return elems[r.Intn(len(elems))]
}

func sameResult(t *testing.T, label string, a, b *solve.Result) {
	t.Helper()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: dynamic and compiled results differ:\n dyn: %+v\ncomp: %+v", label, a, b)
	}
}

// TestEngineDifferentialSolvers: the order-transform solvers agree
// across backends on random algebra × topology pairs.
func TestEngineDifferentialSolvers(t *testing.T) {
	r := rand.New(rand.NewSource(1729))
	for trial := 0; trial < 60; trial++ {
		src := randExpr(r, 2)
		a, err := core.InferString(src)
		if err != nil {
			t.Fatalf("trial %d: %s: %v", trial, src, err)
		}
		if !a.OT.Finite() || a.OT.Carrier().Size() > 4000 {
			continue // size budget: keep compiles fast
		}
		origin := diffOrigin(r, a.OT)
		dyn, comp := enginePair(t, a.OT, origin)
		g := randTopo(r, a.OT.F.Size())
		label := fmt.Sprintf("trial %d: %s on %s origin %s", trial, src, g, value.Format(origin))

		sameResult(t, label+" dijkstra",
			solve.DijkstraEngine(dyn, g, 0, origin), solve.DijkstraEngine(comp, g, 0, origin))
		sameResult(t, label+" bellman-ford",
			solve.BellmanFordEngine(dyn, g, 0, origin, 0), solve.BellmanFordEngine(comp, g, 0, origin, 0))
		sameResult(t, label+" gauss-seidel",
			solve.GaussSeidelEngine(dyn, g, 0, origin, 0), solve.GaussSeidelEngine(comp, g, 0, origin, 0))

		k := 1 + r.Intn(4)
		kd := solve.KBestEngine(dyn, g, 0, origin, k, 0)
		kc := solve.KBestEngine(comp, g, 0, origin, k, 0)
		if !reflect.DeepEqual(kd, kc) {
			t.Fatalf("%s kbest(k=%d): dynamic and compiled differ:\n dyn: %+v\ncomp: %+v", label, k, kd, kc)
		}
	}
}

// TestEngineDifferentialProtocol: the asynchronous simulator, driven by
// identical seeds and link-event schedules, is bit-for-bit identical
// across backends.
func TestEngineDifferentialProtocol(t *testing.T) {
	r := rand.New(rand.NewSource(271828))
	for trial := 0; trial < 40; trial++ {
		src := randExpr(r, 2)
		a, err := core.InferString(src)
		if err != nil {
			t.Fatalf("trial %d: %s: %v", trial, src, err)
		}
		if !a.OT.Finite() || a.OT.Carrier().Size() > 4000 {
			continue
		}
		origin := diffOrigin(r, a.OT)
		dyn, comp := enginePair(t, a.OT, origin)
		g := randTopo(r, a.OT.F.Size())
		var events []protocol.LinkEvent
		if len(g.Arcs) > 0 && r.Intn(2) == 0 {
			arc := r.Intn(len(g.Arcs))
			events = append(events,
				protocol.LinkEvent{At: 20, Arc: arc, Fail: true},
				protocol.LinkEvent{At: 120, Arc: arc, Fail: false})
		}
		seed := r.Int63()
		run := func(eng exec.Algebra) *protocol.Outcome {
			return protocol.RunEngine(eng, g, protocol.Config{
				Dest: 0, Origin: origin, MaxDelay: 3, MaxSteps: 60 * g.N * g.N,
				Rand: rand.New(rand.NewSource(seed)), Events: events,
			})
		}
		od, oc := run(dyn), run(comp)
		if !reflect.DeepEqual(od, oc) {
			t.Fatalf("trial %d: %s on %s: protocol outcomes differ:\n dyn: %+v\ncomp: %+v",
				trial, src, g, od, oc)
		}
	}
}

// TestEngineDifferentialRIB: RIB contents (weights, full ECMP next-hop
// sets, forwarding paths) agree across backends.
func TestEngineDifferentialRIB(t *testing.T) {
	r := rand.New(rand.NewSource(31415))
	for trial := 0; trial < 25; trial++ {
		src := randExpr(r, 2)
		a, err := core.InferString(src)
		if err != nil {
			t.Fatalf("trial %d: %s: %v", trial, src, err)
		}
		if !a.OT.Finite() || a.OT.Carrier().Size() > 4000 {
			continue
		}
		g := randTopo(r, a.OT.F.Size())
		origins := make(map[int]value.V)
		for _, d := range []int{0, g.N - 1} {
			origins[d] = diffOrigin(r, a.OT)
		}
		vs := make([]value.V, 0, len(origins))
		for _, v := range origins {
			vs = append(vs, v)
		}
		dyn, err := exec.New(a.OT, exec.ModeDynamic, vs...)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := exec.New(a.OT, exec.ModeCompiled, vs...)
		if err != nil {
			t.Fatal(err)
		}
		rd, errD := rib.BuildEngine(dyn, g, origins)
		rc, errC := rib.BuildEngine(comp, g, origins)
		if (errD == nil) != (errC == nil) {
			t.Fatalf("trial %d: %s: build errors differ: %v vs %v", trial, src, errD, errC)
		}
		for d := range origins {
			for u := 0; u < g.N; u++ {
				ed, ec := rd.Lookup(u, d), rc.Lookup(u, d)
				if !reflect.DeepEqual(ed, ec) {
					t.Fatalf("trial %d: %s: entry (%d→%d) differs:\n dyn: %+v\ncomp: %+v",
						trial, src, u, d, ed, ec)
				}
			}
		}
	}
}

// TestEngineDifferentialClosure: the algebraic-path solver agrees across
// semiring backends on the three stock bisemigroups.
func TestEngineDifferentialClosure(t *testing.T) {
	r := rand.New(rand.NewSource(1618))
	for trial := 0; trial < 15; trial++ {
		max := 8 + r.Intn(56)
		for _, b := range []*bsg.Bisemigroup{
			baselib.MinPlus(max), baselib.MaxMin(max), baselib.PlusTimes(max),
		} {
			nLabels := 3 + r.Intn(3)
			weights := make([]value.V, nLabels)
			for i := range weights {
				weights[i] = r.Intn(max + 1)
			}
			g := randTopo(r, nLabels)
			dyn := exec.NewDynamicSemiring(b)
			comp, err := exec.CompileSemiring(b)
			if err != nil {
				t.Fatalf("trial %d: %s: %v", trial, b.Name, err)
			}
			cd := solve.ClosureEngine(dyn, g, weights, 0)
			cc := solve.ClosureEngine(comp, g, weights, 0)
			if !reflect.DeepEqual(cd, cc) {
				t.Fatalf("trial %d: %s on %s: closures differ:\n dyn: %+v\ncomp: %+v",
					trial, b.Name, g, cd, cc)
			}
		}
	}
}
