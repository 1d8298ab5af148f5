package serve_test

// Tests for the serve layer's warm-start delta reconvergence: the
// delta-vs-scratch differential across random licensed algebras,
// topologies and event storms on both engine backends, the property
// gate's refusal to warm-start unlicensed (non-monotone) algebras. CI
// runs this file under -race.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/rib"
	"metarouting/internal/serve"
	"metarouting/internal/solve"
	"metarouting/internal/value"
)

// warmStartAllowed is the delta gate the engine's plan opens.
func warmStartAllowed(a *core.Algebra) bool {
	return solve.NewPlan(exec.NewDynamic(a.OT)).Warm != solve.WarmNone
}

// TestServeDifferentialDelta is the tentpole acceptance test for the
// delta pipeline: random licensed finite algebras × GNP/ring/grid
// topologies × random event storms, on every engine backend. A
// delta-enabled server and a WithDelta(false) server absorb identical
// batches; after every storm the two snapshots must be bit-identical to
// each other and to a fresh from-scratch build on the mutated graph.
// The rank-less tags policy scoped(bw(4), lex(tags(2), tags(2))) runs
// first, on its own seed: it is M without Full, the one kind of algebra
// left that takes the dense warm start, and it must rebuild by delta.
func TestServeDifferentialDelta(t *testing.T) {
	trials := 0
	var deltaRebuilds uint64
	var sharpSkips, coldSharpSkips int
	trial := func(src string, a *core.Algebra, r *rand.Rand) (rebuilds uint64) {
		trials++
		g := randTopo(r, a.OT.F.Size())
		elems := a.OT.Carrier().Elems
		origins := map[int]value.V{0: randOrigin(r, elems)}
		for len(origins) < 2+r.Intn(3) {
			origins[r.Intn(g.N)] = randOrigin(r, elems)
		}
		for name, eng := range engineBackends(t, a.OT) {
			label := fmt.Sprintf("trial %d: %s on %s (%s)", trials, src, g, name)
			// Both are shadowed: every swap's flap count and delta frame
			// must equal the scan-based oracle's, whether the diff came out
			// of the delta drain (warm) or of a page comparison after a
			// from-scratch build (cold).
			workers := 2
			if name == "tiered" {
				workers = 4 // more goroutines on the one engine nothing wraps
			}
			warm := newShadowed(t, label+" warm", eng, g, origins, serve.WithWorkers(workers))
			cold := newShadowed(t, label+" cold", eng, g, origins, serve.WithWorkers(workers), serve.WithDelta(false))
			if !warm.Stats().DeltaEnabled {
				t.Fatalf("%s: licensed algebra must enable the delta path", label)
			}
			if cold.Stats().DeltaEnabled {
				t.Fatalf("%s: WithDelta(false) must pin from-scratch rebuilds", label)
			}
			disabled := make([]bool, len(g.Arcs))
			for storm := 0; storm < 5; storm++ {
				events := make([]serve.ArcEvent, 1+r.Intn(5))
				for i := range events {
					events[i] = serve.ArcEvent{Arc: r.Intn(len(g.Arcs)), Fail: r.Intn(2) == 0}
					disabled[events[i].Arc] = events[i].Fail
				}
				if _, _, err := warm.ApplyBatch(context.Background(), events); err != nil {
					t.Fatalf("%s storm %d: warm: %v", label, storm, err)
				}
				if _, _, err := cold.ApplyBatch(context.Background(), events); err != nil {
					t.Fatalf("%s storm %d: cold: %v", label, storm, err)
				}
				wGot, cGot := warm.Snapshot(), cold.Snapshot()
				if !reflect.DeepEqual(wGot.Disabled, cGot.Disabled) {
					t.Fatalf("%s storm %d: disabled state diverged", label, storm)
				}
				for _, d := range warm.Dests() {
					for u := 0; u < g.N; u++ {
						if we, ce := wGot.Lookup(u, d), cGot.Lookup(u, d); !reflect.DeepEqual(we, ce) {
							t.Fatalf("%s storm %d: entry (%d→%d) diverged:\n warm: %+v\n cold: %+v",
								label, storm, u, d, we, ce)
						}
					}
				}
				fresh, err := rib.BuildEngine(exec.NewDynamic(a.OT), enabledSubgraph(t, g, disabled), origins)
				if err != nil {
					t.Fatalf("%s storm %d: fresh build: %v", label, storm, err)
				}
				sameTables(t, fmt.Sprintf("%s storm %d", label, storm), wGot, fresh, warm.Dests(), g.N)
			}
			rebuilds += warm.Stats().DeltaDestRebuilds
			sharpSkips += warm.sharpSkips
			coldSharpSkips += cold.sharpSkips
			warm.Close()
			cold.Close()
		}
		return rebuilds
	}
	const dense = "scoped(bw(4), lex(tags(2), tags(2)))"
	a, err := core.InferString(dense)
	if err != nil {
		t.Fatal(err)
	}
	if w := solve.NewPlan(exec.NewDynamic(a.OT)).Warm; w != solve.WarmDense {
		t.Fatalf("%s: warm start %v, want dense", dense, w)
	}
	denseRebuilds := trial(dense, a, rand.New(rand.NewSource(2028)))
	r := rand.New(rand.NewSource(2027))
	for trials < 11 {
		src := randExpr(r, 2)
		a, err := core.InferString(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if !a.OT.Finite() || a.OT.Carrier().Size() > 4000 || !warmStartAllowed(a) {
			continue
		}
		deltaRebuilds += trial(src, a, r)
	}
	// The differential is vacuous if the heuristic always cut over.
	if deltaRebuilds < 20 || denseRebuilds == 0 {
		t.Fatalf("only %d delta rebuilds across the random trials, %d on %s — the warm path barely ran", deltaRebuilds, denseRebuilds, dense)
	}
	// Likewise for the fixpoint skip rule, which every shadowed swap
	// checks against a scratch build (shadowed.checkSkipped): it must have
	// fired where the gate is open and never where it is shut.
	if sharpSkips < 10 || coldSharpSkips != 0 {
		t.Fatalf("fixpoint skips: %d on the delta servers (want ≥ 10), %d on the WithDelta(false) ones (want 0)", sharpSkips, coldSharpSkips)
	}
	t.Logf("%d delta rebuilds (%d on %s), %d fixpoint skips", deltaRebuilds+denseRebuilds, denseRebuilds, dense, sharpSkips)
}

// TestServeDeltaDerivationLog: on the paper's policy product, whose
// columns are never clean, a delta-enabled server warm-starts from each
// column's derivation log, on the compiled and the tiered engine alike.
// On a scale-free and a two-level region graph,
// through 30 fail, restore and mixed storms, it must stay bit-identical
// to a WithDelta(false) server after every storm — pages, convergence
// and clean verdicts, checksum — with every swap's frame held to the
// oracle, and it must have taken the warm path.
func TestServeDeltaDerivationLog(t *testing.T) {
	a, err := core.InferString("scoped(bw(4), delay(64,4))")
	if err != nil {
		t.Fatal(err)
	}
	nInter := 0
	for _, f := range a.OT.F.Fns {
		if strings.HasPrefix(f.Name, "(1,") {
			nInter++
		}
	}
	n := a.OT.F.Size()
	intra := func(r *rand.Rand, _, _ int) int { return nInter + r.Intn(n-nInter) }
	inter := func(r *rand.Rand, _, _ int) int { return r.Intn(nInter) }
	r := rand.New(rand.NewSource(30))
	origin := a.OT.DefaultOrigin()
	for shape, g := range map[string]*graph.Graph{
		"scale-free": graph.ScaleFree(r, 400, 2, graph.UniformLabels(n)),
		"two-level":  graph.TwoLevel(r, 12, 30, 0.15, 60, intra, inter).Graph,
	} {
		origins := map[int]value.V{}
		for i := 0; i < 6; i++ {
			origins[i*g.N/6] = origin
		}
		for _, eng := range []exec.Algebra{exec.For(a.OT, origin), exec.NewTiered(a.OT)} {
			label := fmt.Sprintf("%s/%s", shape, eng.Mode())
			warm := newShadowed(t, label+" warm", eng, g, origins, serve.WithWorkers(2))
			cold := newShadowed(t, label+" cold", eng, g, origins, serve.WithWorkers(2), serve.WithDelta(false))
			if st := warm.Stats(); !st.DeltaEnabled || st.WarmStart != "derivation log (M)" {
				t.Fatalf("%s: delta enabled %v, warm start %q", label, st.DeltaEnabled, st.WarmStart)
			}
			disabled := make([]bool, len(g.Arcs))
			for storm := 0; storm < 30; storm++ {
				var events []serve.ArcEvent
				for len(events) < 4 {
					ai := r.Intn(len(g.Arcs))
					// Even storms fail, odd ones restore, every third mixes.
					fail := storm%2 == 0 || storm%3 == 0 && len(events) < 2
					if disabled[ai] == fail {
						continue
					}
					disabled[ai] = fail
					events = append(events, serve.ArcEvent{Arc: ai, Fail: fail})
				}
				for _, s := range []*shadowed{warm, cold} {
					if _, _, err := s.ApplyBatch(context.Background(), events); err != nil {
						t.Fatalf("%s storm %d: %v", s.label, storm, err)
					}
				}
				wSnap, cSnap := warm.Snapshot(), cold.Snapshot()
				for _, d := range warm.Dests() {
					got, want := wSnap.Column(d), cSnap.Column(d)
					if got.Converged != want.Converged || got.Clean != want.Clean || !reflect.DeepEqual(got.Pages, want.Pages) {
						t.Fatalf("%s storm %d: destination %d diverged from the WithDelta(false) server", label, storm, d)
					}
				}
				if warm.Checksum() != cold.Checksum() {
					t.Fatalf("%s storm %d: checksums %08x vs %08x", label, storm, warm.Checksum(), cold.Checksum())
				}
			}
			if st := warm.Stats(); st.DeltaDestRebuilds == 0 {
				t.Fatalf("%s: the warm server never took the delta path (%d scratch rebuilds)", label, st.ScratchDestRebuilds)
			} else {
				t.Logf("%s: %d delta and %d scratch rebuilds", label, st.DeltaDestRebuilds, st.ScratchDestRebuilds)
			}
			warm.Close()
			cold.Close()
		}
	}
}

// TestServeDeltaUnlicensedFallsBack exercises the non-monotone fallback:
// the widest-shortest lex product (the paper's canonical M-failure) must
// leave the gate closed even with the inferred property set supplied,
// every rebuild must take the from-scratch path, and the served tables
// must still match a fresh build.
func TestServeDeltaUnlicensedFallsBack(t *testing.T) {
	a, err := core.InferString("lex(bw(4), hops(8))")
	if err != nil {
		t.Fatal(err)
	}
	if warmStartAllowed(a) {
		t.Fatal("widest-shortest must not be licensed — the fixture lost its teeth")
	}
	r := rand.New(rand.NewSource(11))
	g := graph.Grid(r, 4, 4, graph.UniformLabels(a.OT.F.Size()))
	origins := map[int]value.V{0: value.Pair{A: 4, B: 0}, 15: value.Pair{A: 4, B: 0}}
	srv, err := serve.NewServer(serve.Config{Engine: exec.For(a.OT), Graph: g, Origins: origins},
		serve.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Stats().DeltaEnabled {
		t.Fatal("unlicensed algebra must not enable the delta path")
	}
	disabled := make([]bool, len(g.Arcs))
	for storm := 0; storm < 3; storm++ {
		events := make([]serve.ArcEvent, 1+r.Intn(4))
		for i := range events {
			events[i] = serve.ArcEvent{Arc: r.Intn(len(g.Arcs)), Fail: r.Intn(2) == 0}
			disabled[events[i].Arc] = events[i].Fail
		}
		if _, _, err := srv.ApplyBatch(context.Background(), events); err != nil {
			t.Fatalf("storm %d: %v", storm, err)
		}
		fresh, err := rib.BuildEngine(exec.NewDynamic(a.OT), enabledSubgraph(t, g, disabled), origins)
		if err != nil {
			t.Fatalf("storm %d: fresh build: %v", storm, err)
		}
		sameTables(t, fmt.Sprintf("storm %d", storm), srv.Snapshot(), fresh, srv.Dests(), g.N)
	}
	st := srv.Stats()
	if st.DeltaDestRebuilds != 0 {
		t.Fatalf("unlicensed server took the delta path %d times", st.DeltaDestRebuilds)
	}
	if st.ScratchDestRebuilds == 0 {
		t.Fatal("storms must have forced from-scratch rebuilds")
	}
}
