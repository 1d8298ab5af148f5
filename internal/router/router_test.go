package router

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/solve"
	"metarouting/internal/value"
)

func alg(t testing.TB, src string) *core.Algebra {
	t.Helper()
	a, err := core.InferString(src)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestLicensingMatrix(t *testing.T) {
	cases := []struct {
		src  string
		want map[Algorithm]bool
	}{
		// delay: M ∧ ND ∧ I ∧ T ∧ total — everything is licensed.
		{"delay(64,3)", map[Algorithm]bool{Dijkstra: true, Fixpoint: true, PathVector: true, DistanceVector: true}},
		// bw: M ∧ ND but ¬I — global methods only.
		{"bw(8)", map[Algorithm]bool{Dijkstra: true, Fixpoint: true, PathVector: false, DistanceVector: false}},
		// scoped(bw, delay): M but ¬ND — fixpoint only.
		{"scoped(bw(4), delay(16,2))", map[Algorithm]bool{Dijkstra: false, Fixpoint: true, PathVector: false, DistanceVector: false}},
		// gadget: nothing.
		{"gadget", map[Algorithm]bool{Dijkstra: false, Fixpoint: false, PathVector: false, DistanceVector: false}},
	}
	for _, c := range cases {
		a := alg(t, c.src)
		for algo, want := range c.want {
			_, err := New(a, algo)
			if (err == nil) != want {
				t.Errorf("%s / %s: licensed=%v, want %v (err: %v)", c.src, algo, err == nil, want, err)
			}
		}
		lic := Licensed(a)
		count := 0
		for _, want := range c.want {
			if want {
				count++
			}
		}
		if len(lic) != count {
			t.Errorf("%s: Licensed() = %v, want %d entries", c.src, lic, count)
		}
	}
}

func TestLicenseErrorExplains(t *testing.T) {
	a := alg(t, "lex(bw(8), delay(8,3))")
	_, err := New(a, Dijkstra)
	var le *LicenseError
	if !errors.As(err, &le) {
		t.Fatalf("want *LicenseError, got %v", err)
	}
	if le.Missing != "M" {
		t.Fatalf("missing = %s, want M (checked first)", le.Missing)
	}
	if !strings.Contains(le.Explanation, "Theorem 4") {
		t.Fatalf("explanation must cite the rule:\n%s", le.Explanation)
	}
	if !strings.Contains(le.Error(), "requires M") {
		t.Fatalf("Error() = %q", le.Error())
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	if _, err := New(alg(t, "delay(8,1)"), Algorithm("ospf")); err == nil {
		t.Fatal("unknown algorithm must be rejected")
	}
}

// TestSolveAgreementAcrossAlgorithms: on an everything-licensed algebra,
// all four algorithms agree on weights.
func TestSolveAgreementAcrossAlgorithms(t *testing.T) {
	a := alg(t, "delay(255,3)")
	r := rand.New(rand.NewSource(3))
	g := graph.Random(r, 9, 0.3, graph.UniformLabels(3))
	var results []*solve.Result
	for _, algo := range Algorithms {
		rt, err := New(a, algo)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		res, err := rt.Solve(g, 0, 0, 7)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		results = append(results, res)
	}
	base := results[0]
	for i, res := range results[1:] {
		for u := 0; u < g.N; u++ {
			if base.Routed[u] != res.Routed[u] {
				t.Fatalf("%s node %d: routedness differs", Algorithms[i+1], u)
			}
			if base.Routed[u] && base.Weights[u] != res.Weights[u] {
				t.Fatalf("%s node %d: %v vs %v", Algorithms[i+1], u, base.Weights[u], res.Weights[u])
			}
		}
	}
}

func TestGuaranteeProse(t *testing.T) {
	a := alg(t, "delay(16,1)")
	for _, algo := range Algorithms {
		rt, err := New(a, algo)
		if err != nil {
			t.Fatal(err)
		}
		if rt.Guarantee() == "" || rt.Guarantee() == "unknown" {
			t.Fatalf("%s: empty guarantee", algo)
		}
	}
}

func TestFixpointOnScopedProduct(t *testing.T) {
	a := alg(t, "scoped(bw(4), delay(16,2))")
	rt, err := New(a, Fixpoint)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	g := graph.Random(r, 7, 0.35, graph.UniformLabels(len(a.OT.F.Fns)))
	res, err := rt.Solve(g, 0, value.Pair{A: 4, B: 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := solve.VerifyDominates(a.OT, g, 0, value.Pair{A: 4, B: 0}, res); !ok {
		t.Fatalf("the licensed guarantee must hold: %s", why)
	}
}

// TestEngineIsExecFor: a router runs the engine every other solve path
// builds. lex(delay(255,3), hops(32)) has 8 448 weights over leaves of
// 256 and 33, whose ranks compose, so that is the compiled engine, not
// the interpreter, and the fixpoint it solves equals solve.BellmanFord's
// weights and next hops. The product lacks M, so New refuses Fixpoint; the literal drives
// the sweep anyway, which converges under the I it has.
func TestEngineIsExecFor(t *testing.T) {
	a := alg(t, "lex(delay(255,3), hops(32))")
	origin := a.OT.DefaultOrigin()
	rt := &Router{Algebra: a, Algo: Fixpoint}
	if m := rt.Engine(origin).Mode(); m != exec.ModeCompiled || m != exec.For(a.OT, origin).Mode() {
		t.Fatalf("engine %s, want compiled, as exec.For picks", m)
	}
	g := graph.Random(rand.New(rand.NewSource(11)), 40, 0.1, graph.UniformLabels(a.OT.F.Size()))
	for dest := 0; dest < g.N; dest += 7 {
		got, err := rt.Solve(g, dest, origin, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := solve.BellmanFord(a.OT, g, dest, origin, 0)
		if !want.Converged {
			t.Fatalf("dest %d: the reference sweep did not converge", dest)
		}
		for u := 0; u < g.N; u++ {
			if got.Routed[u] != want.Routed[u] || got.Routed[u] &&
				(got.Weights[u] != want.Weights[u] || got.NextHop[u] != want.NextHop[u]) {
				t.Fatalf("dest %d node %d: router %v via %d, BellmanFord %v via %d",
					dest, u, got.Weights[u], got.NextHop[u], want.Weights[u], want.NextHop[u])
			}
		}
	}
}
