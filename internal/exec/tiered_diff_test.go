// Differential tests for the tiered backend: random algebras crossed
// with random topologies, asserting the tiered engine is *bit-identical*
// to the pure interpreter — identical materialized Results AND identical
// index-form Raw solutions (same int32 weight indices), through both
// solver entry forms. Index-level identity is the property the serve
// snapshot builder depends on: arena columns store engine indices, so a
// backend that merely agreed up to value equality could still produce
// different columns.
package exec_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/ost"
	"metarouting/internal/rib"
	"metarouting/internal/solve"
	"metarouting/internal/value"
)

// tierPair builds the dynamic oracle and the tiered engine for one
// algebra. Neither can fail.
func tierPair(t *testing.T, ot *ost.OrderTransform, origins ...value.V) (dyn, tier exec.Algebra) {
	t.Helper()
	dyn, err := exec.New(ot, exec.ModeDynamic, origins...)
	if err != nil {
		t.Fatalf("%s: dynamic: %v", ot.Name, err)
	}
	tier, err = exec.New(ot, exec.ModeTiered, origins...)
	if err != nil {
		t.Fatalf("%s: tiered: %v", ot.Name, err)
	}
	if tier.Mode() != exec.ModeTiered {
		t.Fatalf("%s: tiered engine reports mode %q", ot.Name, tier.Mode())
	}
	return dyn, tier
}

// ownRaw deep-copies a Raw out of its workspace aliasing so two raws
// from different workspaces can be compared after further solves.
func ownRaw(r solve.Raw) solve.Raw {
	r.Routed = append([]bool(nil), r.Routed...)
	r.W = append([]int32(nil), r.W...)
	r.NextHop = append([]int(nil), r.NextHop...)
	return r
}

// tierDiffBoth runs both Bellman-Ford entry forms — the materialized
// *Result form and the index-form Raw — on both backends and asserts
// bit-identity, including the raw int32 weight indices.
func tierDiffBoth(t *testing.T, label string, dyn, tier exec.Algebra, g *graph.Graph, origin value.V) {
	t.Helper()
	wsD, wsT := solve.NewWorkspace(), solve.NewWorkspace()

	rd := wsD.BellmanFord(dyn, g, 0, origin, 0)
	rt := wsT.BellmanFord(tier, g, 0, origin, 0)
	if !reflect.DeepEqual(rd, rt) {
		t.Fatalf("%s: BellmanFord results differ:\n dyn: %+v\ntier: %+v", label, rd, rt)
	}

	rawD := ownRaw(wsD.BellmanFordRaw(dyn, g, 0, origin, 0))
	rawT := ownRaw(wsT.BellmanFordRaw(tier, g, 0, origin, 0))
	if !reflect.DeepEqual(rawD, rawT) {
		t.Fatalf("%s: BellmanFordRaw index forms differ (weight indices not bit-identical):\n dyn: %+v\ntier: %+v",
			label, rawD, rawT)
	}
}

// TestTieredDifferentialSolvers: every solver agrees bit-identically
// between the tiered backend and the dynamic oracle on random algebra ×
// topology pairs, and both Bellman-Ford entry forms (materialized and
// index-form Raw) and the licensed scratch solver agree down to the
// int32 weight indices.
func TestTieredDifferentialSolvers(t *testing.T) {
	r := rand.New(rand.NewSource(9091))
	for trial := 0; trial < 60; trial++ {
		src := randExpr(r, 2)
		a, err := core.InferString(src)
		if err != nil {
			t.Fatalf("trial %d: %s: %v", trial, src, err)
		}
		origin := diffOrigin(r, a.OT)
		dyn, tier := tierPair(t, a.OT, origin)
		g := randTopo(r, a.OT.F.Size())
		label := fmt.Sprintf("trial %d: %s on %s origin %s", trial, src, g, value.Format(origin))

		sameResult(t, label+" dijkstra",
			solve.DijkstraEngine(dyn, g, 0, origin), solve.DijkstraEngine(tier, g, 0, origin))
		// The comparison kernel, wherever inference licenses it (the
		// sweep elsewhere), down to the weight indices.
		wsD, wsT := solve.NewWorkspace(), solve.NewWorkspace()
		if kd, kt := ownRaw(wsD.ScratchRaw(dyn, g, 0, origin)), ownRaw(wsT.ScratchRaw(tier, g, 0, origin)); !reflect.DeepEqual(kd, kt) {
			t.Fatalf("%s %v: dynamic and tiered differ:\n dyn: %+v\ntier: %+v", label, solve.NewPlan(tier).Kernel, kd, kt)
		}
		sameResult(t, label+" gauss-seidel",
			solve.GaussSeidelEngine(dyn, g, 0, origin, 0), solve.GaussSeidelEngine(tier, g, 0, origin, 0))
		tierDiffBoth(t, label, dyn, tier, g, origin)

		k := 1 + r.Intn(4)
		kd := solve.KBestEngine(dyn, g, 0, origin, k, 0)
		kt := solve.KBestEngine(tier, g, 0, origin, k, 0)
		if !reflect.DeepEqual(kd, kt) {
			t.Fatalf("%s kbest(k=%d): dynamic and tiered differ:\n dyn: %+v\ntier: %+v", label, k, kd, kt)
		}
	}
}

// TestTieredDifferentialRIB: RIB contents agree bit-identically between
// tiered and dynamic backends.
func TestTieredDifferentialRIB(t *testing.T) {
	r := rand.New(rand.NewSource(40404))
	for trial := 0; trial < 25; trial++ {
		src := randExpr(r, 2)
		a, err := core.InferString(src)
		if err != nil {
			t.Fatalf("trial %d: %s: %v", trial, src, err)
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
		dyn, tier := tierPair(t, a.OT, vs...)
		rd, errD := rib.BuildEngine(dyn, g, origins)
		rt, errT := rib.BuildEngine(tier, g, origins)
		if (errD == nil) != (errT == nil) {
			t.Fatalf("trial %d: %s: build errors differ: %v vs %v", trial, src, errD, errT)
		}
		for d := range origins {
			for u := 0; u < g.N; u++ {
				ed, et := rd.Lookup(u, d), rt.Lookup(u, d)
				if !reflect.DeepEqual(ed, et) {
					t.Fatalf("trial %d: %s: entry (%d→%d) differs:\n dyn: %+v\ntier: %+v",
						trial, src, u, d, ed, et)
				}
			}
		}
	}
}

// TestTieredBigCarrier: on a carrier above AutoLimit the results of the
// tiered backend stay bit-identical to the interpreter through both
// entry forms. For compiles this ranked product (its rank composes from
// its leaves'), so the pair is built by name; For still picks tiered for
// a single leaf past AutoLimit, the population tiered compilation now
// exists for beside infinite carriers.
func TestTieredBigCarrier(t *testing.T) {
	const src = "lex(delay(127,2), delay(63,2))" // 128 × 64 = 8192 > AutoLimit
	a, err := core.InferString(src)
	if err != nil {
		t.Fatal(err)
	}
	if n := a.OT.Carrier().Size(); n <= exec.AutoLimit {
		t.Fatalf("carrier size %d does not exceed AutoLimit %d — test needs a bigger product", n, exec.AutoLimit)
	}
	b, ok := a.OT.Ord.Bot()
	if !ok {
		t.Fatalf("%s: no bottom origin", src)
	}
	leaf, err := core.InferString("delay(8191,2)")
	if err != nil {
		t.Fatal(err)
	}
	if m := exec.For(leaf.OT, 0).Mode(); m != exec.ModeTiered {
		t.Fatalf("For() on the %d-element leaf picked %q, want tiered", leaf.OT.Carrier().Size(), m)
	}
	r := rand.New(rand.NewSource(555))
	dyn, tier := tierPair(t, a.OT, b)
	for trial := 0; trial < 6; trial++ {
		g := randTopo(r, a.OT.F.Size())
		tierDiffBoth(t, fmt.Sprintf("big-carrier trial %d on %s", trial, g), dyn, tier, g, b)
	}
}
