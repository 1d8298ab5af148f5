package serve_test

// Tests for the per-toggle skip rule: a sharp destination's rebuild is
// handed only the toggles that can move its column. On scale-free graphs
// with hubs, storms that mix random fails and restores with fails that
// only shrink an equal-cost set and restores that only widen one are held,
// swap by swap, to the rebuilds the whole batch would have produced
// (SwapOracle.CheckSubsets) and to a scratch build of every column; on
// the policy product, whose columns are never clean, every other storm
// restores only. The broken rules of SubsetMutants must each be caught.
// CI runs this file under -race.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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

// subsetRun is one server under a subset storm, with everything a swap
// is checked against.
type subsetRun struct {
	srv     *serve.Server
	sink    *captureSink
	oracle  *serve.SwapOracle
	eng     exec.Algebra
	g       *graph.Graph
	origins map[int]value.V
	ws      *solve.Workspace
	// m says the server's plan licenses the restore rule on unclean
	// columns: a skip rule and an M kernel. split makes every other batch
	// restores only, so that no fail reaches an unclean column.
	m, split bool
	// dropped counts toggles a rebuilt clean destination was not handed:
	// the first skip rule admits them (the tail is not the destination,
	// the head is routed) and toggleMoves does not. uncleanDrops counts
	// the restores an unclean destination under M was not handed, rebuilt
	// or skipped: no fail reached it, and toggleMoves drops them.
	// ecmpFails counts failed arcs to a next hop that is not the primary,
	// evenRestores restored arcs whose candidate ties the tail's weight:
	// the toggles that only shrink or only widen an equal-cost set.
	dropped, uncleanDrops, ecmpFails, evenRestores int
}

func newSubsetRun(t *testing.T, eng exec.Algebra, g *graph.Graph, origins map[int]value.V, props ...serve.Option) *subsetRun {
	t.Helper()
	sink := &captureSink{}
	opts := append([]serve.Option{serve.WithWorkers(2), serve.WithReplication(sink)}, props...)
	srv, err := serve.NewServer(serve.Config{Engine: eng, Graph: g, Origins: origins}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sink.take()
	plan := solve.NewPlan(eng)
	return &subsetRun{srv: srv, sink: sink, oracle: serve.NewSwapOracle(srv), eng: eng, g: g, origins: origins,
		ws: solve.NewWorkspace(), m: plan.Skip && plan.Kernel.M}
}

// moves is the rule the server applies to a sharp column, restated on
// the column's read surface; wy is the weight of the arc's head.
func (sr *subsetRun) moves(col *rib.PagedColumn, a graph.Arc, fail bool, wy int32) bool {
	if fail {
		return slices.Contains(col.NextHops(a.From), int32(a.To))
	}
	wx, routed := col.Route(a.From)
	return !routed || !sr.eng.Lt(wx, sr.eng.Apply(a.Label, wy))
}

// arc returns the index of an arc x→y that is failed or up as asked, -1
// when there is none.
func (sr *subsetRun) arc(x, y int, disabled []bool, failed bool) int {
	for _, ai := range sr.g.Out(x) {
		if sr.g.Arcs[ai].To == y && disabled[ai] == failed {
			return int(ai)
		}
	}
	return -1
}

// batch draws one storm against the current snapshot: a fail that only
// shrinks some node's equal-cost set, a restore of an earlier one (its
// candidate usually ties again), a random fail — an arc at a hub every
// other time — and a random restore.
func (sr *subsetRun) batch(r *rand.Rand, shrunk *[]int) []serve.ArcEvent {
	sn := sr.srv.Snapshot()
	dests := sr.srv.Dests()
	var events []serve.ArcEvent
	for try := 0; try < 400; try++ {
		col := sn.Column(dests[r.Intn(len(dests))])
		x := r.Intn(sr.g.N)
		if nh := col.NextHops(x); len(nh) > 1 {
			if ai := sr.arc(x, int(nh[1+r.Intn(len(nh)-1)]), sn.Disabled, false); ai >= 0 {
				events = append(events, serve.ArcEvent{Arc: ai, Fail: true})
				*shrunk = append(*shrunk, ai)
				break
			}
		}
	}
	for len(*shrunk) > 1 {
		ai := (*shrunk)[0]
		*shrunk = (*shrunk)[1:]
		if sn.Disabled[ai] {
			events = append(events, serve.ArcEvent{Arc: ai, Fail: false})
			break
		}
	}
	ai := r.Intn(len(sr.g.Arcs))
	if r.Intn(2) == 0 {
		if hub := sr.g.Out(r.Intn(3)); len(hub) > 0 {
			ai = int(hub[r.Intn(len(hub))])
		}
	}
	events = append(events, serve.ArcEvent{Arc: ai, Fail: true})
	var down []int
	for i, d := range sn.Disabled {
		if d {
			down = append(down, i)
		}
	}
	if len(down) > 0 {
		events = append(events, serve.ArcEvent{Arc: down[r.Intn(len(down))], Fail: false})
	}
	return events
}

// apply runs one batch and checks the swap: the frame against the
// scan-based encoder, every rebuild against the whole batch's, and every
// column — rebuilt or shared — against BuildDestColumn on the new view.
func (sr *subsetRun) apply(events []serve.ArcEvent) error {
	prev := sr.srv.Snapshot()
	if _, _, err := sr.srv.ApplyBatch(context.Background(), events); err != nil {
		return err
	}
	var frame []byte
	if fresh := sr.sink.take(); len(fresh) == 1 {
		frame = fresh[0]
	} else if len(fresh) > 1 {
		return fmt.Errorf("one batch published %d frames", len(fresh))
	}
	if err := sr.oracle.Check(prev, events, frame); err != nil {
		return err
	}
	if err := sr.oracle.CheckSubsets(prev, events, frame); err != nil {
		return err
	}
	sn := sr.srv.Snapshot()
	toggles, err := serve.Coalesce(events, prev.Disabled)
	if err != nil {
		return err
	}
	for _, d := range sr.srv.Dests() {
		col, old := sn.Column(d), prev.Column(d)
		want, err := rib.BuildDestColumn(sr.eng, sn.Graph, d, sr.origins[d], sr.ws)
		if err != nil {
			return err
		}
		if got := col.Flatten(); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("v%d: destination %d (rebuilt %v) differs from a scratch build on the new view", sn.Version, d, col != old)
		}
		// An unclean column is handed the whole batch once a fail reaches
		// it; otherwise, under M, only its moving restores.
		failReaches := slices.ContainsFunc(toggles, func(t serve.ArcEvent) bool {
			a := sr.g.Arcs[t.Arc]
			_, routed := old.Route(a.To)
			return t.Fail && routed && a.From != d
		})
		for _, t := range toggles {
			a := sr.g.Arcs[t.Arc]
			wy, routed := old.Route(a.To)
			if !routed || a.From == d {
				continue
			}
			switch {
			case old.Clean && col != old && !sr.moves(old, a, t.Fail, wy):
				sr.dropped++
			case !old.Clean && old.Converged && sr.m && !failReaches && !sr.moves(old, a, t.Fail, wy):
				sr.uncleanDrops++
			}
			wx, routed := old.Route(a.From)
			if nh := old.NextHops(a.From); t.Fail && len(nh) > 1 && nh[0] != int32(a.To) && slices.Contains(nh, int32(a.To)) {
				sr.ecmpFails++
			} else if !t.Fail && routed && sr.eng.Equiv(wx, sr.eng.Apply(a.Label, wy)) {
				sr.evenRestores++
			}
		}
	}
	return nil
}

// storm applies n batches and returns the first discrepancy.
func (sr *subsetRun) storm(r *rand.Rand, n int) error {
	var shrunk []int
	for i := 0; i < n; i++ {
		events := sr.batch(r, &shrunk)
		if sr.split && i%2 == 1 {
			events = slices.DeleteFunc(events, func(ev serve.ArcEvent) bool { return ev.Fail })
		}
		if err := sr.apply(events); err != nil {
			return fmt.Errorf("storm %d: %w", i, err)
		}
	}
	return nil
}

// subsetGraph is a 300-node scale-free graph with hubs at its low
// indices; the destinations are node 0, the largest hub, and five
// others.
func subsetGraph(seed int64, labels int, origin value.V) (*graph.Graph, map[int]value.V) {
	g := graph.ScaleFree(rand.New(rand.NewSource(seed)), 300, 2, graph.UniformLabels(labels))
	origins := map[int]value.V{}
	for _, d := range []int{0, 7, 60, 150, 222, 299} {
		origins[d] = origin
	}
	return g, origins
}

// TestSubsetDifferential: on lex(delay, hops) — clean columns, so every
// destination is sharp — and on the policy product scoped(bw(4),
// delay(64,4)) — never clean, so sharp for restores alone, by M — on
// both backends that license the skip rule (the policy product takes the
// derivation log on compiled and the dense warm start on tiered), 40
// storms of fail/restore/equal-cost toggles keep every swap
// bit-identical to the whole batch's rebuilds and frame and to scratch
// builds. The subsets must have dropped toggles (the rule fired) with
// equal-cost restores in the mix, and equal-cost fails on the lex
// columns.
func TestSubsetDifferential(t *testing.T) {
	for _, expr := range []string{"lex(delay(32,3), hops(8))", "lex(delay(8,2), hops(8))", "scoped(bw(4), delay(64,4))"} {
		a, err := core.InferString(expr)
		if err != nil {
			t.Fatal(err)
		}
		origin := a.OT.DefaultOrigin()
		policy := strings.HasPrefix(expr, "scoped")
		for _, mode := range []exec.Mode{exec.ModeCompiled, exec.ModeTiered} {
			t.Run(fmt.Sprintf("%s/%s", expr, mode), func(t *testing.T) {
				eng, err := exec.New(a.OT, mode, origin)
				if err != nil {
					t.Fatal(err)
				}
				g, origins := subsetGraph(34, a.OT.F.Size(), origin)
				sr := newSubsetRun(t, eng, g, origins)
				sr.split = policy
				defer sr.srv.Close()
				if err := sr.storm(rand.New(rand.NewSource(7)), 40); err != nil {
					t.Fatal(err)
				}
				st := sr.srv.Stats()
				// The dense warm start cuts over on every unclean column, so
				// the policy product rebuilds by delta on compiled alone.
				teeth := st.DeltaDestRebuilds > 0 && sr.dropped >= 10 && sr.ecmpFails >= 5
				if policy {
					teeth = (st.DeltaDestRebuilds > 0) == (mode == exec.ModeCompiled) && sr.m && sr.uncleanDrops >= 10
				}
				if !teeth || sr.evenRestores < 5 {
					t.Fatalf("fixture lost its teeth: %d delta rebuilds, %d dropped toggles, %d restores dropped from unclean columns (M skip rule %v), %d equal-cost fails, %d equal-cost restores",
						st.DeltaDestRebuilds, sr.dropped, sr.uncleanDrops, sr.m, sr.ecmpFails, sr.evenRestores)
				}
				t.Logf("%d delta rebuilds, %d toggles dropped from clean subsets, %d restores from unclean ones, %d equal-cost fails, %d equal-cost restores",
					st.DeltaDestRebuilds, sr.dropped, sr.uncleanDrops, sr.ecmpFails, sr.evenRestores)
			})
		}
	}
}

// TestSubsetMutantsFail runs each broken rule of SubsetMutants through
// the same storms, and the checks must catch every one. The first two
// break toggleMoves on the clean lex columns, and "strictly-better" on
// the policy product's unclean ones too, whose restores M makes sharp;
// the third hands the policy product's columns — never clean, rebuilt
// from their derivation logs — the subsets and skips of their failed
// arcs that the clean columns get. A column there can hold a weight only
// a forwarding loop sustains, so an arc strictly worse than the loop may
// be the last one connecting it to the destination: about half the graph
// seeds catch that within 80 storms, so the test tries up to ten.
func TestSubsetMutantsFail(t *testing.T) {
	type run struct{ mutant, expr string }
	var runs []run
	for _, mutant := range serve.SubsetMutants {
		if mutant != "unclean" {
			runs = append(runs, run{mutant, "lex(delay(8,2), hops(8))"})
		}
		if mutant != "primary-only" {
			runs = append(runs, run{mutant, "scoped(bw(4), delay(64,4))"})
		}
	}
	for _, rn := range runs {
		mutant, expr := rn.mutant, rn.expr
		t.Run(mutant+"/"+expr, func(t *testing.T) {
			a, err := core.InferString(expr)
			if err != nil {
				t.Fatal(err)
			}
			origin := a.OT.DefaultOrigin()
			for seed := int64(0); seed < 10; seed++ {
				eng, err := exec.New(a.OT, exec.ModeCompiled, origin)
				if err != nil {
					t.Fatal(err)
				}
				g, origins := subsetGraph(seed, a.OT.F.Size(), origin)
				sr := newSubsetRun(t, eng, g, origins)
				sr.split = strings.HasPrefix(expr, "scoped")
				sr.srv.SetSubsetRuleForTest(mutant)
				err = sr.storm(rand.New(rand.NewSource(seed)), 80)
				sr.srv.Close()
				if err != nil {
					t.Logf("%s on %s, graph seed %d: caught: %v", mutant, expr, seed, err)
					return
				}
			}
			t.Fatalf("%s on %s: ten graphs of 80 storms passed every check", mutant, expr)
		})
	}
}
