package rib

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/ost"
	"metarouting/internal/solve"
	"metarouting/internal/value"
)

// hidden wraps an engine in a type exec.Tables does not know, so every
// loop that would read the tables takes its interface path on the very
// same engine. Its plan is the one inference licenses.
type hidden struct{ exec.Algebra }

// bare is hidden over a transform that carries no judgements (ost.New on
// the engine's order and functions), so its plan is the sweep with no
// warm start.
type bare struct {
	hidden
	src *ost.OrderTransform
}

func unproved(eng exec.Algebra) bare {
	ot := eng.Source()
	return bare{hidden{eng}, ost.New(ot.Name, ot.Ord, ot.F)}
}

func (b bare) Source() *ost.OrderTransform { return b.src }

// sweepState is what one capped sweep leaves behind, and the pages laid
// out from it — after a capped sweep a neighbour may since have moved
// past the weight a node selected, which is where an ECMP scan that
// compared by ≤ instead of ~ would show.
type sweepState struct {
	pages       []*ColumnPage
	routed      []bool
	w           []int32
	nextHop     []int
	rounds      int
	converged   bool
	relaxations uint64
}

func sweep(eng exec.Algebra, g *graph.Graph, dest int, origin value.V, maxRounds int) sweepState {
	ws := solve.NewWorkspace()
	ws.Metrics = solve.NewMetrics()
	raw := ws.BellmanFordRaw(eng, g, dest, origin, maxRounds)
	return sweepState{
		pages:       pagesFromRaw(eng, g, raw, dest),
		routed:      slices.Clone(raw.Routed),
		w:           slices.Clone(raw.W),
		nextHop:     slices.Clone(raw.NextHop),
		rounds:      raw.Rounds,
		converged:   raw.Converged,
		relaxations: ws.Metrics.Relaxations.Load(),
	}
}

// TestTableKernelsMatchInterface: the table-driven sweep and ECMP scan
// against the interface loops they stand in for — one compiled engine,
// once as it is and once hidden from exec.Tables — over GNP, ring, grid
// and scale-free graphs on a base, a masked and an overlay view. The
// sweep is cut off after every round up to convergence and run uncapped:
// routedness, weights, next hops, Rounds, Relaxations, the verdict and
// the pages laid out from that state (pools included) are equal each
// time, and so are the finished columns and their certificates. The
// policy product never comes out clean and the lex product saturates
// both ceilings into wide equal-cost sets; the product with tags(2) has
// incomparable weights, so it must get no tables at all and still agree.
func TestTableKernelsMatchInterface(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	for _, c := range []struct {
		expr  string
		total bool
	}{
		{"scoped(bw(4),delay(8,4))", true},
		{"lex(delay(6,3),hops(4))", true},
		{"lex(delay(6,3),tags(2))", false},
	} {
		a, err := core.InferString(c.expr)
		if err != nil {
			t.Fatal(err)
		}
		org := a.OT.DefaultOrigin()
		eng, err := exec.Compile(a.OT)
		if err != nil {
			t.Fatal(err)
		}
		if got := exec.Tables(eng) != nil; got != c.total {
			t.Fatalf("%s: exec.Tables non-nil = %v, want %v", c.expr, got, c.total)
		}
		plain := unproved(eng)
		if exec.Tables(plain) != nil {
			t.Fatalf("%s: a wrapped engine must not hand out tables", c.expr)
		}
		pick := graph.UniformLabels(a.OT.F.Size())
		for gi, g := range []*graph.Graph{
			graph.Random(r, 80, 0.05, pick),
			graph.Ring(r, 60, pick),
			graph.Grid(r, 8, 9, pick),
			graph.ScaleFree(r, 140, 2, pick),
		} {
			disabled := make([]bool, len(g.Arcs))
			for i := range disabled {
				disabled[i] = r.Intn(7) == 0
			}
			masked := g.MaskArcs(disabled)
			overlay := masked
			for step := 0; step < 6; step++ {
				batch := []int{r.Intn(len(g.Arcs)), r.Intn(len(g.Arcs))}
				if batch[0] == batch[1] {
					batch = batch[:1]
				}
				for _, ai := range batch {
					disabled[ai] = !disabled[ai]
				}
				overlay = overlay.WithArcsToggled(batch, disabled)
			}
			for vi, view := range []*graph.Graph{g, masked, overlay} {
				dest := r.Intn(g.N)
				tag := fmt.Sprintf("%s graph %d view %d dest %d", c.expr, gi, vi, dest)
				full := sweep(plain, view, dest, org, 0)
				if got := sweep(eng, view, dest, org, 0); !reflect.DeepEqual(got, full) {
					t.Fatalf("%s: uncapped sweep differs\n got %+v\nwant %+v", tag, got, full)
				}
				for cap := 1; cap <= full.rounds; cap++ {
					want := sweep(plain, view, dest, org, cap)
					if got := sweep(eng, view, dest, org, cap); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: state after round %d differs\n got %+v\nwant %+v", tag, cap, got, want)
					}
				}
				got, err := BuildDestPaged(eng, view, dest, org, nil)
				if err != nil {
					t.Fatal(err)
				}
				want, err := BuildDestPaged(plain, view, dest, org, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got.Converged != want.Converged || got.Clean != want.Clean {
					t.Fatalf("%s: converged/clean %v/%v, want %v/%v", tag, got.Converged, got.Clean, want.Converged, want.Clean)
				}
				samePages(t, tag, got.Pages, want.Pages)
			}
		}
	}
}

// BenchmarkSweepKernel is a from-scratch column build by the sweep —
// the paper's policy product on a 2k-node scale-free graph — on the base
// graph and on an overlay view with four live failures, through the
// tables and, hidden from them, through the interface. BuildDestPaged
// itself now runs the licensed best-first kernel on this algebra;
// BenchmarkScratchKernel (internal/solve) times the two solvers apart.
func BenchmarkSweepKernel(b *testing.B) {
	a, err := core.InferString("scoped(bw(4), delay(64,4))")
	if err != nil {
		b.Fatal(err)
	}
	eng, err := exec.Compile(a.OT)
	if err != nil {
		b.Fatal(err)
	}
	org := a.OT.DefaultOrigin()
	r := rand.New(rand.NewSource(7))
	g := graph.ScaleFree(r, 2000, 2, graph.UniformLabels(a.OT.F.Size()))
	disabled := make([]bool, len(g.Arcs))
	batch := []int{11, 502, 1003, 2004}
	for _, ai := range batch {
		disabled[ai] = true
	}
	overlay := g.WithArcsToggled(batch, disabled)
	for _, e := range []struct {
		name string
		eng  exec.Algebra
	}{{"tables", eng}, {"interface", hidden{eng}}} {
		for _, v := range []struct {
			name string
			view *graph.Graph
		}{{"base", g}, {"overlay", overlay}} {
			b.Run(e.name+"/"+v.name, func(b *testing.B) {
				ws := solve.NewWorkspace()
				for i := 0; i < b.N; i++ {
					raw := ws.BellmanFordRaw(e.eng, v.view, 0, org, 0)
					pagesFromRaw(e.eng, v.view, raw, 0)
				}
			})
		}
	}
}
