package rib

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/ost"
	"metarouting/internal/solve"
	"metarouting/internal/value"
)

// randExpr draws a random finite algebra expression — the generator of
// the exec engine-differential tests.
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

// scratchCase is one algebra of the kernel differential: the origin it
// routes from and the solver its plan must pick ("" when any is
// accepted).
type scratchCase struct {
	expr   string
	origin value.V
	ot     *ost.OrderTransform
	solver string
}

func scratchCases(t *testing.T, r *rand.Rand) []scratchCase {
	t.Helper()
	named := []struct{ expr, solver string }{
		{"scoped(bw(4), delay(64,4))", "best-first (M)"},
		{"scoped(bw(4), delay(8,4))", "best-first (M)"},
		{"lex(delay(32,3), hops(8))", "best-first (I)"},
		{"lex(delay(6,3), hops(4))", "best-first (I)"},
		{"gadget", "sweep"},                   // BAD GADGET's algebra: neither M nor I
		{"lex(delay(6,3), tags(2))", "sweep"}, // incomparable weights: no rank
		{"plus(lp(3), lp(3))", "sweep"},       // monotone, but two weights share a rank
		{"lex(delay(8,2), bw(4))", "sweep"},   // ranked, ND, neither licence
	}
	var out []scratchCase
	for _, n := range named {
		a, err := core.InferString(n.expr)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, scratchCase{n.expr, a.OT.DefaultOrigin(), a.OT, n.solver})
	}
	for len(out) < len(named)+24 {
		src := randExpr(r, 2)
		a, err := core.InferString(src)
		if err != nil {
			t.Fatal(err)
		}
		if !a.OT.Finite() || a.OT.Carrier().Size() > 4000 {
			continue
		}
		elems := a.OT.Carrier().Elems
		origin := elems[r.Intn(len(elems))]
		if b, ok := a.OT.Ord.Bot(); ok && r.Intn(2) == 0 {
			origin = b
		}
		out = append(out, scratchCase{src, origin, a.OT, ""})
	}
	return out
}

// scratchTopos draws GNP, ring, grid, scale-free and two-level region
// graphs.
func scratchTopos(r *rand.Rand, labels int) []*graph.Graph {
	pick := graph.UniformLabels(labels)
	return []*graph.Graph{
		graph.Random(r, 30, 0.1, pick),
		graph.Ring(r, 24, pick),
		graph.Grid(r, 5, 6, pick),
		graph.ScaleFree(r, 40, 2, pick),
		graph.TwoLevel(r, 4, 8, 0.25, 6, pick, pick).Graph,
	}
}

// TestScratchKernelMatchesSweep is the licensed kernel's differential:
// one compiled engine against itself hidden from exec.Tables over a
// transform with no judgements (unproved), so the only difference is the
// solver ScratchRaw picks. Over random finite
// algebras (the exec differential's generator) and the workloads' and
// the kernel tests' named ones, on GNP, ring, grid, scale-free and
// two-level graphs in base, masked and overlay views, for every
// destination: the selection is the plan's (best-first under M or strict
// I; the sweep on BAD GADGET, the rank-less tags(2) product, a shared
// rank and an unlicensed algebra), and routedness, weights, next
// hops, Converged, Clean, flat and paged columns and their pools are
// identical — as is DeltaDestPaged from an unclean previous column with
// no log, whose dense drain falls back to ScratchRaw on every policy
// product. The engine hidden from its tables alone keeps the inferred
// set it carries, runs the comparison kernel wherever inference proves
// what the table does, and its Raw must match the sweep's too.
func TestScratchKernelMatchesSweep(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	var kernels, inferredKernels, fallbacks int
	for _, c := range scratchCases(t, r) {
		eng, err := exec.New(c.ot, exec.ModeCompiled, c.origin)
		if err != nil {
			t.Fatalf("%s: %v", c.expr, err)
		}
		plain, hid := unproved(eng), hidden{eng}
		want := solve.NewPlan(eng).Kernel.String()
		if c.solver != "" && c.solver != want {
			t.Fatalf("%s: the plan selects %q, want %q", c.expr, want, c.solver)
		}
		if got := solve.NewPlan(plain).Kernel.String(); got != "sweep" {
			t.Fatalf("%s: an unproved engine must sweep, kernel %q", c.expr, got)
		}
		if strings.HasPrefix(want, "best-first") {
			kernels++
		}
		ws, hws, lws := solve.NewWorkspace(), solve.NewWorkspace(), solve.NewWorkspace()
		inferred := solve.NewPlan(hid).Kernel
		if inferred.M || inferred.I {
			inferredKernels++
		}
		for gi, g := range scratchTopos(r, c.ot.F.Size()) {
			disabled := make([]bool, len(g.Arcs))
			for i := range disabled {
				disabled[i] = r.Intn(7) == 0
			}
			masked := g.MaskArcs(disabled)
			batch := []int{r.Intn(len(g.Arcs)), r.Intn(len(g.Arcs)), r.Intn(len(g.Arcs))}
			slices.Sort(batch)
			batch = slices.Compact(batch)
			toggles := make([]solve.ArcToggle, len(batch))
			for i, ai := range batch {
				disabled[ai] = !disabled[ai]
				toggles[i] = solve.ArcToggle{Arc: ai, Down: disabled[ai]}
			}
			overlay := masked.WithArcsToggled(batch, disabled)
			for vi, view := range []*graph.Graph{g, masked, overlay} {
				for dest := 0; dest < g.N; dest++ {
					tag := fmt.Sprintf("%s graph %d view %d dest %d", c.expr, gi, vi, dest)
					got := ws.ScratchRaw(eng, view, dest, c.origin)
					ref := hws.ScratchRaw(plain, view, dest, c.origin)
					if got.Converged != ref.Converged || !slices.Equal(got.Routed, ref.Routed) ||
						!slices.Equal(got.W, ref.W) || !slices.Equal(got.NextHop, ref.NextHop) {
						t.Fatalf("%s: ScratchRaw differs from the sweep\n got %+v\nwant %+v", tag, got, ref)
					}
					if ref.Converged {
						lt := lws.ScratchRaw(hid, view, dest, c.origin)
						if !lt.Converged || !slices.Equal(lt.Routed, ref.Routed) || !slices.Equal(lt.W, ref.W) || !slices.Equal(lt.NextHop, ref.NextHop) {
							t.Fatalf("%s: %v differs from the sweep\n got %+v\nwant %+v", tag, inferred, lt, ref)
						}
					}
					flat, err := BuildDestColumn(eng, view, dest, c.origin, ws)
					if err != nil {
						t.Fatal(err)
					}
					flatRef, err := BuildDestColumn(plain, view, dest, c.origin, hws)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(flat, flatRef) {
						t.Fatalf("%s: flat columns differ\n got %+v\nwant %+v", tag, flat, flatRef)
					}
					paged, err := BuildDestPaged(eng, view, dest, c.origin, ws)
					if err != nil {
						t.Fatal(err)
					}
					pagedRef, err := BuildDestPaged(plain, view, dest, c.origin, hws)
					if err != nil {
						t.Fatal(err)
					}
					if paged.Converged != pagedRef.Converged || paged.Clean != pagedRef.Clean {
						t.Fatalf("%s: converged/clean %v/%v, sweep %v/%v", tag, paged.Converged, paged.Clean, pagedRef.Converged, pagedRef.Clean)
					}
					samePages(t, tag, paged.Pages, pagedRef.Pages)
					if vi != 1 {
						continue
					}
					// The overlay's delta from the masked view's column,
					// stripped of its certificate and its derivation log so
					// the dense drain runs (the log's warm start has its own
					// differential, TestDerivationDeltaMatchesScratch).
					prev := *paged
					prev.Clean, prev.log = false, nil
					delta, st, ps, err := DeltaDestPaged(eng, overlay, disabled, dest, c.origin, ws, &prev, toggles)
					if err != nil {
						t.Fatal(err)
					}
					deltaRef, stRef, psRef, err := DeltaDestPaged(plain, overlay, disabled, dest, c.origin, hws, &prev, toggles)
					if err != nil {
						t.Fatal(err)
					}
					if st.UsedDelta != stRef.UsedDelta || delta.Converged != deltaRef.Converged || delta.Clean != deltaRef.Clean ||
						ps.Changed != psRef.Changed {
						t.Fatalf("%s: delta used/converged/clean/changed %v/%v/%v/%d, sweep %v/%v/%v/%d", tag,
							st.UsedDelta, delta.Converged, delta.Clean, ps.Changed, stRef.UsedDelta, deltaRef.Converged, deltaRef.Clean, psRef.Changed)
					}
					samePages(t, tag+" delta", delta.Pages, deltaRef.Pages)
					if !st.UsedDelta && strings.HasPrefix(want, "best-first") {
						fallbacks++
					}
				}
			}
		}
	}
	if kernels < 10 || inferredKernels < 10 || fallbacks == 0 {
		t.Fatalf("coverage: %d algebras took the table kernel, %d the inferred one; %d licensed delta builds fell back to it",
			kernels, inferredKernels, fallbacks)
	}
	t.Logf("%d algebras took the table kernel, %d the inferred one; %d licensed delta builds fell back to it", kernels, inferredKernels, fallbacks)
}
