package solve

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/value"
)

// TestTopCertificateMatchesFullWalk holds the ⊤-only clean-tree
// certificate to the walk of every chain it replaced. Every algebra of
// TestPlanTable that a backend licenses with strict I — delay(8,2)
// among them, whose columns beyond the delay cap sit at ⊤ and loop
// there — runs on random and scale-free graphs under random masks, to
// every destination: VerifyForwardTree on the sweep's and on the kernel's
// fixpoint must give verifyFull's verdict, and so must a sparse delta's
// Clean from each clean column to the next mask, against every chain of
// the new fixpoint walked through the overlay. Unclean columns must turn
// up on delay(8,2), or a certificate that walks nothing would pass.
func TestTopCertificateMatchesFullWalk(t *testing.T) {
	var names []string
	for src := range planGolden {
		names = append(names, src)
	}
	sort.Strings(names)
	unclean := map[string]int{}
	runs := 0
	for _, src := range names {
		a, err := core.InferString(src)
		if err != nil {
			continue
		}
		engines := planEngines(a.OT)
		for _, backend := range []string{"compiled", "tiered", "dynamic"} {
			eng, ok := engines[backend]
			if !ok || !NewPlan(eng).Kernel.I {
				continue
			}
			r := rand.New(rand.NewSource(int64(len(src))))
			for gi, g := range []*graph.Graph{
				graph.Random(r, 36, 0.06, graph.UniformLabels(a.OT.F.Size())),
				graph.ScaleFree(r, 48, 1, graph.UniformLabels(a.OT.F.Size())),
			} {
				tag := fmt.Sprintf("%s/%s/graph %d", src, backend, gi)
				unclean[src] += certifyAllDests(t, tag, eng, g, r, a.OT.DefaultOrigin())
				runs++
			}
		}
	}
	if runs == 0 || unclean["delay(8,2)"] == 0 {
		t.Fatalf("fixture lost its teeth: %d runs, unclean verdicts %v", runs, unclean)
	}
	t.Logf("%d runs; unclean verdicts %v", runs, unclean)
}

// certifyAllDests checks the certificates of one engine and graph to
// every destination under three random masks, and returns how many
// verdicts were unclean.
func certifyAllDests(t *testing.T, tag string, eng exec.Algebra, g *graph.Graph, r *rand.Rand, origin value.V) (unclean int) {
	t.Helper()
	ws, ows := NewWorkspace(), NewWorkspace()
	mask := func() []bool {
		m := make([]bool, len(g.Arcs))
		for i := range m {
			m[i] = r.Intn(6) == 0
		}
		return m
	}
	for dest := 0; dest < g.N; dest++ {
		for trial := 0; trial < 3; trial++ {
			before, after := mask(), mask()
			view := g.MaskArcs(before)
			for _, scratch := range []func() Raw{
				func() Raw { return ws.BellmanFordRaw(eng, view, dest, origin, 0) },
				func() Raw { return ws.ScratchRaw(eng, view, dest, origin) },
			} {
				raw := scratch()
				if !raw.Converged {
					continue
				}
				got := ws.VerifyForwardTree(eng, raw)
				if want := ws.verifyFull(raw); got != want {
					t.Fatalf("%s dest %d: ⊤-only verdict %v, full walk %v", tag, dest, got, want)
				}
				if !got {
					unclean++
				}
			}
			prev := ownRaw(ows.ScratchRaw(eng, view, dest, origin))
			if !ows.VerifyForwardTree(eng, prev) {
				continue
			}
			var toggles []ArcToggle
			for ai := range after {
				if after[ai] != before[ai] {
					toggles = append(toggles, ArcToggle{Arc: ai, Down: after[ai]})
				}
			}
			warm := rawWarm(prev)
			_, st := ws.BellmanFordDeltaLog(eng, g.MaskArcs(after), after, dest, origin, warm, true, nil, toggles, 0)
			if !st.UsedDelta || st.Moved == nil {
				continue
			}
			if want := ws.verifyAll(g.N, dest, warm); st.Clean != want {
				t.Fatalf("%s dest %d: delta's ⊤-only verdict %v, full walk %v", tag, dest, st.Clean, want)
			}
			if !st.Clean {
				unclean++
			}
		}
	}
	return unclean
}
