// Benchmarks regenerating every table/figure of the paper (E1–E18, see
// EXPERIMENTS.md) plus micro-benchmarks of the core operations and the
// ablations called out in DESIGN.md §4. Run with
//
//	go test -bench=. -benchmem
package metarouting

import (
	"math/rand"
	"testing"

	"metarouting/internal/baselib"
	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/expt"
	"metarouting/internal/graph"
	"metarouting/internal/ost"
	"metarouting/internal/protocol"
	"metarouting/internal/solve"
	"metarouting/internal/value"
)

// --- one benchmark per experiment table/figure ---

func BenchmarkE1Quadrants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.QuadrantsTable()
	}
}

func BenchmarkE2GlobalOptimaValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.GlobalOptimaValidation(int64(i), 40)
	}
}

func BenchmarkE3LocalOptimaValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.LocalOptimaValidation(int64(i), 40)
	}
}

func BenchmarkE4LexSemigroupLaws(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.LexSemigroupLaws(int64(i), 40)
	}
}

func BenchmarkE5Corollaries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.CorollaryValidation(int64(i), 30)
	}
}

func BenchmarkE6BandwidthDelayLex(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.BandwidthDelayLex()
	}
}

func BenchmarkE7PolicyPartitions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.PolicyPartitionValidation(int64(i), 30)
	}
}

func BenchmarkE8SufficientVsExact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.SufficientVsExact(int64(i), 60)
	}
}

func BenchmarkE9Szendrei(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.SzendreiBoundedMetrics()
	}
}

func BenchmarkE10Reductions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.ReductionLaws(int64(i))
	}
}

func BenchmarkE11OptimaOnGraphs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.OptimaOnGraphs(int64(i), 5)
	}
}

func BenchmarkE12ConvergenceDynamics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.ConvergenceDynamics(int64(i), 4)
	}
}

func BenchmarkE13InferenceVsModelCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.InferenceVsModelCheck(int64(i))
	}
}

// --- ablation: exact rules vs model checking (DESIGN.md §4) ---

func benchInfer(b *testing.B, src string, fallbackOnly bool) {
	e := core.MustParse(src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fallbackOnly {
			a, err := core.InferWith(e, core.Options{Fallback: false})
			if err != nil {
				b.Fatal(err)
			}
			chk := ost.New("chk", a.OT.Ord, a.OT.F)
			chk.CheckAll(nil, 0)
		} else {
			if _, err := core.InferWith(e, core.Options{Fallback: false}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkInferRulesShallow(b *testing.B) { benchInfer(b, "lex(bw(8), delay(8,2))", false) }
func BenchmarkModelCheckShallow(b *testing.B) { benchInfer(b, "lex(bw(8), delay(8,2))", true) }
func BenchmarkInferRulesDeep(b *testing.B) {
	benchInfer(b, "scoped(lex(lp(3), hops(8)), lex(hops(8), bw(4)))", false)
}
func BenchmarkModelCheckDeep(b *testing.B) {
	benchInfer(b, "scoped(lex(lp(3), hops(8)), lex(hops(8), bw(4)))", true)
}

// --- ablation: Dijkstra vs Bellman–Ford on monotone+ND algebras ---

func benchSolver(b *testing.B, n int, dijkstra bool) {
	a, err := core.InferString("delay(0,4)")
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	g := graph.Random(r, n, 0.2, graph.UniformLabels(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dijkstra {
			solve.Dijkstra(a.OT, g, 0, 0)
		} else {
			solve.BellmanFord(a.OT, g, 0, 0, 0)
		}
	}
}

func BenchmarkDijkstra32(b *testing.B)     { benchSolver(b, 32, true) }
func BenchmarkBellmanFord32(b *testing.B)  { benchSolver(b, 32, false) }
func BenchmarkDijkstra128(b *testing.B)    { benchSolver(b, 128, true) }
func BenchmarkBellmanFord128(b *testing.B) { benchSolver(b, 128, false) }

// --- ablation: scoped vs plain lex weight application ---

func benchApply(b *testing.B, src string) {
	a, err := core.InferString(src)
	if err != nil {
		b.Fatal(err)
	}
	fns := a.OT.F.Fns
	w := value.V(value.Pair{A: 4, B: 0})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w2 := w
		for _, f := range fns {
			w2 = f.Apply(w2)
		}
	}
}

func BenchmarkApplyLex(b *testing.B)    { benchApply(b, "lex(bw(4), delay(64,4))") }
func BenchmarkApplyScoped(b *testing.B) { benchApply(b, "scoped(bw(4), delay(64,4))") }

// --- protocol simulator throughput ---

func BenchmarkProtocolDelay(b *testing.B) {
	a, err := core.InferString("delay(255,3)")
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	g := graph.Random(r, 16, 0.25, graph.UniformLabels(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		protocol.Run(a.OT, g, protocol.Config{Dest: 0, Origin: 0, MaxDelay: 3, Rand: r})
	}
}

func BenchmarkProtocolBadGadget(b *testing.B) {
	a, err := core.InferString("gadget")
	if err != nil {
		b.Fatal(err)
	}
	g, _ := graph.BadGadgetArcs()
	r := rand.New(rand.NewSource(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		protocol.Run(a.OT, g, protocol.Config{Dest: 0, Origin: 0, MaxSteps: 1000, MaxDelay: 2, Rand: r})
	}
}

// --- inference throughput on the flagship expression ---

func BenchmarkInferBGPShape(b *testing.B) {
	e := core.MustParse("scoped(lex(lp(4), hops(16)), lex(hops(16), bw(8)))")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.InferWith(e, core.Options{Fallback: false}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation: compiled tables vs dynamic dispatch in the solver ---

func benchCompiled(b *testing.B, n int, compiled bool) {
	a, err := core.InferString("delay(255,4)")
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	g := graph.Random(r, n, 0.2, graph.UniformLabels(4))
	mode := exec.ModeDynamic
	if compiled {
		mode = exec.ModeCompiled
	}
	eng, err := exec.New(a.OT, mode, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve.BellmanFordEngine(eng, g, 0, 0, 0)
	}
}

func BenchmarkDynamicBF64(b *testing.B)  { benchCompiled(b, 64, false) }
func BenchmarkCompiledBF64(b *testing.B) { benchCompiled(b, 64, true) }

// --- new-experiment benches ---

func BenchmarkE14CompositeGap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.CompositeMetricGap(int64(i), 60)
	}
}

func BenchmarkE15KBestClosure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.KBestAndClosure(int64(i), 5)
	}
}

func BenchmarkE16DynamicRouting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.DynamicRouting(int64(i), 5)
	}
}

func BenchmarkKBestSolver(b *testing.B) {
	a, err := core.InferString("delay(4095,4)")
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	g := graph.Random(r, 24, 0.25, graph.UniformLabels(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve.KBest(a.OT, g, 0, 0, 4, 0)
	}
}

func BenchmarkClosureMinPlus(b *testing.B) {
	bsgAlg := baselib.MinPlus(4096)
	r := rand.New(rand.NewSource(4))
	g := graph.Random(r, 24, 0.25, graph.UniformLabels(4))
	weights := []value.V{1, 2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve.Closure(bsgAlg, g, weights, 0)
	}
}

// benchScratch256 routes destination 0 of a 256-node GNP graph on
// delay(255,4): by the O(N²) scan Dijkstra on the compiled backend, or by
// the comparison kernel on the tiered backend under the inferred licence.
func benchScratch256(b *testing.B, kernel bool) {
	a, err := core.InferString("delay(255,4)")
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(6))
	g := graph.Random(r, 256, 0.1, graph.UniformLabels(4))
	mode := exec.ModeCompiled
	if kernel {
		mode = exec.ModeTiered
	}
	eng, err := exec.New(a.OT, mode, 0)
	if err != nil {
		b.Fatal(err)
	}
	ws := solve.NewWorkspace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if kernel {
			ws.ScratchRaw(eng, g, 0, 0)
		} else {
			solve.DijkstraEngine(eng, g, 0, 0)
		}
	}
}

func BenchmarkDijkstraScan256(b *testing.B)    { benchScratch256(b, false) }
func BenchmarkBestFirstTiered256(b *testing.B) { benchScratch256(b, true) }

func BenchmarkE17ConvergenceScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.ConvergenceScaling(int64(i), 2)
	}
}

func BenchmarkGaussSeidel128(b *testing.B) {
	a, err := core.InferString("delay(0,4)")
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	g := graph.Random(r, 128, 0.2, graph.UniformLabels(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve.GaussSeidel(a.OT, g, 0, 0, 0)
	}
}

func BenchmarkE18LanguageMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.LanguageMatrix(int64(i))
	}
}
