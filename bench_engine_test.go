// Benchmarks of the unified execution layer: every solver plus the
// protocol simulator, dynamic vs compiled backend on the same finite
// algebra and topology. The measured speedups are recorded in
// DESIGN.md §4. Run with
//
//	go test -bench=EngineDynamicVsCompiled -benchmem
package metarouting

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"metarouting/internal/baselib"
	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/protocol"
	"metarouting/internal/solve"
	"metarouting/internal/value"
)

// engineBench builds the dynamic and compiled backends for the standard
// finite hot-path algebra (delay(255,4): 256-element carrier) and a
// random 128-node graph, then runs fn under each as sub-benchmarks.
func engineBench(b *testing.B, n int, fn func(b *testing.B, eng exec.Algebra, g *graph.Graph)) {
	a, err := core.InferString("delay(255,4)")
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(17))
	g := graph.Random(r, n, 0.2, graph.UniformLabels(4))
	for _, mode := range []exec.Mode{exec.ModeDynamic, exec.ModeCompiled} {
		eng, err := exec.New(a.OT, mode, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(mode), func(b *testing.B) { fn(b, eng, g) })
	}
}

func BenchmarkEngineDynamicVsCompiledDijkstra(b *testing.B) {
	engineBench(b, 128, func(b *testing.B, eng exec.Algebra, g *graph.Graph) {
		for i := 0; i < b.N; i++ {
			solve.DijkstraEngine(eng, g, 0, 0)
		}
	})
}

// BenchmarkEngineDynamicVsCompiledBestFirst runs the licensed scratch
// kernel: the comparison kernel on the dynamic backend (licensed by
// inference), the rank-bucket kernel on the compiled one (by its tables).
func BenchmarkEngineDynamicVsCompiledBestFirst(b *testing.B) {
	engineBench(b, 128, func(b *testing.B, eng exec.Algebra, g *graph.Graph) {
		ws := solve.NewWorkspace()
		for i := 0; i < b.N; i++ {
			ws.ScratchRaw(eng, g, 0, 0)
		}
	})
}

func BenchmarkEngineDynamicVsCompiledBellmanFord(b *testing.B) {
	engineBench(b, 128, func(b *testing.B, eng exec.Algebra, g *graph.Graph) {
		for i := 0; i < b.N; i++ {
			solve.BellmanFordEngine(eng, g, 0, 0, 0)
		}
	})
}

func BenchmarkEngineDynamicVsCompiledGaussSeidel(b *testing.B) {
	engineBench(b, 128, func(b *testing.B, eng exec.Algebra, g *graph.Graph) {
		for i := 0; i < b.N; i++ {
			solve.GaussSeidelEngine(eng, g, 0, 0, 0)
		}
	})
}

func BenchmarkEngineDynamicVsCompiledKBest(b *testing.B) {
	engineBench(b, 48, func(b *testing.B, eng exec.Algebra, g *graph.Graph) {
		for i := 0; i < b.N; i++ {
			solve.KBestEngine(eng, g, 0, 0, 4, 0)
		}
	})
}

func BenchmarkEngineDynamicVsCompiledProtocol(b *testing.B) {
	engineBench(b, 24, func(b *testing.B, eng exec.Algebra, g *graph.Graph) {
		r := rand.New(rand.NewSource(23))
		for i := 0; i < b.N; i++ {
			protocol.RunEngine(eng, g, protocol.Config{
				Dest: 0, Origin: 0, MaxDelay: 3, Rand: r,
			})
		}
	})
}

func BenchmarkEngineDynamicVsCompiledClosure(b *testing.B) {
	bi := baselib.MinPlus(1024)
	r := rand.New(rand.NewSource(29))
	g := graph.Random(r, 24, 0.25, graph.UniformLabels(4))
	weights := []value.V{1, 2, 3, 4}
	run := func(b *testing.B, sr exec.Semiring) {
		for i := 0; i < b.N; i++ {
			solve.ClosureEngine(sr, g, weights, 0)
		}
	}
	b.Run("dynamic", func(b *testing.B) { run(b, exec.NewDynamicSemiring(bi)) })
	comp, err := exec.CompileSemiring(bi)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("compiled", func(b *testing.B) { run(b, comp) })
}

// engineOpsSink keeps the measured calls alive.
var engineOpsSink int32

// BenchmarkEngineOps times the three operations every solver's inner
// loop is made of — Apply, Lt, Equiv — on each backend as the serve
// plane shares it (exec.Concurrent: compiled and tiered as they are,
// dynamic behind its mutex), alone and from GOMAXPROCS goroutines at
// once. The algebra is the 10k benchmark workloads' 8 448-element lex
// product and the operands a 128-weight working set (a 16-destination
// build of those workloads interns 109), so after the first pass every
// tiered operation is a memo hit. DESIGN.md §8 quotes these numbers.
//
//	go test -run '^$' -bench EngineOps -cpu 2 .
func BenchmarkEngineOps(b *testing.B) {
	a, err := core.InferString("lex(delay(255,3), hops(32))")
	if err != nil {
		b.Fatal(err)
	}
	ot := a.OT
	// The working set, by value: everything reachable from the origin,
	// breadth first, up to 128 weights.
	set := []value.V{ot.DefaultOrigin()}
	seen := map[value.V]bool{set[0]: true}
	for i := 0; i < len(set) && len(set) < 128; i++ {
		for _, f := range ot.F.Fns {
			if v := f.Apply(set[i]); !seen[v] && len(set) < 128 {
				seen[v] = true
				set = append(set, v)
			}
		}
	}
	const mask = 1<<10 - 1
	r := rand.New(rand.NewSource(31))
	for _, mode := range []exec.Mode{exec.ModeCompiled, exec.ModeTiered, exec.ModeDynamic} {
		eng, err := exec.New(ot, mode)
		if err != nil {
			b.Fatal(err)
		}
		eng = exec.Concurrent(eng)
		name := string(mode)
		if mode == exec.ModeDynamic {
			name = "dynamic-locked"
		}
		ws := make([]int32, len(set))
		for i, v := range set {
			ws[i] = exec.MustIntern(eng, v)
		}
		var as, bs [mask + 1]int32
		var labels [mask + 1]int
		for i := range as {
			as[i], bs[i] = ws[r.Intn(len(ws))], ws[r.Intn(len(ws))]
			labels[i] = r.Intn(len(ot.F.Fns))
		}
		ops := map[string]func(i int) int32{
			"Apply": func(i int) int32 { return eng.Apply(labels[i&mask], as[i&mask]) },
			"Lt": func(i int) int32 {
				if eng.Lt(as[i&mask], bs[i&mask]) {
					return 1
				}
				return 0
			},
			"Equiv": func(i int) int32 {
				if eng.Equiv(as[i&mask], bs[i&mask]) {
					return 1
				}
				return 0
			},
		}
		for _, opName := range []string{"Apply", "Lt", "Equiv"} {
			op := ops[opName]
			for i := 0; i <= mask; i++ {
				op(i) // fill every cell the timed loops will read
			}
			b.Run(name+"/"+opName+"/serial", func(b *testing.B) {
				var sum int32
				for i := 0; i < b.N; i++ {
					sum += op(i)
				}
				engineOpsSink = sum
			})
			b.Run(name+"/"+opName+"/parallel", func(b *testing.B) {
				b.RunParallel(func(pb *testing.PB) {
					var sum int32
					for i := 0; pb.Next(); i++ {
						sum += op(i)
					}
					atomic.AddInt32(&engineOpsSink, sum)
				})
			})
		}
	}
}
