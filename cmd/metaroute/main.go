// Command metaroute is the metarouting workbench: it parses a routing
// algebra expression, derives its properties (the "type check"), and
// optionally solves a topology with the algorithm the properties license.
//
// Usage:
//
//	metaroute -expr 'scoped(bw(4), delay(64,4))'
//	metaroute -expr 'delay(255,3)' -random 12 -p 0.3 -seed 7 -solve
//	metaroute -expr 'gadget' -simulate -seed 1
//	metaroute -list
//
// Routing work runs on the unified execution layer (internal/exec), on
// the backend exec.For picks from the algebra: dense tables for finite
// algebras up to exec.AutoLimit, hot-sub-carrier memo tables (tiered)
// for the rest. The last line of a solve or scenario names it.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/prop"
	"metarouting/internal/protocol"
	"metarouting/internal/router"
	"metarouting/internal/scenario"
	"metarouting/internal/solve"
	"metarouting/internal/value"
)

func main() {
	var (
		exprSrc  = flag.String("expr", "", "metarouting expression, e.g. 'scoped(bw(4), delay(64,4))'")
		list     = flag.Bool("list", false, "list base algebras and operators")
		randomN  = flag.Int("random", 0, "solve on a random graph with this many nodes")
		topoFile = flag.String("topo", "", "solve on a topology file (see internal/graph topology format)")
		scenFile = flag.String("scenario", "", "run a scenario file (expr + topology + events; implies -simulate)")
		p        = flag.Float64("p", 0.3, "random graph arc probability")
		seed     = flag.Int64("seed", 1, "random seed")
		doSolve  = flag.Bool("solve", false, "run Dijkstra/Bellman-Ford and verify optimality")
		simulate = flag.Bool("simulate", false, "run the asynchronous path-vector simulator")
		samples  = flag.Int("samples", 512, "sampled checks on infinite carriers")
		explain  = flag.String("explain", "", "explain a property (M, N, C, ND, I, SI, T) causally")
		jsonOut  = flag.Bool("json", false, "emit the property report as JSON instead of text")
	)
	flag.Parse()

	if *list {
		fmt.Println("base algebras:")
		for _, n := range core.BaseNames() {
			spec := core.Registry[n]
			fmt.Printf("  %-24s %s\n", spec.Usage, spec.Doc)
		}
		fmt.Println("operators: lex(a,b,…) scoped(a,b) delta(a,b) union(a,b) plus(a,b) left(a) right(a) addtop(a)")
		return
	}
	if *scenFile != "" {
		runScenario(*scenFile, *seed)
		return
	}
	if *exprSrc == "" {
		fmt.Fprintln(os.Stderr, "metaroute: -expr required (or -list / -scenario)")
		flag.Usage()
		os.Exit(2)
	}

	r := rand.New(rand.NewSource(*seed))
	e, err := core.Parse(*exprSrc)
	if err != nil {
		fatal(err)
	}
	a, err := core.InferWith(e, core.Options{Fallback: true, Samples: *samples, Rand: r})
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		data, err := a.MarshalReport()
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
		return
	}
	fmt.Println(a.Report())
	fmt.Println("verdict:", a.Verdict())
	if lic := router.Licensed(a); len(lic) > 0 {
		fmt.Print("licensed algorithms:")
		for _, algo := range lic {
			fmt.Printf(" %s", algo)
		}
		fmt.Println()
	} else {
		fmt.Println("licensed algorithms: none — no optimality or convergence guarantee")
	}
	if *explain != "" {
		fmt.Println()
		fmt.Print(a.Explain(prop.ID(*explain)))
	}

	if !*doSolve && !*simulate {
		return
	}
	// Both topology sources label arcs with function-set indices.
	if !a.OT.F.Finite() {
		fatal(graph.ErrNotEnumerable)
	}
	var g *graph.Graph
	if *topoFile != "" {
		g, err = loadTopology(*topoFile, a)
		if err != nil {
			fatal(err)
		}
	} else {
		n := *randomN
		if n <= 0 {
			n = 10
		}
		g = graph.Random(r, n, *p, graph.UniformLabels(a.OT.F.Size()))
	}
	origin, err := a.OT.CheckedDefaultOrigin()
	if err != nil {
		fatal(err)
	}
	eng := exec.For(a.OT, origin)
	if *doSolve {
		plan := solve.NewPlan(eng)
		fmt.Println("plan:", plan)
		if note := plan.ForwardingNote(); note != "" {
			fmt.Println("note:", note)
		}
	}
	fmt.Printf("\ntopology: %s, destination 0, origin %s\n", g, value.Format(origin))

	if *doSolve {
		if a.SupportsDijkstra() {
			res := solve.DijkstraEngine(eng, g, 0, origin)
			report("dijkstra", a, g, origin, res)
		} else {
			fmt.Println("dijkstra: not licensed (needs M ∧ ND ∧ total order) — skipping")
		}
		res := solve.BellmanFordEngine(eng, g, 0, origin, 6*g.N)
		report("bellman-ford", a, g, origin, res)
	}
	if *simulate {
		out := protocol.RunEngine(eng, g, protocol.Config{
			Dest: 0, Origin: origin, MaxDelay: 3, Rand: r, MaxSteps: 400 * g.N * g.N,
		})
		fmt.Printf("\nasync path-vector: %s", out.Describe())
	}
	printEngine(eng)
}

func report(name string, a *core.Algebra, g *graph.Graph, origin value.V, res *solve.Result) {
	fmt.Printf("\n%s: converged=%v rounds=%d loop-free=%v\n", name, res.Converged, res.Rounds, res.LoopFree())
	if g.N <= 16 {
		for u := 0; u < g.N; u++ {
			if !res.Routed[u] {
				fmt.Printf("  node %2d: no route\n", u)
				continue
			}
			path, _ := res.Route(u)
			fmt.Printf("  node %2d: weight %-12s path %v\n", u, value.Format(res.Weights[u]), path)
		}
	}
	if g.N <= 10 {
		if ok, why := solve.VerifyGlobal(a.OT, g, 0, origin, res); ok {
			fmt.Println("  globally optimal ✓ (matches brute force)")
		} else {
			fmt.Println("  not globally optimal:", why)
		}
		if res.Converged {
			if ok, why := solve.VerifyLocal(a.OT, g, 0, origin, res); ok {
				fmt.Println("  locally optimal (stable) ✓")
			} else {
				fmt.Println("  not locally optimal:", why)
			}
		}
	}
}

// loadTopology reads a topology file, resolving labels against the
// algebra's function names (or integer indices) and rejecting labels the
// function set does not have.
func loadTopology(path string, a *core.Algebra) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := graph.ParseTopology(f, func(label string) (int, bool) {
		for i, fn := range a.OT.F.Fns {
			if fn.Name == label {
				return i, true
			}
		}
		return 0, false
	})
	if err != nil {
		return nil, err
	}
	if err := g.CheckLabels(a.OT.F.Size()); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// runScenario loads and simulates a scenario file, printing the algebra
// verdict and the final routing state.
func runScenario(path string, seed int64) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	s, err := scenario.Parse(f)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("scenario: %s on %s, dest %d, origin %s, %d events"+"\n",
		s.Expr, s.Graph, s.Dest, value.Format(s.Origin), len(s.Events))
	fmt.Println("verdict:", s.Algebra.Verdict())
	if note := solve.NewPlan(s.Engine).ForwardingNote(); note != "" {
		fmt.Println("note:", note)
	}
	out := s.Run(seed, 0)
	fmt.Printf("\nasync path-vector: %s", out.Describe())
	printEngine(s.Engine)
}

// printEngine reports the backend that ran and, for the interning
// backends, how many weights the run interned against how many the
// engine's memo tables cover — past that capacity every operation is
// interpreted. It prints last so the counts describe the work done.
func printEngine(eng exec.Algebra) {
	if interned, hot := exec.Tiers(eng); interned > 0 {
		fmt.Printf("engine: %s (%d weights interned, hot capacity %d)\n", eng.Mode(), interned, hot)
		return
	}
	fmt.Printf("engine: %s\n", eng.Mode())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "metaroute:", err)
	if strings.Contains(err.Error(), "unknown base") {
		fmt.Fprintln(os.Stderr, "hint: run metaroute -list")
	}
	os.Exit(1)
}
