package serve_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/ost"
	"metarouting/internal/rib"
	"metarouting/internal/scenario"
	"metarouting/internal/serve"
	"metarouting/internal/telemetry"
	"metarouting/internal/value"
)

// randExpr draws a random finite algebra expression (kept small so
// composite carriers stay well under the compile cap).
func randExpr(r *rand.Rand, depth int) string {
	bases := []string{"delay(8,2)", "delay(16,3)", "bw(4)", "bw(8)", "hops(8)", "lp(3)"}
	if depth <= 0 || r.Intn(3) == 0 {
		return bases[r.Intn(len(bases))]
	}
	switch r.Intn(4) {
	case 0:
		return fmt.Sprintf("lex(%s, %s)", randExpr(r, depth-1), randExpr(r, depth-1))
	case 1:
		return fmt.Sprintf("scoped(%s, %s)", randExpr(r, depth-1), randExpr(r, depth-1))
	case 2:
		return fmt.Sprintf("addtop(%s)", randExpr(r, depth-1))
	default:
		return fmt.Sprintf("left(%s)", randExpr(r, depth-1))
	}
}

// randTopo draws one of the three topology families of the acceptance
// criterion: GNP random, ring, grid.
func randTopo(r *rand.Rand, labels int) *graph.Graph {
	switch r.Intn(3) {
	case 0:
		return graph.Random(r, 5+r.Intn(8), 0.3, graph.UniformLabels(labels))
	case 1:
		return graph.Ring(r, 5+r.Intn(8), graph.UniformLabels(labels))
	default:
		return graph.Grid(r, 2+r.Intn(3), 2+r.Intn(3), graph.UniformLabels(labels))
	}
}

func randOrigin(r *rand.Rand, elems []value.V) value.V { return elems[r.Intn(len(elems))] }

// enabledSubgraph builds the "mutated graph" from scratch: a fresh
// graph.New over exactly the enabled arcs (relative order preserved).
func enabledSubgraph(t *testing.T, base *graph.Graph, disabled []bool) *graph.Graph {
	t.Helper()
	var arcs []graph.Arc
	for i, a := range base.Arcs {
		if !disabled[i] {
			arcs = append(arcs, a)
		}
	}
	g, err := graph.New(base.N, arcs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// sameTables compares the served snapshot against a freshly built RIB,
// entry by entry.
func sameTables(t *testing.T, label string, sn *serve.Snapshot, fresh *rib.RIB, dests []int, n int) {
	t.Helper()
	for _, d := range dests {
		for u := 0; u < n; u++ {
			got, want := sn.Lookup(u, d), fresh.Lookup(u, d)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: entry (%d→%d) differs:\n served: %+v\n  fresh: %+v", label, u, d, got, want)
			}
		}
	}
}

// TestServeDifferentialIncremental is the tentpole acceptance test:
// random finite algebras × GNP/ring/grid topologies, random origination
// sets, random link fail/recover sequences — after every event the
// served snapshot must be bit-identical to a fresh rib.BuildEngine on a
// from-scratch graph holding exactly the enabled arcs.
func TestServeDifferentialIncremental(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 25; trial++ {
		src := randExpr(r, 2)
		a, err := core.InferString(src)
		if err != nil {
			t.Fatalf("trial %d: %s: %v", trial, src, err)
		}
		if !a.OT.Finite() || a.OT.Carrier().Size() > 4000 {
			continue
		}
		g := randTopo(r, a.OT.F.Size())
		elems := a.OT.Carrier().Elems
		origins := map[int]value.V{0: randOrigin(r, elems)}
		for len(origins) < 1+r.Intn(3) {
			origins[r.Intn(g.N)] = randOrigin(r, elems)
		}
		vs := make([]value.V, 0, len(origins))
		for _, v := range origins {
			vs = append(vs, v)
		}
		// The server runs whatever backend exec.For picks; the reference
		// build runs an independent dynamic engine.
		srv, err := serve.NewServer(serve.Config{Engine: exec.For(a.OT, vs...), Graph: g, Origins: origins}, serve.WithWorkers(1+r.Intn(4)))
		if err != nil {
			t.Fatalf("trial %d: %s: %v", trial, src, err)
		}
		disabled := make([]bool, len(g.Arcs))
		label := fmt.Sprintf("trial %d: %s on %s", trial, src, g)
		check := func(step int) {
			fresh, _ := rib.BuildEngine(exec.NewDynamic(a.OT), enabledSubgraph(t, g, disabled), origins)
			sameTables(t, fmt.Sprintf("%s step %d", label, step), srv.Snapshot(), fresh, srv.Dests(), g.N)
		}
		check(-1)
		recomputedTotal := 0
		for step := 0; step < 10; step++ {
			arc := r.Intn(len(g.Arcs))
			fail := !disabled[arc]
			if r.Intn(4) == 0 {
				fail = !fail // sprinkle in no-op events
			}
			applied, recomputed, err := srv.ApplyEvent(context.Background(), arc, fail)
			if err != nil {
				t.Fatalf("%s step %d: %v", label, step, err)
			}
			if applied != (disabled[arc] != fail) {
				t.Fatalf("%s step %d: applied=%v but disabled[%d]=%v fail=%v", label, step, applied, arc, disabled[arc], fail)
			}
			disabled[arc] = fail
			recomputedTotal += recomputed
			check(step)
		}
		// The incremental path must actually skip work sometimes on
		// multi-destination setups; this is a sanity bound, not a perf
		// assertion (10 events × dests is the full-recompute ceiling).
		if max := 10 * len(origins); recomputedTotal > max {
			t.Fatalf("%s: recomputed %d columns > ceiling %d", label, recomputedTotal, max)
		}
		srv.Close()
	}
}

// TestServeConcurrentReaders: readers hammer Lookup/Forward lock-free
// while a writer applies a stream of events; old snapshots stay
// internally consistent. Run under -race in CI.
func TestServeConcurrentReaders(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	a, err := core.InferString("lex(delay(16,3), hops(8))")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Grid(r, 4, 4, graph.UniformLabels(a.OT.F.Size()))
	origins := map[int]value.V{0: value.Pair{A: 0, B: 0}, 15: value.Pair{A: 4, B: 1}}
	srv, err := serve.NewServer(serve.Config{Engine: exec.For(a.OT), Graph: g, Origins: origins}, serve.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	held := srv.Snapshot()
	heldPath, heldErr := held.Forward(5, 0)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				from, dest := rr.Intn(g.N), srv.Dests()[rr.Intn(2)]
				srv.Lookup(from, dest)
				srv.Forward(from, dest) //nolint:errcheck
				srv.ECMPWidth(from, dest)
			}
		}(int64(i))
	}
	for step := 0; step < 40; step++ {
		arc := r.Intn(len(g.Arcs))
		if _, _, err := srv.ApplyEvent(context.Background(), arc, step%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// The snapshot captured before the event stream is immutable: same
	// answer now as then.
	p2, e2 := held.Forward(5, 0)
	if (heldErr == nil) != (e2 == nil) || !reflect.DeepEqual(heldPath, p2) {
		t.Fatalf("held snapshot mutated: %v/%v then, %v/%v now", heldPath, heldErr, p2, e2)
	}
	if srv.Snapshot().Version < 2 {
		t.Fatal("events must have produced snapshot swaps")
	}
}

// TestServeCounters: the observability counters add up.
func TestServeCounters(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a, err := core.InferString("delay(32,4)")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Ring(r, 6, graph.UniformLabels(a.OT.F.Size()))
	srv, err := serve.NewServer(serve.Config{Engine: exec.For(a.OT), Graph: g, Origins: map[int]value.V{0: 0, 3: 0}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	st := srv.Stats()
	if st.SnapshotVersion != 1 || st.SnapshotSwaps != 1 || st.Destinations != 2 {
		t.Fatalf("fresh server stats wrong: %+v", st)
	}
	srv.Lookup(1, 0)
	srv.Forward(2, 3) //nolint:errcheck
	if got := srv.Stats().Queries; got != 2 {
		t.Fatalf("queries counter: got %d, want 2", got)
	}
	if _, _, err := srv.ApplyEvent(context.Background(), 0, true); err != nil {
		t.Fatal(err)
	}
	if applied, _, err := srv.ApplyEvent(context.Background(), 0, true); err != nil || applied {
		t.Fatalf("duplicate failure must be a no-op (applied=%v err=%v)", applied, err)
	}
	st = srv.Stats()
	if st.EventsApplied != 1 || st.SnapshotSwaps != 2 || st.DisabledArcs != 1 {
		t.Fatalf("post-event stats wrong: %+v", st)
	}
	if st.IncrementalRecomputes+st.FullRecomputes != 1 {
		t.Fatalf("recompute counters wrong: %+v", st)
	}
	if st.DestRecomputes+st.DestReuses != 2 {
		t.Fatalf("dest counters must cover both destinations: %+v", st)
	}
	if err := srv.Rebuild(context.Background()); err != nil {
		t.Fatal(err)
	}
	st = srv.Stats()
	if st.FullRecomputes < 1 || st.SnapshotVersion != 3 {
		t.Fatalf("rebuild stats wrong: %+v", st)
	}
	if _, _, err := srv.ApplyEvent(context.Background(), 99, true); err == nil {
		t.Fatal("out-of-range arc must error")
	}
	if _, _, err := srv.ApplyEventEndpoints(context.Background(), 0, 3, true); err == nil {
		t.Fatal("missing endpoint arc must error")
	}
}

// TestServeDeprecatedOptions: the PR-2 Options struct still works as an
// option value, so pre-v1 positional call sites compile and behave
// unchanged.
func TestServeDeprecatedOptions(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	a, err := core.InferString("delay(32,4)")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Ring(r, 6, graph.UniformLabels(a.OT.F.Size()))
	reg := telemetry.NewRegistry()
	srv, err := serve.NewServer(serve.Config{Engine: exec.For(a.OT), Graph: g, Origins: map[int]value.V{0: 0}},
		serve.WithWorkers(2), serve.WithRegistry(reg), serve.WithSlowQuery(time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if st := srv.Stats(); st.Workers != 2 {
		t.Fatalf("Options.Workers ignored: %+v", st)
	}
	if _, _, err := srv.ApplyEvent(context.Background(), 0, true); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mrserve_events_applied_total 1") {
		t.Fatal("Options.Telemetry must register the server's metrics")
	}
}

// TestServeFromScenario: a scenario file boots a server, its events
// replay in firing order, and the end state matches a fresh build on the
// final topology.
func TestServeFromScenario(t *testing.T) {
	src := `
expr   delay(64, 4)
nodes  3
arc    1 0 +1
arc    2 1 +1
arc    2 0 +4
dest   0
origin 0
event  50  fail 1 0
event  200 up   1 0
event  300 fail 2 0
`
	sc, err := scenario.Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(serve.Config{Engine: sc.Engine, Graph: sc.Graph,
		Origins: map[int]value.V{sc.Dest: sc.Origin}}, serve.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	applied, err := srv.Replay(context.Background(), sc.SortedEvents())
	if err != nil {
		t.Fatal(err)
	}
	if applied != 3 {
		t.Fatalf("want 3 applied events, got %d", applied)
	}
	// Final topology: arc 1→0 up again, arc 2→0 down.
	disabled := []bool{false, false, true}
	fresh, err := rib.BuildEngine(exec.NewDynamic(sc.Algebra.OT), enabledSubgraph(t, sc.Graph, disabled),
		map[int]value.V{0: 0})
	if err != nil {
		t.Fatal(err)
	}
	sameTables(t, "scenario", srv.Snapshot(), fresh, srv.Dests(), sc.Graph.N)
	// Node 2 lost its direct arc; it must route via 1 with weight 2.
	p, err := srv.Forward(2, 0)
	if err != nil || !reflect.DeepEqual(p, graph.Path{2, 1, 0}) {
		t.Fatalf("post-replay path wrong: %v (%v)", p, err)
	}
}

// TestNewServerRejectsLabelOutOfRange: an arc label the algebra has no
// function for used to index out of range inside a pool worker; the
// constructor now refuses the topology, naming the arc.
func TestNewServerRejectsLabelOutOfRange(t *testing.T) {
	a, err := core.InferString("hops(8)")
	if err != nil {
		t.Fatal(err)
	}
	origin := a.OT.DefaultOrigin()
	numFns := a.OT.F.Size()
	for _, tc := range []struct {
		name  string
		label int
		want  string // "" = boots
	}{
		{"last function", numFns - 1, ""},
		{"one past the function set", numFns, fmt.Sprintf("arc 1 (2→1) label %d out of range", numFns)},
		{"far past", 99, "arc 1 (2→1) label 99 out of range"},
	} {
		g := graph.MustNew(3, []graph.Arc{{From: 1, To: 0, Label: 0}, {From: 2, To: 1, Label: tc.label}})
		for _, mode := range []exec.Mode{exec.ModeCompiled, exec.ModeDynamic, exec.ModeTiered} {
			eng, err := exec.New(a.OT, mode, origin)
			if err != nil {
				t.Fatal(err)
			}
			s, err := serve.NewServer(serve.Config{Engine: eng, Graph: g, Origins: map[int]value.V{0: origin}})
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("%s/%s: %v", tc.name, mode, err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("%s/%s: err = %v, want one naming %q", tc.name, mode, err, tc.want)
			}
			if s != nil {
				s.Close()
			}
		}
	}
}

// TestNewServerRejectsSampledFunctionSet: scoped over unbounded carriers
// has no enumerable function set, so arc labels index nothing; the
// constructor must say so instead of letting a pool worker index an
// empty slice.
func TestNewServerRejectsSampledFunctionSet(t *testing.T) {
	a, err := core.InferString("scoped(hops(0), delay(0,4))")
	if err != nil {
		t.Fatal(err)
	}
	if a.OT.F.Finite() {
		t.Fatal("fixture algebra enumerates its functions; pick another")
	}
	origin, err := a.OT.CheckedDefaultOrigin()
	if err != nil {
		t.Fatal(err)
	}
	g := graph.MustNew(3, []graph.Arc{{From: 1, To: 0, Label: 0}, {From: 2, To: 1, Label: 1}})
	for _, mode := range []exec.Mode{exec.ModeDynamic, exec.ModeTiered} {
		eng, err := exec.New(a.OT, mode, origin)
		if err != nil {
			t.Fatal(err)
		}
		s, err := serve.NewServer(serve.Config{Engine: eng, Graph: g, Origins: map[int]value.V{0: origin}})
		if !errors.Is(err, graph.ErrNotEnumerable) {
			t.Errorf("%s: err = %v, want graph.ErrNotEnumerable", mode, err)
		}
		if s != nil {
			s.Close()
		}
	}
}

// TestNewServerRejectsMisfitOrigin: an origin that is not a weight of
// the algebra (here an int where the lex product wants a pair) used to
// pass construction on the interning backends — their Intern accepts
// anything — and then kill a pool worker inside the arc function. Every
// entry point must refuse it up front, naming the destination, on every
// backend.
func TestNewServerRejectsMisfitOrigin(t *testing.T) {
	entries := []struct {
		name  string
		build func(eng exec.Algebra, g *graph.Graph, origin value.V) (*serve.Server, error)
	}{
		{"Config.Origins", func(eng exec.Algebra, g *graph.Graph, origin value.V) (*serve.Server, error) {
			return serve.NewServer(serve.Config{Engine: eng, Graph: g, Origins: map[int]value.V{2: origin}})
		}},
		{"WithAnnouncements", func(eng exec.Algebra, g *graph.Graph, origin value.V) (*serve.Server, error) {
			p, err := rib.ParsePrefix("10.0.0.0/8")
			if err != nil {
				return nil, err
			}
			return serve.NewServer(serve.Config{Engine: eng, Graph: g},
				serve.WithAnnouncements([]rib.PrefixOrigin{{Prefix: p, Node: 2, Origin: origin}}))
		}},
	}
	for _, tc := range []struct {
		expr  string
		modes []exec.Mode
	}{
		{"lex(delay(8,2), hops(4))", []exec.Mode{exec.ModeCompiled, exec.ModeTiered, exec.ModeDynamic}},
		// The issue's reproduction: past AutoLimit, so auto picks tiered.
		{"lex(delay(255,3), hops(32))", []exec.Mode{exec.ModeAuto}},
		// Infinite carrier: no membership test, the probe must catch it.
		{"lex(delay(0,2), hops(4))", []exec.Mode{exec.ModeTiered, exec.ModeDynamic}},
	} {
		a, err := core.InferString(tc.expr)
		if err != nil {
			t.Fatal(err)
		}
		g := graph.MustNew(3, []graph.Arc{{From: 1, To: 0, Label: 0}, {From: 0, To: 2, Label: 0}})
		for _, mode := range tc.modes {
			for _, entry := range entries {
				eng, err := exec.New(a.OT, mode)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s/%s/%s", tc.expr, mode, entry.name)
				if s, err := entry.build(eng, g, 7); err == nil {
					s.Close()
					t.Errorf("%s: misfit origin 7 accepted", name)
				} else if !strings.Contains(err.Error(), "destination 2") {
					t.Errorf("%s: err = %v, want one naming destination 2", name, err)
				}
				s, err := entry.build(eng, g, value.Pair{A: 0, B: 0})
				if err != nil {
					t.Errorf("%s: fitting origin (0,0) refused: %v", name, err)
					continue
				}
				s.Close()
			}
		}
	}
}

// TestEngineTierGauges: /v1/stats and /v1/metrics say how many weights
// the engine interned and how many its memo tables cover, per backend:
// interned past hot capacity is the one signal an operator has that an
// algebra runs interpreted under a mutex (always so on dynamic).
// /v1/stats also names the plan's scratch solver and warm start, which
// the inferred set the engine carries decides on every backend: strict I
// for the lex products, M for the policy products, and the dense warm
// start alone for the rank-less tags policy. An engine over a bare copy
// of the transform, which no inference ran on, sweeps and has no warm
// start, even where its compiled tables would prove M or I.
func TestEngineTierGauges(t *testing.T) {
	for _, tc := range []struct {
		expr     string
		name     exec.Mode
		interned bool
		hot      int
		bare     bool
		solver   string
		warm     string
	}{
		{"lex(delay(16,3), hops(8))", exec.ModeCompiled, false, 0, true, "sweep", "none"},
		{"lex(delay(16,3), hops(8))", exec.ModeCompiled, false, 0, false, "best-first (I)", "clean tree"},
		{"lex(delay(16,3), hops(8))", exec.ModeDynamic, true, 0, true, "sweep", "none"},
		{"lex(delay(16,3), hops(8))", exec.ModeTiered, true, 256, true, "sweep", "none"},
		{"lex(delay(16,3), hops(8))", exec.ModeDynamic, true, 0, false, "best-first (I)", "clean tree"},
		{"lex(delay(255,3), hops(32))", exec.ModeTiered, true, 256, false, "best-first (I)", "clean tree"},
		{"scoped(hops(0), delay(64,4))", exec.ModeTiered, true, 256, false, "best-first (M)", "derivation log (M)"},
		{"scoped(bw(4), lex(tags(2), tags(2)))", exec.ModeTiered, true, 256, false, "sweep", "dense"},
		{"scoped(bw(4), delay(64,4))", exec.ModeCompiled, false, 0, false, "best-first (M)", "derivation log (M)"},
	} {
		a, err := core.InferString(tc.expr)
		if err != nil {
			t.Fatal(err)
		}
		g := graph.Ring(rand.New(rand.NewSource(4)), 12, graph.UniformLabels(a.OT.F.Size()))
		origin := a.OT.DefaultOrigin()
		ot := a.OT
		if tc.bare {
			ot = ost.New(ot.Name, ot.Ord, ot.F)
		}
		eng, err := exec.New(ot, tc.name, origin)
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		srv, err := serve.NewServer(serve.Config{Engine: eng, Graph: g, Origins: map[int]value.V{0: origin}}, serve.WithRegistry(reg))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		st := srv.Stats()
		if (st.EngineInterned > 0) != tc.interned || st.EngineHotCapacity != tc.hot {
			t.Errorf("%s: interned %d, hot capacity %d; want interned>0 = %v, hot %d",
				tc.name, st.EngineInterned, st.EngineHotCapacity, tc.interned, tc.hot)
		}
		h := serve.NewHandler(srv, reg)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
		var got map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("%s: /v1/stats: %v", tc.name, err)
		}
		if got["engine_interned"] != float64(st.EngineInterned) || got["engine_hot_capacity"] != float64(tc.hot) {
			t.Errorf("%s: /v1/stats engine_interned=%v engine_hot_capacity=%v, Stats() says %d/%d",
				tc.name, got["engine_interned"], got["engine_hot_capacity"], st.EngineInterned, tc.hot)
		}
		if st.ScratchSolver != tc.solver || got["scratch_solver"] != tc.solver {
			t.Errorf("%s: scratch solver %q (/v1/stats %v), want %q", tc.name, st.ScratchSolver, got["scratch_solver"], tc.solver)
		}
		if st.WarmStart != tc.warm || got["warm_start"] != tc.warm {
			t.Errorf("%s %s: warm start %q (/v1/stats %v), want %q", tc.expr, tc.name, st.WarmStart, got["warm_start"], tc.warm)
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
		for _, line := range []string{
			fmt.Sprintf("mrserve_engine_interned %d\n", st.EngineInterned),
			fmt.Sprintf("mrserve_engine_hot_capacity %d\n", tc.hot),
		} {
			if !strings.Contains(rec.Body.String(), line) {
				t.Errorf("%s: /v1/metrics lacks %q", tc.name, line)
			}
		}
		srv.Close()
	}
}
