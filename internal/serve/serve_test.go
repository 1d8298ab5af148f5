package serve_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
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
		srv, err := serve.New(exec.For(a.OT, vs...), g, origins, serve.WithWorkers(1+r.Intn(4)))
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
	srv, err := serve.New(exec.For(a.OT), g, origins, serve.WithWorkers(4))
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
	srv, err := serve.New(exec.For(a.OT), g, map[int]value.V{0: 0, 3: 0})
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
	srv, err := serve.New(exec.For(a.OT), g, map[int]value.V{0: 0},
		serve.Options{Workers: 2, Telemetry: reg, SlowQueryNS: 1})
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
	srv, err := serve.NewFromScenario(sc, serve.WithWorkers(2))
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
