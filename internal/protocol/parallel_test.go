package protocol_test

// Differential determinism suite (satellite): the parallel engine must
// produce an Outcome bit-identical to the serial oracle — routes,
// traces, convergence counters, rounds — for every seed, across random
// algebras × topologies × both execution backends × shard counts. CI
// runs this under -race, which also proves the window sharding never
// lets two workers touch the same node state.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/protocol"
	"metarouting/internal/telemetry"
)

// diffTopos builds the differential topology suite.
func diffTopos(r *rand.Rand, labels int) map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"gnp":       graph.Random(r, 16, 0.25, graph.UniformLabels(labels)),
		"ring":      graph.Ring(r, 12, graph.UniformLabels(labels)),
		"grid":      graph.Grid(r, 3, 4, graph.UniformLabels(labels)),
		"scalefree": graph.ScaleFree(r, 20, 2, graph.UniformLabels(labels)),
	}
}

func TestParallelMatchesSerialOracle(t *testing.T) {
	exprs := []string{"delay(32,3)", "hops(16)", "lex(delay(16,3), hops(8))"}
	for _, expr := range exprs {
		a, err := core.InferString(expr)
		if err != nil {
			t.Fatal(err)
		}
		topoRand := rand.New(rand.NewSource(99))
		for topoName, g := range diffTopos(topoRand, a.OT.F.Size()) {
			// Staggered failures and a revival exercise the barrier's
			// event-firing path.
			events := []protocol.LinkEvent{
				{At: 30, Arc: 0, Fail: true},
				{At: 70, Arc: len(g.Arcs) / 2, Fail: true},
				{At: 120, Arc: 0, Fail: false},
			}
			for _, mode := range []exec.Mode{exec.ModeDynamic, exec.ModeCompiled, exec.ModeTiered} {
				eng, err := exec.New(a.OT, mode, a.OT.DefaultOrigin())
				if err != nil {
					t.Fatal(err)
				}
				for _, seed := range []int64{1, 42} {
					for _, shards := range []int{1, 3, 8} {
						name := fmt.Sprintf("%s/%s/%s/seed=%d/shards=%d", expr, topoName, mode, seed, shards)
						t.Run(name, func(t *testing.T) {
							cfg := protocol.Config{
								Dest: 0, Origin: a.OT.DefaultOrigin(), MaxDelay: 3,
								PerNodeDelays: true, Seed: seed, Events: events,
							}
							serialTr := telemetry.NewRingTracer(1 << 15)
							scfg := cfg
							scfg.Trace = serialTr
							want := protocol.RunEngine(eng, g, scfg)

							parTr := telemetry.NewRingTracer(1 << 15)
							pcfg := cfg
							pcfg.Trace = parTr
							got, err := protocol.RunParallel(context.Background(), eng, g, pcfg, shards)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(want, got) {
								t.Fatalf("parallel outcome diverges from serial oracle:\nserial: %+v\nparallel: %+v", want, got)
							}
							if !reflect.DeepEqual(serialTr.Events(), parTr.Events()) {
								se, pe := serialTr.Events(), parTr.Events()
								for i := range se {
									if i >= len(pe) || !reflect.DeepEqual(se[i], pe[i]) {
										t.Fatalf("trace diverges at event %d:\nserial: %+v\nparallel: %+v", i, se[i], pe[i])
									}
								}
								t.Fatalf("trace length diverges: serial %d, parallel %d", len(se), len(pe))
							}
							if !want.Converged {
								t.Fatal("differential scenario should converge (increasing algebra)")
							}
							if want.Convergence.Rounds <= 0 {
								t.Fatal("rounds counter never advanced")
							}
						})
					}
				}
			}
		}
	}
}

// TestParallelBudgetCutMatchesSerial: when the step budget expires
// mid-window, the parallel engine must replay the serial engine's exact
// cut — same Steps, same partial routing state, Converged=false.
func TestParallelBudgetCutMatchesSerial(t *testing.T) {
	a, err := core.InferString("delay(32,3)")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Random(rand.New(rand.NewSource(5)), 14, 0.3, graph.UniformLabels(a.OT.F.Size()))
	eng := exec.For(a.OT, a.OT.DefaultOrigin())
	for _, budget := range []int{1, 7, 23, 61} {
		cfg := protocol.Config{
			Dest: 0, Origin: a.OT.DefaultOrigin(), MaxDelay: 2,
			PerNodeDelays: true, Seed: 9, MaxSteps: budget,
		}
		want := protocol.RunEngine(eng, g, cfg)
		got, err := protocol.RunParallel(context.Background(), eng, g, cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("budget=%d: cut diverges:\nserial: %+v\nparallel: %+v", budget, want, got)
		}
		if want.Converged {
			t.Fatalf("budget=%d should truncate the run", budget)
		}
	}
}

// TestParallelMaxRoundsCutMatchesSerial: the round cutoff must stop both
// engines at the identical point.
func TestParallelMaxRoundsCutMatchesSerial(t *testing.T) {
	a, err := core.InferString("delay(32,3)")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Ring(rand.New(rand.NewSource(3)), 10, graph.UniformLabels(a.OT.F.Size()))
	eng := exec.For(a.OT, a.OT.DefaultOrigin())
	for _, maxRounds := range []int{1, 2, 3} {
		cfg := protocol.Config{
			Dest: 0, Origin: a.OT.DefaultOrigin(), MaxDelay: 3,
			PerNodeDelays: true, Seed: 4, MaxRounds: maxRounds,
		}
		want := protocol.RunEngine(eng, g, cfg)
		got, err := protocol.RunParallel(context.Background(), eng, g, cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("maxRounds=%d: diverges:\nserial: %+v\nparallel: %+v", maxRounds, want, got)
		}
		if want.Convergence.Rounds > maxRounds {
			t.Fatalf("maxRounds=%d: serial ran %d rounds", maxRounds, want.Convergence.Rounds)
		}
	}
}

// TestPerNodeDelaysSerialDeterminism: the per-node delay mode is itself
// a pure function of (Seed, Config) on the serial engine — the property
// the parallel equivalence builds on.
func TestPerNodeDelaysSerialDeterminism(t *testing.T) {
	a, err := core.InferString("lex(delay(16,3), hops(8))")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Random(rand.New(rand.NewSource(77)), 12, 0.3, graph.UniformLabels(a.OT.F.Size()))
	eng := exec.For(a.OT, a.OT.DefaultOrigin())
	cfg := protocol.Config{Dest: 0, Origin: a.OT.DefaultOrigin(), MaxDelay: 3, PerNodeDelays: true, Seed: 11}
	outA := protocol.RunEngine(eng, g, cfg)
	outB := protocol.RunEngine(eng, g, cfg)
	if !reflect.DeepEqual(outA, outB) {
		t.Fatal("per-node delay mode must be deterministic")
	}
	cfg.Seed = 12
	outC := protocol.RunEngine(eng, g, cfg)
	if reflect.DeepEqual(outA, outC) && outA.Steps == outC.Steps {
		t.Log("warning: distinct seeds produced identical runs (possible but unlikely)")
	}
}

// TestParallelRequiresPerNodeDelays: the shared-Rand stream is drawn in
// global processing order, so the parallel engine must reject it rather
// than silently break determinism.
func TestParallelRequiresPerNodeDelays(t *testing.T) {
	a, err := core.InferString("delay(8,2)")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.MustNew(2, []graph.Arc{{From: 1, To: 0, Label: 0}})
	eng := exec.For(a.OT, a.OT.DefaultOrigin())
	_, err = protocol.RunParallel(context.Background(), eng, g,
		protocol.Config{Dest: 0, Origin: a.OT.DefaultOrigin(), Rand: rand.New(rand.NewSource(1))}, 2)
	if err == nil {
		t.Fatal("shared-Rand config must be rejected")
	}
}

// TestParallelCancellation: a context canceled mid-run abandons the
// simulation with ctx.Err() and leaves the pool reusable — the parallel
// sim's cancellation path over sched.Map.
func TestParallelCancellation(t *testing.T) {
	a, err := core.InferString("delay(64,3)")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Random(rand.New(rand.NewSource(8)), 40, 0.2, graph.UniformLabels(a.OT.F.Size()))
	eng := exec.For(a.OT, a.OT.DefaultOrigin())
	p := protocol.NewParallel(4)
	defer p.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := protocol.Config{Dest: 0, Origin: a.OT.DefaultOrigin(), MaxDelay: 3, PerNodeDelays: true, Seed: 2}
	if _, err := p.Run(ctx, eng, g, cfg); err != context.Canceled {
		t.Fatalf("pre-canceled context: want context.Canceled, got %v", err)
	}

	// The pool must be reusable after a cancellation: a fresh run on the
	// same Parallel matches the serial oracle.
	want := protocol.RunEngine(eng, g, cfg)
	got, err := p.Run(context.Background(), eng, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("post-cancel run diverges from serial oracle")
	}
}

// TestParallelConcurrentRuns: one Parallel engine hosts concurrent Run
// calls (the corpus runner's shape) — each must still match its serial
// oracle. Exercises concurrent sched.Map use on one pool under -race.
func TestParallelConcurrentRuns(t *testing.T) {
	a, err := core.InferString("delay(32,3)")
	if err != nil {
		t.Fatal(err)
	}
	eng := exec.For(a.OT, a.OT.DefaultOrigin())
	p := protocol.NewParallel(3)
	defer p.Close()

	type job struct {
		g    *graph.Graph
		cfg  protocol.Config
		want *protocol.Outcome
	}
	r := rand.New(rand.NewSource(21))
	jobs := make([]job, 6)
	for i := range jobs {
		g := graph.Random(r, 14, 0.3, graph.UniformLabels(a.OT.F.Size()))
		cfg := protocol.Config{
			Dest: 0, Origin: a.OT.DefaultOrigin(), MaxDelay: 2,
			PerNodeDelays: true, Seed: int64(i + 1),
			Events: []protocol.LinkEvent{{At: 25, Arc: i % len(g.Arcs), Fail: true}},
		}
		jobs[i] = job{g: g, cfg: cfg, want: protocol.RunEngine(eng, g, cfg)}
	}
	errs := make(chan error, len(jobs))
	for i := range jobs {
		go func(j job) {
			got, err := p.Run(context.Background(), eng, j.g, j.cfg)
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(j.want, got) {
				errs <- fmt.Errorf("concurrent run diverges from serial oracle")
				return
			}
			errs <- nil
		}(jobs[i])
	}
	for range jobs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestParallelDistanceVector: the DV mode (no paths, no loop rejection)
// must also hold the serial equivalence — it shares every code path
// except route construction.
func TestParallelDistanceVector(t *testing.T) {
	a, err := core.InferString("delay(16,1)")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.MustNew(3, []graph.Arc{
		{From: 1, To: 0, Label: 0},
		{From: 2, To: 1, Label: 0},
		{From: 1, To: 2, Label: 0},
	})
	eng := exec.For(a.OT, a.OT.DefaultOrigin())
	cfg := protocol.Config{
		Dest: 0, Origin: a.OT.DefaultOrigin(), MaxDelay: 1,
		PerNodeDelays: true, Seed: 13, DistanceVector: true,
		Events: []protocol.LinkEvent{{At: 50, Arc: 0, Fail: true}},
	}
	want := protocol.RunEngine(eng, g, cfg)
	got, err := protocol.RunParallel(context.Background(), eng, g, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("DV mode diverges:\nserial: %+v\nparallel: %+v", want, got)
	}
}
