package serve_test

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/serve"
	"metarouting/internal/telemetry"
	"metarouting/internal/value"
)

// benchFixture is the standard bench topology: a 64-node GNP graph over
// lex(delay, bw) with 8 originated destinations.
func benchFixture(b *testing.B) serve.Config {
	b.Helper()
	a, err := core.InferString("lex(delay(32,3), bw(8))")
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	g := graph.Random(r, 64, 0.08, graph.UniformLabels(a.OT.F.Size()))
	origins := make(map[int]value.V)
	for d := 0; d < 8; d++ {
		origins[d*8] = value.Pair{A: 0, B: 8}
	}
	return serve.Config{Engine: exec.For(a.OT, value.Pair{A: 0, B: 8}), Graph: g, Origins: origins}
}

// newBenchServer builds a server on c, closed when the benchmark ends.
func newBenchServer(b *testing.B, c serve.Config, opts ...serve.Option) *serve.Server {
	b.Helper()
	srv, err := serve.NewServer(c, opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	return srv
}

// benchServer builds a server on the standard bench fixture.
func benchServer(b *testing.B, workers int) (*serve.Server, *graph.Graph) {
	b.Helper()
	c := benchFixture(b)
	return newBenchServer(b, c, serve.WithWorkers(workers)), c.Graph
}

// BenchmarkServeLookup: the lock-free read path under parallel load.
func BenchmarkServeLookup(b *testing.B) {
	srv, g := benchServer(b, 4)
	dests := srv.Dests()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := rand.New(rand.NewSource(2))
		for pb.Next() {
			srv.Lookup(r.Intn(g.N), dests[r.Intn(len(dests))])
		}
	})
}

// BenchmarkServeForward: full path resolution per query.
func BenchmarkServeForward(b *testing.B) {
	srv, g := benchServer(b, 4)
	dests := srv.Dests()
	r := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.Forward(r.Intn(g.N), dests[r.Intn(len(dests))]) //nolint:errcheck
	}
}

// BenchmarkForwardTelemetry is what the telemetry subsystem costs on the
// query path. Two servers on one engine, graph and origination set, one
// bare and one with a registry, answer the same seeded Forward sequence
// in rounds, and the side that runs first alternates from round to round
// so clock drift and cache warmth cancel. One op is one query answered
// by each server: bare-ns/op and instrumented-ns/op are each side's cost
// per query, overhead-% the instrumented side's excess over the bare.
// The serial leg runs the rounds on one goroutine; the parallel leg runs
// them under RunParallel, GOMAXPROCS goroutines at once, each timing its
// own rounds, so both servers' shared state is contended as it is under
// concurrent readers.
func BenchmarkForwardTelemetry(b *testing.B) {
	c := benchFixture(b)
	bare := newBenchServer(b, c, serve.WithWorkers(4))
	inst := newBenchServer(b, c, serve.WithWorkers(4), serve.WithRegistry(telemetry.NewRegistry()))
	const round = 4096
	r := rand.New(rand.NewSource(5))
	dests := bare.Dests()
	froms, tos := make([]int, round), make([]int, round)
	for i := range froms {
		froms[i], tos[i] = r.Intn(c.Graph.N), dests[r.Intn(len(dests))]
	}
	batch := func(s *serve.Server, n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			s.Forward(froms[i], tos[i]) //nolint:errcheck — a missing route is a valid answer
		}
		return time.Since(t0)
	}
	// pair answers one round of n queries on each side, the first side
	// alternating with k.
	pair := func(k, n int) (bareT, instT time.Duration) {
		if k%2 == 0 {
			bareT = batch(bare, n)
			return bareT, batch(inst, n)
		}
		instT = batch(inst, n)
		return batch(bare, n), instT
	}
	report := func(b *testing.B, bareT, instT time.Duration) {
		bareNS, instNS := float64(bareT.Nanoseconds())/float64(b.N), float64(instT.Nanoseconds())/float64(b.N)
		b.ReportMetric(bareNS, "bare-ns/op")
		b.ReportMetric(instNS, "instrumented-ns/op")
		if bareNS > 0 {
			b.ReportMetric((instNS-bareNS)/bareNS*100, "overhead-%")
		}
	}
	// Warm both sides, then collect the garbage so that no collector
	// pause lands inside one side's rounds.
	batch(bare, round)
	batch(inst, round)
	runtime.GC()
	b.Run("serial", func(b *testing.B) {
		var bareT, instT time.Duration
		for done, k := 0, 0; done < b.N; k++ {
			n := min(round, b.N-done)
			bt, it := pair(k, n)
			bareT, instT, done = bareT+bt, instT+it, done+n
		}
		report(b, bareT, instT)
	})
	b.Run("parallel", func(b *testing.B) {
		var mu sync.Mutex
		var bareT, instT time.Duration
		b.RunParallel(func(pb *testing.PB) {
			var myBare, myInst time.Duration
			for k := 0; ; k++ {
				n := 0
				for n < round && pb.Next() {
					n++
				}
				if n == 0 {
					break
				}
				bt, it := pair(k, n)
				myBare, myInst = myBare+bt, myInst+it
			}
			mu.Lock()
			bareT, instT = bareT+myBare, instT+myInst
			mu.Unlock()
		})
		report(b, bareT, instT)
	})
}

// BenchmarkServeEventIncremental: one link toggle handled by the
// incremental reconvergence path (recompute invalidated destinations
// only, swap snapshot).
func BenchmarkServeEventIncremental(b *testing.B) {
	srv, g := benchServer(b, 4)
	r := rand.New(rand.NewSource(4))
	down := make([]bool, len(g.Arcs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arc := r.Intn(len(g.Arcs))
		if _, _, err := srv.ApplyEvent(context.Background(), arc, !down[arc]); err != nil {
			b.Fatal(err)
		}
		down[arc] = !down[arc]
	}
}

// BenchmarkServeRebuildFull: the from-scratch baseline the incremental
// path is measured against.
func BenchmarkServeRebuildFull(b *testing.B) {
	srv, _ := benchServer(b, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := srv.Rebuild(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLeaderSwap is the leader's whole swap — coalesce, view,
// rebuild, mask, publish, encode — called in-process at storm-sparse-100k's
// shape: lex(delay(32,3), hops(8)) compiled, the 100 000-node scale-free
// graph that workload draws on seed 1 (399 908 arcs), eight destinations,
// the registry and a replication sink on. One op fails a 4-arc storm and
// restores it: two swaps. B/op is what the pair allocates; the failure
// mask's share of it is O(toggles), so nothing in it grows with the arcs.
// pages-cloned/swap counts, from Server.Stats().PagesCloned, the pages
// whose routes changed; they and their columns' page tables are most of
// the rest. relaxations/swap counts the arc candidates the swap's solves
// evaluated (solve.Metrics.Relaxations) — under the strict-I push drain,
// one per arc into a moved node plus the out-rows of the nodes it pulls.
func BenchmarkLeaderSwap(b *testing.B) {
	a, err := core.InferString("lex(delay(32,3), hops(8))")
	if err != nil {
		b.Fatal(err)
	}
	eng, err := exec.Compile(a.OT)
	if err != nil {
		b.Fatal(err)
	}
	const n = 100_000
	g := graph.ScaleFree(rand.New(rand.NewSource(1_000_004)), n, 2, graph.UniformLabels(a.OT.F.Size()))
	origins := make(map[int]value.V, 8)
	for i := 0; i < 8; i++ {
		origins[i*n/8] = a.OT.DefaultOrigin()
	}
	srv, err := serve.NewServer(serve.Config{Engine: eng, Graph: g, Origins: origins},
		serve.WithRegistry(telemetry.NewRegistry()),
		serve.WithReplication(&captureSink{discard: true}))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	perm := rand.New(rand.NewSource(2)).Perm(len(g.Arcs))
	storm := func(i int, fail bool) []serve.ArcEvent {
		evs := make([]serve.ArcEvent, 4)
		for j := range evs {
			evs[j] = serve.ArcEvent{Arc: perm[(4*i+j)%len(perm)], Fail: fail}
		}
		return evs
	}
	ctx := context.Background()
	cloned0, relax0 := srv.Stats().PagesCloned, srv.RelaxationsForTest()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, fail := range []bool{true, false} {
			if applied, _, err := srv.ApplyBatch(ctx, storm(i, fail)); err != nil || applied != 4 {
				b.Fatalf("storm %d fail=%v: %d of 4 arcs toggled, %v", i, fail, applied, err)
			}
		}
	}
	b.ReportMetric(float64(srv.Stats().PagesCloned-cloned0)/float64(2*b.N), "pages-cloned/swap")
	b.ReportMetric(float64(srv.RelaxationsForTest()-relax0)/float64(2*b.N), "relaxations/swap")
}
