package validate

// The simulator's serial-vs-parallel measurement: the serial engine is
// the differential oracle, so every parallel run is also checked for a
// bit-identical Outcome.

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
)

// simWorkload is BenchmarkSimulator's workload at n nodes: a seeded GNP
// graph of mean degree 8 on delay(64,3), driven past initial convergence
// by a flap storm on flapArcs arcs of cycles fail/up cycles each, with
// per-node delay streams so the parallel engine can run it.
func simWorkload(tb testing.TB, n, flapArcs, cycles int) (exec.Algebra, *graph.Graph, protocol.Config) {
	tb.Helper()
	const seed = 42
	a, err := core.InferString("delay(64,3)")
	if err != nil {
		tb.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	g := graph.Random(r, n, min(1, 8/float64(n-1)), graph.UniformLabels(a.OT.F.Size()))
	cfg := protocol.Config{
		Dest: 0, Origin: a.OT.DefaultOrigin(), MaxDelay: 3,
		PerNodeDelays: true, Seed: seed,
		Events:   FlapStorm(r, g, flapArcs, cycles, 50, 200),
		MaxSteps: 100_000_000,
	}
	return exec.For(a.OT, cfg.Origin), g, cfg
}

// TestSimulatorSmallIdentical: the benchmark's workload at 64 nodes, 8
// flapped arcs and 2 cycles on two shards converges, delivers messages,
// and the parallel engine's Outcome is identical to the serial oracle's.
func TestSimulatorSmallIdentical(t *testing.T) {
	eng, g, cfg := simWorkload(t, 64, 8, 2)
	serial := protocol.RunEngine(eng, g, cfg)
	par, err := protocol.RunParallel(context.Background(), eng, g, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatal("parallel outcome diverged from the serial oracle")
	}
	if !serial.Converged || serial.Steps <= 0 {
		t.Fatalf("small workload: converged %v after %d messages", serial.Converged, serial.Steps)
	}
}

// BenchmarkSimulator times the serial oracle and the parallel engine
// (default shard count) on simWorkload at 64, 1 000 and 10 000 nodes:
// n/4 flapped arcs, 8 cycles each below 256 nodes and max(8, 400 000/n)
// from there up, so the larger runs sustain over a million delivered
// messages rather than one convergence wave. Each sub-benchmark reports
// delivered messages per second; a parallel Outcome that is not
// identical to the serial one fails the benchmark.
func BenchmarkSimulator(b *testing.B) {
	for _, n := range []int{64, 1000, 10_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cycles := 8
			if n >= 256 {
				cycles = max(cycles, 400_000/n)
			}
			eng, g, cfg := simWorkload(b, n, n/4, cycles)
			serial := protocol.RunEngine(eng, g, cfg)
			msgsPerSec := func(b *testing.B) {
				b.ReportMetric(float64(serial.Steps)*float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
			}
			b.Run("serial", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					protocol.RunEngine(eng, g, cfg)
				}
				msgsPerSec(b)
			})
			b.Run("parallel", func(b *testing.B) {
				p := protocol.NewParallel(0)
				defer p.Close()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					par, err := p.Run(context.Background(), eng, g, cfg)
					if err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					if !reflect.DeepEqual(serial, par) {
						b.Fatal("parallel outcome diverged from the serial oracle")
					}
					b.StartTimer()
				}
				msgsPerSec(b)
			})
		})
	}
}
