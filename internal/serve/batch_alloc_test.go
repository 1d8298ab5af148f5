package serve

// White-box allocation guard for the binary batch hot path. The serve
// package promises that resolveWireBatch allocates nothing once the
// scratch buffers are warm — that property is what lets the handler
// answer wire batches entirely out of a sync.Pool'd scratch. A
// regression here silently reintroduces per-query garbage at qps scale,
// so the ceiling is pinned to exactly zero, and CI runs this file under
// -race as well.

import (
	"math/rand"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/serve/wire"
	"metarouting/internal/value"
)

func TestResolveWireBatchAllocs(t *testing.T) {
	a, err := core.InferString("lex(delay(16,3), hops(8))")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Grid(rand.New(rand.NewSource(11)), 3, 3, graph.UniformLabels(a.OT.F.Size()))
	origins := map[int]value.V{0: value.Pair{A: 0, B: 0}, 8: value.Pair{A: 2, B: 1}}
	srv, err := NewServer(Config{Engine: exec.For(a.OT), Graph: g, Origins: origins}, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var view batchView = srv.Snapshot()

	// Mixed kinds, including unmatched lookups and an unrouted slot, so
	// the guard covers every arm of the resolution switch.
	mixed := []wire.Query{
		{Kind: wire.QueryDest, From: 1, Arg: 0},
		{Kind: wire.QueryDest, From: 4, Arg: 8},
		{Kind: wire.QueryDest, From: 1, Arg: 3},
		{Kind: wire.QueryAddr, From: 3, Arg: 10<<24 | 8},
		{Kind: wire.QueryAddr, From: 3, Arg: 10<<24 | 3},
		{Kind: wire.QueryPrefix, From: 6, Arg: 10 << 24, PLen: 32},
		{Kind: wire.QueryPrefix, From: 6, Arg: 10<<24 | 9<<16, PLen: 16},
	}
	// The per-query stage state lives in the scratch too, so the guard
	// runs at the benchmark's batch size and at the frame ceiling.
	for _, size := range []int{len(mixed), 256, wire.MaxBatch} {
		sc := &batchScratch{}
		for len(sc.qs) < size {
			sc.qs = append(sc.qs, mixed[len(sc.qs)%len(mixed)])
		}
		// One warm pass grows the scratch to its steady-state capacity;
		// after that every run must reuse it in place.
		if err := resolveWireBatch(view, sc); err != nil {
			t.Fatal(err)
		}
		if len(sc.as) != size {
			t.Fatalf("warm pass answered %d of %d queries", len(sc.as), size)
		}
		n := testing.AllocsPerRun(200, func() {
			if err := resolveWireBatch(view, sc); err != nil {
				t.Fatal(err)
			}
		})
		if n != 0 {
			t.Fatalf("resolveWireBatch allocates %.1f per %d-query batch with warm scratch, want 0", n, size)
		}
	}
}
