package serve

// BenchmarkSingleRoute meters the full GET /v1/route handler path —
// query parsing, snapshot resolution, JSON encoding — per request,
// with allocs/op as the headline. The response writer is a stub so
// the measurement covers the handler, not httptest bookkeeping.

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/serve/wire"
	"metarouting/internal/value"
)

// discardResponse is a minimal ResponseWriter that retains nothing.
type discardResponse struct {
	h http.Header
}

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

func benchServer(b *testing.B) *Server {
	b.Helper()
	a, err := core.InferString("lex(delay(16,3), hops(8))")
	if err != nil {
		b.Fatal(err)
	}
	origin := a.OT.DefaultOrigin()
	g := graph.Random(rand.New(rand.NewSource(7)), 64, 0.15, graph.UniformLabels(a.OT.F.Size()))
	origins := map[int]value.V{0: origin, 21: origin, 42: origin}
	srv, err := New(exec.For(a.OT, origin), g, origins, WithWorkers(2))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	return srv
}

func BenchmarkSingleRoute(b *testing.B) {
	srv := benchServer(b)
	mux := NewHandler(srv, nil)
	req := httptest.NewRequest(http.MethodGet, "/v1/route?from=5&dest=0", nil)
	w := &discardResponse{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range w.h {
			delete(w.h, k)
		}
		mux.ServeHTTP(w, req)
	}
}

// BenchmarkResolveWireBatch meters the binary resolver per 256-query
// batch — the staged bulk lookup against the per-query loop it is
// differential-tested against — at the three sizes mrbench serves. The
// batches cycle through 4096 distinct ones (uniform sources over eight
// destinations, dest and addr forms) so that at 100k nodes the columns
// touched exceed the cache; even so this loop keeps the resolver's own
// code and scratch hot, which a handler entered after a socket round
// trip does not, so it understates the gap mrbench's batch_query_p50_ns
// sees (DESIGN §8). CI runs it for one iteration with no timing
// assertion.
func BenchmarkResolveWireBatch(b *testing.B) {
	const batches, batchSize, dests = 4096, 256, 8
	a, err := core.InferString("lex(delay(32,3), hops(8))")
	if err != nil {
		b.Fatal(err)
	}
	origin := a.OT.DefaultOrigin()
	for _, nodes := range []int{2000, 10000, 100000} {
		g := graph.ScaleFree(rand.New(rand.NewSource(7)), nodes, 2, graph.UniformLabels(a.OT.F.Size()))
		origins := make(map[int]value.V, dests)
		for i := 0; i < dests; i++ {
			origins[i*nodes/dests] = origin
		}
		srv, err := New(exec.For(a.OT, origin), g, origins, WithWorkers(2))
		if err != nil {
			b.Fatal(err)
		}
		var view batchView = srv.Snapshot()
		r := rand.New(rand.NewSource(11))
		qs := make([]wire.Query, batches*batchSize)
		for i := range qs {
			dest := r.Intn(dests) * nodes / dests
			qs[i] = wire.Query{Kind: wire.QueryDest, From: int32(r.Intn(nodes)), Arg: uint32(dest)}
			if i%2 == 1 {
				qs[i].Kind, qs[i].Arg = wire.QueryAddr, 10<<24|uint32(dest)
			}
		}
		batch := func(i int) []wire.Query {
			at := i % batches * batchSize
			return qs[at : at+batchSize]
		}
		b.Run(fmt.Sprintf("staged/%dk", nodes/1000), func(b *testing.B) {
			sc := &batchScratch{}
			for i := 0; i < b.N; i++ {
				sc.qs = batch(i)
				if err := resolveWireBatch(view, sc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("serial/%dk", nodes/1000), func(b *testing.B) {
			var as []wire.Answer
			var pool []int32
			for i := 0; i < b.N; i++ {
				if as, pool, err = resolveWireSerial(view, batch(i), as[:0], pool[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
		srv.Close()
	}
}
