package serve

// BenchmarkSingleRoute meters the full GET /v1/route handler path —
// query parsing, snapshot resolution, JSON encoding — per request,
// with allocs/op as the headline. The response writer is a stub so
// the measurement covers the handler, not httptest bookkeeping.

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/rib"
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
	srv, err := NewServer(Config{Engine: exec.For(a.OT, origin), Graph: g, Origins: origins}, WithWorkers(2))
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

// benchAnnouncements draws n distinct /12–/28 prefixes anchored at
// random destinations, in the shape of mrbench's query workloads (whose
// generator tests cannot import): three quarters drawn freely, the last
// quarter more-specifics inside an earlier prefix with its anchor, so
// aggregation suppresses most of those.
func benchAnnouncements(r *rand.Rand, n int, dests []int, origin value.V) []rib.PrefixOrigin {
	out := make([]rib.PrefixOrigin, 0, n)
	seen := make(map[rib.Prefix]bool, n)
	free := n - n/4
	for len(out) < n {
		po := rib.PrefixOrigin{Prefix: rib.MakePrefix(r.Uint32(), uint8(12+r.Intn(17))), Node: dests[r.Intn(len(dests))], Origin: origin}
		if len(out) >= free {
			cover := out[r.Intn(free)]
			if cover.Prefix.Len >= 28 {
				continue
			}
			l := cover.Prefix.Len + 1 + uint8(r.Intn(int(28-cover.Prefix.Len)))
			po.Prefix, po.Node = rib.MakePrefix(cover.Prefix.Addr|r.Uint32()>>cover.Prefix.Len, l), cover.Node
		}
		if !seen[po.Prefix] {
			seen[po.Prefix] = true
			out = append(out, po)
		}
	}
	return out
}

// benchAddrs draws n addresses inside random kept prefixes of pt.
func benchAddrs(r *rand.Rand, pt *rib.PrefixTable, n int) []uint32 {
	kept := pt.Kept()
	out := make([]uint32, n)
	for i := range out {
		p := kept[r.Intn(len(kept))].Prefix
		out[i] = p.Addr | r.Uint32()>>p.Len // host bits below the prefix; none for a /32
	}
	return out
}

// BenchmarkPrefixMatch meters PrefixTable.MatchNode alone, per address,
// on the 4096-announcement set of BenchmarkResolveWireBatch's
// prefixes/10k case (mrbench's query-workload shape), over 64k
// addresses inside uniformly drawn kept prefixes.
func BenchmarkPrefixMatch(b *testing.B) {
	anchors := make([]int, 8)
	for i := range anchors {
		anchors[i] = i * 10000 / len(anchors)
	}
	pt, err := rib.NewPrefixTable(benchAnnouncements(rand.New(rand.NewSource(5)), 4096, anchors, value.V(0)))
	if err != nil {
		b.Fatal(err)
	}
	addrs := benchAddrs(rand.New(rand.NewSource(11)), pt, 1<<16)
	b.ResetTimer()
	sum := 0
	for i := 0; i < b.N; i++ {
		node, _, _ := pt.MatchNode(addrs[i&(len(addrs)-1)])
		sum += node
	}
	benchSink = sum
	b.ReportMetric(float64(pt.LPMIntervals()), "ranges")
}

// benchSink keeps benchmarked results live.
var benchSink int

// BenchmarkResolveWireBatch meters the binary resolver per 256-query
// batch — the staged bulk lookup against the per-query loop it is
// differential-tested against — at the three sizes mrbench serves, on
// one auto-prefix /32 per destination, and at 10k nodes on 4096
// announced /12–/28 prefixes as mrbench's query workloads announce
// (prefixes/10k). The batches cycle through 4096 distinct ones (uniform
// sources over eight destinations, dest and addr forms, addresses inside
// uniformly drawn kept prefixes) so that at 100k nodes the columns
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
	for _, c := range []struct {
		name            string
		nodes, prefixes int // prefixes 0: one auto-prefix /32 per destination
	}{{"2k", 2000, 0}, {"10k", 10000, 0}, {"100k", 100000, 0}, {"prefixes/10k", 10000, 4096}} {
		nodes := c.nodes
		g := graph.ScaleFree(rand.New(rand.NewSource(7)), nodes, 2, graph.UniformLabels(a.OT.F.Size()))
		origins := make(map[int]value.V, dests)
		anchors := make([]int, dests)
		for i := range anchors {
			anchors[i] = i * nodes / dests
			origins[anchors[i]] = origin
		}
		opts := []Option{WithWorkers(2)}
		if c.prefixes > 0 {
			opts = append(opts, WithAnnouncements(benchAnnouncements(rand.New(rand.NewSource(5)), c.prefixes, anchors, origin)))
		}
		srv, err := NewServer(Config{Engine: exec.For(a.OT, origin), Graph: g, Origins: origins}, opts...)
		if err != nil {
			b.Fatal(err)
		}
		var view batchView = srv.Snapshot()
		r := rand.New(rand.NewSource(11))
		qs := make([]wire.Query, batches*batchSize)
		addrs := benchAddrs(r, view.batchPrefixes(), len(qs))
		for i := range qs {
			dest := anchors[r.Intn(dests)]
			qs[i] = wire.Query{Kind: wire.QueryDest, From: int32(r.Intn(nodes)), Arg: uint32(dest)}
			if i%2 == 1 {
				qs[i].Kind, qs[i].Arg = wire.QueryAddr, addrs[i]
			}
		}
		batch := func(i int) []wire.Query {
			at := i % batches * batchSize
			return qs[at : at+batchSize]
		}
		b.Run("staged/"+c.name, func(b *testing.B) {
			sc := &batchScratch{}
			for i := 0; i < b.N; i++ {
				sc.qs = batch(i)
				if err := resolveWireBatch(view, sc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("serial/"+c.name, func(b *testing.B) {
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
