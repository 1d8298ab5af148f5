package serve

// Differential tests for the staged binary resolver. resolveWireBatch
// walks a batch stage by stage so that its cache misses overlap;
// resolveWireSerial, the per-query loop it replaced, lives on here as
// its oracle: on the same pinned view the two must produce the same
// answers, the same pool and the same errors, element for element.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/replica"
	"metarouting/internal/rib"
	"metarouting/internal/serve/wire"
)

// frameSink keeps the leader's replication frames for a follower.
type frameSink struct {
	mu     sync.Mutex
	frames [][]byte
}

func (s *frameSink) PublishRecord(_ uint64, frame []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.frames = append(s.frames, slices.Clone(frame))
	return nil
}

// resolveWireSerial is the per-query resolver: each query runs its whole
// lookup chain — match, column, slot, span — before the next starts,
// through the view's read surface. Answers, pool layout and errors are
// what resolveWireBatch must produce.
func resolveWireSerial(v batchView, qs []wire.Query, as []wire.Answer, pool []int32) ([]wire.Answer, []int32, error) {
	nodes := v.batchNodes()
	pt := v.batchPrefixes()
	for i := range qs {
		q := &qs[i]
		a, err := matchWireQuery(i, q, nodes, pt)
		if err != nil {
			return as, pool, err
		}
		if a.Dest >= 0 {
			if c := v.batchColumn(int(a.Dest)); c != nil {
				if w, routed := c.Route(int(q.From)); routed {
					a.Flags |= wire.FlagRouted
					a.W = w
					a.NhOff = uint32(len(pool))
					pool = append(pool, c.NextHops(int(q.From))...)
					if a.NhLen, err = spanLen(i, len(pool)-int(a.NhOff)); err != nil {
						return as, pool, err
					}
				}
			}
		}
		as = append(as, a)
	}
	return as, pool, nil
}

// resolverViews boots a leader and a follower fed from its record
// stream over a 150-node topology —
// three column pages, the last one partial — whose last six nodes are
// isolated, so every column has unrouted slots. Destinations 0, 70 and
// 140 straddle the pages. withDefault adds a 0.0.0.0/0 announcement, so
// that no address is uncovered and a /0 query matches.
func resolverViews(t *testing.T, withDefault bool) map[string]batchView {
	t.Helper()
	a, err := core.InferString("lex(delay(16,3), hops(8))")
	if err != nil {
		t.Fatal(err)
	}
	grid := graph.Grid(rand.New(rand.NewSource(5)), 12, 12, graph.UniformLabels(a.OT.F.Size()))
	g := graph.MustNew(150, grid.Arcs)
	origin := a.OT.Carrier().Elems[0]
	announced := []rib.PrefixOrigin{
		{Prefix: rib.MakePrefix(10<<24, 8), Node: 0, Origin: origin},
		{Prefix: rib.MakePrefix(10<<24|1<<16, 16), Node: 70, Origin: origin},
		{Prefix: rib.MakePrefix(10<<24|1<<16|2<<8, 24), Node: 140, Origin: origin},
		{Prefix: rib.MakePrefix(192<<24|168<<16|7, 32), Node: 70, Origin: origin},
	}
	if withDefault {
		announced = append(announced, rib.PrefixOrigin{Prefix: rib.MakePrefix(0, 0), Node: 140, Origin: origin})
	}
	sink := &frameSink{}
	srv, err := NewServer(Config{Engine: exec.NewDynamic(a.OT), Graph: g},
		WithAnnouncements(announced), WithReplication(sink), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	fol := NewFollower(nil)
	for _, frame := range sink.frames {
		rec, err := replica.DecodeRecord(frame)
		if err != nil {
			t.Fatal(err)
		}
		if err := fol.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	return map[string]batchView{"leader": srv.Snapshot(), "follower": fol.view()}
}

// resolverCases is one query of every shape the resolvers distinguish.
func resolverCases() []wire.Query {
	return []wire.Query{
		{Kind: wire.QueryDest, From: 3, Arg: 0},     // routed, first page
		{Kind: wire.QueryDest, From: 100, Arg: 70},  // routed, second page
		{Kind: wire.QueryDest, From: 143, Arg: 140}, // routed, partial last page
		{Kind: wire.QueryDest, From: 70, Arg: 70},   // at the destination: empty span
		{Kind: wire.QueryDest, From: 147, Arg: 0},   // isolated node: unrouted
		{Kind: wire.QueryDest, From: 5, Arg: 6},     // unknown destination: nil column
		{Kind: wire.QueryAddr, From: 9, Arg: 10<<24 | 9<<16 | 1},
		{Kind: wire.QueryAddr, From: 9, Arg: 10<<24 | 1<<16 | 2<<8 | 200}, // longest of three
		{Kind: wire.QueryAddr, From: 149, Arg: 192<<24 | 168<<16 | 7},     // /32, unrouted node
		{Kind: wire.QueryAddr, From: 9, Arg: 11 << 24},                    // uncovered unless /0
		{Kind: wire.QueryPrefix, From: 20, Arg: 10<<24 | 1<<16, PLen: 16},
		{Kind: wire.QueryPrefix, From: 20, Arg: 10<<24 | 1<<16, PLen: 12}, // only the /8 covers it
		{Kind: wire.QueryPrefix, From: 20, Arg: 0, PLen: 0},               // /0
		{Kind: wire.QueryPrefix, From: 20, Arg: 172 << 24, PLen: 12},
	}
}

// randomQueries draws n well-formed queries over a 150-node view.
func randomQueries(r *rand.Rand, n int) []wire.Query {
	qs := make([]wire.Query, n)
	dests := []uint32{0, 70, 140, 6}
	for i := range qs {
		q := wire.Query{From: int32(r.Intn(150))}
		addr := uint32(10<<24) | uint32(r.Intn(3))<<16 | uint32(r.Intn(4))<<8 | uint32(r.Intn(256))
		if r.Intn(8) == 0 {
			addr = r.Uint32()
		}
		switch r.Intn(3) {
		case 0:
			q.Kind, q.Arg = wire.QueryDest, dests[r.Intn(len(dests))]
		case 1:
			q.Kind, q.Arg = wire.QueryAddr, addr
		default:
			p := rib.MakePrefix(addr, uint8(r.Intn(33)))
			q.Kind, q.Arg, q.PLen = wire.QueryPrefix, p.Addr, p.Len
		}
		qs[i] = q
	}
	return qs
}

// sameResolution runs both resolvers over qs on one view and requires
// equal answers, pools and errors. It returns the staged error.
func sameResolution(t *testing.T, name string, v batchView, sc *batchScratch, qs []wire.Query) error {
	t.Helper()
	sc.qs = append(sc.qs[:0], qs...)
	gotErr := resolveWireBatch(v, sc)
	as, pool, wantErr := resolveWireSerial(v, qs, nil, nil)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s: staged error %v, serial error %v", name, gotErr, wantErr)
	}
	if gotErr != nil {
		if len(sc.as) != 0 || len(sc.pool) != 0 {
			t.Fatalf("%s: failed frame left %d answers and %d pool entries behind", name, len(sc.as), len(sc.pool))
		}
		return gotErr
	}
	if len(sc.as) != len(qs) {
		t.Fatalf("%s: %d answers for %d queries", name, len(sc.as), len(qs))
	}
	for i := range as {
		if sc.as[i] != as[i] {
			t.Fatalf("%s: query %d (%+v): staged %+v, serial %+v", name, i, qs[i], sc.as[i], as[i])
		}
	}
	if !slices.Equal(sc.pool, pool) {
		t.Fatalf("%s: pools differ: staged %d entries, serial %d", name, len(sc.pool), len(pool))
	}
	return nil
}

func TestStagedResolverMatchesSerial(t *testing.T) {
	for _, withDefault := range []bool{false, true} {
		for vname, v := range resolverViews(t, withDefault) {
			name := fmt.Sprintf("%s/default=%v", vname, withDefault)
			// One scratch across every batch of a view, as the pool hands
			// them out: stale stage state from a larger batch must not leak
			// into a smaller one.
			sc := &batchScratch{}
			cases := resolverCases()
			if err := sameResolution(t, name+"/cases", v, sc, cases); err != nil {
				t.Fatal(err)
			}
			// The fixture must actually reach the arms it claims to.
			routed, unrouted, unmatched, spans := 0, 0, 0, 0
			for _, a := range sc.as {
				switch {
				case !a.Matched():
					unmatched++
				case a.Routed():
					routed++
					spans += int(a.NhLen)
				default:
					unrouted++
				}
			}
			if routed < 6 || unrouted < 3 || spans < 6 || (unmatched > 0) == withDefault {
				t.Fatalf("%s: fixture covers routed=%d unrouted=%d unmatched=%d spans=%d", name, routed, unrouted, unmatched, spans)
			}
			r := rand.New(rand.NewSource(9))
			for _, size := range []int{wire.MaxBatch, 1, 257, 1, 256} {
				qs := randomQueries(r, size)
				if err := sameResolution(t, fmt.Sprintf("%s/random-%d", name, size), v, sc, qs); err != nil {
					t.Fatal(err)
				}
			}
			for i := range cases {
				if err := sameResolution(t, fmt.Sprintf("%s/single-%d", name, i), v, sc, cases[i:i+1]); err != nil {
					t.Fatal(err)
				}
			}
			// Malformed frames: the same error, naming the same query,
			// wherever the bad query sits — and nothing answered.
			for _, bad := range []struct {
				q    wire.Query
				want string
			}{
				{wire.Query{Kind: wire.QueryDest, From: -1, Arg: 0}, `"from" = -1 out of range [0,150)`},
				{wire.Query{Kind: wire.QueryAddr, From: 150, Arg: 10 << 24}, `"from" = 150 out of range [0,150)`},
				{wire.Query{Kind: wire.QueryDest, From: 1, Arg: 150}, `"dest" = 150 out of range [0,150)`},
				{wire.Query{Kind: 7, From: 1, Arg: 0}, "unknown kind 7"},
			} {
				for _, at := range []int{0, len(cases) / 2, len(cases) - 1} {
					qs := slices.Clone(cases)
					qs[at] = bad.q
					err := sameResolution(t, fmt.Sprintf("%s/bad-at-%d", name, at), v, sc, qs)
					if want := fmt.Sprintf("query %d: %s", at, bad.want); err == nil || err.Error() != want {
						t.Fatalf("%s: malformed query at %d: err = %v, want %q", name, at, err, want)
					}
				}
			}
		}
	}
}

// stubView serves hand-built columns to the resolvers.
type stubView struct {
	nodes int
	cols  map[int]*rib.PagedColumn
}

func (v stubView) batchVersion() uint64                  { return 1 }
func (v stubView) batchNodes() int                       { return v.nodes }
func (v stubView) batchPrefixes() *rib.PrefixTable       { return nil }
func (v stubView) batchWeightName(int32) string          { return "" }
func (v stubView) batchColumn(dest int) *rib.PagedColumn { return v.cols[dest] }
func (v stubView) batchForward(from, dest int) (graph.Path, error) {
	return v.cols[dest].Forward(from)
}

// TestWireSpanOverflowFailsFrame: an answer slot counts next hops in a
// uint16. A node with more equal-cost next hops than that (a hub over a
// loaded star) used to ship a silently truncated span; both resolvers
// now fail the frame naming the query, the handler answers 500, and the
// widest span that does fit still round-trips hop for hop.
func TestWireSpanOverflowFailsFrame(t *testing.T) {
	const hub = 1
	column := func(width int) *rib.PagedColumn {
		pg := &rib.ColumnPage{Pool: make([]int32, width)}
		for i := range pg.Pool {
			pg.Pool[i] = int32(i % 3)
		}
		pg.SetSlot(0, 0, 0, 0)
		pg.SetSlot(hub, 4, 0, int32(width))
		return rib.FromPages(0, 3, true, []*rib.ColumnPage{pg})
	}
	qs := []wire.Query{
		{Kind: wire.QueryDest, From: 2, Arg: 0},
		{Kind: wire.QueryDest, From: 0, Arg: 0},
		{Kind: wire.QueryDest, From: hub, Arg: 0},
	}
	view := func(width int) stubView {
		return stubView{nodes: 3, cols: map[int]*rib.PagedColumn{0: column(width)}}
	}
	sc := &batchScratch{}
	if err := sameResolution(t, "fits", view(math.MaxUint16), sc, qs); err != nil {
		t.Fatal(err)
	}
	frame, err := wire.AppendAnswerResponse(nil, 1, sc.as, sc.pool)
	if err != nil {
		t.Fatal(err)
	}
	_, as, pool, err := wire.DecodeAnswerResponse(frame, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	wide := view(math.MaxUint16).cols[0].NextHops(hub)
	if got := pool[as[2].NhOff : as[2].NhOff+uint32(as[2].NhLen)]; !slices.Equal(got, wide) {
		t.Fatalf("widest span decodes to %d hops, column holds %d", len(got), len(wide))
	}

	v := view(math.MaxUint16 + 1)
	err = sameResolution(t, "overflows", v, sc, qs)
	if !errors.Is(err, errSpanTooWide) || !strings.HasPrefix(err.Error(), "query 2: 65536 ") {
		t.Fatalf("err = %v, want errSpanTooWide naming query 2", err)
	}
	h := routesHandler(func(http.ResponseWriter, string) batchView { return v }, func(int, int) {})
	body, err := wire.AppendQueryRequest(nil, qs)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/routes", strings.NewReader(string(body)))
	req.Header.Set("Content-Type", wire.ContentType)
	rec := httptest.NewRecorder()
	h(rec, req)
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "query 2: 65536 ") {
		t.Fatalf("handler answered %d %s", rec.Code, rec.Body)
	}
}
