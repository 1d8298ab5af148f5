package serve_test

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/serve"
	"metarouting/internal/serve/wire"
	"metarouting/internal/value"
)

// TestWideSpanServed: on the 65 538-node fan u = 1 → 65 536 middles →
// d = 0, u's route has one more equal-cost next hop than a binary
// answer's uint16 NhLen counts (a page slot's NhLen saturates far below
// that, at rib.MaxPageNhLen, which is not the answer's limit). The
// binary batch still fails the frame with a 500 naming the query, GET
// /v1/route still answers the whole set, and once one middle's arc fails
// the 65 535 hops left — the answer's limit itself — come back whole
// from both.
func TestWideSpanServed(t *testing.T) {
	const mids = math.MaxUint16 + 1
	a, err := core.InferString("delay(16,3)")
	if err != nil {
		t.Fatal(err)
	}
	origin := a.OT.DefaultOrigin()
	arcs := make([]graph.Arc, 0, 2*mids)
	for m := 2; m < mids+2; m++ {
		arcs = append(arcs, graph.Arc{From: 1, To: m}, graph.Arc{From: m, To: 0})
	}
	srv, err := serve.NewServer(serve.Config{Engine: exec.For(a.OT, origin), Graph: graph.MustNew(mids+2, arcs),
		Origins: map[int]value.V{0: origin}}, serve.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := serve.NewHandler(srv, nil)
	body, err := wire.AppendQueryRequest(nil, []wire.Query{{Kind: wire.QueryDest, From: 0, Arg: 0}, {Kind: wire.QueryDest, From: 1, Arg: 0}})
	if err != nil {
		t.Fatal(err)
	}
	// served checks both surfaces against the middles still reachable.
	served := func(tag string, cut int32) {
		t.Helper()
		want := make([]int, 0, mids)
		for m := 2; m < mids+2; m++ {
			if int32(m) != cut {
				want = append(want, m)
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/route?from=1&dest=0", nil))
		var reply serve.RouteReply
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("%s: GET /v1/route answered %d (%v)", tag, rec.Code, err)
		}
		got := slices.Clone(reply.ECMP)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: GET /v1/route answered %d next hops, want %d", tag, len(reply.ECMP), len(want))
		}
		rec = postRoutes(h, wire.ContentType, body)
		if len(want) > math.MaxUint16 {
			if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "query 1: 65536 ") {
				t.Fatalf("%s: binary batch answered %d %s, want 500 naming query 1's 65536 hops", tag, rec.Code, rec.Body)
			}
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: binary batch answered %d %s", tag, rec.Code, rec.Body)
		}
		_, as, pool, err := wire.DecodeAnswerResponse(rec.Body.Bytes(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		span := pool[as[1].NhOff : as[1].NhOff+uint32(as[1].NhLen)]
		if len(span) != len(reply.ECMP) {
			t.Fatalf("%s: binary answer carries %d hops, GET %d", tag, len(span), len(reply.ECMP))
		}
		for i, v := range span {
			if int(v) != reply.ECMP[i] {
				t.Fatalf("%s: binary hop %d is %d, GET's %d", tag, i, v, reply.ECMP[i])
			}
		}
	}
	served("65 536 hops", -1)
	const cut = 40000
	if _, _, err := srv.ApplyEvent(context.Background(), 2*(cut-2)+1, true); err != nil {
		t.Fatal(err)
	}
	served("65 535 hops", cut)
}
