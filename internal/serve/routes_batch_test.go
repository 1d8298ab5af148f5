package serve_test

// Tests for the batched query plane (POST /v1/routes). The two load-
// bearing properties are differential: every JSON batch element must be
// byte-identical to what the single /v1/route handler answers for the
// same query at the same snapshot, and the binary codec must carry the
// same routing facts as the JSON form. Both are asserted against live
// handler responses, not against fixtures, so any drift in either
// surface fails loudly.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"metarouting/internal/rib"
	"metarouting/internal/serve"
	"metarouting/internal/serve/wire"
	"metarouting/internal/telemetry"
)

// postRoutes POSTs a body to /v1/routes under the given content type.
func postRoutes(h http.Handler, contentType string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/routes", bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	h.ServeHTTP(rec, req)
	return rec
}

// batchFixtureQueries covers every query form against httpFixture's 3x3
// grid with origins {0, 8} (synthetic announcements 10.0.0.0/32 and
// 10.0.0.8/32): dest routed, unoriginated and self; addr and prefix
// both matched and uncovered.
func batchFixtureQueries() []serve.BatchQuery {
	d0, d3, d8 := 0, 3, 8
	return []serve.BatchQuery{
		{From: 1, Dest: &d0},
		{From: 4, Dest: &d8},
		{From: 1, Dest: &d3}, // in range but unoriginated: routed=false
		{From: 0, Dest: &d0}, // at the destination itself
		{From: 3, Addr: "10.0.0.8"},
		{From: 3, Addr: "10.0.0.3"}, // no announcement covers it
		{From: 6, Prefix: "10.0.0.0/32"},
		{From: 6, Prefix: "10.9.0.0/16"}, // no announcement covers it
	}
}

// wireFixtureQueries renders batchFixtureQueries in binary form.
func wireFixtureQueries(t testing.TB) []wire.Query {
	t.Helper()
	queries := batchFixtureQueries()
	wqs := make([]wire.Query, len(queries))
	for i, q := range queries {
		switch {
		case q.Prefix != "":
			p, err := rib.ParsePrefix(q.Prefix)
			if err != nil {
				t.Fatal(err)
			}
			wqs[i] = wire.Query{Kind: wire.QueryPrefix, From: int32(q.From), Arg: p.Addr, PLen: p.Len}
		case q.Addr != "":
			addr, err := rib.ParseAddr(q.Addr)
			if err != nil {
				t.Fatal(err)
			}
			wqs[i] = wire.Query{Kind: wire.QueryAddr, From: int32(q.From), Arg: addr}
		default:
			wqs[i] = wire.Query{Kind: wire.QueryDest, From: int32(q.From), Arg: uint32(*q.Dest)}
		}
	}
	return wqs
}

// singleTarget renders the /v1/route query string equivalent of a
// batch query.
func singleTarget(q serve.BatchQuery) string {
	switch {
	case q.Prefix != "":
		return fmt.Sprintf("/v1/route?from=%d&prefix=%s", q.From, q.Prefix)
	case q.Addr != "":
		return fmt.Sprintf("/v1/route?from=%d&addr=%s", q.From, q.Addr)
	default:
		return fmt.Sprintf("/v1/route?from=%d&dest=%d", q.From, *q.Dest)
	}
}

// TestBatchJSONDifferential: a JSON batch answers each query with the
// exact bytes the single handler produces, and the whole batch pins
// one snapshot version.
func TestBatchJSONDifferential(t *testing.T) {
	_, h := httpFixture(t, nil)
	queries := batchFixtureQueries()
	body, err := json.Marshal(serve.BatchRequest{Queries: queries})
	if err != nil {
		t.Fatal(err)
	}
	rec := postRoutes(h, "application/json", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body)
	}
	var reply struct {
		Version uint64            `json:"version"`
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
		t.Fatal(err)
	}
	if len(reply.Results) != len(queries) {
		t.Fatalf("got %d results for %d queries", len(reply.Results), len(queries))
	}
	for i, q := range queries {
		single := get(h, singleTarget(q))
		if single.Code != http.StatusOK {
			t.Fatalf("single %s: status %d: %s", singleTarget(q), single.Code, single.Body)
		}
		want := bytes.TrimSpace(single.Body.Bytes())
		if !bytes.Equal(bytes.TrimSpace(reply.Results[i]), want) {
			t.Fatalf("query %d diverges from single handler:\nbatch  %s\nsingle %s",
				i, reply.Results[i], want)
		}
		var rr serve.RouteReply
		if err := json.Unmarshal(reply.Results[i], &rr); err != nil {
			t.Fatal(err)
		}
		if rr.Version != reply.Version {
			t.Fatalf("query %d pinned v%d; batch reports v%d", i, rr.Version, reply.Version)
		}
	}
}

// TestBatchWireDifferential: the binary form answers the same routing
// facts as the JSON batch — matched/routed flags, resolved destination,
// ECMP set and snapshot version all agree query by query.
func TestBatchWireDifferential(t *testing.T) {
	srv, h := httpFixture(t, nil)
	queries := batchFixtureQueries()
	frame, err := wire.AppendQueryRequest(nil, wireFixtureQueries(t))
	if err != nil {
		t.Fatal(err)
	}
	rec := postRoutes(h, wire.ContentType, frame)
	if rec.Code != http.StatusOK {
		t.Fatalf("wire batch status %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != wire.ContentType {
		t.Fatalf("response content type %q, want %q", ct, wire.ContentType)
	}
	version, answers, pool, err := wire.DecodeAnswerResponse(rec.Body.Bytes(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if version != srv.Snapshot().Version {
		t.Fatalf("wire version %d, snapshot %d", version, srv.Snapshot().Version)
	}
	if len(answers) != len(queries) {
		t.Fatalf("got %d answers for %d queries", len(answers), len(queries))
	}
	for i, q := range queries {
		var rr serve.RouteReply
		single := get(h, singleTarget(q))
		if err := json.Unmarshal(single.Body.Bytes(), &rr); err != nil {
			t.Fatal(err)
		}
		a := answers[i]
		matched := q.Dest != nil || rr.Matched != ""
		if a.Matched() != matched {
			t.Fatalf("query %d: wire matched=%v, JSON %+v", i, a.Matched(), rr)
		}
		if a.Routed() != rr.Routed {
			t.Fatalf("query %d: wire routed=%v, JSON routed=%v", i, a.Routed(), rr.Routed)
		}
		if a.Matched() && int(a.Dest) != rr.Dest {
			t.Fatalf("query %d: wire dest=%d, JSON dest=%d", i, a.Dest, rr.Dest)
		}
		span := pool[a.NhOff : uint32(a.NhOff)+uint32(a.NhLen)]
		if len(span) != len(rr.ECMP) {
			t.Fatalf("query %d: wire ECMP %v, JSON ECMP %v", i, span, rr.ECMP)
		}
		for j, nh := range span {
			if int(nh) != rr.ECMP[j] {
				t.Fatalf("query %d: wire ECMP %v, JSON ECMP %v", i, span, rr.ECMP)
			}
		}
	}
}

// TestBatchErrors: malformed batches are client errors with the
// uniform envelope, never 5xx or panics.
func TestBatchErrors(t *testing.T) {
	_, h := httpFixture(t, nil)
	if rec := get(h, "/v1/routes"); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status %d, want 405", rec.Code)
	}
	jsonCases := []string{
		``, `{`, `[]`,
		`{"queries":[]}`,
		`{"queries":[{"from":999,"dest":0}]}`,
		`{"queries":[{"from":1,"dest":99}]}`,
		`{"queries":[{"from":1}]}`,
		`{"queries":[{"from":1,"dest":0,"extra":1}]}`,
		`{"queries":[{"from":1,"addr":"not-an-addr"}]}`,
		`{"queries":[{"from":1,"prefix":"10.0.0.0/64"}]}`,
	}
	for _, body := range jsonCases {
		rec := postRoutes(h, "application/json", []byte(body))
		if rec.Code < 400 || rec.Code >= 500 {
			t.Fatalf("JSON body %q: status %d, want 4xx", body, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), `"error"`) {
			t.Fatalf("JSON body %q: missing error envelope: %s", body, rec.Body)
		}
	}
	// An oversized batch is rejected by count before any resolution.
	var sb strings.Builder
	sb.WriteString(`{"queries":[`)
	for i := 0; i <= wire.MaxBatch; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"from":1,"dest":0}`)
	}
	sb.WriteString(`]}`)
	if rec := postRoutes(h, "application/json", []byte(sb.String())); rec.Code < 400 || rec.Code >= 500 {
		t.Fatalf("oversized batch: status %d, want 4xx", rec.Code)
	}
	// Binary garbage: truncated frames, corrupt CRC, non-frames.
	good, err := wire.AppendQueryRequest(nil, []wire.Query{{Kind: wire.QueryDest, From: 1}})
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0xff // break the CRC
	wireCases := [][]byte{nil, good[:3], good[:len(good)-2], bad, []byte("not a frame")}
	for i, body := range wireCases {
		rec := postRoutes(h, wire.ContentType, body)
		if rec.Code < 400 || rec.Code >= 500 {
			t.Fatalf("wire case %d: status %d, want 4xx: %s", i, rec.Code, rec.Body)
		}
	}
	// Out-of-range nodes fail the whole binary frame: the binary
	// protocol is machine-generated, so a bad query is a client bug.
	oob, err := wire.AppendQueryRequest(nil, []wire.Query{{Kind: wire.QueryDest, From: 99}})
	if err != nil {
		t.Fatal(err)
	}
	if rec := postRoutes(h, wire.ContentType, oob); rec.Code != http.StatusBadRequest {
		t.Fatalf("out-of-range wire query: status %d, want 400", rec.Code)
	}
}

// TestBatchTelemetry: the batch counters advance per request and per
// query, on both content types.
func TestBatchTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv, h := httpFixture(t, reg)
	d0 := 0
	body, err := json.Marshal(serve.BatchRequest{Queries: []serve.BatchQuery{
		{From: 1, Dest: &d0}, {From: 2, Dest: &d0},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rec := postRoutes(h, "application/json", body); rec.Code != http.StatusOK {
		t.Fatalf("JSON batch: status %d: %s", rec.Code, rec.Body)
	}
	frame, err := wire.AppendQueryRequest(nil, []wire.Query{{Kind: wire.QueryDest, From: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if rec := postRoutes(h, wire.ContentType, frame); rec.Code != http.StatusOK {
		t.Fatalf("wire batch: status %d: %s", rec.Code, rec.Body)
	}
	st := srv.Stats()
	if st.BatchRequests != 2 || st.BatchQueries != 3 {
		t.Fatalf("batch counters: requests=%d queries=%d, want 2/3", st.BatchRequests, st.BatchQueries)
	}
}
