package serve_test

// Tests for the versioned v1 API surface: legacy unversioned aliases
// answer identically plus a Deprecation header, the uniform error
// envelope, batch POST /v1/events with coalescing, and the async intake
// path's backpressure statuses.

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/serve"
	"metarouting/internal/telemetry"
	"metarouting/internal/value"
)

// errEnvelope decodes the uniform {"error":{"code","message"}} payload
// and fails the test if the body has any other shape.
func errEnvelope(t *testing.T, rec *httptest.ResponseRecorder) serve.APIError {
	t.Helper()
	var body struct {
		Error serve.APIError `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("error body is not the envelope: %v (%s)", err, rec.Body)
	}
	if body.Error.Code == "" || body.Error.Message == "" {
		t.Fatalf("envelope must carry code and message: %s", rec.Body)
	}
	return body.Error
}

// TestHandlerV1Aliases: every legacy route answers byte-identically to
// its /v1 successor, adds Deprecation and successor-version Link
// headers, and the v1 spelling stays clean of both.
func TestHandlerV1Aliases(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, h := httpFixture(t, reg)
	for _, tc := range []struct{ legacy, v1 string }{
		{"/route?from=1&dest=0", "/v1/route?from=1&dest=0"},
		{"/paths?dest=0", "/v1/paths?dest=0"},
		{"/stats", "/v1/stats"},
		{"/slowlog", "/v1/slowlog"},
		{"/metrics", "/v1/metrics"},
		{"/event?arc=0&kind=up", "/v1/events?arc=0&kind=up"},
		{"/events?arc=0&kind=up", "/v1/events?arc=0&kind=up"},
	} {
		legacy, v1 := get(h, tc.legacy), get(h, tc.v1)
		if legacy.Code != v1.Code {
			t.Fatalf("%s: status %d, successor %s: %d", tc.legacy, legacy.Code, tc.v1, v1.Code)
		}
		if legacy.Body.String() != v1.Body.String() {
			t.Fatalf("%s answered differently from %s:\n legacy: %s\n v1:     %s",
				tc.legacy, tc.v1, legacy.Body, v1.Body)
		}
		if got := legacy.Header().Get("Deprecation"); got != "true" {
			t.Fatalf("%s: Deprecation header = %q, want \"true\"", tc.legacy, got)
		}
		link := legacy.Header().Get("Link")
		if !strings.Contains(link, `rel="successor-version"`) || !strings.Contains(link, "/v1/") {
			t.Fatalf("%s: Link header %q must point at the v1 successor", tc.legacy, link)
		}
		if v1.Header().Get("Deprecation") != "" || v1.Header().Get("Link") != "" {
			t.Fatalf("%s must not be marked deprecated", tc.v1)
		}
	}
}

// TestHandlerLegacyRetired: without WithLegacyAPI the unversioned
// aliases answer 404 with the legacy_api_retired envelope and a Link
// header naming the successor, while the /v1 spellings keep working.
func TestHandlerLegacyRetired(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv, _ := httpFixture(t, reg)
	h := serve.NewHandler(srv, reg)
	for _, tc := range []struct{ legacy, v1 string }{
		{"/route?from=1&dest=0", "/v1/route?from=1&dest=0"},
		{"/paths?dest=0", "/v1/paths?dest=0"},
		{"/stats", "/v1/stats"},
		{"/slowlog", "/v1/slowlog"},
		{"/metrics", "/v1/metrics"},
		{"/event?arc=0&kind=up", "/v1/events?arc=0&kind=up"},
		{"/events?arc=0&kind=up", "/v1/events?arc=0&kind=up"},
	} {
		rec := get(h, tc.legacy)
		if rec.Code != http.StatusNotFound {
			t.Fatalf("%s without -legacy-api: status %d, want 404", tc.legacy, rec.Code)
		}
		if e := errEnvelope(t, rec); e.Code != serve.CodeLegacyRetired {
			t.Fatalf("%s: code %q, want %q", tc.legacy, e.Code, serve.CodeLegacyRetired)
		}
		link := rec.Header().Get("Link")
		if !strings.Contains(link, `rel="successor-version"`) || !strings.Contains(link, "/v1/") {
			t.Fatalf("%s: Link header %q must name the v1 successor", tc.legacy, link)
		}
		if v1 := get(h, tc.v1); v1.Code != http.StatusOK {
			t.Fatalf("%s: status %d, the successor must keep working", tc.v1, v1.Code)
		}
	}
}

// TestHandlerEventsBatch: POST /v1/events with the batch shape applies
// one coalesced recompute; a self-cancelling batch applies nothing; bad
// bodies answer the error envelope.
func TestHandlerEventsBatch(t *testing.T) {
	srv, h := httpFixture(t, nil)
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/events", strings.NewReader(body)))
		return rec
	}
	// Three raw events, one net toggle: arc 0's down+up cancels.
	rec := post(`{"events":[
		{"arc":0,"kind":"fail"},{"arc":1,"kind":"fail"},{"arc":0,"kind":"up"}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch POST: status %d: %s", rec.Code, rec.Body)
	}
	var reply serve.EventsReply
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Applied != 1 || reply.Coalesced != 2 {
		t.Fatalf("want 1 applied / 2 coalesced, got %+v", reply)
	}
	if st := srv.Stats(); st.DisabledArcs != 1 || st.BatchesApplied != 1 {
		t.Fatalf("batch must have applied once: %+v", st)
	}
	version := srv.Snapshot().Version
	// A batch that coalesces to nothing publishes nothing.
	rec = post(`{"events":[{"arc":2,"kind":"fail"},{"arc":2,"kind":"up"}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("no-op batch: status %d: %s", rec.Code, rec.Body)
	}
	if srv.Snapshot().Version != version {
		t.Fatal("no-op batch must not swap the snapshot")
	}
	// Error envelope on malformed and invalid bodies.
	for body, wantCode := range map[string]string{
		`{"events":[]}`: serve.CodeInvalidArgument,
		`{"events":[{"arc":9999,"kind":"fail"}]}`:  serve.CodeInvalidArgument,
		`{"events":[{"kind":"sideways","arc":0}]}`: serve.CodeInvalidArgument,
		`{"events":"nope"}`:                        serve.CodeInvalidArgument,
		`{"arc":0,"kind":"fail"}{"extra":1}`:       serve.CodeInvalidArgument,
	} {
		rec := post(body)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, rec.Code)
		}
		if e := errEnvelope(t, rec); e.Code != wantCode {
			t.Fatalf("body %q: code %q, want %q", body, e.Code, wantCode)
		}
	}
	// Oversized body: 413 with the payload_too_large code.
	huge := `{"events":[{"arc":0,"kind":"fail","pad":"` + strings.Repeat("x", 2<<20) + `"}]}`
	rec = post(huge)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("huge body: status %d, want 413", rec.Code)
	}
	if e := errEnvelope(t, rec); e.Code != serve.CodePayloadTooLarge {
		t.Fatalf("huge body: code %q", e.Code)
	}
}

// asyncFixture boots a server with a tiny hand-drained intake queue so
// the async HTTP path's backpressure statuses are deterministic.
func asyncFixture(t *testing.T, policy serve.Backpressure) (*serve.Server, *http.ServeMux) {
	t.Helper()
	a, err := core.InferString("lex(delay(16,3), hops(8))")
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	g := graph.Grid(r, 3, 3, graph.UniformLabels(a.OT.F.Size()))
	origins := map[int]value.V{0: value.Pair{A: 0, B: 0}}
	srv, err := serve.NewServer(serve.Config{Engine: exec.For(a.OT), Graph: g, Origins: origins},
		serve.WithWorkers(1), serve.WithoutBatcher(), serve.WithQueueCapacity(2), serve.WithBackpressure(policy))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, serve.NewHandler(srv, nil)
}

// TestHandlerEventsAsync: "async":true feeds the intake queue — 202
// with the accepted count, 429 with the backlogged code when the queue
// fills under the reject policy, 202 under the stale policy.
func TestHandlerEventsAsync(t *testing.T) {
	srv, h := asyncFixture(t, serve.BackpressureReject)
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/events", strings.NewReader(body)))
		return rec
	}
	rec := post(`{"events":[{"arc":0,"kind":"fail"},{"arc":1,"kind":"fail"}],"async":true}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("async batch: status %d: %s", rec.Code, rec.Body)
	}
	var reply serve.EventsReply
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Accepted != 2 || reply.Applied != 0 {
		t.Fatalf("async reply wrong: %+v", reply)
	}
	if srv.Stats().DisabledArcs != 0 {
		t.Fatal("async events must not apply synchronously")
	}
	// Queue is now full (cap 2, no batcher): the next async event is 429.
	rec = post(`{"events":[{"arc":2,"kind":"fail"}],"async":true}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, want 429: %s", rec.Code, rec.Body)
	}
	if e := errEnvelope(t, rec); e.Code != serve.CodeBacklogged {
		t.Fatalf("full queue: code %q, want %q", e.Code, serve.CodeBacklogged)
	}
	// Drain applies what was accepted.
	if err := srv.DrainForTest(); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.DisabledArcs != 2 || st.QueueDepth != 0 {
		t.Fatalf("post-drain stats wrong: %+v", st)
	}

	// Same overflow under the stale policy: absorbed, still 202.
	staleSrv, staleH := asyncFixture(t, serve.BackpressureStale)
	rec = httptest.NewRecorder()
	staleH.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/events",
		strings.NewReader(`{"events":[{"arc":0,"kind":"fail"},{"arc":1,"kind":"fail"},{"arc":2,"kind":"fail"}],"async":true}`)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("stale overflow: status %d: %s", rec.Code, rec.Body)
	}
	if err := staleSrv.DrainForTest(); err != nil {
		t.Fatal(err)
	}
	if st := staleSrv.Stats(); st.DisabledArcs != 3 || st.EventsRejected != 0 {
		t.Fatalf("stale drain must apply everything: %+v", st)
	}
}
