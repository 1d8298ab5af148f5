package serve_test

// Tests and fuzz targets for the HTTP/JSON API. The fuzz targets state
// the handlers' crash-safety contract: arbitrary query strings and
// bodies — malformed JSON, out-of-range node ids, huge payloads — must
// produce 4xx (or well-formed 2xx) replies and never panic. CI runs
// them as regression corpora under `go test` and as short live fuzz
// sessions in the fuzz-smoke job.

import (
	"bytes"
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

// httpFixture boots a small deterministic server and its handler.
func httpFixture(t testing.TB, reg *telemetry.Registry) (*serve.Server, *http.ServeMux) {
	a, err := core.InferString("lex(delay(16,3), hops(8))")
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	g := graph.Grid(r, 3, 3, graph.UniformLabels(a.OT.F.Size()))
	origins := map[int]value.V{0: value.Pair{A: 0, B: 0}, 8: value.Pair{A: 2, B: 1}}
	srv, err := serve.NewServer(serve.Config{Engine: exec.For(a.OT), Graph: g, Origins: origins}, serve.WithWorkers(2), serve.WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, serve.NewHandler(srv, reg)
}

func get(h http.Handler, target string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec
}

func TestHandlerRoute(t *testing.T) {
	srv, h := httpFixture(t, nil)
	rec := get(h, "/v1/route?from=1&dest=0")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var reply serve.RouteReply
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
		t.Fatal(err)
	}
	if !reply.Routed || len(reply.Path) == 0 {
		t.Fatalf("node 1 must route to 0: %+v", reply)
	}
	// Out-of-range and malformed ids are client errors, not empty 200s.
	for _, target := range []string{
		"/v1/route?from=999&dest=0", "/v1/route?from=-1&dest=0", "/v1/route?from=1&dest=99",
		"/v1/route?from=x&dest=0", "/v1/route?dest=0", "/v1/route",
		"/v1/paths?dest=999", "/v1/paths?dest=y", "/v1/paths",
	} {
		if rec := get(h, target); rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", target, rec.Code)
		}
	}
	// In-range but unoriginated destination: valid question, empty answer.
	rec = get(h, "/v1/route?from=1&dest=3")
	if rec.Code != http.StatusOK {
		t.Fatalf("unoriginated dest: status %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || reply.Routed {
		t.Fatalf("unoriginated dest must answer routed=false: %+v (%v)", reply, err)
	}
	// /v1/paths lists forwarding walks; it answers no route query.
	before := srv.Stats().Queries
	if rec := get(h, "/v1/paths?dest=0"); rec.Code != http.StatusOK || srv.Stats().Queries != before {
		t.Fatalf("/v1/paths: status %d, queries %d → %d", rec.Code, before, srv.Stats().Queries)
	}
	// Only /v1 is served: an unversioned spelling is the mux's plain 404.
	for _, target := range []string{"/route?from=1&dest=0", "/paths?dest=0", "/event?arc=0&kind=up", "/stats"} {
		if rec := get(h, target); rec.Code != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", target, rec.Code)
		}
	}
}

func TestHandlerEventPost(t *testing.T) {
	srv, h := httpFixture(t, nil)
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/events", strings.NewReader(body))
		h.ServeHTTP(rec, req)
		return rec
	}
	if rec := post(`{"arc":0,"kind":"fail"}`); rec.Code != http.StatusOK {
		t.Fatalf("valid POST: status %d: %s", rec.Code, rec.Body)
	}
	if got := srv.Stats().DisabledArcs; got != 1 {
		t.Fatalf("event must have applied: %d disabled arcs", got)
	}
	for _, body := range []string{
		``, `{`, `[]`, `{"kind":"sideways","arc":0}`, `{"kind":"fail"}`,
		`{"kind":"fail","arc":99999}`, `{"kind":"up","from":1}`,
		`{"kind":"fail","arc":0,"extra":true}`,
	} {
		if rec := post(body); rec.Code < 400 || rec.Code >= 500 {
			t.Fatalf("body %q: status %d, want 4xx", body, rec.Code)
		}
	}
	// A huge payload must be rejected, never buffered into a panic/5xx.
	huge := `{"kind":"fail","arc":0,"pad":"` + strings.Repeat("x", 2<<20) + `"}`
	if rec := post(huge); rec.Code < 400 || rec.Code >= 500 {
		t.Fatalf("huge body: status %d, want 4xx", rec.Code)
	}
	// GET form still works, endpoints variant included.
	if rec := get(h, "/v1/events?arc=0&kind=up"); rec.Code != http.StatusOK {
		t.Fatalf("GET event: status %d: %s", rec.Code, rec.Body)
	}
	if rec := get(h, "/v1/events?from=0&to=5&kind=fail"); rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
		t.Fatalf("GET endpoints event: status %d", rec.Code)
	}
}

// TestHandlerEventGetNamesFirstBadParam: the GET form of /v1/events
// parses arc, from and to in that order, so with two malformed
// parameters the 400 names "arc" on every request.
func TestHandlerEventGetNamesFirstBadParam(t *testing.T) {
	_, h := httpFixture(t, nil)
	for i := 0; i < 20; i++ {
		rec := get(h, "/v1/events?arc=x&from=y&kind=fail")
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("request %d: status %d, want 400", i, rec.Code)
		}
		if msg := errEnvelope(t, rec).Message; !strings.Contains(msg, `"arc"`) || strings.Contains(msg, `"from"`) {
			t.Fatalf("request %d: message %q must name \"arc\"", i, msg)
		}
	}
}

func TestHandlerStatsAndSlowlog(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, h := httpFixture(t, reg)
	rec := get(h, "/v1/stats")
	var st serve.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Nodes != 9 || st.Destinations != 2 {
		t.Fatalf("stats wrong: %+v", st)
	}
	rec = get(h, "/v1/slowlog")
	var slow []serve.SlowQuery
	if err := json.Unmarshal(rec.Body.Bytes(), &slow); err != nil {
		t.Fatalf("slowlog must be a JSON array: %v (%s)", err, rec.Body)
	}
	rec = get(h, "/v1/metrics")
	if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte("mrserve_query_seconds_bucket")) {
		t.Fatalf("/v1/metrics must expose the query histogram: %d\n%s", rec.Code, rec.Body)
	}
}

// FuzzRouteHandler: arbitrary /v1/route and /v1/paths query strings on
// the follower's handler never panic and never produce a 5xx
// (FuzzRouteHandlerV1 fuzzes the same routes on the leader's).
func FuzzRouteHandler(f *testing.F) {
	_, fol, _ := bootReplicatedPair(f)
	h := serve.NewFollowerHandler(fol, nil)
	for _, seed := range []string{
		"from=1&dest=0", "from=999&dest=0", "from=-1&dest=-9999999999999999999",
		"from=x&dest=", "from=1&dest=0&from=2", "%zz=1", "from=+1&dest=0x10",
		"from=1;dest=0", "", "dest=8&from=4", "dest=1", "dest=4&version=99",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, query string) {
		for _, path := range []string{"/v1/route", "/v1/paths"} {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodGet, path, nil)
			req.URL.RawQuery = query
			h.ServeHTTP(rec, req)
			if rec.Code >= 500 {
				t.Fatalf("%s?%s: status %d", path, query, rec.Code)
			}
			if rec.Code == http.StatusOK && !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("%s?%s: 200 with invalid JSON: %s", path, query, rec.Body)
			}
		}
	})
}

// FuzzEventHandler: arbitrary /v1/events query strings and POST bodies
// sent to a follower always answer 403 read_only and leave its version
// and checksum as they were (FuzzEventsHandlerV1 fuzzes the leader's).
func FuzzEventHandler(f *testing.F) {
	_, fol, _ := bootReplicatedPair(f)
	h := serve.NewFollowerHandler(fol, nil)
	version, crc := fol.Version(), fol.Checksum()
	for _, seed := range [][2]string{
		{"arc=0&kind=fail", ""},
		{"", `{"arc":0,"kind":"fail"}`},
		{"", `{"from":0,"to":5,"kind":"up"}`},
		{"", `{"arc":18446744073709551615,"kind":"fail"}`},
		{"", `{"arc":0,"kind":"fail","pad":"` + strings.Repeat("y", 4096) + `"}`},
		{"kind=fail&from=0", `not json at all`},
		{"arc=-1&kind=up", `{"kind":`},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, query, body string) {
		rec := httptest.NewRecorder()
		method := http.MethodGet
		if body != "" {
			method = http.MethodPost
		}
		req := httptest.NewRequest(method, "/v1/events", strings.NewReader(body))
		req.URL.RawQuery = query
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusForbidden || !strings.Contains(rec.Body.String(), serve.CodeReadOnly) {
			t.Fatalf("event %q %q: status %d: %s", query, body, rec.Code, rec.Body)
		}
		if fol.Version() != version || fol.Checksum() != crc {
			t.Fatalf("event %q %q moved the follower", query, body)
		}
	})
}

// FuzzRouteHandlerV1 is FuzzRouteHandler over the versioned spellings:
// /v1/route and /v1/paths must never 500 and must answer valid JSON on
// 200, whatever the query string holds.
func FuzzRouteHandlerV1(f *testing.F) {
	_, h := httpFixture(f, nil)
	for _, seed := range []string{
		"from=1&dest=0", "from=999&dest=0", "from=-1&dest=-9999999999999999999",
		"from=x&dest=", "from=1&dest=0&from=2", "%zz=1", "from=+1&dest=0x10",
		"from=1;dest=0", "", "dest=8&from=4",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, query string) {
		for _, path := range []string{"/v1/route", "/v1/paths"} {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodGet, path, nil)
			req.URL.RawQuery = query
			h.ServeHTTP(rec, req)
			if rec.Code >= 500 {
				t.Fatalf("%s?%s: status %d", path, query, rec.Code)
			}
			if rec.Code == http.StatusOK && !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("%s?%s: 200 with invalid JSON: %s", path, query, rec.Body)
			}
		}
	})
}

// FuzzEventsHandlerV1 throws arbitrary query strings and JSON bodies —
// batch envelopes, bare events, async requests, garbage — at the
// versioned /v1/events endpoint: no 500s, and the server must keep
// serving snapshots afterwards.
func FuzzEventsHandlerV1(f *testing.F) {
	srv, h := httpFixture(f, nil)
	for _, seed := range [][2]string{
		{"arc=0&kind=fail", ""},
		{"", `{"events":[{"arc":0,"kind":"fail"},{"arc":1,"kind":"up"}]}`},
		{"", `{"events":[{"arc":0,"kind":"fail"}],"async":true}`},
		{"", `{"events":[]}`},
		{"", `{"events":null,"async":true}`},
		{"", `{"arc":0,"kind":"fail"}`},
		{"", `{"from":0,"to":5,"kind":"up"}`},
		{"", `{"events":[{"arc":18446744073709551615,"kind":"fail"}]}`},
		{"", `{"events":[{"arc":0,"kind":"` + strings.Repeat("z", 4096) + `"}]}`},
		{"kind=fail&from=0", `not json at all`},
		{"arc=-1&kind=up", `{"events":[`},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, query, body string) {
		rec := httptest.NewRecorder()
		method := http.MethodGet
		if body != "" {
			method = http.MethodPost
		}
		req := httptest.NewRequest(method, "/v1/events", strings.NewReader(body))
		req.URL.RawQuery = query
		h.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("events %q %q: status %d", query, body, rec.Code)
		}
		if sn := srv.Snapshot(); sn == nil {
			t.Fatal("snapshot lost after events")
		}
		srv.Lookup(0, 0)
	})
}
