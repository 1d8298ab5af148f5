package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/replica"
	"metarouting/internal/serve"
	"metarouting/internal/serve/wire"
	"metarouting/internal/solve"
	"metarouting/internal/telemetry"
	"metarouting/internal/value"
)

// bootReplicatedPair builds a leader with a capture sink, applies a few
// events, and a follower fed from the captured frames.
func bootReplicatedPair(t *testing.T) (*serve.Server, *serve.Follower, *captureSink) {
	t.Helper()
	a, err := core.InferString("lex(delay(16,3), hops(8))")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Grid(rand.New(rand.NewSource(11)), 3, 3, graph.UniformLabels(a.OT.F.Size()))
	origin := a.OT.Carrier().Elems[0]
	sink := &captureSink{}
	srv, err := serve.NewServer(serve.Config{Engine: exec.NewDynamic(a.OT), Graph: g, Origins: map[int]value.V{0: origin, 4: origin}},
		serve.WithReplication(sink))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	for arc := 0; arc < 3; arc++ {
		if _, _, err := srv.ApplyEvent(context.Background(), arc, true); err != nil {
			t.Fatal(err)
		}
	}
	fol := serve.NewFollower(telemetry.NewRegistry())
	for _, frame := range sink.take() {
		rec, err := replica.DecodeRecord(frame)
		if err != nil {
			t.Fatal(err)
		}
		if err := fol.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	return srv, fol, sink
}

// TestFollowerHandlerParity: the follower's read endpoints answer
// byte-identically to the leader's at the same version.
func TestFollowerHandlerParity(t *testing.T) {
	srv, fol, _ := bootReplicatedPair(t)
	leader := serve.NewHandler(srv, nil)
	follower := serve.NewFollowerHandler(fol, nil)
	if fol.Version() != srv.Snapshot().Version {
		t.Fatalf("follower v%d, leader v%d", fol.Version(), srv.Snapshot().Version)
	}
	for _, url := range []string{
		"/v1/route?from=8&dest=0",
		"/v1/route?from=8&dest=4",
		"/v1/route?from=3&addr=10.0.0.4",
		"/v1/route?from=3&prefix=10.0.0.0/16",
		"/v1/route?from=99&dest=0", // out of range: same 400 envelope
		"/v1/paths?dest=0",
		"/v1/prefixes",
	} {
		lw, fw := httptest.NewRecorder(), httptest.NewRecorder()
		leader.ServeHTTP(lw, httptest.NewRequest("GET", url, nil))
		follower.ServeHTTP(fw, httptest.NewRequest("GET", url, nil))
		if lw.Code != fw.Code || lw.Body.String() != fw.Body.String() {
			t.Fatalf("%s diverges:\nleader   %d %s\nfollower %d %s",
				url, lw.Code, lw.Body.String(), fw.Code, fw.Body.String())
		}
	}
	// POST /v1/routes parity, both content types: the batch plane pins
	// the follower's replicated state and must answer the leader's exact
	// bytes — JSON results and binary frames alike.
	jsonBody, err := json.Marshal(serve.BatchRequest{Queries: []serve.BatchQuery{
		{From: 8, Dest: intp(0)}, {From: 8, Dest: intp(4)},
		{From: 3, Addr: "10.0.0.4"}, {From: 3, Prefix: "10.0.0.0/32"},
		{From: 5, Addr: "10.0.0.7"}, // uncovered
	}})
	if err != nil {
		t.Fatal(err)
	}
	wireBody, err := wire.AppendQueryRequest(nil, []wire.Query{
		{Kind: wire.QueryDest, From: 8, Arg: 0},
		{Kind: wire.QueryDest, From: 8, Arg: 4},
		{Kind: wire.QueryAddr, From: 3, Arg: 10<<24 | 4},
		{Kind: wire.QueryPrefix, From: 3, Arg: 10 << 24, PLen: 32},
		{Kind: wire.QueryAddr, From: 5, Arg: 10<<24 | 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, post := range map[string]struct {
		ct   string
		body []byte
	}{
		"json": {"application/json", jsonBody},
		"wire": {wire.ContentType, wireBody},
	} {
		lw, fw := httptest.NewRecorder(), httptest.NewRecorder()
		for rec, h := range map[*httptest.ResponseRecorder]*http.ServeMux{lw: leader, fw: follower} {
			req := httptest.NewRequest("POST", "/v1/routes", bytes.NewReader(post.body))
			req.Header.Set("Content-Type", post.ct)
			h.ServeHTTP(rec, req)
		}
		if lw.Code != 200 || lw.Code != fw.Code || lw.Body.String() != fw.Body.String() {
			t.Fatalf("batch %s diverges:\nleader   %d %q\nfollower %d %q",
				name, lw.Code, lw.Body.String(), fw.Code, fw.Body.String())
		}
	}
}

// intp is a literal-pointer helper for BatchQuery.Dest.
func intp(v int) *int { return &v }

// TestVersionGate: read-your-version on both roles — a version= beyond
// the served snapshot answers 404 with current_version; at or below it
// answers normally; garbage is a 400.
func TestVersionGate(t *testing.T) {
	srv, fol, _ := bootReplicatedPair(t)
	cur := srv.Snapshot().Version
	muxes := map[string]*http.ServeMux{
		"leader":   serve.NewHandler(srv, nil),
		"follower": serve.NewFollowerHandler(fol, nil),
	}
	for name, mux := range muxes {
		// Satisfied (at or below): normal answer carrying the version.
		for _, v := range []uint64{cur, cur - 1, 1} {
			w := httptest.NewRecorder()
			mux.ServeHTTP(w, httptest.NewRequest("GET", "/v1/route?from=1&dest=0&version="+strconv.FormatUint(v, 10), nil))
			if w.Code != 200 {
				t.Fatalf("%s version=%d: got %d: %s", name, v, w.Code, w.Body.String())
			}
		}
		// Ahead: 404 with the version_behind envelope and current_version.
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest("GET", "/v1/route?from=1&dest=0&version="+strconv.FormatUint(cur+5, 10), nil))
		if w.Code != 404 {
			t.Fatalf("%s ahead: got %d: %s", name, w.Code, w.Body.String())
		}
		var behind struct {
			Error          serve.APIError `json:"error"`
			CurrentVersion uint64         `json:"current_version"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &behind); err != nil {
			t.Fatalf("%s ahead body: %v", name, err)
		}
		if behind.Error.Code != serve.CodeVersionBehind || behind.CurrentVersion != cur {
			t.Fatalf("%s ahead envelope: %+v", name, behind)
		}
		// Garbage: 400.
		w = httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest("GET", "/v1/route?from=1&dest=0&version=soon", nil))
		if w.Code != 400 {
			t.Fatalf("%s garbage version: got %d", name, w.Code)
		}
	}
}

// TestFollowerNotReadyAndReadOnly: data endpoints 503 before bootstrap,
// mutations always 403.
func TestFollowerNotReadyAndReadOnly(t *testing.T) {
	mux := serve.NewFollowerHandler(serve.NewFollower(nil), nil)
	for _, url := range []string{"/v1/route?from=0&dest=1", "/v1/paths?dest=0", "/v1/prefixes"} {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest("GET", url, nil))
		if w.Code != 503 || !strings.Contains(w.Body.String(), serve.CodeNotReady) {
			t.Fatalf("%s before bootstrap: got %d: %s", url, w.Code, w.Body.String())
		}
	}
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest("POST", "/v1/events", strings.NewReader(`{"arc":0,"kind":"fail"}`)))
	if w.Code != 403 || !strings.Contains(w.Body.String(), serve.CodeReadOnly) {
		t.Fatalf("events on follower: got %d: %s", w.Code, w.Body.String())
	}
	// /v1/stats answers even before bootstrap (role visible, version 0).
	w = httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest("GET", "/v1/stats", nil))
	var fs serve.FollowerStats
	if err := json.Unmarshal(w.Body.Bytes(), &fs); err != nil || fs.Role != "follower" || fs.SnapshotVersion != 0 {
		t.Fatalf("stats before bootstrap: %d %s (%v)", w.Code, w.Body.String(), err)
	}
}

// TestFollowerRejectsDivergentToggles: the leader ships each toggle so
// that it flips exactly one arc exactly once, so a delta whose toggle
// leaves its arc as it was, or names an arc twice, says the follower's
// mask has diverged. The follower must refuse it — counted in
// apply_errors, the served version, checksum and disabled_arcs as they
// were — and still take the leader's next real delta.
func TestFollowerRejectsDivergentToggles(t *testing.T) {
	srv, fol, sink := bootReplicatedPair(t) // arcs 0, 1 and 2 down
	mux := serve.NewFollowerHandler(fol, nil)
	st := fol.State()
	version, crc, down := fol.Version(), fol.Checksum(), statsDisabledArcs(mux)
	if down != 3 {
		t.Fatalf("follower serves disabled_arcs=%d, want 3", down)
	}
	for name, toggles := range map[string][]solve.ArcToggle{
		"fail a failed arc":          {{Arc: 5, Down: true}, {Arc: 0, Down: true}},
		"restore a live arc":         {{Arc: 5, Down: false}},
		"the same arc twice":         {{Arc: 5, Down: true}, {Arc: 5, Down: true}},
		"an arc failed and restored": {{Arc: 5, Down: true}, {Arc: 5, Down: false}},
		"an arc restored and failed": {{Arc: 1, Down: false}, {Arc: 1, Down: true}},
	} {
		frame := replica.EncodeDelta(&replica.Delta{FromVersion: version, Version: version + 1,
			Fingerprint: st.Fingerprint, Toggles: toggles, NameBase: len(st.Names)})
		rec, err := replica.DecodeRecord(frame)
		if err != nil {
			t.Fatal(err)
		}
		errorsBefore := fol.StatsReply().ApplyErrors
		if err := fol.Apply(rec); err == nil {
			t.Fatalf("%s: delta applied", name)
		}
		if got := fol.StatsReply().ApplyErrors; got != errorsBefore+1 {
			t.Fatalf("%s: apply_errors %d → %d, want one more", name, errorsBefore, got)
		}
		if fol.Version() != version || fol.Checksum() != crc || statsDisabledArcs(mux) != down {
			t.Fatalf("%s: follower moved to v%d crc %08x disabled_arcs %d, was v%d %08x %d", name,
				fol.Version(), fol.Checksum(), statsDisabledArcs(mux), version, crc, down)
		}
	}
	if _, _, err := srv.ApplyEvent(context.Background(), 1, false); err != nil {
		t.Fatal(err)
	}
	for _, frame := range sink.take() {
		rec, err := replica.DecodeRecord(frame)
		if err != nil {
			t.Fatal(err)
		}
		if err := fol.Apply(rec); err != nil {
			t.Fatalf("leader delta after the refusals: %v", err)
		}
	}
	if fol.Version() != srv.Snapshot().Version || fol.Checksum() != srv.Checksum() || statsDisabledArcs(mux) != 2 {
		t.Fatalf("follower v%d crc %08x disabled_arcs %d, leader v%d %08x", fol.Version(), fol.Checksum(),
			statsDisabledArcs(mux), srv.Snapshot().Version, srv.Checksum())
	}
}

// TestScrapePinsSnapshotVersion is the regression test for the
// /v1/stats-vs-/v1/metrics inconsistency: snapshot-derived gauges are
// read lazily one after another during a render, so a swap racing the
// scrape used to let gauges that sort after mrserve_snapshot_version
// report a newer generation than it. The scrape hook now pins one
// snapshot for the whole render; this test forces the worst case by
// registering a gauge that sorts FIRST and applies an event when read —
// the later mrserve_snapshot_version reading must still be the pinned,
// pre-swap version.
func TestScrapePinsSnapshotVersion(t *testing.T) {
	a, err := core.InferString("hops(8)")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Ring(rand.New(rand.NewSource(12)), 6, graph.UniformLabels(a.OT.F.Size()))
	reg := telemetry.NewRegistry()
	srv, err := serve.NewServer(serve.Config{Engine: exec.NewDynamic(a.OT), Graph: g, Origins: map[int]value.V{0: a.OT.Carrier().Elems[0]}},
		serve.WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	arc := 0
	reg.AddGaugeFunc("aaa_swap_trigger", "test-only: swaps a snapshot mid-scrape", func() float64 {
		srv.ApplyEvent(context.Background(), arc, true) //nolint:errcheck
		arc++
		return 0
	})
	before := srv.Snapshot().Version
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if got := srv.Snapshot().Version; got == before {
		t.Fatalf("trigger gauge did not swap a snapshot (still v%d)", got)
	}
	var rendered uint64
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "mrserve_snapshot_version ") {
			v, err := strconv.ParseUint(strings.Fields(line)[1], 10, 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			rendered = v
		}
	}
	if rendered != before {
		t.Fatalf("scrape rendered v%d; pinned pre-scrape version was v%d", rendered, before)
	}
}
