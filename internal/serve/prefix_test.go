package serve_test

// Tests for the prefix destination plane in the serve layer: address-
// and prefix-form route queries must answer bit-identically to the
// node-keyed path, aggregation must suppress same-anchor
// more-specifics, and the snapshot footprint gauges must be visible in
// /v1/stats and /v1/metrics.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/rib"
	"metarouting/internal/serve"
	"metarouting/internal/solve"
	"metarouting/internal/telemetry"
	"metarouting/internal/value"
)

// prefixServer boots a server over explicit prefix announcements on a
// 16-node ring with a compiled delay algebra.
func prefixServer(t *testing.T, announced []rib.PrefixOrigin, opts ...serve.Option) *serve.Server {
	t.Helper()
	a, err := core.InferString("delay(16,3)")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Ring(rand.New(rand.NewSource(11)), 16, graph.UniformLabels(a.OT.F.Size()))
	srv, err := serve.NewServer(serve.Config{Engine: exec.For(a.OT, 0), Graph: g},
		append([]serve.Option{serve.WithAnnouncements(announced)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

func mustPrefix(t *testing.T, s string) rib.Prefix {
	t.Helper()
	p, err := rib.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPrefixQueryDifferential is the serve-level acceptance check:
// /v1/route answered via prefix= and addr= must be byte-identical to
// the node-keyed dest= reply (apart from the echoed query fields).
func TestPrefixQueryDifferential(t *testing.T) {
	srv := prefixServer(t, []rib.PrefixOrigin{
		{Prefix: mustPrefix(t, "10.0.0.0/8"), Node: 0, Origin: 0},
		{Prefix: mustPrefix(t, "172.16.0.0/12"), Node: 5, Origin: 0},
	})
	h := serve.NewHandler(srv, nil)
	get := func(url string) serve.RouteReply {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", url, rec.Code, rec.Body)
		}
		var reply serve.RouteReply
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Fatal(err)
		}
		return reply
	}
	for from := 0; from < 16; from++ {
		for _, tc := range []struct {
			dest   int
			prefix string
			addr   string
		}{
			{0, "10.3.0.0/16", "10.99.1.2"},
			{5, "172.16.5.0/24", "172.17.0.9"},
		} {
			node := get(fmt.Sprintf("/v1/route?from=%d&dest=%d", from, tc.dest))
			byPrefix := get(fmt.Sprintf("/v1/route?from=%d&prefix=%s", from, tc.prefix))
			byAddr := get(fmt.Sprintf("/v1/route?from=%d&addr=%s", from, tc.addr))
			for _, got := range []serve.RouteReply{byPrefix, byAddr} {
				if got.Dest != tc.dest || got.Routed != node.Routed || got.Weight != node.Weight ||
					fmt.Sprint(got.ECMP) != fmt.Sprint(node.ECMP) || fmt.Sprint(got.Path) != fmt.Sprint(node.Path) {
					t.Fatalf("from %d: prefix-plane reply %+v diverges from node-keyed %+v", from, got, node)
				}
			}
			if byPrefix.Matched == "" || byAddr.Matched == "" {
				t.Fatalf("prefix-plane replies must echo the matched prefix: %+v / %+v", byPrefix, byAddr)
			}
		}
	}
	// Unannounced space answers routed=false with an explanation, not an
	// HTTP error.
	miss := get("/v1/route?from=1&addr=192.168.0.1")
	if miss.Routed || miss.Err == "" || miss.Dest != -1 {
		t.Fatalf("unannounced address: %+v", miss)
	}
	// Malformed prefixes are 400s.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/route?from=1&prefix=10.0.0.0/40", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad prefix: code %d", rec.Code)
	}
}

// TestPrefixSuppression checks DoubleZero-style aggregation end to
// end: a /32 covered by a same-anchor prefix is suppressed (no extra
// destination column) yet still resolves through the cover.
func TestPrefixSuppression(t *testing.T) {
	srv := prefixServer(t, []rib.PrefixOrigin{
		{Prefix: mustPrefix(t, "10.0.0.0/8"), Node: 0, Origin: 0},
		{Prefix: mustPrefix(t, "10.1.2.3/32"), Node: 0, Origin: 0}, // suppressed
		{Prefix: mustPrefix(t, "10.9.0.0/16"), Node: 3, Origin: 0}, // kept: different anchor
	})
	st := srv.Stats()
	if st.Prefixes != 2 || st.SuppressedPrefixes != 1 {
		t.Fatalf("prefixes = %d suppressed = %d, want 2/1", st.Prefixes, st.SuppressedPrefixes)
	}
	if st.Destinations != 2 {
		t.Fatalf("destinations = %d, want 2 (anchors only)", st.Destinations)
	}
	sn := srv.Snapshot()
	if po, ok := sn.MatchAddr(mustPrefix(t, "10.1.2.3").Addr); !ok || po.Node != 0 {
		t.Fatalf("suppressed /32 must resolve through its cover: %+v %v", po, ok)
	}
	if po, ok := sn.MatchAddr(mustPrefix(t, "10.9.1.1").Addr); !ok || po.Node != 3 {
		t.Fatalf("more-specific with a different anchor must win: %+v %v", po, ok)
	}
	// /v1/prefixes lists both kept and suppressed announcements.
	h := serve.NewHandler(srv, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/prefixes", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/prefixes = %d", rec.Code)
	}
	var listing struct {
		TrieNodes int                 `json:"trie_nodes"`
		Prefixes  []serve.PrefixReply `json:"prefixes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Prefixes) != 3 || listing.TrieNodes <= 0 {
		t.Fatalf("listing = %+v", listing)
	}
	suppressed := 0
	for _, p := range listing.Prefixes {
		if p.Suppressed {
			suppressed++
		}
	}
	if suppressed != 1 {
		t.Fatalf("listing marks %d suppressed, want 1", suppressed)
	}
}

// TestConflictingAnnouncements pins the validation errors.
func TestConflictingAnnouncements(t *testing.T) {
	a, err := core.InferString("delay(16,3)")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Ring(rand.New(rand.NewSource(2)), 8, graph.UniformLabels(a.OT.F.Size()))
	boot := func(announced []rib.PrefixOrigin) error {
		srv, err := serve.NewServer(serve.Config{Engine: exec.For(a.OT, 0), Graph: g}, serve.WithAnnouncements(announced))
		if err == nil {
			srv.Close()
		}
		return err
	}
	if err := boot([]rib.PrefixOrigin{
		{Prefix: rib.MakePrefix(10<<24, 8), Node: 1, Origin: 0},
		{Prefix: rib.MakePrefix(10<<24, 8), Node: 2, Origin: 0},
	}); err == nil {
		t.Fatal("conflicting anchors must error")
	}
	if err := boot([]rib.PrefixOrigin{
		{Prefix: rib.MakePrefix(10<<24, 8), Node: 99, Origin: 0},
	}); err == nil {
		t.Fatal("out-of-range anchor must error")
	}
}

// TestAutoPrefixPlane checks that node-keyed servers get the synthetic
// 10/8 auto-prefix plane for free.
func TestAutoPrefixPlane(t *testing.T) {
	a, err := core.InferString("delay(16,3)")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Ring(rand.New(rand.NewSource(4)), 12, graph.UniformLabels(a.OT.F.Size()))
	srv, err := serve.NewServer(serve.Config{Engine: exec.For(a.OT, 0), Graph: g, Origins: map[int]value.V{0: 0, 7: 0}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sn := srv.Snapshot()
	if po, ok := sn.MatchAddr(rib.AutoPrefix(7).Addr); !ok || po.Node != 7 {
		t.Fatalf("auto prefix for node 7: %+v %v", po, ok)
	}
	h := serve.NewHandler(srv, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/route?from=3&addr=10.0.0.7", nil))
	var reply serve.RouteReply
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Dest != 7 || !reply.Routed {
		t.Fatalf("addr-form query on a node-keyed server: %+v", reply)
	}
}

// TestFootprintGauges checks the memory gauges surface in /v1/stats
// and /v1/metrics and stay consistent across an event-driven swap.
func TestFootprintGauges(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := prefixServer(t, []rib.PrefixOrigin{
		{Prefix: mustPrefix(t, "10.0.0.0/8"), Node: 0, Origin: 0},
		{Prefix: mustPrefix(t, "11.0.0.0/8"), Node: 5, Origin: 0},
	}, serve.WithRegistry(reg))
	st := srv.Stats()
	sn := srv.Snapshot()
	if st.ArenaBytes <= 0 || st.ArenaBytes != sn.ArenaBytes() {
		t.Fatalf("ArenaBytes = %d (snapshot %d)", st.ArenaBytes, sn.ArenaBytes())
	}
	if st.LiveEntries != 32 { // 2 destinations × 16-node ring, all routed
		t.Fatalf("LiveEntries = %d, want 32", st.LiveEntries)
	}
	if st.TrieNodes <= 0 || st.TrieNodes != sn.TrieNodes() {
		t.Fatalf("TrieNodes = %d (snapshot %d)", st.TrieNodes, sn.TrieNodes())
	}
	h := serve.NewHandler(srv, reg)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	body := rec.Body.String()
	for _, metric := range []string{
		"mrserve_snapshot_arena_bytes",
		"mrserve_snapshot_live_entries",
		"mrserve_snapshot_trie_nodes",
		"mrserve_prefixes",
	} {
		if !strings.Contains(body, metric) {
			t.Fatalf("/v1/metrics missing %s", metric)
		}
	}
}

// TestAutoPrefixResolvesEveryDest is the LPM differential at scale: on
// a 1 000-node scale-free graph where every node is a destination, each
// destination's auto-prefix /32 resolves through the trie to exactly its
// own node, and the column the snapshot holds for the match is that
// destination's, equal to the naive flat build of it.
func TestAutoPrefixResolvesEveryDest(t *testing.T) {
	a, err := core.InferString("delay(16,3)")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := exec.Compile(a.OT)
	if err != nil {
		t.Fatal(err)
	}
	const nodes = 1000
	g := graph.ScaleFree(rand.New(rand.NewSource(9)), nodes, 2, graph.UniformLabels(a.OT.F.Size()))
	origins := make(map[int]value.V, nodes)
	for d := 0; d < nodes; d++ {
		origins[d] = 0
	}
	srv, err := serve.NewServer(serve.Config{Engine: eng, Graph: g, Origins: origins}, serve.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sn := srv.Snapshot()
	if got := sn.Prefixes().Len(); got != nodes {
		t.Fatalf("%d auto-prefixes for %d destinations", got, nodes)
	}
	ws := solve.NewWorkspace()
	for d := 0; d < nodes; d++ {
		p := rib.AutoPrefix(d)
		match, ok := sn.MatchAddr(p.Addr)
		if !ok || match.Node != d || match.Prefix != p {
			t.Fatalf("auto-prefix %v of destination %d matched %+v (ok=%v)", p, d, match, ok)
		}
		col := sn.Column(match.Node)
		if col == nil || col.Dest != d {
			t.Fatalf("destination %d: the match's column is %+v", d, col)
		}
		want, err := rib.BuildDestColumn(eng, g, d, 0, ws)
		if err != nil {
			t.Fatal(err)
		}
		if got := col.Flatten(); !reflect.DeepEqual(got, want) {
			t.Fatalf("destination %d: served column differs from the naive build", d)
		}
	}
}
