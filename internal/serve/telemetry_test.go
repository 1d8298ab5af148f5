package serve_test

// Integration tests for the serve-side telemetry: the query histogram,
// the slow-query ring, route-flap counting and the solver stage
// counters, all observed through the Prometheus exposition the way an
// operator would.

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/serve"
	"metarouting/internal/telemetry"
	"metarouting/internal/value"
)

// metricValue extracts a sample by exact line prefix ("name " or
// "name{labels} ") from a Prometheus exposition dump.
func metricValue(t *testing.T, dump, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(dump, "\n") {
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("metric %s: bad sample %q: %v", name, line, err)
		}
		return v
	}
	t.Fatalf("metric %s not found in exposition:\n%s", name, dump)
	return 0
}

func TestServeTelemetry(t *testing.T) {
	a, err := core.InferString("lex(delay(16,3), hops(8))")
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	g := graph.Grid(r, 4, 4, graph.UniformLabels(a.OT.F.Size()))
	origins := map[int]value.V{0: value.Pair{A: 0, B: 0}, 15: value.Pair{A: 1, B: 0}}
	reg := telemetry.NewRegistry()
	srv, err := serve.NewServer(serve.Config{Engine: exec.For(a.OT), Graph: g, Origins: origins},
		serve.WithWorkers(2), serve.WithRegistry(reg), serve.WithSlowQuery(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	dump := func() string {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	// The query path samples 1 in 16 resolutions into the histogram (and
	// the slow log): every 16th add of the query counter's stripe the
	// calling goroutine hashes to. 1 600 calls from one goroutine sample
	// 100, fewer by up to 15 for each time its stack moves to another
	// stripe between calls; the test wants 50–150, not the exact count. The
	// queries counter still sees every call.
	const queries = 1600
	for i := 0; i < queries; i++ {
		if _, err := srv.Forward(i%g.N, 0); err != nil {
			t.Fatalf("forward %d: %v", i, err)
		}
	}
	d := dump()
	if got := metricValue(t, d, "mrserve_queries_total"); got != queries {
		t.Fatalf("queries_total = %v, want %d", got, queries)
	}
	sampled := int(metricValue(t, d, "mrserve_query_seconds_count"))
	if sampled < 50 || sampled > 150 {
		t.Fatalf("query histogram count = %d of %d queries, want about 1 in 16", sampled, queries)
	}
	if got := metricValue(t, d, `mrserve_query_seconds_bucket{le="+Inf"}`); got != float64(sampled) {
		t.Fatalf("+Inf bucket = %v, want %d", got, sampled)
	}
	// Snapshot building ran the solver through instrumented workspaces.
	if got := metricValue(t, d, "mrserve_solve_runs_total"); got < 2 {
		t.Fatalf("solve runs = %v, want ≥ number of destinations", got)
	}
	if got := metricValue(t, d, "mrserve_solve_relaxations_total"); got <= 0 {
		t.Fatalf("solve relaxations = %v, want > 0", got)
	}

	// With a 1ns threshold every sampled query lands in the slow-query
	// ring, newest-capped at the ring size (128).
	slow := srv.SlowQueries()
	if len(slow) != min(sampled, 128) {
		t.Fatalf("slow queries = %d, want %d", len(slow), min(sampled, 128))
	}
	for _, sq := range slow {
		if sq.NS <= 0 || sq.Dest != 0 {
			t.Fatalf("bad slow-query record: %+v", sq)
		}
	}

	// Fail an arc that carries a live forwarding path: the affected
	// nodes must re-select, which the flap counter records.
	path, err := srv.Forward(5, 0)
	if err != nil || len(path) < 2 {
		t.Fatalf("need a multi-hop path to break: %v %v", path, err)
	}
	arcIdxs, ok := g.ArcsOf(path)
	if !ok {
		t.Fatalf("path %v not an arc walk", path)
	}
	if _, _, err := srv.ApplyEvent(context.Background(), arcIdxs[0], true); err != nil {
		t.Fatal(err)
	}
	d = dump()
	if got := metricValue(t, d, "mrserve_route_flaps_total"); got <= 0 {
		t.Fatalf("route_flaps_total = %v, want > 0 after breaking a live path", got)
	}
	if got := metricValue(t, d, "mrserve_events_applied_total"); got != 1 {
		t.Fatalf("events_applied_total = %v, want 1", got)
	}
	if got := metricValue(t, d, "mrserve_convergence_event_seconds_count"); got != 1 {
		t.Fatalf("event histogram count = %v, want 1", got)
	}
	if got := metricValue(t, d, "mrserve_disabled_arcs"); got != 1 {
		t.Fatalf("disabled_arcs = %v, want 1", got)
	}

	// The uninstrumented configuration keeps the hot path bare: no
	// histogram, no slow ring, but the cheap counters still serve Stats.
	bare, err := serve.NewServer(serve.Config{Engine: exec.For(a.OT), Graph: g, Origins: origins}, serve.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if _, err := bare.Forward(3, 0); err != nil {
		t.Fatal(err)
	}
	if got := bare.SlowQueries(); got != nil {
		t.Fatalf("bare server must not keep a slow log: %v", got)
	}
	if st := bare.Stats(); st.Queries != 1 {
		t.Fatalf("bare stats queries = %d, want 1", st.Queries)
	}
}

// TestQueryCountExactUnderConcurrency: the query counter is striped, so
// concurrent readers mostly write different lines, yet Stats().Queries
// and mrserve_queries_total count every query exactly once: 8 goroutines
// × 600 queries through Lookup, Forward (instrumented, so sampling runs
// too), ECMPWidth and GET /v1/route. CI runs it under -race.
func TestQueryCountExactUnderConcurrency(t *testing.T) {
	a, err := core.InferString("lex(delay(16,3), hops(8))")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Grid(rand.New(rand.NewSource(11)), 4, 4, graph.UniformLabels(a.OT.F.Size()))
	reg := telemetry.NewRegistry()
	srv, err := serve.NewServer(serve.Config{Engine: exec.For(a.OT), Graph: g,
		Origins: map[int]value.V{0: value.Pair{A: 0, B: 0}}}, serve.WithWorkers(2), serve.WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := serve.NewHandler(srv, reg)
	const workers, perWorker = 8, 600
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				u := (w + i) % g.N
				switch i % 4 {
				case 0:
					srv.Lookup(u, 0)
				case 1:
					srv.Forward(u, 0) //nolint:errcheck — only the count matters
				case 2:
					srv.ECMPWidth(u, 0)
				default:
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/route?from="+strconv.Itoa(u)+"&dest=0", nil))
				}
			}
		}()
	}
	wg.Wait()
	if got := srv.Stats().Queries; got != workers*perWorker {
		t.Fatalf("Stats().Queries = %d, want %d", got, workers*perWorker)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, buf.String(), "mrserve_queries_total"); got != workers*perWorker {
		t.Fatalf("mrserve_queries_total = %v, want %d", got, workers*perWorker)
	}
}
