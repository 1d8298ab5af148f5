package bench

// MetricDef describes one metric of the benchmark. The catalogue below
// is the single source BENCHMARK.json is generated from (Manifest) and
// every report is checked against.
type MetricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression (0 for
	// per-layer metrics, which carry no gate).
	Bound float64
	// Layer is the module a per-layer metric belongs to.
	Layer string
	// Moves names the end-to-end metric(s) and workload(s) the metric
	// is expected to move — the interaction map, kept next to the name.
	Moves string
	// Doc says what is measured.
	Doc string
}

// EndToEnd is what a user of the system sees. Every workload reports
// every one of them: a workload whose main window lacks a traffic kind
// measures it in the probe window that follows (see README).
//
// Timings are steady quantiles (stats.go) — the window is cut into
// chunks in arrival order, the quantile is taken per chunk, and the
// better quartile across chunks is kept — divided by the window's host
// factor (hostref.go). Bounds come from the run-to-run spread seen on
// the reference sandbox across ten seeds (README): three times the
// spread where that fits under the contract's 0.25 cap, the cap itself
// for every timing.
var EndToEnd = []MetricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "inputs ready → leader and follower both serve version 1 (inference, backend, initial solve, full-record bootstrap over TCP); median of 3–9 boots (bootsFor)"},
	{Name: "converge_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Doc: "event handed to the leader → Follower.Apply returned for a version containing it; median (the 95th and 99th percentiles are printed as information: they do not repeat)"},
	{Name: "leader_swap_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Doc: "synchronous POST /v1/events round trip: the leader answers from the new routes; median"},
	{Name: "route_get_p50_us", Unit: "us", Better: "lower", Bound: 0.25,
		Doc: "one GET /v1/route over a loopback keep-alive connection, leader and follower clients together; median"},
	{Name: "route_get_p95_us", Unit: "us", Better: "lower", Bound: 0.25,
		Doc: "the same, 95th percentile"},
	{Name: "batch_query_p50_ns", Unit: "ns/query", Better: "lower", Bound: 0.25,
		Doc: "binary POST /v1/routes round trip ÷ 256 queries; median"},
	{Name: "batch_query_p95_ns", Unit: "ns/query", Better: "lower", Bound: 0.25,
		Doc: "the same, 95th percentile"},
	{Name: "queries_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Doc: "route answers delivered per second by both read clients, single GETs plus batched; upper quartile over ten slices of the window"},
	{Name: "swap_alloc_bytes", Unit: "B/swap", Better: "lower", Bound: 0.15,
		Doc: "process heap bytes allocated per published swap (leader + follower + generator) over the closed-loop storm window"},
	{Name: "wire_bytes_per_swap", Unit: "B", Better: "lower", Bound: 0.25,
		Doc: "median framed delta replication record size (the mean is printed as information: a few hub failures dominate it)"},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower", Bound: 0.05,
		Doc: "HeapAlloc after a forced collection once setup completes: leader and follower tables plus the generated inputs"},
}

// PerLayer is the traced pass's attribution. Live metrics come from
// the traced window; replay metrics from pushing the recorded storms,
// frames and queries back through each layer's public functions on
// harness-owned state.
var PerLayer = []MetricDef{
	// Setup path → setup_s everywhere; solve/exec also → converge_*,
	// leader_swap_p50_ms on storm-policy-2k.
	{Name: "core.infer_us", Unit: "us", Better: "lower", Layer: "core", Moves: "setup_s (all)", Doc: "core.InferString on the workload's expression"},
	{Name: "exec.compile_ms", Unit: "ms", Better: "lower", Layer: "exec", Moves: "setup_s (all)", Doc: "exec.For on a fresh order transform (dense-table compile, or tiered construction)"},
	{Name: "rib.build_dest_ms", Unit: "ms", Better: "lower", Layer: "rib", Moves: "setup_s (all)", Doc: "rib.BuildDestPaged, one destination"},
	{Name: "solve.scratch_ms", Unit: "ms", Better: "lower", Layer: "solve", Moves: "setup_s (all); converge_*, leader_swap_p50_ms (storm-policy-2k)", Doc: "Workspace.BellmanFordRaw, one destination"},
	{Name: "sched.parallel_efficiency", Unit: "ratio", Better: "higher", Layer: "sched", Moves: "setup_s (all)", Doc: "serial build time ÷ (workers × Pool.Map wall) over the destinations"},
	{Name: "serve.encode_full_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "setup_s (all)", Doc: "Server.EncodeFull on the live leader"},
	{Name: "replica.apply_full_us", Unit: "us", Better: "lower", Layer: "replica", Moves: "setup_s (all)", Doc: "replica.ApplyFull on the bootstrap record"},
	{Name: "replica.full_record_bytes", Unit: "B", Better: "lower", Layer: "replica", Moves: "setup_s (all)", Doc: "framed size of the bootstrap record"},

	{Name: "exec.apply_ns", Unit: "ns", Better: "lower", Layer: "exec", Moves: "leader_swap_p50_ms, converge_* (storm-policy-2k); setup_s (query-*); flat on storm-sparse-100k", Doc: "Algebra.Apply per op over (label, weight) pairs sampled from the snapshot"},
	{Name: "exec.lt_ns", Unit: "ns", Better: "lower", Layer: "exec", Moves: "as exec.apply_ns", Doc: "Algebra.Lt per op over weight pairs sampled from the snapshot"},

	{Name: "solve.delta_us", Unit: "us", Better: "lower", Layer: "solve", Moves: "leader_swap_p50_ms, converge_* (storm-policy-2k)", Doc: "Workspace.BellmanFordDeltaRaw per destination rebuild, replayed"},
	{Name: "solve.delta_hit_ratio", Unit: "ratio", Better: "higher", Layer: "solve", Moves: "leader_swap_p50_ms, converge_* (storm-policy-2k)", Doc: "delta ÷ (delta + scratch) destination rebuilds from Server.Stats: how often the licensed shortcut fired"},
	{Name: "solve.frontier_nodes", Unit: "count", Better: "lower", Layer: "solve", Moves: "leader_swap_p50_ms", Doc: "mean seed frontier per delta rebuild (Server.Stats)"},
	{Name: "solve.touched_nodes", Unit: "count", Better: "lower", Layer: "solve", Moves: "leader_swap_p50_ms, swap_alloc_bytes", Doc: "mean nodes re-relaxed per delta rebuild (Server.Stats)"},
	{Name: "solve.relaxations", Unit: "count", Better: "lower", Layer: "solve", Moves: "leader_swap_p50_ms", Doc: "mean arc relaxations per replayed delta rebuild"},

	{Name: "graph.view_us", Unit: "us", Better: "lower", Layer: "graph", Moves: "leader_swap_p50_ms, swap_alloc_bytes (storm-sparse-100k)", Doc: "Graph.WithArcsToggled per storm, replayed"},
	{Name: "rib.delta_paged_us", Unit: "us", Better: "lower", Layer: "rib", Moves: "leader_swap_p50_ms (storm-sparse-100k)", Doc: "rib.DeltaDestPaged per destination rebuild, replayed"},
	{Name: "rib.clone_us", Unit: "us", Better: "lower", Layer: "rib", Moves: "leader_swap_p50_ms, swap_alloc_bytes (storm-sparse-100k)", Doc: "rib.DeltaDestPaged minus the bare solver call on the same rebuild, median of the paired differences: page cloning and refill"},
	{Name: "rib.pages_cloned_ratio", Unit: "ratio", Better: "lower", Layer: "rib", Moves: "swap_alloc_bytes (storm-sparse-100k)", Doc: "pages cloned ÷ (cloned + shared) from Server.Stats"},
	{Name: "rib.flatten_us", Unit: "us", Better: "lower", Layer: "rib", Moves: "setup_s; converge_* when a swap ships scratch columns", Doc: "PagedColumn.Flatten, one column"},

	{Name: "rib.lpm_ns", Unit: "ns", Better: "lower", Layer: "rib", Moves: "route_get_*, batch_query_* (query-*)", Doc: "PrefixTable.MatchNode per address of the recorded queries"},
	{Name: "rib.route_ns", Unit: "ns", Better: "lower", Layer: "rib", Moves: "route_get_*, batch_query_* (query-*)", Doc: "Col.Route + NextHops per recorded query"},
	{Name: "rib.forward_us", Unit: "us", Better: "lower", Layer: "rib", Moves: "route_get_* (query-*)", Doc: "Col.Forward per recorded query"},
	{Name: "rib.bytes_per_entry", Unit: "B", Better: "lower", Layer: "rib", Moves: "heap_live_mb (all)", Doc: "snapshot arena bytes ÷ live entries"},

	{Name: "serve.events_post_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "leader_swap_p50_ms, converge_*", Doc: "live stage: POST sent → the leader's record sink entered (HTTP, decode, coalesce, solve, clone, encode)"},
	{Name: "serve.intake_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "converge_* (query-storm-10k)", Doc: "live stage, open loop: handed to EnqueueEvent → sink entered (queue wait, batcher, rebuild)"},
	{Name: "serve.coalesce_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "leader_swap_p50_ms", Doc: "serve.Coalesce per storm, replayed"},
	{Name: "serve.rebuild_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "leader_swap_p50_ms, converge_* (storm-policy-2k)", Doc: "sched.Pool.Map of rib.DeltaDestPaged over a storm's invalidated destinations, as the leader runs it, replayed"},
	{Name: "serve.apply_batch_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "leader_swap_p50_ms, converge_*", Doc: "Server.ApplyBatch called in-process on the live leader, per storm"},
	{Name: "serve.apply_batch_self_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "leader_swap_p50_ms", Doc: "serve.apply_batch_us minus the replayed coalesce, view, pooled rebuild and encode and the live publish: the unattributed remainder (invalidation, diff scan, snapshot assembly)"},
	{Name: "serve.dest_reuse_ratio", Unit: "ratio", Better: "higher", Layer: "serve", Moves: "leader_swap_p50_ms", Doc: "destination columns shared ÷ (shared + recomputed) from Server.Stats"},
	{Name: "serve.swaps_per_storm", Unit: "ratio", Better: "lower", Layer: "serve", Moves: "converge_*, wire_bytes_per_swap (query-storm-10k)", Doc: "published swaps ÷ storms sent in the traced window"},
	{Name: "serve.events_coalesced", Unit: "count", Better: "higher", Layer: "serve", Moves: "converge_* (query-storm-10k)", Doc: "events absorbed by coalescing in the traced window"},
	{Name: "serve.queue_depth_max", Unit: "count", Better: "lower", Layer: "serve", Moves: "converge_p95_ms (query-storm-10k)", Doc: "largest intake backlog seen by the open-loop writer"},
	{Name: "serve.events_rejected", Unit: "count", Better: "lower", Layer: "serve", Moves: "failed operations (query-storm-10k)", Doc: "events refused by a full intake queue"},

	{Name: "serve.handler_get_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "route_get_*, queries_per_s (query-*)", Doc: "leader /v1/route handler called in-process with a discard writer"},
	{Name: "serve.handler_batch_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "batch_query_*, queries_per_s (query-*)", Doc: "leader /v1/routes binary handler called in-process, per 256-query batch"},
	{Name: "serve.http_overhead_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "route_get_* (query-*)", Doc: "leader loopback GET p50 − serve.handler_get_us: net/http, TCP and the generator's client"},
	{Name: "serve.get_alloc_bytes", Unit: "B", Better: "lower", Layer: "serve", Moves: "route_get_p95_us via GC (query-storm-10k)", Doc: "heap bytes allocated per in-process /v1/route call"},
	{Name: "serve.leader_get_p50_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "route_get_p50_us", Doc: "GET p50 on the leader client alone"},
	{Name: "serve.follower_get_p50_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "route_get_p50_us", Doc: "GET p50 on the follower client alone"},
	{Name: "serve.get_p99_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "information only: too unsteady on this host to gate", Doc: "GET 99th percentile, both clients"},
	{Name: "serve.batch_p99_ns", Unit: "ns/query", Better: "lower", Layer: "serve", Moves: "information only", Doc: "batch 99th percentile ÷ 256"},

	{Name: "wire.encode_req_ns", Unit: "ns/query", Better: "lower", Layer: "wire", Moves: "batch_query_* (query-*)", Doc: "wire.AppendQueryRequest per query"},
	{Name: "wire.decode_req_ns", Unit: "ns/query", Better: "lower", Layer: "wire", Moves: "batch_query_* (query-*)", Doc: "wire.DecodeQueryRequest per query"},
	{Name: "wire.encode_resp_ns", Unit: "ns/query", Better: "lower", Layer: "wire", Moves: "batch_query_* (query-*)", Doc: "wire.AppendAnswerResponse per query"},
	{Name: "wire.decode_resp_ns", Unit: "ns/query", Better: "lower", Layer: "wire", Moves: "batch_query_* (query-*)", Doc: "wire.DecodeAnswerResponse per query"},

	{Name: "replica.encode_delta_us", Unit: "us", Better: "lower", Layer: "replica", Moves: "leader_swap_p50_ms", Doc: "replica.EncodeDelta on each recorded delta, replayed"},
	{Name: "replica.decode_us", Unit: "us", Better: "lower", Layer: "replica", Moves: "converge_*", Doc: "replica.DecodeRecord on each recorded delta frame"},
	{Name: "replica.publish_us", Unit: "us", Better: "lower", Layer: "replica", Moves: "leader_swap_p50_ms", Doc: "live: Publisher.PublishRecord (log append + ring + fan-out) as seen by the sink wrapper"},
	{Name: "replica.ship_us", Unit: "us", Better: "lower", Layer: "replica", Moves: "converge_*", Doc: "live stage: sink entered → follower callback entered (log write, TCP, frame read, decode)"},
	{Name: "replica.apply_delta_us", Unit: "us", Better: "lower", Layer: "replica", Moves: "converge_*, swap_alloc_bytes (storm-sparse-100k)", Doc: "replica.ApplyDelta on the harness's state chain, replayed"},
	{Name: "replica.restore_prefix_us", Unit: "us", Better: "lower", Layer: "replica", Moves: "converge_* (every follower install rebuilds the trie)", Doc: "rib.RestorePrefixTable on the stream's announcement set"},
	{Name: "serve.follower_apply_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "converge_* (the largest share on storm-sparse-100k, ≈2% on storm-policy-2k)", Doc: "live stage: callback entered → Follower.Apply returned"},
	{Name: "serve.follower_first_read_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "time to first fresh answer after converge", Doc: "live stage: Apply returned → version-gated verification GET answered"},
	{Name: "replica.record_bytes_p50", Unit: "B", Better: "lower", Layer: "replica", Moves: "wire_bytes_per_swap", Doc: "median framed delta record size"},
	{Name: "replica.stale_skipped", Unit: "count", Better: "lower", Layer: "replica", Moves: "converge_*", Doc: "records the follower skipped as stale"},
	{Name: "replica.apply_errors", Unit: "count", Better: "lower", Layer: "replica", Moves: "failed operations", Doc: "records the follower failed to apply"},
	{Name: "replica.rebootstraps", Unit: "count", Better: "lower", Layer: "replica", Moves: "converge_p95_ms", Doc: "full records applied after the first"},

	{Name: "telemetry.scrape_us", Unit: "us", Better: "lower", Layer: "telemetry", Moves: "route_get_p95_us when scraped under load", Doc: "GET /v1/metrics on the leader"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Layer: "runtime", Moves: "route_get_p95_us, converge_p95_ms (query-storm-10k)", Doc: "collections completed during the traced window"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower", Layer: "runtime", Moves: "route_get_p95_us, converge_p95_ms (query-storm-10k)", Doc: "total stop-the-world pause during the traced window"},
	{Name: "gen.storm_late_p95_ms", Unit: "ms", Better: "lower", Layer: "gen", Moves: "validity of converge_* (query-storm-10k)", Doc: "how late the open-loop writer ran, 95th percentile"},
	{Name: "gen.storms_unresolved", Unit: "count", Better: "lower", Layer: "gen", Moves: "validity of converge_* (query-storm-10k)", Doc: "open-loop storms whose completion could not be observed (coalesced away at the window's tail)"},
	{Name: "gen.failed_ops_ratio", Unit: "ratio", Better: "lower", Layer: "gen", Moves: "the result line's failed ÷ attempted", Doc: "failed ÷ attempted over queries, events, verification reads and correctness gates"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Layer: "trace", Moves: "validity of the traced numbers", Doc: "traced vs untraced window: converge p50 (storm main windows) or GET p50 (read main windows)"},
	{Name: "trace.stage_sum_ratio", Unit: "ratio", Better: "lower", Layer: "trace", Moves: "validity of the stage split", Doc: "Σ live stages ÷ Σ storm wall time; must be within 1 ± 0.02"},
}

// Manifest is BENCHMARK.json's shape.
type Manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []ManifestWorkload `json:"workloads"`
	EndToEnd   []ManifestMetric   `json:"end_to_end"`
	PerLayer   []ManifestLayer    `json:"per_layer"`
}

// ManifestWorkload is one workloads entry.
type ManifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// ManifestMetric is one end_to_end entry.
type ManifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// ManifestLayer is one per_layer entry.
type ManifestLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// RunSeconds is how long one run measures (BENCHMARK.json's
// run_seconds): main window plus probe window.
const RunSeconds = 24

// BuildManifest renders the catalogue as BENCHMARK.json.
func BuildManifest() Manifest {
	m := Manifest{
		Command:    []string{"go", "run", "./cmd/mrbench"},
		Paths:      []string{"cmd/mrbench", "internal/bench"},
		RunSeconds: RunSeconds,
	}
	for _, w := range Workloads {
		m.Workloads = append(m.Workloads, ManifestWorkload{Name: w.Name, Why: w.Why})
	}
	for _, d := range EndToEnd {
		m.EndToEnd = append(m.EndToEnd, ManifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound})
	}
	for _, d := range PerLayer {
		m.PerLayer = append(m.PerLayer, ManifestLayer{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}
