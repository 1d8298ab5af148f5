// Command mrserve runs the concurrent route-query service: it compiles
// an algebra expression, builds (or loads) a topology, computes snapshot
// route tables with a destination-sharded worker pool and serves them
// over HTTP/JSON while absorbing topology events with incremental,
// batched reconvergence.
//
// Usage:
//
//	mrserve -expr 'lex(delay(32,3), bw(8))' -random 64 -dests 8
//	mrserve -scenario drills/failover.mr -replay
//	mrserve -expr 'delay(64,4)' -random 48 -loadgen -out BENCH_serve.json
//	mrserve -telemetry-bench -out BENCH_telemetry.json
//	mrserve -parallel-bench -random 64 -dests 8 -out BENCH_parallel.json
//	mrserve -delta-bench -random 64 -dests 8 -out BENCH_delta.json
//	mrserve -replica-bench -random 64 -dests 8 -out BENCH_replica.json
//	mrserve -publish :8349 -log-dir /var/lib/mrserve        # leader
//	mrserve -follow leader:8349                              # follower
//	mrserve -follow file:/var/lib/mrserve/replica.log -oneshot
//	mrserve -follow file:/var/lib/mrserve -oneshot           # whole log dir
//
// Endpoints (v1; the retired unversioned spellings answer 404 with a
// successor-version Link header unless -legacy-api re-enables them as
// deprecated aliases answering identically plus a Deprecation header):
//
//	GET  /v1/route?from=U&dest=D  one node's route (weight, ECMP set, path)
//	POST /v1/routes               a query batch resolved against ONE pinned
//	                              snapshot — JSON {"queries":[{"from":U,
//	                              "dest":D|"prefix":P|"addr":A},...]} or,
//	                              with Content-Type application/x-mr-query,
//	                              the length-prefixed binary codec of
//	                              internal/serve/wire (the zero-allocation
//	                              fast path; see -query-bench)
//	GET  /v1/paths?dest=D         every node's forwarding path toward D
//	POST /v1/events               a JSON event batch — {"events":[...]} —
//	                              coalesced (down+up cancels, duplicate
//	                              downs dedupe) and applied as one
//	                              recompute; "async":true feeds the
//	                              intake queue instead (202, or 429 when
//	                              full under the reject policy); a bare
//	                              single-event object and the GET query
//	                              form (?arc=A&kind=fail) still work
//	GET  /v1/stats                counters: queries, swaps, events,
//	                              batches, queue depth, incremental vs
//	                              full recomputes
//	GET  /v1/metrics              Prometheus text format: query latency,
//	                              batch size and shard rebuild
//	                              histograms, convergence gauges, solver
//	                              stage counters
//	GET  /v1/slowlog              recent queries over the slow threshold
//	GET  /debug/pprof/            CPU/heap/goroutine profiles (with -pprof)
//
// Errors answer a uniform envelope:
//
//	{"error":{"code":"invalid_argument","message":"..."}}
//
// -loadgen skips HTTP and drives the server in-process with a
// concurrent query + event mix, writing throughput/latency percentiles
// and the incremental-vs-full event cost to -out (BENCH_serve.json).
// -telemetry-bench measures the telemetry overhead on the query path
// (paired instrumented vs bare servers) and writes BENCH_telemetry.json.
// -parallel-bench measures the parallel batched rebuild pipeline
// against the serial per-event path (paired storms, 1 worker vs the
// full pool) and writes BENCH_parallel.json.
// -delta-bench measures warm-start delta reconvergence against
// from-scratch rebuilds on paired small-perturbation storms and writes
// BENCH_delta.json.
//
// Replication: -publish ADDR streams binary snapshot/delta records to
// connected followers over TCP, and -log-dir DIR appends the same
// records to DIR/replica.log (either or both turn the leader's record
// pipeline on); -log-max-bytes N rotates the live log to a numbered
// segment once it passes N bytes, reseeding it with a fresh full
// snapshot so the live file alone always replays to current state.
// -follow HOST:PORT boots a read-only follower that
// bootstraps from the leader's full snapshot, tails deltas, and serves
// the same /v1/route, /v1/paths, /v1/prefixes, /v1/stats and
// /v1/metrics endpoints lock-free (mutations answer 403 read_only);
// -follow file:PATH replays a leader's log instead (a directory
// replays every rotated segment, then the live log, in order). Both roles honor
// ?version=N read-your-version gating (404 version_behind with the
// current version when the serving snapshot is older than N). -oneshot
// prints "role=... version=... crc=..." after boot/replay and exits —
// the CI smoke compares the two lines. -replay-storm N applies N
// deterministic arc toggles after boot (with -seed), and
// -replica-bench measures delta records against full snapshots
// (BENCH_replica.json) with a built-in follower checksum check.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"metarouting/internal/cliflag"
	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/replica"
	"metarouting/internal/scenario"
	"metarouting/internal/serve"
	"metarouting/internal/telemetry"
	"metarouting/internal/value"
)

func main() {
	var (
		exprSrc   = flag.String("expr", "lex(delay(32,3), bw(8))", "metarouting expression to serve routes for")
		scenFile  = flag.String("scenario", "", "boot from a scenario file (expr + topology + events) instead of -expr/-random")
		replay    = flag.Bool("replay", false, "with -scenario: replay its events into the live server before serving")
		randomN   = flag.Int("random", 48, "random GNP topology node count")
		p         = flag.Float64("p", 0.1, "random topology arc probability")
		seed      = flag.Int64("seed", 1, "random seed")
		dests     = flag.Int("dests", 8, "number of originated destinations (spread over the nodes; ≤0 = every node)")
		workers   = flag.Int("workers", 0, "snapshot builder worker pool size (≤0: GOMAXPROCS)")
		addr      = flag.String("addr", ":8348", "HTTP listen address")
		pprofOn   = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		legacyAPI = flag.Bool("legacy-api", false, "re-enable the retired pre-/v1 unversioned HTTP aliases (default: 404 with a successor Link header)")
		slowUS    = flag.Int64("slow-query-us", 1000, "slow-query log threshold in microseconds")
		engine    = cliflag.Engine(nil)

		queueCap     = flag.Int("queue-cap", 1024, "event intake queue capacity (≤0: 1024)")
		backpressure = flag.String("backpressure", "reject", "full-queue policy for async events: reject (429) or stale (absorb, snapshot lags)")
		rebuildTO    = flag.Duration("rebuild-timeout", 0, "abandon a batched rebuild after this long, keeping the previous snapshot (0: no deadline)")

		loadgen    = flag.Bool("loadgen", false, "run the in-process load generator instead of serving HTTP")
		duration   = flag.Duration("duration", 2*time.Second, "loadgen query phase length")
		readers    = flag.Int("readers", 4, "loadgen concurrent reader goroutines")
		eventEvery = flag.Duration("event-every", 20*time.Millisecond, "loadgen topology event period (0 disables)")
		out        = flag.String("out", "", "bench modes: write the JSON report here ('' = stdout)")

		telemetryBench = flag.Bool("telemetry-bench", false, "measure telemetry overhead on the query path (paired instrumented vs bare) instead of serving")
		benchQueries   = flag.Int("bench-queries", 50000, "telemetry-bench/query-bench: queries per round per side")
		benchRounds    = flag.Int("bench-rounds", 5, "telemetry-bench/parallel-bench: measured rounds per side")

		queryBench     = flag.Bool("query-bench", false, "measure batched binary POST /v1/routes against single-query GET /v1/route over loopback HTTP instead of serving")
		queryBatchSize = flag.Int("batch-size", 256, "query-bench: queries per binary batch")

		parallelBench = flag.Bool("parallel-bench", false, "measure the batched parallel rebuild pipeline against the serial per-event path instead of serving")
		stormEvents   = flag.Int("storm-events", 32, "parallel-bench: link toggles per storm")

		deltaBench     = flag.Bool("delta-bench", false, "measure warm-start delta reconvergence against from-scratch rebuilds on small-perturbation storms instead of serving")
		deltaStormArcs = flag.Int("delta-storm-arcs", 4, "delta-bench: distinct arcs failed (then restored) per storm")

		publishAddr     = flag.String("publish", "", "leader: serve the replication record stream to followers on this TCP address")
		logDir          = flag.String("log-dir", "", "leader: append every replication record to DIR/replica.log")
		logMaxBytes     = flag.Int64("log-max-bytes", 0, "leader: rotate DIR/replica.log to a numbered segment once it passes this many bytes, reseeding the live log with a fresh full snapshot (0: never)")
		follow          = flag.String("follow", "", "follower mode: subscribe to a leader at host:port, or replay a log with file:PATH")
		replayStorm     = flag.Int("replay-storm", 0, "leader: apply this many deterministic random arc toggles after boot (CI smoke / log seeding)")
		oneshot         = flag.Bool("oneshot", false, "print role, snapshot version and routing checksum, then exit instead of serving HTTP")
		replicaBench    = flag.Bool("replica-bench", false, "measure delta replication records against full snapshots on paired storms instead of serving")
		replicaStormArc = flag.Int("replica-storm-arcs", 4, "replica-bench: distinct arcs failed (then restored) per storm")
	)
	flag.Parse()
	if _, err := cliflag.ApplyEngine(*engine); err != nil {
		fatal(err)
	}
	policy, err := serve.ParseBackpressure(*backpressure)
	if err != nil {
		fatal(err)
	}

	if *telemetryBench {
		runTelemetryBench(*exprSrc, *scenFile, *randomN, *p, *seed, *dests, *workers, *benchQueries, *benchRounds, *out)
		return
	}
	if *queryBench {
		runQueryBench(*exprSrc, *scenFile, *randomN, *p, *seed, *dests, *workers, *queryBatchSize, *benchQueries, *benchRounds, *out)
		return
	}
	if *parallelBench {
		runParallelBench(*exprSrc, *scenFile, *randomN, *p, *seed, *dests, *workers, *stormEvents, *benchRounds, *out)
		return
	}
	if *deltaBench {
		runDeltaBench(*exprSrc, *scenFile, *randomN, *p, *seed, *dests, *workers, *deltaStormArcs, *benchRounds, *out)
		return
	}
	if *replicaBench {
		runReplicaBench(*exprSrc, *scenFile, *randomN, *p, *seed, *dests, *workers, *replicaStormArc, *benchRounds, *out)
		return
	}
	if *follow != "" {
		runFollower(*follow, *addr, *oneshot)
		return
	}

	// The load generator keeps the historical uninstrumented
	// configuration so BENCH_serve.json stays comparable across PRs; the
	// serving path always carries its registry.
	opts := []serve.Option{
		serve.WithWorkers(*workers),
		serve.WithQueueCapacity(*queueCap),
		serve.WithBackpressure(policy),
		serve.WithRebuildTimeout(*rebuildTO),
	}
	var reg *telemetry.Registry
	if !*loadgen {
		reg = telemetry.NewRegistry()
		opts = append(opts,
			serve.WithRegistry(reg),
			serve.WithSlowQuery(time.Duration(*slowUS)*time.Microsecond),
		)
	}
	// Leader replication: the publisher must exist before
	// serve.NewServer (the initial build already publishes a full
	// record), but its bootstrap source is the server — close the loop
	// with a late-bound closure, safe because no subscriber is accepted
	// until Serve starts below.
	var pub *replica.Publisher
	var srv *serve.Server
	if *publishAddr != "" || *logDir != "" {
		var log *replica.Log
		if *logDir != "" {
			var err error
			if log, err = replica.OpenLog(*logDir); err != nil {
				fatal(err)
			}
		}
		pub = replica.NewPublisher(func() (uint64, []byte, error) { return srv.EncodeFull() }, log)
		pub.SetLogMaxBytes(*logMaxBytes)
		defer pub.Close()
		opts = append(opts, serve.WithReplication(pub))
	}
	srv, sc, err := buildServer(*exprSrc, *scenFile, *randomN, *p, *seed, *dests, opts...)
	if err != nil {
		fatal(err)
	}
	defer srv.Close()
	if sc != nil && *replay {
		applied, err := srv.Replay(context.Background(), sc.SortedEvents())
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mrserve: replayed %d scenario events\n", applied)
	}
	if *replayStorm > 0 {
		if err := applyStorm(srv, *replayStorm, *seed); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mrserve: applied %d storm toggles\n", *replayStorm)
	}
	if *oneshot {
		fmt.Printf("mrserve: role=leader version=%d crc=%08x\n", srv.Snapshot().Version, srv.Checksum())
		return
	}
	if *publishAddr != "" {
		ln, err := net.Listen("tcp", *publishAddr)
		if err != nil {
			fatal(err)
		}
		go pub.Serve(ln) //nolint:errcheck
		fmt.Fprintf(os.Stderr, "mrserve: publishing replication records at %s\n", ln.Addr())
	}

	if *loadgen {
		runLoadgen(srv, serve.LoadOptions{
			Duration: *duration, Readers: *readers, EventEvery: *eventEvery, Seed: *seed,
		}, *out)
		return
	}

	var hopts []serve.HandlerOption
	if *legacyAPI {
		hopts = append(hopts, serve.WithLegacyAPI())
	}
	mux := serve.NewHandler(srv, reg, hopts...)
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	st := srv.Stats()
	fmt.Fprintf(os.Stderr, "mrserve: serving %d destinations on %d nodes / %d arcs (engine %s, %d workers, queue %d/%s) at %s (pprof %v)\n",
		st.Destinations, st.Nodes, st.Arcs, st.Engine, st.Workers, st.QueueCapacity, st.Backpressure, *addr, *pprofOn)
	if err := http.ListenAndServe(*addr, mux); err != nil {
		fatal(err)
	}
}

// buildServer assembles the server from either a scenario file or the
// -expr/-random flags, originating the algebra's default weight at the
// chosen destinations.
func buildServer(exprSrc, scenFile string, randomN int, p float64, seed int64, destCount int, opts ...serve.Option) (*serve.Server, *scenario.Scenario, error) {
	if scenFile != "" {
		f, err := os.Open(scenFile)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		sc, err := scenario.Parse(f)
		if err != nil {
			return nil, nil, err
		}
		bootNotes(sc.Algebra)
		srv, err := serve.NewServer(serve.Config{},
			append([]serve.Option{serve.WithScenario(sc)}, opts...)...)
		solverNote(srv)
		return srv, sc, err
	}
	a, err := core.InferString(exprSrc)
	if err != nil {
		return nil, nil, err
	}
	r := rand.New(rand.NewSource(seed))
	labels := 4
	if a.OT.F.Finite() {
		labels = a.OT.F.Size()
	}
	g := graph.Random(r, randomN, p, graph.UniformLabels(labels))
	origin, err := a.OT.CheckedDefaultOrigin()
	if err != nil {
		return nil, nil, err
	}
	eng := exec.For(a.OT, origin)
	bootNotes(a)
	if destCount <= 0 || destCount > g.N {
		destCount = g.N
	}
	origins := make(map[int]value.V, destCount)
	for i := 0; i < destCount; i++ {
		origins[i*g.N/destCount] = origin
	}
	srv, err := serve.NewServer(serve.Config{Engine: eng, Graph: g, Origins: origins},
		append([]serve.Option{serve.WithDeltaProps(a.Props)}, opts...)...)
	solverNote(srv)
	return srv, nil, err
}

// bootNotes says at boot what an algebra without ND does not promise, so
// a looping answer is not the first the operator hears of it.
func bootNotes(a *core.Algebra) {
	if note := a.ForwardingCaveat(); note != "" {
		fmt.Fprintln(os.Stderr, "mrserve:", note)
	}
}

// solverNote says which solver and warm start the server's licence picked
// for its column builds (nil srv: the boot failed, nothing to say).
func solverNote(srv *serve.Server) {
	if srv != nil {
		st := srv.Stats()
		fmt.Fprintf(os.Stderr, "mrserve: scratch solver: %s; warm start: %s\n", st.ScratchSolver, st.WarmStart)
	}
}

// runLoadgen drives the load generator and writes the report.
func runLoadgen(srv *serve.Server, opts serve.LoadOptions, out string) {
	rep := serve.Load(srv, opts)
	writeReport(rep, out)
	if out != "" {
		fmt.Fprintf(os.Stderr, "mrserve: wrote %s (%.0f qps, p99 %.1fµs, incremental event %.0fµs vs full rebuild %.0fµs)\n",
			out, rep.QPS, rep.P99us, rep.IncrementalEventUS, rep.FullRebuildUS)
	}
}

// runTelemetryBench builds two identical servers — one bare, one with a
// registry — and writes the paired query-path overhead report.
// runQueryBench measures the batched binary query plane against the
// single-query JSON baseline on one live loopback listener and writes
// BENCH_query.json. The stderr line is the CI smoke's grep target.
func runQueryBench(exprSrc, scenFile string, randomN int, p float64, seed int64, destCount, workers, batch, queries, rounds int, out string) {
	srv, _, err := buildServer(exprSrc, scenFile, randomN, p, seed, destCount, serve.WithWorkers(workers))
	if err != nil {
		fatal(err)
	}
	defer srv.Close()
	rep, err := serve.QueryBench(srv, serve.QueryBenchOptions{
		Batch: batch, Queries: queries, Rounds: rounds, Seed: seed,
	})
	if err != nil {
		fatal(err)
	}
	writeReport(rep, out)
	fmt.Fprintf(os.Stderr,
		"mrserve: query-bench single %.0f qps (p99 %.2fµs) vs batch[%d] %.0f qps (p99 %.2fµs amortized): %.1fx speedup, differential-ok=%v\n",
		rep.SingleQPS, rep.SingleP99US, rep.BatchSize, rep.BatchQPS, rep.BatchP99US, rep.Speedup, rep.DifferentialOK)
}

func runTelemetryBench(exprSrc, scenFile string, randomN int, p float64, seed int64, destCount, workers, queries, rounds int, out string) {
	bare, _, err := buildServer(exprSrc, scenFile, randomN, p, seed, destCount, serve.WithWorkers(workers))
	if err != nil {
		fatal(err)
	}
	defer bare.Close()
	inst, _, err := buildServer(exprSrc, scenFile, randomN, p, seed, destCount,
		serve.WithWorkers(workers), serve.WithRegistry(telemetry.NewRegistry()))
	if err != nil {
		fatal(err)
	}
	defer inst.Close()
	rep := serve.MeasureOverhead(bare, inst, queries, rounds, seed)
	writeReport(rep, out)
	if out != "" {
		fmt.Fprintf(os.Stderr, "mrserve: wrote %s (bare %.0fns/op, instrumented %.0fns/op, overhead %.1f%%)\n",
			out, rep.BareNSPerOp, rep.InstrumentedNSPerOp, rep.OverheadPct)
	}
}

// runParallelBench measures the parallel batched rebuild pipeline
// against the serial per-event path on paired event storms and writes
// BENCH_parallel.json.
func runParallelBench(exprSrc, scenFile string, randomN int, p float64, seed int64, destCount, workers, stormEvents, rounds int, out string) {
	mk := func(w int) (*serve.Server, error) {
		srv, _, err := buildServer(exprSrc, scenFile, randomN, p, seed, destCount, serve.WithWorkers(w))
		return srv, err
	}
	rep, err := serve.MeasureParallel(mk, workers, stormEvents, rounds, seed)
	if err != nil {
		fatal(err)
	}
	writeReport(rep, out)
	if out != "" {
		fmt.Fprintf(os.Stderr, "mrserve: wrote %s (serial %.0fµs/storm, batched×%d-workers %.0fµs/storm, speedup %.1f×)\n",
			out, rep.SerialPerEventUS, rep.Workers, rep.BatchedWorkersUS, rep.SpeedupPipeline)
	}
}

// runDeltaBench measures warm-start delta reconvergence against
// from-scratch rebuilds on paired small-perturbation storms and writes
// BENCH_delta.json.
func runDeltaBench(exprSrc, scenFile string, randomN int, p float64, seed int64, destCount, workers, stormArcs, rounds int, out string) {
	mk := func(delta bool) (*serve.Server, error) {
		srv, _, err := buildServer(exprSrc, scenFile, randomN, p, seed, destCount,
			serve.WithWorkers(workers), serve.WithDelta(delta))
		return srv, err
	}
	rep, err := serve.MeasureDelta(mk, stormArcs, rounds, seed)
	if err != nil {
		fatal(err)
	}
	writeReport(rep, out)
	if out != "" {
		fmt.Fprintf(os.Stderr, "mrserve: wrote %s (scratch %.0fµs/batch, delta %.0fµs/batch, speedup %.1f×, mean frontier %.1f of %d nodes)\n",
			out, rep.ScratchBatchUS, rep.DeltaBatchUS, rep.SpeedupDelta, rep.MeanFrontier, rep.Nodes)
	}
}

// applyStorm replays n deterministic random toggles (each flips an
// arc's current state) as single-event batches, so a leader and the log
// it leaves behind hold a reproducible post-storm table for the CI
// leader/follower smoke.
func applyStorm(srv *serve.Server, n int, seed int64) error {
	r := rand.New(rand.NewSource(seed + 1))
	st := srv.Stats()
	disabled := make([]bool, st.Arcs)
	for i := 0; i < n; i++ {
		arc := r.Intn(len(disabled))
		if _, _, err := srv.ApplyEvent(context.Background(), arc, !disabled[arc]); err != nil {
			return err
		}
		disabled[arc] = !disabled[arc]
	}
	return nil
}

// runFollower boots read-replica mode: bootstrap from a leader's event
// log (file:PATH) or subscribe to a live leader (host:port), then serve
// the follower read API — or, with oneshot, print the applied version
// and checksum for the CI smoke and exit.
func runFollower(target, addr string, oneshot bool) {
	reg := telemetry.NewRegistry()
	fol := serve.NewFollower(reg)
	if path, ok := strings.CutPrefix(target, "file:"); ok {
		if err := replica.ReplayLog(path, fol.Apply); err != nil {
			fatal(err)
		}
		if oneshot {
			fmt.Printf("mrserve: role=follower version=%d crc=%08x\n", fol.Version(), fol.Checksum())
			return
		}
	} else {
		if oneshot {
			fatal(fmt.Errorf("-oneshot follower needs a file: target (a live subscription never finishes)"))
		}
		go func() {
			err := replica.Subscribe(context.Background(), target, fol.Version, fol.Apply)
			fatal(fmt.Errorf("subscription ended: %w", err))
		}()
	}
	mux := serve.NewFollowerHandler(fol, reg)
	fmt.Fprintf(os.Stderr, "mrserve: follower of %s at %s (v%d)\n", target, addr, fol.Version())
	if err := http.ListenAndServe(addr, mux); err != nil {
		fatal(err)
	}
}

// runReplicaBench measures delta replication records against full
// snapshots on paired storms and writes BENCH_replica.json.
func runReplicaBench(exprSrc, scenFile string, randomN int, p float64, seed int64, destCount, workers, stormArcs, rounds int, out string) {
	mk := func(sink serve.RecordSink) (*serve.Server, error) {
		srv, _, err := buildServer(exprSrc, scenFile, randomN, p, seed, destCount,
			serve.WithWorkers(workers), serve.WithReplication(sink))
		return srv, err
	}
	rep, err := serve.MeasureReplica(mk, stormArcs, rounds, seed)
	if err != nil {
		fatal(err)
	}
	writeReport(rep, out)
	if out != "" {
		fmt.Fprintf(os.Stderr, "mrserve: wrote %s (full %.0fB vs delta %.0fB per record, %.1f× smaller; apply %.0fµs vs solve %.0fµs, %.1f×)\n",
			out, rep.BytesFullPerRecord, rep.BytesDeltaPerRecord, rep.FullToDeltaRatio,
			rep.FollowerApplyUS, rep.LeaderBatchUS, rep.ApplySpeedup)
	}
}

// writeReport marshals v to out (” = stdout).
func writeReport(v any, out string) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mrserve:", err)
	os.Exit(1)
}
