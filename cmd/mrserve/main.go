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
//	mrserve -publish :8349 -log-dir /var/lib/mrserve        # leader
//	mrserve -follow leader:8349                              # follower
//	mrserve -follow file:/var/lib/mrserve/replica.log -oneshot
//	mrserve -follow file:/var/lib/mrserve -oneshot           # whole log dir
//
// Endpoints (all under /v1; any other path is a 404):
//
//	GET  /v1/route?from=U&dest=D  one node's route (weight, ECMP set, path)
//	POST /v1/routes               a query batch resolved against ONE pinned
//	                              snapshot — JSON {"queries":[{"from":U,
//	                              "dest":D|"prefix":P|"addr":A},...]} or,
//	                              with Content-Type application/x-mr-query,
//	                              the length-prefixed binary codec of
//	                              internal/serve/wire (the zero-allocation
//	                              fast path)
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
// mrserve only serves: load and timings are measured end to end by
// cmd/mrbench, and the telemetry overhead on the query path by
// internal/serve's BenchmarkForwardTelemetry.
//
// Replication: -publish ADDR streams binary snapshot/delta records to
// connected followers over TCP, and -log-dir DIR appends the same
// records to DIR/replica.log (either or both turn the leader's record
// pipeline on); -log-max-bytes N rotates the live log to a numbered
// segment once it passes N bytes, reseeding it with a fresh full
// snapshot so the live file alone always replays to current state.
// -follow HOST:PORT boots a read-only follower that
// bootstraps from the leader's full snapshot, tails deltas, and serves
// the same /v1/route, /v1/routes, /v1/paths, /v1/prefixes, /v1/stats
// and /v1/metrics endpoints lock-free (mutations answer 403 read_only);
// -follow file:PATH replays a leader's log instead (a directory
// replays every rotated segment, then the live log, in order). Both roles honor
// ?version=N read-your-version gating (404 version_behind with the
// current version when the serving snapshot is older than N). -oneshot
// prints "role=... version=... crc=..." after boot/replay and exits —
// the CI smoke compares the two lines. -replay-storm N applies N
// deterministic arc toggles after boot (with -seed).
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

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
		exprSrc  = flag.String("expr", "lex(delay(32,3), bw(8))", "metarouting expression to serve routes for")
		scenFile = flag.String("scenario", "", "boot from a scenario file (expr + topology + events) instead of -expr/-random")
		replay   = flag.Bool("replay", false, "with -scenario: replay its events into the live server before serving")
		randomN  = flag.Int("random", 48, "random GNP topology node count")
		p        = flag.Float64("p", 0.1, "random topology arc probability")
		seed     = flag.Int64("seed", 1, "random seed")
		dests    = flag.Int("dests", 8, "number of originated destinations (spread over the nodes; ≤0 = every node)")
		workers  = flag.Int("workers", 0, "snapshot builder worker pool size (≤0: GOMAXPROCS)")
		addr     = flag.String("addr", ":8348", "HTTP listen address")
		pprofOn  = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		slowUS   = flag.Int64("slow-query-us", 1000, "slow-query log threshold in microseconds")

		queueCap     = flag.Int("queue-cap", 1024, "event intake queue capacity (≤0: 1024)")
		backpressure = flag.String("backpressure", "reject", "full-queue policy for async events: reject (429) or stale (absorb, snapshot lags)")
		rebuildTO    = flag.Duration("rebuild-timeout", 0, "abandon a batched rebuild after this long, keeping the previous snapshot (0: no deadline)")

		publishAddr = flag.String("publish", "", "leader: serve the replication record stream to followers on this TCP address")
		logDir      = flag.String("log-dir", "", "leader: append every replication record to DIR/replica.log")
		logMaxBytes = flag.Int64("log-max-bytes", 0, "leader: rotate DIR/replica.log to a numbered segment once it passes this many bytes, reseeding the live log with a fresh full snapshot (0: never)")
		follow      = flag.String("follow", "", "follower mode: subscribe to a leader at host:port, or replay a log with file:PATH")
		replayStorm = flag.Int("replay-storm", 0, "leader: apply this many deterministic random arc toggles after boot (CI smoke / log seeding)")
		oneshot     = flag.Bool("oneshot", false, "print role, snapshot version and routing checksum, then exit instead of serving HTTP")
	)
	flag.Parse()
	policy, err := serve.ParseBackpressure(*backpressure)
	if err != nil {
		fatal(err)
	}

	if *follow != "" {
		runFollower(*follow, *addr, *oneshot)
		return
	}

	reg := telemetry.NewRegistry()
	opts := []serve.Option{
		serve.WithWorkers(*workers),
		serve.WithQueueCapacity(*queueCap),
		serve.WithBackpressure(policy),
		serve.WithRebuildTimeout(*rebuildTO),
		serve.WithRegistry(reg),
		serve.WithSlowQuery(time.Duration(*slowUS) * time.Microsecond),
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

	mux := serve.NewHandler(srv, reg)
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
		srv, err := serve.NewServer(serve.Config{Engine: sc.Engine, Graph: sc.Graph,
			Origins: map[int]value.V{sc.Dest: sc.Origin}}, opts...)
		planNote(srv)
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
	if destCount <= 0 || destCount > g.N {
		destCount = g.N
	}
	origins := make(map[int]value.V, destCount)
	for i := 0; i < destCount; i++ {
		origins[i*g.N/destCount] = origin
	}
	srv, err := serve.NewServer(serve.Config{Engine: eng, Graph: g, Origins: origins}, opts...)
	planNote(srv)
	return srv, nil, err
}

// planNote prints the plan the server's column builds run on and, where
// it does not promise forwarding, why — so a looping answer is not the
// first the operator hears of it (nil srv: the boot failed, nothing to
// say).
func planNote(srv *serve.Server) {
	if srv == nil {
		return
	}
	plan := srv.Plan()
	fmt.Fprintln(os.Stderr, "mrserve: plan:", plan)
	if note := plan.ForwardingNote(); note != "" {
		fmt.Fprintln(os.Stderr, "mrserve:", note)
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mrserve:", err)
	os.Exit(1)
}
