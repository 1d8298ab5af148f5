package bench

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// Options selects one run.
type Options struct {
	Workload Workload
	Seed     int64
	// Seconds is the measured time: the main window takes two thirds
	// of it and the probe window the rest.
	Seconds float64
	// Trace selects the traced pass: one boot, a short untraced
	// reference window, a traced window a quarter as long as Seconds,
	// then the replay. It reports the per-layer metrics instead of the
	// end-to-end ones.
	Trace bool
	// Dir is where the run keeps its replica log and writes
	// trace-<workload>.json.
	Dir string
	// Log receives progress lines (nil: discarded).
	Log io.Writer
}

// Value is one reported metric value.
type Value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// Result is one run's outcome.
type Result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Traced    bool             `json:"traced"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
	// Info carries readings that are printed but never gated (p99s,
	// probe sample counts, …).
	Info     map[string]Value `json:"info,omitempty"`
	Failures []string         `json:"failures,omitempty"`
	Env      Env              `json:"env"`
	Shape    Shape            `json:"shape"`
}

// Env records where a run happened.
type Env struct {
	Host       string `json:"host"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Transport  string `json:"transport"`
}

// Shape records what a run drove.
type Shape struct {
	Expr       string `json:"expr"`
	Engine     string `json:"engine"`
	Nodes      int    `json:"nodes"`
	Arcs       int    `json:"arcs"`
	Dests      int    `json:"destinations"`
	Prefixes   int    `json:"prefixes_kept"`
	Suppressed int    `json:"prefixes_suppressed"`
	Workers    int    `json:"workers"`
	Main       string `json:"main_window"`
	Probe      string `json:"probe_window"`
	InputHash  string `json:"input_hash"`
}

func currentEnv() Env {
	host, _ := os.Hostname()
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return Env{Host: host, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit,
		Transport: "loopback TCP, one process; no traffic crossed a real link"}
}

// run is one run's working state.
type run struct {
	opt Options
	in  *Inputs
	c   *Cluster
	tr  *Tracer
	log *failLog
	ops opCount
	res *Result

	// sink absorbs the results of timed calls so the compiler cannot
	// drop them.
	sink int

	storm   *stormDriver
	readers [2]*readDriver
	writer  *openWriter
	clients []*client
	refs    []*hostRef
}

func (r *run) logf(format string, args ...any) {
	if r.opt.Log != nil {
		fmt.Fprintf(r.opt.Log, "mrbench: "+format+"\n", args...)
	}
}

// gate counts one correctness check.
func (r *run) gate(err error, what string) {
	r.ops.attempted++
	if err != nil {
		r.ops.fail(r.log, "%s: %v", what, err)
	}
}

// An untraced run sets the system up several times and reports the
// median as setup_s: three times at 100k nodes (0.6 s each), more often
// the smaller the topology — nine times at 2k nodes, where a boot takes
// 40 ms and three would be a median of noise. The count depends on the
// workload alone, never on how fast the boots went: heap_live_mb is read
// after the last boot and must see the same history every run.
func bootsFor(w Workload) int {
	return min(9, max(3, 50000/w.Nodes))
}

// maxWarmup caps how long a window kind runs unrecorded before its
// measured window starts; short runs (the smoke tests) warm up for an
// eighth of their measured time instead.
const maxWarmup = 2 * time.Second

func (r *run) warmup() time.Duration {
	return min(maxWarmup, time.Duration(r.opt.Seconds*float64(time.Second))/8)
}

// Run executes one run of one workload and reports its metrics. The
// error is for harness failures (cannot listen, cannot boot); failed
// operations and failed correctness gates come back in the Result.
func Run(opt Options) (*Result, error) {
	if opt.Seconds <= 0 {
		return nil, fmt.Errorf("bench: seconds must be positive")
	}
	r := &run{opt: opt, log: &failLog{}}
	r.res = &Result{Workload: opt.Workload.Name, Seed: opt.Seed, Seconds: opt.Seconds, Traced: opt.Trace,
		Metrics: map[string]Value{}, Info: map[string]Value{}, Env: currentEnv()}
	var err error
	if r.in, err = Generate(opt.Workload, opt.Seed); err != nil {
		return nil, err
	}
	r.logf("%s seed %d: %d nodes, %d arcs, %d destinations, %d prefixes kept",
		opt.Workload.Name, opt.Seed, r.in.Graph.N, len(r.in.Graph.Arcs), len(r.in.Dests), r.in.Oracle.Len())

	// Setup: boot the whole system several times; the last boot is the
	// one the run measures.
	boots := bootsFor(opt.Workload)
	if opt.Trace {
		boots = 1
		r.tr = NewTracer()
	}
	defer func() {
		for _, cl := range r.clients {
			cl.close()
		}
		for _, h := range r.refs {
			h.close()
		}
		if r.c != nil {
			r.c.Close()
		}
	}()
	if !opt.Trace {
		// The end-to-end pass normalises by the host reference
		// (hostref.go): one echo connection for each generator goroutine.
		for range 3 {
			h, err := newHostRef()
			if err != nil {
				return nil, err
			}
			r.refs = append(r.refs, h)
		}
	}
	var setups []float64
	for i := 0; i < boots; i++ {
		if r.c != nil {
			r.c.Close()
			r.c = nil
		}
		// Start every boot from a collected heap so one boot's garbage
		// is not billed to the next.
		runtime.GC()
		dir := filepath.Join(opt.Dir, fmt.Sprintf("log-%d-%d", os.Getpid(), i))
		c, d, err := Boot(r.in, dir, r.tr)
		if err != nil {
			return nil, fmt.Errorf("bench: boot %d: %w", i, err)
		}
		r.c = c
		setups = append(setups, d.Seconds())
		r.gate(c.Parity(), "parity after boot")
		r.logf("boot %d: %.3fs", i, d.Seconds())
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapLiveMB := float64(ms.HeapAlloc) / (1 << 20)

	if err := r.connect(); err != nil {
		return nil, err
	}
	r.fillShape()

	if opt.Trace {
		if err := r.traced(); err != nil {
			return nil, err
		}
	} else {
		r.untraced(setups, heapLiveMB)
	}

	r.res.Attempted, r.res.Failed = r.ops.attempted, r.ops.failed
	r.res.Failures = r.log.lines
	r.res.Correct = r.res.Failed == 0 && r.res.Attempted > 0
	for name, v := range r.res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			r.res.Correct = false
			r.res.Failures = append(r.res.Failures, fmt.Sprintf("metric %s has no samples", name))
			v.Value = 0
			r.res.Metrics[name] = v
		}
	}
	return r.res, nil
}

// connect opens the generator's client connections — never more than
// two are in use at a time: the storm driver's leader and follower
// connections, or the two read clients' one each.
func (r *run) connect() error {
	leader, err := dial(r.c.LeaderAddr)
	if err != nil {
		return err
	}
	follower, err := dial(r.c.FollowerAddr)
	if err != nil {
		leader.close()
		return err
	}
	r.clients = []*client{leader, follower}
	r.storm = &stormDriver{in: r.in, leader: leader, follower: follower, applied: r.c.Applied, tr: r.tr, log: r.log}
	r.readers[0] = &readDriver{plan: r.in.Plans[0], cl: leader, tr: r.tr, log: r.log, role: "leader"}
	r.readers[1] = &readDriver{plan: r.in.Plans[1], cl: follower, tr: r.tr, log: r.log, role: "follower"}
	if len(r.refs) == 3 {
		r.storm.ref, r.readers[0].ref, r.readers[1].ref = r.refs[0], r.refs[1], r.refs[2]
	}
	if r.in.W.Main == MainReadsOpenStorms {
		r.writer = newOpenWriter(r.in, r.c.Srv, r.log)
		r.c.Applied.mu.Lock()
		r.c.Applied.onDelta = r.writer.onDelta
		r.c.Applied.mu.Unlock()
	}
	return nil
}

func (r *run) fillShape() {
	st := r.c.Srv.Stats()
	main, probe := "", ""
	switch r.in.W.Main {
	case MainStorms:
		main = "closed loop: 1 storm writer (sync POST /v1/events, 4-arc fail then restore, follower verification GET), 2 connections"
		probe = "closed loop: 2 read clients (leader, follower), 8 GETs + one 256-query binary batch per cycle"
	case MainReads:
		main = "closed loop: 2 read clients (leader, follower), 8 GETs + one 256-query binary batch per cycle, no writer"
		probe = "closed loop: 1 storm writer, 2 connections, no readers"
	case MainReadsOpenStorms:
		main = fmt.Sprintf("closed loop: 2 read clients; open loop: one 4-arc storm every %v through Server.EnqueueEvent (%.0f/s), timed from its due time",
			r.in.W.StormEvery, float64(time.Second)/float64(r.in.W.StormEvery))
		probe = "closed loop: 1 storm writer, 2 connections, no readers"
	}
	r.res.Shape = Shape{Expr: r.in.W.Expr, Engine: st.Engine, Nodes: st.Nodes, Arcs: st.Arcs, Dests: st.Destinations,
		Prefixes: st.Prefixes, Suppressed: st.SuppressedPrefixes, Workers: st.Workers,
		Main: main, Probe: probe, InputHash: fmt.Sprintf("%016x", r.in.Hash())}
}

// reads runs both read clients (and, on the open-loop workload, the
// storm writer beside them) until the window ends. record=false is a
// warm-up.
func (r *run) reads(d time.Duration, record, withWriter bool) (rw [2]*readWindow, ow *openWindow) {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, rd := range r.readers {
		if record {
			rw[i] = newReadWindow()
		}
		if withWriter && i == 1 {
			rd.gate = r.c.Applied.Version
		} else {
			rd.gate = nil
		}
		wg.Add(1)
		go func(rd *readDriver, w *readWindow) {
			defer wg.Done()
			rd.run(deadline, w)
		}(rd, rw[i])
	}
	if withWriter {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.writer.run(start, deadline, record)
		}()
	}
	wg.Wait()
	if withWriter && record {
		ow = r.writer.finish()
	}
	return rw, ow
}

// storms runs the closed-loop storm driver for d and reports the
// window plus what the process allocated and published meanwhile.
func (r *run) storms(d time.Duration, record bool) (w *stormWindow, allocBytes uint64, swaps uint64) {
	if !record {
		r.storm.run(time.Now().Add(d), nil)
		return nil, 0, 0
	}
	w = newStormWindow()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	s0 := r.c.Srv.Stats().SnapshotSwaps
	r.storm.run(time.Now().Add(d), w)
	runtime.ReadMemStats(&m1)
	return w, m1.TotalAlloc - m0.TotalAlloc, r.c.Srv.Stats().SnapshotSwaps - s0
}

// untraced is the end-to-end pass.
func (r *run) untraced(setups []float64, heapLiveMB float64) {
	w := r.in.W
	total := time.Duration(r.opt.Seconds * float64(time.Second))
	mainD, probeD := total*2/3, total/3
	withWriter := w.Main == MainReadsOpenStorms

	var sw *stormWindow
	var rw [2]*readWindow
	var ow *openWindow
	var alloc, swaps uint64
	r.c.Applied.takeDeltaBytes()
	if w.Main == MainStorms {
		r.storms(r.warmup(), false)
		sw, alloc, swaps = r.storms(mainD, true)
		r.gate(r.c.Parity(), "parity after storm window")
		r.reads(r.warmup()/2, false, false)
		rw, _ = r.reads(probeD, true, false)
	} else {
		r.reads(r.warmup(), false, withWriter)
		rw, ow = r.reads(mainD, true, withWriter)
		r.gate(r.c.Parity(), "parity after read window")
		r.storms(r.warmup()/2, false)
		sw, alloc, swaps = r.storms(probeD, true)
	}
	wire := r.c.Applied.takeDeltaBytes()
	r.checks()

	// Assemble. Timings are steady quantiles (see Steady): cut into
	// chunks in arrival order, better quartile across chunks — then
	// divided by the host factor of the window they were taken in (see
	// hostref.go); the raw reading is kept as information.
	stormHost, readHost := hostFactor(sw.ref), hostFactor(rw[0].ref, rw[1].ref)
	r.res.Info["host.echo_rtt_us.storm_window"] = Value{Value: stormHost * refNominalNs / 1e3, Unit: "us", Samples: sw.ref.Len()}
	r.res.Info["host.echo_rtt_us.read_window"] = Value{Value: readHost * refNominalNs / 1e3, Unit: "us", Samples: rw[0].ref.Len() + rw[1].ref.Len()}
	m := r.res.Metrics
	set := func(name string, v float64, n int) {
		m[name] = Value{Value: v, Unit: unitOf(name), Samples: n}
	}
	timing := func(name string, p, scale, host float64, series ...*Series) {
		n := 0
		for _, s := range series {
			n += s.Len()
		}
		raw := SteadyQ(p, series...) / scale
		set(name, raw/host, n)
		r.info("raw."+name, raw, n)
	}
	// The boots are divided by the factor of the main window, which
	// starts two seconds after the last of them: an echo on an idle
	// system (between boots) reads the wake-up from idle, not the host.
	mainHost := readHost
	if w.Main == MainStorms {
		mainHost = stormHost
	}
	set("setup_s", medianFloat(setups)/mainHost, len(setups))
	r.info("raw.setup_s", medianFloat(setups), len(setups))
	set("heap_live_mb", heapLiveMB, 1)
	converge, convergeHost := sw.converge, stormHost
	if ow != nil {
		// The open-loop storms ran in the read window, beside the readers.
		converge, convergeHost = ow.converge, readHost
		r.ops.add(ow.ops)
		r.info("gen.storm_late_p95_ms", ow.late.Q(0.95)/1e6, ow.late.Len())
		r.info("gen.storms_unresolved", float64(ow.unresolved), ow.storms)
		r.info("serve.queue_depth_max", float64(ow.maxDepth), ow.storms)
	}
	timing("converge_p50_ms", 0.50, 1e6, convergeHost, converge)
	// The tail of convergence is information only: 600–1000 storms a
	// window put the 95th percentile on the knee between the swaps that
	// met a collection and those that did not, and it would not repeat
	// (README). Both are normalised like the median.
	for _, q := range []struct {
		name string
		p    float64
	}{{"converge_p95_ms", 0.95}, {"converge_p99_ms", 0.99}} {
		r.res.Info[q.name] = Value{Value: converge.Q(q.p) / 1e6 / convergeHost, Unit: "ms", Samples: converge.Len()}
	}
	timing("leader_swap_p50_ms", 0.50, 1e6, stormHost, sw.leaderSwap)
	r.ops.add(sw.ops)
	if swaps > 0 {
		set("swap_alloc_bytes", float64(alloc)/float64(swaps), int(swaps))
	} else {
		set("swap_alloc_bytes", math.NaN(), 0)
	}
	wireS := NewSeries(len(wire))
	for _, b := range wire {
		wireS.Add(int64(b))
	}
	set("wire_bytes_per_swap", wireS.Q(0.5), wireS.Len())
	r.res.Info["wire_bytes_mean"] = Value{Value: wireS.Mean(), Unit: "B", Samples: wireS.Len()}

	readD := mainD
	if w.Main == MainStorms {
		readD = probeD
	}
	var answers int64
	rates := make([]float64, maxChunks)
	for _, w := range rw {
		answers += w.answers
		r.ops.add(w.ops)
		for i, v := range w.rates(readD, maxChunks) {
			rates[i] += v
		}
	}
	timing("route_get_p50_us", 0.50, 1e3, readHost, rw[0].get, rw[1].get)
	timing("route_get_p95_us", 0.95, 1e3, readHost, rw[0].get, rw[1].get)
	timing("batch_query_p50_ns", 0.50, BatchQueries, readHost, rw[0].batch, rw[1].batch)
	timing("batch_query_p95_ns", 0.95, BatchQueries, readHost, rw[0].batch, rw[1].batch)
	set("queries_per_s", Steady(rates, true)*readHost, int(answers))
	r.info("raw.queries_per_s", Steady(rates, true), int(answers))
	r.res.Info["queries_per_s_mean"] = Value{Value: float64(answers) / readD.Seconds(), Unit: "1/s", Samples: int(answers)}
	gets := mergeGets(rw)
	batches := mergeBatches(rw)
	r.info("serve.get_p99_us", gets.Q(0.99)/1e3, gets.Len())
	r.info("serve.batch_p99_ns", batches.Q(0.99)/BatchQueries, batches.Len())
	r.info("serve.leader_get_p50_us", rw[0].get.Q(0.5)/1e3, rw[0].get.Len())
	r.info("serve.follower_get_p50_us", rw[1].get.Q(0.5)/1e3, rw[1].get.Len())
	r.info("serve.follower_first_read_us", sw.firstRead.Q(0.5)/1e3, sw.firstRead.Len())
	st := r.c.Srv.Stats()
	if n := st.DeltaDestRebuilds + st.ScratchDestRebuilds; n > 0 {
		r.info("solve.delta_hit_ratio", float64(st.DeltaDestRebuilds)/float64(n), int(n))
	}
}

// info records a catalogue metric that this pass prints without
// gating (the other pass reports it as a metric).
func (r *run) info(name string, v float64, n int) {
	r.res.Info[name] = Value{Value: v, Unit: unitOf(strings.TrimPrefix(name, "raw.")), Samples: n}
}

// unitOf looks a metric's unit up in the catalogue.
func unitOf(name string) string {
	for _, defs := range [][]MetricDef{EndToEnd, PerLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}

// SortedNames returns m's keys in catalogue order (unknown names last,
// alphabetically).
func SortedNames(m map[string]Value) []string {
	rank := map[string]int{}
	for _, defs := range [][]MetricDef{EndToEnd, PerLayer} {
		for _, d := range defs {
			rank[d.Name] = len(rank)
		}
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		ri, oki := rank[names[i]]
		rj, okj := rank[names[j]]
		switch {
		case oki && okj:
			return ri < rj
		case oki != okj:
			return oki
		}
		return names[i] < names[j]
	})
	return names
}
