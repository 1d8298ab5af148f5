package bench

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/replica"
	"metarouting/internal/rib"
	"metarouting/internal/sched"
	"metarouting/internal/serve"
	"metarouting/internal/serve/wire"
	"metarouting/internal/solve"
)

// This file is the traced pass. Its live half runs the workload's
// windows with the harness's tracer recording at the layer boundaries
// the harness itself owns; its replay half pushes what the live half
// recorded — the captured replication frames, the storm list, the
// query plans — back through each layer's public functions on state
// the harness builds and owns, timing every call from outside. The
// replayed state must end where the live system did.

// solveTimedBatches is how many replayed storms also time the bare
// solver call (which doubles their rebuild cost); the rest only
// advance the chain.
const solveTimedBatches = 64

// directStorms is how many storms the traced pass applies by calling
// Server.ApplyBatch in-process, for the leader's own swap time without
// HTTP.
const directStorms = 24

// layerSet records one per-layer metric.
func (r *run) layer(name string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.res.Metrics[name] = Value{Value: v, Unit: unitOf(name), Samples: n}
}

// timeUS runs f and adds its duration to s.
func timeInto(s *Series, f func()) {
	t0 := time.Now()
	f()
	s.Add(time.Since(t0).Nanoseconds())
}

// traced is the per-layer pass.
func (r *run) traced() error {
	w := r.in.W
	total := time.Duration(r.opt.Seconds * float64(time.Second))
	refD, mainD, probeD := total/8, total/4, total/8
	withWriter := w.Main == MainReadsOpenStorms
	storms := w.Main == MainStorms

	// Live, untraced reference: the same window kind as the traced one,
	// for trace.overhead_pct.
	var refP50 float64
	if storms {
		r.storms(r.warmup(), false)
		ref, _, _ := r.storms(refD, true)
		refP50 = ref.converge.Q(0.5)
		r.ops.add(ref.ops)
	} else {
		r.reads(r.warmup(), false, withWriter)
		ref, ow := r.reads(refD, true, withWriter)
		refP50 = mergeGets(ref).Q(0.5)
		for _, x := range ref {
			r.ops.add(x.ops)
		}
		if ow != nil {
			r.ops.add(ow.ops)
		}
	}
	if withWriter {
		r.writer.reset()
	}

	// Live, traced.
	r.tr.Enable(true)
	st0 := r.c.Srv.Stats()
	sent0 := r.stormsSent()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var sw *stormWindow
	var rw [2]*readWindow
	var ow *openWindow
	if storms {
		sw, _, _ = r.storms(mainD, true)
		runtime.ReadMemStats(&m1)
		r.reads(r.warmup()/2, false, false)
		rw, _ = r.reads(probeD, true, false)
	} else {
		rw, ow = r.reads(mainD, true, withWriter)
		runtime.ReadMemStats(&m1)
		r.storms(r.warmup()/2, false)
		sw, _, _ = r.storms(probeD, true)
	}
	r.ops.add(sw.ops)
	for _, x := range rw {
		r.ops.add(x.ops)
	}
	if ow != nil {
		r.ops.add(ow.ops)
		for _, op := range ow.spans {
			r.tr.openStorm(op)
		}
	}
	st1 := r.c.Srv.Stats()
	stageRatio := r.tr.StageSumRatio()
	r.tr.Enable(false)

	// In-process swaps on the live leader.
	applyBatch, err := r.directStorms()
	if err != nil {
		return err
	}
	r.checks()

	// Live readings.
	gets := mergeGets(rw)
	batches := mergeBatches(rw)
	tracedP50 := gets.Q(0.5)
	if storms {
		tracedP50 = sw.converge.Q(0.5)
	}
	r.layer("trace.overhead_pct", 100*(tracedP50-refP50)/refP50, 1)
	r.layer("trace.stage_sum_ratio", stageRatio, r.tr.Storms())
	var tiling error
	if stageRatio < 0.98 || stageRatio > 1.02 {
		tiling = fmt.Errorf("ratio %.4f over %d storms", stageRatio, r.tr.Storms())
	}
	r.gate(tiling, "stage sum reconciliation")
	// Stages report means, because means are what sum to the wall
	// time; their medians are printed beside them as information.
	for name, stage := range map[string]string{
		"serve.events_post_us": StagePost, "serve.intake_us": StageIntake, "replica.ship_us": StageShip,
		"serve.follower_apply_us": StageApply, "serve.follower_first_read_us": StageFirstRead,
	} {
		mean, p50, n := r.tr.Stage(stage)
		r.layer(name, mean, n)
		if n > 0 {
			r.res.Info[name+".p50"] = Value{Value: p50, Unit: "us", Samples: n}
		}
	}
	r.layer("replica.publish_us", r.tr.publishNS.Q(0.5)/1e3, r.tr.publishNS.Len())
	r.layer("serve.leader_get_p50_us", rw[0].get.Q(0.5)/1e3, rw[0].get.Len())
	r.layer("serve.follower_get_p50_us", rw[1].get.Q(0.5)/1e3, rw[1].get.Len())
	r.layer("serve.get_p99_us", gets.Q(0.99)/1e3, gets.Len())
	r.layer("serve.batch_p99_ns", batches.Q(0.99)/BatchQueries, batches.Len())
	r.layer("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC), 1)
	r.layer("runtime.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, int(m1.NumGC-m0.NumGC))

	stormsSent := r.stormsSent() - sent0
	if ow != nil {
		r.layer("gen.storm_late_p95_ms", ow.late.Q(0.95)/1e6, ow.late.Len())
		r.layer("gen.storms_unresolved", float64(ow.unresolved), ow.storms)
		r.layer("serve.queue_depth_max", float64(ow.maxDepth), ow.storms)
	} else {
		r.layer("gen.storm_late_p95_ms", 0, 0)
		r.layer("gen.storms_unresolved", 0, 0)
		r.layer("serve.queue_depth_max", 0, 0)
	}
	ratio := func(a, b uint64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	per := func(a, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return float64(a) / float64(n)
	}
	deltaN := st1.DeltaDestRebuilds - st0.DeltaDestRebuilds
	scratchN := st1.ScratchDestRebuilds - st0.ScratchDestRebuilds
	r.layer("solve.delta_hit_ratio", ratio(deltaN, scratchN), int(deltaN+scratchN))
	r.layer("solve.frontier_nodes", per(st1.DeltaFrontierNodes-st0.DeltaFrontierNodes, deltaN), int(deltaN))
	r.layer("solve.touched_nodes", per(st1.DeltaTouchedNodes-st0.DeltaTouchedNodes, deltaN), int(deltaN))
	r.layer("rib.pages_cloned_ratio", ratio(st1.PagesCloned-st0.PagesCloned, st1.PagesShared-st0.PagesShared), int(deltaN+scratchN))
	r.layer("serve.dest_reuse_ratio", ratio(st1.DestReuses-st0.DestReuses, st1.DestRecomputes-st0.DestRecomputes), int(st1.BatchesApplied-st0.BatchesApplied))
	r.layer("serve.swaps_per_storm", per(st1.SnapshotSwaps-st0.SnapshotSwaps, uint64(stormsSent)), stormsSent)
	r.layer("serve.events_coalesced", float64(st1.EventsCoalesced-st0.EventsCoalesced), stormsSent)
	r.layer("serve.events_rejected", float64(st1.EventsRejected-st0.EventsRejected), stormsSent)
	r.layer("rib.bytes_per_entry", per(uint64(st1.ArenaBytes), uint64(st1.LiveEntries)), st1.LiveEntries)
	fs := r.c.Fol.StatsReply()
	r.layer("replica.stale_skipped", float64(fs.StaleSkipped), 1)
	r.layer("replica.apply_errors", float64(fs.ApplyErrors), 1)
	r.layer("replica.rebootstraps", float64(fs.AppliedFull)-1, 1)
	r.layer("serve.apply_batch_us", applyBatch.Q(0.5)/1e3, applyBatch.Len())

	scrape := NewSeries(8)
	for i := 0; i < 5; i++ {
		timeInto(scrape, func() {
			status, _, err := r.clients[0].get([]byte("/v1/metrics"), nil)
			r.ops.attempted++
			if err != nil || status != 200 {
				r.ops.fail(r.log, "GET /v1/metrics: status %d err %v", status, err)
			}
		})
	}
	r.layer("telemetry.scrape_us", scrape.Q(0.5)/1e3, scrape.Len())

	// Replay.
	rp, err := r.replay()
	if err != nil {
		return err
	}
	r.layer("serve.apply_batch_self_us",
		applyBatch.Q(0.5)/1e3-rp.stormSumUS-r.tr.publishNS.Q(0.5)/1e3, applyBatch.Len())
	r.layer("serve.http_overhead_us", rw[0].get.Q(0.5)/1e3-r.res.Metrics["serve.handler_get_us"].Value, rw[0].get.Len())
	r.layer("gen.failed_ops_ratio", float64(r.ops.failed)/float64(r.ops.attempted), int(r.ops.attempted))

	path := filepath.Join(r.opt.Dir, "trace-"+w.Name+".json")
	if err := r.tr.WriteFile(path); err != nil {
		return err
	}
	r.logf("wrote %s (%d spans)", path, len(r.tr.spans))
	return nil
}

// stormsSent counts the storms both writers have issued so far,
// warm-ups included — the denominator for per-storm server counters.
func (r *run) stormsSent() int {
	n := r.storm.sent
	if r.writer != nil {
		n += r.writer.k
	}
	return n
}

func mergeGets(rw [2]*readWindow) *Series {
	s := NewSeries(rw[0].get.Len() + rw[1].get.Len())
	s.Merge(rw[0].get)
	s.Merge(rw[1].get)
	return s
}

func mergeBatches(rw [2]*readWindow) *Series {
	s := NewSeries(rw[0].batch.Len() + rw[1].batch.Len())
	s.Merge(rw[0].batch)
	s.Merge(rw[1].batch)
	return s
}

// directStorms fails and restores a few arc sets by calling
// Server.ApplyBatch in-process — the leader's whole swap (coalesce,
// view, rebuild, encode, publish) without HTTP — and waits for the
// follower after each so the two never overlap.
func (r *run) directStorms() (*Series, error) {
	s := NewSeries(2 * directStorms)
	ctx := context.Background()
	for i := 0; i < directStorms; i++ {
		arcs := r.in.storm(regionDirect, i).Arcs
		for _, down := range []bool{true, false} {
			evs := make([]serve.ArcEvent, len(arcs))
			for j, a := range arcs {
				evs[j] = serve.ArcEvent{Arc: a, Fail: down}
			}
			t0 := time.Now()
			n, _, err := r.c.Srv.ApplyBatch(ctx, evs)
			s.Add(time.Since(t0).Nanoseconds())
			if err != nil {
				return nil, fmt.Errorf("bench: direct ApplyBatch: %w", err)
			}
			var bad error
			if n != len(arcs) {
				bad = fmt.Errorf("%d of %d arcs toggled", n, len(arcs))
			} else if _, ok := r.c.Applied.waitFor(r.c.Srv.Snapshot().Version, applyTimeout); !ok {
				bad = fmt.Errorf("follower stalled")
			}
			r.gate(bad, "direct ApplyBatch")
		}
	}
	return s, nil
}

// replayed is what the replay hands back to the live half.
type replayed struct {
	// stormSumUS is the median per-storm sum of the replayed leader
	// sub-stages: coalesce + view + pooled rebuild + encode.
	stormSumUS float64
}

// chain is the harness-owned mirror of the leader's routing state: a
// graph view chain, a paged column per destination, the failure mask.
type chain struct {
	eng      exec.Algebra
	base     *graph.Graph
	view     *graph.Graph
	disabled []bool
	cols     map[int]*rib.PagedColumn
	ws       *solve.Workspace
}

// invalidated mirrors the leader's skip rule: destination d is rebuilt
// unless every toggled arc either leaves d or has a head with no route
// toward d.
func (c *chain) invalidated(dests []int, toggles []solve.ArcToggle) []int {
	var out []int
	for _, d := range dests {
		col := c.cols[d]
		for _, t := range toggles {
			a := c.base.Arcs[t.Arc]
			if a.From == d {
				continue
			}
			if _, routed := col.Route(a.To); !routed {
				continue
			}
			out = append(out, d)
			break
		}
	}
	return out
}

// pagedWarmStart reads a paged column as the delta solver's warm start
// — the closure rib.DeltaDestPaged builds internally, over the
// column's exported pages.
func pagedWarmStart(prev *rib.PagedColumn, dest int) solve.WarmStart {
	return func(u int) (bool, int32, int) {
		p := prev.Pages[u>>rib.PageShift]
		s := p.Slots[u&rib.PageMask]
		if !s.Routed {
			return false, 0, -1
		}
		if u == dest {
			return true, s.W, -1
		}
		return true, s.W, int(p.Pool[s.NhOff])
	}
}

// replay rebuilds the setup path and then replays every captured
// frame and the query plans through the layers' public functions.
func (r *run) replay() (*replayed, error) {
	in := r.in
	frames := r.c.Tap.Frames()
	if len(frames) == 0 {
		return nil, fmt.Errorf("bench: traced run captured no frames")
	}
	t0 := time.Now()

	// Setup path.
	infer, compile := NewSeries(8), NewSeries(4)
	for i := 0; i < 5; i++ {
		var err error
		timeInto(infer, func() { _, err = core.InferString(in.W.Expr) })
		if err != nil {
			return nil, err
		}
	}
	var eng exec.Algebra
	for i := 0; i < 3; i++ {
		a, err := core.InferString(in.W.Expr)
		if err != nil {
			return nil, err
		}
		timeInto(compile, func() { eng = exec.For(a.OT, in.Origin) })
	}
	r.layer("core.infer_us", infer.Q(0.5)/1e3, infer.Len())
	r.layer("exec.compile_ms", compile.Q(0.5)/1e6, compile.Len())

	// Concurrent is the wrapper the server itself puts around an
	// interpreting backend; the compiled one comes back unchanged.
	eng = exec.Concurrent(eng)
	ch := &chain{eng: eng, base: in.Graph, disabled: make([]bool, len(in.Graph.Arcs)),
		cols: make(map[int]*rib.PagedColumn, len(in.Dests)), ws: solve.NewWorkspace()}
	ch.view = in.Graph.MaskArcs(ch.disabled)
	// The leader builds its destinations through a worker pool. Time
	// the same Map over the same work against the serial sum — after one
	// untimed pass, so neither side pays the workspaces' first growth.
	workers := r.c.Srv.Stats().Workers
	pool := sched.New(workers, solve.NewWorkspace)
	defer pool.Close()
	pooledBuild := func() (time.Duration, error) {
		t := time.Now()
		err := pool.Map(context.Background(), len(in.Dests), func(i int, ws *solve.Workspace) error {
			_, err := rib.BuildDestPaged(ch.eng, ch.view, in.Dests[i], in.Origin, ws)
			return err
		})
		return time.Since(t), err
	}
	if _, err := pooledBuild(); err != nil {
		return nil, err
	}
	build, scratch, flatten := NewSeries(len(in.Dests)), NewSeries(4), NewSeries(len(in.Dests))
	for _, d := range in.Dests {
		var err error
		timeInto(build, func() { ch.cols[d], err = rib.BuildDestPaged(eng, ch.view, d, in.Origin, ch.ws) })
		if err != nil {
			return nil, err
		}
	}
	wall, err := pooledBuild()
	if err != nil {
		return nil, err
	}
	r.layer("sched.parallel_efficiency", float64(build.Sum())/(float64(workers)*float64(wall.Nanoseconds())), len(in.Dests))
	for i := 0; i < 4 && i < len(in.Dests); i++ {
		timeInto(scratch, func() { r.sink += ch.ws.BellmanFordRaw(eng, ch.view, in.Dests[i], in.Origin, 0).Rounds })
	}
	for _, d := range in.Dests {
		timeInto(flatten, func() { r.sink += len(ch.cols[d].Flatten().Slots) })
	}
	r.layer("rib.build_dest_ms", build.Q(0.5)/1e6, build.Len())
	r.layer("solve.scratch_ms", scratch.Q(0.5)/1e6, scratch.Len())
	r.layer("rib.flatten_us", flatten.Q(0.5)/1e3, flatten.Len())

	encFull := NewSeries(4)
	for i := 0; i < 3; i++ {
		timeInto(encFull, func() {
			_, b, _ := r.c.Srv.EncodeFull()
			r.sink += len(b)
		})
	}
	r.layer("serve.encode_full_us", encFull.Q(0.5)/1e3, encFull.Len())

	// Follower state chain, from the bootstrap record.
	applyFull := NewSeries(4)
	var state *replica.State
	for i := 0; i < 3; i++ {
		rec, err := replica.DecodeRecord(frames[0])
		if err != nil || rec.Kind != replica.KindFull {
			return nil, fmt.Errorf("bench: first captured frame is not a full record: %v", err)
		}
		timeInto(applyFull, func() { state, err = replica.ApplyFull(rec.Full) })
		if err != nil {
			return nil, err
		}
	}
	r.layer("replica.apply_full_us", applyFull.Q(0.5)/1e3, applyFull.Len())
	r.layer("replica.full_record_bytes", float64(len(frames[0])), 1)
	restore := NewSeries(8)
	kept, suppressed := announcementOrigins(state.Kept), announcementOrigins(state.Suppressed)
	for i := 0; i < 5; i++ {
		timeInto(restore, func() { r.sink += rib.RestorePrefixTable(kept, suppressed).Len() })
	}
	r.layer("replica.restore_prefix_us", restore.Q(0.5)/1e3, restore.Len())

	// Storm replay.
	n := len(frames)
	coalesce, view, paged, solveS := NewSeries(n), NewSeries(n), NewSeries(n*len(in.Dests)), NewSeries(n*len(in.Dests))
	encDelta, decode, applyDelta, stormSum, rebuild := NewSeries(n), NewSeries(n), NewSeries(n), NewSeries(n), NewSeries(n)
	clone := NewSeries(n * len(in.Dests))
	var relax uint64
	var relaxN int
	var recBytes []int64
	for fi, frame := range frames[1:] {
		var rec *replica.Record
		var err error
		timeInto(decode, func() { rec, err = replica.DecodeRecord(frame) })
		if err != nil {
			return nil, fmt.Errorf("bench: captured frame %d: %w", fi+1, err)
		}
		if rec.Kind != replica.KindDelta {
			return nil, fmt.Errorf("bench: captured frame %d has kind %d; the replay follows delta records only", fi+1, rec.Kind)
		}
		d := rec.Delta
		recBytes = append(recBytes, int64(len(frame)))
		var sum int64
		lap := func(s *Series, f func()) {
			t := time.Now()
			f()
			ns := time.Since(t).Nanoseconds()
			s.Add(ns)
			sum += ns
		}
		events := make([]serve.ArcEvent, len(d.Toggles))
		for i, t := range d.Toggles {
			events[i] = serve.ArcEvent{Arc: t.Arc, Fail: t.Down}
		}
		lap(coalesce, func() {
			out, _ := serve.Coalesce(events, ch.disabled)
			r.sink += len(out)
		})
		ais := make([]int, len(d.Toggles))
		for i, t := range d.Toggles {
			ch.disabled[t.Arc] = t.Down
			ais[i] = t.Arc
		}
		recompute := ch.invalidated(in.Dests, d.Toggles)
		lap(view, func() {
			switch {
			case len(ais) == 1:
				ch.view = ch.view.WithArcToggled(ais[0], ch.disabled)
			case len(ais) <= 32:
				ch.view = ch.view.WithArcsToggled(ais, ch.disabled)
			default:
				ch.view = ch.base.MaskArcs(ch.disabled)
			}
		})
		next := make(map[int]*rib.PagedColumn, len(ch.cols))
		for dd, c := range ch.cols {
			next[dd] = c
		}
		// Alternate two ways of rebuilding the invalidated columns. Odd
		// frames rebuild them the way the leader does, as one Map over
		// its worker pool, and feed the per-storm stage sum; even frames
		// (the first solveTimedBatches of them) rebuild serially and
		// also time the bare solver call, so rib.clone_us is a
		// difference of two timings taken under the same conditions.
		if serial := fi%2 == 0 && fi/2 < solveTimedBatches; serial {
			for di, dest := range recompute {
				prev := ch.cols[dest]
				_, warmable := prev.Route(dest)
				warmable = warmable && prev.Converged
				solveOnly := func() {
					if !warmable {
						return
					}
					timeInto(solveS, func() {
						_, st := ch.ws.BellmanFordDeltaRaw(ch.eng, ch.view, ch.disabled, dest, in.Origin,
							pagedWarmStart(prev, dest), prev.Clean, d.Toggles, 0)
						relax += st.Relaxations
						relaxN++
					})
				}
				// Whichever call runs second finds the caches warm, so the
				// order alternates and the bias cancels in the median.
				solveFirst := (fi/2+di)%2 == 0
				if solveFirst {
					solveOnly()
				}
				timeInto(paged, func() {
					next[dest], _, _, err = rib.DeltaDestPaged(ch.eng, ch.view, ch.disabled, dest, in.Origin, ch.ws, prev, d.Toggles)
				})
				if err != nil {
					return nil, err
				}
				if !solveFirst {
					solveOnly()
				}
				if warmable {
					clone.Add(paged.ns[paged.Len()-1] - solveS.ns[solveS.Len()-1])
				}
			}
			sum = -1
		} else {
			built := make([]*rib.PagedColumn, len(recompute))
			lap(rebuild, func() {
				err = pool.Map(context.Background(), len(recompute), func(i int, ws *solve.Workspace) error {
					var err error
					built[i], _, _, err = rib.DeltaDestPaged(ch.eng, ch.view, ch.disabled, recompute[i], in.Origin, ws, ch.cols[recompute[i]], d.Toggles)
					return err
				})
			})
			if err != nil {
				return nil, err
			}
			for i, dest := range recompute {
				next[dest] = built[i]
			}
		}
		ch.cols = next
		if sum >= 0 {
			lap(encDelta, func() { r.sink += len(replica.EncodeDelta(d)) })
			stormSum.Add(sum)
		} else {
			timeInto(encDelta, func() { r.sink += len(replica.EncodeDelta(d)) })
		}
		timeInto(applyDelta, func() { state, err = replica.ApplyDelta(state, d) })
		if err != nil {
			return nil, fmt.Errorf("bench: replaying frame %d: %w", fi+1, err)
		}
		if state == nil {
			return nil, fmt.Errorf("bench: replaying frame %d: delta is stale against the chain", fi+1)
		}
	}
	r.layer("replica.decode_us", decode.Q(0.5)/1e3, decode.Len())
	r.layer("serve.coalesce_us", coalesce.Q(0.5)/1e3, coalesce.Len())
	r.layer("graph.view_us", view.Q(0.5)/1e3, view.Len())
	r.layer("serve.rebuild_us", rebuild.Q(0.5)/1e3, rebuild.Len())
	r.layer("rib.delta_paged_us", paged.Q(0.5)/1e3, paged.Len())
	r.layer("solve.delta_us", solveS.Q(0.5)/1e3, solveS.Len())
	r.layer("rib.clone_us", clone.Q(0.5)/1e3, clone.Len())
	if relaxN > 0 {
		r.layer("solve.relaxations", float64(relax)/float64(relaxN), relaxN)
	} else {
		r.layer("solve.relaxations", 0, 0)
	}
	r.layer("replica.encode_delta_us", encDelta.Q(0.5)/1e3, encDelta.Len())
	r.layer("replica.apply_delta_us", applyDelta.Q(0.5)/1e3, applyDelta.Len())
	sort.Slice(recBytes, func(i, j int) bool { return recBytes[i] < recBytes[j] })
	r.layer("replica.record_bytes_p50", Quantile(recBytes, 0.5), len(recBytes))

	// The replayed chains must end where the live system did.
	r.gate(r.chainMatches(ch, state), "replay chain vs live state")

	r.replayQueries(ch)
	r.logf("replay: %d frames in %.2fs", len(frames), time.Since(t0).Seconds())
	return &replayed{stormSumUS: stormSum.Q(0.5) / 1e3}, nil
}

func announcementOrigins(as []replica.Announcement) []rib.PrefixOrigin {
	out := make([]rib.PrefixOrigin, len(as))
	for i, a := range as {
		out[i] = rib.PrefixOrigin{Prefix: a.Prefix, Node: a.Node}
	}
	return out
}

// chainMatches compares the replayed leader chain with the live
// leader's snapshot (slot for slot, weights by name) and the replayed
// follower state with the live follower (version and wire checksum).
func (r *run) chainMatches(ch *chain, state *replica.State) error {
	sn := r.c.Srv.Snapshot()
	if state.Version != sn.Version {
		return fmt.Errorf("replayed state at v%d, leader at v%d", state.Version, sn.Version)
	}
	if got, want := state.Checksum(), r.c.Fol.Checksum(); got != want {
		return fmt.Errorf("replayed follower state checksum %08x, live follower %08x", got, want)
	}
	for i, d := range sn.Disabled {
		if ch.disabled[i] != d {
			return fmt.Errorf("arc %d: replayed disabled=%v, leader %v", i, ch.disabled[i], d)
		}
	}
	live := &weightNamer{eng: sn.RIB().Engine()}
	mine := &weightNamer{eng: ch.eng}
	for _, d := range r.in.Dests {
		if err := sameColumn(sn.Column(d).Flatten(), ch.cols[d].Flatten(), live, mine); err != nil {
			return fmt.Errorf("dest %d: leader vs replayed chain: %w", d, err)
		}
	}
	return nil
}

// discardWriter is an http.ResponseWriter that keeps nothing.
type discardWriter struct {
	h      http.Header
	status int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(status int)      { d.status = status }

// captureWriter keeps the body.
type captureWriter struct {
	discardWriter
	body []byte
}

func (c *captureWriter) Write(b []byte) (int, error) {
	c.body = append(c.body, b...)
	return len(b), nil
}

// replayQueries times the read path's layers over the recorded query
// plans: the leader's handlers called in-process, the wire codec, the
// prefix trie, and column reads on the replayed chain.
func (r *run) replayQueries(ch *chain) {
	plan := r.in.Plans[0]
	const cycles = 64

	// Handlers, in-process.
	var reqs []*http.Request
	for ci := 0; ci < cycles; ci++ {
		for _, g := range plan[ci%len(plan)].Gets {
			req, err := http.NewRequest(http.MethodGet, "http://mrbench"+string(g.Path), nil)
			if err != nil {
				continue
			}
			reqs = append(reqs, req)
		}
	}
	dw := &discardWriter{h: make(http.Header)}
	hget := NewSeries(len(reqs))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, req := range reqs {
		timeInto(hget, func() { r.c.Handler.ServeHTTP(dw, req) })
	}
	runtime.ReadMemStats(&m1)
	r.layer("serve.handler_get_us", hget.Q(0.5)/1e3, hget.Len())
	r.layer("serve.get_alloc_bytes", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(len(reqs)), len(reqs))

	hbatch := NewSeries(cycles)
	var respFrames [][]byte
	for ci := 0; ci < cycles; ci++ {
		c := &plan[ci%len(plan)]
		req, err := http.NewRequest(http.MethodPost, "http://mrbench/v1/routes", bytes.NewReader(c.Frame))
		if err != nil {
			continue
		}
		req.Header.Set("Content-Type", wire.ContentType)
		cw := &captureWriter{discardWriter: discardWriter{h: make(http.Header)}}
		timeInto(hbatch, func() { r.c.Handler.ServeHTTP(cw, req) })
		respFrames = append(respFrames, cw.body)
	}
	r.layer("serve.handler_batch_us", hbatch.Q(0.5)/1e3, hbatch.Len())

	// Wire codec, per query.
	encReq, decReq, encResp, decResp := NewSeries(cycles), NewSeries(cycles), NewSeries(cycles), NewSeries(cycles)
	var buf, out []byte
	var qs []wire.Query
	var as []wire.Answer
	var pool []int32
	for ci := 0; ci < cycles && ci < len(respFrames); ci++ {
		c := &plan[ci%len(plan)]
		timeInto(encReq, func() { buf, _ = wire.AppendQueryRequest(buf[:0], c.Batch) })
		timeInto(decReq, func() { qs, _ = wire.DecodeQueryRequest(c.Frame, qs[:0]) })
		var version uint64
		var err error
		timeInto(decResp, func() { version, as, pool, err = wire.DecodeAnswerResponse(respFrames[ci], as[:0], pool[:0]) })
		if err != nil {
			r.gate(err, "in-process batch response")
			continue
		}
		timeInto(encResp, func() { out, _ = wire.AppendAnswerResponse(out[:0], version, as, pool) })
	}
	perQuery := func(s *Series) float64 { return s.Q(0.5) / BatchQueries }
	r.layer("wire.encode_req_ns", perQuery(encReq), encReq.Len())
	r.layer("wire.decode_req_ns", perQuery(decReq), decReq.Len())
	r.layer("wire.encode_resp_ns", perQuery(encResp), encResp.Len())
	r.layer("wire.decode_resp_ns", perQuery(decResp), decResp.Len())

	// Prefix trie and column reads over every recorded query.
	type resolved struct{ from, dest int }
	var addrs []uint32
	var res []resolved
	for ci := range plan {
		for _, q := range plan[ci].Batch {
			dest := -1
			switch q.Kind {
			case wire.QueryAddr:
				addrs = append(addrs, q.Arg)
				dest, _, _ = r.in.Oracle.MatchNode(q.Arg)
			case wire.QueryPrefix:
				dest, _, _ = r.in.Oracle.MatchPrefixNode(rib.MakePrefix(q.Arg, q.PLen))
			default:
				dest = int(q.Arg)
			}
			if dest >= 0 {
				res = append(res, resolved{int(q.From), dest})
			}
		}
	}
	const reps = 8
	t0 := time.Now()
	for rep := 0; rep < reps; rep++ {
		for _, a := range addrs {
			node, _, _ := r.in.Oracle.MatchNode(a)
			r.sink += node
		}
	}
	r.layer("rib.lpm_ns", float64(time.Since(t0).Nanoseconds())/float64(reps*len(addrs)), reps*len(addrs))
	t0 = time.Now()
	for rep := 0; rep < reps; rep++ {
		for _, q := range res {
			c := ch.cols[q.dest]
			w, _ := c.Route(q.from)
			r.sink += int(w) + len(c.NextHops(q.from))
		}
	}
	r.layer("rib.route_ns", float64(time.Since(t0).Nanoseconds())/float64(reps*len(res)), reps*len(res))
	fwd := NewSeries(2048)
	for i := 0; i < 2048 && i < len(res); i++ {
		timeInto(fwd, func() {
			p, _ := ch.cols[res[i].dest].Forward(res[i].from)
			r.sink += len(p)
		})
	}
	r.layer("rib.forward_us", fwd.Q(0.5)/1e3, fwd.Len())

	// Algebra operators over weights and labels the snapshot holds.
	const pairs = 4096
	ws := make([]int32, 0, pairs)
	labels := make([]int, 0, pairs)
	for i := 0; len(ws) < pairs && i < len(res); i++ {
		if w, ok := ch.cols[res[i].dest].Route(res[i].from); ok {
			ws = append(ws, w)
			labels = append(labels, r.in.Graph.Arcs[(i*7919)%len(r.in.Graph.Arcs)].Label)
		}
	}
	if len(ws) > 1 {
		const opReps = 32
		t0 = time.Now()
		for rep := 0; rep < opReps; rep++ {
			for i, w := range ws {
				r.sink += int(ch.eng.Apply(labels[i], w))
			}
		}
		r.layer("exec.apply_ns", float64(time.Since(t0).Nanoseconds())/float64(opReps*len(ws)), opReps*len(ws))
		t0 = time.Now()
		for rep := 0; rep < opReps; rep++ {
			for i, w := range ws {
				if ch.eng.Lt(w, ws[(i+1)%len(ws)]) {
					r.sink++
				}
			}
		}
		r.layer("exec.lt_ns", float64(time.Since(t0).Nanoseconds())/float64(opReps*len(ws)), opReps*len(ws))
	} else {
		r.layer("exec.apply_ns", 0, 0)
		r.layer("exec.lt_ns", 0, 0)
	}
}
