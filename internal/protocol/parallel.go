// Parallel discrete-event simulation engine.
//
// Run shards per-node event wheels across an internal/sched worker pool
// and advances simulation time in tick-sized windows with a barrier
// merge between them. The design exploits two structural facts:
//
//  1. Every message delay is ≥ 1 tick, so a message processed at tick T
//     can only schedule deliveries at ≥ T+1 — all deliveries at one tick
//     are causally independent across nodes, and the whole tick is a safe
//     parallel window with no lookahead computation.
//  2. Node state (RIB, best route, per-sender sequence and delay-draw
//     counters, per-in-arc FIFO floors) partitions by node, and a shard
//     owns all of its nodes' state — workers never share mutable state
//     inside a window.
//
// Determinism. With Config.PerNodeDelays, a node's delay draws are a pure
// function of (Seed, node, draw counter), and its draw/sequence counters
// advance only with its own activity — which the shard replays in the
// serial engine's exact per-node order (deliveries pop in (time, sender,
// seq) order; topology events fire between windows, exactly where the
// serial engine fires them). Messages produced inside a window land in
// per-shard outboxes and are merged into the destination wheels at the
// barrier; since (time, sender, seq) is a total order on messages, wheel
// pop order is independent of insertion order. The result: the same
// (engine, graph, Config) produces an Outcome bit-identical to
// RunEngine's, regardless of worker count or interleaving — the serial
// engine stays the differential oracle, and the determinism suite holds
// the two equal under the race detector.
package protocol

import (
	"context"
	"fmt"
	"sort"

	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/sched"
	"metarouting/internal/telemetry"
	"metarouting/internal/value"
)

// inlineWindow is the window-size cutover below which a window is
// processed on the coordinator goroutine instead of being fanned out:
// for a handful of messages the pool hand-off costs more than the work.
// Inline processing is outcome-identical (windows are order-free across
// nodes), so the cutover is a pure performance knob.
const inlineWindow = 64

// Parallel is a reusable parallel simulation engine: a fixed sched pool
// whose workers process event-wheel shards. One Parallel can run many
// simulations, sequentially or concurrently (Run is safe for concurrent
// use; each call owns its simulation state and uses the pool only
// through Map).
type Parallel struct {
	pool   *sched.Pool[struct{}]
	shards int
}

// NewParallel starts a parallel engine with the given shard/worker count
// (≤ 0: sched.DefaultWorkers). Close releases the workers.
func NewParallel(shards int) *Parallel {
	if shards <= 0 {
		shards = sched.DefaultWorkers()
	}
	return &Parallel{
		pool:   sched.New(shards, func() struct{} { return struct{}{} }),
		shards: shards,
	}
}

// Shards returns the engine's shard (= worker) count.
func (p *Parallel) Shards() int { return p.shards }

// Close shuts the worker pool down. No Run may be in flight or follow.
func (p *Parallel) Close() { p.pool.Close() }

// RunParallel is the one-shot convenience wrapper: it builds a parallel
// engine, runs the simulation, and tears the engine down.
func RunParallel(ctx context.Context, eng exec.Algebra, g *graph.Graph, cfg Config, shards int) (*Outcome, error) {
	p := NewParallel(shards)
	defer p.Close()
	return p.Run(ctx, eng, g, cfg)
}

// pmsg is the parallel engine's message: a value type so wheels hold
// flat slices instead of heap-boxed pointers.
type pmsg struct {
	at       int64
	from, to int32
	seq      int32
	withdraw bool
	rt       route
}

// pmsgLess is the (time, sender, seq) delivery order — a total order on
// messages (per-sender seq is unique), so wheel pop order is independent
// of insertion order.
func pmsgLess(a, b *pmsg) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.from != b.from {
		return a.from < b.from
	}
	return a.seq < b.seq
}

// wheel is a shard's event wheel: a value-typed binary min-heap in
// (time, sender, seq) order.
type wheel struct{ h []pmsg }

func (w *wheel) push(m pmsg) {
	w.h = append(w.h, m)
	i := len(w.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !pmsgLess(&w.h[i], &w.h[p]) {
			break
		}
		w.h[i], w.h[p] = w.h[p], w.h[i]
		i = p
	}
}

// peekAt returns the next delivery time, or -1 when the wheel is empty.
func (w *wheel) peekAt() int64 {
	if len(w.h) == 0 {
		return -1
	}
	return w.h[0].at
}

func (w *wheel) pop() pmsg {
	top := w.h[0]
	n := len(w.h) - 1
	w.h[0] = w.h[n]
	w.h = w.h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && pmsgLess(&w.h[l], &w.h[small]) {
			small = l
		}
		if r < n && pmsgLess(&w.h[r], &w.h[small]) {
			small = r
		}
		if small == i {
			break
		}
		w.h[i], w.h[small] = w.h[small], w.h[i]
		i = small
	}
	return top
}

// obsRec buffers one delivery's observer/trace output inside a window,
// keyed by the delivered message so the barrier can emit records in the
// serial engine's global (sender, seq) order.
type obsRec struct {
	from, seq int32
	obs       []Event
	trs       []telemetry.TraceEvent
}

// pshard is one event-wheel shard: the wheel, the window's popped batch,
// the outbox of messages produced during the window, and the buffered
// observer/trace records. A shard is touched by exactly one worker per
// window; the coordinator owns it at barriers.
type pshard struct {
	wheel  wheel
	batch  []pmsg
	outbox []pmsg
	recs   []obsRec
}

// psim is one parallel simulation run. Node-indexed state is written
// only by the owning shard inside windows and only by the coordinator at
// barriers.
type psim struct {
	eng      exec.Algebra
	g        *graph.Graph
	cfg      *Config
	nodes    []node
	disabled []bool
	conv     Convergence
	lastAt   []int64  // per in-arc FIFO floor (owned by the arc's head shard)
	seq      []int32  // per-sender sequence counters
	draw     []uint64 // per-sender delay-draw counters
	shards   []pshard
	nshards  int
	tracing  bool
	now      int64
	maxAt    int64
}

func (ps *psim) shardOf(u int) int { return u % ps.nshards }

// advertise mirrors the serial engine's advertise: u's current best (or
// a withdrawal) to every enabled in-neighbour, with the per-sender delay
// draw and per-arc FIFO clamp. Messages go to the caller's outbox; the
// coordinator distributes them at the barrier.
func (ps *psim) advertise(s *pshard, u int) {
	for _, ai := range ps.g.In(u) {
		if ps.disabled[ai] {
			continue
		}
		p := ps.g.Arcs[ai].From
		at := ps.now + nodeDelay(ps.cfg.Seed, u, ps.draw[u], ps.cfg.MaxDelay)
		ps.draw[u]++
		if at <= ps.lastAt[ai] {
			at = ps.lastAt[ai] + 1
		}
		ps.lastAt[ai] = at
		m := pmsg{at: at, from: int32(u), to: int32(p), seq: ps.seq[u]}
		ps.seq[u]++
		if ps.nodes[u].hasBest {
			m.rt = ps.nodes[u].best
		} else {
			m.withdraw = true
		}
		ps.conv.Announcements[u]++
		s.outbox = append(s.outbox, m)
	}
}

// reselect recomputes u's best from its RIB over enabled arcs — the
// serial engine's selection rule, verbatim.
func (ps *psim) reselect(u int) bool {
	if u == ps.cfg.Dest {
		return false
	}
	prevHas, prev, prevFrom := ps.nodes[u].hasBest, ps.nodes[u].best, ps.nodes[u].bestFrom
	ps.nodes[u].hasBest = false
	ps.nodes[u].bestFrom = -1
	for _, ai := range ps.g.Out(u) {
		if ps.disabled[ai] {
			continue
		}
		v := ps.g.Arcs[ai].To
		cand, ok := ps.nodes[u].rib[v]
		if !ok {
			continue
		}
		if !ps.nodes[u].hasBest || ps.eng.Lt(cand.weight, ps.nodes[u].best.weight) {
			ps.nodes[u].best = cand
			ps.nodes[u].hasBest = true
			ps.nodes[u].bestFrom = v
		}
	}
	changed := prevHas != ps.nodes[u].hasBest ||
		(ps.nodes[u].hasBest && (prevFrom != ps.nodes[u].bestFrom || prev.weight != ps.nodes[u].best.weight ||
			!samePath(prev.path, ps.nodes[u].best.path)))
	if changed {
		ps.conv.Flaps[u]++
	}
	return changed
}

// selectEvents renders u's committed route change as observer/trace
// events (the serial engine's noteSelect, in buffered form).
func (ps *psim) selectEvents(u int, rec *obsRec) {
	if ps.cfg.Observer != nil {
		ev := Event{Kind: EvSelect, At: ps.now, Node: u, Withdraw: !ps.nodes[u].hasBest}
		if ps.nodes[u].hasBest {
			ev.Weight = ps.eng.Value(ps.nodes[u].best.weight)
			ev.Path = ps.nodes[u].best.path
		}
		rec.obs = append(rec.obs, ev)
	}
	if ps.cfg.Trace != nil {
		detail := "lost"
		if ps.nodes[u].hasBest {
			detail = fmt.Sprintf("%s %v", value.Format(ps.eng.Value(ps.nodes[u].best.weight)), ps.nodes[u].best.path)
		}
		rec.trs = append(rec.trs, telemetry.TraceEvent{At: ps.now, Kind: "select", Node: u, Detail: detail})
	}
}

// deliver processes one message at u — the serial engine's delivery
// body. Observer/trace output is buffered on rec for ordered emission at
// the barrier.
func (ps *psim) deliver(s *pshard, m pmsg) {
	u := int(m.to)
	ps.conv.Deliveries[u]++
	var rec *obsRec
	if ps.tracing {
		s.recs = append(s.recs, obsRec{from: m.from, seq: m.seq})
		rec = &s.recs[len(s.recs)-1]
		if ps.cfg.Observer != nil {
			ev := Event{Kind: EvDeliver, At: ps.now, Node: u, From: int(m.from),
				Withdraw: m.withdraw, Path: m.rt.path}
			if !m.withdraw {
				ev.Weight = ps.eng.Value(m.rt.weight)
			}
			rec.obs = append(rec.obs, ev)
		}
		if ps.cfg.Trace != nil {
			detail := "withdraw"
			if !m.withdraw {
				detail = fmt.Sprintf("%s %v", value.Format(ps.eng.Value(m.rt.weight)), m.rt.path)
			}
			rec.trs = append(rec.trs, telemetry.TraceEvent{At: ps.now, Kind: "deliver", Node: u, From: int(m.from), Detail: detail})
		}
	}
	// Resolve the arc (u → m.from) the advertisement travelled against;
	// deliveries over a failed link are lost.
	arcIdx := -1
	for _, ai := range ps.g.Out(u) {
		if ps.g.Arcs[ai].To == int(m.from) {
			arcIdx = int(ai)
			break
		}
	}
	if arcIdx < 0 || ps.disabled[arcIdx] {
		return
	}
	if m.withdraw {
		delete(ps.nodes[u].rib, int(m.from))
	} else if !ps.cfg.DistanceVector && m.rt.contains(u) {
		delete(ps.nodes[u].rib, int(m.from))
	} else {
		w := ps.eng.Apply(ps.g.Arcs[arcIdx].Label, m.rt.weight)
		var path []int
		if !ps.cfg.DistanceVector {
			path = make([]int, 0, len(m.rt.path)+1)
			path = append(path, u)
			path = append(path, m.rt.path...)
		}
		ps.nodes[u].rib[int(m.from)] = route{weight: w, path: path}
	}
	if ps.reselect(u) {
		if rec != nil {
			ps.selectEvents(u, rec)
		}
		ps.advertise(s, u)
	}
}

// fire applies a topology event at the barrier — the serial engine's
// fire, with observer/trace emitted directly (the coordinator owns the
// whole simulation between windows).
func (ps *psim) fire(ev LinkEvent) {
	if ev.Arc < 0 || ev.Arc >= len(ps.g.Arcs) || ps.disabled[ev.Arc] == ev.Fail {
		return
	}
	ps.disabled[ev.Arc] = ev.Fail
	arc := ps.g.Arcs[ev.Arc]
	if ps.cfg.Observer != nil {
		ps.cfg.Observer(Event{Kind: EvLinkChange, At: ps.now, Node: arc.From, Arc: ev.Arc, Fail: ev.Fail})
	}
	if ps.cfg.Trace != nil {
		detail := "up"
		if ev.Fail {
			detail = "fail"
		}
		ps.cfg.Trace.Trace(telemetry.TraceEvent{At: ps.now, Kind: "link", Node: arc.From, Arc: ev.Arc, Detail: detail})
	}
	if ev.Fail {
		delete(ps.nodes[arc.From].rib, arc.To)
		if ps.reselect(arc.From) {
			var rec obsRec
			ps.selectEvents(arc.From, &rec)
			ps.emitRec(&rec)
			ps.advertise(&ps.shards[ps.shardOf(arc.From)], arc.From)
		}
	} else {
		ps.advertise(&ps.shards[ps.shardOf(arc.To)], arc.To)
	}
}

// emitRec flushes one record's buffered events to the observer/tracer.
func (ps *psim) emitRec(rec *obsRec) {
	for i := range rec.obs {
		ps.cfg.Observer(rec.obs[i])
	}
	for i := range rec.trs {
		ps.cfg.Trace.Trace(rec.trs[i])
	}
}

// merge is the deterministic barrier merge: distribute every outbox
// message to its destination shard's wheel (updating maxAt), then emit
// the window's buffered observer/trace records in the serial engine's
// global (sender, seq) order.
func (ps *psim) merge() {
	for i := range ps.shards {
		s := &ps.shards[i]
		for _, m := range s.outbox {
			if m.at > ps.maxAt {
				ps.maxAt = m.at
			}
			ps.shards[ps.shardOf(int(m.to))].wheel.push(m)
		}
		s.outbox = s.outbox[:0]
	}
	if !ps.tracing {
		return
	}
	var recs []obsRec
	for i := range ps.shards {
		recs = append(recs, ps.shards[i].recs...)
		ps.shards[i].recs = ps.shards[i].recs[:0]
	}
	// All records belong to the current tick; (sender, seq) is unique, so
	// this sort reproduces the serial pop order exactly.
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].from != recs[j].from {
			return recs[i].from < recs[j].from
		}
		return recs[i].seq < recs[j].seq
	})
	for i := range recs {
		ps.emitRec(&recs[i])
	}
}

// Run simulates the path-vector protocol on the parallel engine. The
// configuration must set PerNodeDelays — the shared-Rand delay stream is
// drawn in global processing order and is inherently serial. Same
// (engine, graph, Config) as a RunEngine call ⇒ bit-identical Outcome
// and identical observer/trace streams. Unlike RunEngine it returns
// errors instead of panicking; a context cancellation abandons the run
// and returns ctx.Err().
func (p *Parallel) Run(ctx context.Context, eng exec.Algebra, g *graph.Graph, cfg Config) (*Outcome, error) {
	if err := cfg.Validate(g); err != nil {
		return nil, err
	}
	if !cfg.PerNodeDelays {
		return nil, fmt.Errorf("protocol: the parallel engine requires Config.PerNodeDelays (shared-Rand delay draws are inherently serial)")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// The dynamic backend interns lazily; wrap it for concurrent use.
	// (Index assignment order then depends on scheduling, but hash-consing
	// keeps index equality ≡ value equality, so behaviour is unchanged.)
	eng = exec.Concurrent(eng)
	origin, err := eng.Intern(cfg.Origin)
	if err != nil {
		return nil, fmt.Errorf("protocol: %v", err)
	}
	maxSteps := cfg.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 200 * g.N * g.N
	}

	ps := &psim{
		eng:      eng,
		g:        g,
		cfg:      &cfg,
		nodes:    make([]node, g.N),
		disabled: make([]bool, len(g.Arcs)),
		lastAt:   make([]int64, len(g.Arcs)),
		seq:      make([]int32, g.N),
		draw:     make([]uint64, g.N),
		shards:   make([]pshard, p.shards),
		nshards:  p.shards,
		tracing:  cfg.Observer != nil || cfg.Trace != nil,
	}
	for i := range ps.nodes {
		ps.nodes[i] = node{rib: make(map[int]route), bestFrom: -1}
	}
	ps.nodes[cfg.Dest].best = route{weight: origin, path: []int{cfg.Dest}}
	ps.nodes[cfg.Dest].hasBest = true
	ps.conv = Convergence{
		Announcements: make([]int, g.N),
		Deliveries:    make([]int, g.N),
		Flaps:         make([]int, g.N),
	}

	events := append([]LinkEvent(nil), cfg.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })

	ps.advertise(&ps.shards[ps.shardOf(cfg.Dest)], cfg.Dest)
	ps.merge()

	steps := 0
	nextEv := 0
	roundEnd := int64(0)
	leftover := false
	for steps < maxSteps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		nextMsg := int64(-1)
		for i := range ps.shards {
			if t := ps.shards[i].wheel.peekAt(); t >= 0 && (nextMsg < 0 || t < nextMsg) {
				nextMsg = t
			}
		}
		eventNext := nextEv < len(events) && (nextMsg < 0 || events[nextEv].At <= nextMsg)
		if !eventNext && nextMsg < 0 {
			break
		}
		t := nextMsg
		if eventNext {
			t = events[nextEv].At
		}
		if t > roundEnd {
			if cfg.MaxRounds > 0 && ps.conv.Rounds >= cfg.MaxRounds {
				break
			}
			ps.conv.Rounds++
			roundEnd = ps.maxAt
			if roundEnd < t {
				roundEnd = t
			}
		}
		if eventNext {
			ps.now = t
			ps.fire(events[nextEv])
			nextEv++
			ps.merge()
			continue
		}

		// Window T: pop every delivery at this tick into shard batches.
		ps.now = t
		total := 0
		for i := range ps.shards {
			s := &ps.shards[i]
			s.batch = s.batch[:0]
			for s.wheel.peekAt() == t {
				s.batch = append(s.batch, s.wheel.pop())
			}
			total += len(s.batch)
		}
		switch {
		case steps+total > maxSteps:
			// The step budget expires mid-window: replay the serial
			// engine's cut exactly by processing the window's messages in
			// global (sender, seq) order until the budget runs out.
			all := make([]pmsg, 0, total)
			for i := range ps.shards {
				all = append(all, ps.shards[i].batch...)
			}
			sort.Slice(all, func(i, j int) bool { return pmsgLess(&all[i], &all[j]) })
			for i := 0; i < maxSteps-steps; i++ {
				m := all[i]
				ps.deliver(&ps.shards[ps.shardOf(int(m.to))], m)
			}
			steps = maxSteps
			leftover = true
		case total < inlineWindow || ps.nshards == 1:
			// Small window: the pool hand-off would dominate; process
			// inline. Order across nodes inside a window is immaterial.
			for i := range ps.shards {
				s := &ps.shards[i]
				for _, m := range s.batch {
					ps.deliver(s, m)
				}
			}
			steps += total
		default:
			if err := p.pool.Map(ctx, ps.nshards, func(i int, _ struct{}) error {
				s := &ps.shards[i]
				for j := range s.batch {
					ps.deliver(s, s.batch[j])
				}
				return nil
			}); err != nil {
				return nil, err
			}
			steps += total
		}
		ps.merge()
	}

	ps.conv.QuiescedAt = ps.now
	for u := range ps.conv.Flaps {
		ps.conv.TotalFlaps += ps.conv.Flaps[u]
	}
	remaining := leftover
	for i := range ps.shards {
		if len(ps.shards[i].wheel.h) > 0 {
			remaining = true
		}
	}
	out := &Outcome{
		Converged:   !remaining,
		Steps:       steps,
		Routed:      make([]bool, g.N),
		Weights:     make([]value.V, g.N),
		Paths:       make([][]int, g.N),
		NextHop:     make([]int, g.N),
		Convergence: ps.conv,
	}
	out.Oscillating = !out.Converged
	for i := range ps.nodes {
		out.NextHop[i] = -1
		out.Routed[i] = ps.nodes[i].hasBest
		if ps.nodes[i].hasBest {
			out.Weights[i] = eng.Value(ps.nodes[i].best.weight)
			out.Paths[i] = ps.nodes[i].best.path
			out.NextHop[i] = ps.nodes[i].bestFrom
		}
	}
	return out, nil
}
