// Package protocol implements an event-driven asynchronous path-vector
// protocol simulator over metarouting algebras — the substitute for the
// real BGP/OSPF deployments the paper's claims are ultimately about.
//
// Each node keeps a RIB of candidate routes (one per neighbour), selects a
// best route under the algebra's preorder with AS-path-style loop
// rejection, and advertises changes to its neighbours over FIFO links with
// randomized (seeded) delivery delays. The simulator detects quiescence
// (convergence) and, via a step budget, divergence — the behaviour the
// increasing property I is meant to guarantee against (Sobrinho [23],
// Varadhan et al. [16]).
//
// The simulator runs on the unified execution layer (internal/exec):
// message payloads carry int32 weight indices, per-arc policy application
// and route selection are engine operations — table lookups on the
// compiled backend. Run picks the backend automatically; RunEngine pins
// one.
package protocol

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"

	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/ost"
	"metarouting/internal/telemetry"
	"metarouting/internal/value"
)

// route is an advertised route: a weight index plus the node path it
// traversed (destination last), used for loop rejection exactly as BGP
// uses AS paths.
type route struct {
	weight int32
	path   []int // from advertising node to destination
}

func (r route) contains(node int) bool {
	for _, n := range r.path {
		if n == node {
			return true
		}
	}
	return false
}

// message is an advertisement (or withdrawal) from one node to a
// neighbour.
type message struct {
	from, to int
	withdraw bool
	rt       route
	// seq orders messages on the same link (FIFO).
	seq int
	// at is the delivery time.
	at int64
}

// msgQueue is a delivery-time priority queue. Simultaneous deliveries
// order deterministically by (time, sender, seq) — not heap-insertion
// order — so a run is a pure function of its seed and inputs.
type msgQueue []*message

func (q msgQueue) Len() int { return len(q) }
func (q msgQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	if q[i].from != q[j].from {
		return q[i].from < q[j].from
	}
	return q[i].seq < q[j].seq
}
func (q msgQueue) Swap(i, j int)   { q[i], q[j] = q[j], q[i] }
func (q *msgQueue) Push(x any)     { *q = append(*q, x.(*message)) }
func (q *msgQueue) Pop() any       { old := *q; n := len(old); m := old[n-1]; *q = old[:n-1]; return m }
func (q msgQueue) PeekTime() int64 { return q[0].at }

// LinkEvent is a topology change applied during a run — the dynamic
// routing setting of Sobrinho's algebraic theory [23].
type LinkEvent struct {
	// At is the simulation time at which the event fires.
	At int64
	// Arc indexes the affected arc in the graph.
	Arc int
	// Fail is true for a link failure, false for (re)activation.
	Fail bool
}

// Config parameterizes a simulation run.
type Config struct {
	// Dest is the destination node; it originates Origin.
	Dest int
	// Origin is the weight originated at Dest.
	Origin value.V
	// MaxSteps bounds delivered messages before declaring divergence
	// (≤ 0 means 200·N·N).
	MaxSteps int
	// MaxDelay is the maximum extra per-message delivery delay
	// (≥ 0; delays are drawn uniformly from [1, 1+MaxDelay]).
	MaxDelay int
	// Rand drives delay choices; required unless PerNodeDelays is set.
	Rand *rand.Rand
	// PerNodeDelays switches delay drawing from the shared Rand stream to
	// per-sender counter-hashed streams derived from Seed: node u's k-th
	// draw is a pure function of (Seed, u, k). A node's draw order depends
	// only on its own activity order, never on the global interleaving —
	// which is what lets the parallel engine process nodes concurrently
	// and still produce the bit-identical Outcome the serial engine
	// produces for the same Config. Rand may be nil in this mode.
	PerNodeDelays bool
	// Seed parameterizes the PerNodeDelays streams (ignored otherwise).
	Seed int64
	// MaxRounds, when > 0, stops the run before it would enter
	// asynchronous round MaxRounds+1 (see Convergence.Rounds). It is the
	// oscillation cutoff the convergence-validation harness uses: a
	// strictly-increasing algebra must quiesce within its proven round
	// bound, so a run still generating traffic at N× that bound is
	// flagged oscillating without burning the whole step budget.
	MaxRounds int
	// Events lists topology changes, in any order; each fires once when
	// simulation time first reaches its At.
	Events []LinkEvent
	// Observer, when non-nil, receives every simulation event in
	// chronological order — message deliveries, selections, and topology
	// changes. For tracing and debugging; it must not retain the Event's
	// Path slice beyond the call.
	Observer func(Event)
	// Trace, when non-nil, receives the same stream as telemetry trace
	// events (kinds "deliver", "select", "link") with weights and paths
	// rendered into Detail. A deterministic run produces a bit-identical
	// trace — the determinism regression test relies on this.
	Trace telemetry.Tracer
	// DistanceVector disables route paths and loop rejection, turning the
	// protocol into an asynchronous distance-vector (RIP-like) scheme.
	// On increasing algebras with a saturating ⊤ this counts up to the
	// ceiling after failures (bounded count-to-infinity); path-vector
	// mode withdraws instead — the classic argument for AS paths.
	DistanceVector bool
}

// EventKind classifies observer events.
type EventKind int

// The observer event kinds.
const (
	// EvDeliver: a message arrived (From → To advertisement/withdrawal).
	EvDeliver EventKind = iota
	// EvSelect: a node changed its best route.
	EvSelect
	// EvLinkChange: a topology event fired.
	EvLinkChange
)

// Event is a single simulation occurrence streamed to Config.Observer.
type Event struct {
	Kind EventKind
	At   int64
	// Node is the acting node (receiver for EvDeliver, selector for
	// EvSelect; the arc tail for EvLinkChange).
	Node int
	// From is the advertising neighbour (EvDeliver only).
	From int
	// Withdraw marks withdrawal deliveries and route losses.
	Withdraw bool
	// Weight/Path describe the delivered or newly selected route.
	Weight value.V
	Path   []int
	// Arc and Fail describe EvLinkChange.
	Arc  int
	Fail bool
}

// Outcome reports a simulation run.
type Outcome struct {
	// Converged is true if the network quiesced within the step budget.
	Converged bool
	// Steps counts delivered messages.
	Steps int
	// Routed/Weights/Paths give the final routing state per node.
	// Paths are nil in distance-vector mode.
	Routed  []bool
	Weights []value.V
	Paths   [][]int
	// NextHop records each routed node's selected neighbour (-1 at the
	// destination and for unrouted nodes).
	NextHop []int
	// Oscillating is set when the same global state recurred while
	// messages were still in flight — a certificate of livelock for
	// deterministic schedules.
	Oscillating bool
	// Convergence holds the run's convergence telemetry.
	Convergence Convergence
}

// Convergence is the per-run convergence telemetry: what an operator
// watches after a topology event — how long the network took to go
// quiet, how chatty each node was, and how often routes flapped. All
// counters are exact and deterministic for a given seed and config.
type Convergence struct {
	// QuiescedAt is the simulation time of the last processed activity
	// (message delivery or topology event). When the run converged it is
	// the time-to-quiescence; for a diverging run it is just where the
	// step budget ran out.
	QuiescedAt int64
	// Announcements counts advertisements/withdrawals sent per node.
	Announcements []int
	// Deliveries counts messages processed per node.
	Deliveries []int
	// Flaps counts best-route changes per node toward the run's
	// destination (the origination never flaps).
	Flaps []int
	// TotalFlaps sums Flaps.
	TotalFlaps int
	// Rounds counts asynchronous rounds: a round ends once every message
	// that was in flight at its start has been delivered and reacted to
	// (quiet gaps collapse into the round that crosses them). This is the
	// unit of the Daggitt–Griffin DBF convergence theorems (PAPERS.md):
	// strictly-increasing algebras provably quiesce within O(n²) rounds,
	// and the validation harness asserts exactly that.
	Rounds int
}

// Validate checks a configuration against the graph it will run on:
// Rand must be present, Dest in range, and every event must reference an
// existing arc. Run and RunEngine call it and panic with the resulting
// error; callers that want the error form (the scenario loader, the
// route server) validate first.
func (cfg Config) Validate(g *graph.Graph) error {
	if cfg.Rand == nil && !cfg.PerNodeDelays {
		return fmt.Errorf("protocol: Config.Rand is required (or set PerNodeDelays)")
	}
	if cfg.Dest < 0 || cfg.Dest >= g.N {
		return fmt.Errorf("protocol: destination %d out of range [0,%d)", cfg.Dest, g.N)
	}
	if cfg.MaxDelay < 0 {
		return fmt.Errorf("protocol: MaxDelay %d must be ≥ 0", cfg.MaxDelay)
	}
	if cfg.MaxRounds < 0 {
		return fmt.Errorf("protocol: MaxRounds %d must be ≥ 0 (0 means unbounded)", cfg.MaxRounds)
	}
	for i, ev := range cfg.Events {
		if ev.Arc < 0 || ev.Arc >= len(g.Arcs) {
			return fmt.Errorf("protocol: event %d references arc %d, but the graph has %d arcs",
				i, ev.Arc, len(g.Arcs))
		}
	}
	return nil
}

// node is the per-node protocol state.
type node struct {
	rib      map[int]route // candidate per neighbour (key: neighbour)
	best     route
	hasBest  bool
	bestFrom int
}

// Run simulates the path-vector protocol for alg on g, on the backend
// exec.For picks (compiled tables for finite algebras). It panics on an
// invalid configuration (see Config.Validate for the error form).
func Run(alg *ost.OrderTransform, g *graph.Graph, cfg Config) *Outcome {
	return RunEngine(exec.For(alg, cfg.Origin), g, cfg)
}

// RunEngine simulates the path-vector protocol over an explicit
// execution engine. An invalid configuration — nil Rand, out-of-range
// destination, an event referencing a nonexistent arc, or an origin
// outside the engine's carrier — panics with a descriptive error;
// callers that want the error instead call cfg.Validate(g) first.
func RunEngine(eng exec.Algebra, g *graph.Graph, cfg Config) *Outcome {
	if err := cfg.Validate(g); err != nil {
		panic(err.Error())
	}
	origin, err := eng.Intern(cfg.Origin)
	if err != nil {
		panic(fmt.Sprintf("protocol: %v", err))
	}
	maxSteps := cfg.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 200 * g.N * g.N
	}
	nodes := make([]node, g.N)
	for i := range nodes {
		nodes[i] = node{rib: make(map[int]route), bestFrom: -1}
	}
	nodes[cfg.Dest].best = route{weight: origin, path: []int{cfg.Dest}}
	nodes[cfg.Dest].hasBest = true

	disabled := make([]bool, len(g.Arcs))
	events := append([]LinkEvent(nil), cfg.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })

	conv := Convergence{
		Announcements: make([]int, g.N),
		Deliveries:    make([]int, g.N),
		Flaps:         make([]int, g.N),
	}
	var q msgQueue
	seq := 0
	now := int64(0)
	// maxAt tracks the largest scheduled delivery time so far; together
	// with roundEnd it implements the asynchronous-round counter (a round
	// ends when every message in flight at its start has been delivered).
	maxAt := int64(0)
	// draw holds the per-sender delay-draw counters of PerNodeDelays mode.
	var draw []uint64
	if cfg.PerNodeDelays {
		draw = make([]uint64, g.N)
	}
	// lastAt enforces per-link FIFO: a message never overtakes an earlier
	// one on the same (from, to) link, even under randomized delays.
	// Without this, a stale advertisement can arrive last and freeze the
	// network in an inconsistent "quiescent" state — masking oscillation.
	// Advertisements travel the reverse of the arc they answer for, so the
	// in-arc index is the link key.
	lastAt := make([]int64, len(g.Arcs))
	advertise := func(u int) {
		// Send u's current best (or withdrawal) to every in-neighbour
		// (nodes whose arcs point at u are the ones that can route via u).
		for _, ai := range g.In(u) {
			if disabled[ai] {
				continue
			}
			p := g.Arcs[ai].From
			m := &message{from: u, to: p, seq: seq}
			seq++
			if cfg.PerNodeDelays {
				m.at = now + nodeDelay(cfg.Seed, u, draw[u], cfg.MaxDelay)
				draw[u]++
			} else {
				m.at = now + 1 + int64(cfg.Rand.Intn(cfg.MaxDelay+1))
			}
			if m.at <= lastAt[ai] {
				m.at = lastAt[ai] + 1
			}
			lastAt[ai] = m.at
			if m.at > maxAt {
				maxAt = m.at
			}
			if nodes[u].hasBest {
				m.rt = nodes[u].best
			} else {
				m.withdraw = true
			}
			conv.Announcements[u]++
			heap.Push(&q, m)
		}
	}
	// reselect recomputes u's best from its RIB over enabled arcs and
	// returns whether the selection changed.
	reselect := func(u int) bool {
		if u == cfg.Dest {
			return false // the destination always keeps its originated route
		}
		prevHas, prev, prevFrom := nodes[u].hasBest, nodes[u].best, nodes[u].bestFrom
		nodes[u].hasBest = false
		nodes[u].bestFrom = -1
		for _, ai := range g.Out(u) {
			if disabled[ai] {
				continue
			}
			v := g.Arcs[ai].To
			cand, ok := nodes[u].rib[v]
			if !ok {
				continue
			}
			if !nodes[u].hasBest || eng.Lt(cand.weight, nodes[u].best.weight) {
				nodes[u].best = cand
				nodes[u].hasBest = true
				nodes[u].bestFrom = v
			}
		}
		changed := prevHas != nodes[u].hasBest ||
			(nodes[u].hasBest && (prevFrom != nodes[u].bestFrom || prev.weight != nodes[u].best.weight ||
				!samePath(prev.path, nodes[u].best.path)))
		if changed {
			conv.Flaps[u]++
			conv.TotalFlaps++
		}
		return changed
	}

	// noteSelect reports a committed route change at u to the observer
	// and the trace — every reselection, whether a delivery or a local
	// interface-down triggered it, goes through here so flap counts and
	// trace "select" events stay in one-to-one correspondence.
	noteSelect := func(u int) {
		if cfg.Observer != nil {
			ev := Event{Kind: EvSelect, At: now, Node: u, Withdraw: !nodes[u].hasBest}
			if nodes[u].hasBest {
				ev.Weight = eng.Value(nodes[u].best.weight)
				ev.Path = nodes[u].best.path
			}
			cfg.Observer(ev)
		}
		if cfg.Trace != nil {
			detail := "lost"
			if nodes[u].hasBest {
				detail = fmt.Sprintf("%s %v", value.Format(eng.Value(nodes[u].best.weight)), nodes[u].best.path)
			}
			cfg.Trace.Trace(telemetry.TraceEvent{At: now, Kind: "select", Node: u, Detail: detail})
		}
	}

	// fire applies a topology event: a failed out-arc costs its tail the
	// corresponding RIB candidate immediately (interface down); a revived
	// arc makes the head re-advertise so the tail relearns the route.
	fire := func(ev LinkEvent) {
		if ev.Arc < 0 || ev.Arc >= len(g.Arcs) || disabled[ev.Arc] == ev.Fail {
			return
		}
		disabled[ev.Arc] = ev.Fail
		arc := g.Arcs[ev.Arc]
		if cfg.Observer != nil {
			cfg.Observer(Event{Kind: EvLinkChange, At: now, Node: arc.From, Arc: ev.Arc, Fail: ev.Fail})
		}
		if cfg.Trace != nil {
			detail := "up"
			if ev.Fail {
				detail = "fail"
			}
			cfg.Trace.Trace(telemetry.TraceEvent{At: now, Kind: "link", Node: arc.From, Arc: ev.Arc, Detail: detail})
		}
		if ev.Fail {
			delete(nodes[arc.From].rib, arc.To)
			if reselect(arc.From) {
				noteSelect(arc.From)
				advertise(arc.From)
			}
		} else {
			advertise(arc.To)
		}
	}

	advertise(cfg.Dest)

	steps := 0
	nextEv := 0
	roundEnd := int64(0)
	for (q.Len() > 0 || nextEv < len(events)) && steps < maxSteps {
		eventNext := nextEv < len(events) && (q.Len() == 0 || events[nextEv].At <= q[0].at)
		t := int64(0)
		if eventNext {
			t = events[nextEv].At
		} else {
			t = q[0].at
		}
		// Crossing roundEnd means every message in flight at the start of
		// the current round has been processed: a new round begins. Quiet
		// gaps (an event long after quiescence) collapse into one round.
		if t > roundEnd {
			if cfg.MaxRounds > 0 && conv.Rounds >= cfg.MaxRounds {
				break
			}
			conv.Rounds++
			roundEnd = maxAt
			if roundEnd < t {
				roundEnd = t
			}
		}
		// Fire any events due before the next delivery.
		if eventNext {
			now = t
			fire(events[nextEv])
			nextEv++
			continue
		}
		m := heap.Pop(&q).(*message)
		now = m.at
		steps++
		u := m.to
		conv.Deliveries[u]++
		if cfg.Observer != nil {
			ev := Event{Kind: EvDeliver, At: now, Node: u, From: m.from,
				Withdraw: m.withdraw, Path: m.rt.path}
			if !m.withdraw {
				ev.Weight = eng.Value(m.rt.weight)
			}
			cfg.Observer(ev)
		}
		if cfg.Trace != nil {
			detail := "withdraw"
			if !m.withdraw {
				detail = fmt.Sprintf("%s %v", value.Format(eng.Value(m.rt.weight)), m.rt.path)
			}
			cfg.Trace.Trace(telemetry.TraceEvent{At: now, Kind: "deliver", Node: u, From: m.from, Detail: detail})
		}
		// Resolve the arc (u → m.from) the advertisement travelled
		// against; deliveries over a failed link are lost.
		arcIdx := -1
		for _, ai := range g.Out(u) {
			if g.Arcs[ai].To == m.from {
				arcIdx = int(ai)
				break
			}
		}
		if arcIdx < 0 || disabled[arcIdx] {
			continue
		}
		if m.withdraw {
			delete(nodes[u].rib, m.from)
		} else if !cfg.DistanceVector && m.rt.contains(u) {
			// Loop rejection: drop routes that already traverse u.
			delete(nodes[u].rib, m.from)
		} else {
			w := eng.Apply(g.Arcs[arcIdx].Label, m.rt.weight)
			var path []int
			if !cfg.DistanceVector {
				path = make([]int, 0, len(m.rt.path)+1)
				path = append(path, u)
				path = append(path, m.rt.path...)
			}
			nodes[u].rib[m.from] = route{weight: w, path: path}
		}
		if reselect(u) {
			noteSelect(u)
			advertise(u)
		}
	}

	conv.QuiescedAt = now
	out := &Outcome{
		Converged:   q.Len() == 0,
		Steps:       steps,
		Routed:      make([]bool, g.N),
		Weights:     make([]value.V, g.N),
		Paths:       make([][]int, g.N),
		NextHop:     make([]int, g.N),
		Convergence: conv,
	}
	out.Oscillating = !out.Converged
	for i := range nodes {
		out.NextHop[i] = -1
		out.Routed[i] = nodes[i].hasBest
		if nodes[i].hasBest {
			out.Weights[i] = eng.Value(nodes[i].best.weight)
			out.Paths[i] = nodes[i].best.path
			out.NextHop[i] = nodes[i].bestFrom
		}
	}
	return out
}

// nodeDelay is the PerNodeDelays draw: sender node's k-th delay, a pure
// function of (seed, node, k) in [1, 1+maxDelay]. Both engines share it —
// a node's stream advances with its own activity only, so the parallel
// engine's concurrent shards reproduce the serial engine's draws exactly.
func nodeDelay(seed int64, node int, k uint64, maxDelay int) int64 {
	h := splitmix64(splitmix64(uint64(seed)^(uint64(node)+1)*0x9E3779B97F4A7C15) + k)
	return 1 + int64(h%uint64(maxDelay+1))
}

// splitmix64 is the SplitMix64 finalizer — a cheap, well-mixed stateless
// hash (Steele et al.), the standard seeding permutation.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func samePath(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Describe renders an outcome for logs and examples.
func (o *Outcome) Describe() string {
	s := fmt.Sprintf("converged=%v steps=%d\n", o.Converged, o.Steps)
	for u := range o.Routed {
		if o.Routed[u] {
			s += fmt.Sprintf("  node %d: weight %s via %v\n", u, value.Format(o.Weights[u]), o.Paths[u])
		} else {
			s += fmt.Sprintf("  node %d: no route\n", u)
		}
	}
	return s
}
