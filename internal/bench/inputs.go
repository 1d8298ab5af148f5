package bench

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"time"

	"metarouting/internal/core"
	"metarouting/internal/graph"
	"metarouting/internal/rib"
	"metarouting/internal/serve/wire"
	"metarouting/internal/value"
)

// StormArcs is the width of every storm: this many distinct arcs fail
// as one batch and are later restored as another.
const StormArcs = 4

// BatchQueries is the size of every binary POST /v1/routes batch.
const BatchQueries = 256

// GetsPerCycle is how many single GETs a read client issues between
// two batches: 4 dest=, 3 addr=, 1 prefix=.
const GetsPerCycle = 8

// readCycles is how many distinct read cycles each client's plan
// holds; a client loops over its plan when the window outlasts it.
const readCycles = 256

// Main selects what a workload's main window drives.
type Main int

const (
	// MainStorms is the closed-loop storm writer alone.
	MainStorms Main = iota
	// MainReads is the two closed-loop read clients alone.
	MainReads
	// MainReadsOpenStorms is the read clients beside an open-loop
	// storm writer on the intake queue.
	MainReadsOpenStorms
)

// Workload is one benchmark workload: a fixed algebra, topology size
// and traffic mix. Everything else about a run derives from the seed.
type Workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why   string
	Expr  string
	Nodes int
	Dests int
	// Prefixes is the announced prefix count (0: one synthetic /32 per
	// destination, as serve.NewServer does by default).
	Prefixes int
	Main     Main
	// StormEvery is the open-loop storm period (MainReadsOpenStorms).
	StormEvery time.Duration
}

// Workloads is the benchmark's workload set, in report order.
var Workloads = []Workload{
	{
		Name:  "storm-sparse-100k",
		Why:   "100k-node sparse graph, 4-arc storms: frontier is ~0.4% of pages, so any O(N)-per-swap cost (follower apply, Flatten) dominates and solve is idle",
		Expr:  "lex(delay(32,3), hops(8))",
		Nodes: 100000, Dests: 8, Main: MainStorms,
	},
	{
		Name:  "storm-policy-2k",
		Why:   "the paper's scoped(bw,delay) policy product at 2k nodes: every rebuild falls back to scratch, so exec and solve dominate and replication is ~2%",
		Expr:  "scoped(bw(4), delay(64,4))",
		Nodes: 2000, Dests: 16, Main: MainStorms,
	},
	{
		Name:  "query-quiet-10k",
		Why:   "read path only (HTTP, wire codec, LPM over 4096 prefixes, column reads) on the tiered backend with no writer; setup is a full tiered build",
		Expr:  "lex(delay(255,3), hops(32))",
		Nodes: 10000, Dests: 16, Prefixes: 4096, Main: MainReads,
	},
	{
		Name:  "query-storm-10k",
		Why:   "the same reads beside an open-loop 4-arc storm every 25 ms through the intake queue: shows reads and swaps costing each other via GC, cache or CPU",
		Expr:  "lex(delay(255,3), hops(32))",
		Nodes: 10000, Dests: 16, Prefixes: 4096, Main: MainReadsOpenStorms,
		StormEvery: 25 * time.Millisecond,
	},
}

// WorkloadByName finds a workload.
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Scaled returns w shrunk to at most nodes nodes (and a proportionate
// prefix set) — the smoke tests run the real workloads at 200 nodes.
func (w Workload) Scaled(nodes int) Workload {
	if w.Nodes > nodes {
		w.Nodes = nodes
	}
	if w.Prefixes > nodes {
		w.Prefixes = nodes
	}
	if w.Dests > nodes/4 {
		w.Dests = nodes / 4
	}
	return w
}

// Storm is one pre-rendered storm: the arc set and the two POST
// /v1/events bodies that fail and restore it.
type Storm struct {
	Arcs     []int
	FailBody []byte
	UpBody   []byte
}

// Get is one single-route query: the request path and the same query
// in wire form, so a batch answer can be checked against the GET.
type Get struct {
	Path []byte
	Q    wire.Query
}

// Cycle is one read-client iteration: GetsPerCycle single GETs, then
// one binary batch (Frame is Batch already encoded).
type Cycle struct {
	Gets  [GetsPerCycle]Get
	Batch []wire.Query
	Frame []byte
}

// Inputs is everything a run feeds the system, derived from
// (workload, seed) alone. The program under test receives only these.
type Inputs struct {
	W      Workload
	Graph  *graph.Graph
	Origin value.V
	// Dests is the ascending destination set; Origins maps each to
	// Origin (nil when Announced carries the origination instead).
	Dests   []int
	Origins map[int]value.V
	// Announced is the prefix announcement set (nil: auto /32s).
	Announced []rib.PrefixOrigin
	// Oracle is the harness's own aggregation of the announcements —
	// the reference every address-form answer is checked against.
	Oracle *rib.PrefixTable
	Storms []Storm
	// Plans holds the leader client's and the follower client's read
	// cycles.
	Plans [2][]Cycle
	// Uncovered is how many address-form queries in the plans match no
	// announced prefix.
	Uncovered int
}

// Generate derives a workload's inputs from seed. It runs inference
// once only to learn the algebra's label count and default origin;
// that run is outside every timed window.
func Generate(w Workload, seed int64) (*Inputs, error) {
	a, err := core.InferString(w.Expr)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", w.Name, err)
	}
	labels := 4
	if a.OT.F.Finite() {
		labels = a.OT.F.Size()
	}
	if w.Dests < 1 || w.Dests > w.Nodes {
		return nil, fmt.Errorf("bench: %s: %d destinations on %d nodes", w.Name, w.Dests, w.Nodes)
	}
	in := &Inputs{W: w, Origin: a.OT.DefaultOrigin()}
	// One stream per input family, so changing how many storms are
	// drawn never reshuffles the query plan.
	stream := func(k int64) *rand.Rand { return rand.New(rand.NewSource(seed*1000003 + k)) }
	in.Graph = graph.ScaleFree(stream(1), w.Nodes, 2, graph.UniformLabels(labels))
	in.Dests = make([]int, w.Dests)
	for i := range in.Dests {
		in.Dests[i] = i * w.Nodes / w.Dests
	}
	if w.Prefixes > 0 {
		in.Announced = genAnnouncements(stream(2), w.Prefixes, in.Dests, in.Origin)
	} else {
		in.Origins = make(map[int]value.V, len(in.Dests))
		for _, d := range in.Dests {
			in.Origins[d] = in.Origin
			in.Announced = append(in.Announced, rib.PrefixOrigin{Prefix: rib.AutoPrefix(d), Node: d, Origin: in.Origin})
		}
	}
	if in.Oracle, err = rib.NewPrefixTable(in.Announced); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", w.Name, err)
	}
	if w.Prefixes == 0 {
		in.Announced = nil
	}
	in.Storms = genStorms(stream(3), len(in.Graph.Arcs))
	for c := range in.Plans {
		in.Plans[c], err = in.genPlan(stream(4 + int64(c)))
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}

// genAnnouncements draws n distinct prefixes of length /12–/28 anchored
// at random destinations. Three quarters are drawn freely; the last
// quarter are more-specifics placed inside an earlier prefix with the
// same anchor, so aggregation suppresses them unless a differently
// anchored prefix happens to sit in between.
func genAnnouncements(r *rand.Rand, n int, dests []int, origin value.V) []rib.PrefixOrigin {
	out := make([]rib.PrefixOrigin, 0, n)
	seen := make(map[rib.Prefix]bool, n)
	free := n - n/4
	for len(out) < n {
		var p rib.Prefix
		var node int
		if len(out) < free {
			p = rib.MakePrefix(r.Uint32(), uint8(12+r.Intn(17)))
			node = dests[r.Intn(len(dests))]
		} else {
			cover := out[r.Intn(free)]
			if cover.Prefix.Len >= 28 {
				continue
			}
			l := cover.Prefix.Len + 1 + uint8(r.Intn(int(28-cover.Prefix.Len)))
			host := r.Uint32() >> cover.Prefix.Len // bits below the cover
			p = rib.MakePrefix(cover.Prefix.Addr|host, l)
			node = cover.Node
		}
		if seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, rib.PrefixOrigin{Prefix: p, Node: node, Origin: origin})
	}
	return out
}

// genStorms partitions a random permutation of the arcs into StormArcs
// wide sets, so no arc belongs to two storms: a storm's effect is then
// observable on the follower by its own arcs alone.
func genStorms(r *rand.Rand, arcs int) []Storm {
	const maxStorms = 4096
	n := arcs / StormArcs
	if n > maxStorms {
		n = maxStorms
	}
	perm := r.Perm(arcs)
	storms := make([]Storm, n)
	for i := range storms {
		set := append([]int(nil), perm[i*StormArcs:(i+1)*StormArcs]...)
		storms[i] = Storm{Arcs: set, FailBody: eventsBody(set, "fail"), UpBody: eventsBody(set, "up")}
	}
	return storms
}

// The storm list is split three ways so that writers which run in the
// same process never touch each other's arcs: the closed-loop driver
// cycles through the first half, the open-loop writer through the
// third quarter, the traced pass's in-process storms through the last.
type stormRegion int

const (
	regionClosed stormRegion = iota
	regionOpen
	regionDirect
)

// storm returns the i-th storm of a region, wrapping inside it.
func (in *Inputs) storm(r stormRegion, i int) *Storm {
	n := len(in.Storms)
	lo, size := 0, n/2
	switch r {
	case regionOpen:
		lo, size = n/2, n/4
	case regionDirect:
		lo, size = n/2+n/4, n-n/2-n/4
	}
	return &in.Storms[lo+i%size]
}

// eventsBody renders a synchronous POST /v1/events batch body.
func eventsBody(arcs []int, kind string) []byte {
	b := []byte(`{"events":[`)
	for i, a := range arcs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"arc":`...)
		b = strconv.AppendInt(b, int64(a), 10)
		b = append(b, `,"kind":"`...)
		b = append(b, kind...)
		b = append(b, `"}`...)
	}
	return append(b, `]}`...)
}

// genPlan draws one client's read cycles. Addresses are Zipf-ranked
// over the kept prefixes (a few prefixes take most lookups, as real
// traffic does) with 5% of them drawn from uncovered space; the
// querying node is uniform.
func (in *Inputs) genPlan(r *rand.Rand) ([]Cycle, error) {
	kept := in.Oracle.Kept()
	zipf := rand.NewZipf(r, 1.1, 1, uint64(len(kept)-1))
	pickPrefix := func() rib.Prefix {
		if len(kept) == 1 {
			return kept[0].Prefix
		}
		return kept[zipf.Uint64()].Prefix
	}
	addrQuery := func() wire.Query {
		from := int32(r.Intn(in.W.Nodes))
		if r.Intn(20) == 0 {
			for {
				addr := r.Uint32()
				if _, ok := in.Oracle.Match(addr); !ok {
					in.Uncovered++
					return wire.Query{Kind: wire.QueryAddr, From: from, Arg: addr}
				}
			}
		}
		p := pickPrefix()
		host := r.Uint32() >> p.Len // bits below the prefix; none for a /32
		return wire.Query{Kind: wire.QueryAddr, From: from, Arg: p.Addr | host}
	}
	destQuery := func() wire.Query {
		return wire.Query{Kind: wire.QueryDest, From: int32(r.Intn(in.W.Nodes)),
			Arg: uint32(in.Dests[r.Intn(len(in.Dests))])}
	}
	prefixQuery := func() wire.Query {
		p := pickPrefix()
		return wire.Query{Kind: wire.QueryPrefix, From: int32(r.Intn(in.W.Nodes)), Arg: p.Addr, PLen: p.Len}
	}
	cycles := make([]Cycle, readCycles)
	for ci := range cycles {
		c := &cycles[ci]
		for i := range c.Gets {
			var q wire.Query
			switch {
			case i < 4:
				q = destQuery()
			case i < 7:
				q = addrQuery()
			default:
				q = prefixQuery()
			}
			c.Gets[i] = Get{Path: routePath(q), Q: q}
		}
		c.Batch = make([]wire.Query, BatchQueries)
		for i := range c.Batch {
			switch i % GetsPerCycle {
			case 0, 1, 2, 3:
				c.Batch[i] = destQuery()
			case 4, 5, 6:
				c.Batch[i] = addrQuery()
			default:
				c.Batch[i] = prefixQuery()
			}
		}
		var err error
		if c.Frame, err = wire.AppendQueryRequest(nil, c.Batch); err != nil {
			return nil, err
		}
	}
	return cycles, nil
}

// routePath renders the GET /v1/route path asking q.
func routePath(q wire.Query) []byte {
	b := append([]byte("/v1/route?from="), strconv.Itoa(int(q.From))...)
	switch q.Kind {
	case wire.QueryDest:
		b = append(b, "&dest="...)
		b = strconv.AppendUint(b, uint64(q.Arg), 10)
	case wire.QueryAddr:
		b = append(b, "&addr="...)
		b = appendAddr(b, q.Arg)
	case wire.QueryPrefix:
		b = append(b, "&prefix="...)
		b = appendAddr(b, q.Arg)
		b = append(b, '/')
		b = strconv.AppendUint(b, uint64(q.PLen), 10)
	}
	return b
}

func appendAddr(b []byte, a uint32) []byte {
	for i := 3; i >= 0; i-- {
		b = strconv.AppendUint(b, uint64(a>>(8*uint(i))&0xff), 10)
		if i > 0 {
			b = append(b, '.')
		}
	}
	return b
}

// Hash digests every generated input — topology, prefix set, storm
// list and both query plans — so tests can pin "same seed, same
// inputs" to one number.
func (in *Inputs) Hash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(in.Graph.N))
	for _, a := range in.Graph.Arcs {
		put(uint64(a.From)<<40 | uint64(a.To)<<8 | uint64(a.Label))
	}
	for _, po := range in.Oracle.Kept() {
		put(uint64(po.Prefix.Addr)<<8 | uint64(po.Prefix.Len))
		put(uint64(po.Node))
	}
	put(uint64(len(in.Oracle.Suppressed())))
	for _, s := range in.Storms {
		h.Write(s.FailBody)
	}
	for _, plan := range in.Plans {
		for i := range plan {
			for _, g := range plan[i].Gets {
				h.Write(g.Path)
			}
			h.Write(plan[i].Frame)
		}
	}
	return h.Sum64()
}
