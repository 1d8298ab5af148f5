// Package serve is the long-lived route-query service layered on the
// unified execution layer: it owns per-destination route tables, answers
// concurrent Lookup/Forward queries lock-free against an immutable
// snapshot, and reconverges incrementally when topology events arrive.
//
// The design is RCU-style. A sched.Pool worker pool (each worker holding
// a reusable solve.Workspace) computes per-destination entry columns in
// parallel — the per-destination DBF computations are independent
// (Daggitt & Griffin, PAPERS.md), so destinations shard freely across
// workers; the columns are assembled into a Snapshot and swapped in
// atomically, so readers racing a rebuild keep the previous snapshot and
// are never blocked. Topology events recompute only destinations whose
// routes the event can actually touch: destination d is skipped when the
// event's arc leaves d itself (the fixpoint solver never consults the
// destination's out-arcs) or when the arc's head has no route toward d
// in the current snapshot (then the arc never contributed a candidate in
// any solver round — routedness on a static graph only grows — so the
// from-scratch trajectory on the mutated graph is unchanged). Skipped
// columns are shared with the previous snapshot by reference; the
// differential tests assert every incremental snapshot is bit-identical
// to a fresh rib.BuildEngine on the mutated graph.
//
// Every column is a rib.PagedColumn: fixed-size copy-on-write pages
// behind a page table. A delta rebuild clones only the pages whose routes
// change and shares every other page with the previous snapshot by
// pointer, so a swap's data-plane cost is O(frontier), not O(N). Its
// invariant is the canonical page layout (DESIGN.md §8b): every paged
// column flattens bit-identically to the naive rib.BuildDestColumn on the
// same view, which is what the differentials check.
//
// Event bursts are absorbed in batches. ApplyBatch coalesces a sequence
// of events to its net per-arc effect (a down followed by an up cancels,
// duplicate downs dedupe) and pays one recompute + one snapshot swap for
// the whole batch; the per-destination skip rule extends soundly to
// batches because a destination is only skipped when every toggled arc
// individually satisfies the rule against the pre-batch snapshot, and a
// skipped destination's column — the only state the rule reads — is then
// unchanged at every intermediate step of applying the batch one arc at
// a time.
//
// Which rebuild path runs is the engine's solve.Plan, read once at
// construction from the proof the engine carries (its compiled tables
// and the judgements core inference stamps on its order transform): the
// kernel of every scratch build, the warm start that opens the delta
// path (M or I), and the skip rule below.
//
// A destination whose column is a fixpoint the server can vouch for is
// sharp: it gets a sharper rule (Server.toggleMoves), applied toggle by
// toggle. The conditions: the plan's skip rule is on (a warm start, and a
// total preorder — Full inferred, or the compiler's verified rank
// vector), and the column is Converged and Clean (for restores, Clean or
// an M kernel; see below). Then a
// toggle can move d's column only as follows: a failed
// arc x→y only if y is one of x's next hops toward d, a restored arc
// only if x is unrouted or the arc's candidate f(w_d[y]) is not strictly
// worse than w_d[x]. d is skipped when no toggle can move it; otherwise
// its rebuild is handed only the toggles that can. Soundness of the
// skip: under that test the selection at x over
// the new out-row, taken from the old column's weights, is the selection
// the column already holds — a failed arc outside the next-hop set bore
// a candidate strictly worse than the minimum (totality: not equivalent
// to the minimum means strictly above it), so removing it moves neither
// the first minimal head nor the equivalence class; a restored arc whose
// candidate is strictly worse joins neither. Every other row is
// untouched, so the old column is a fixpoint of the new graph's one-step
// operator, with the same tie-breaks. It is also clean: its forwarding
// tree uses only arcs that are still up, so every weight is the weight
// of a real path. That is exactly the state the warm-start drain
// terminates in, and the licence the delta path already runs on — a
// fixpoint realised by paths is the from-scratch fixpoint under M or I
// (DESIGN.md §4d) — makes it the column a rebuild would return; the rule
// skips the rebuilds whose change list would have been empty. The batch
// argument carries over unchanged: each toggle passes the test against
// the pre-batch column, which therefore survives every intermediate
// step.
//
// The same argument, one toggle at a time, licenses the subset. The
// rebuild solves on the new view and mask, which carry the whole batch;
// the toggles it is handed decide only what the warm start seeds and
// which tails the page refill redoes. Leave out a failed arc that passes
// the test: it was strictly worse than x's selection. Leave out a
// restored one: its candidate is strictly worse. Either way x's
// selection and equal-cost set over the new row stand as long as x's
// out-neighbours keep their weights, and if one of them changes the
// drain pops it and pushes x through the enabled arc. A left-out fail is
// never a primary arc, so it cuts no subtree and leaves every
// previous-tree edge of an untouched node up, which keeps the
// touched-chain clean certificate sound. So the redo set — touched nodes
// plus the handed toggles' tails — still covers every slot that can
// differ, and the column, its change list and the delta frame are the
// ones the whole batch gives. Partial orders keep the first rule and the
// whole batch. So do the failed arcs of columns that are not Clean (the
// scoped policy product's never are): on such a column a weight a
// forwarding loop sustains can lose its last real support through an arc
// strictly worse than the loop, so the fail test proves nothing there.
//
// The restore half holds for every converged column under the plan's M
// kernel, clean or not, so sharpness is judged per direction. Under M a
// converged column X_old is GFP(F_old). A restored arc whose candidate
// is strictly worse than its routed tail's weight leaves X_old a
// fixpoint of F_new, tie-breaks included, as above. F_new ≤ F_old, since
// arcs only join, so GFP(F_new) ≤ X_old; X_old is a fixpoint of F_new,
// so GFP(F_new) ≥ X_old. (A failed arc whose head X_old leaves unrouted
// changes neither side: a fixpoint of the graph without it is one with
// it, since at or above X_old that head stays unrouted.) The two are
// equal: an unclean column whose toggles are all such restores is
// skipped, and one that a moving restore reaches (but no fail) is handed
// only the moving restores. Neither step needs the column's weights
// realised by paths.
//
// The differential tests hold every skipped column of every swap against
// rib.BuildDestPaged on the new view, every rebuild against the whole
// batch's (SwapOracle.CheckSubsets), and the broken rules of
// TestSubsetMutantsFail — ECMP-only fails dropped, equal-cost restores
// dropped (on clean and unclean columns), unclean columns held to the
// fail test — must each be caught.
//
// A snapshot's failure mask is a replica.Mask, the persistent bitset a
// follower's state holds too: each swap derives it from the previous
// snapshot's by the batch's coalesced toggles, cloning only the directory
// pages and chunks they touch, so the mask costs a swap O(toggles) at any
// arc count. The writer's mutable []bool stays the solver's and the view
// builder's input. Snapshot.Disabled, a []bool, is only a view of the
// mask for callers outside the package: Server.Snapshot fills it once per
// snapshot, and no request or swap path does. It goes once the benchmark
// harness reads the mask through an accessor.
//
// EnqueueEvent feeds an intake queue drained by a background
// batcher, with a selectable full-queue policy: reject (surfaced as HTTP
// 429) or degrade-to-stale (absorb the event into pending coalesced
// state and let the published snapshot lag until the batcher catches
// up).
//
// Reconvergence after arbitrary topology change is exactly what
// increasing algebras guarantee (Daggitt & Griffin, PAPERS.md); for
// non-increasing algebras a destination may fail to converge within the
// solver budget, which the snapshot reports instead of hiding.
package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/prop"
	"metarouting/internal/protocol"
	"metarouting/internal/replica"
	"metarouting/internal/rib"
	"metarouting/internal/sched"
	"metarouting/internal/solve"
	"metarouting/internal/telemetry"
	"metarouting/internal/value"
)

// Backpressure selects what EnqueueEvent does when the intake queue is
// full.
type Backpressure int

const (
	// BackpressureReject makes EnqueueEvent fail with ErrBacklogged when
	// the queue is full; HTTP surfaces it as 429 Too Many Requests.
	BackpressureReject Backpressure = iota
	// BackpressureStale makes EnqueueEvent absorb the event into the
	// pending coalesced state instead of failing: nothing is lost, but
	// the published snapshot may lag further behind the topology until
	// the batcher catches up.
	BackpressureStale
)

// String names the policy the way ParseBackpressure spells it.
func (b Backpressure) String() string {
	if b == BackpressureStale {
		return "stale"
	}
	return "reject"
}

// ParseBackpressure reads a policy name: "reject" or "stale".
func ParseBackpressure(s string) (Backpressure, error) {
	switch s {
	case "reject":
		return BackpressureReject, nil
	case "stale":
		return BackpressureStale, nil
	}
	return 0, fmt.Errorf("serve: unknown backpressure policy %q (want reject or stale)", s)
}

// ErrBacklogged is returned by EnqueueEvent under BackpressureReject
// when the intake queue is full.
var ErrBacklogged = errors.New("serve: event intake queue full")

// config is the resolved Server configuration; Option values edit it.
type config struct {
	workers        int
	registry       *telemetry.Registry
	slowQueryNS    int64
	backpressure   Backpressure
	queueCap       int
	rebuildTimeout time.Duration
	noBatcher      bool // test-only: leave the intake queue undrained
	noDelta        bool // test-only: pin every rebuild to scratch
	sink           RecordSink
	announced      []rib.PrefixOrigin
	hasAnnounced   bool
}

func defaultConfig() config {
	return config{queueCap: 1024}
}

// Option configures a Server at construction (NewServer).
type Option interface{ apply(*config) }

type optionFunc func(*config)

func (f optionFunc) apply(c *config) { f(c) }

// WithWorkers sizes the snapshot builder's worker pool (≤ 0: GOMAXPROCS).
func WithWorkers(n int) Option {
	return optionFunc(func(c *config) { c.workers = n })
}

// WithRegistry registers the server's metrics (counters, convergence
// gauges, query/reconvergence latency histograms, batch and shard
// histograms, per-solve timings) under the mrserve_ prefix and enables
// the slow-query log. Query latencies are sampled 1-in-16 (see
// querySampleMask) so the timing cost stays inside the overhead budget.
// Without a registry the server keeps only its bare counters — the
// Stats JSON shape is identical either way, and the query path pays
// zero timing overhead.
func WithRegistry(reg *telemetry.Registry) Option {
	return optionFunc(func(c *config) { c.registry = reg })
}

// WithSlowQuery sets the slow-query log threshold (≤ 0: 1ms). Only
// meaningful together with WithRegistry.
func WithSlowQuery(threshold time.Duration) Option {
	return optionFunc(func(c *config) { c.slowQueryNS = threshold.Nanoseconds() })
}

// WithBackpressure selects the full-queue policy for EnqueueEvent
// (default BackpressureReject).
func WithBackpressure(policy Backpressure) Option {
	return optionFunc(func(c *config) { c.backpressure = policy })
}

// WithQueueCapacity bounds the event intake queue (≤ 0: 1024).
func WithQueueCapacity(n int) Option {
	return optionFunc(func(c *config) { c.queueCap = n })
}

// WithDeltaProps does nothing. The server's plan comes from the engine
// (solve.NewPlan), whose order transform core inference stamps with the
// set callers used to pass here. It stays only for the benchmark
// harness, which still calls it, and goes with that call.
func WithDeltaProps(prop.Set) Option { return optionFunc(func(*config) {}) }

// WithAnnouncements builds the server over a prefix announcement set:
// the table is aggregated (rib.NewPrefixTable — covering prefixes with
// the same anchor and origin suppress their more-specifics) and, when
// the Config names no origins, the per-node origins are derived from
// the kept announcements. Without it NewServer synthesizes one
// rib.AutoPrefix /32 per destination, so address-form queries work on
// node-keyed topologies.
func WithAnnouncements(announced []rib.PrefixOrigin) Option {
	return optionFunc(func(c *config) { c.announced, c.hasAnnounced = announced, true })
}

// WithRebuildTimeout bounds each batched recompute: the batcher and the
// HTTP event handlers derive a deadline-carrying context from it (0: no
// deadline). A rebuild that hits the deadline is abandoned and the
// previous snapshot stays published.
func WithRebuildTimeout(d time.Duration) Option {
	return optionFunc(func(c *config) { c.rebuildTimeout = d })
}

// Snapshot is one immutable generation of route tables. All methods are
// safe for concurrent use; a snapshot never changes after publication,
// so a reader holding one sees a consistent view regardless of how many
// events the server has absorbed since. Route columns are paged
// (rib.PagedColumn); destinations untouched by a rebuild share their
// column with the previous snapshot by pointer, and recomputed columns
// share every page outside the delta frontier; the failure mask shares
// every chunk its swap's toggles did not touch.
type Snapshot struct {
	// Version increments with every swap (the initial build is 1).
	Version uint64
	// Graph is the topology view the snapshot was computed on (arcs
	// disabled by events are masked out; indices match the base graph).
	Graph *graph.Graph
	// Disabled is the per-arc failure state at build time as a []bool: a
	// view of the snapshot's mask that Server.Snapshot fills once per
	// snapshot, for callers outside the package. It is nil on a snapshot
	// no Server.Snapshot call has returned.
	Disabled []bool
	// Unconverged lists destinations whose fixpoint did not settle
	// within the solver budget (possible for non-increasing algebras).
	Unconverged []int

	cols     map[int]*rib.PagedColumn
	prefixes *rib.PrefixTable
	rib      *rib.RIB
	// srv is the server that published the snapshot: the HTTP read
	// handlers resolve against the snapshot alone and come back here for
	// weight names and query telemetry.
	srv *Server

	// Footprint gauges, computed once at publish.
	arenaBytes  int
	liveEntries int

	// mask is the per-arc failure state at build time; mask.Count() is
	// the number of failed arcs. It sits after the fields the read path
	// loads, which then fit the struct's first two cache lines.
	mask         replica.Mask
	disabledOnce sync.Once
}

// RIB exposes the snapshot's route table.
func (sn *Snapshot) RIB() *rib.RIB { return sn.rib }

// Column returns dest's column (nil when unknown) — the index-form read
// path; Lookup materializes the legacy view.
func (sn *Snapshot) Column(dest int) *rib.PagedColumn { return sn.cols[dest] }

// Prefixes exposes the snapshot's prefix table. The prefix set is
// fixed at boot, so every snapshot of a server shares one table; it is
// carried on the snapshot so readers resolve addresses and columns
// against one consistent generation.
func (sn *Snapshot) Prefixes() *rib.PrefixTable { return sn.prefixes }

// MatchAddr resolves an address by longest prefix match to its anchor
// announcement (ok=false when no announced prefix covers it).
func (sn *Snapshot) MatchAddr(addr uint32) (rib.PrefixOrigin, bool) {
	return sn.prefixes.Match(addr)
}

// MatchPrefix resolves a prefix query to the longest announcement
// covering it.
func (sn *Snapshot) MatchPrefix(p rib.Prefix) (rib.PrefixOrigin, bool) {
	return sn.prefixes.MatchPrefix(p)
}

// ArenaBytes reports the summed arena footprint of the snapshot's
// columns (slot + pool backing arrays).
func (sn *Snapshot) ArenaBytes() int { return sn.arenaBytes }

// LiveEntries reports the number of routed slots across all columns.
func (sn *Snapshot) LiveEntries() int { return sn.liveEntries }

// LPMIntervals reports the prefix table's interval-index range count.
func (sn *Snapshot) LPMIntervals() int { return sn.prefixes.LPMIntervals() }

// Lookup returns node's entry toward dest (nil when unrouted/unknown).
func (sn *Snapshot) Lookup(node, dest int) *rib.Entry { return sn.rib.Lookup(node, dest) }

// Forward resolves the forwarding path from a node toward dest.
func (sn *Snapshot) Forward(from, dest int) (graph.Path, error) { return sn.rib.Forward(from, dest) }

// ECMPWidth returns the equal-cost next-hop count at node toward dest.
func (sn *Snapshot) ECMPWidth(node, dest int) int { return sn.rib.ECMPWidth(node, dest) }

// Plan is the solve plan the server's column builds run on.
func (s *Server) Plan() solve.Plan { return s.plan }

// Stats is a point-in-time reading of the server's counters — the seed
// of the observability layer, surfaced at /v1/stats. EngineInterned and EngineHotCapacity are exec.Tiers:
// weights the engine has hash-consed, and how many its memo tables
// cover — past hot capacity every operation on the excess is interpreted
// under a mutex; both are 0 on the compiled backend. DeltaEnabled,
// ScratchSolver and WarmStart render rows of the server's solve.Plan:
// whether rebuilds warm-start at all, the kernel from-scratch column
// builds run, and the warm start a delta rebuild takes from a column
// that is not a clean tree.
type Stats struct {
	Queries               uint64 `json:"queries"`
	BatchRequests         uint64 `json:"batch_requests"`
	BatchQueries          uint64 `json:"batch_queries"`
	LoopAnswers           uint64 `json:"loop_answers"`
	SnapshotSwaps         uint64 `json:"snapshot_swaps"`
	EventsApplied         uint64 `json:"events_applied"`
	IncrementalRecomputes uint64 `json:"incremental_recomputes"`
	FullRecomputes        uint64 `json:"full_recomputes"`
	DestRecomputes        uint64 `json:"dest_recomputes"`
	DestReuses            uint64 `json:"dest_reuses"`
	DeltaDestRebuilds     uint64 `json:"dest_delta_rebuilds"`
	ScratchDestRebuilds   uint64 `json:"dest_scratch_rebuilds"`
	DeltaFrontierNodes    uint64 `json:"delta_frontier_nodes"`
	DeltaTouchedNodes     uint64 `json:"delta_touched_nodes"`
	DeltaEnabled          bool   `json:"delta_enabled"`
	PagesCloned           uint64 `json:"pages_cloned"`
	PagesShared           uint64 `json:"pages_shared"`
	BatchesApplied        uint64 `json:"batches_applied"`
	EventsCoalesced       uint64 `json:"events_coalesced"`
	EventsRejected        uint64 `json:"events_rejected"`
	BatchErrors           uint64 `json:"batch_errors"`
	QueueDepth            int    `json:"queue_depth"`
	QueueCapacity         int    `json:"queue_capacity"`
	Backpressure          string `json:"backpressure"`
	SnapshotVersion       uint64 `json:"snapshot_version"`
	Destinations          int    `json:"destinations"`
	Nodes                 int    `json:"nodes"`
	Arcs                  int    `json:"arcs"`
	DisabledArcs          int    `json:"disabled_arcs"`
	Engine                string `json:"engine"`
	ScratchSolver         string `json:"scratch_solver"`
	WarmStart             string `json:"warm_start"`
	EngineInterned        int    `json:"engine_interned"`
	EngineHotCapacity     int    `json:"engine_hot_capacity"`
	Workers               int    `json:"workers"`
	ArenaBytes            int    `json:"snapshot_arena_bytes"`
	LiveEntries           int    `json:"snapshot_live_entries"`
	LPMIntervals          int    `json:"snapshot_lpm_intervals"`
	Prefixes              int    `json:"prefixes"`
	SuppressedPrefixes    int    `json:"prefixes_suppressed"`
}

// ArcEvent names one topology event by arc index: the unit the batched
// pipeline coalesces and applies.
type ArcEvent struct {
	Arc  int  `json:"arc"`
	Fail bool `json:"fail"`
}

// Server owns route state for a fixed origination set and serves
// concurrent queries against atomically swapped snapshots. Queries
// (Lookup, Forward, Snapshot) never take the writer lock; events and
// rebuilds serialize on it.
type Server struct {
	eng      exec.Algebra
	base     *graph.Graph
	origins  map[int]value.V
	dests    []int // sorted, for deterministic build order
	prefixes *rib.PrefixTable
	workers  int

	mu sync.Mutex // serializes topology mutation + publication
	// disabled is the writer's failure state, the solver's and the view
	// builder's input; the published snapshot's mask always equals it
	// outside the lock.
	disabled []bool
	closed   bool

	// plan is the engine's solve plan, read once at construction and
	// shared by every pool workspace: its kernel builds columns, its warm
	// start (WarmNone: none) opens the delta rebuild path, and its skip
	// rule makes clean columns sharp (see invalidated).
	plan solve.Plan

	// rule is the judgement invalidated applies per column: the server
	// itself outside tests (see subsetRule).
	rule subsetRule

	// maskToggled derives a swap's failure mask from the previous
	// snapshot's: replica.Mask.Toggled outside tests, where the leader's
	// mask differential swaps in the in-place mutant it must catch.
	maskToggled func(*replica.Mask, []solve.ArcToggle) (replica.Mask, error)

	snap atomic.Pointer[Snapshot]

	// scrapeSnap pins one snapshot generation for the duration of a
	// metrics scrape (stored by the registry scrape hook), so every
	// snapshot-derived gauge in one exposition reports the same version
	// even when a swap races the scrape.
	scrapeSnap atomic.Pointer[Snapshot]

	// Replication (nil sink: disabled). fingerprint digests the base
	// topology; names is the weight-names table (index → value.Format
	// string) the record stream has carried so far. It is append-only
	// and appended to under mu alone — by the publish whose record first
	// needs the names — so a prefix pinned under mu stays valid to read
	// after the lock is dropped (EncodeFull does exactly that).
	sink        RecordSink
	fingerprint uint64
	names       []string

	pool *sched.Pool[*solve.Workspace]

	// Event intake: a bounded queue drained by the batcher goroutine,
	// plus the overflow coalesced state the stale policy absorbs into.
	backpressure   Backpressure
	intake         chan ArcEvent
	pendingMu      sync.Mutex
	pending        map[int]bool // arc → desired fail state
	stop           chan struct{}
	stopOnce       sync.Once
	batcherWG      sync.WaitGroup
	rebuildTimeout time.Duration

	queries, swaps, events      telemetry.Counter
	batchRequests, batchQueries telemetry.Counter
	loopAnswers                 telemetry.Counter // JSON route answers naming a forwarding loop
	incremental, full           telemetry.Counter
	destRecomputes, destReuses  telemetry.Counter
	batches, coalesced          telemetry.Counter
	rejected, batchErrors       telemetry.Counter
	deltaDests, scratchDests    telemetry.Counter
	frontierNodes, touchedNodes telemetry.Counter
	pagesCloned, pagesShared    telemetry.Counter
	repFull, repDelta           telemetry.Counter
	repErrors                   telemetry.Counter
	repBytes                    *telemetry.Histogram

	// Instrumentation below is nil/zero unless a registry was supplied.
	flaps        telemetry.Counter // route entries changed across swaps
	queryNS      *telemetry.Histogram
	eventNS      *telemetry.Histogram
	batchSize    *telemetry.Histogram
	shardNS      *telemetry.Histogram
	frontierHist *telemetry.Histogram
	touchedHist  *telemetry.Histogram
	lastEventNS  telemetry.Gauge
	solveMetrics *solve.Metrics
	slowNS       int64
	slow         *telemetry.Ring[SlowQuery]
}

// SlowQuery is one record in the slow-query log: a Forward resolution
// that crossed the slow-query threshold.
type SlowQuery struct {
	From    int    `json:"from"`
	Dest    int    `json:"dest"`
	NS      int64  `json:"ns"`
	Version uint64 `json:"snapshot_version"`
}

// loopAnswersHelp documents the loop counter leader and follower both
// register.
const loopAnswersHelp = "JSON route answers (GET /v1/route, JSON batch elements) whose primary next hops loop: routed, not forwardable."

// batchSizeBuckets is the bucket layout for the event batch-size
// histogram: powers of two up to 1024, matching the default queue cap.
var batchSizeBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// nodeCountBuckets is the bucket layout for the delta frontier-size and
// nodes-touched histograms: powers of two spanning laptop-scale through
// large topologies.
var nodeCountBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
	1024, 2048, 4096, 8192, 16384, 32768, 65536}

// recordByteBuckets is the bucket layout for replication bytes-on-wire
// histograms: powers of two from 64 B to 64 MB.
var recordByteBuckets = []int64{64, 128, 256, 512, 1 << 10, 2 << 10, 4 << 10,
	8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10,
	1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20, 32 << 20, 64 << 20}

// Config names the core server inputs for NewServer. Origins may be
// left nil when WithAnnouncements derives them.
type Config struct {
	// Engine is the execution backend (wrapped with exec.Concurrent at
	// construction).
	Engine exec.Algebra
	// Graph is the base topology.
	Graph *graph.Graph
	// Origins maps destination node → originated weight.
	Origins map[int]value.V
}

// NewServer is the single constructor behind every server form: plain
// engine+topology+origins and prefix announcement sets
// (WithAnnouncements) both funnel here. It computes the
// initial snapshot with the worker pool and publishes it. The engine is
// wrapped with exec.Concurrent, so a dynamic backend may be handed in
// directly. Destinations that do not converge within the solver budget
// are reported in the snapshot, not as an error.
func NewServer(c Config, opts ...Option) (*Server, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		if o != nil {
			o.apply(&cfg)
		}
	}
	eng, g, origins := c.Engine, c.Graph, c.Origins
	if eng == nil {
		return nil, fmt.Errorf("serve: nil execution engine")
	}
	if g == nil {
		return nil, fmt.Errorf("serve: nil topology")
	}
	if err := g.CheckLabels(eng.NumFns()); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	var prefixes *rib.PrefixTable
	if cfg.hasAnnounced {
		var err error
		if prefixes, err = rib.NewPrefixTable(cfg.announced); err != nil {
			return nil, err
		}
		for _, po := range prefixes.Kept() {
			if po.Node < 0 || po.Node >= g.N {
				return nil, fmt.Errorf("serve: prefix %v anchored at node %d out of range [0,%d)", po.Prefix, po.Node, g.N)
			}
		}
		if origins == nil {
			origins = prefixes.Origins()
		}
	}
	if len(origins) == 0 {
		return nil, fmt.Errorf("serve: no destinations originated")
	}
	dests := make([]int, 0, len(origins))
	for d, origin := range origins {
		if d < 0 || d >= g.N {
			return nil, fmt.Errorf("serve: destination %d out of range [0,%d)", d, g.N)
		}
		// Origins arrive from outside the program and the interning
		// backends accept any value: check the weight against the
		// algebra here, before a pool worker feeds it to an arc function.
		if ot := eng.Source(); ot != nil {
			if err := ot.CheckWeight(origin); err != nil {
				return nil, fmt.Errorf("serve: destination %d: origin %v", d, err)
			}
		}
		if _, err := eng.Intern(origin); err != nil {
			return nil, fmt.Errorf("serve: destination %d: %v", d, err)
		}
		dests = append(dests, d)
	}
	sort.Ints(dests)
	if prefixes == nil {
		var err error
		prefixes, err = rib.AutoPrefixTable(origins)
		if err != nil {
			return nil, fmt.Errorf("serve: auto prefix table: %v", err)
		}
	}
	if cfg.queueCap <= 0 {
		cfg.queueCap = 1024
	}
	s := &Server{
		eng:            exec.Concurrent(eng),
		base:           g,
		origins:        origins,
		dests:          dests,
		prefixes:       prefixes,
		disabled:       make([]bool, len(g.Arcs)),
		backpressure:   cfg.backpressure,
		intake:         make(chan ArcEvent, cfg.queueCap),
		pending:        make(map[int]bool),
		stop:           make(chan struct{}),
		rebuildTimeout: cfg.rebuildTimeout,
		sink:           cfg.sink,
		fingerprint:    fingerprintGraph(g),
	}
	s.plan = solve.NewPlan(s.eng)
	if cfg.noDelta {
		s.plan.Warm, s.plan.Skip = solve.WarmNone, false
	}
	s.rule = s
	s.maskToggled = (*replica.Mask).Toggled
	if cfg.registry != nil {
		s.queryNS = telemetry.NewLatencyHistogram()
		s.eventNS = telemetry.NewLatencyHistogram()
		s.shardNS = telemetry.NewLatencyHistogram()
		s.batchSize = telemetry.NewHistogram(batchSizeBuckets)
		s.frontierHist = telemetry.NewHistogram(nodeCountBuckets)
		s.touchedHist = telemetry.NewHistogram(nodeCountBuckets)
		s.solveMetrics = solve.NewMetrics()
		s.slowNS = cfg.slowQueryNS
		if s.slowNS <= 0 {
			s.slowNS = int64(time.Millisecond)
		}
		s.slow = telemetry.NewRing[SlowQuery](128)
		if s.sink != nil {
			s.repBytes = telemetry.NewHistogram(recordByteBuckets)
		}
	}
	// The pool's workers create their workspaces eagerly, so the solve
	// metrics sink must be in place before the pool starts.
	s.pool = sched.New(cfg.workers, func() *solve.Workspace {
		ws := solve.NewWorkspace()
		ws.Metrics = s.solveMetrics
		ws.Plan = &s.plan
		return ws
	})
	s.workers = s.pool.Workers()
	if cfg.registry != nil {
		s.register(cfg.registry)
	}
	view := g.MaskArcs(s.disabled)
	table, unconv, built, err := s.buildDests(context.Background(), view, dests, nil, nil)
	if err != nil {
		s.Close()
		return nil, err
	}
	s.publish(view, replica.NewMask(len(g.Arcs)), table, unconv, nil, built)
	if !cfg.noBatcher {
		s.batcherWG.Add(1)
		go s.batchLoop()
	}
	return s, nil
}

// register exposes the server's metrics in reg. Called once from NewServer;
// the gauge funcs read live server state at scrape time — except
// snapshot-derived gauges, which read the generation the scrape hook
// pinned at the start of the render, so /v1/metrics and /v1/stats
// agree on one snapshot version even when swaps race the scrape.
func (s *Server) register(reg *telemetry.Registry) {
	reg.AddScrapeHook(func() { s.scrapeSnap.Store(s.snap.Load()) })
	reg.AddCounter("mrserve_queries_total", "Route queries served (Lookup, Forward, ECMPWidth).", &s.queries)
	reg.AddCounter("mrserve_batch_requests_total", "POST /v1/routes batch requests served.", &s.batchRequests)
	reg.AddCounter("mrserve_batch_queries_total", "Route queries answered inside batches.", &s.batchQueries)
	reg.AddCounter("mrserve_loop_answers_total", loopAnswersHelp, &s.loopAnswers)
	reg.AddCounter("mrserve_snapshot_swaps_total", "Snapshots published.", &s.swaps)
	reg.AddCounter("mrserve_events_applied_total", "Topology events that changed the graph.", &s.events)
	reg.AddCounter(`mrserve_recomputes_total{kind="incremental"}`, "Snapshot builds by kind.", &s.incremental)
	reg.AddCounter(`mrserve_recomputes_total{kind="full"}`, "", &s.full)
	reg.AddCounter("mrserve_dest_recomputes_total", "Destination columns recomputed.", &s.destRecomputes)
	reg.AddCounter("mrserve_dest_reuses_total", "Destination columns shared with the previous snapshot.", &s.destReuses)
	reg.AddCounter(`mrserve_dest_rebuilds_total{kind="delta"}`,
		"Destination column rebuilds by solver path: warm-start delta drains vs from-scratch sweeps.", &s.deltaDests)
	reg.AddCounter(`mrserve_dest_rebuilds_total{kind="scratch"}`, "", &s.scratchDests)
	reg.AddCounter(`mrserve_column_pages_total{kind="cloned"}`,
		"Copy-on-write column pages per rebuild, by fate: cloned because their routes changed (every page on a scratch rebuild) vs shared with the previous snapshot by pointer.", &s.pagesCloned)
	reg.AddCounter(`mrserve_column_pages_total{kind="shared"}`, "", &s.pagesShared)
	reg.AddCounter("mrserve_route_flaps_total", "Route entries that changed across snapshot swaps.", &s.flaps)
	reg.AddCounter("mrserve_event_batches_total", "Coalesced event batches applied.", &s.batches)
	reg.AddCounter("mrserve_events_coalesced_total",
		"Events absorbed by coalescing without a recompute of their own (cancelled, duplicate or no-op).", &s.coalesced)
	reg.AddCounter("mrserve_events_rejected_total",
		"Events rejected by the full intake queue under the reject policy.", &s.rejected)
	reg.AddCounter("mrserve_event_batch_errors_total",
		"Batched recomputes abandoned on error or deadline.", &s.batchErrors)
	reg.AddGaugeFunc("mrserve_event_queue_depth",
		"Events waiting in the intake queue plus pending coalesced arcs.", func() float64 {
			return float64(s.queueDepth())
		})
	reg.AddGaugeFunc("mrserve_snapshot_version", "Version of the published snapshot.", func() float64 {
		if sn := s.pinnedSnap(); sn != nil {
			return float64(sn.Version)
		}
		return 0
	})
	reg.AddGaugeFunc("mrserve_convergence_unconverged_destinations",
		"Destinations whose fixpoint did not settle in the published snapshot.", func() float64 {
			if sn := s.pinnedSnap(); sn != nil {
				return float64(len(sn.Unconverged))
			}
			return 0
		})
	reg.AddGaugeFunc("mrserve_convergence_last_event_seconds",
		"Reconvergence time of the most recent applied topology batch.", func() float64 {
			return float64(s.lastEventNS.Load()) / 1e9
		})
	reg.AddGaugeFunc("mrserve_disabled_arcs", "Arcs currently failed.", func() float64 {
		if sn := s.pinnedSnap(); sn != nil {
			return float64(sn.mask.Count())
		}
		return 0
	})
	reg.AddGaugeFunc("mrserve_snapshot_arena_bytes",
		"Arena footprint of the published snapshot's route columns (slot + next-hop pool bytes).", func() float64 {
			if sn := s.pinnedSnap(); sn != nil {
				return float64(sn.arenaBytes)
			}
			return 0
		})
	reg.AddGaugeFunc("mrserve_snapshot_live_entries",
		"Routed slots across the published snapshot's columns.", func() float64 {
			if sn := s.pinnedSnap(); sn != nil {
				return float64(sn.liveEntries)
			}
			return 0
		})
	reg.AddGaugeFunc("mrserve_snapshot_lpm_intervals",
		"Address ranges in the prefix table's longest-match index.", func() float64 {
			return float64(s.prefixes.LPMIntervals())
		})
	reg.AddGaugeFunc("mrserve_prefixes",
		"Announced prefixes kept after aggregation.", func() float64 {
			return float64(s.prefixes.Len())
		})
	reg.AddGaugeFunc("mrserve_destinations", "Originated destinations.", func() float64 { return float64(len(s.dests)) })
	reg.AddGaugeFunc("mrserve_nodes", "Topology node count.", func() float64 { return float64(s.base.N) })
	reg.AddGaugeFunc("mrserve_arcs", "Topology arc count.", func() float64 { return float64(len(s.base.Arcs)) })
	reg.AddGaugeFunc("mrserve_workers", "Snapshot builder worker pool size.", func() float64 { return float64(s.workers) })
	reg.AddGaugeFunc("mrserve_engine_interned",
		"Weights the execution engine has interned (0 when compiled).", func() float64 {
			n, _ := exec.Tiers(s.eng)
			return float64(n)
		})
	reg.AddGaugeFunc("mrserve_engine_hot_capacity",
		"Interned weights the engine's memo tables cover; the excess is interpreted under a mutex.", func() float64 {
			_, hot := exec.Tiers(s.eng)
			return float64(hot)
		})
	reg.AddHistogram("mrserve_query_seconds", "Per-query latency (a Forward resolution).", s.queryNS, 1e9)
	reg.AddHistogram("mrserve_convergence_event_seconds",
		"Reconvergence latency per applied topology batch (coalesce + recompute + snapshot swap).", s.eventNS, 1e9)
	reg.AddHistogram("mrserve_event_batch_size", "Raw events per applied batch, before coalescing.", s.batchSize, 1)
	reg.AddHistogram("mrserve_shard_rebuild_seconds",
		"Per-destination column rebuild latency inside the sharded snapshot builder.", s.shardNS, 1e9)
	reg.AddHistogram("mrserve_delta_frontier_nodes",
		"Seed frontier size per warm-start delta rebuild (invalidated subtree plus raised-arc tails).", s.frontierHist, 1)
	reg.AddHistogram("mrserve_delta_touched_nodes",
		"Nodes re-relaxed per warm-start delta rebuild.", s.touchedHist, 1)
	if s.sink != nil {
		reg.AddCounter(`mrserve_replica_published_records_total{kind="full"}`,
			"Replication records published to the sink, by kind.", &s.repFull)
		reg.AddCounter(`mrserve_replica_published_records_total{kind="delta"}`, "", &s.repDelta)
		reg.AddCounter("mrserve_replica_publish_errors_total",
			"Replication records the sink failed to accept (log write failures).", &s.repErrors)
		reg.AddHistogram("mrserve_replica_record_bytes",
			"Framed replication record size on the wire.", s.repBytes, 1)
	}
	s.solveMetrics.Register(reg, "mrserve_solve")
}

// pinnedSnap returns the snapshot generation pinned for the current
// metrics scrape, falling back to the live snapshot outside a scrape
// (or before the first one).
func (s *Server) pinnedSnap() *Snapshot {
	if sn := s.scrapeSnap.Load(); sn != nil {
		return sn
	}
	return s.snap.Load()
}

// stopBatcher halts the intake batcher exactly once and waits it out.
func (s *Server) stopBatcher() {
	s.stopOnce.Do(func() {
		close(s.stop)
		s.batcherWG.Wait()
	})
}

// Close stops the batcher and the worker pool. The current snapshot
// stays readable, but ApplyEvent/ApplyBatch/Rebuild must not be called
// afterwards.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.stopBatcher()
	// Reacquiring the writer lock waits out any in-flight mutation
	// before the pool goes away; new ones bail on the closed flag.
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pool.Close()
}

// rebuilt is one recomputed destination's outcome, handed from the pool
// worker that produced it to publish: the new column and the slots in
// which it differs from the previous snapshot's column for the same
// destination — ascending by node, at most n/2+1 of them materialised,
// changed holding the exact count (see buildDests). Each NextHop aliases
// the new column's storage, which is immutable once published: read it,
// never write it. Both stay zero on a first build, and when neither
// consumer is configured.
type rebuilt struct {
	dest    int
	col     *rib.PagedColumn
	changes []rib.SlotPatch
	changed int
}

// buildDests computes paged columns for the recompute set on view,
// sharding destinations (columns) across the worker pool; columns for
// every other destination are shared with prev's snapshot by pointer
// (they are immutable). toggles, nil on full builds, holds for each
// recomputed destination the toggles its rebuild is handed (see
// invalidated). When the delta gate is open and toggles
// describe the batch, each recomputed destination warm-starts from its
// previous column via rib.DeltaDestPaged — the warm start reads engine
// weight indices straight out of the previous pages, so nothing is
// re-interned — while destinations the previous snapshot reported
// unconverged rebuild from scratch (their columns are not a fixpoint to
// warm-start from). A delta rebuild clones only the pages whose routes
// change and shares the rest with the previous column by pointer, so
// the swap's data-plane cost tracks the frontier, not N. A ctx
// cancellation abandons the build and returns ctx.Err().
//
// The rebuild is also the one place a swap's diff is computed; nothing
// after it compares columns again — the flap counter sums the lists'
// counts and the replication encoder wraps the lists. rib.DeltaDestPaged
// returns the changed slots as a by-product of recomputing the redo set
// (every other slot kept its route, and by the page-local canonical
// layout, DESIGN.md §8b, its bytes, so it is never looked at). A column
// the worker built with rib.BuildDestPaged is compared page by page with
// rib.DiffPaged in the pool worker, and only when the flap counter or
// the replication sink will read the result.
func (s *Server) buildDests(ctx context.Context, view *graph.Graph, recompute []int, prev *Snapshot, toggles [][]solve.ArcToggle) (map[int]*rib.PagedColumn, []int, []rebuilt, error) {
	cols := make(map[int]*rib.PagedColumn, len(s.dests))
	var prevCols map[int]*rib.PagedColumn
	prevUnconv := make(map[int]bool, 4)
	if prev != nil {
		prevCols = prev.cols
		for _, d := range prev.Unconverged {
			prevUnconv[d] = true
		}
		inRecompute := make(map[int]bool, len(recompute))
		for _, d := range recompute {
			inRecompute[d] = true
		}
		for d, col := range prevCols {
			if !inRecompute[d] {
				cols[d] = col
			}
		}
	}
	delta := s.plan.Warm != solve.WarmNone && prev != nil && toggles != nil
	wantDiff := s.queryNS != nil || (s.sink != nil && toggles != nil)
	results := make([]rebuilt, len(recompute))
	err := s.pool.Map(ctx, len(recompute), func(i int, ws *solve.Workspace) error {
		d := recompute[i]
		var t0 time.Time
		if s.shardNS != nil {
			t0 = time.Now()
		}
		old := prevCols[d]
		r := rebuilt{dest: d}
		var st solve.DeltaStats
		var err error
		if delta && !prevUnconv[d] && old != nil {
			var ps rib.PageStats
			r.col, st, ps, err = rib.DeltaDestPaged(
				s.eng, view, s.disabled, d, s.origins[d], ws, old, toggles[i])
			if err != nil {
				return err
			}
			s.pagesCloned.Add(uint64(ps.Cloned))
			s.pagesShared.Add(uint64(ps.Shared))
			r.changes, r.changed = ps.Changes, ps.Changed
		} else {
			if r.col, err = rib.BuildDestPaged(s.eng, view, d, s.origins[d], ws); err != nil {
				return err
			}
			s.pagesCloned.Add(uint64(len(r.col.Pages)))
			if old != nil && wantDiff {
				r.changes, r.changed = rib.DiffPaged(old, r.col)
			}
		}
		if st.UsedDelta {
			s.deltaDests.Add(1)
			s.frontierNodes.Add(uint64(st.Frontier))
			s.touchedNodes.Add(uint64(len(st.Touched)))
			if s.frontierHist != nil {
				s.frontierHist.Observe(int64(st.Frontier))
				s.touchedHist.Observe(int64(len(st.Touched)))
			}
		} else {
			s.scratchDests.Add(1)
		}
		if s.shardNS != nil {
			s.shardNS.Observe(time.Since(t0).Nanoseconds())
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	var unconverged []int
	for i := range results {
		r := &results[i]
		if !r.col.Converged {
			unconverged = append(unconverged, r.dest)
		}
		cols[r.dest] = r.col
	}
	sort.Ints(unconverged)
	return cols, unconverged, results, nil
}

// publish swaps in a new snapshot built from cols and mask, the failure
// state's mask, and, when a replication sink is configured, ships the
// swap as a replica record (a delta wrapping the toggles and the rebuilt
// destinations' change lists, or a full snapshot when toggles is nil).
// Callers hold s.mu.
func (s *Server) publish(view *graph.Graph, mask replica.Mask, cols map[int]*rib.PagedColumn, unconverged []int, toggles []solve.ArcToggle, built []rebuilt) {
	cur := s.snap.Load()
	sn := &Snapshot{
		Version:     1,
		Graph:       view,
		mask:        mask,
		Unconverged: unconverged,
		cols:        cols,
		prefixes:    s.prefixes,
		rib:         rib.FromColumns(s.eng, view, cols),
		srv:         s,
	}
	if cur != nil {
		sn.Version = cur.Version + 1
		if s.queryNS != nil {
			flaps := 0
			for i := range built {
				flaps += built[i].changed
			}
			s.flaps.Add(uint64(flaps))
		}
	}
	for _, c := range cols {
		sn.arenaBytes += c.Bytes()
		sn.liveEntries += c.Live()
	}
	s.snap.Store(sn)
	s.swaps.Add(1)
	s.replicate(cur, sn, toggles, built)
}

// Coalesce reduces an event sequence to its net per-arc effect against
// the given failure state: the last event for an arc names its desired
// state, and arcs whose desired state equals disabled[arc] drop out —
// so a down followed by an up cancels, and duplicate downs dedupe to
// one toggle. The result is the toggle set, sorted by arc index, each
// entry carrying the arc's new state. Events naming arcs outside
// [0, len(disabled)) are an error.
func Coalesce(events []ArcEvent, disabled []bool) ([]ArcEvent, error) {
	desired := make(map[int]bool, len(events))
	for _, ev := range events {
		if ev.Arc < 0 || ev.Arc >= len(disabled) {
			return nil, fmt.Errorf("serve: arc %d out of range [0,%d)", ev.Arc, len(disabled))
		}
		desired[ev.Arc] = ev.Fail
	}
	toggles := make([]ArcEvent, 0, len(desired))
	for arc, fail := range desired {
		if disabled[arc] != fail {
			toggles = append(toggles, ArcEvent{Arc: arc, Fail: fail})
		}
	}
	sort.Slice(toggles, func(i, j int) bool { return toggles[i].Arc < toggles[j].Arc })
	return toggles, nil
}

// invalidated returns, in ascending order, the destinations whose
// columns any of the toggled arcs can touch — the union of the
// per-event skip rule over the batch, evaluated against the pre-batch
// snapshot (sound for the whole batch; see the package comment) — and,
// for each, the toggles its rebuild is handed. Sharpness is judged per
// direction (subsetRule.sharp): a column sharp for every toggle that
// reaches it is held to the sharper rule of toggleMoves, toggle by
// toggle, and handed only the toggles that rule says can move it. Any
// other destination a toggle reaches is handed all, the whole batch.
// Callers hold s.mu.
func (s *Server) invalidated(cur *Snapshot, all []solve.ArcToggle) (recompute []int, subsets [][]solve.ArcToggle) {
	recompute = make([]int, 0, len(s.dests))
	subsets = make([][]solve.ArcToggle, 0, len(s.dests))
	// One backing array, made at the first sharp toggle, for every sharp
	// destination's subset.
	var moving []solve.ArcToggle
	for _, d := range s.dests {
		col := cur.cols[d]
		if col == nil {
			continue
		}
		start, whole := len(moving), false
		for _, t := range all {
			a := s.base.Arcs[t.Arc]
			if a.From == d {
				continue
			}
			wy, routed := col.Route(a.To)
			if !routed {
				continue
			}
			if whole = !s.rule.sharp(col, t.Down); whole {
				break
			}
			if moving == nil {
				moving = make([]solve.ArcToggle, 0, len(s.dests)*len(all))
			}
			if s.rule.toggleMoves(col, a, t.Down, wy) {
				moving = append(moving, t)
			}
		}
		switch {
		case whole:
			moving = moving[:start]
			recompute = append(recompute, d)
			subsets = append(subsets, all)
		case len(moving) > start:
			recompute = append(recompute, d)
			subsets = append(subsets, moving[start:len(moving):len(moving)])
		}
	}
	return recompute, subsets
}

// subsetRule is the per-column judgement invalidated applies: whether a
// column is sharp for a failed or a restored arc, and whether such a
// toggle can move a sharp column. The server is its own rule;
// Server.rule holds it so that the subset differential can swap in the
// broken rules it must catch.
type subsetRule interface {
	sharp(col *rib.PagedColumn, fail bool) bool
	toggleMoves(col *rib.PagedColumn, a graph.Arc, fail bool, wy int32) bool
}

// sharp reports whether col is held to toggleMoves for a failed (fail)
// or a restored arc: the plan makes the fixpoint skip rule sound, col is
// converged, and col is Clean — or, for a restored arc, the plan's
// kernel is M (see toggleMoves).
func (s *Server) sharp(col *rib.PagedColumn, fail bool) bool {
	return s.plan.Skip && col.Converged && (col.Clean || !fail && s.plan.Kernel.M)
}

// toggleMoves reports whether toggling arc a = x→y, whose head holds
// weight wy in col, can change col — a column sharp for the toggle's
// direction, over a total preorder. A failed arc matters only if y is
// among x's next hops: otherwise its candidate was strictly worse than
// x's selection and leaves neither the selection nor the equal-cost set.
// A restored arc matters unless x is routed and the arc's candidate is
// strictly worse than what x holds: then col stays a fixpoint of the new
// one-step operator F_new, which lies at or below the old one, so under
// M col is still its greatest fixpoint even where col is not Clean.
func (s *Server) toggleMoves(col *rib.PagedColumn, a graph.Arc, fail bool, wy int32) bool {
	if fail {
		return slices.Contains(col.NextHops(a.From), int32(a.To))
	}
	wx, routed := col.Route(a.From)
	return !routed || !s.eng.Lt(wx, s.eng.Apply(a.Label, wy))
}

// ApplyBatch coalesces events to their net per-arc effect and applies
// the result as one recompute + one snapshot swap. It reports how many
// arcs actually toggled and how many destination columns were
// recomputed; a batch that coalesces to nothing publishes nothing and
// costs nothing. On error — including ctx cancellation or deadline —
// the previous snapshot and failure state stay intact. Readers are
// never blocked: they keep resolving against the previous snapshot
// until the swap.
func (s *Server) ApplyBatch(ctx context.Context, events []ArcEvent) (applied, recomputed int, err error) {
	applied, recomputed, _, err = s.applyBatch(ctx, events)
	return applied, recomputed, err
}

// applyBatch is ApplyBatch that also reports the version the batch left
// published: the one its swap published, or the unchanged head when it
// coalesced to nothing. Both are read under the writer lock, so the
// published snapshot at that version holds every arc of the batch in
// the state the batch asked for; the head read after the lock is
// dropped may already be a later swap's, which can have reverted them.
func (s *Server) applyBatch(ctx context.Context, events []ArcEvent) (applied, recomputed int, version uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, 0, 0, fmt.Errorf("serve: server is closed")
	}
	toggles, err := Coalesce(events, s.disabled)
	if err != nil {
		return 0, 0, 0, err
	}
	s.coalesced.Add(uint64(len(events) - len(toggles)))
	cur := s.snap.Load()
	if len(toggles) == 0 {
		return 0, 0, cur.Version, nil
	}
	var t0 time.Time
	if s.eventNS != nil {
		t0 = time.Now()
	}
	all := make([]solve.ArcToggle, len(toggles))
	for i, t := range toggles {
		all[i] = solve.ArcToggle{Arc: t.Arc, Down: t.Fail}
	}
	// The published mask equals s.disabled, so every coalesced toggle
	// flips its bit and Toggled cannot refuse the batch.
	mask, err := s.maskToggled(&cur.mask, all)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("serve: %w", err)
	}
	revert := func() {
		for _, t := range toggles {
			s.disabled[t.Arc] = !t.Fail
		}
	}
	for _, t := range toggles {
		s.disabled[t.Arc] = t.Fail
	}
	var view *graph.Graph
	if len(toggles) <= 32 {
		// Small storm: a copy-on-write view, one header copy plus one row
		// rebuild per endpoint, far under the O(N + M) full re-index.
		ais := make([]int, len(toggles))
		for i, t := range toggles {
			ais[i] = t.Arc
		}
		view = cur.Graph.WithArcsToggled(ais, s.disabled)
	} else {
		view = s.base.MaskArcs(s.disabled)
	}
	recompute, subsets := s.invalidated(cur, all)
	table, unconv, built, err := s.buildDests(ctx, view, recompute, cur, subsets)
	if err != nil {
		revert()
		return 0, 0, 0, err
	}
	s.publish(view, mask, table, unconv, all, built)
	s.events.Add(uint64(len(toggles)))
	s.batches.Add(1)
	if s.batchSize != nil {
		s.batchSize.Observe(int64(len(events)))
	}
	if len(recompute) == len(s.dests) {
		s.full.Add(1)
	} else {
		s.incremental.Add(1)
	}
	s.destRecomputes.Add(uint64(len(recompute)))
	s.destReuses.Add(uint64(len(s.dests) - len(recompute)))
	if s.eventNS != nil {
		ns := time.Since(t0).Nanoseconds()
		s.eventNS.Observe(ns)
		s.lastEventNS.Set(ns)
	}
	return len(toggles), len(recompute), s.snap.Load().Version, nil
}

// ApplyEvent applies a link failure (fail=true) or recovery to the arc
// with the given index, recomputing only invalidated destinations, and
// publishes the resulting snapshot. It reports whether the event changed
// anything (re-failing a failed arc is a no-op) and how many
// destinations were recomputed. A ctx cancellation or deadline abandons
// the recompute and leaves the previous snapshot intact.
func (s *Server) ApplyEvent(ctx context.Context, arc int, fail bool) (applied bool, recomputed int, err error) {
	n, recomputed, err := s.ApplyBatch(ctx, []ArcEvent{{Arc: arc, Fail: fail}})
	return n > 0, recomputed, err
}

// ApplyEventEndpoints is ApplyEvent with the arc named by its endpoints
// (the form HTTP clients and scenario files use).
func (s *Server) ApplyEventEndpoints(ctx context.Context, from, to int, fail bool) (bool, int, error) {
	ai, err := s.arcByEndpoints(from, to)
	if err != nil {
		return false, 0, err
	}
	return s.ApplyEvent(ctx, ai, fail)
}

// arcByEndpoints resolves a from→to arc to its index through from's
// out-row in the base graph — O(degree), not O(arcs). Rows list arcs in
// ascending index order, so of parallel arcs the lowest index answers.
func (s *Server) arcByEndpoints(from, to int) (int, error) {
	if from >= 0 && from < s.base.N {
		for _, ai := range s.base.Out(from) {
			if s.base.Arcs[ai].To == to {
				return int(ai), nil
			}
		}
	}
	return 0, fmt.Errorf("serve: no arc %d → %d", from, to)
}

// EnqueueEvent hands an event to the intake queue for asynchronous
// batched application. When the queue is full the configured
// backpressure policy decides: BackpressureReject fails with
// ErrBacklogged, BackpressureStale absorbs the event into the pending
// coalesced state (per-arc last-write-wins) and lets the snapshot lag.
func (s *Server) EnqueueEvent(ev ArcEvent) error {
	if ev.Arc < 0 || ev.Arc >= len(s.base.Arcs) {
		return fmt.Errorf("serve: arc %d out of range [0,%d)", ev.Arc, len(s.base.Arcs))
	}
	select {
	case <-s.stop:
		return fmt.Errorf("serve: server is closed")
	default:
	}
	select {
	case s.intake <- ev:
		return nil
	default:
	}
	if s.backpressure == BackpressureStale {
		s.pendingMu.Lock()
		s.pending[ev.Arc] = ev.Fail
		s.pendingMu.Unlock()
		return nil
	}
	s.rejected.Add(1)
	return ErrBacklogged
}

// queueDepth reads the intake backlog: queued events plus pending
// coalesced arcs.
func (s *Server) queueDepth() int {
	s.pendingMu.Lock()
	p := len(s.pending)
	s.pendingMu.Unlock()
	return len(s.intake) + p
}

// batchLoop is the intake batcher: it sleeps on the queue, then drains
// every event queued behind the first — a burst becomes one coalesced
// batch, one recompute, one swap.
func (s *Server) batchLoop() {
	defer s.batcherWG.Done()
	for {
		select {
		case <-s.stop:
			return
		case ev := <-s.intake:
			if err := s.drainAndApply(&ev); err != nil {
				s.batchErrors.Add(1)
			}
		}
	}
}

// drainAndApply collects first (when non-nil), everything currently
// queued and the pending coalesced state into one batch and applies it.
// Pending entries append last, so under the stale policy the newest
// per-arc state wins.
func (s *Server) drainAndApply(first *ArcEvent) error {
	batch := make([]ArcEvent, 0, 16)
	if first != nil {
		batch = append(batch, *first)
	}
drain:
	for {
		select {
		case ev := <-s.intake:
			batch = append(batch, ev)
		default:
			break drain
		}
	}
	s.pendingMu.Lock()
	for arc, fail := range s.pending {
		batch = append(batch, ArcEvent{Arc: arc, Fail: fail})
	}
	clear(s.pending)
	s.pendingMu.Unlock()
	if len(batch) == 0 {
		return nil
	}
	ctx := context.Background()
	if s.rebuildTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.rebuildTimeout)
		defer cancel()
	}
	_, _, err := s.ApplyBatch(ctx, batch)
	return err
}

// Replay applies topology events in firing order and returns how many
// changed the topology. The input may arrive unsorted: like
// scenario.SortedEvents, Replay stable-sorts a copy by LinkEvent.At
// before applying, so a scenario's semantics never depend on file
// order.
func (s *Server) Replay(ctx context.Context, events []protocol.LinkEvent) (applied int, err error) {
	evs := append([]protocol.LinkEvent(nil), events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	for _, ev := range evs {
		ok, _, err := s.ApplyEvent(ctx, ev.Arc, ev.Fail)
		if err != nil {
			return applied, err
		}
		if ok {
			applied++
		}
	}
	return applied, nil
}

// Rebuild recomputes every destination from scratch on the current
// topology and publishes the result — the full-rebuild baseline the
// incremental path is benchmarked against. A ctx cancellation abandons
// the rebuild and leaves the previous snapshot intact.
func (s *Server) Rebuild(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("serve: server is closed")
	}
	view := s.base.MaskArcs(s.disabled)
	// The current snapshot rides along only so the flap counter has
	// something to compare against; nil toggles keep every column a
	// from-scratch build and the record a full one. The failure state is
	// unchanged, and so is its mask.
	cur := s.snap.Load()
	table, unconv, built, err := s.buildDests(ctx, view, s.dests, cur, nil)
	if err != nil {
		return err
	}
	s.publish(view, cur.mask, table, unconv, nil, built)
	s.full.Add(1)
	s.destRecomputes.Add(uint64(len(s.dests)))
	return nil
}

// RebuildTimeout reports the configured per-rebuild deadline (0: none);
// the HTTP event handlers derive request contexts from it.
func (s *Server) RebuildTimeout() time.Duration { return s.rebuildTimeout }

// Snapshot returns the current snapshot (never nil after NewServer) with
// its Disabled view filled in: O(arcs) the first time a snapshot is
// returned, free after that. The server's own readers load the snapshot
// directly and never fill it.
func (s *Server) Snapshot() *Snapshot {
	sn := s.snap.Load()
	sn.disabledOnce.Do(func() {
		sn.Disabled = make([]bool, sn.mask.Len())
		for i := range sn.Disabled {
			sn.Disabled[i] = sn.mask.Get(i)
		}
	})
	return sn
}

// Dests lists the originated destinations in ascending order.
func (s *Server) Dests() []int { return append([]int(nil), s.dests...) }

// Lookup resolves node's entry toward dest against the current snapshot,
// lock-free.
func (s *Server) Lookup(node, dest int) *rib.Entry {
	s.queries.Add(1)
	return s.snap.Load().Lookup(node, dest)
}

// querySampleMask selects which queries are timed when telemetry is
// enabled: every (mask+1)-th query (per the shared counter) pays the
// two clock reads and the histogram observe, the rest run bare. A
// resolution is fast enough (hundreds of ns on compiled engines) that
// unsampled timing would cost more than the 10 % overhead budget
// allows; 1-in-16 sampling keeps the histogram statistically faithful —
// the sample index is decoupled from query content — at a sixteenth of
// the cost. The slow-query log sees sampled queries only.
const querySampleMask = 15

// Forward resolves the forwarding path from a node toward dest against
// the current snapshot, lock-free. This is the instrumented query path:
// with telemetry enabled every querySampleMask+1-th resolution lands in
// the query latency histogram, and sampled resolutions over the
// slow-query threshold are logged.
func (s *Server) Forward(from, dest int) (graph.Path, error) {
	return s.forwardOn(s.snap.Load(), from, dest)
}

// forwardOn is Forward against a pinned snapshot — what the HTTP route
// handlers call, so the path they answer belongs to the same version as
// the weight beside it.
func (s *Server) forwardOn(sn *Snapshot, from, dest int) (graph.Path, error) {
	n := s.queries.Add(1)
	if s.queryNS == nil || n&querySampleMask != 0 {
		return sn.Forward(from, dest)
	}
	t0 := time.Now()
	p, err := sn.Forward(from, dest)
	ns := time.Since(t0).Nanoseconds()
	s.queryNS.Observe(ns)
	if ns >= s.slowNS {
		s.slow.Push(SlowQuery{From: from, Dest: dest, NS: ns, Version: sn.Version})
	}
	return p, err
}

// SlowQueries returns the retained slow-query log, oldest first (empty
// without telemetry).
func (s *Server) SlowQueries() []SlowQuery {
	if s.slow == nil {
		return nil
	}
	return s.slow.Items()
}

// ECMPWidth returns the equal-cost next-hop count at node toward dest in
// the current snapshot, lock-free.
func (s *Server) ECMPWidth(node, dest int) int {
	s.queries.Add(1)
	return s.snap.Load().ECMPWidth(node, dest)
}

// Stats reads the counters.
func (s *Server) Stats() Stats {
	sn := s.snap.Load()
	interned, hotCap := exec.Tiers(s.eng)
	return Stats{
		Queries:               s.queries.Load(),
		BatchRequests:         s.batchRequests.Load(),
		BatchQueries:          s.batchQueries.Load(),
		LoopAnswers:           s.loopAnswers.Load(),
		SnapshotSwaps:         s.swaps.Load(),
		EventsApplied:         s.events.Load(),
		IncrementalRecomputes: s.incremental.Load(),
		FullRecomputes:        s.full.Load(),
		DestRecomputes:        s.destRecomputes.Load(),
		DestReuses:            s.destReuses.Load(),
		DeltaDestRebuilds:     s.deltaDests.Load(),
		ScratchDestRebuilds:   s.scratchDests.Load(),
		DeltaFrontierNodes:    s.frontierNodes.Load(),
		DeltaTouchedNodes:     s.touchedNodes.Load(),
		DeltaEnabled:          s.plan.Warm != solve.WarmNone,
		PagesCloned:           s.pagesCloned.Load(),
		PagesShared:           s.pagesShared.Load(),
		BatchesApplied:        s.batches.Load(),
		EventsCoalesced:       s.coalesced.Load(),
		EventsRejected:        s.rejected.Load(),
		BatchErrors:           s.batchErrors.Load(),
		QueueDepth:            s.queueDepth(),
		QueueCapacity:         cap(s.intake),
		Backpressure:          s.backpressure.String(),
		SnapshotVersion:       sn.Version,
		Destinations:          len(s.dests),
		Nodes:                 s.base.N,
		Arcs:                  len(s.base.Arcs),
		DisabledArcs:          sn.mask.Count(),
		Engine:                string(s.eng.Mode()),
		ScratchSolver:         s.plan.Kernel.String(),
		WarmStart:             s.plan.Warm.String(),
		EngineInterned:        interned,
		EngineHotCapacity:     hotCap,
		Workers:               s.workers,
		ArenaBytes:            sn.arenaBytes,
		LiveEntries:           sn.liveEntries,
		LPMIntervals:          sn.prefixes.LPMIntervals(),
		Prefixes:              sn.prefixes.Len(),
		SuppressedPrefixes:    len(sn.prefixes.Suppressed()),
	}
}
