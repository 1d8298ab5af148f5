package serve_test

// Tests for the publish path's one-diff-per-swap contract: the rebuild
// produces the changed-slot list, the flap counter and the replication
// encoder only consume it. Every swap of a shadowed server is held
// against the scan-based oracle (oracle_test.go): same flap count, same
// delta frame byte for byte. CI runs this file under -race on both
// execution backends.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"metarouting/internal/baselib"
	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/ost"
	"metarouting/internal/prop"
	"metarouting/internal/replica"
	"metarouting/internal/rib"
	"metarouting/internal/serve"
	"metarouting/internal/telemetry"
	"metarouting/internal/value"
)

// shadowed is a server whose ApplyBatch and Rebuild check every swap
// against the oracle before returning, and every rebuild against the one
// the whole batch gives (CheckSubsets). It boots with a capture sink and
// a registry, so both consumers of the change list — delta records and
// the flap counter — are live.
type shadowed struct {
	*serve.Server
	t       *testing.T
	label   string
	eng     exec.Algebra
	origins map[int]value.V
	sink    *captureSink
	oracle  *serve.SwapOracle
	seen    int               // frames already matched to a swap
	sums    map[uint64]uint32 // leader checksum at each published version
	// sharpSkips counts destinations a swap left alone although a
	// toggled arc's head was routed toward them and its tail was not the
	// destination — skips only the fixpoint rule of Server.invalidated
	// makes.
	sharpSkips int
}

func newShadowed(t *testing.T, label string, eng exec.Algebra, g *graph.Graph, origins map[int]value.V, opts ...serve.Option) *shadowed {
	t.Helper()
	sink := &captureSink{}
	opts = append([]serve.Option{serve.WithReplication(sink), serve.WithRegistry(telemetry.NewRegistry())}, opts...)
	srv, err := serve.NewServer(serve.Config{Engine: eng, Graph: g, Origins: origins}, opts...)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	sh := &shadowed{Server: srv, t: t, label: label, eng: eng, origins: origins, sink: sink,
		oracle: serve.NewSwapOracle(srv), seen: 1,
		sums: map[uint64]uint32{srv.Snapshot().Version: srv.Checksum()}}
	return sh
}

// checkSkipped holds every destination the swap prev→cur did not rebuild
// (its column is shared by pointer) against a from-scratch build on the
// new view: same pages, same convergence verdict, same clean
// certificate.
func (sh *shadowed) checkSkipped(prev *serve.Snapshot, events []serve.ArcEvent) {
	sh.t.Helper()
	cur := sh.Snapshot()
	if cur == prev {
		return
	}
	for _, d := range sh.Dests() {
		col := cur.Column(d)
		if col != prev.Column(d) {
			continue
		}
		want, err := rib.BuildDestPaged(sh.eng, cur.Graph, d, sh.origins[d], nil)
		if err != nil {
			sh.t.Fatalf("%s: v%d dest %d: %v", sh.label, cur.Version, d, err)
		}
		if col.Converged != want.Converged || col.Clean != want.Clean || !reflect.DeepEqual(col.Pages, want.Pages) {
			sh.t.Fatalf("%s: v%d: destination %d was skipped but a scratch build on the new view differs (converged %v/%v, clean %v/%v)",
				sh.label, cur.Version, d, col.Converged, want.Converged, col.Clean, want.Clean)
		}
		for _, ev := range events {
			a := cur.Graph.Arcs[ev.Arc]
			if _, routed := col.Route(a.To); routed && a.From != d && prev.Disabled[ev.Arc] != cur.Disabled[ev.Arc] {
				sh.sharpSkips++
				break
			}
		}
	}
}

// check matches the frames published since the last call to the swap
// that just happened (or did not) and runs the oracle over it.
func (sh *shadowed) check(prev *serve.Snapshot, events []serve.ArcEvent) []byte {
	sh.t.Helper()
	fresh := sh.sink.since(sh.seen)
	sh.seen += len(fresh)
	if len(fresh) > 1 {
		sh.t.Fatalf("%s: one call published %d frames", sh.label, len(fresh))
	}
	var frame []byte
	if len(fresh) == 1 {
		frame = fresh[0]
	}
	if err := sh.oracle.Check(prev, events, frame); err != nil {
		sh.t.Fatalf("%s: v%d: %v", sh.label, sh.Snapshot().Version, err)
	}
	if err := sh.oracle.CheckSubsets(prev, events, frame); err != nil {
		sh.t.Fatalf("%s: %v", sh.label, err)
	}
	sh.checkSkipped(prev, events)
	sh.sums[sh.Snapshot().Version] = sh.Checksum()
	return frame
}

func (sh *shadowed) ApplyBatch(ctx context.Context, events []serve.ArcEvent) (int, int, error) {
	sh.t.Helper()
	applied, recomputed, _, err := sh.applyChecked(ctx, events)
	return applied, recomputed, err
}

// applyChecked is Server.ApplyBatch plus the oracle check; it also
// returns the frame the batch published (nil when it swapped nothing).
func (sh *shadowed) applyChecked(ctx context.Context, events []serve.ArcEvent) (applied, recomputed int, frame []byte, err error) {
	sh.t.Helper()
	prev := sh.Snapshot()
	applied, recomputed, err = sh.Server.ApplyBatch(ctx, events)
	if err == nil {
		frame = sh.check(prev, events)
	}
	return applied, recomputed, frame, err
}

func (sh *shadowed) Rebuild(ctx context.Context) error {
	sh.t.Helper()
	prev := sh.Snapshot()
	err := sh.Server.Rebuild(ctx)
	if err == nil {
		sh.check(prev, nil)
	}
	return err
}

// toggle applies one arc event and returns the decoded delta record it
// published.
func (sh *shadowed) toggle(arc int, fail bool) *replica.Delta {
	sh.t.Helper()
	_, _, frame, err := sh.applyChecked(context.Background(), []serve.ArcEvent{{Arc: arc, Fail: fail}})
	if err != nil {
		sh.t.Fatalf("%s: arc %d fail=%v: %v", sh.label, arc, fail, err)
	}
	if frame == nil {
		sh.t.Fatalf("%s: arc %d fail=%v published nothing", sh.label, arc, fail)
	}
	rec, err := replica.DecodeRecord(frame)
	if err != nil || rec.Kind != replica.KindDelta {
		sh.t.Fatalf("%s: arc %d fail=%v: decode: %v (kind %d)", sh.label, arc, fail, err, rec.Kind)
	}
	return rec.Delta
}

// replayOnFollower applies every frame published so far to a fresh
// follower, which must report the leader's checksum at each version.
func (sh *shadowed) replayOnFollower() {
	sh.t.Helper()
	fol := serve.NewFollower(nil)
	for i, frame := range sh.sink.since(0) {
		rec, err := replica.DecodeRecord(frame)
		if err != nil {
			sh.t.Fatalf("%s: frame %d: %v", sh.label, i, err)
		}
		if err := fol.Apply(rec); err != nil {
			sh.t.Fatalf("%s: frame %d (v%d): %v", sh.label, i, rec.Version(), err)
		}
		if got, want := fol.Checksum(), sh.sums[fol.Version()]; got != want {
			sh.t.Fatalf("%s: follower at v%d has checksum %08x, leader had %08x", sh.label, fol.Version(), got, want)
		}
	}
	if fol.Version() != sh.Snapshot().Version {
		sh.t.Fatalf("%s: follower ended at v%d, leader at v%d", sh.label, fol.Version(), sh.Snapshot().Version)
	}
}

// flapsOf counts the slot changes a delta record carries as diffs.
func flapsOf(d *replica.Delta) int {
	n := 0
	for _, diff := range d.Diffs {
		n += len(diff.Changes)
	}
	return n
}

func mustArc(t *testing.T, g *graph.Graph, from, to int) int {
	t.Helper()
	for _, ai := range g.Out(from) {
		if g.Arcs[ai].To == to {
			return int(ai)
		}
	}
	t.Fatalf("arc %d→%d not found", from, to)
	return -1
}

// backends runs f on every execution backend.
func backends(t *testing.T, ot *ost.OrderTransform, f func(t *testing.T, label string, eng exec.Algebra)) {
	for backend, eng := range engineBackends(t, ot) {
		t.Run(backend, func(t *testing.T) { f(t, backend, eng) })
	}
}

// TestPublishFanCases drives the fan topology (dest 0; a relay with a
// direct arc and a three-hop detour; 146 leaves behind the relay; three
// pages, the last partial) through the swaps that decide how a column
// ships: a one-slot delta, the frontier-cutover scratch fallback and a
// one-node-frontier delta that both change more than half the column
// (Scratch record, exact flap count), and the way back.
func TestPublishFanCases(t *testing.T) {
	a, err := core.InferString("delay(16,3)")
	if err != nil {
		t.Fatal(err)
	}
	const n = 150
	arcs := []graph.Arc{{From: 1, To: 0}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 0}}
	for u := 4; u < n; u++ {
		arcs = append(arcs, graph.Arc{From: u, To: 1})
	}
	g := graph.MustNew(n, arcs)
	origin := a.OT.Carrier().Elems[0]
	backends(t, a.OT, func(t *testing.T, label string, eng exec.Algebra) {
		sh := newShadowed(t, label, eng, g, map[int]value.V{0: origin, 2: origin},
			serve.WithWorkers(2), serve.WithDeltaProps(a.Props))
		defer sh.Close()
		if !sh.Stats().DeltaEnabled {
			t.Fatal("delay must license the delta path")
		}
		leaf, direct := mustArc(t, g, 100, 1), mustArc(t, g, 1, 0)

		// One leaf loses its only arc: both destinations reached through
		// the relay rebuild on the delta path and ship one unrouted slot.
		d := sh.toggle(leaf, true)
		if len(d.Scratch) != 0 || len(d.Diffs) != 2 || flapsOf(d) != 2 || d.Diffs[0].Changes[0].Node != 100 {
			t.Fatalf("leaf failure shipped %d scratch columns and diffs %+v", len(d.Scratch), d.Diffs)
		}
		if st := sh.Stats(); st.DeltaDestRebuilds != 2 {
			t.Fatalf("leaf failure: %d delta rebuilds, want 2", st.DeltaDestRebuilds)
		}

		// The relay's direct arc fails: its whole subtree is the frontier,
		// the solver cuts over to a scratch sweep, and n-4 slots move — the
		// column ships whole. Destination 2 is not behind that arc.
		scratch0 := sh.Stats().ScratchDestRebuilds
		d = sh.toggle(direct, true)
		if len(d.Scratch) != 1 || d.Scratch[0].Dest != 0 || len(d.Diffs) != 0 {
			t.Fatalf("direct failure shipped %d scratch columns and %d diffs, want 1 and 0", len(d.Scratch), len(d.Diffs))
		}
		if st := sh.Stats(); st.ScratchDestRebuilds != scratch0+1 {
			t.Fatalf("direct failure: %d scratch rebuilds, want the frontier cutover's one", st.ScratchDestRebuilds-scratch0)
		}

		// Restoring it seeds a one-node frontier that re-weights every
		// leaf: the delta path runs, and the column still ships whole.
		delta0 := sh.Stats().DeltaDestRebuilds
		d = sh.toggle(direct, false)
		if len(d.Scratch) != 1 || len(d.Diffs) != 0 {
			t.Fatalf("direct restore shipped %d scratch columns and %d diffs, want 1 and 0", len(d.Scratch), len(d.Diffs))
		}
		if st := sh.Stats(); st.DeltaDestRebuilds != delta0+1 {
			t.Fatalf("direct restore: %d delta rebuilds, want 1", st.DeltaDestRebuilds-delta0)
		}

		d = sh.toggle(leaf, false)
		if len(d.Scratch) != 0 || flapsOf(d) != 2 {
			t.Fatalf("leaf restore shipped %d scratch columns and diffs %+v", len(d.Scratch), d.Diffs)
		}
		sh.replayOnFollower()
	})
}

// TestPublishECMPOnlyChange: node 64 of a 70-node column (the partial
// last page) reaches the destination through two equal-cost hubs.
// Failing its arc to the non-primary hub moves no weight and no primary
// next hop — the solver touches nothing — and the swap must still ship
// exactly that one slot with its shrunken next-hop set.
func TestPublishECMPOnlyChange(t *testing.T) {
	a, err := core.InferString("delay(8,2)")
	if err != nil {
		t.Fatal(err)
	}
	arcs := []graph.Arc{{From: 1, To: 0}, {From: 2, To: 0}}
	for u := 3; u < 70; u++ {
		arcs = append(arcs, graph.Arc{From: u, To: 1}, graph.Arc{From: u, To: 2})
	}
	g := graph.MustNew(70, arcs)
	backends(t, a.OT, func(t *testing.T, label string, eng exec.Algebra) {
		sh := newShadowed(t, label, eng, g, map[int]value.V{0: a.OT.Carrier().Elems[0]},
			serve.WithDeltaProps(a.Props))
		defer sh.Close()
		d := sh.toggle(mustArc(t, g, 64, 2), true)
		if len(d.Scratch) != 0 || len(d.Diffs) != 1 || len(d.Diffs[0].Changes) != 1 {
			t.Fatalf("shipped %d scratch columns and diffs %+v, want one slot", len(d.Scratch), d.Diffs)
		}
		ch := d.Diffs[0].Changes[0]
		if ch.Node != 64 || !ch.Routed || len(ch.NextHop) != 1 || ch.NextHop[0] != 1 {
			t.Fatalf("shipped %+v, want node 64 left with hub 1 alone", ch)
		}
		if st := sh.Stats(); st.DeltaDestRebuilds != 1 || st.DeltaTouchedNodes != 0 {
			t.Fatalf("want one delta rebuild that touched nothing, got %d touching %d", st.DeltaDestRebuilds, st.DeltaTouchedNodes)
		}
		sh.replayOnFollower()
	})
}

// TestPublishUnconvergedColumns runs BAD GADGET — licensed for the delta
// path by a property set that lies, so every branch of the rebuild is
// reachable — through every single-arc failure and restoration. The
// destination's column flips between unconverged and converged on each
// swap: a failure finds the previous column unconverged and rebuilds it
// with BuildDestPaged (diffed in the worker), a restoration warm-starts
// and falls back. Either way the frame is the oracle's and a follower
// tracks the Unconverged list.
func TestPublishUnconvergedColumns(t *testing.T) {
	ot := baselib.SPPGadget()
	g, _ := graph.BadGadgetArcs()
	licence := prop.Make()
	licence.Declare(prop.MLeft)
	backends(t, ot, func(t *testing.T, label string, eng exec.Algebra) {
		sh := newShadowed(t, label, eng, g, map[int]value.V{0: 0}, serve.WithDeltaProps(licence))
		defer sh.Close()
		if !sh.Stats().DeltaEnabled || len(sh.Snapshot().Unconverged) != 1 {
			t.Fatalf("fixture lost its teeth: delta enabled %v, unconverged %v", sh.Stats().DeltaEnabled, sh.Snapshot().Unconverged)
		}
		flips := 0
		for ai := range g.Arcs {
			for _, fail := range []bool{true, false} {
				was := len(sh.Snapshot().Unconverged)
				d := sh.toggle(ai, fail)
				if len(d.Unconverged) != was {
					flips++
				}
			}
		}
		if flips != 2*len(g.Arcs) {
			t.Fatalf("convergence flipped on %d of %d swaps", flips, 2*len(g.Arcs))
		}
		sh.replayOnFollower()
	})
}

// TestPublishConvergedFlipOnly: a column whose slots all stay put while
// its Converged flag flips still ships — as a diff with no changes.
func TestPublishConvergedFlipOnly(t *testing.T) {
	srv := batchFixture(t, serve.WithReplication(&captureSink{}))
	got, want, err := serve.NewSwapOracle(srv).EncodeConvergedFlip(15)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("frame differs from the scan-based encoder's")
	}
	rec, err := replica.DecodeRecord(got)
	if err != nil {
		t.Fatal(err)
	}
	d := rec.Delta
	if len(d.Scratch) != 0 || len(d.Diffs) != 1 || d.Diffs[0].Dest != 15 || d.Diffs[0].Converged || len(d.Diffs[0].Changes) != 0 {
		t.Fatalf("shipped %d scratch columns and diffs %+v, want one empty unconverged diff for 15", len(d.Scratch), d.Diffs)
	}
}

// TestArcByEndpoints pins the endpoint form of an event to the arc the
// full scan used to pick: the lowest-indexed of parallel arcs, and one
// error text for every way of naming no arc.
func TestArcByEndpoints(t *testing.T) {
	a, err := core.InferString("delay(8,2)")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.MustNew(4, []graph.Arc{{From: 1, To: 0}, {From: 2, To: 1}, {From: 2, To: 1, Label: 1}, {From: 3, To: 2}, {From: 2, To: 0}})
	srv, err := serve.NewServer(serve.Config{Engine: exec.For(a.OT), Graph: g, Origins: map[int]value.V{0: 0}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, tc := range []struct {
		from, to int
		arc      int // -1: no such arc
	}{
		{1, 0, 0},
		{2, 1, 1}, // parallel arcs 1 and 2: the lower index answers
		{2, 0, 4},
		{3, 2, 3},
		{0, 1, -1}, // reverse direction
		{3, 0, -1},
		{-1, 0, -1},
		{4, 0, -1},
		{1, 4, -1},
		{1, -1, -1},
	} {
		applied, _, err := srv.ApplyEventEndpoints(context.Background(), tc.from, tc.to, true)
		if tc.arc < 0 {
			if want := fmt.Sprintf("serve: no arc %d → %d", tc.from, tc.to); err == nil || err.Error() != want {
				t.Fatalf("%d→%d: err = %v, want %q", tc.from, tc.to, err, want)
			}
			continue
		}
		if err != nil || !applied {
			t.Fatalf("%d→%d: applied=%v err=%v", tc.from, tc.to, applied, err)
		}
		for ai, down := range srv.Snapshot().Disabled {
			if down != (ai == tc.arc) {
				t.Fatalf("%d→%d: arc %d disabled=%v, want only arc %d down", tc.from, tc.to, ai, down, tc.arc)
			}
		}
		if _, _, err := srv.ApplyEventEndpoints(context.Background(), tc.from, tc.to, false); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPublishAllocsScaleWithChanges is the publish path's complexity
// guard. On a 16k-node, four-destination column set with the sink and
// the registry on, a single-toggle ApplyBatch may allocate its failure
// mask's O(toggles) share — the directory's top slice, one directory
// page and one chunk per toggle — plus an amount linear in the pages
// whose routes changed — page tables, changed pages, the change list, the
// frame — and nothing sized by the arc count, by the changed pages' slot
// count or by a copy of each changed next-hop set. The model is replica's
// TestApplyDeltaAllocs.
func TestPublishAllocsScaleWithChanges(t *testing.T) {
	a, err := core.InferString("lex(delay(32,3), hops(8))")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := exec.Compile(a.OT)
	if err != nil {
		t.Fatal(err)
	}
	// The benchmark's sparse shape at a sixth of its size: a scale-free
	// graph whose single-arc frontiers are a few nodes wide, so each swap
	// changes a handful of its columns' 256 pages.
	const n = 16384
	r := rand.New(rand.NewSource(16))
	g := graph.ScaleFree(r, n, 2, graph.UniformLabels(a.OT.F.Size()))
	arcs := g.Arcs
	origin := a.OT.Carrier().Elems[0]
	dests := map[int]value.V{0: origin, n / 3: origin, 2 * n / 3: origin, n - 1: origin}
	srv, err := serve.NewServer(serve.Config{Engine: eng, Graph: g, Origins: dests},
		serve.WithWorkers(1), serve.WithDeltaProps(a.Props),
		serve.WithReplication(&captureSink{discard: true}), serve.WithRegistry(telemetry.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const rounds = 40
	storm := make([]int, rounds)
	for i := range storm {
		storm[i] = (i*7919 + 13) % len(arcs)
	}
	run := func() {
		for _, ai := range storm {
			for _, fail := range []bool{true, false} {
				if _, _, err := srv.ApplyBatch(context.Background(), []serve.ArcEvent{{Arc: ai, Fail: fail}}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	run() // warm the workspaces and the names table
	var before, after runtime.MemStats
	st0 := srv.Stats()
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	total := after.TotalAlloc - before.TotalAlloc
	st1 := srv.Stats()
	swaps := st1.SnapshotSwaps - st0.SnapshotSwaps
	changed := st1.PagesCloned - st0.PagesCloned
	rebuilds := st1.DestRecomputes - st0.DestRecomputes
	if swaps != 2*rounds || st1.ScratchDestRebuilds != st0.ScratchDestRebuilds || changed == 0 {
		t.Fatalf("storm ran %d swaps, %d scratch rebuilds, %d changed pages: the fixture must stay on the delta path",
			swaps, st1.ScratchDestRebuilds-st0.ScratchDestRebuilds, changed)
	}
	// Per swap: fixed bookkeeping (snapshot, column map, view overlay,
	// toggles, frame) and the mask's top slice, 8 B per 65 536 arcs. Per
	// toggle, one per swap here: the mask's cloned directory page (128 B)
	// and chunk (512 B). Per rebuilt column: its header and page-table
	// copy. Per changed page: the page, its pool, its share of the change
	// list and of the frame. A 64-int expansion per changed page is a
	// third on top of the last term, and a copy of the mask per swap —
	// even as a bitset, 8 KB at this size — breaks the budget.
	pages := uint64((n + rib.PageSize - 1) / rib.PageSize)
	maskTop := 8 * uint64((len(arcs)+1<<16-1)>>16)
	budget := swaps*(6144+maskTop+128+512) + rebuilds*(8*pages+256) + changed*1472
	if total > budget {
		t.Fatalf("%d swaps (%d rebuilds, %d changed pages) allocated %d B, budget %d B",
			swaps, rebuilds, changed, total, budget)
	}
	t.Logf("%d swaps, %d rebuilds, %d changed pages: %d B, budget %d B", swaps, rebuilds, changed, total, budget)
}
