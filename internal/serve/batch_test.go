package serve_test

// Tests for the batched parallel rebuild pipeline: coalescing semantics,
// the batched-vs-serial differential across both engine backends, the
// intake queue's backpressure policies, rebuild cancellation, replay
// ordering, and a concurrent ApplyEvent+Lookup stress run. CI runs this
// file under -race.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/ost"
	"metarouting/internal/protocol"
	"metarouting/internal/rib"
	"metarouting/internal/serve"
	"metarouting/internal/value"
)

// TestCoalesce is the coalescing unit table: last event per arc wins,
// cancels and duplicates drop out, output is sorted by arc.
func TestCoalesce(t *testing.T) {
	down := serve.ArcEvent{Arc: 0, Fail: true}
	up := serve.ArcEvent{Arc: 0, Fail: false}
	for _, tc := range []struct {
		name     string
		events   []serve.ArcEvent
		disabled []bool
		want     []serve.ArcEvent
		wantErr  bool
	}{
		{name: "empty", events: nil, disabled: []bool{false}, want: nil},
		{name: "single down", events: []serve.ArcEvent{down}, disabled: []bool{false},
			want: []serve.ArcEvent{down}},
		{name: "down then up cancels", events: []serve.ArcEvent{down, up}, disabled: []bool{false},
			want: nil},
		{name: "up then down is a down", events: []serve.ArcEvent{up, down}, disabled: []bool{false},
			want: []serve.ArcEvent{down}},
		{name: "duplicate downs dedupe", events: []serve.ArcEvent{down, down, down}, disabled: []bool{false},
			want: []serve.ArcEvent{down}},
		{name: "down of already-failed arc is a no-op", events: []serve.ArcEvent{down}, disabled: []bool{true},
			want: nil},
		{name: "up of a failed arc toggles", events: []serve.ArcEvent{up}, disabled: []bool{true},
			want: []serve.ArcEvent{up}},
		{name: "interleaved arcs keep their own last state",
			events: []serve.ArcEvent{
				{Arc: 2, Fail: true}, {Arc: 0, Fail: true}, {Arc: 2, Fail: false},
				{Arc: 1, Fail: true}, {Arc: 0, Fail: false}, {Arc: 1, Fail: true},
			},
			disabled: []bool{false, false, false},
			want:     []serve.ArcEvent{{Arc: 1, Fail: true}}},
		{name: "output sorted by arc",
			events:   []serve.ArcEvent{{Arc: 3, Fail: true}, {Arc: 1, Fail: true}, {Arc: 2, Fail: true}},
			disabled: []bool{false, false, false, false},
			want:     []serve.ArcEvent{{Arc: 1, Fail: true}, {Arc: 2, Fail: true}, {Arc: 3, Fail: true}}},
		{name: "out of range arc", events: []serve.ArcEvent{{Arc: 5, Fail: true}}, disabled: []bool{false},
			wantErr: true},
		{name: "negative arc", events: []serve.ArcEvent{{Arc: -1, Fail: true}}, disabled: []bool{false},
			wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := serve.Coalesce(tc.events, tc.disabled)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("want error, got %v", got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) == 0 && len(tc.want) == 0 {
				return
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
		})
	}
}

// engineBackends returns the execution backends of the acceptance
// criterion for an algebra: the dynamic interpreter, the tiered engine
// (which the servers' pools share without a mutex wrapper) and — when
// the carrier compiles — the tabled compiled engine.
func engineBackends(t *testing.T, ot *ost.OrderTransform) map[string]exec.Algebra {
	t.Helper()
	backends := map[string]exec.Algebra{"dynamic": exec.NewDynamic(ot), "tiered": exec.NewTiered(ot)}
	if compiled, err := exec.Compile(ot); err == nil {
		backends["compiled"] = compiled
	}
	return backends
}

// TestServeDifferentialBatched is the tentpole acceptance test for the
// batched pipeline: random finite algebras × GNP/ring/grid topologies,
// run on every engine backend. A serial single-worker server applies
// each storm one event at a time; a multi-worker server absorbs the same
// storm as one ApplyBatch. After every storm the two snapshots must be
// bit-identical to each other and to a fresh from-scratch build on the
// mutated graph. CI runs this under -race.
func TestServeDifferentialBatched(t *testing.T) {
	r := rand.New(rand.NewSource(1729))
	trials := 0
	for trials < 12 {
		src := randExpr(r, 2)
		a, err := core.InferString(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if !a.OT.Finite() || a.OT.Carrier().Size() > 4000 {
			continue
		}
		trials++
		g := randTopo(r, a.OT.F.Size())
		elems := a.OT.Carrier().Elems
		origins := map[int]value.V{0: randOrigin(r, elems)}
		for len(origins) < 2+r.Intn(3) {
			origins[r.Intn(g.N)] = randOrigin(r, elems)
		}
		for name, eng := range engineBackends(t, a.OT) {
			label := fmt.Sprintf("trial %d: %s on %s (%s)", trials, src, g, name)
			serial, err := serve.New(eng, g, origins, serve.WithWorkers(1))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			// Shadowed: each storm's one swap is held against the
			// scan-based publish oracle.
			batched := newShadowed(t, label, eng, g, origins, serve.WithWorkers(4))
			disabled := make([]bool, len(g.Arcs))
			for storm := 0; storm < 4; storm++ {
				// A storm holds repeats and cancels so coalescing has real
				// work; track the net effect for the reference build.
				events := make([]serve.ArcEvent, 3+r.Intn(6))
				for i := range events {
					events[i] = serve.ArcEvent{Arc: r.Intn(len(g.Arcs)), Fail: r.Intn(2) == 0}
				}
				for _, ev := range events {
					if _, _, err := serial.ApplyEvent(context.Background(), ev.Arc, ev.Fail); err != nil {
						t.Fatalf("%s storm %d: serial: %v", label, storm, err)
					}
					disabled[ev.Arc] = ev.Fail
				}
				if _, _, err := batched.ApplyBatch(context.Background(), events); err != nil {
					t.Fatalf("%s storm %d: batched: %v", label, storm, err)
				}
				// Serial vs batched: identical tables.
				sGot, bGot := serial.Snapshot(), batched.Snapshot()
				if !reflect.DeepEqual(sGot.Disabled, bGot.Disabled) {
					t.Fatalf("%s storm %d: disabled state diverged:\n serial:  %v\n batched: %v",
						label, storm, sGot.Disabled, bGot.Disabled)
				}
				for _, d := range serial.Dests() {
					for u := 0; u < g.N; u++ {
						if se, be := sGot.Lookup(u, d), bGot.Lookup(u, d); !reflect.DeepEqual(se, be) {
							t.Fatalf("%s storm %d: entry (%d→%d) diverged:\n serial:  %+v\n batched: %+v",
								label, storm, u, d, se, be)
						}
					}
				}
				// Both vs a fresh from-scratch build on the mutated graph.
				fresh, err := rib.BuildEngine(exec.NewDynamic(a.OT), enabledSubgraph(t, g, disabled), origins)
				if err != nil {
					t.Fatalf("%s storm %d: fresh build: %v", label, storm, err)
				}
				sameTables(t, fmt.Sprintf("%s storm %d", label, storm), bGot, fresh, batched.Dests(), g.N)
			}
			serial.Close()
			batched.Close()
		}
	}
}

// batchFixture boots a deterministic multi-destination server with the
// given extra options; the batcher is left out so tests drive the queue
// by hand.
func batchFixture(t testing.TB, opts ...serve.Option) *serve.Server {
	t.Helper()
	a, err := core.InferString("lex(delay(16,3), hops(8))")
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(23))
	g := graph.Grid(r, 4, 4, graph.UniformLabels(a.OT.F.Size()))
	origins := map[int]value.V{0: value.Pair{A: 0, B: 0}, 15: value.Pair{A: 3, B: 2}}
	srv, err := serve.New(exec.For(a.OT), g, origins, append([]serve.Option{serve.WithWorkers(2)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// TestServeBackpressureReject: with the reject policy a full intake
// queue surfaces ErrBacklogged and counts the rejection; queued events
// still apply on the next drain.
func TestServeBackpressureReject(t *testing.T) {
	srv := batchFixture(t, serve.WithoutBatcher(), serve.WithQueueCapacity(2))
	if err := srv.EnqueueEvent(serve.ArcEvent{Arc: 0, Fail: true}); err != nil {
		t.Fatal(err)
	}
	if err := srv.EnqueueEvent(serve.ArcEvent{Arc: 1, Fail: true}); err != nil {
		t.Fatal(err)
	}
	if err := srv.EnqueueEvent(serve.ArcEvent{Arc: 2, Fail: true}); !errors.Is(err, serve.ErrBacklogged) {
		t.Fatalf("full queue must reject: got %v", err)
	}
	if err := srv.EnqueueEvent(serve.ArcEvent{Arc: -1, Fail: true}); err == nil || errors.Is(err, serve.ErrBacklogged) {
		t.Fatalf("out-of-range arc must fail validation, not backpressure: %v", err)
	}
	st := srv.Stats()
	if st.EventsRejected != 1 || st.QueueDepth != 2 || st.QueueCapacity != 2 || st.Backpressure != "reject" {
		t.Fatalf("stats wrong: %+v", st)
	}
	if err := srv.DrainForTest(); err != nil {
		t.Fatal(err)
	}
	st = srv.Stats()
	if st.QueueDepth != 0 || st.BatchesApplied != 1 || st.EventsApplied != 2 || st.DisabledArcs != 2 {
		t.Fatalf("post-drain stats wrong: %+v", st)
	}
	if d := srv.Snapshot().Disabled; !d[0] || !d[1] || d[2] {
		t.Fatalf("drain applied the wrong arcs: %v", d)
	}
}

// TestServeBackpressureStale: the stale policy absorbs overflow into the
// pending coalesced state — nothing lost, newest per-arc state wins, the
// snapshot lags until the next drain.
func TestServeBackpressureStale(t *testing.T) {
	srv := batchFixture(t, serve.WithoutBatcher(), serve.WithQueueCapacity(1),
		serve.WithBackpressure(serve.BackpressureStale))
	version := srv.Snapshot().Version
	// Queue takes one; the rest overflow into pending, where arc 1's later
	// up overwrites its down.
	for _, ev := range []serve.ArcEvent{
		{Arc: 0, Fail: true}, {Arc: 1, Fail: true}, {Arc: 2, Fail: true}, {Arc: 1, Fail: false},
	} {
		if err := srv.EnqueueEvent(ev); err != nil {
			t.Fatalf("stale policy must absorb %+v: %v", ev, err)
		}
	}
	st := srv.Stats()
	if st.EventsRejected != 0 || st.QueueDepth != 3 { // 1 queued + 2 pending arcs (arc 1 coalesced in place)
		t.Fatalf("pre-drain stats wrong: %+v", st)
	}
	if srv.Snapshot().Version != version {
		t.Fatal("snapshot must lag until the drain")
	}
	if err := srv.DrainForTest(); err != nil {
		t.Fatal(err)
	}
	if d := srv.Snapshot().Disabled; !d[0] || d[1] || !d[2] {
		t.Fatalf("drain must apply newest per-arc state: %v", d)
	}
	if st := srv.Stats(); st.QueueDepth != 0 || st.EventsApplied != 2 {
		t.Fatalf("post-drain stats wrong: %+v", st)
	}
}

// TestServeBatcherLive: the background batcher drains EnqueueEvent
// without manual help.
func TestServeBatcherLive(t *testing.T) {
	srv := batchFixture(t) // batcher on
	if err := srv.EnqueueEvent(serve.ArcEvent{Arc: 3, Fail: true}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().BatchesApplied == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("batcher never applied the event: %+v", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if d := srv.Snapshot().Disabled; !d[3] {
		t.Fatalf("batcher applied the wrong state: %v", d)
	}
}

// TestServeCanceledRebuild: a canceled or expired context abandons the
// recompute — error out, previous snapshot and failure state intact —
// and the server keeps working afterwards.
func TestServeCanceledRebuild(t *testing.T) {
	srv := batchFixture(t, serve.WithoutBatcher())
	before := srv.Snapshot()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := srv.ApplyEvent(canceled, 0, true); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ApplyEvent: got %v", err)
	}
	if err := srv.Rebuild(canceled); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Rebuild: got %v", err)
	}
	expired, cancel2 := context.WithTimeout(context.Background(), -time.Second)
	defer cancel2()
	if _, _, err := srv.ApplyBatch(expired, []serve.ArcEvent{{Arc: 1, Fail: true}}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired ApplyBatch: got %v", err)
	}
	after := srv.Snapshot()
	if after != before {
		t.Fatalf("abandoned rebuilds must keep the previous snapshot: version %d → %d", before.Version, after.Version)
	}
	for i, d := range after.Disabled {
		if d {
			t.Fatalf("abandoned rebuild leaked failure state: arc %d disabled", i)
		}
	}
	// The failure state reverted, so the same event still applies cleanly.
	applied, _, err := srv.ApplyEvent(context.Background(), 0, true)
	if err != nil || !applied {
		t.Fatalf("post-cancel ApplyEvent: applied=%v err=%v", applied, err)
	}
	if sn := srv.Snapshot(); sn.Version != before.Version+1 || !sn.Disabled[0] {
		t.Fatalf("post-cancel snapshot wrong: %+v", sn)
	}
}

// TestServeReplayUnsorted: Replay must not depend on input order —
// events arriving unsorted by timestamp produce the same final state as
// the sorted sequence (regression for the firing-order contract).
func TestServeReplayUnsorted(t *testing.T) {
	// Arc 0 fails at t=50 and recovers at t=200; arc 2 fails at t=300.
	// Presented in scrambled order, the timestamps must still decide.
	events := []protocol.LinkEvent{
		{At: 300, Arc: 2, Fail: true},
		{At: 50, Arc: 0, Fail: true},
		{At: 200, Arc: 0, Fail: false},
	}
	sorted := batchFixture(t, serve.WithoutBatcher())
	shuffled := batchFixture(t, serve.WithoutBatcher())
	if _, err := sorted.Replay(context.Background(), []protocol.LinkEvent{events[1], events[2], events[0]}); err != nil {
		t.Fatal(err)
	}
	applied, err := shuffled.Replay(context.Background(), events)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 3 {
		t.Fatalf("want 3 applied events, got %d", applied)
	}
	sGot, uGot := sorted.Snapshot(), shuffled.Snapshot()
	if !reflect.DeepEqual(sGot.Disabled, uGot.Disabled) {
		t.Fatalf("unsorted replay diverged: %v vs %v", sGot.Disabled, uGot.Disabled)
	}
	if d := uGot.Disabled; d[0] || !d[2] {
		t.Fatalf("timestamps must decide: arc 0 recovered, arc 2 failed: %v", d)
	}
	for _, d := range shuffled.Dests() {
		for u := 0; u < 16; u++ {
			if se, ue := sGot.Lookup(u, d), uGot.Lookup(u, d); !reflect.DeepEqual(se, ue) {
				t.Fatalf("entry (%d→%d) diverged after unsorted replay", u, d)
			}
		}
	}
}

// TestServeConcurrentApplyStress: 16 goroutines race ApplyEvent,
// ApplyBatch and queries; afterwards the snapshot must be bit-identical
// to a fresh build on whatever final state the race settled on. Run
// under -race in CI.
func TestServeConcurrentApplyStress(t *testing.T) {
	a, err := core.InferString("lex(delay(16,3), hops(8))")
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(99))
	g := graph.Grid(r, 4, 4, graph.UniformLabels(a.OT.F.Size()))
	origins := map[int]value.V{0: value.Pair{A: 0, B: 0}, 15: value.Pair{A: 3, B: 2}}
	srv, err := serve.New(exec.For(a.OT), g, origins, serve.WithWorkers(4), serve.WithoutBatcher())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			for step := 0; step < 30; step++ {
				switch rr.Intn(4) {
				case 0:
					if _, _, err := srv.ApplyEvent(context.Background(), rr.Intn(len(g.Arcs)), rr.Intn(2) == 0); err != nil {
						t.Errorf("ApplyEvent: %v", err)
						return
					}
				case 1:
					batch := []serve.ArcEvent{
						{Arc: rr.Intn(len(g.Arcs)), Fail: rr.Intn(2) == 0},
						{Arc: rr.Intn(len(g.Arcs)), Fail: rr.Intn(2) == 0},
					}
					if _, _, err := srv.ApplyBatch(context.Background(), batch); err != nil {
						t.Errorf("ApplyBatch: %v", err)
						return
					}
				case 2:
					srv.Lookup(rr.Intn(g.N), srv.Dests()[rr.Intn(2)])
					srv.Forward(rr.Intn(g.N), srv.Dests()[rr.Intn(2)]) //nolint:errcheck
				default:
					srv.Stats()
					srv.Snapshot().ECMPWidth(rr.Intn(g.N), 0)
				}
			}
		}(int64(i))
	}
	wg.Wait()

	final := srv.Snapshot()
	disabled := append([]bool(nil), final.Disabled...)
	fresh, err := rib.BuildEngine(exec.NewDynamic(a.OT), enabledSubgraph(t, g, disabled), origins)
	if err != nil {
		t.Fatal(err)
	}
	sameTables(t, "post-stress", final, fresh, srv.Dests(), g.N)
}
