package serve_test

// Tests for the leader's full-record path: one exactly-sized frame
// written straight from the snapshot's pages, encoded outside the
// writer lock against a names table pinned under it.

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/replica"
	"metarouting/internal/serve"
	"metarouting/internal/value"
)

// TestEncodeFullAllocs: a full record costs its frame. On a 16k-node,
// four-destination leader, EncodeFull may allocate the frame plus small
// change (the record header, the column list, the announcements) — not a
// flat copy of every column, not a buffer grown by doubling, not a
// second copy of the body.
func TestEncodeFullAllocs(t *testing.T) {
	a, err := core.InferString("lex(delay(32,3), hops(8))")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := exec.Compile(a.OT)
	if err != nil {
		t.Fatal(err)
	}
	const n = 16384
	g := graph.ScaleFree(rand.New(rand.NewSource(16)), n, 2, graph.UniformLabels(a.OT.F.Size()))
	origin := a.OT.Carrier().Elems[0]
	dests := map[int]value.V{0: origin, n / 3: origin, 2 * n / 3: origin, n - 1: origin}
	srv, err := serve.NewServer(serve.Config{Engine: eng, Graph: g, Origins: dests}, serve.WithWorkers(1), serve.WithReplication(&captureSink{discard: true}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, frame, err := srv.EncodeFull()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(frame))+16<<10; got > limit {
		t.Fatalf("EncodeFull allocated %d B for a %d B frame, want ≤ %d", got, len(frame), limit)
	}
	if cap(frame) != len(frame) {
		t.Fatalf("frame of %d B sits in a %d B buffer", len(frame), cap(frame))
	}
}

// TestEncodeFullConcurrentWithSwaps runs 200 swaps beside a goroutine
// looping EncodeFull (under -race in CI). The interning engine keeps
// minting weight indices through the storm, so the names table grows
// while fulls pin prefixes of it. Every frame must decode and bootstrap
// a follower to the checksum the leader had at that version with a name
// for every weight it references, and the record stream's deltas from that version on must apply on top — which
// they only do if the pinned names reach at least each delta's NameBase.
func TestEncodeFullConcurrentWithSwaps(t *testing.T) {
	a, err := core.InferString("lex(delay(16,3), hops(8))")
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(20261001))
	g := graph.Random(r, 48, 0.12, graph.UniformLabels(a.OT.F.Size()))
	origin := a.OT.Carrier().Elems[0]
	sink := &captureSink{}
	srv, err := serve.NewServer(serve.Config{Engine: exec.NewDynamic(a.OT), Graph: g, Origins: map[int]value.V{0: origin, 17: origin, 40: origin}},
		serve.WithWorkers(2), serve.WithReplication(sink))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	names0 := len(mustFull(t, srv).Names)
	fulls := map[uint64][]byte{} // one EncodeFull frame per version seen
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var encErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			v, frame, err := srv.EncodeFull()
			if err != nil {
				encErr = err
				return
			}
			fulls[v] = frame
		}
	}()

	const swaps = 200
	sums := map[uint64]uint32{1: srv.Checksum()}
	for v := uint64(1); v <= swaps; {
		batch := make([]serve.ArcEvent, 1+r.Intn(3))
		for i := range batch {
			batch[i] = serve.ArcEvent{Arc: r.Intn(len(g.Arcs)), Fail: r.Intn(2) == 0}
		}
		if _, _, err := srv.ApplyBatch(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		if now := srv.Snapshot().Version; now != v { // the batch may have coalesced to nothing
			v = now
			sums[v] = srv.Checksum()
		}
	}
	close(stop)
	wg.Wait()
	if encErr != nil {
		t.Fatal(encErr)
	}

	stream := sink.take() // stream[i] produces version i+1
	last := uint64(len(stream))
	if len(fulls) < 2 {
		t.Fatalf("EncodeFull caught %d versions of %d", len(fulls), last)
	}
	for v, frame := range fulls {
		rec, err := replica.DecodeRecord(frame)
		if err != nil || rec.Kind != replica.KindFull || rec.Version() != v {
			t.Fatalf("full at v%d: decode: %v", v, err)
		}
		for _, c := range rec.Full.Columns {
			if need := c.MaxWeight(-1) + 1; need > len(rec.Full.Names) {
				t.Fatalf("full at v%d pinned %d names, destination %d references index %d", v, len(rec.Full.Names), c.Dest, need-1)
			}
		}
		fol := serve.NewFollower(nil)
		if err := fol.Apply(rec); err != nil {
			t.Fatalf("full at v%d: %v", v, err)
		}
		if got := fol.Checksum(); got != sums[v] {
			t.Fatalf("full at v%d bootstraps to checksum %08x, leader had %08x", v, got, sums[v])
		}
		for _, next := range stream[v:] {
			rec, err := replica.DecodeRecord(next)
			if err != nil {
				t.Fatal(err)
			}
			if err := fol.Apply(rec); err != nil {
				t.Fatalf("delta v%d on a follower bootstrapped at v%d: %v", rec.Version(), v, err)
			}
		}
		if fol.Version() != last || fol.Checksum() != sums[last] {
			t.Fatalf("follower bootstrapped at v%d ended at v%d checksum %08x, leader at v%d %08x",
				v, fol.Version(), fol.Checksum(), last, sums[last])
		}
	}
	names1 := len(mustFull(t, srv).Names)
	if names1 <= names0 {
		t.Fatalf("names table stayed at %d through the storm; the fixture must keep minting weights", names0)
	}
	t.Logf("%d swaps, fulls caught at %d versions, names table grew %d → %d", last-1, len(fulls), names0, names1)
}

// mustFull decodes a fresh EncodeFull of srv.
func mustFull(t *testing.T, srv *serve.Server) *replica.Full {
	t.Helper()
	_, frame, err := srv.EncodeFull()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := replica.DecodeRecord(frame)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Full
}
