package serve_test

import (
	"bufio"
	"context"
	"errors"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/replica"
	"metarouting/internal/serve"
	"metarouting/internal/value"
)

// subscribeRaw subscribes to a publisher from the given version and
// returns the records that arrive before the stream goes quiet for
// 300 ms — the whole catch-up payload, which the publisher flushes at
// once.
func subscribeRaw(t *testing.T, addr string, from uint64) []*replica.Record {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(replica.EncodeSubscribe(from)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	var recs []*replica.Record
	for {
		conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
		rec, err := replica.ReadRecord(br)
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return recs
		}
		if err != nil {
			t.Fatalf("catch-up from %d after %d records: %v", from, len(recs), err)
		}
		recs = append(recs, rec)
	}
}

// TestRebuildResetsCatchUp: a leader publishing through a real
// replica.Publisher keeps no full record for catch-up. Server.Rebuild's
// full record empties the ring, so a follower behind it bootstraps from
// a full snapshot encoded at the head, and one at the rebuild's version
// gets the deltas since and no full record. Both followers end at the
// leader's version and checksum.
func TestRebuildResetsCatchUp(t *testing.T) {
	a, err := core.InferString("lex(delay(16,3), hops(8))")
	if err != nil {
		t.Fatal(err)
	}
	origin := a.OT.DefaultOrigin()
	r := rand.New(rand.NewSource(7))
	g := graph.Random(r, 16, 0.3, graph.UniformLabels(a.OT.F.Size()))
	var srv *serve.Server
	var encodes atomic.Int32
	pub := replica.NewPublisher(func() (uint64, []byte, error) {
		encodes.Add(1)
		return srv.EncodeFull()
	}, nil)
	defer pub.Close()
	sink := &teeSink{pub: pub, frames: map[uint64][]byte{}}
	srv, err = serve.NewServer(serve.Config{Engine: exec.For(a.OT, origin), Graph: g,
		Origins: map[int]value.V{0: origin, 9: origin}}, serve.WithWorkers(2), serve.WithReplication(sink))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go pub.Serve(ln)
	addr := ln.Addr().String()

	// apply swaps the leader n times, one arc toggle each.
	apply := func(n int) {
		for i := 0; i < n; i++ {
			arc := r.Intn(len(g.Arcs))
			if _, _, err := srv.ApplyEvent(context.Background(), arc, !srv.Snapshot().Disabled[arc]); err != nil {
				t.Fatal(err)
			}
		}
	}
	apply(3)
	behind := srv.Snapshot().Version
	if err := srv.Rebuild(context.Background()); err != nil {
		t.Fatal(err)
	}
	rebuilt := srv.Snapshot().Version
	apply(3)
	head := srv.Snapshot().Version

	recs := subscribeRaw(t, addr, behind)
	if len(recs) != 1 || recs[0].Kind != replica.KindFull || recs[0].Version() != head {
		t.Fatalf("a subscriber at v%d, behind the rebuild at v%d, got %d records, want one full record at v%d", behind, rebuilt, len(recs), head)
	}
	if n := encodes.Load(); n != 1 {
		t.Fatalf("the full-snapshot source ran %d times, want 1", n)
	}
	f := serve.NewFollower(nil)
	if err := f.Apply(recs[0]); err != nil {
		t.Fatal(err)
	}
	if f.Version() != head || f.Checksum() != srv.Checksum() {
		t.Fatalf("bootstrapped follower at v%d crc %08x, leader at v%d crc %08x", f.Version(), f.Checksum(), head, srv.Checksum())
	}

	// A follower holding the rebuild's full record catches up on the
	// deltas alone.
	rec, err := replica.DecodeRecord(sink.frames[rebuilt])
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != replica.KindFull {
		t.Fatalf("the rebuild published a record of kind %d, want a full record", rec.Kind)
	}
	f = serve.NewFollower(nil)
	if err := f.Apply(rec); err != nil {
		t.Fatal(err)
	}
	recs = subscribeRaw(t, addr, rebuilt)
	if len(recs) != int(head-rebuilt) {
		t.Fatalf("a subscriber at the rebuild's v%d got %d records, want the %d deltas to v%d", rebuilt, len(recs), head-rebuilt, head)
	}
	for i, rec := range recs {
		if rec.Kind != replica.KindDelta || rec.Version() != rebuilt+1+uint64(i) {
			t.Fatalf("record %d of the tail from v%d: kind %d at v%d, want a delta at v%d", i, rebuilt, rec.Kind, rec.Version(), rebuilt+1+uint64(i))
		}
	}
	for _, rec := range recs {
		if err := f.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	if f.Version() != head || f.Checksum() != srv.Checksum() {
		t.Fatalf("caught-up follower at v%d crc %08x, leader at v%d crc %08x", f.Version(), f.Checksum(), head, srv.Checksum())
	}
	if n := encodes.Load(); n != 1 {
		t.Fatalf("the full-snapshot source ran %d times in all, want 1", n)
	}
}

// teeSink publishes through a replica.Publisher and keeps every frame by
// version. The server calls it under its writer lock, so the map needs
// no lock of its own while the test reads it between swaps.
type teeSink struct {
	pub    *replica.Publisher
	frames map[uint64][]byte
}

func (s *teeSink) PublishRecord(version uint64, frame []byte) error {
	s.frames[version] = frame
	return s.pub.PublishRecord(version, frame)
}
