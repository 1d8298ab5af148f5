package serve_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
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

// countingSink publishes through a replica.Publisher and counts the full
// records the leader encodes for it.
type countingSink struct {
	pub   *replica.Publisher
	fulls atomic.Int32
}

func (s *countingSink) PublishRecord(version uint64, frame []byte) error {
	if rec, err := replica.DecodeRecord(frame); err == nil && rec.Kind == replica.KindFull {
		s.fulls.Add(1)
	}
	return s.pub.PublishRecord(version, frame)
}

// rawBootstrap subscribes from version 0 and returns the first frame the
// publisher sends, as raw bytes.
func rawBootstrap(t *testing.T, addr string) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(replica.EncodeSubscribe(0)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 4+int(binary.LittleEndian.Uint32(hdr[:]))+4)
	copy(frame, hdr[:])
	if _, err := io.ReadFull(conn, frame[4:]); err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestBootOneEncode: a leader's boot and one cold follower's bootstrap
// encode the snapshot once. The leader's first full record goes to the
// log, and the follower's bootstrap is that record read back from it:
// byte for byte Server.EncodeFull at head, with the publisher's source
// never run. After a delta the source runs and its frame is sent; after
// a rebuild the rebuild's logged record is served again, and after a
// rotation the source runs once more. Every bootstrap brings a follower
// to the leader's version and checksum.
func TestBootOneEncode(t *testing.T) {
	a, err := core.InferString("lex(delay(16,3), hops(8))")
	if err != nil {
		t.Fatal(err)
	}
	origin := a.OT.DefaultOrigin()
	r := rand.New(rand.NewSource(3))
	g := graph.Random(r, 24, 0.3, graph.UniformLabels(a.OT.F.Size()))
	log, err := replica.OpenLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var srv *serve.Server
	var sourced atomic.Int32
	pub := replica.NewPublisher(func() (uint64, []byte, error) {
		sourced.Add(1)
		return srv.EncodeFull()
	}, log)
	defer pub.Close()
	sink := &countingSink{pub: pub}
	srv, err = serve.NewServer(serve.Config{Engine: exec.For(a.OT, origin), Graph: g,
		Origins: map[int]value.V{0: origin, 7: origin}}, serve.WithWorkers(2), serve.WithReplication(sink))
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

	check := func(step string, wantFulls, wantSourced int32) {
		t.Helper()
		got := rawBootstrap(t, addr)
		if n, m := sink.fulls.Load(), sourced.Load(); n != wantFulls || m != wantSourced {
			t.Fatalf("%s: %d full records published and %d sourced, want %d and %d", step, n, m, wantFulls, wantSourced)
		}
		_, want, _ := srv.EncodeFull()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: the bootstrap frame (%d bytes) differs from EncodeFull at head (%d bytes)", step, len(got), len(want))
		}
		rec, err := replica.DecodeRecord(got)
		if err != nil {
			t.Fatal(err)
		}
		f := serve.NewFollower(nil)
		if err := f.Apply(rec); err != nil {
			t.Fatal(err)
		}
		if f.Version() != srv.Snapshot().Version || f.Checksum() != srv.Checksum() {
			t.Fatalf("%s: follower at v%d crc %08x, leader at v%d crc %08x", step,
				f.Version(), f.Checksum(), srv.Snapshot().Version, srv.Checksum())
		}
	}
	check("boot", 1, 0)
	if _, _, err := srv.ApplyEvent(context.Background(), 0, true); err != nil {
		t.Fatal(err)
	}
	check("a delta since", 1, 1)
	if err := srv.Rebuild(context.Background()); err != nil {
		t.Fatal(err)
	}
	check("a rebuild", 2, 1)
	if err := pub.RotateLog(srv.Snapshot().Version, rawBootstrap(t, addr)); err != nil {
		t.Fatal(err)
	}
	check("a rotation", 2, 2)
}
