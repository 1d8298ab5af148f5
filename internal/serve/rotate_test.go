package serve_test

// End-to-end log rotation: a leader publishing through a real
// replica.Publisher with a small byte cap must roll its on-disk log
// into numbered segments mid-storm, seed each fresh segment with a
// full checkpoint, and leave behind (a) a live file that replays to
// the current snapshot on its own and (b) a directory whose full
// segment chain replays across every rotation boundary — both
// checksum-identical to the leader.

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/replica"
	"metarouting/internal/serve"
	"metarouting/internal/value"
)

func TestLogRotationAcrossSegments(t *testing.T) {
	a, err := core.InferString("lex(delay(16,3), hops(8))")
	if err != nil {
		t.Fatal(err)
	}
	origin := a.OT.DefaultOrigin()
	r := rand.New(rand.NewSource(42))
	g := graph.Random(r, 16, 0.3, graph.UniformLabels(a.OT.F.Size()))
	origins := map[int]value.V{0: origin, 5: origin, 11: origin}

	dir := t.TempDir()
	log, err := replica.OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	var srv *serve.Server
	pub := replica.NewPublisher(func() (uint64, []byte, error) { return srv.EncodeFull() }, log)
	pub.SetLogMaxBytes(2048)
	defer pub.Close()
	srv, err = serve.NewServer(serve.Config{Engine: exec.For(a.OT, origin), Graph: g, Origins: origins},
		serve.WithWorkers(2), serve.WithReplication(pub))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	disabled := make([]bool, len(g.Arcs))
	for i := 0; i < 120; i++ {
		arc := r.Intn(len(g.Arcs))
		if _, _, err := srv.ApplyEvent(context.Background(), arc, !disabled[arc]); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		disabled[arc] = !disabled[arc]
	}

	segs, err := replica.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("storm left %d segment files, want rotation to have produced at least 3 (got %v)", len(segs), segs)
	}

	wantVersion, wantCRC := srv.Snapshot().Version, srv.Checksum()

	// The live file alone replays to the current snapshot — its first
	// record is the checkpoint that seeded the segment.
	live := serve.NewFollower(nil)
	if err := replica.ReplayLog(filepath.Join(dir, replica.LogName), live.Apply); err != nil {
		t.Fatalf("replay live log: %v", err)
	}
	if live.Version() != wantVersion || live.Checksum() != wantCRC {
		t.Fatalf("live-log follower at v%d crc %08x, leader at v%d crc %08x",
			live.Version(), live.Checksum(), wantVersion, wantCRC)
	}

	// The whole directory replays across every rotation boundary.
	chain := serve.NewFollower(nil)
	if err := replica.ReplayLog(dir, chain.Apply); err != nil {
		t.Fatalf("replay segment chain: %v", err)
	}
	if chain.Version() != wantVersion || chain.Checksum() != wantCRC {
		t.Fatalf("chain follower at v%d crc %08x, leader at v%d crc %08x",
			chain.Version(), chain.Checksum(), wantVersion, wantCRC)
	}
}
