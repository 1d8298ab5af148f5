package serve_test

// Differential replication test: a leader under a randomized toggle
// storm publishes replica records through a capture sink; a follower
// applies the stream and must reproduce the leader's routing state
// byte-identically at every version — column arenas (the follower's
// copy-on-write pages flattened: slots, pools, offsets, convergence,
// plus the cached live/byte totals), disabled mask, the failed-arc count
// /v1/stats serves on either role, unconverged set, weight-name
// resolution, the restored prefix table and the routing checksum. The leader is
// shadowed (publish_test.go): at every swap its flap counter and its
// delta frame must equal the scan-based oracle's. Run on both
// execution backends; CI runs the package under -race, which also
// exercises the follower's atomic-swap publication against concurrent
// readers.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/replica"
	"metarouting/internal/rib"
	"metarouting/internal/serve"
	"metarouting/internal/value"
)

// captureSink records every published frame in order (or, with discard
// set, only accepts them — for tests that measure the publish path).
type captureSink struct {
	mu      sync.Mutex
	frames  [][]byte
	discard bool
}

func (c *captureSink) PublishRecord(version uint64, frame []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.discard {
		c.frames = append(c.frames, append([]byte(nil), frame...))
	}
	return nil
}

func (c *captureSink) take() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.frames
	c.frames = nil
	return out
}

// since returns the frames published after the first n.
func (c *captureSink) since(n int) [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.frames[n:]...)
}

// leaderState is the per-version ground truth captured from the leader
// right after each swap.
type leaderState struct {
	cols        map[int]*rib.Column
	live, bytes map[int]int      // the paged leader column's cached totals
	weights     map[int][]string // weights[d][u]: formatted weight, "" unrouted
	disabled    []bool
	downArcs    int // disabled_arcs from the leader's /v1/stats
	unconverged []int
	checksum    uint32
}

func captureLeader(srv *serve.Server) leaderState {
	sn := srv.Snapshot()
	cols := make(map[int]*rib.Column, len(srv.Dests()))
	weights := make(map[int][]string, len(srv.Dests()))
	live, bytes := make(map[int]int, len(srv.Dests())), make(map[int]int, len(srv.Dests()))
	for _, d := range srv.Dests() {
		cols[d] = sn.Column(d).Flatten()
		live[d], bytes[d] = sn.Column(d).Live(), sn.Column(d).Bytes()
		ws := make([]string, sn.Graph.N)
		for u := range ws {
			if e := sn.Lookup(u, d); e != nil {
				ws[u] = value.Format(e.Weight)
			}
		}
		weights[d] = ws
	}
	return leaderState{
		cols:        cols,
		live:        live,
		bytes:       bytes,
		weights:     weights,
		disabled:    sn.Disabled,
		downArcs:    statsDisabledArcs(serve.NewHandler(srv, nil)),
		unconverged: sn.Unconverged,
		checksum:    srv.Checksum(),
	}
}

func TestReplicaDifferentialStorm(t *testing.T) {
	const src = "lex(delay(16,3), hops(8))"
	a, err := core.InferString(src)
	if err != nil {
		t.Fatal(err)
	}
	origin := a.OT.Carrier().Elems[0]
	engines := map[string]func() exec.Algebra{
		"dynamic": func() exec.Algebra { return exec.NewDynamic(a.OT) },
		"compiled": func() exec.Algebra {
			eng, err := exec.New(a.OT, exec.ModeCompiled, origin)
			if err != nil {
				t.Fatal(err)
			}
			return eng
		},
		// Shared by the pool as it is — no mutex wrapper — so this storm
		// is also the tiered engine's lock-free hits under real solvers.
		"tiered": func() exec.Algebra { return exec.NewTiered(a.OT) },
	}
	for name, mk := range engines {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(20260808))
			g := graph.Random(r, 12, 0.35, graph.UniformLabels(a.OT.F.Size()))
			origins := map[int]value.V{0: origin, 3: origin, 7: origin}
			workers := 3
			if name == "tiered" {
				workers = 4
			}
			srv := newShadowed(t, name, mk(), g, origins, serve.WithWorkers(workers))
			sink := srv.sink
			defer srv.Close()
			// Drive the storm, capturing ground truth after every swap.
			truth := map[uint64]leaderState{srv.Snapshot().Version: captureLeader(srv.Server)}
			disabled := make([]bool, len(g.Arcs))
			events := 0
			for round := 0; events < 200; round++ {
				if round == 40 {
					// A mid-storm explicit rebuild must ship as a full record
					// and chain seamlessly for the follower.
					if err := srv.Rebuild(context.Background()); err != nil {
						t.Fatalf("round %d: rebuild: %v", round, err)
					}
				} else {
					batch := make([]serve.ArcEvent, 1+r.Intn(4))
					for i := range batch {
						arc := r.Intn(len(g.Arcs))
						batch[i] = serve.ArcEvent{Arc: arc, Fail: !disabled[arc]}
						disabled[arc] = !disabled[arc]
					}
					if _, _, err := srv.ApplyBatch(context.Background(), batch); err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
					events += len(batch)
				}
				truth[srv.Snapshot().Version] = captureLeader(srv.Server)
			}

			frames := sink.take()
			if len(frames) != len(truth) {
				t.Fatalf("published %d frames for %d versions", len(frames), len(truth))
			}
			fullRecords := 0
			fol := serve.NewFollower(nil)
			folHTTP := serve.NewFollowerHandler(fol, nil)
			var prev *rib.PrefixTable
			for i, frame := range frames {
				rec, err := replica.DecodeRecord(frame)
				if err != nil {
					t.Fatalf("frame %d: decode: %v", i, err)
				}
				if rec.Kind == replica.KindFull {
					fullRecords++
				}
				if err := fol.Apply(rec); err != nil {
					t.Fatalf("frame %d (v%d): apply: %v", i, rec.Version(), err)
				}
				// Announcements travel only in full records: a delta must
				// carry the table over, a full must restore it.
				pt := fol.PrefixTableForTest()
				if (pt == prev) != (rec.Kind == replica.KindDelta) {
					t.Fatalf("frame %d: kind %d, prefix table carried over = %v", i, rec.Kind, pt == prev)
				}
				prev = pt
				compareFollower(t, fmt.Sprintf("frame %d v%d", i, rec.Version()), srv.Server, fol, folHTTP, truth[fol.Version()])
			}
			if fol.Version() != srv.Snapshot().Version {
				t.Fatalf("follower ended at v%d, leader at v%d", fol.Version(), srv.Snapshot().Version)
			}
			// Initial build + mid-storm rebuild: at least two fulls, and the
			// storm must have actually exercised the delta path.
			if fullRecords < 2 || fullRecords == len(frames) {
				t.Fatalf("record mix degenerate: %d full of %d total", fullRecords, len(frames))
			}
		})
	}
}

// compareFollower checks the follower's applied state bit-for-bit
// against the leader ground truth captured at the same version.
func compareFollower(t *testing.T, label string, srv *serve.Server, fol *serve.Follower, folHTTP http.Handler, want leaderState) {
	t.Helper()
	if want.cols == nil {
		t.Fatalf("%s: follower at version %d the leader never published", label, fol.Version())
	}
	st := fol.State()
	if st.Disabled.Len() != len(want.disabled) {
		t.Fatalf("%s: mask covers %d arcs, leader has %d", label, st.Disabled.Len(), len(want.disabled))
	}
	recount := 0
	for arc, down := range want.disabled {
		if st.Disabled.Get(arc) != down {
			t.Fatalf("%s: arc %d: follower down=%v, leader %v", label, arc, !down, down)
		}
		if down {
			recount++
		}
	}
	// Neither role counts failed arcs by scanning the mask — the leader
	// carries its count, the follower's mask does — so what each /v1/stats
	// serves must equal a recount at every version of the storm.
	if got := statsDisabledArcs(folHTTP); want.downArcs != recount || got != recount {
		t.Fatalf("%s: disabled_arcs: leader serves %d, follower %d, recount %d", label, want.downArcs, got, recount)
	}
	if !reflect.DeepEqual(st.Unconverged, want.unconverged) {
		t.Fatalf("%s: unconverged differs: got %v want %v", label, st.Unconverged, want.unconverged)
	}
	if len(st.Cols) != len(want.cols) {
		t.Fatalf("%s: %d columns, want %d", label, len(st.Cols), len(want.cols))
	}
	for d, wc := range want.cols {
		pc := st.Cols[d]
		if pc == nil {
			t.Fatalf("%s: missing column for dest %d", label, d)
		}
		// Routing content only: the Clean certificate is the leader
		// solver's licence and is not replicated.
		gc := pc.Flatten()
		gc.Clean = wc.Clean
		if !reflect.DeepEqual(gc, wc) {
			t.Fatalf("%s: column %d differs\n got %+v\nwant %+v", label, d, gc, wc)
		}
		// The incrementally adjusted totals must match the leader's own
		// paged column (same pages, same pools).
		if pc.Live() != want.live[d] || pc.Bytes() != want.bytes[d] {
			t.Fatalf("%s: column %d totals live %d bytes %d, leader %d/%d", label, d,
				pc.Live(), pc.Bytes(), want.live[d], want.bytes[d])
		}
		// Weight names must resolve identically to the leader's engine
		// formatting at every routed slot.
		for u := range gc.Slots {
			if !gc.Slots[u].Routed {
				continue
			}
			if got := st.WeightName(gc.Slots[u].W); got != want.weights[d][u] {
				t.Fatalf("%s: weight name (%d→%d): got %q want %q", label, u, d, got, want.weights[d][u])
			}
		}
	}
	if got := fol.Checksum(); got != want.checksum {
		t.Fatalf("%s: checksum %08x, want %08x", label, got, want.checksum)
	}
	// The restored prefix table must answer like the leader's.
	leaderPT := srv.Snapshot().Prefixes()
	folStats := fol.StatsReply()
	if folStats.Prefixes != leaderPT.Len() || folStats.LPMIntervals != leaderPT.LPMIntervals() ||
		folStats.SuppressedPrefixes != len(leaderPT.Suppressed()) {
		t.Fatalf("%s: prefix table mismatch: follower %d/%d/%d leader %d/%d/%d", label,
			folStats.Prefixes, folStats.LPMIntervals, folStats.SuppressedPrefixes,
			leaderPT.Len(), leaderPT.LPMIntervals(), len(leaderPT.Suppressed()))
	}
}

// statsDisabledArcs reads disabled_arcs off a handler's /v1/stats, or -1
// when the reply does not carry it.
func statsDisabledArcs(h http.Handler) int {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/stats", nil))
	var stats struct {
		DisabledArcs *int `json:"disabled_arcs"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil || stats.DisabledArcs == nil {
		return -1
	}
	return *stats.DisabledArcs
}
