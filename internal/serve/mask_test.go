package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/replica"
	"metarouting/internal/solve"
	"metarouting/internal/value"
)

// TestLeaderMaskMatchesOracle is the leader's mask differential. A
// 20 000-node server (two directory pages of mask) absorbs a random
// fail/restore storm — clustered and scattered batches, batches of more
// than 32 toggles (the MaskArcs view path), events that coalesce away,
// and a Rebuild every seventh step — beside a []bool replay of the
// coalesced toggles. At every version the published mask must equal the
// replay bit for bit, its Count must equal the replay's and /v1/stats
// disabled_arcs, and Server.Snapshot().Disabled must cover every arc and
// equal it too; once the storm is over, every snapshot pinned along the
// way, the boot snapshot's clear mask among them, must still hold its own
// version's mask. The in-place mutant, which writes each derived mask
// over the previous snapshot's, must fail.
func TestLeaderMaskMatchesOracle(t *testing.T) {
	if err := leaderMaskStorm(nil); err != nil {
		t.Fatal(err)
	}
	err := leaderMaskStorm(toggledOverPrevious)
	if err == nil {
		t.Fatal("the in-place mutant passed")
	}
	t.Logf("in-place mutant caught: %v", err)
}

// toggledOverPrevious is the in-place mutant: it derives the next mask
// and writes it over the one it came from, the previous snapshot's — what
// a leader keeping one mutable mask for every snapshot would do.
func toggledOverPrevious(m *replica.Mask, ts []solve.ArcToggle) (replica.Mask, error) {
	next, err := m.Toggled(ts)
	if err == nil {
		*m = next
	}
	return next, err
}

// leaderMaskStorm runs the storm of TestLeaderMaskMatchesOracle, with
// toggled in place of the server's mask derivation when non-nil, and
// reports the first way the published masks differ from the replay.
func leaderMaskStorm(toggled func(*replica.Mask, []solve.ArcToggle) (replica.Mask, error)) error {
	a, err := core.InferString("lex(delay(32,3), hops(8))")
	if err != nil {
		return err
	}
	eng, err := exec.Compile(a.OT)
	if err != nil {
		return err
	}
	const n = 20000
	r := rand.New(rand.NewSource(36))
	g := graph.ScaleFree(r, n, 2, graph.UniformLabels(a.OT.F.Size()))
	origin := a.OT.Carrier().Elems[0]
	srv, err := NewServer(Config{Engine: eng, Graph: g, Origins: map[int]value.V{0: origin, n / 2: origin}},
		WithWorkers(2))
	if err != nil {
		return err
	}
	defer srv.Close()
	if toggled != nil {
		srv.maskToggled = toggled
	}
	h := NewHandler(srv, nil)
	arcs := len(g.Arcs)
	if arcs <= 1<<16 {
		return fmt.Errorf("%d arcs fit one directory page", arcs)
	}

	oracle := make([]bool, arcs)
	pinned, replays := []*Snapshot{srv.snap.Load()}, [][]bool{make([]bool, arcs)}
	check := func(sn *Snapshot, want []bool) error {
		if sn.mask.Len() != len(want) {
			return fmt.Errorf("mask covers %d arcs, replay %d", sn.mask.Len(), len(want))
		}
		count := 0
		for arc, down := range want {
			if sn.mask.Get(arc) != down {
				return fmt.Errorf("arc %d: mask down=%v, replay %v", arc, !down, down)
			}
			if down {
				count++
			}
		}
		if sn.mask.Count() != count {
			return fmt.Errorf("mask counts %d failed arcs, replay %d", sn.mask.Count(), count)
		}
		return nil
	}
	for step := 1; step <= 40; step++ {
		if step%7 == 0 {
			if err := srv.Rebuild(context.Background()); err != nil {
				return err
			}
		} else {
			k := 1 + r.Intn(8)
			if step%5 == 0 {
				k = 33 + r.Intn(16)
			}
			center := r.Intn(arcs)
			events := make([]ArcEvent, k)
			for i := range events {
				arc := r.Intn(arcs)
				if r.Intn(2) == 0 {
					arc = min(max(center+r.Intn(2048)-1024, 0), arcs-1)
				}
				// One event in three asks for the state its arc is in.
				fail := !oracle[arc]
				if r.Intn(3) == 0 {
					fail = oracle[arc]
				}
				events[i] = ArcEvent{Arc: arc, Fail: fail}
			}
			if _, _, err := srv.ApplyBatch(context.Background(), events); err != nil {
				return err
			}
			for _, ev := range events {
				oracle[ev.Arc] = ev.Fail
			}
		}
		sn := srv.snap.Load()
		if err := check(sn, oracle); err != nil {
			return fmt.Errorf("v%d: %w", sn.Version, err)
		}
		if down := statsDisabled(h); down != sn.mask.Count() {
			return fmt.Errorf("v%d: /v1/stats says %d arcs down, the mask %d", sn.Version, down, sn.mask.Count())
		}
		view := srv.Snapshot().Disabled
		if len(view) != arcs {
			return fmt.Errorf("v%d: Snapshot().Disabled covers %d arcs, the graph has %d", sn.Version, len(view), arcs)
		}
		for arc, down := range oracle {
			if view[arc] != down {
				return fmt.Errorf("v%d: Snapshot().Disabled[%d] = %v, replay %v", sn.Version, arc, view[arc], down)
			}
		}
		pinned, replays = append(pinned, sn), append(replays, append([]bool(nil), oracle...))
	}
	for i, sn := range pinned {
		if err := check(sn, replays[i]); err != nil {
			return fmt.Errorf("v%d, once v%d was published: %w", sn.Version, pinned[len(pinned)-1].Version, err)
		}
	}
	return nil
}

// statsDisabled reads disabled_arcs off a handler's /v1/stats.
func statsDisabled(h http.Handler) int {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var stats struct {
		DisabledArcs int `json:"disabled_arcs"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		return -1
	}
	return stats.DisabledArcs
}
