package bench

import (
	"encoding/json"
	"fmt"
	"strconv"

	"metarouting/internal/exec"
	"metarouting/internal/rib"
	"metarouting/internal/serve"
	"metarouting/internal/serve/wire"
	"metarouting/internal/solve"
	"metarouting/internal/value"
)

// This file holds the correctness gates that run after the measured
// windows, while the system is quiescent. Each failure is one failed
// operation and makes the run incorrect.

// checkedCycles is how many read cycles per role the batch-vs-GET
// differential replays (every query of each cycle's batch).
const checkedCycles = 2

// checks runs the post-window gates.
func (r *run) checks() {
	r.gate(r.c.Parity(), "final parity")
	r.gate(r.checkOracle(), "leader snapshot vs scratch oracle")
	for role := range r.readers {
		r.checkBatchAgainstGets(role)
	}
}

// weightNamer renders one engine's weight indices, caching per index:
// the comparisons below render every slot of every column.
type weightNamer struct {
	eng   exec.Algebra
	names []string
}

func (n *weightNamer) name(w int32) string {
	for int(w) >= len(n.names) {
		n.names = append(n.names, "")
	}
	if n.names[w] == "" {
		n.names[w] = value.Format(n.eng.Value(w))
	}
	return n.names[w]
}

// checkOracle rebuilds every destination from scratch on the base
// topology masked by the leader's current failure set, on an engine of
// the harness's own, and requires the leader's flattened columns to
// match slot for slot. Weights compare by rendered name: the two
// engines hash-cons independently, so on interpreting backends equal
// weights may carry different indices (on the compiled backend indices
// are canonical and this is bit-identity).
func (r *run) checkOracle() error {
	sn := r.c.Srv.Snapshot()
	view := r.in.Graph.MaskArcs(sn.Disabled)
	eng := exec.For(r.c.Alg.OT, r.in.Origin)
	ws := solve.NewWorkspace()
	got := &weightNamer{eng: sn.RIB().Engine()}
	want := &weightNamer{eng: eng}
	for _, d := range r.in.Dests {
		oc, err := rib.BuildDestColumn(eng, view, d, r.in.Origin, ws)
		if err != nil {
			return err
		}
		col := sn.Column(d)
		if col == nil {
			return fmt.Errorf("dest %d: leader has no column", d)
		}
		if err := sameColumn(col.Flatten(), oc, got, want); err != nil {
			return fmt.Errorf("dest %d: %w", d, err)
		}
	}
	return nil
}

// sameColumn compares two flat columns: convergence, every slot's
// routedness, span and weight name, and the whole next-hop pool.
func sameColumn(got, want *rib.Column, gn, wn *weightNamer) error {
	if got.Converged != want.Converged {
		return fmt.Errorf("converged %v, oracle %v", got.Converged, want.Converged)
	}
	if len(got.Slots) != len(want.Slots) || len(got.Pool) != len(want.Pool) {
		return fmt.Errorf("%d slots / %d pool, oracle %d / %d", len(got.Slots), len(got.Pool), len(want.Slots), len(want.Pool))
	}
	for u := range got.Slots {
		g, w := got.Slots[u], want.Slots[u]
		if g.Routed != w.Routed || g.NhOff != w.NhOff || g.NhLen != w.NhLen {
			return fmt.Errorf("node %d: slot %+v, oracle %+v", u, g, w)
		}
		if g.Routed && gn.name(g.W) != wn.name(w.W) {
			return fmt.Errorf("node %d: weight %s, oracle %s", u, gn.name(g.W), wn.name(w.W))
		}
	}
	for i := range got.Pool {
		if got.Pool[i] != want.Pool[i] {
			return fmt.Errorf("pool[%d] = %d, oracle %d", i, got.Pool[i], want.Pool[i])
		}
	}
	return nil
}

// checkBatchAgainstGets pins the current version on one role, asks a
// few cycles' batches in binary form, and requires every answer to
// state the same facts as the single GET for the same query at the
// same version — and, for address-form queries, the same match the
// harness's own prefix table makes (so an address no prefix covers
// must come back unmatched).
func (r *run) checkBatchAgainstGets(role int) {
	rd := r.readers[role]
	version := r.c.Srv.Snapshot().Version
	suffix := []byte("&version=" + strconv.FormatUint(version, 10))
	var name func(w int32) string
	if role == 0 {
		n := &weightNamer{eng: r.c.Srv.Snapshot().RIB().Engine()}
		name = n.name
	} else {
		name = r.c.Fol.State().WeightName
	}
	for ci := 0; ci < checkedCycles; ci++ {
		c := &rd.plan[(rd.cur+ci)%len(rd.plan)]
		r.ops.attempted++
		status, body, err := rd.cl.post("/v1/routes?version="+strconv.FormatUint(version, 10), wire.ContentType, c.Frame)
		if err != nil || status != 200 {
			r.ops.fail(r.log, "%s pinned batch: status %d err %v", rd.role, status, err)
			continue
		}
		v, as, pool, err := wire.DecodeAnswerResponse(body, nil, nil)
		if err != nil || v != version || len(as) != len(c.Batch) {
			r.ops.fail(r.log, "%s pinned batch: version %d (want %d), %d answers, err %v", rd.role, v, version, len(as), err)
			continue
		}
		for i, q := range c.Batch {
			r.ops.attempted++
			status, body, err := rd.cl.get(routePath(q), suffix)
			if err != nil || status != 200 {
				r.ops.fail(r.log, "%s pinned GET %s: status %d err %v", rd.role, routePath(q), status, err)
				continue
			}
			var reply serve.RouteReply
			if err := json.Unmarshal(body, &reply); err != nil {
				r.ops.fail(r.log, "%s pinned GET %s: %v", rd.role, routePath(q), err)
				continue
			}
			if err := r.sameAnswer(q, as[i], pool, &reply, version, name); err != nil {
				r.ops.fail(r.log, "%s query %s: %v", rd.role, routePath(q), err)
			}
		}
	}
}

// sameAnswer compares one binary answer with the GET reply for the
// same query and with the oracle prefix table.
func (r *run) sameAnswer(q wire.Query, a wire.Answer, pool []int32, reply *serve.RouteReply, version uint64, name func(int32) string) error {
	if reply.Version != version {
		return fmt.Errorf("GET served v%d, pinned v%d", reply.Version, version)
	}
	wantNode, wantLen, wantOK := int(q.Arg), uint8(0), true
	switch q.Kind {
	case wire.QueryAddr:
		wantNode, wantLen, wantOK = r.in.Oracle.MatchNode(q.Arg)
	case wire.QueryPrefix:
		wantNode, wantLen, wantOK = r.in.Oracle.MatchPrefixNode(rib.MakePrefix(q.Arg, q.PLen))
	}
	if a.Matched() != wantOK {
		return fmt.Errorf("batch matched=%v, oracle prefix table says %v", a.Matched(), wantOK)
	}
	if !wantOK {
		if reply.Dest != -1 || reply.Routed || reply.Err == "" {
			return fmt.Errorf("uncovered query answered dest %d routed %v error %q", reply.Dest, reply.Routed, reply.Err)
		}
		return nil
	}
	if int(a.Dest) != wantNode || a.MatchLen != wantLen {
		return fmt.Errorf("batch matched node %d /%d, oracle node %d /%d", a.Dest, a.MatchLen, wantNode, wantLen)
	}
	if reply.Dest != int(a.Dest) || reply.Routed != a.Routed() {
		return fmt.Errorf("GET dest %d routed %v, batch dest %d routed %v", reply.Dest, reply.Routed, a.Dest, a.Routed())
	}
	if q.Kind != wire.QueryDest {
		if p, err := rib.ParsePrefix(reply.Matched); err != nil || p.Len != a.MatchLen {
			return fmt.Errorf("GET matched %q, batch matched /%d", reply.Matched, a.MatchLen)
		}
	}
	if !a.Routed() {
		return nil
	}
	if got := name(a.W); got != reply.Weight {
		return fmt.Errorf("GET weight %s, batch weight %s", reply.Weight, got)
	}
	span := pool[a.NhOff : a.NhOff+uint32(a.NhLen)]
	if len(span) != len(reply.ECMP) {
		return fmt.Errorf("GET ecmp %v, batch ecmp %v", reply.ECMP, span)
	}
	for i, nh := range span {
		if int(nh) != reply.ECMP[i] {
			return fmt.Errorf("GET ecmp %v, batch ecmp %v", reply.ECMP, span)
		}
	}
	return nil
}
