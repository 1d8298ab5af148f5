package serve_test

// The route reply is built in one place (routeReply), reached three
// ways: GET /v1/route on the leader, the same on a follower, and as an
// element of a JSON batch. This test holds the three to the same bytes on
// the policy algebra whose next hops loop — M without ND, where a weight
// is an optimum over walks and the answer has to say that forwarding does
// not realise it.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"testing"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/prop"
	"metarouting/internal/replica"
	"metarouting/internal/serve"
	"metarouting/internal/telemetry"
	"metarouting/internal/value"
)

func TestRouteReplyIdentityAcrossSurfaces(t *testing.T) {
	a, err := core.InferString("scoped(bw(4), delay(64,4))")
	if err != nil {
		t.Fatal(err)
	}
	if !a.Props.Fails(prop.NDLeft) {
		t.Fatal("the policy algebra must derive ¬ND")
	}
	g := graph.ScaleFree(rand.New(rand.NewSource(3)), 120, 2, graph.UniformLabels(a.OT.F.Size()))
	origin, err := a.OT.CheckedDefaultOrigin()
	if err != nil {
		t.Fatal(err)
	}
	sink := &captureSink{}
	reg := telemetry.NewRegistry()
	srv, err := serve.NewServer(serve.Config{Engine: exec.For(a.OT, origin), Graph: g,
		Origins: map[int]value.V{0: origin, 60: origin}},
		serve.WithReplication(sink), serve.WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	folReg := telemetry.NewRegistry()
	fol := serve.NewFollower(folReg)
	for _, frame := range sink.take() {
		rec, err := replica.DecodeRecord(frame)
		if err != nil {
			t.Fatal(err)
		}
		if err := fol.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	leader, follower := serve.NewHandler(srv, reg), serve.NewFollowerHandler(fol, folReg)

	// Pick one source whose next hops loop and one that forwards.
	looping, forwarding := -1, -1
	for u := 1; u < g.N && (looping < 0 || forwarding < 0); u++ {
		if srv.Snapshot().Lookup(u, 0) == nil {
			continue
		}
		if _, err := srv.Snapshot().Forward(u, 0); err != nil {
			looping = u
		} else {
			forwarding = u
		}
	}
	if looping < 0 || forwarding < 0 {
		t.Fatalf("fixture needs a looping and a forwarding source, got %d and %d", looping, forwarding)
	}

	d0, d7 := 0, 7
	for _, tc := range []struct {
		name  string
		q     serve.BatchQuery
		loops bool
		want  string // a fragment the reply must carry
	}{
		{"loop by dest", serve.BatchQuery{From: looping, Dest: &d0}, true, `"forwardable":false,"loop_at":`},
		{"loop by addr", serve.BatchQuery{From: looping, Addr: "10.0.0.0"}, true, `"forwardable":false,"loop_at":`},
		{"loop by prefix", serve.BatchQuery{From: looping, Prefix: "10.0.0.0/32"}, true, `"forwardable":false,"loop_at":`},
		{"forwards", serve.BatchQuery{From: forwarding, Dest: &d0}, false, `"forwardable":true,"snapshot_version"`},
		{"at the destination", serve.BatchQuery{From: 0, Dest: &d0}, false, `"path":[0],"forwardable":true`},
		{"unknown destination", serve.BatchQuery{From: looping, Dest: &d7}, false, `"routed":false,"forwardable":false,"snapshot_version"`},
		{"uncovered address", serve.BatchQuery{From: looping, Addr: "11.0.0.0"}, false, `"routed":false,"forwardable":false`},
	} {
		before, folBefore := srv.Stats().LoopAnswers, fol.StatsReply().LoopAnswers
		lg, fg := get(leader, singleTarget(tc.q)), get(follower, singleTarget(tc.q))
		body, err := json.Marshal(serve.BatchRequest{Queries: []serve.BatchQuery{tc.q}})
		if err != nil {
			t.Fatal(err)
		}
		batch := postRoutes(leader, "application/json", body)
		if lg.Code != http.StatusOK || fg.Code != http.StatusOK || batch.Code != http.StatusOK {
			t.Fatalf("%s: statuses leader %d follower %d batch %d", tc.name, lg.Code, fg.Code, batch.Code)
		}
		var reply struct {
			Results []json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(batch.Body.Bytes(), &reply); err != nil || len(reply.Results) != 1 {
			t.Fatalf("%s: batch body %s: %v", tc.name, batch.Body, err)
		}
		want := bytes.TrimSpace(lg.Body.Bytes())
		if !bytes.Equal(bytes.TrimSpace(fg.Body.Bytes()), want) || !bytes.Equal(bytes.TrimSpace(reply.Results[0]), want) {
			t.Fatalf("%s: the three surfaces diverge:\nleader   %s\nfollower %s\nbatch    %s",
				tc.name, want, fg.Body.Bytes(), reply.Results[0])
		}
		if !bytes.Contains(want, []byte(tc.want)) {
			t.Fatalf("%s: reply %s lacks %s", tc.name, want, tc.want)
		}
		var rr serve.RouteReply
		if err := json.Unmarshal(want, &rr); err != nil {
			t.Fatal(err)
		}
		if tc.loops {
			if rr.LoopAt == nil || rr.Forwardable || rr.Path != nil || !rr.Routed || rr.Weight == "" ||
				rr.Err != fmt.Sprintf("rib: forwarding loop at node %d toward 0", *rr.LoopAt) {
				t.Fatalf("%s: loop answer %+v", tc.name, rr)
			}
		} else if rr.LoopAt != nil || rr.Forwardable != (rr.Path != nil) {
			t.Fatalf("%s: answer %+v", tc.name, rr)
		}
		// The leader answered the GET and the batch element, the
		// follower its GET.
		wantLeader, wantFol := before, folBefore
		if tc.loops {
			wantLeader, wantFol = before+2, folBefore+1
		}
		if got, fgot := srv.Stats().LoopAnswers, fol.StatsReply().LoopAnswers; got != wantLeader || fgot != wantFol {
			t.Fatalf("%s: loop_answers leader %d (want %d), follower %d (want %d)", tc.name, got, wantLeader, fgot, wantFol)
		}
	}
	for want, h := range map[string]http.Handler{"6": leader, "3": follower} {
		if rec := get(h, "/v1/metrics"); !bytes.Contains(rec.Body.Bytes(), []byte("\nmrserve_loop_answers_total "+want+"\n")) {
			t.Fatalf("/v1/metrics does not report %s loop answers:\n%s", want, rec.Body)
		}
	}
}
