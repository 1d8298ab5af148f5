package serve

// This file holds the batched query plane: POST /v1/routes accepts many
// route queries per request, pins ONE snapshot for the whole batch, and
// answers either JSON (Results elements byte-identical to the single
// /v1/route handler's replies) or the binary codec of
// internal/serve/wire, negotiated via Content-Type:
// application/x-mr-query. The binary path is the zero-allocation fast
// path: request body, decoded query slots, answer slots, the shared
// next-hop pool and the response frame all live in one sync.Pool'd
// scratch, and the per-query resolution (resolveWireBatch) allocates
// nothing once the scratch is warm — TestResolveWireBatchAllocs pins
// that to zero.
//
// The same handler serves leader and follower: both pin an immutable
// view (Snapshot / followerView) behind the small batchView interface,
// so the read scale-out tier answers batches at the leader's
// bit-identical version.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"metarouting/internal/rib"
	"metarouting/internal/serve/wire"
	"metarouting/internal/value"
)

// maxRoutesBody bounds POST /v1/routes bodies; anything larger is 413.
// A full wire.MaxBatch request frame is ~80 KB, so the ceiling leaves
// generous room for the JSON form's overhead.
const maxRoutesBody = 1 << 20

// BatchQuery is one query in a POST /v1/routes JSON body: exactly one
// of Dest, Prefix or Addr names the destination (same forms as the
// /v1/route query parameters), From names the querying node.
type BatchQuery struct {
	From   int    `json:"from"`
	Dest   *int   `json:"dest,omitempty"`
	Prefix string `json:"prefix,omitempty"`
	Addr   string `json:"addr,omitempty"`
}

// BatchRequest is the POST /v1/routes JSON body.
type BatchRequest struct {
	Queries []BatchQuery `json:"queries"`
}

// BatchReply is the POST /v1/routes JSON response. Version is the one
// snapshot the whole batch resolved against; every element of Results
// carries the same snapshot_version and is byte-identical to what the
// single /v1/route handler would answer for that query.
type BatchReply struct {
	Version uint64       `json:"version"`
	Results []RouteReply `json:"results"`
}

// batchView is the immutable state a batch resolves against — pinned
// once per request. The leader's Snapshot (plus its engine for weight
// naming) and the follower's view both satisfy it.
type batchView interface {
	batchVersion() uint64
	batchNodes() int
	batchColumn(dest int) rib.Col
	batchPrefixes() *rib.PrefixTable
	batchWeightName(w int32) string
}

// leaderBatch adapts a pinned leader snapshot; the server reference
// only supplies the engine's weight rendering.
type leaderBatch struct {
	sn  *Snapshot
	srv *Server
}

func (b leaderBatch) batchVersion() uint64            { return b.sn.Version }
func (b leaderBatch) batchNodes() int                 { return b.sn.Graph.N }
func (b leaderBatch) batchColumn(dest int) rib.Col    { return b.sn.Column(dest) }
func (b leaderBatch) batchPrefixes() *rib.PrefixTable { return b.sn.prefixes }
func (b leaderBatch) batchWeightName(w int32) string  { return value.Format(b.srv.eng.Value(w)) }

func (v *followerView) batchVersion() uint64 { return v.state.Version }
func (v *followerView) batchNodes() int      { return v.state.Nodes }
func (v *followerView) batchColumn(dest int) rib.Col {
	// Explicit nil return: wrapping a nil *rib.PagedColumn in the
	// interface would defeat the caller's nil check.
	c := v.state.Cols[dest]
	if c == nil {
		return nil
	}
	return c
}
func (v *followerView) batchPrefixes() *rib.PrefixTable { return v.pt }
func (v *followerView) batchWeightName(w int32) string  { return v.state.WeightName(w) }

// batchScratch is one request's worth of reusable buffers for the
// binary path. All slices keep their grown capacity across uses.
type batchScratch struct {
	body []byte
	out  []byte
	qs   []wire.Query
	as   []wire.Answer
	pool []int32
}

var batchScratchPool = sync.Pool{New: func() any {
	return &batchScratch{
		body: make([]byte, 0, 4096),
		out:  make([]byte, 0, 4096),
		qs:   make([]wire.Query, 0, 256),
		as:   make([]wire.Answer, 0, 256),
		pool: make([]int32, 0, 512),
	}
}}

// resolveWireBatch answers decoded binary queries against a pinned
// view, appending answer slots to as and shared next-hop spans to
// pool. It allocates nothing on the success path with warm scratch.
// Errors (out-of-range nodes) fail the whole frame: the binary
// protocol is machine-generated, so a malformed query is a client bug,
// mirroring the 400 the single handler answers.
func resolveWireBatch(v batchView, qs []wire.Query, as []wire.Answer, pool []int32) ([]wire.Answer, []int32, error) {
	nodes := v.batchNodes()
	pt := v.batchPrefixes()
	for i := range qs {
		q := &qs[i]
		if q.From < 0 || int(q.From) >= nodes {
			return as, pool, fmt.Errorf("query %d: \"from\" = %d out of range [0,%d)", i, q.From, nodes)
		}
		a := wire.Answer{Dest: -1}
		dest := -1
		switch q.Kind {
		case wire.QueryDest:
			if q.Arg >= uint32(nodes) {
				return as, pool, fmt.Errorf("query %d: \"dest\" = %d out of range [0,%d)", i, q.Arg, nodes)
			}
			dest = int(q.Arg)
			a.Flags |= wire.FlagMatched
		case wire.QueryPrefix:
			if node, ml, ok := pt.MatchPrefixNode(rib.MakePrefix(q.Arg, q.PLen)); ok {
				dest, a.MatchLen = node, ml
				a.Flags |= wire.FlagMatched
			}
		case wire.QueryAddr:
			if node, ml, ok := pt.MatchNode(q.Arg); ok {
				dest, a.MatchLen = node, ml
				a.Flags |= wire.FlagMatched
			}
		default:
			return as, pool, fmt.Errorf("query %d: unknown kind %d", i, q.Kind)
		}
		if dest >= 0 {
			a.Dest = int32(dest)
			if c := v.batchColumn(dest); c != nil {
				if w, routed := c.Route(int(q.From)); routed {
					a.Flags |= wire.FlagRouted
					a.W = w
					a.NhOff = uint32(len(pool))
					pool = c.AppendNextHops(pool, int(q.From))
					a.NhLen = uint16(len(pool) - int(a.NhOff))
				}
			}
		}
		as = append(as, a)
	}
	return as, pool, nil
}

// batchRouteReply answers one JSON batch query against a pinned view,
// constructing the reply exactly as the single /v1/route handlers do
// so the bodies stay byte-identical (the batch differential test
// asserts that against live single-query responses).
func batchRouteReply(v batchView, q BatchQuery) (RouteReply, error) {
	nodes := v.batchNodes()
	if q.From < 0 || q.From >= nodes {
		return RouteReply{}, fmt.Errorf("\"from\" = %d out of range [0,%d)", q.From, nodes)
	}
	reply := RouteReply{From: q.From, Dest: -1, Version: v.batchVersion()}
	var dest int
	switch {
	case q.Prefix != "":
		p, err := rib.ParsePrefix(q.Prefix)
		if err != nil {
			return RouteReply{}, err
		}
		reply.Query = p.String()
		po, ok := v.batchPrefixes().MatchPrefix(p)
		if !ok {
			reply.Err = "no announced prefix covers " + p.String()
			return reply, nil
		}
		reply.Matched = po.Prefix.String()
		dest = po.Node
	case q.Addr != "":
		addr, err := rib.ParseAddr(q.Addr)
		if err != nil {
			return RouteReply{}, err
		}
		reply.Query = q.Addr
		po, ok := v.batchPrefixes().Match(addr)
		if !ok {
			reply.Err = "no announced prefix covers " + q.Addr
			return reply, nil
		}
		reply.Matched = po.Prefix.String()
		dest = po.Node
	case q.Dest != nil:
		dest = *q.Dest
		if dest < 0 || dest >= nodes {
			return RouteReply{}, fmt.Errorf("\"dest\" = %d out of range [0,%d)", dest, nodes)
		}
	default:
		return RouteReply{}, fmt.Errorf("want dest, prefix or addr")
	}
	reply.Dest = dest
	if c := v.batchColumn(dest); c != nil {
		if w, routed := c.Route(q.From); routed {
			reply.Routed = true
			reply.Weight = v.batchWeightName(w)
			for _, nh := range c.NextHops(q.From) {
				reply.ECMP = append(reply.ECMP, int(nh))
			}
			if path, err := c.Forward(q.From); err == nil {
				reply.Path = path
			} else {
				reply.Err = err.Error()
			}
		}
	}
	return reply, nil
}

// routesHandler builds the POST /v1/routes handler over a pin function
// (which writes its own error and returns nil when the view is not
// servable) and an optional per-batch observer (query count). Shared
// by the leader and follower HTTP surfaces.
func routesHandler(pin func(http.ResponseWriter, *http.Request) batchView, observe func(queries int)) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			writeErr(w, http.StatusMethodNotAllowed, CodeInvalidArgument,
				"want POST /v1/routes (JSON or %s)", wire.ContentType)
			return
		}
		v := pin(w, req)
		if v == nil {
			return
		}
		if req.Header.Get("Content-Type") == wire.ContentType {
			handleRoutesWire(w, req, v, observe)
			return
		}
		handleRoutesJSON(w, req, v, observe)
	}
}

// handleRoutesWire is the binary fast path: pooled scratch end to end.
func handleRoutesWire(w http.ResponseWriter, req *http.Request, v batchView, observe func(int)) {
	sc := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(sc)
	n := req.ContentLength
	if n < 0 || n > maxRoutesBody {
		writeErr(w, http.StatusRequestEntityTooLarge, CodePayloadTooLarge,
			"binary batch needs a Content-Length ≤ %d, got %d", maxRoutesBody, n)
		return
	}
	if cap(sc.body) < int(n) {
		sc.body = make([]byte, n)
	}
	sc.body = sc.body[:n]
	if _, err := io.ReadFull(req.Body, sc.body); err != nil {
		writeErr(w, http.StatusBadRequest, CodeInvalidArgument, "short body: %v", err)
		return
	}
	var err error
	sc.qs, err = wire.DecodeQueryRequest(sc.body, sc.qs[:0])
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeInvalidArgument, "%v", err)
		return
	}
	sc.as, sc.pool, err = resolveWireBatch(v, sc.qs, sc.as[:0], sc.pool[:0])
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeInvalidArgument, "%v", err)
		return
	}
	sc.out, err = wire.AppendAnswerResponse(sc.out[:0], v.batchVersion(), sc.as, sc.pool)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, CodeInvalidArgument, "%v", err)
		return
	}
	if observe != nil {
		observe(len(sc.qs))
	}
	w.Header().Set("Content-Type", wire.ContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(sc.out)))
	w.Write(sc.out) //nolint:errcheck
}

// handleRoutesJSON is the JSON batch form.
func handleRoutesJSON(w http.ResponseWriter, req *http.Request, v batchView, observe func(int)) {
	body := http.MaxBytesReader(w, req.Body, maxRoutesBody)
	raw, err := io.ReadAll(body)
	if err != nil {
		status, code := http.StatusBadRequest, CodeInvalidArgument
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status, code = http.StatusRequestEntityTooLarge, CodePayloadTooLarge
		}
		writeErr(w, status, code, "bad routes body: %v", err)
		return
	}
	var breq BatchRequest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&breq); err != nil {
		writeErr(w, http.StatusBadRequest, CodeInvalidArgument, "bad routes body: %v", err)
		return
	}
	if err := ensureOneJSONValue(dec); err != nil {
		writeErr(w, http.StatusBadRequest, CodeInvalidArgument, "bad routes body: %v", err)
		return
	}
	if len(breq.Queries) == 0 {
		writeErr(w, http.StatusBadRequest, CodeInvalidArgument, "empty query batch")
		return
	}
	if len(breq.Queries) > wire.MaxBatch {
		writeErr(w, http.StatusBadRequest, CodeInvalidArgument,
			"batch of %d queries exceeds limit %d", len(breq.Queries), wire.MaxBatch)
		return
	}
	results := make([]RouteReply, len(breq.Queries))
	for i, q := range breq.Queries {
		r, err := batchRouteReply(v, q)
		if err != nil {
			writeErr(w, http.StatusBadRequest, CodeInvalidArgument, "query %d: %v", i, err)
			return
		}
		results[i] = r
	}
	if observe != nil {
		observe(len(breq.Queries))
	}
	writeJSON(w, http.StatusOK, BatchReply{Version: v.batchVersion(), Results: results})
}
