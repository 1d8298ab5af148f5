package serve

// This file holds the read handlers leader and follower share. Both pin
// an immutable view (Snapshot / followerView) behind the small batchView
// interface, so the read scale-out tier answers at the leader's
// bit-identical version:
//
//   - GET /v1/route and the JSON form of POST /v1/routes build every
//     reply in routeReply, so a batch's Results elements are
//     byte-identical to the single handler's replies;
//   - POST /v1/routes pins ONE snapshot for the whole batch and answers
//     JSON or the binary codec of internal/serve/wire, negotiated via
//     Content-Type: application/x-mr-query. The binary path is the
//     zero-allocation fast path: request body, decoded query slots,
//     answer slots, the shared next-hop pool, the resolver's per-query
//     stage state and the response frame all live in one sync.Pool'd
//     scratch, and resolveWireBatch allocates nothing once the scratch
//     is warm — TestResolveWireBatchAllocs pins that to zero.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"metarouting/internal/graph"
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

// batchView is the immutable state a request resolves against — pinned
// once per request. The leader's Snapshot and the follower's view both
// satisfy it.
type batchView interface {
	batchVersion() uint64
	batchNodes() int
	batchColumn(dest int) *rib.PagedColumn
	batchPrefixes() *rib.PrefixTable
	batchWeightName(w int32) string
	// batchForward walks primary next hops from a node holding a route
	// in dest's column (so the column is known to exist).
	batchForward(from, dest int) (graph.Path, error)
}

// The leader's view is the pinned Snapshot itself (pointer-shaped, so
// handing it to the handlers as a batchView never allocates); its server
// supplies the engine's weight rendering and the sampled Forward timing.
func (sn *Snapshot) batchVersion() uint64                  { return sn.Version }
func (sn *Snapshot) batchNodes() int                       { return sn.Graph.N }
func (sn *Snapshot) batchColumn(dest int) *rib.PagedColumn { return sn.cols[dest] }
func (sn *Snapshot) batchPrefixes() *rib.PrefixTable       { return sn.prefixes }
func (sn *Snapshot) batchWeightName(w int32) string        { return value.Format(sn.srv.eng.Value(w)) }
func (sn *Snapshot) batchForward(from, dest int) (graph.Path, error) {
	return sn.srv.forwardOn(sn, from, dest, rand.Uint32()&querySampleMask == 0)
}

func (v *followerView) batchVersion() uint64                  { return v.state.Version }
func (v *followerView) batchNodes() int                       { return v.state.Nodes }
func (v *followerView) batchColumn(dest int) *rib.PagedColumn { return v.state.Cols[dest] }
func (v *followerView) batchPrefixes() *rib.PrefixTable       { return v.pt }
func (v *followerView) batchWeightName(w int32) string        { return v.state.WeightName(w) }
func (v *followerView) batchForward(from, dest int) (graph.Path, error) {
	return v.state.Cols[dest].Forward(from)
}

// batchScratch is one request's worth of reusable buffers for the
// binary path. All slices keep their grown capacity across uses.
type batchScratch struct {
	body []byte
	out  []byte
	qs   []wire.Query
	as   []wire.Answer
	pool []int32
	// pages is the staged resolver's per-query state: the column page
	// holding each query's slot, nil once the query needs no further
	// read (unmatched, unknown destination, unrouted).
	pages []*rib.ColumnPage
}

var batchScratchPool = sync.Pool{New: func() any {
	return &batchScratch{
		body:  make([]byte, 0, 4096),
		out:   make([]byte, 0, 4096),
		qs:    make([]wire.Query, 0, 256),
		as:    make([]wire.Answer, 0, 256),
		pool:  make([]int32, 0, 512),
		pages: make([]*rib.ColumnPage, 0, 256),
	}
}}

// errSpanTooWide marks an answer the binary format cannot carry: its
// next-hop span is a uint16 count. It is the server's limit, not a
// malformed query, so the handler answers it as a 500.
var errSpanTooWide = errors.New("equal-cost next hops exceed the binary answer's span limit")

// spanLen narrows query i's next-hop count to the answer slot's width.
func spanLen(i, n int) (uint16, error) {
	if n > math.MaxUint16 {
		return 0, fmt.Errorf("query %d: %d %w %d", i, n, errSpanTooWide, math.MaxUint16)
	}
	return uint16(n), nil
}

// matchWireQuery validates query i and resolves its destination — the
// part of a binary query that is arithmetic and one binary search,
// shared by both resolvers. Errors (out-of-range nodes) fail the whole
// frame: the binary protocol is machine-generated, so a malformed query
// is a client bug, mirroring the 400 the single handler answers.
func matchWireQuery(i int, q *wire.Query, nodes int, pt *rib.PrefixTable) (wire.Answer, error) {
	a := wire.Answer{Dest: -1}
	if q.From < 0 || int(q.From) >= nodes {
		return a, fmt.Errorf("query %d: \"from\" = %d out of range [0,%d)", i, q.From, nodes)
	}
	switch q.Kind {
	case wire.QueryDest:
		if q.Arg >= uint32(nodes) {
			return a, fmt.Errorf("query %d: \"dest\" = %d out of range [0,%d)", i, q.Arg, nodes)
		}
		a.Dest = int32(q.Arg)
		a.Flags |= wire.FlagMatched
	case wire.QueryPrefix:
		if node, ml, ok := pt.MatchPrefixNode(rib.MakePrefix(q.Arg, q.PLen)); ok {
			a.Dest, a.MatchLen = int32(node), ml
			a.Flags |= wire.FlagMatched
		}
	case wire.QueryAddr:
		if node, ml, ok := pt.MatchNode(q.Arg); ok {
			a.Dest, a.MatchLen = int32(node), ml
			a.Flags |= wire.FlagMatched
		}
	default:
		return a, fmt.Errorf("query %d: unknown kind %d", i, q.Kind)
	}
	return a, nil
}

// colMemoSize is the size of the staged resolver's direct-mapped column
// memo (keyed by dest mod colMemoSize, one per batch): a batch names a
// handful of distinct destinations hundreds of times, and the view's
// column fetch is an interface call over a map lookup.
const colMemoSize = 64

// resolveWireBatch answers sc.qs against a pinned view into sc.as and
// the shared next-hop pool sc.pool, allocating nothing once the scratch
// is warm. It is a bulk lookup: instead of taking each query through
// its whole chain of dependent loads (column → page table → slot → pool
// header → pool data, every one a likely cache miss at 100k nodes) it
// walks the batch stage by stage, and because the iterations of one
// stage do not depend on each other the core keeps many of those misses
// in flight at once:
//
//	stage 0  validate every query and resolve its destination: the
//	         LPM is one binary search over the prefix table's range
//	         starts (a few KB, cache-resident), whose hit carries the
//	         anchor node and length, so no announcement is loaded
//	stage 1  fetch the column, once per distinct destination, and load
//	         only the query's page pointer
//	stage 2  read every slot: routed?, weight, page-relative span
//	         (a saturated NhLen reads its end off the page's layout)
//	stage 3  read every page's pool header and copy the spans out
//	         (an inline loop: spans are 1–3 hops, too short for copy's
//	         call to pay)
//
// Validation of the whole batch precedes any answer, so a malformed
// query fails the frame with nothing resolved. The per-query resolver it
// is differential-tested against lives in resolver_test.go.
func resolveWireBatch(v batchView, sc *batchScratch) error {
	qs := sc.qs
	sc.as, sc.pool = sc.as[:0], sc.pool[:0] // an error leaves nothing answered
	nodes := v.batchNodes()
	pt := v.batchPrefixes()
	as := sc.as
	for i := range qs {
		a, err := matchWireQuery(i, &qs[i], nodes, pt)
		if err != nil {
			return err
		}
		as = append(as, a)
	}

	pages := slices.Grow(sc.pages[:0], len(qs))[:len(qs)]
	sc.pages = pages
	var cols [colMemoSize]struct {
		known bool
		dest  int32
		col   *rib.PagedColumn
	}
	for i := range qs {
		var pg *rib.ColumnPage
		if dest := as[i].Dest; dest >= 0 {
			m := &cols[dest%colMemoSize]
			if !m.known || m.dest != dest {
				m.known, m.dest, m.col = true, dest, v.batchColumn(int(dest))
			}
			if from := int(qs[i].From); m.col != nil && from < m.col.N {
				pg = m.col.Pages[from>>rib.PageShift]
			}
		}
		pages[i] = pg
	}

	total := 0
	for i, pg := range pages {
		if pg == nil {
			continue
		}
		j := int(qs[i].From & rib.PageMask)
		s := &pg.Slots[j]
		if !s.Routed {
			pages[i] = nil
			continue
		}
		n, err := spanLen(i, int(pg.SpanEnd(j)-s.NhOff))
		if err != nil {
			return err
		}
		a := &as[i]
		a.Flags |= wire.FlagRouted
		a.W = s.W
		a.NhOff, a.NhLen = uint32(s.NhOff), n // page-relative until stage 3 rebases it
		total += int(n)
	}

	pool := slices.Grow(sc.pool, total)[:total]
	off := 0
	for i, pg := range pages {
		if pg == nil {
			continue
		}
		a := &as[i]
		span := pg.Pool[a.NhOff : a.NhOff+uint32(a.NhLen)]
		dst := pool[off : off+len(span)]
		for k, nh := range span {
			dst[k] = nh
		}
		a.NhOff = uint32(off)
		off += len(span)
	}
	sc.as, sc.pool = as, pool
	return nil
}

// replyStore backs the fields of one RouteReply that point or slice
// into storage: the converted ECMP set and the loop node. The single
// handler pools one; the JSON batch gives each result its own.
type replyStore struct {
	ecmp   []int
	loopAt int
}

// routeReply answers one route query against a pinned view — the one
// place a RouteReply is built: GET /v1/route on leader and follower and
// every element of a JSON batch come through here, which is what keeps
// the three byte-identical. Errors are the client's (a node out of
// range, an unparsable prefix) and answer 400.
func routeReply(v batchView, q BatchQuery, st *replyStore) (RouteReply, error) {
	nodes := v.batchNodes()
	if q.From < 0 || q.From >= nodes {
		return RouteReply{}, fmt.Errorf("\"from\" = %d out of range [0,%d)", q.From, nodes)
	}
	reply := RouteReply{From: q.From, Dest: -1, Version: v.batchVersion()}
	// The destination names either a node id (dest) or a prefix plane
	// query (prefix, addr) resolved by longest match to its anchor
	// node's column.
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
	// Resolve index-form against the column instead of materializing an
	// *Entry — same facts, no per-call entry or next-hop copies.
	c := v.batchColumn(dest)
	if c == nil {
		return reply, nil
	}
	w, routed := c.Route(q.From)
	if !routed {
		return reply, nil
	}
	reply.Routed = true
	reply.Weight = v.batchWeightName(w)
	st.ecmp = st.ecmp[:0]
	for _, nh := range c.NextHops(q.From) {
		st.ecmp = append(st.ecmp, int(nh))
	}
	reply.ECMP = st.ecmp
	// A weight is an optimum over walks; only an algebra that derives ND
	// promises that following next hops realises it. Where it does not,
	// say so in the answer instead of silently omitting the path.
	path, err := v.batchForward(q.From, dest)
	if err == nil {
		reply.Path, reply.Forwardable = path, true
		return reply, nil
	}
	reply.Err = err.Error()
	var loop *rib.LoopError // escapes into errors.As: declared on the failure path only
	if errors.As(err, &loop) {
		st.loopAt = loop.Node
		reply.LoopAt = &st.loopAt
	}
	return reply, nil
}

// routeUsage prefixes GET /v1/route's client errors.
const routeUsage = "want /v1/route?from=U&dest=D (or prefix=P, addr=A)"

// routeHandler builds the GET /v1/route handler over a pin function
// (see routesHandler) and an observer told how many queries a request
// answered and how many of those answers were forwarding loops. Shared
// by the leader and follower HTTP surfaces. The query string is parsed
// once; the reply is built and encoded in pooled scratch.
func routeHandler(pin func(w http.ResponseWriter, version string) batchView, observe func(queries, loops int)) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		params := req.URL.Query()
		rs := routeScratchPool.Get().(*routeScratch)
		defer routeScratchPool.Put(rs)
		q := BatchQuery{Prefix: params.Get("prefix"), Addr: params.Get("addr")}
		var err error
		if q.From, err = strconv.Atoi(params.Get("from")); err != nil {
			writeErr(w, http.StatusBadRequest, CodeInvalidArgument, "%s: bad or missing %q parameter", routeUsage, "from")
			return
		}
		if q.Prefix == "" && q.Addr == "" {
			if rs.dest, err = strconv.Atoi(params.Get("dest")); err != nil {
				writeErr(w, http.StatusBadRequest, CodeInvalidArgument, "%s: bad or missing %q parameter", routeUsage, "dest")
				return
			}
			q.Dest = &rs.dest
		}
		v := pin(w, params.Get("version"))
		if v == nil {
			return
		}
		if rs.reply, err = routeReply(v, q, &rs.replyStore); err != nil {
			writeErr(w, http.StatusBadRequest, CodeInvalidArgument, "%s: %v", routeUsage, err)
			return
		}
		observe(1, loopCount(&rs.reply))
		writeRouteReply(w, rs)
	}
}

// loopCount is 1 for an answer that names a forwarding loop.
func loopCount(r *RouteReply) int {
	if r.LoopAt != nil {
		return 1
	}
	return 0
}

// routesHandler builds the POST /v1/routes handler over a pin function
// (which is handed the request's version parameter, writes its own
// error and returns nil when the view is not servable) and a per-batch
// observer (see routeHandler; binary answers carry next hops only, so
// they never count a loop). Shared by the leader and follower HTTP
// surfaces.
func routesHandler(pin func(w http.ResponseWriter, version string) batchView, observe func(queries, loops int)) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			writeErr(w, http.StatusMethodNotAllowed, CodeInvalidArgument,
				"want POST /v1/routes (JSON or %s)", wire.ContentType)
			return
		}
		v := pin(w, req.URL.Query().Get("version"))
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
func handleRoutesWire(w http.ResponseWriter, req *http.Request, v batchView, observe func(queries, loops int)) {
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
	if err = resolveWireBatch(v, sc); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, errSpanTooWide) {
			status = http.StatusInternalServerError
		}
		writeErr(w, status, CodeInvalidArgument, "%v", err)
		return
	}
	sc.out, err = wire.AppendAnswerResponse(sc.out[:0], v.batchVersion(), sc.as, sc.pool)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, CodeInvalidArgument, "%v", err)
		return
	}
	observe(len(sc.qs), 0)
	w.Header().Set("Content-Type", wire.ContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(sc.out)))
	w.Write(sc.out) //nolint:errcheck
}

// handleRoutesJSON is the JSON batch form.
func handleRoutesJSON(w http.ResponseWriter, req *http.Request, v batchView, observe func(queries, loops int)) {
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
	stores := make([]replyStore, len(breq.Queries))
	loops := 0
	for i, q := range breq.Queries {
		r, err := routeReply(v, q, &stores[i])
		if err != nil {
			writeErr(w, http.StatusBadRequest, CodeInvalidArgument, "query %d: %v", i, err)
			return
		}
		results[i] = r
		loops += loopCount(&r)
	}
	observe(len(breq.Queries), loops)
	writeJSON(w, http.StatusOK, BatchReply{Version: v.batchVersion(), Results: results})
}
