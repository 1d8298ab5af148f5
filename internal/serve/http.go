package serve

// This file holds the HTTP/JSON API that cmd/mrserve mounts — kept in
// the library so the decoding logic is unit- and fuzz-testable without
// booting the binary. Every route lives under /v1/ and is mounted once,
// by newMux, for both roles; an unversioned path is the mux's 404.
// Every endpoint answers JSON; errors use one envelope shape,
//
//	{"error":{"code":"...","message":"..."}}
//
// and malformed input, out-of-range node ids and oversized bodies are
// 4xx replies, never panics (FuzzRouteHandler/FuzzEventHandler assert
// exactly that).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"

	"metarouting/internal/telemetry"
)

// maxEventBody bounds POST /v1/events payloads; anything larger is 413.
const maxEventBody = 1 << 20

// Error codes used in the v1 error envelope.
const (
	CodeInvalidArgument = "invalid_argument"
	CodePayloadTooLarge = "payload_too_large"
	CodeBacklogged      = "backlogged"
	CodeTimeout         = "rebuild_timeout"
	CodeVersionBehind   = "version_behind"
	CodeNotReady        = "not_ready"
	CodeReadOnly        = "read_only"
)

// APIError is the uniform v1 error payload, wrapped as {"error": ...}.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// writeJSON answers v as a JSON body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}

// writeErr answers the uniform v1 error envelope.
func writeErr(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, map[string]APIError{"error": {Code: code, Message: fmt.Sprintf(format, args...)}})
}

// versionGate implements read-your-version on read endpoints, shared by
// leader and follower handlers: a client that just wrote at version V
// against the leader passes version=V so a follower that has not yet
// applied V answers 404 — with the envelope carrying current_version so
// the client can tell lag from a bad URL — instead of silently serving
// stale routes. raw is the request's version parameter: absent always
// passes; requests at or below the current version pass (snapshots are
// immutable, so any version the server has moved past is fully
// contained in the current one).
func versionGate(w http.ResponseWriter, raw string, current uint64) bool {
	if raw == "" {
		return true
	}
	want, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeInvalidArgument, "bad %q parameter: %v", "version", err)
		return false
	}
	if want > current {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck
			"error": APIError{Code: CodeVersionBehind,
				Message: fmt.Sprintf("snapshot version %d not yet visible here", want)},
			"current_version": current,
		})
		return false
	}
	return true
}

// RouteReply is the /v1/route response shape. Dest is the anchor node
// the query resolved to; for prefix- and address-form queries Query
// echoes the input and Matched names the longest-match announcement
// that answered. Forwardable says whether following primary next hops
// from From reaches Dest (then Path is that walk); a routed answer that
// is not forwardable carries the reason in Err and, when the walk came
// back to a node it had visited, that node in LoopAt — the weight is
// still the algebra's optimum, but over walks hop-by-hop forwarding
// cannot realise (DESIGN §4d).
type RouteReply struct {
	From        int    `json:"from"`
	Dest        int    `json:"dest"`
	Query       string `json:"query,omitempty"`
	Matched     string `json:"matched_prefix,omitempty"`
	Routed      bool   `json:"routed"`
	Weight      string `json:"weight,omitempty"`
	ECMP        []int  `json:"ecmp,omitempty"`
	Path        []int  `json:"path,omitempty"`
	Forwardable bool   `json:"forwardable"`
	LoopAt      *int   `json:"loop_at,omitempty"`
	Version     uint64 `json:"snapshot_version"`
	Err         string `json:"error,omitempty"`
}

// routeScratch pools the per-request state of the single-query route
// path: the JSON response buffer (with an encoder bound to it once),
// the parsed dest parameter, the reply (the encoder takes its address,
// which would move a local one to the heap) and the reply's backing
// store. GET /v1/route is the latency-floor endpoint, so its handler
// reuses these across requests instead of allocating an encoder, a
// reply and fresh slices per call.
type routeScratch struct {
	buf   bytes.Buffer
	enc   *json.Encoder
	dest  int
	reply RouteReply
	replyStore
}

var routeScratchPool = sync.Pool{New: func() any {
	rs := &routeScratch{}
	rs.enc = json.NewEncoder(&rs.buf)
	return rs
}}

// writeRouteReply answers rs.reply as a 200 from the pooled buffer —
// byte-identical to writeJSON's encoder output (trailing newline
// included).
func writeRouteReply(w http.ResponseWriter, rs *routeScratch) {
	rs.buf.Reset()
	if err := rs.enc.Encode(&rs.reply); err != nil {
		writeErr(w, http.StatusInternalServerError, CodeInvalidArgument, "encoding reply: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(rs.buf.Bytes()) //nolint:errcheck
}

// PrefixReply is one announcement in the /v1/prefixes listing.
type PrefixReply struct {
	Prefix     string `json:"prefix"`
	Node       int    `json:"node"`
	Suppressed bool   `json:"suppressed,omitempty"`
}

// EventRequest is one event in a POST /v1/events body: either Arc or
// From/To names the link, Kind is "fail" or "up".
type EventRequest struct {
	Arc  *int   `json:"arc,omitempty"`
	From *int   `json:"from,omitempty"`
	To   *int   `json:"to,omitempty"`
	Kind string `json:"kind"`
}

// EventsRequest is the POST /v1/events batch body. Async selects the
// intake queue (coalesced batched application in the background,
// answering 202; a full queue under the reject policy answers 429)
// instead of the default synchronous batched apply. A bare EventRequest
// object is also accepted and treated as a one-event batch.
type EventsRequest struct {
	Events []EventRequest `json:"events"`
	Async  bool           `json:"async,omitempty"`
}

// EventsReply is the POST /v1/events response: how many arcs actually
// toggled, how many raw events coalesced away, how many destination
// columns were recomputed and the snapshot version the batch left
// published — its own swap's, or the head it found when it coalesced to
// nothing — at which every arc it names is in the state it asked for.
// Async intake answers Accepted instead.
type EventsReply struct {
	Applied    int    `json:"applied"`
	Coalesced  int    `json:"coalesced,omitempty"`
	Recomputed int    `json:"recomputed_dests"`
	Version    uint64 `json:"version"`
	Accepted   int    `json:"accepted,omitempty"`
}

// NewHandler returns the leader's HTTP API: newMux's /v1 routes over the
// server's current snapshot, with /v1/events applying events (GET query
// params or POST JSON body, single or batch) and /v1/slowlog listing
// recent slow queries. reg non-nil also mounts /v1/metrics in
// Prometheus text format. The returned mux is open for extension
// (cmd/mrserve mounts pprof on it behind -pprof).
func NewHandler(srv *Server, reg *telemetry.Registry) *http.ServeMux {
	// The leader is always ready: NewServer publishes the first snapshot.
	pin := func(w http.ResponseWriter, version string) batchView {
		sn := srv.snap.Load()
		if !versionGate(w, version, sn.Version) {
			return nil
		}
		return sn
	}
	route := func(queries, loops int) {
		srv.queries.Add(uint64(queries))
		srv.loopAnswers.Add(uint64(loops))
	}
	routes := func(queries, loops int) {
		srv.batchRequests.Add(1)
		srv.batchQueries.Add(uint64(queries))
		route(queries, loops)
	}
	mux := newMux(pin, route, routes, func() any { return srv.Stats() }, eventsHandler(srv), reg)
	mux.HandleFunc("/v1/slowlog", func(w http.ResponseWriter, req *http.Request) {
		slow := srv.SlowQueries()
		if slow == nil {
			slow = []SlowQuery{}
		}
		writeJSON(w, http.StatusOK, slow)
	})
	return mux
}

// newMux mounts the /v1 routes both roles serve, each exactly once. A
// role supplies only what differs: pin resolves the request's version
// parameter to the view it answers from (it writes its own error and
// returns nil when it cannot — a follower is 503 not_ready until
// bootstrapped), route and routes observe each /v1/route and /v1/routes
// request's query and loop counts, stats is the /v1/stats payload and
// events answers /v1/events. reg non-nil mounts /v1/metrics.
func newMux(pin func(w http.ResponseWriter, version string) batchView, route, routes func(queries, loops int),
	stats func() any, events http.HandlerFunc, reg *telemetry.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/route", routeHandler(pin, route))
	mux.HandleFunc("/v1/routes", routesHandler(pin, routes))
	mux.HandleFunc("/v1/paths", func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		v := pin(w, q.Get("version"))
		if v == nil {
			return
		}
		nodes := v.batchNodes()
		dest, err := nodeArg(q, "dest", nodes)
		if err != nil {
			badRequest(w, "want /v1/paths?dest=D: %v", err)
			return
		}
		// Walk the pinned column itself: batchForward would count every
		// walk as a query on the leader.
		c := v.batchColumn(dest)
		type nodePath struct {
			Node int    `json:"node"`
			Path []int  `json:"path,omitempty"`
			Err  string `json:"error,omitempty"`
		}
		out := make([]nodePath, nodes)
		for u := range out {
			out[u].Node = u
			if c == nil {
				out[u].Err = fmt.Sprintf("rib: unknown destination %d", dest)
			} else if path, err := c.Forward(u); err == nil {
				out[u].Path = path
			} else {
				out[u].Err = err.Error()
			}
		}
		writeJSON(w, http.StatusOK, map[string]any{"dest": dest, "version": v.batchVersion(), "paths": out})
	})
	mux.HandleFunc("/v1/prefixes", func(w http.ResponseWriter, req *http.Request) {
		v := pin(w, req.URL.Query().Get("version"))
		if v == nil {
			return
		}
		pt := v.batchPrefixes()
		out := make([]PrefixReply, 0, len(pt.Kept())+len(pt.Suppressed()))
		for _, po := range pt.Kept() {
			out = append(out, PrefixReply{Prefix: po.Prefix.String(), Node: po.Node})
		}
		for _, po := range pt.Suppressed() {
			out = append(out, PrefixReply{Prefix: po.Prefix.String(), Node: po.Node, Suppressed: true})
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"version":       v.batchVersion(),
			"lpm_intervals": pt.LPMIntervals(),
			"prefixes":      out,
		})
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, stats())
	})
	mux.HandleFunc("/v1/events", events)
	if reg != nil {
		mux.HandleFunc("/v1/metrics", reg.Handler().ServeHTTP)
	}
	return mux
}

// badRequest answers a 400 invalid_argument envelope.
func badRequest(w http.ResponseWriter, format string, args ...any) {
	writeErr(w, http.StatusBadRequest, CodeInvalidArgument, format, args...)
}

// intArg reads an integer query parameter from already-parsed values,
// so handlers parse the query string exactly once per request.
func intArg(q url.Values, key string) (int, error) {
	v, err := strconv.Atoi(q.Get(key))
	if err != nil {
		return 0, fmt.Errorf("bad or missing %q parameter", key)
	}
	return v, nil
}

// nodeArg is intArg range-checked against a topology of n nodes: an id
// outside [0, n) can never name a node, so it is a client error, not an
// empty answer.
func nodeArg(q url.Values, key string, n int) (int, error) {
	v, err := intArg(q, key)
	if err != nil {
		return 0, err
	}
	if v < 0 || v >= n {
		return 0, fmt.Errorf("%q = %d out of range [0,%d)", key, v, n)
	}
	return v, nil
}

// eventsHandler is the leader's /v1/events: a POST body (batch or bare
// event) or the GET query form, resolved against the base topology and
// applied as one batch — or, with "async":true, fed to the intake queue.
func eventsHandler(srv *Server) http.HandlerFunc {
	// resolveEvent turns one EventRequest into an ArcEvent, validating
	// kind and arc naming.
	resolveEvent := func(ev EventRequest) (ArcEvent, error) {
		if ev.Kind != "fail" && ev.Kind != "up" {
			return ArcEvent{}, fmt.Errorf("want kind=fail or kind=up")
		}
		switch {
		case ev.Arc != nil:
			if *ev.Arc < 0 || *ev.Arc >= len(srv.base.Arcs) {
				return ArcEvent{}, fmt.Errorf("arc %d out of range [0,%d)", *ev.Arc, len(srv.base.Arcs))
			}
			return ArcEvent{Arc: *ev.Arc, Fail: ev.Kind == "fail"}, nil
		case ev.From != nil && ev.To != nil:
			ai, err := srv.arcByEndpoints(*ev.From, *ev.To)
			if err != nil {
				return ArcEvent{}, err
			}
			return ArcEvent{Arc: ai, Fail: ev.Kind == "fail"}, nil
		}
		return ArcEvent{}, fmt.Errorf("want arc=A or from=U&to=V")
	}
	return func(w http.ResponseWriter, req *http.Request) {
		var batch EventsRequest
		if req.Method == http.MethodPost {
			body := http.MaxBytesReader(w, req.Body, maxEventBody)
			raw, err := io.ReadAll(body)
			if err != nil {
				status, code := http.StatusBadRequest, CodeInvalidArgument
				var tooBig *http.MaxBytesError
				if errors.As(err, &tooBig) {
					status, code = http.StatusRequestEntityTooLarge, CodePayloadTooLarge
				}
				writeErr(w, status, code, "bad events body: %v", err)
				return
			}
			if err := decodeEvents(raw, &batch); err != nil {
				badRequest(w, "bad events body: %v", err)
				return
			}
		} else {
			q := req.URL.Query()
			ev := EventRequest{Kind: q.Get("kind")}
			// A fixed order, so a request with several malformed
			// parameters always names the same one.
			for _, p := range []struct {
				key string
				dst **int
			}{{"arc", &ev.Arc}, {"from", &ev.From}, {"to", &ev.To}} {
				if q.Get(p.key) == "" {
					continue
				}
				v, err := intArg(q, p.key)
				if err != nil {
					badRequest(w, "%v", err)
					return
				}
				*p.dst = &v
			}
			batch.Events = []EventRequest{ev}
		}
		if len(batch.Events) == 0 {
			badRequest(w, "empty event batch")
			return
		}
		events := make([]ArcEvent, len(batch.Events))
		for i, ev := range batch.Events {
			ae, err := resolveEvent(ev)
			if err != nil {
				badRequest(w, "event %d: %v", i, err)
				return
			}
			events[i] = ae
		}
		if batch.Async {
			for i, ev := range events {
				if err := srv.EnqueueEvent(ev); err != nil {
					if errors.Is(err, ErrBacklogged) {
						writeErr(w, http.StatusTooManyRequests, CodeBacklogged,
							"intake queue full after %d of %d events", i, len(events))
						return
					}
					badRequest(w, "event %d: %v", i, err)
					return
				}
			}
			writeJSON(w, http.StatusAccepted, EventsReply{Accepted: len(events), Version: srv.snap.Load().Version})
			return
		}
		// The mutation runs under the client's context, bounded by the
		// server's rebuild deadline when one is configured; a canceled or
		// expired context abandons the recompute and keeps the previous
		// snapshot published.
		ctx, cancel := req.Context(), context.CancelFunc(func() {})
		if d := srv.RebuildTimeout(); d > 0 {
			ctx, cancel = context.WithTimeout(ctx, d)
		}
		defer cancel()
		applied, recomputed, version, err := srv.applyBatch(ctx, events)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				writeErr(w, http.StatusServiceUnavailable, CodeTimeout,
					"batched rebuild abandoned, previous snapshot kept: %v", err)
				return
			}
			badRequest(w, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, EventsReply{
			Applied:    applied,
			Coalesced:  len(events) - applied,
			Recomputed: recomputed,
			Version:    version,
		})
	}
}

// decodeEvents accepts either the batch shape {"events":[...]} or a
// bare single EventRequest object (the historical POST /event body).
func decodeEvents(raw []byte, batch *EventsRequest) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(batch); err == nil && ensureOneJSONValue(dec) == nil {
		if batch.Events != nil {
			return nil
		}
	}
	var single EventRequest
	dec = json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&single); err != nil {
		return err
	}
	if err := ensureOneJSONValue(dec); err != nil {
		return err
	}
	*batch = EventsRequest{Events: []EventRequest{single}}
	return nil
}

// ensureOneJSONValue rejects trailing garbage after the decoded value.
func ensureOneJSONValue(dec *json.Decoder) error {
	if dec.More() {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}
