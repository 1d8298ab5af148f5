package serve

// The follower's HTTP API mirrors the leader's read surface —
// /v1/route, /v1/paths, /v1/prefixes, /v1/stats, /v1/metrics — with
// the same reply shapes, so a load balancer can spread reads across
// replicas without clients caring which role answered. Mutations are
// refused: /v1/events answers 403 read_only (events go to the leader,
// whose swap comes back down the record stream). Until the first full
// snapshot has applied every data endpoint answers 503 not_ready.

import (
	"fmt"
	"net/http"
	"strconv"

	"metarouting/internal/telemetry"
)

// FollowerStats is the /v1/stats shape a follower answers: replication
// progress instead of solver counters, plus the same topology footprint
// fields the leader reports. Role lets clients and smoke tests tell the
// two apart without guessing from field sets.
type FollowerStats struct {
	Role               string `json:"role"`
	SnapshotVersion    uint64 `json:"snapshot_version"`
	Head               uint64 `json:"head"`
	Lag                uint64 `json:"lag"`
	AppliedFull        uint64 `json:"applied_full_records"`
	AppliedDelta       uint64 `json:"applied_delta_records"`
	StaleSkipped       uint64 `json:"stale_records_skipped"`
	ApplyErrors        uint64 `json:"apply_errors"`
	LoopAnswers        uint64 `json:"loop_answers"`
	Nodes              int    `json:"nodes"`
	Destinations       int    `json:"destinations"`
	DisabledArcs       int    `json:"disabled_arcs"`
	Unconverged        int    `json:"unconverged_destinations"`
	ArenaBytes         int    `json:"arena_bytes"`
	LiveEntries        int    `json:"live_entries"`
	Prefixes           int    `json:"prefixes"`
	SuppressedPrefixes int    `json:"suppressed_prefixes"`
	TrieNodes          int    `json:"trie_nodes"`
	Checksum           string `json:"checksum"`
}

// NewFollowerHandler returns the follower's HTTP API; reg non-nil also
// mounts /v1/metrics. The unversioned aliases are not mounted —
// followers are new surface with no legacy clients.
func NewFollowerHandler(f *Follower, reg *telemetry.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	badRequest := func(w http.ResponseWriter, format string, args ...any) {
		writeErr(w, http.StatusBadRequest, CodeInvalidArgument, format, args...)
	}
	// ready gates data endpoints on bootstrap and read-your-version,
	// given the request's version parameter.
	ready := func(w http.ResponseWriter, version string) *followerView {
		v := f.view()
		if v == nil {
			writeErr(w, http.StatusServiceUnavailable, CodeNotReady,
				"follower has not applied a full snapshot yet")
			return nil
		}
		if !versionGateValue(w, version, v.state.Version) {
			return nil
		}
		return v
	}
	nodeArg := func(req *http.Request, key string, n int) (int, error) {
		v, err := strconv.Atoi(req.URL.Query().Get(key))
		if err != nil {
			return 0, fmt.Errorf("bad or missing %q parameter", key)
		}
		if v < 0 || v >= n {
			return 0, fmt.Errorf("%q = %d out of range [0,%d)", key, v, n)
		}
		return v, nil
	}

	// The route endpoints are read-only by construction, so followers
	// serve them at full parity with the leader (same handler cores).
	// The explicit nil return matters: a nil *followerView wrapped in
	// the interface would defeat the handlers' nil check.
	pin := func(w http.ResponseWriter, version string) batchView {
		if v := ready(w, version); v != nil {
			return v
		}
		return nil
	}
	countLoops := func(_, loops int) { f.loopAnswers.Add(uint64(loops)) }
	mux.HandleFunc("/v1/route", routeHandler(pin, countLoops))
	mux.HandleFunc("/v1/routes", routesHandler(pin, countLoops))

	mux.HandleFunc("/v1/paths", func(w http.ResponseWriter, req *http.Request) {
		v := ready(w, req.URL.Query().Get("version"))
		if v == nil {
			return
		}
		st := v.state
		dest, err := nodeArg(req, "dest", st.Nodes)
		if err != nil {
			badRequest(w, "want /v1/paths?dest=D: %v", err)
			return
		}
		c := st.Cols[dest]
		type nodePath struct {
			Node int    `json:"node"`
			Path []int  `json:"path,omitempty"`
			Err  string `json:"error,omitempty"`
		}
		var out []nodePath
		for u := 0; u < st.Nodes; u++ {
			np := nodePath{Node: u}
			if c == nil {
				np.Err = fmt.Sprintf("rib: unknown destination %d", dest)
			} else if path, err := c.Forward(u); err == nil {
				np.Path = path
			} else {
				np.Err = err.Error()
			}
			out = append(out, np)
		}
		writeJSON(w, http.StatusOK, map[string]any{"dest": dest, "version": st.Version, "paths": out})
	})

	mux.HandleFunc("/v1/prefixes", func(w http.ResponseWriter, req *http.Request) {
		v := ready(w, req.URL.Query().Get("version"))
		if v == nil {
			return
		}
		pt := v.pt
		out := make([]PrefixReply, 0, len(pt.Kept())+len(pt.Suppressed()))
		for _, po := range pt.Kept() {
			out = append(out, PrefixReply{Prefix: po.Prefix.String(), Node: po.Node})
		}
		for _, po := range pt.Suppressed() {
			out = append(out, PrefixReply{Prefix: po.Prefix.String(), Node: po.Node, Suppressed: true})
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"version":    v.state.Version,
			"trie_nodes": pt.TrieNodes(),
			"prefixes":   out,
		})
	})

	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, f.StatsReply())
	})

	mux.HandleFunc("/v1/events", func(w http.ResponseWriter, req *http.Request) {
		writeErr(w, http.StatusForbidden, CodeReadOnly,
			"follower is read-only; send events to the leader")
	})

	if reg != nil {
		metrics := reg.Handler()
		mux.HandleFunc("/v1/metrics", func(w http.ResponseWriter, req *http.Request) {
			metrics.ServeHTTP(w, req)
		})
	}
	return mux
}

// StatsReply assembles the follower's /v1/stats payload.
func (f *Follower) StatsReply() FollowerStats {
	fs := FollowerStats{
		Role:            "follower",
		SnapshotVersion: f.Version(),
		Head:            f.Head(),
		Lag:             f.Lag(),
		AppliedFull:     f.appliedFull.Load(),
		AppliedDelta:    f.appliedDelta.Load(),
		StaleSkipped:    f.staleSkipped.Load(),
		ApplyErrors:     f.applyErrors.Load(),
		LoopAnswers:     f.loopAnswers.Load(),
	}
	v := f.view()
	if v == nil {
		return fs
	}
	st := v.state
	fs.Nodes = st.Nodes
	fs.Destinations = len(st.Cols)
	fs.DisabledArcs = st.DisabledArcs
	fs.Unconverged = len(st.Unconverged)
	for _, c := range st.Cols {
		fs.ArenaBytes += c.Bytes()
		fs.LiveEntries += c.Live()
	}
	fs.Prefixes = v.pt.Len()
	fs.SuppressedPrefixes = len(v.pt.Suppressed())
	fs.TrieNodes = v.pt.TrieNodes()
	fs.Checksum = fmt.Sprintf("%08x", st.Checksum())
	return fs
}
