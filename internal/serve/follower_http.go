package serve

// The follower's HTTP API is the leader's read surface — /v1/route,
// /v1/routes, /v1/paths, /v1/prefixes, /v1/stats, /v1/metrics — mounted
// by the same newMux, so a load balancer can spread reads across
// replicas without clients caring which role answered. Mutations are
// refused: /v1/events answers 403 read_only (events go to the leader,
// whose swap comes back down the record stream). Until the first full
// snapshot has applied every data endpoint answers 503 not_ready.

import (
	"fmt"
	"net/http"

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
	LPMIntervals       int    `json:"lpm_intervals"`
	Checksum           string `json:"checksum"`
}

// NewFollowerHandler returns the follower's HTTP API: newMux's /v1
// routes over the replicated view, answering 503 not_ready until the
// first full snapshot has applied, with /v1/events refused (403
// read_only). reg non-nil also mounts /v1/metrics.
func NewFollowerHandler(f *Follower, reg *telemetry.Registry) *http.ServeMux {
	// The explicit nil return matters: a nil *followerView wrapped in the
	// interface would defeat the handlers' nil check.
	pin := func(w http.ResponseWriter, version string) batchView {
		v := f.view()
		if v == nil {
			writeErr(w, http.StatusServiceUnavailable, CodeNotReady,
				"follower has not applied a full snapshot yet")
			return nil
		}
		if !versionGate(w, version, v.state.Version) {
			return nil
		}
		return v
	}
	countLoops := func(_, loops int) { f.loopAnswers.Add(uint64(loops)) }
	readOnly := func(w http.ResponseWriter, req *http.Request) {
		writeErr(w, http.StatusForbidden, CodeReadOnly,
			"follower is read-only; send events to the leader")
	}
	return newMux(pin, countLoops, countLoops, func() any { return f.StatsReply() }, readOnly, reg)
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
	fs.DisabledArcs = st.Disabled.Count()
	fs.Unconverged = len(st.Unconverged)
	for _, c := range st.Cols {
		fs.ArenaBytes += c.Bytes()
		fs.LiveEntries += c.Live()
	}
	fs.Prefixes = v.pt.Len()
	fs.SuppressedPrefixes = len(v.pt.Suppressed())
	fs.LPMIntervals = v.pt.LPMIntervals()
	fs.Checksum = fmt.Sprintf("%08x", st.Checksum())
	return fs
}
