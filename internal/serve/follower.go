package serve

// This file is the read-replica side of snapshot replication: a
// Follower consumes the leader's record stream (over TCP via
// replica.Subscribe, or straight from an event-log file) and publishes
// each applied version as an atomically swapped view, so read queries
// are as lock-free on a follower as they are on the leader. Followers
// never solve: they only decode, patch columns, and swap.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"metarouting/internal/replica"
	"metarouting/internal/rib"
	"metarouting/internal/telemetry"
)

// followerView is one applied replica version: the decoded state plus
// the restored prefix table. Immutable once stored.
type followerView struct {
	state *replica.State
	pt    *rib.PrefixTable
}

// Follower applies a leader's replica record stream and serves reads
// from the resulting snapshots. Apply is single-writer (guarded by mu —
// the subscribe loop or the log replayer); readers load the current
// view atomically and never block.
type Follower struct {
	mu  sync.Mutex
	cur atomic.Pointer[followerView]
	// head is the highest version observed in the stream, even if its
	// record was skipped as stale — the lag gauge reads head - version.
	head atomic.Uint64

	appliedFull  telemetry.Counter
	appliedDelta telemetry.Counter
	staleSkipped telemetry.Counter
	applyErrors  telemetry.Counter
	loopAnswers  telemetry.Counter
	recordBytes  *telemetry.Histogram
}

// NewFollower builds an empty follower and, when reg is non-nil,
// registers its replication metrics.
func NewFollower(reg *telemetry.Registry) *Follower {
	f := &Follower{recordBytes: telemetry.NewHistogram(recordByteBuckets)}
	if reg != nil {
		reg.AddGaugeFunc("mrserve_replica_version", "Snapshot version this follower serves.",
			func() float64 { return float64(f.Version()) })
		reg.AddGaugeFunc("mrserve_replica_head", "Highest record version observed in the stream.",
			func() float64 { return float64(f.head.Load()) })
		reg.AddGaugeFunc("mrserve_replica_lag", "Records observed but not yet applied (head - version).",
			func() float64 { return float64(f.Lag()) })
		reg.AddCounter(`mrserve_replica_applied_records_total{kind="full"}`,
			"Replica records applied, by kind.", &f.appliedFull)
		reg.AddCounter(`mrserve_replica_applied_records_total{kind="delta"}`, "", &f.appliedDelta)
		reg.AddCounter("mrserve_replica_stale_records_total",
			"Records skipped because their version was already applied (bootstrap overlap).", &f.staleSkipped)
		reg.AddCounter("mrserve_replica_apply_errors_total",
			"Records that failed to apply (stream gaps, fingerprint mismatches, decode errors).", &f.applyErrors)
		reg.AddHistogram("mrserve_replica_record_bytes",
			"Framed replication record size on the wire.", f.recordBytes, 1)
		reg.AddCounter("mrserve_loop_answers_total", loopAnswersHelp, &f.loopAnswers)
	}
	return f
}

// Apply decodes-and-applies one replica record. A stale record (version
// at or below the applied one — the overlap between a full bootstrap
// and buffered deltas) is skipped silently; a delta arriving before any
// full snapshot, or one whose FromVersion does not chain onto the
// applied version, is an error — the caller (replica.Subscribe's apply
// hook) reports it and the client re-bootstraps from a full snapshot.
func (f *Follower) Apply(rec *replica.Record) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if v := rec.Version(); v > f.head.Load() {
		f.head.Store(v)
	}
	cur := f.cur.Load()
	switch rec.Kind {
	case replica.KindFull:
		if cur != nil && rec.Full.Version <= cur.state.Version {
			f.staleSkipped.Add(1)
			return nil
		}
		if cur != nil && rec.Full.Fingerprint != cur.state.Fingerprint {
			f.applyErrors.Add(1)
			return fmt.Errorf("serve: full record fingerprint %016x does not match follower %016x",
				rec.Full.Fingerprint, cur.state.Fingerprint)
		}
		st, err := replica.ApplyFull(rec.Full)
		if err != nil {
			f.applyErrors.Add(1)
			return err
		}
		// Announcements travel only in full records, so only a full
		// restores the prefix table; deltas carry it over below.
		pt := rib.RestorePrefixTable(toOrigins(st.Kept), toOrigins(st.Suppressed))
		f.cur.Store(&followerView{state: st, pt: pt})
		f.appliedFull.Add(1)
	case replica.KindDelta:
		if cur == nil {
			f.applyErrors.Add(1)
			return fmt.Errorf("serve: delta record v%d before any full snapshot", rec.Delta.Version)
		}
		st, err := replica.ApplyDelta(cur.state, rec.Delta)
		if err != nil {
			f.applyErrors.Add(1)
			return err
		}
		if st == nil {
			f.staleSkipped.Add(1)
			return nil
		}
		f.cur.Store(&followerView{state: st, pt: cur.pt})
		f.appliedDelta.Add(1)
	default:
		f.applyErrors.Add(1)
		return fmt.Errorf("serve: record kind %d is not applicable", rec.Kind)
	}
	f.recordBytes.Observe(int64(rec.WireBytes))
	return nil
}

func toOrigins(as []replica.Announcement) []rib.PrefixOrigin {
	// Origins stay zero: a follower never re-solves, it only maps
	// longest-match hits onto replicated columns.
	out := make([]rib.PrefixOrigin, len(as))
	for i, a := range as {
		out[i] = rib.PrefixOrigin{Prefix: a.Prefix, Node: a.Node}
	}
	return out
}

// view returns the served view, nil before the first full snapshot.
func (f *Follower) view() *followerView { return f.cur.Load() }

// Version returns the applied snapshot version (0 before bootstrap).
func (f *Follower) Version() uint64 {
	if v := f.cur.Load(); v != nil {
		return v.state.Version
	}
	return 0
}

// Head returns the highest record version observed in the stream.
func (f *Follower) Head() uint64 { return f.head.Load() }

// Lag returns how far the applied version trails the observed head.
func (f *Follower) Lag() uint64 {
	if h, v := f.head.Load(), f.Version(); h > v {
		return h - v
	}
	return 0
}

// Checksum digests the applied snapshot's routing content; it equals
// the leader's Checksum at the same version.
func (f *Follower) Checksum() uint32 {
	if v := f.cur.Load(); v != nil {
		return v.state.Checksum()
	}
	return 0
}

// State returns the applied replica state (nil before bootstrap).
func (f *Follower) State() *replica.State {
	if v := f.cur.Load(); v != nil {
		return v.state
	}
	return nil
}
