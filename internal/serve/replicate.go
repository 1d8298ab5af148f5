package serve

// This file is the leader side of snapshot replication: every snapshot
// swap is encoded as a replica record — a full snapshot for the initial
// build and explicit rebuilds, a delta touched-entry set for event
// batches — and handed to the configured RecordSink (the replica
// package's publisher, or anything else that wants the stream).
//
// The delta records lean on the same canonical-layout invariant the
// arena columns already maintain: every column builder fills slots in
// ascending node order and appends each slot's ECMP span contiguously
// (per page, in the paged layout), so a column's bytes are a pure
// function of its per-node route content. A follower that patches only
// the changed slots and re-lays the pages holding them in the same
// order therefore reproduces the leader's column byte for byte — which
// is what the differential storm test asserts at every version.
//
// This file never compares two columns. The changed-slot list a delta
// record carries is computed once per swap by the rebuild that wrote
// the slots (buildDests, in the pool workers) and arrives here ready to
// wrap: only redo-marked slots were compared — a slot the rebuild
// transplanted is bit-identical to its predecessor by the page-local
// canonical layout and cannot have changed — next-hop sets alias the new
// column's immutable pages rather than being copied, and a list stops
// materialising at n/2+1 patches, the point past which the column ships
// whole anyway. The encoder that found the changes by scanning lives on
// in oracle_test.go, where every differential storm checks each swap's
// frame against it byte for byte.
//
// Weights cross the wire as formatted strings, not engine indices
// alone: dynamic-backend intern tables assign indices in arrival
// order, which differs across processes, so a follower can never
// resolve an index against its own engine. The leader instead ships a
// names table (index → value.Format string) that grows monotonically
// with the record stream, guarded by s.mu like everything else on the
// publish path.

import (
	"encoding/binary"
	"hash/fnv"

	"metarouting/internal/graph"
	"metarouting/internal/replica"
	"metarouting/internal/rib"
	"metarouting/internal/solve"
	"metarouting/internal/value"
)

// RecordSink consumes the leader's replication record stream: one
// framed record per snapshot swap, called under the server's writer
// lock (so implementations must not call back into the server).
// replica.Publisher implements it.
type RecordSink interface {
	PublishRecord(version uint64, frame []byte) error
}

// LogRotator is the optional size-based rotation surface a RecordSink
// may implement (replica.Publisher does when a byte cap is set). After
// each published record the leader asks RotateDue; when the sink's
// active log segment has outgrown its cap, the leader hands it a
// freshly encoded full frame of the just-published snapshot to seed
// the next segment, so every segment replays from its own checkpoint.
// Both calls happen under the server's writer lock, like
// PublishRecord.
type LogRotator interface {
	RotateDue() bool
	RotateLog(version uint64, full []byte) error
}

// WithReplication streams every snapshot swap into sink as a framed
// replica record. The initial build and every Rebuild publish full
// snapshots; event batches publish deltas carrying only the touched
// entries.
func WithReplication(sink RecordSink) Option {
	return optionFunc(func(c *config) { c.sink = sink })
}

// fingerprintGraph digests the base topology — node count plus every
// arc's endpoints and label — so followers can refuse to mix record
// streams from different leaders.
func fingerprintGraph(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(g.N))
	put(uint64(len(g.Arcs)))
	for _, a := range g.Arcs {
		put(uint64(a.From))
		put(uint64(a.To))
		put(uint64(a.Label))
	}
	return h.Sum64()
}

// Fingerprint identifies the server's base topology on the wire.
func (s *Server) Fingerprint() uint64 { return s.fingerprint }

// Checksum digests the published snapshot's routing content (columns +
// disabled mask). A caught-up follower at the same version reports the
// identical value — the CI leader/follower smoke compares exactly
// this.
func (s *Server) Checksum() uint32 {
	sn := s.snap.Load()
	return replica.Checksum(sn.Disabled, sn.cols)
}

// EncodeFull encodes the current snapshot as a framed full record —
// the bootstrap source a replica.Publisher calls for subscribers too
// far behind its ring. It takes the writer lock so the snapshot and
// the names watermark are read consistently; sinks are called with
// that lock held and must not call back in (replica.Publisher calls
// this outside its own mutex for the same reason).
func (s *Server) EncodeFull() (uint64, []byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sn := s.snap.Load()
	return sn.Version, s.encodeFullLocked(sn), nil
}

// encodeFullLocked encodes sn as a full record. Callers hold s.mu.
func (s *Server) encodeFullLocked(sn *Snapshot) []byte {
	// The names watermark normally already covers every index the
	// columns reference (each publish advances it); advancing here too
	// keeps the invariant even for the very first record.
	required := 0
	for _, d := range s.dests {
		required = maxColWeight(sn.cols[d], required-1) + 1
	}
	if required > s.nameCount {
		s.nameCount = required
	}
	names := make([]string, s.nameCount)
	for i := range names {
		names[i] = value.Format(s.eng.Value(int32(i)))
	}
	f := &replica.Full{
		Version:     sn.Version,
		Fingerprint: s.fingerprint,
		Nodes:       s.base.N,
		Disabled:    sn.Disabled,
		Unconverged: sn.Unconverged,
		Names:       names,
		Kept:        toAnnouncements(s.prefixes.Kept()),
		Suppressed:  toAnnouncements(s.prefixes.Suppressed()),
		Columns:     make([]*rib.Column, 0, len(s.dests)),
	}
	for _, d := range s.dests {
		f.Columns = append(f.Columns, sn.cols[d].Flatten())
	}
	return replica.EncodeFull(f)
}

// encodeDeltaLocked encodes the prev→sn swap as a delta record from the
// change lists the rebuilds produced against prev (buildDests diffs
// every rebuild of an event batch when a sink is configured), each
// wrapped into a replica.ColumnDiff as is. A destination whose diff
// exceeds half its slots ships as a full scratch column instead (its
// capped list is dropped); one whose content did not change at all
// ships nothing (the follower keeps sharing its previous column, which
// is byte-identical by the canonical-layout argument). Destinations the
// swap did not rebuild are shared by pointer and never appear in built.
// Callers hold s.mu.
func (s *Server) encodeDeltaLocked(prev, sn *Snapshot, toggles []ArcEvent, built []rebuilt) []byte {
	d := &replica.Delta{
		FromVersion: prev.Version,
		Version:     sn.Version,
		Fingerprint: s.fingerprint,
		Toggles:     make([]solve.ArcToggle, len(toggles)),
		Unconverged: sn.Unconverged,
	}
	for i, t := range toggles {
		d.Toggles[i] = solve.ArcToggle{Arc: t.Arc, Down: t.Fail}
	}
	maxW := -1
	for i := range built { // ascending by destination, like s.dests
		r := &built[i]
		if r.changed > r.col.NumNodes()/2 {
			d.Scratch = append(d.Scratch, r.col.Flatten())
			maxW = maxColWeight(r.col, maxW)
			continue
		}
		if r.changed == 0 && r.col.IsConverged() == prev.cols[r.dest].IsConverged() {
			continue
		}
		for j := range r.changes {
			if ch := &r.changes[j]; ch.Routed && int(ch.W) > maxW {
				maxW = int(ch.W)
			}
		}
		d.Diffs = append(d.Diffs, replica.ColumnDiff{Dest: r.dest, Converged: r.col.IsConverged(), Changes: r.changes})
	}
	d.NameBase = s.nameCount
	if maxW+1 > s.nameCount {
		d.NamesTail = make([]string, 0, maxW+1-s.nameCount)
		for i := s.nameCount; i <= maxW; i++ {
			d.NamesTail = append(d.NamesTail, value.Format(s.eng.Value(int32(i))))
		}
		s.nameCount = maxW + 1
	}
	return replica.EncodeDelta(d)
}

// maxColWeight folds a column's routed weight indices into a running
// maximum.
func maxColWeight(c rib.Col, cur int) int {
	n := c.NumNodes()
	for u := 0; u < n; u++ {
		if w, ok := c.Route(u); ok && int(w) > cur {
			cur = int(w)
		}
	}
	return cur
}

func toAnnouncements(pos []rib.PrefixOrigin) []replica.Announcement {
	out := make([]replica.Announcement, len(pos))
	for i, po := range pos {
		out[i] = replica.Announcement{Prefix: po.Prefix, Node: po.Node}
	}
	return out
}

// replicate encodes and ships the cur→sn swap. Callers hold s.mu;
// toggles==nil (initial build, explicit rebuild) ships a full record.
func (s *Server) replicate(cur, sn *Snapshot, toggles []ArcEvent, built []rebuilt) {
	if s.sink == nil {
		return
	}
	var frame []byte
	if toggles == nil || cur == nil {
		frame = s.encodeFullLocked(sn)
		s.repFull.Add(1)
	} else {
		frame = s.encodeDeltaLocked(cur, sn, toggles, built)
		s.repDelta.Add(1)
	}
	if s.repBytes != nil {
		s.repBytes.Observe(int64(len(frame)))
	}
	if err := s.sink.PublishRecord(sn.Version, frame); err != nil {
		s.repErrors.Add(1)
	}
	// Size-based log rotation: the new segment is seeded with a full
	// checkpoint of the snapshot just published, so it replays on its
	// own. Safe here because s.mu is already held — the sink must not
	// call back into the server, so the rotation driver lives on the
	// leader side.
	if r, ok := s.sink.(LogRotator); ok && r.RotateDue() {
		if err := r.RotateLog(sn.Version, s.encodeFullLocked(sn)); err != nil {
			s.repErrors.Add(1)
		}
	}
}
