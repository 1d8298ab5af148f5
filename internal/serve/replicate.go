package serve

// This file is the leader side of snapshot replication: every snapshot
// swap is encoded as a replica record — a full snapshot for the initial
// build and explicit rebuilds, a delta touched-entry set for event
// batches — and handed to the configured RecordSink (the replica
// package's publisher, or anything else that wants the stream).
//
// The delta records lean on the same canonical-layout invariant the
// paged columns already maintain: every column builder fills slots in
// ascending node order and appends each slot's ECMP span contiguously
// within its page, so a column's bytes are a pure
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
// with the record stream: the server keeps it (s.names) and appends to
// it under s.mu, like everything else on the publish path, so a full
// record ships the table as it stands and a delta ships the tail it
// just added.

import (
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
// arc's endpoints and label, each as a little-endian u64 fed to FNV-64a
// (hash/fnv's New64a; the value is compared by followers and stored in
// logs, so it is pinned by a golden test) — so followers can refuse to
// mix record streams from different leaders.
func fingerprintGraph(g *graph.Graph) uint64 {
	h := fnvWord(fnvWord(fnvOffset64, uint64(g.N)), uint64(len(g.Arcs)))
	for _, a := range g.Arcs {
		h = fnvWord(fnvWord(fnvWord(h, uint64(a.From)), uint64(a.To)), uint64(a.Label))
	}
	return h
}

// FNV-64a's parameters, and the prime's powers for folding runs of zero
// bytes.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

var fnvPrimePow = func() (p [9]uint64) {
	p[0] = 1
	for i := 1; i < len(p); i++ {
		p[i] = p[i-1] * fnvPrime64
	}
	return p
}()

// fnvWord folds v's eight little-endian bytes into h exactly as FNV-64a
// does one byte at a time. The hash is a serial multiply per byte — that
// chain, not the 1.2 M Writes it used to arrive in, is what a 100k-node
// fingerprint costs — but a zero byte only multiplies (h ^ 0 = h), so
// the zero bytes above v's top set byte fold into one multiplication by
// a power of the prime; node indices and labels are small, which makes
// that most of the bytes.
func fnvWord(h, v uint64) uint64 {
	zeros := 8
	for ; v != 0; v >>= 8 {
		h = (h ^ v&0xff) * fnvPrime64
		zeros--
	}
	return h * fnvPrimePow[zeros]
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
// far behind its ring. The writer lock is held only to pin the snapshot
// together with the names table as it stood when that snapshot was
// published; the encoding itself runs outside it, so a late joiner
// never stalls a swap. The pinned pair is a consistent record: names
// are only ever appended, under the lock, by the publish that needs
// them, so the prefix covers every weight the snapshot references, and
// the next delta's NameBase — the table's length at that publish — can
// only be at or past it, which is the overlap ApplyDelta accepts.
func (s *Server) EncodeFull() (uint64, []byte, error) {
	s.mu.Lock()
	sn, names := s.snap.Load(), s.names[:len(s.names):len(s.names)]
	s.mu.Unlock()
	cols := s.sortedCols(sn)
	if s.sink == nil {
		// No publish maintains the table without a sink; cover the
		// shortfall in this record alone (the capped slice makes the
		// append a copy).
		names = s.appendNames(names, maxWeight(cols))
	}
	return sn.Version, s.encodeFull(sn, cols, names), nil
}

// sortedCols returns sn's columns ascending by destination, the order
// the codec writes them in.
func (s *Server) sortedCols(sn *Snapshot) []*rib.PagedColumn {
	cols := make([]*rib.PagedColumn, len(s.dests))
	for i, d := range s.dests {
		cols[i] = sn.cols[d]
	}
	return cols
}

// maxWeight returns the largest weight index the columns reference, -1
// when nothing is routed.
func maxWeight(cols []*rib.PagedColumn) int {
	maxW := -1
	for _, c := range cols {
		maxW = c.MaxWeight(maxW)
	}
	return maxW
}

// appendNames extends a weight-names table (index → value.Format
// string) to cover index maxW.
func (s *Server) appendNames(names []string, maxW int) []string {
	for i := len(names); i <= maxW; i++ {
		names = append(names, value.Format(s.eng.Value(int32(i))))
	}
	return names
}

// encodeFull encodes sn, whose columns are cols, as a full record
// carrying names, which must cover every weight index cols reference.
// It reads nothing a swap mutates, so it needs no lock.
func (s *Server) encodeFull(sn *Snapshot, cols []*rib.PagedColumn, names []string) []byte {
	return replica.EncodeFull(&replica.Full{
		Version:     sn.Version,
		Fingerprint: s.fingerprint,
		Nodes:       s.base.N,
		Disabled:    sn.Disabled,
		Unconverged: sn.Unconverged,
		Names:       names,
		Kept:        toAnnouncements(s.prefixes.Kept()),
		Suppressed:  toAnnouncements(s.prefixes.Suppressed()),
		Columns:     cols,
	})
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
		if r.changed > r.col.N/2 {
			d.Scratch = append(d.Scratch, r.col)
			maxW = r.col.MaxWeight(maxW)
			continue
		}
		if r.changed == 0 && r.col.Converged == prev.cols[r.dest].Converged {
			continue
		}
		for j := range r.changes {
			if ch := &r.changes[j]; ch.Routed && int(ch.W) > maxW {
				maxW = int(ch.W)
			}
		}
		d.Diffs = append(d.Diffs, replica.ColumnDiff{Dest: r.dest, Converged: r.col.Converged, Changes: r.changes})
	}
	d.NameBase = len(s.names)
	s.names = s.appendNames(s.names, maxW)
	d.NamesTail = s.names[d.NameBase:]
	return replica.EncodeDelta(d)
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
	var cols []*rib.PagedColumn // sn's, once a full record has needed them
	if toggles == nil || cur == nil {
		// Every column may be new: bring the names table up to the
		// snapshot before encoding it.
		cols = s.sortedCols(sn)
		s.names = s.appendNames(s.names, maxWeight(cols))
		frame = s.encodeFull(sn, cols, s.names)
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
		if cols == nil {
			cols = s.sortedCols(sn)
		}
		if err := r.RotateLog(sn.Version, s.encodeFull(sn, cols, s.names)); err != nil {
			s.repErrors.Add(1)
		}
	}
}
