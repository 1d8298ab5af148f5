package replica

import (
	"fmt"
	"hash/crc32"
	"slices"
	"sort"

	"metarouting/internal/rib"
)

// State is a follower's materialized view of the leader's snapshot at
// one version. It is immutable once built: applying a record produces a
// fresh State that shares every untouched column — and, inside a patched
// column, every untouched page — with its predecessor, mirroring the
// leader's own copy-on-write snapshot discipline.
type State struct {
	Version     uint64
	Fingerprint uint64
	Nodes       int
	Disabled    []bool
	// DisabledArcs counts the set bits of Disabled — counted once per
	// full record, then carried across deltas by their toggles, so a
	// stats read never scans the mask.
	DisabledArcs int
	Unconverged  []int
	Names        []string
	Kept         []Announcement
	Suppressed   []Announcement
	// Cols maps destination → column in the leader's paged form, sharing
	// columns and pages across versions. Columns hold routing content
	// only: the leader's Clean certificate licenses its delta solver, is
	// not on the wire or in the checksum, and has no reader here, so it
	// stays false.
	Cols map[int]*rib.PagedColumn
}

// ApplyFull materializes a full snapshot record into a State. The
// record's columns are adopted as they are — the decoder laid them out
// in the leader's paged form already — so the state shares their pages.
func ApplyFull(f *Full) (*State, error) {
	st := &State{
		Version:     f.Version,
		Fingerprint: f.Fingerprint,
		Nodes:       f.Nodes,
		Disabled:    append([]bool(nil), f.Disabled...),
		Unconverged: append([]int(nil), f.Unconverged...),
		Names:       append([]string(nil), f.Names...),
		Kept:        append([]Announcement(nil), f.Kept...),
		Suppressed:  append([]Announcement(nil), f.Suppressed...),
		Cols:        make(map[int]*rib.PagedColumn, len(f.Columns)),
	}
	for _, down := range st.Disabled {
		if down {
			st.DisabledArcs++
		}
	}
	for _, c := range f.Columns {
		if c.N != f.Nodes {
			return nil, fmt.Errorf("replica: column %d has %d slots, snapshot has %d nodes", c.Dest, c.N, f.Nodes)
		}
		if _, dup := st.Cols[c.Dest]; dup {
			return nil, fmt.Errorf("replica: duplicate column for destination %d", c.Dest)
		}
		st.Cols[c.Dest] = c
	}
	return st, nil
}

// ApplyDelta applies a delta record on top of cur, returning the new
// State. A stale delta (Version ≤ cur.Version — the publisher ring can
// replay across a resubscribe) returns (nil, nil): skip, no error. A
// gap (FromVersion ≠ cur.Version) or fingerprint mismatch errors; the
// caller is expected to fall back to a full bootstrap.
func ApplyDelta(cur *State, d *Delta) (*State, error) {
	if cur == nil {
		return nil, fmt.Errorf("replica: delta %d→%d before any full snapshot", d.FromVersion, d.Version)
	}
	if d.Version <= cur.Version {
		return nil, nil
	}
	if d.FromVersion != cur.Version {
		return nil, fmt.Errorf("replica: delta applies to version %d, state is at %d", d.FromVersion, cur.Version)
	}
	if d.Fingerprint != cur.Fingerprint {
		return nil, fmt.Errorf("replica: delta fingerprint %016x does not match state %016x", d.Fingerprint, cur.Fingerprint)
	}
	if d.NameBase > len(cur.Names) {
		return nil, fmt.Errorf("replica: delta name base %d beyond known %d names", d.NameBase, len(cur.Names))
	}
	st := &State{
		Version:      d.Version,
		Fingerprint:  cur.Fingerprint,
		Nodes:        cur.Nodes,
		Disabled:     append([]bool(nil), cur.Disabled...),
		DisabledArcs: cur.DisabledArcs,
		Unconverged:  append([]int(nil), d.Unconverged...),
		Names:        cur.Names,
		Kept:         cur.Kept,
		Suppressed:   cur.Suppressed,
		Cols:         make(map[int]*rib.PagedColumn, len(cur.Cols)),
	}
	// The names table is append-only on the leader; the delta tail may
	// overlap what a full bootstrap already carried, so only append the
	// genuinely new suffix.
	if end := d.NameBase + len(d.NamesTail); end > len(cur.Names) {
		st.Names = append(append([]string(nil), cur.Names...), d.NamesTail[len(cur.Names)-d.NameBase:]...)
	}
	for _, t := range d.Toggles {
		if t.Arc < 0 || t.Arc >= len(st.Disabled) {
			return nil, fmt.Errorf("replica: toggle arc %d out of range [0,%d)", t.Arc, len(st.Disabled))
		}
		if st.Disabled[t.Arc] != t.Down {
			st.Disabled[t.Arc] = t.Down
			if t.Down {
				st.DisabledArcs++
			} else {
				st.DisabledArcs--
			}
		}
	}
	for dest, c := range cur.Cols {
		st.Cols[dest] = c
	}
	for _, c := range d.Scratch {
		if c.N != st.Nodes {
			return nil, fmt.Errorf("replica: scratch column %d has %d slots, state has %d nodes", c.Dest, c.N, st.Nodes)
		}
		if _, known := cur.Cols[c.Dest]; !known {
			return nil, fmt.Errorf("replica: scratch column for unknown destination %d", c.Dest)
		}
		st.Cols[c.Dest] = c
	}
	// Each diff clones only the pages holding a changed slot; the page
	// re-lay is canonical, so the patched column flattens to the leader's
	// bytes (DESIGN.md §6). A malformed diff — unknown destination, node
	// or next hop out of range, a routed node left without a next hop —
	// errors here, before any reader can walk it.
	for i := range d.Diffs {
		diff := &d.Diffs[i]
		prev := cur.Cols[diff.Dest]
		if prev == nil {
			return nil, fmt.Errorf("replica: diff for unknown destination %d", diff.Dest)
		}
		nc, err := prev.Patch(diff.Converged, diff.Changes)
		if err != nil {
			return nil, fmt.Errorf("replica: diff for destination %d: %w", diff.Dest, err)
		}
		st.Cols[diff.Dest] = nc
	}
	return st, nil
}

// WeightName renders weight index w from the state's name table, or
// "?" when the index is beyond what the stream has carried so far.
func (s *State) WeightName(w int32) string {
	if w < 0 || int(w) >= len(s.Names) {
		return "?"
	}
	return s.Names[w]
}

// Checksum digests the routing content of a snapshot — every column in
// ascending destination order, in its flat wire layout, plus the
// disabled mask — with CRC32. The leader and a caught-up follower at the
// same version must agree, whichever column layout each holds; the CI
// smoke compares exactly this value across the two processes.
func Checksum[C rib.Col](disabled []bool, cols map[int]C) uint32 {
	dests := make([]int, 0, len(cols))
	for d := range cols {
		dests = append(dests, d)
	}
	sort.Ints(dests)
	var w wbuf
	w.bits(disabled)
	crc := crc32.ChecksumIEEE(w.b)
	for _, d := range dests {
		c := cols[d].Paged()
		w.b = slices.Grow(w.b[:0], columnSize(c))
		w.column(c)
		crc = crc32.Update(crc, crc32.IEEETable, w.b)
	}
	return crc
}

// Checksum digests the state's routing content; see the package-level
// Checksum.
func (s *State) Checksum() uint32 {
	return Checksum(s.Disabled, s.Cols)
}
