package serve

// The scan-based publish path this package ran before the rebuild became
// the producer of a swap's diff, kept as the oracle the differential
// tests hold the live server against: after every swap it compares the
// previous and the new snapshot slot by slot through the column's read
// surface — nothing shared with rib.DiffPaged or the page refill's
// emission — counts the flaps, encodes the delta record
// from that comparison, and demands the server's flap counter and the
// frame it handed its sink be equal to both, byte for byte.

import (
	"bytes"
	"fmt"

	"metarouting/internal/replica"
	"metarouting/internal/rib"
	"metarouting/internal/solve"
	"metarouting/internal/value"
)

// oracleSlotEqual compares node u's route across two columns.
func oracleSlotEqual(a, b *rib.PagedColumn, u int) bool {
	wa, ra := a.Route(u)
	wb, rb := b.Route(u)
	if ra != rb {
		return false
	}
	if !ra {
		return true
	}
	if wa != wb {
		return false
	}
	na, nb := a.NextHops(u), b.NextHops(u)
	if len(na) != len(nb) {
		return false
	}
	for i := range na {
		if na[i] != nb[i] {
			return false
		}
	}
	return true
}

// oracleFlaps counts the slots that differ between two snapshots'
// columns, skipping columns shared by pointer.
func oracleFlaps(prev, next map[int]*rib.PagedColumn) uint64 {
	var flaps uint64
	for d, col := range next {
		old, ok := prev[d]
		if !ok || old == col || old.N != col.N {
			continue
		}
		for u := 0; u < col.N; u++ {
			if !oracleSlotEqual(col, old, u) {
				flaps++
			}
		}
	}
	return flaps
}

// oracleMaxWeight folds a column's routed weight indices into a running
// maximum, through the read surface.
func oracleMaxWeight(c *rib.PagedColumn, cur int) int {
	for u := 0; u < c.N; u++ {
		if w, ok := c.Route(u); ok && int(w) > cur {
			cur = int(w)
		}
	}
	return cur
}

// SwapOracle shadows one server's publish path. It keeps its own count
// of the weight names the record stream has carried — re-formatting each
// tail from the engine rather than reading the server's table — which
// evolves exactly as the server's does as long as the frames agree.
type SwapOracle struct {
	s         *Server
	nameCount int
	flaps     uint64
}

// NewSwapOracle starts shadowing s from its current state.
func NewSwapOracle(s *Server) *SwapOracle {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &SwapOracle{s: s, nameCount: len(s.names), flaps: s.flaps.Load()}
}

// encodeDelta is the scan-based delta encoder: every slot of every
// column not shared by pointer is compared.
func (o *SwapOracle) encodeDelta(prev, sn *Snapshot, toggles []ArcEvent) []byte {
	s := o.s
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
	for _, dest := range s.dests {
		nc, oc := sn.cols[dest], prev.cols[dest]
		if nc == oc {
			continue
		}
		n := nc.N
		if oc == nil || oc.N != n {
			d.Scratch = append(d.Scratch, nc)
			maxW = oracleMaxWeight(nc, maxW)
			continue
		}
		var changes []replica.SlotChange
		for u := 0; u < n; u++ {
			if oracleSlotEqual(nc, oc, u) {
				continue
			}
			w, routed := nc.Route(u)
			ch := replica.SlotChange{Node: u, Routed: routed}
			if routed {
				ch.W = w
				if int(w) > maxW {
					maxW = int(w)
				}
				if nh := nc.NextHops(u); len(nh) > 0 {
					ch.NextHop = append([]int32(nil), nh...)
				}
			}
			changes = append(changes, ch)
		}
		if len(changes) == 0 && nc.Converged == oc.Converged {
			continue
		}
		if len(changes) > n/2 {
			d.Scratch = append(d.Scratch, nc)
			maxW = oracleMaxWeight(nc, maxW)
			continue
		}
		d.Diffs = append(d.Diffs, replica.ColumnDiff{Dest: dest, Converged: nc.Converged, Changes: changes})
	}
	d.NameBase = o.nameCount
	if maxW+1 > o.nameCount {
		d.NamesTail = make([]string, 0, maxW+1-o.nameCount)
		for i := o.nameCount; i <= maxW; i++ {
			d.NamesTail = append(d.NamesTail, value.Format(s.eng.Value(int32(i))))
		}
		o.nameCount = maxW + 1
	}
	return replica.EncodeDelta(d)
}

// Check holds one swap against the oracle. prev is the snapshot read
// before the call that may have swapped, events the batch handed to
// ApplyBatch (nil for a Rebuild, which ships a full record), and frame
// the record the server's sink received for the swap (nil when the
// server has no sink). A batch that coalesced to nothing must have
// published nothing.
func (o *SwapOracle) Check(prev *Snapshot, events []ArcEvent, frame []byte) error {
	sn := o.s.Snapshot()
	if sn.Version == prev.Version {
		if frame != nil {
			return fmt.Errorf("a frame was published without a swap")
		}
		return nil
	}
	if sn.Version != prev.Version+1 {
		return fmt.Errorf("version went %d → %d across one call", prev.Version, sn.Version)
	}
	if o.s.queryNS != nil {
		o.flaps += oracleFlaps(prev.cols, sn.cols)
		if got := o.s.flaps.Load(); got != o.flaps {
			return fmt.Errorf("flap counter at %d, all-slots comparison says %d", got, o.flaps)
		}
	}
	if events == nil {
		// A full record advances the watermark past every weight the
		// snapshot references.
		for _, col := range sn.cols {
			if need := oracleMaxWeight(col, -1) + 1; need > o.nameCount {
				o.nameCount = need
			}
		}
		return nil
	}
	toggles, err := Coalesce(events, prev.Disabled)
	if err != nil {
		return err
	}
	want := o.encodeDelta(prev, sn, toggles)
	if frame != nil && !bytes.Equal(frame, want) {
		got, _ := replica.DecodeRecord(frame)
		ref, _ := replica.DecodeRecord(want)
		return fmt.Errorf("v%d delta frame differs from the scan-based encoder's\n got %+v\nwant %+v",
			sn.Version, got.Delta, ref.Delta)
	}
	return nil
}

// EncodeConvergedFlip fabricates the one swap a storm cannot be made to
// produce on demand: destination dest's column keeps every slot and only
// its Converged flag flips. It returns the frame the live encoder builds
// from rib.DiffPaged's (empty) change list and the oracle's frame for
// the same pair of snapshots.
func (o *SwapOracle) EncodeConvergedFlip(dest int) (got, want []byte, err error) {
	s := o.s
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := s.snap.Load()
	old := prev.cols[dest]
	if old == nil {
		return nil, nil, fmt.Errorf("destination %d has no column", dest)
	}
	flipped := *old
	flipped.Converged = !old.Converged
	sn := &Snapshot{Version: prev.Version + 1, cols: map[int]*rib.PagedColumn{}}
	for d, c := range prev.cols {
		sn.cols[d] = c
	}
	sn.cols[dest] = &flipped
	if !flipped.Converged {
		sn.Unconverged = []int{dest}
	}
	r := rebuilt{dest: dest, col: &flipped}
	r.changes, r.changed = rib.DiffPaged(old, &flipped)
	if r.changed != 0 {
		return nil, nil, fmt.Errorf("a Converged flip alone diffed to %d slot changes", r.changed)
	}
	shadow := *o // both encoders start from one watermark and neither moves it
	return s.encodeDeltaLocked(prev, sn, nil, []rebuilt{r}), shadow.encodeDelta(prev, sn, nil), nil
}
