// Package replica is the snapshot replication layer: a versioned,
// length-prefixed binary wire format for full route-table snapshots and
// snapshot deltas, an append-only event log, and the leader/follower
// transport that extends the deterministic per-destination DBF
// computations (Daggitt & Griffin, PAPERS.md) across processes. The
// leader records every snapshot swap as either a full snapshot or the
// delta touched-entry set; a follower that applies the records in order
// reconstructs the leader's paged columns byte for byte, because both
// sides lay page pools out in the same canonical ascending-node order. That
// makes "follower == leader at every version" a testable invariant (the
// serve differential storm test asserts exactly that) instead of a
// hope.
//
// Wire format. Every record is one frame:
//
//	| payloadLen u32 | payload | crc32(payload) u32 |
//
// with payload = | formatVersion u8 | kind u8 | body |, all integers
// little-endian. The CRC is IEEE crc32 over the payload, so a flipped
// bit anywhere — version byte included — fails the frame before any
// body decoding runs. Bodies are bounds-checked against the received
// byte count before any count-sized allocation, so truncated or
// hostile frames error without panicking or over-allocating
// (FuzzDecodeRecord hammers exactly these properties).
//
// Columns travel without their NhOff fields: every column builder in
// internal/rib appends next-hop spans in ascending node order, so the
// offsets are reproducible from the span lengths alone. The decoder
// recomputes them and cross-checks the pool length, which both saves
// four bytes a slot and turns the canonical-layout assumption into a
// checked invariant. A slot's span length travels as a full u32 — the
// exact count, SpanEnd − Start, read off the layout where the in-memory
// PageSlot's 8-bit NhLen saturates — so the wire carries no trace of the
// slot's width.
//
// Columns enter and leave the codec in rib's paged form, and each byte
// of a record is touched once on either side. An encoder sizes its frame
// from the pages' cached totals, allocates exactly that, writes slots
// then pools page by page and closes the frame in place; the decoder
// lays pages as it reads and a follower's state adopts them as they are.
// Pages leave no trace on the wire — the bytes are those of one flat
// column, because a page's pool is a contiguous run of the flat pool.
//
// A follower that starts cold bootstraps from a full record at the
// leader's head. The publisher serves it from the log when it can: when
// the head is the last full record it appended there (the leader's boot,
// a rebuild), the record's bytes are copied from the file to the
// connection, so a boot encodes its snapshot once. Otherwise — a delta
// since, no log, a rotation since — the publisher's source encodes the
// snapshot at head; the bytes are the same either way.
package replica

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"metarouting/internal/rib"
	"metarouting/internal/solve"
)

// FormatVersion is the wire format generation; decoders reject frames
// carrying any other value.
const FormatVersion = 1

// Record kinds.
const (
	// KindFull is a complete snapshot: disabled mask, weight-name table,
	// prefix announcements and every destination column.
	KindFull byte = 1
	// KindDelta is one swap's touched-entry set: the arc toggles, the
	// per-destination slot diffs (or full columns where the diff would
	// not pay) and the weight-name table tail.
	KindDelta byte = 2
	// KindSubscribe is the client → leader handshake carrying the
	// follower's current version (0 = bootstrap from a full snapshot).
	KindSubscribe byte = 3
)

// maxFrame bounds a frame payload; larger length prefixes are rejected
// before any allocation.
const maxFrame = 1 << 28

// Announcement is one prefix announcement on the wire: the prefix and
// its anchor node. Origin weights do not travel — a follower never
// re-solves, so it only needs the longest-match mapping onto columns.
type Announcement struct {
	Prefix rib.Prefix
	Node   int
}

// Full is a complete snapshot record.
type Full struct {
	// Version is the leader snapshot version the record captures.
	Version uint64
	// Fingerprint identifies the leader's base topology and algebra;
	// followers refuse to mix records from different fingerprints.
	Fingerprint uint64
	// Nodes is the node count every column's slot slice must match.
	Nodes int
	// Disabled is the per-arc failure mask at this version: the leader's
	// snapshot's own, shared, on a record built in memory, and unpacked
	// eight bytes to a word straight off the frame on a decoded one.
	Disabled Mask
	// Unconverged lists destinations whose fixpoint did not settle.
	Unconverged []int
	// Names maps engine weight indices to their formatted values, so a
	// follower renders weights without holding the leader's intern
	// table. The table is append-only across a record stream.
	Names []string
	// Kept and Suppressed mirror the leader's aggregated prefix table in
	// its exact column order, so the rebuilt table's column ids, and the
	// longest-match answers of its index, are the leader's.
	Kept, Suppressed []Announcement
	// Columns holds every destination column, ascending by destination,
	// in the leader's paged form: the encoder writes the wire layout
	// straight from the pages and the decoder lays pages straight off
	// the wire, so neither side holds a second, flat copy.
	Columns []*rib.PagedColumn
}

// SlotChange is one changed route entry inside a ColumnDiff — the
// slot patch rib.PagedColumn.Patch applies.
type SlotChange = rib.SlotPatch

// ColumnDiff is one destination's touched-entry set: the slots whose
// content changed across the swap, ascending by node. Patching the
// pages that hold them, in canonical layout, reproduces the leader's
// new column byte for byte.
type ColumnDiff struct {
	Dest      int
	Converged bool
	Changes   []SlotChange
}

// Delta is one snapshot swap's record.
type Delta struct {
	// FromVersion is the version the delta applies on top of; Version is
	// the resulting one.
	FromVersion, Version uint64
	Fingerprint          uint64
	// Toggles is the coalesced arc state change of the swap; followers
	// apply it to their disabled mask.
	Toggles []solve.ArcToggle
	// Unconverged is the full unconverged list at Version.
	Unconverged []int
	// NameBase/NamesTail extend the follower's weight-name table:
	// NamesTail holds names for indices [NameBase, NameBase+len).
	NameBase  int
	NamesTail []string
	// Scratch carries full columns for destinations whose diff would
	// have been larger than the column itself.
	Scratch []*rib.PagedColumn
	// Diffs carries the touched-entry sets, one per delta-encoded
	// destination.
	Diffs []ColumnDiff
}

// Record is one decoded frame.
type Record struct {
	Kind byte
	// WireBytes is the full frame size including header and CRC — the
	// bytes-on-wire reading the replication histograms observe.
	WireBytes int

	Full          *Full
	Delta         *Delta
	SubscribeFrom uint64
}

// Version returns the snapshot version a full or delta record produces
// (0 for subscribe records).
func (r *Record) Version() uint64 {
	switch r.Kind {
	case KindFull:
		return r.Full.Version
	case KindDelta:
		return r.Delta.Version
	}
	return 0
}

// ---------------------------------------------------------------------
// Encoding

// wbuf is a little-endian append buffer. Record encoders start one with
// newFrame, which reserves the frame header and sizes the backing array
// for the whole frame: the appends below then never grow it, and the
// finished frame is the one allocation the record costs.
type wbuf struct{ b []byte }

func (w *wbuf) u8(v byte)    { w.b = append(w.b, v) }
func (w *wbuf) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *wbuf) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *wbuf) i32(v int32)  { w.u32(uint32(v)) }
func (w *wbuf) str(s string) { w.u32(uint32(len(s))); w.b = append(w.b, s...) }

func (w *wbuf) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *wbuf) ints(v []int) {
	w.u32(uint32(len(v)))
	for _, x := range v {
		w.i32(int32(x))
	}
}

func (w *wbuf) strs(v []string) {
	w.u32(uint32(len(v)))
	for _, s := range v {
		w.str(s)
	}
}

// Encoded sizes of the variable-length body parts, mirroring the
// writers above and below field for field.
func intsSize(v []int) int           { return 4 + 4*len(v) }
func annsSize(as []Announcement) int { return 4 + 9*len(as) }
func colsSize(cols []*rib.PagedColumn) int {
	n := 4
	for _, c := range cols {
		n += columnSize(c)
	}
	return n
}

func strsSize(v []string) int {
	n := 4
	for _, s := range v {
		n += 4 + len(s)
	}
	return n
}

// columnSize is c's encoded length — the 9-byte header, one byte per
// unrouted slot and nine per routed one, the pool count and four bytes
// per pool entry — from the per-page totals, without reading a slot.
func columnSize(c *rib.PagedColumn) int {
	pool := 0
	for _, p := range c.Pages {
		pool += len(p.Pool)
	}
	return 9 + c.N + 8*c.Live() + 4 + 4*pool
}

// column writes c in the flat wire layout straight from its pages:
// every slot in node order with its exact span length (a saturated
// NhLen is resolved through the page's layout), then the page pools back
// to back — which is the flat column's pool, because both layouts append
// spans in slot order. Page-relative offsets, like flat ones, do not
// travel.
func (w *wbuf) column(c *rib.PagedColumn) {
	w.u32(uint32(c.Dest))
	w.bool(c.Converged)
	w.u32(uint32(c.N))
	b, pool := w.b, 0
	for pi, p := range c.Pages {
		for i, lim := 0, rib.PageLen(pi, c.N); i < lim; i++ {
			s := &p.Slots[i]
			if !s.Routed {
				b = append(b, 0)
				continue
			}
			nh := uint32(p.SpanEnd(i) - p.Start(i))
			b = append(b, 1,
				byte(s.W), byte(s.W>>8), byte(s.W>>16), byte(s.W>>24),
				byte(nh), byte(nh>>8), byte(nh>>16), byte(nh>>24))
		}
		pool += len(p.Pool)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(pool))
	for _, p := range c.Pages {
		for _, v := range p.Pool {
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
	}
	w.b = b
}

func (w *wbuf) columns(cols []*rib.PagedColumn) {
	w.u32(uint32(len(cols)))
	for _, c := range cols {
		w.column(c)
	}
}

func (w *wbuf) announcements(as []Announcement) {
	w.u32(uint32(len(as)))
	for _, a := range as {
		w.u32(a.Prefix.Addr)
		w.u8(a.Prefix.Len)
		w.u32(uint32(a.Node))
	}
}

// newFrame starts a record frame whose body will take bodyLen bytes:
// one allocation of the exact frame size, the length prefix reserved
// and the payload header written.
func newFrame(kind byte, bodyLen int) wbuf {
	w := wbuf{b: make([]byte, 4, 4+2+bodyLen+4)}
	w.u8(FormatVersion)
	w.u8(kind)
	return w
}

// finish closes the frame in place: the length prefix is filled in and
// the payload's CRC appended.
func (w *wbuf) finish() []byte {
	payload := w.b[4:]
	binary.LittleEndian.PutUint32(w.b, uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(w.b, crc32.ChecksumIEEE(payload))
}

// EncodeFull frames a full snapshot record.
func EncodeFull(f *Full) []byte {
	w := newFrame(KindFull, 8+8+4+maskSize(&f.Disabled)+intsSize(f.Unconverged)+strsSize(f.Names)+
		annsSize(f.Kept)+annsSize(f.Suppressed)+colsSize(f.Columns))
	w.u64(f.Version)
	w.u64(f.Fingerprint)
	w.u32(uint32(f.Nodes))
	w.mask(&f.Disabled)
	w.ints(f.Unconverged)
	w.strs(f.Names)
	w.announcements(f.Kept)
	w.announcements(f.Suppressed)
	w.columns(f.Columns)
	return w.finish()
}

// diffsSize is the encoded length of a delta's touched-entry sets.
func diffsSize(diffs []ColumnDiff) int {
	n := 4
	for i := range diffs {
		n += 9
		for j := range diffs[i].Changes {
			n += 5
			if ch := &diffs[i].Changes[j]; ch.Routed {
				n += 8 + 4*len(ch.NextHop)
			}
		}
	}
	return n
}

// EncodeDelta frames a snapshot delta record.
func EncodeDelta(d *Delta) []byte {
	w := newFrame(KindDelta, 8+8+8+4+5*len(d.Toggles)+intsSize(d.Unconverged)+4+strsSize(d.NamesTail)+
		colsSize(d.Scratch)+diffsSize(d.Diffs))
	w.u64(d.FromVersion)
	w.u64(d.Version)
	w.u64(d.Fingerprint)
	w.u32(uint32(len(d.Toggles)))
	for _, t := range d.Toggles {
		w.u32(uint32(t.Arc))
		w.bool(t.Down)
	}
	w.ints(d.Unconverged)
	w.u32(uint32(d.NameBase))
	w.strs(d.NamesTail)
	w.columns(d.Scratch)
	w.u32(uint32(len(d.Diffs)))
	for _, diff := range d.Diffs {
		w.u32(uint32(diff.Dest))
		w.bool(diff.Converged)
		w.u32(uint32(len(diff.Changes)))
		for _, ch := range diff.Changes {
			w.u32(uint32(ch.Node))
			if !ch.Routed {
				w.u8(0)
				continue
			}
			w.u8(1)
			w.i32(ch.W)
			w.u32(uint32(len(ch.NextHop)))
			for _, h := range ch.NextHop {
				w.i32(h)
			}
		}
	}
	return w.finish()
}

// frameKind returns an encoded frame's record kind, 0 when the frame is
// too short to carry one.
func frameKind(frame []byte) byte {
	if len(frame) < 6 {
		return 0
	}
	return frame[5]
}

// fullVersion returns the version a framed full record carries, false
// when frame is not one.
func fullVersion(frame []byte) (uint64, bool) {
	if frameKind(frame) != KindFull || len(frame) < 14 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(frame[6:]), true
}

// EncodeSubscribe frames the client handshake.
func EncodeSubscribe(fromVersion uint64) []byte {
	w := newFrame(KindSubscribe, 8)
	w.u64(fromVersion)
	return w.finish()
}

// ---------------------------------------------------------------------
// Decoding

// rbuf is a bounds-checked little-endian reader over a payload body.
// Every count is validated against the remaining byte budget before the
// corresponding slice is allocated, so a hostile length field cannot
// force an allocation larger than the received frame.
type rbuf struct {
	b   []byte
	off int
}

func (r *rbuf) fail(format string, args ...any) error {
	return fmt.Errorf("replica: decode at offset %d: %s", r.off, fmt.Sprintf(format, args...))
}

func (r *rbuf) take(n int) ([]byte, error) {
	if n < 0 || len(r.b)-r.off < n {
		return nil, r.fail("need %d bytes, have %d", n, len(r.b)-r.off)
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out, nil
}

func (r *rbuf) u8() (byte, error) {
	b, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *rbuf) bool() (bool, error) {
	v, err := r.u8()
	if err != nil {
		return false, err
	}
	if v > 1 {
		return false, r.fail("bad bool byte %d", v)
	}
	return v == 1, nil
}

func (r *rbuf) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *rbuf) u64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (r *rbuf) i32() (int32, error) {
	v, err := r.u32()
	return int32(v), err
}

// count reads a u32 count and validates that at least count*minElem
// bytes remain, making count-sized allocations safe.
func (r *rbuf) count(minElem int) (int, error) {
	v, err := r.u32()
	if err != nil {
		return 0, err
	}
	n := int(v)
	if n < 0 || (minElem > 0 && len(r.b)-r.off < n*minElem) {
		return 0, r.fail("count %d exceeds remaining %d bytes (min elem %d)", n, len(r.b)-r.off, minElem)
	}
	return n, nil
}

func (r *rbuf) str() (string, error) {
	n, err := r.count(1)
	if err != nil {
		return "", err
	}
	b, err := r.take(n)
	return string(b), err
}

func (r *rbuf) ints() ([]int, error) {
	n, err := r.count(4)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]int, n)
	for i := range out {
		v, err := r.i32()
		if err != nil {
			return nil, err
		}
		out[i] = int(v)
	}
	return out, nil
}

// slotFields reads one column slot field by field — the routed flag and,
// when it is set, the weight index and the next-hop count — for a slot
// too short or malformed for column's one-step read, so that it reports
// exactly the error the field readers give.
func (r *rbuf) slotFields() (routed bool, w int32, nh uint32, err error) {
	if routed, err = r.bool(); err != nil || !routed {
		return routed, 0, 0, err
	}
	if w, err = r.i32(); err != nil {
		return true, 0, 0, err
	}
	nh, err = r.u32()
	return true, w, nh, err
}

// column decodes one column straight into pages, one allocation per
// page and one per page pool, each sized exactly. Offsets do not travel:
// the slot pass lays each slot at its page-relative start, the running
// span sum within its page — the canonical layout, in which a span too
// long for NhLen saturates it and still ends exactly where the next one
// starts, and a start too far for NhOff goes to the page's side array
// (rib.ColumnPage.SetSlot) — and so learns every page's pool length;
// once the span total has been cross-checked against the pool count on
// the wire (itself bounded by the bytes received), the pool pass
// allocates each page pool and range-checks every next hop.
//
// Pages are not cut from one per-column slab: a slab lives while any of
// its pages does, and a follower's patches replace pages one at a time,
// so after a storm a column would keep every page it replaced. On the
// query workloads' follower that retained more heap at every point of a
// 2 500-storm run than the slabs saved at boot (CHANGES.md).
func (r *rbuf) column(nodes int) (*rib.PagedColumn, error) {
	dest, err := r.u32()
	if err != nil {
		return nil, err
	}
	converged, err := r.bool()
	if err != nil {
		return nil, err
	}
	nSlots, err := r.count(1)
	if err != nil {
		return nil, err
	}
	if nodes > 0 && nSlots != nodes {
		return nil, r.fail("column %d has %d slots, want %d", dest, nSlots, nodes)
	}
	if int(dest) >= nSlots {
		return nil, r.fail("column dest %d out of range [0,%d)", dest, nSlots)
	}
	pages := make([]*rib.ColumnPage, (nSlots+rib.PageSize-1)>>rib.PageShift)
	poolLens := make([]int32, len(pages))
	var total int64
	b, off := r.b, r.off
	for pi := range pages {
		p := &rib.ColumnPage{}
		pages[pi] = p
		base := pi << rib.PageShift
		slots := p.Slots[:rib.PageLen(pi, nSlots)]
		var start, live int32
		for i := range slots {
			var w int32
			var nh uint32
			if s := b[off:]; len(s) >= 9 && s[0] <= 1 {
				// The whole slot is in the buffer with a well-formed flag.
				if s[0] == 0 {
					off++
					continue
				}
				w, nh = int32(binary.LittleEndian.Uint32(s[1:5])), binary.LittleEndian.Uint32(s[5:9])
				off += 9
			} else {
				r.off = off
				routed, fw, fnh, err := r.slotFields()
				if err != nil {
					return nil, err
				}
				if off = r.off; !routed {
					continue
				}
				w, nh = fw, fnh
			}
			if nh == 0 && base+i != int(dest) {
				// Forward indexes a routed node's primary next hop
				// unconditionally; only the destination has none.
				r.off = off
				return nil, r.fail("column %d node %d is routed with no next hop", dest, base+i)
			}
			if total += int64(nh); total > int64(maxFrame) {
				r.off = off
				return nil, r.fail("column %d pool overflows", dest)
			}
			if start < math.MaxUint16 {
				// SetSlot's common case, written in place.
				slots[i] = rib.PageSlot{W: w, NhOff: uint16(start), NhLen: uint8(min(nh, rib.MaxPageNhLen)), Routed: true}
				live++
			} else {
				p.SetSlot(i, w, start, int32(nh))
			}
			start += int32(nh)
		}
		p.Live += live
		poolLens[pi] = start
	}
	r.off = off
	poolLen, err := r.count(4)
	if err != nil {
		return nil, err
	}
	if int64(poolLen) != total {
		return nil, r.fail("column %d pool length %d does not match span sum %d", dest, poolLen, total)
	}
	for pi, p := range pages {
		p.Pool = make([]int32, poolLens[pi])
		hops, top := r.b[r.off:r.off+4*len(p.Pool)], uint32(0) // count(4) vouched for poolLen entries
		for k := range p.Pool {
			v := binary.LittleEndian.Uint32(hops[4*k:])
			p.Pool[k], top = int32(v), max(top, v)
		}
		if top >= uint32(nSlots) { // a negative next hop is past 2³¹ here
			k := slices.IndexFunc(p.Pool, func(v int32) bool { return v < 0 || int(v) >= nSlots })
			r.off += 4 * (k + 1)
			return nil, r.fail("column %d next hop %d out of range [0,%d)", dest, p.Pool[k], nSlots)
		}
		r.off += 4 * len(p.Pool)
	}
	return rib.FromPages(int(dest), nSlots, converged, pages), nil
}

func (r *rbuf) columns(nodes int) ([]*rib.PagedColumn, error) {
	n, err := r.count(9)
	if err != nil || n == 0 {
		return nil, err
	}
	cols := make([]*rib.PagedColumn, n)
	for i := range cols {
		if cols[i], err = r.column(nodes); err != nil {
			return nil, err
		}
	}
	return cols, nil
}

func (r *rbuf) announcements() ([]Announcement, error) {
	n, err := r.count(9)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]Announcement, n)
	for i := range out {
		addr, err := r.u32()
		if err != nil {
			return nil, err
		}
		l, err := r.u8()
		if err != nil {
			return nil, err
		}
		if l > 32 {
			return nil, r.fail("prefix length %d > 32", l)
		}
		node, err := r.u32()
		if err != nil {
			return nil, err
		}
		p := rib.MakePrefix(addr, l)
		if p.Addr != addr {
			return nil, r.fail("prefix %v not masked to its length", p)
		}
		out[i] = Announcement{Prefix: p, Node: int(node)}
	}
	return out, nil
}

func decodeFull(r *rbuf) (*Full, error) {
	f := &Full{}
	var err error
	if f.Version, err = r.u64(); err != nil {
		return nil, err
	}
	if f.Fingerprint, err = r.u64(); err != nil {
		return nil, err
	}
	nodes, err := r.u32()
	if err != nil {
		return nil, err
	}
	if nodes > maxFrame {
		return nil, r.fail("node count %d too large", nodes)
	}
	f.Nodes = int(nodes)
	if f.Disabled, err = r.mask(); err != nil {
		return nil, err
	}
	if f.Unconverged, err = r.ints(); err != nil {
		return nil, err
	}
	nNames, err := r.count(4)
	if err != nil {
		return nil, err
	}
	if nNames > 0 {
		f.Names = make([]string, nNames)
	}
	for i := range f.Names {
		if f.Names[i], err = r.str(); err != nil {
			return nil, err
		}
	}
	if f.Kept, err = r.announcements(); err != nil {
		return nil, err
	}
	if f.Suppressed, err = r.announcements(); err != nil {
		return nil, err
	}
	if f.Columns, err = r.columns(f.Nodes); err != nil {
		return nil, err
	}
	if r.off != len(r.b) {
		return nil, r.fail("%d trailing bytes", len(r.b)-r.off)
	}
	return f, nil
}

func decodeDelta(r *rbuf) (*Delta, error) {
	d := &Delta{}
	var err error
	if d.FromVersion, err = r.u64(); err != nil {
		return nil, err
	}
	if d.Version, err = r.u64(); err != nil {
		return nil, err
	}
	if d.Fingerprint, err = r.u64(); err != nil {
		return nil, err
	}
	nTog, err := r.count(5)
	if err != nil {
		return nil, err
	}
	if nTog > 0 {
		d.Toggles = make([]solve.ArcToggle, nTog)
	}
	for i := range d.Toggles {
		arc, err := r.u32()
		if err != nil {
			return nil, err
		}
		down, err := r.bool()
		if err != nil {
			return nil, err
		}
		d.Toggles[i] = solve.ArcToggle{Arc: int(arc), Down: down}
	}
	if d.Unconverged, err = r.ints(); err != nil {
		return nil, err
	}
	base, err := r.u32()
	if err != nil {
		return nil, err
	}
	if base > maxFrame {
		return nil, r.fail("name base %d too large", base)
	}
	d.NameBase = int(base)
	nTail, err := r.count(4)
	if err != nil {
		return nil, err
	}
	if nTail > 0 {
		d.NamesTail = make([]string, nTail)
	}
	for i := range d.NamesTail {
		if d.NamesTail[i], err = r.str(); err != nil {
			return nil, err
		}
	}
	if d.Scratch, err = r.columns(0); err != nil {
		return nil, err
	}
	nDiffs, err := r.count(9)
	if err != nil {
		return nil, err
	}
	if nDiffs > 0 {
		d.Diffs = make([]ColumnDiff, nDiffs)
	}
	for i := range d.Diffs {
		dest, err := r.u32()
		if err != nil {
			return nil, err
		}
		converged, err := r.bool()
		if err != nil {
			return nil, err
		}
		nCh, err := r.count(5)
		if err != nil {
			return nil, err
		}
		diff := ColumnDiff{Dest: int(dest), Converged: converged}
		if nCh > 0 {
			diff.Changes = make([]SlotChange, nCh)
		}
		prevNode := -1
		for j := range diff.Changes {
			node, err := r.u32()
			if err != nil {
				return nil, err
			}
			if int(node) <= prevNode {
				return nil, r.fail("diff for dest %d not ascending at node %d", dest, node)
			}
			prevNode = int(node)
			ch := SlotChange{Node: int(node)}
			routed, err := r.bool()
			if err != nil {
				return nil, err
			}
			if routed {
				ch.Routed = true
				if ch.W, err = r.i32(); err != nil {
					return nil, err
				}
				nh, err := r.count(4)
				if err != nil {
					return nil, err
				}
				if nh > 0 {
					ch.NextHop = make([]int32, nh)
				}
				for k := range ch.NextHop {
					if ch.NextHop[k], err = r.i32(); err != nil {
						return nil, err
					}
				}
			}
			diff.Changes[j] = ch
		}
		d.Diffs[i] = diff
	}
	if r.off != len(r.b) {
		return nil, r.fail("%d trailing bytes", len(r.b)-r.off)
	}
	return d, nil
}

// DecodeRecord decodes one complete frame held in memory. It is the
// fuzz surface: any input must either yield a valid record or an
// error, never a panic and never an allocation larger than the input
// warrants.
func DecodeRecord(data []byte) (*Record, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("replica: frame shorter than its length prefix")
	}
	n := binary.LittleEndian.Uint32(data)
	if n > maxFrame {
		return nil, fmt.Errorf("replica: frame payload %d exceeds limit %d", n, maxFrame)
	}
	if uint64(len(data)) != 4+uint64(n)+4 {
		return nil, fmt.Errorf("replica: frame payload %d does not match %d input bytes", n, len(data))
	}
	payload := data[4 : 4+n]
	crc := binary.LittleEndian.Uint32(data[4+n:])
	return decodePayload(payload, crc, len(data))
}

func decodePayload(payload []byte, crc uint32, wire int) (*Record, error) {
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, fmt.Errorf("replica: frame CRC mismatch")
	}
	if len(payload) < 2 {
		return nil, fmt.Errorf("replica: frame payload shorter than its header")
	}
	if payload[0] != FormatVersion {
		return nil, fmt.Errorf("replica: unsupported format version %d (want %d)", payload[0], FormatVersion)
	}
	rec := &Record{Kind: payload[1], WireBytes: wire}
	r := &rbuf{b: payload[2:]}
	var err error
	switch rec.Kind {
	case KindFull:
		rec.Full, err = decodeFull(r)
	case KindDelta:
		rec.Delta, err = decodeDelta(r)
	case KindSubscribe:
		if rec.SubscribeFrom, err = r.u64(); err == nil && r.off != len(r.b) {
			err = r.fail("%d trailing bytes", len(r.b)-r.off)
		}
	default:
		err = fmt.Errorf("replica: unknown record kind %d", rec.Kind)
	}
	if err != nil {
		return nil, err
	}
	return rec, nil
}

// ReadRecord reads and decodes one frame from a stream. The payload
// buffer grows with the bytes received (see readN), so a hostile length
// prefix on a short stream cannot force a large allocation.
func ReadRecord(br *bufio.Reader) (*Record, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("replica: frame payload %d exceeds limit %d", n, maxFrame)
	}
	payload, err := readN(br, int(n))
	if err != nil {
		return nil, fmt.Errorf("replica: short frame payload: %w", err)
	}
	var crcb [4]byte
	if _, err := io.ReadFull(br, crcb[:]); err != nil {
		return nil, fmt.Errorf("replica: short frame CRC: %w", err)
	}
	return decodePayload(payload, binary.LittleEndian.Uint32(crcb[:]), 4+int(n)+4)
}

// readN reads exactly n bytes into a buffer that grows geometrically
// with the bytes actually received: it starts at most one chunk long and
// doubles only when full, so its capacity never exceeds twice what the
// stream has delivered — whatever length the frame claimed — and each
// step reads straight into the buffer. The first size is n halved until
// it fits a chunk (rounded up), so the doublings land on n itself: the
// last growth happens once half the frame has arrived, and the copies
// the growths make add up to about n.
func readN(r io.Reader, n int) ([]byte, error) {
	const chunk = 1 << 16
	first := n
	for k := 1; first > chunk; k++ {
		first = (n + 1<<k - 1) >> k
	}
	out := make([]byte, first)
	got := 0
	for {
		m, err := io.ReadFull(r, out[got:])
		if got += m; err != nil {
			return nil, err
		}
		if got == n {
			return out, nil
		}
		grown := make([]byte, min(n, 2*got))
		copy(grown, out)
		out = grown
	}
}
