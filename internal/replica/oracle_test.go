package replica

// The column codec this package ran before it read and wrote pages
// directly, kept as the oracle the differential tests hold the live
// codec against: the encoder flattened every column, grew one buffer
// from nothing by append and copied the body into its frame; the decoder
// filled a flat rib.Column that the follower then re-paged. Nothing here
// is shared with wbuf.column, rbuf.column, the sizing functions or
// newFrame/finish.

import (
	"encoding/binary"
	"hash/crc32"

	"metarouting/internal/rib"
)

// oracleColumn appends c in the wire layout, slot by slot off the flat
// arena.
func oracleColumn(w *wbuf, c *rib.Column) {
	w.u32(uint32(c.Dest))
	w.u8(map[bool]byte{false: 0, true: 1}[c.Converged])
	w.u32(uint32(len(c.Slots)))
	for i := range c.Slots {
		s := &c.Slots[i]
		if !s.Routed {
			w.u8(0)
			continue
		}
		w.u8(1)
		w.i32(s.W)
		w.u32(uint32(c.SpanEnd(i) - s.NhOff))
	}
	w.u32(uint32(len(c.Pool)))
	for _, v := range c.Pool {
		w.i32(v)
	}
}

// oracleFrame wraps a payload body in the record frame, copying it.
func oracleFrame(kind byte, body []byte) []byte {
	payload := make([]byte, 0, len(body)+2)
	payload = append(payload, FormatVersion, kind)
	payload = append(payload, body...)
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
}

// flattened is the oracle encoder's first step: every column re-laid
// into flat form.
func flattened(cols []*rib.PagedColumn) []*rib.Column {
	out := make([]*rib.Column, len(cols))
	for i, c := range cols {
		out[i] = c.Flatten()
	}
	return out
}

// oracleEncodeFull frames f with the given flat columns in place of
// f.Columns — flattened(f.Columns) for a differential, anything at all
// (a pool that contradicts its spans, a destination out of range) to
// hand the decoder a CRC-valid frame no paged column can express.
func oracleEncodeFull(f *Full, cols []*rib.Column) []byte {
	var w wbuf
	w.u64(f.Version)
	w.u64(f.Fingerprint)
	w.u32(uint32(f.Nodes))
	w.bits(maskBools(&f.Disabled))
	w.ints(f.Unconverged)
	w.u32(uint32(len(f.Names)))
	for _, s := range f.Names {
		w.str(s)
	}
	w.announcements(f.Kept)
	w.announcements(f.Suppressed)
	w.u32(uint32(len(cols)))
	for _, c := range cols {
		oracleColumn(&w, c)
	}
	return oracleFrame(KindFull, w.b)
}

// oracleEncodeDelta frames d with the given flat scratch columns in
// place of d.Scratch.
func oracleEncodeDelta(d *Delta, scratch []*rib.Column) []byte {
	var w wbuf
	w.u64(d.FromVersion)
	w.u64(d.Version)
	w.u64(d.Fingerprint)
	w.u32(uint32(len(d.Toggles)))
	for _, t := range d.Toggles {
		w.u32(uint32(t.Arc))
		w.u8(map[bool]byte{false: 0, true: 1}[t.Down])
	}
	w.ints(d.Unconverged)
	w.u32(uint32(d.NameBase))
	w.u32(uint32(len(d.NamesTail)))
	for _, s := range d.NamesTail {
		w.str(s)
	}
	w.u32(uint32(len(scratch)))
	for _, c := range scratch {
		oracleColumn(&w, c)
	}
	w.u32(uint32(len(d.Diffs)))
	for _, diff := range d.Diffs {
		w.u32(uint32(diff.Dest))
		w.u8(map[bool]byte{false: 0, true: 1}[diff.Converged])
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
	return oracleFrame(KindDelta, w.b)
}

// oracleDecodeColumn decodes one column into flat form, recomputing
// NhOff from the canonical ascending-node pool layout and cross-checking
// the pool length; the follower's state then held c.Paged().
func oracleDecodeColumn(r *rbuf, nodes int) (*rib.Column, error) {
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
	c := &rib.Column{Dest: int(dest), Converged: converged, Slots: make([]rib.EntrySlot, nSlots)}
	var off int64
	for i := range c.Slots {
		routed, err := r.bool()
		if err != nil {
			return nil, err
		}
		if !routed {
			continue
		}
		w, err := r.i32()
		if err != nil {
			return nil, err
		}
		nh, err := r.u32()
		if err != nil {
			return nil, err
		}
		if nh == 0 && i != int(dest) {
			return nil, r.fail("column %d node %d is routed with no next hop", dest, i)
		}
		c.Slots[i] = rib.EntrySlot{W: w, Routed: true, NhOff: int32(off), NhLen: uint16(min(nh, rib.MaxNhLen))}
		off += int64(nh)
		if off > int64(maxFrame) {
			return nil, r.fail("column %d pool overflows", dest)
		}
	}
	poolLen, err := r.count(4)
	if err != nil {
		return nil, err
	}
	if int64(poolLen) != off {
		return nil, r.fail("column %d pool length %d does not match span sum %d", dest, poolLen, off)
	}
	if poolLen == 0 {
		return c, nil
	}
	c.Pool = make([]int32, poolLen)
	for i := range c.Pool {
		v, err := r.i32()
		if err != nil {
			return nil, err
		}
		if v < 0 || int(v) >= nSlots {
			return nil, r.fail("column %d next hop %d out of range [0,%d)", dest, v, nSlots)
		}
		c.Pool[i] = v
	}
	return c, nil
}
