package replica

import (
	"bufio"
	"bytes"
	"testing"

	"metarouting/internal/rib"
)

// FuzzDecodeRecord hammers the wire decoder with arbitrary bytes:
// truncated frames, flipped CRCs, bad version bytes, hostile counts.
// Every input must either decode to a record that re-encodes to the
// same frame, or error — never panic, and never allocate beyond what
// the input length warrants (the count checks run before every
// allocation; see TestReadRecordBoundsAllocation for the explicit
// allocation probe). Every accepted record is then applied — a delta on
// top of a small bootstrapped state with its chaining header forced to
// fit, so the body always reaches the patch path — and every column it
// produced is walked: apply may refuse, but whatever it accepts must be
// safe to Forward over.
func FuzzDecodeRecord(f *testing.F) {
	f.Add(EncodeFull(testFull()))
	f.Add(EncodeDelta(testDelta()))
	f.Add(EncodeSubscribe(42))
	// Two pages, the last one partial; a delta shipping a whole column.
	f.Add(EncodeFull(goldenFull()))
	f.Add(EncodeDelta(goldenDelta()))
	// CRC-valid fulls only the column decoder's own checks can refuse: a
	// decoder that let one through would hand Forward a routed node with
	// no next hop, or a next hop outside the column.
	for _, c := range badColumns() {
		f.Add(oracleEncodeFull(&Full{Nodes: 2}, []*rib.Column{c}))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	// A well-formed frame with each corruption class applied.
	base := EncodeFull(testFull())
	flipCRC := append([]byte(nil), base...)
	flipCRC[len(flipCRC)-2] ^= 0x10
	f.Add(flipCRC)
	f.Add(base[:len(base)/2])
	badVer := append([]byte(nil), base...)
	badVer[4] = 0x7f
	f.Add(badVer)
	// CRC-valid deltas whose next hops only the apply path can refuse.
	wild := testDelta()
	wild.Diffs[0].Changes[0].NextHop = []int32{1, 4}
	f.Add(EncodeDelta(wild))
	wild.Diffs[0].Changes[0].NextHop = nil
	f.Add(EncodeDelta(wild))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecord(data)
		if err != nil {
			return
		}
		// Valid decodes must round-trip: re-encoding the record
		// reproduces the input frame bit for bit, so the codec has one
		// canonical form.
		var again []byte
		switch rec.Kind {
		case KindFull:
			again = EncodeFull(rec.Full)
		case KindDelta:
			again = EncodeDelta(rec.Delta)
		case KindSubscribe:
			again = EncodeSubscribe(rec.SubscribeFrom)
		default:
			t.Fatalf("decoded unknown kind %d", rec.Kind)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", data, again)
		}
		// The streaming reader must agree with the in-memory decoder.
		rec2, err := ReadRecord(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			t.Fatalf("ReadRecord rejected a frame DecodeRecord accepted: %v", err)
		}
		if rec2.Kind != rec.Kind || rec2.Version() != rec.Version() {
			t.Fatalf("stream decode disagrees: kind %d/%d version %d/%d",
				rec.Kind, rec2.Kind, rec.Version(), rec2.Version())
		}
		var st *State
		switch rec.Kind {
		case KindFull:
			st, err = ApplyFull(rec.Full)
		case KindDelta:
			base, berr := ApplyFull(testFull())
			if berr != nil {
				t.Fatal(berr)
			}
			d := rec.Delta
			d.FromVersion, d.Version, d.Fingerprint = base.Version, base.Version+1, base.Fingerprint
			d.NameBase = min(d.NameBase, len(base.Names))
			st, err = ApplyDelta(base, d)
		}
		if err != nil || st == nil {
			return
		}
		for _, c := range st.Cols {
			for u := 0; u < c.N; u++ {
				c.Forward(u) //nolint:errcheck // loops and holes are fine; panics are not
			}
		}
	})
}
