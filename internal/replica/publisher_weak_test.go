//go:build go1.24

package replica

import (
	"runtime"
	"testing"
	"weak"
)

// TestPublisherDropsWhatItEvicts: a frame the ring no longer serves is
// unreachable — a delta pushed out by ringSize newer ones, the deltas a
// full record resets away, and the full record itself, which the ring
// never keeps. Each frame lives in its own array, and a weak pointer to
// the array is nil after a GC once nothing holds the frame.
func TestPublisherDropsWhatItEvicts(t *testing.T) {
	p := NewPublisher(nil, nil)
	own := func(frame []byte) (weak.Pointer[byte], []byte) {
		b := make([]byte, len(frame))
		copy(b, frame)
		return weak.Make(&b[0]), b
	}
	gone := func(what string, w weak.Pointer[byte]) {
		t.Helper()
		runtime.GC()
		if w.Value() != nil {
			t.Fatalf("%s is still reachable after a GC", what)
		}
	}

	full, frame := own(fullAt(1))
	p.PublishRecord(1, frame)
	frame = nil
	gone("the full record at v1", full)

	first, frame := own(deltaAt(2))
	p.PublishRecord(2, frame)
	frame = nil
	runtime.GC()
	if first.Value() == nil {
		t.Fatal("the delta at v2 was collected while the ring still serves it")
	}
	for v := uint64(3); v <= ringSize+2; v++ {
		p.PublishRecord(v, deltaAt(v))
	}
	gone("the delta at v2, evicted by 512 newer ones", first)

	last, frame := own(deltaAt(ringSize + 3))
	p.PublishRecord(ringSize+3, frame)
	frame = nil
	p.PublishRecord(ringSize+4, fullAt(ringSize+4))
	gone("a delta the full record at head reset away", last)
}
