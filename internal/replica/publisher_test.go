package replica

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// startPublisher boots a publisher over a synthetic record sequence on
// a loopback listener and returns its address. The source serves a
// full snapshot at whatever head the caller has published so far.
func startPublisher(t *testing.T, p *Publisher) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go p.Serve(ln)
	t.Cleanup(func() { p.Close() })
	return ln.Addr().String()
}

// fullAt fabricates a full record frame at the given version.
func fullAt(version uint64) []byte {
	f := testFull()
	f.Version = version
	return EncodeFull(f)
}

// deltaAt fabricates a consecutive delta record frame.
func deltaAt(version uint64) []byte {
	d := testDelta()
	d.FromVersion, d.Version = version-1, version
	return EncodeDelta(d)
}

func collect(t *testing.T, addr string, from uint64, want int) []uint64 {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	versions := make([]uint64, 0, want)
	err := Subscribe(ctx, addr, func() uint64 { return from }, func(r *Record) error {
		versions = append(versions, r.Version())
		if len(versions) == want {
			cancel()
		}
		return nil
	})
	if len(versions) != want {
		t.Fatalf("collected %d records %v (want %d): %v", len(versions), versions, want, err)
	}
	return versions
}

func TestPublisherRingCatchUp(t *testing.T) {
	var head atomic.Uint64
	p := NewPublisher(func() (uint64, []byte, error) {
		v := head.Load()
		return v, fullAt(v), nil
	}, nil)
	head.Store(1)
	p.PublishRecord(1, fullAt(1))
	for v := uint64(2); v <= 5; v++ {
		head.Store(v)
		p.PublishRecord(v, deltaAt(v))
	}
	addr := startPublisher(t, p)

	// A subscriber at version 2 is inside the ring: it gets the delta
	// tail 3..5, no full snapshot.
	got := collect(t, addr, 2, 3)
	for i, v := range []uint64{3, 4, 5} {
		if got[i] != v {
			t.Fatalf("ring tail = %v, want [3 4 5]", got)
		}
	}
	if p.Head() != 5 {
		t.Fatalf("head = %d, want 5", p.Head())
	}
}

func TestPublisherFullBootstrap(t *testing.T) {
	var head atomic.Uint64
	var sourceCalls atomic.Int32
	p := NewPublisher(func() (uint64, []byte, error) {
		sourceCalls.Add(1)
		v := head.Load()
		return v, fullAt(v), nil
	}, nil)
	// Publish far more records than the ring retains so version 0 is
	// unreachable by tail replay.
	head.Store(1)
	p.PublishRecord(1, fullAt(1))
	for v := uint64(2); v <= uint64(ringSize+10); v++ {
		head.Store(v)
		p.PublishRecord(v, deltaAt(v))
	}
	addr := startPublisher(t, p)

	got := collect(t, addr, 0, 1)
	if got[0] != uint64(ringSize+10) {
		t.Fatalf("bootstrap served version %d, want head %d", got[0], ringSize+10)
	}
	if sourceCalls.Load() != 1 {
		t.Fatalf("source called %d times, want 1", sourceCalls.Load())
	}

	// A subscriber already at head needs nothing until the next publish.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gotCh := make(chan uint64, 1)
	go Subscribe(ctx, addr, func() uint64 { return head.Load() }, func(r *Record) error {
		gotCh <- r.Version()
		cancel()
		return nil
	})
	time.Sleep(50 * time.Millisecond)
	next := head.Load() + 1
	head.Store(next)
	p.PublishRecord(next, deltaAt(next))
	select {
	case v := <-gotCh:
		if v != next {
			t.Fatalf("live record version %d, want %d", v, next)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("live record never arrived")
	}
}

func TestSubscribeReconnects(t *testing.T) {
	var head atomic.Uint64
	p := NewPublisher(func() (uint64, []byte, error) {
		v := head.Load()
		return v, fullAt(v), nil
	}, nil)
	head.Store(1)
	p.PublishRecord(1, fullAt(1))
	addr := startPublisher(t, p)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var current atomic.Uint64
	done := make(chan struct{})
	go Subscribe(ctx, addr, current.Load, func(r *Record) error {
		if v := r.Version(); v > current.Load() {
			current.Store(v)
		}
		if current.Load() >= 3 {
			select {
			case <-done:
			default:
				close(done)
			}
		}
		return nil
	})

	// Wait for the bootstrap, then sever every subscriber and publish
	// more records: the client must redial, resubscribe at its current
	// version, and pick up the tail.
	waitFor(t, func() bool { return current.Load() >= 1 })
	p.mu.Lock()
	for s := range p.subs {
		s.dead = true
		close(s.ch)
		delete(p.subs, s)
	}
	p.mu.Unlock()
	for v := uint64(2); v <= 3; v++ {
		head.Store(v)
		p.PublishRecord(v, deltaAt(v))
	}
	select {
	case <-done:
	case <-ctx.Done():
		t.Fatalf("client stuck at version %d after reconnect", current.Load())
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestPublisherDropsSlowSubscriber(t *testing.T) {
	var head atomic.Uint64
	p := NewPublisher(func() (uint64, []byte, error) {
		v := head.Load()
		return v, fullAt(v), nil
	}, nil)
	head.Store(1)
	p.PublishRecord(1, fullAt(1))
	addr := startPublisher(t, p)

	// Dial raw and never read: once the TCP window and the per-sub
	// buffer fill, the publisher must drop the subscriber rather than
	// block its publish path.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(EncodeSubscribe(1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		p.mu.Lock()
		n := len(p.subs)
		p.mu.Unlock()
		return n == 1
	})
	// Each publish carries ~600 KB, so a few of them fill the loopback
	// socket buffers whatever the kernel autotunes them to; 150-byte
	// frames could all sit in the window and the drop never happen.
	bulk := bytes.Repeat(deltaAt(2), 4096)
	done := make(chan struct{})
	go func() {
		for v := uint64(2); v <= uint64(subBuffer)*8; v++ {
			head.Store(v)
			p.PublishRecord(v, bulk)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("publish path blocked on a slow subscriber")
	}
	waitFor(t, func() bool {
		p.mu.Lock()
		n := len(p.subs)
		p.mu.Unlock()
		return n == 0
	})
}

// catchUp subscribes from the given version over a raw connection and
// returns every record that arrives before the stream goes quiet. The
// publisher writes a subscriber's whole catch-up payload in one flush,
// so 300 ms without a byte ends it.
func catchUp(t *testing.T, addr string, from uint64) []*Record {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(EncodeSubscribe(from)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	var recs []*Record
	for {
		conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
		rec, err := ReadRecord(br)
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return recs
		}
		if err != nil {
			t.Fatalf("catch-up from %d after %d records: %v", from, len(recs), err)
		}
		recs = append(recs, rec)
	}
}

// countingPublisher is a publisher whose source serves a full record at
// the head the test has published, counting its calls.
func countingPublisher(head *atomic.Uint64, calls *atomic.Int32) *Publisher {
	return NewPublisher(func() (uint64, []byte, error) {
		calls.Add(1)
		v := head.Load()
		return v, fullAt(v), nil
	}, nil)
}

// publish hands the publisher one record at version v, a full one when
// full is set, advancing the source's head with it.
func publish(p *Publisher, head *atomic.Uint64, v uint64, full bool) {
	head.Store(v)
	if full {
		p.PublishRecord(v, fullAt(v))
	} else {
		p.PublishRecord(v, deltaAt(v))
	}
}

// kinds lists the records' kinds and versions, for failure messages and
// comparisons.
func kinds(recs []*Record) [][2]uint64 {
	out := make([][2]uint64, len(recs))
	for i, r := range recs {
		out[i] = [2]uint64{uint64(r.Kind), r.Version()}
	}
	return out
}

// TestPublisherBootstrapFromZero: a subscriber from version 0 gets one
// record, the full snapshot at head, even while every delta since the
// first full record is still in the ring — the ring keeps no full
// record to replay them onto.
func TestPublisherBootstrapFromZero(t *testing.T) {
	var head atomic.Uint64
	var calls atomic.Int32
	p := countingPublisher(&head, &calls)
	publish(p, &head, 1, true)
	for v := uint64(2); v <= 5; v++ {
		publish(p, &head, v, false)
	}
	addr := startPublisher(t, p)
	recs := catchUp(t, addr, 0)
	if len(recs) != 1 || recs[0].Kind != KindFull || recs[0].Version() != 5 {
		t.Fatalf("bootstrap from 0 at head 5 served %v (kind, version), want one full at 5", kinds(recs))
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("source called %d times, want 1", n)
	}
}

// TestPublisherRingHoldsDeltasOnly: across full records at the start,
// mid-stream and after the ring has wrapped, the ring never holds a full
// record, holds exactly the deltas since the last full one (at most
// ringSize of them, consecutive and ending at head), and every slot
// outside them is cleared.
func TestPublisherRingHoldsDeltasOnly(t *testing.T) {
	var head atomic.Uint64
	var calls atomic.Int32
	p := countingPublisher(&head, &calls)
	fulls := map[uint64]bool{1: true, 9: true, ringSize + 40: true}
	since := uint64(0) // deltas published since the last full record
	for v := uint64(1); v <= 2*ringSize+30; v++ {
		publish(p, &head, v, fulls[v])
		if since++; fulls[v] {
			since = 0
		}
		if want := int(min(since, ringSize)); p.n != want {
			t.Fatalf("after v%d: ring holds %d entries, want %d", v, p.n, want)
		}
		oldest := (p.next - p.n + ringSize) % ringSize
		for i := 0; i < ringSize; i++ {
			e := &p.ring[(oldest+i)%ringSize]
			if i >= p.n {
				if e.frame != nil || e.version != 0 {
					t.Fatalf("after v%d: slot %d past the live entries still holds v%d", v, (oldest+i)%ringSize, e.version)
				}
				continue
			}
			if k := frameKind(e.frame); k != KindDelta {
				t.Fatalf("after v%d: ring entry v%d has kind %d", v, e.version, k)
			}
			if want := v - uint64(p.n-1-i); e.version != want {
				t.Fatalf("after v%d: ring entry %d is v%d, want v%d", v, i, e.version, want)
			}
		}
	}
	if calls.Load() != 0 {
		t.Fatal("publishing called the full-snapshot source")
	}
}

// TestPublisherFullResetsRing: a full record published mid-stream, as
// Server.Rebuild publishes one, empties the ring. A subscriber behind it
// bootstraps from the source at head, though the deltas that led up to
// the full record were in the ring; one at or after it gets the deltas
// since, and no full record.
func TestPublisherFullResetsRing(t *testing.T) {
	var head atomic.Uint64
	var calls atomic.Int32
	p := countingPublisher(&head, &calls)
	publish(p, &head, 1, true)
	for v := uint64(2); v <= 5; v++ {
		publish(p, &head, v, false)
	}
	publish(p, &head, 6, true) // the rebuild
	for v := uint64(7); v <= 9; v++ {
		publish(p, &head, v, false)
	}
	addr := startPublisher(t, p)

	if recs := catchUp(t, addr, 4); len(recs) != 1 || recs[0].Kind != KindFull || recs[0].Version() != 9 {
		t.Fatalf("subscriber at 4, behind the full record at 6, got %v (kind, version), want one full at 9", kinds(recs))
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("source called %d times for the subscriber behind the reset, want 1", n)
	}
	for _, from := range []uint64{6, 7} {
		recs := catchUp(t, addr, from)
		if len(recs) != int(9-from) {
			t.Fatalf("subscriber at %d got %v (kind, version), want the deltas %d..9", from, kinds(recs), from+1)
		}
		for i, r := range recs {
			if r.Kind != KindDelta || r.Version() != from+1+uint64(i) {
				t.Fatalf("subscriber at %d got %v (kind, version), want the deltas %d..9", from, kinds(recs), from+1)
			}
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("source called %d times in all, want 1: subscribers after the reset need no full record", n)
	}
}
