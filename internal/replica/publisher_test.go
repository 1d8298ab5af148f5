package replica

import (
	"bytes"
	"context"
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
