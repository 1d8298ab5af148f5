package replica

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// ringSize is how many recent delta frames the publisher retains for
// catch-up; a subscriber further behind bootstraps from a full snapshot
// instead.
const ringSize = 512

// subBuffer is the per-subscriber record queue depth. A subscriber
// that falls further behind than this is dropped (its connection
// closes) and re-bootstraps on reconnect — slow readers must never
// stall the leader's swap path.
const subBuffer = 64

type ringEntry struct {
	version uint64
	frame   []byte
}

type subscriber struct {
	ch   chan []byte
	dead bool
}

// Publisher fans the leader's record stream out to subscribers: every
// snapshot swap hands it one framed record, which it appends to the
// optional on-disk log and broadcasts to every live TCP subscriber. It
// implements the serve package's record sink contract (PublishRecord).
//
// The catch-up ring holds delta frames only, the last ringSize of them
// in a fixed circular buffer. A full record is logged and broadcast but
// never kept: it empties the ring, since no delta before it applies
// after it. So the leader holds no encoded copy of its whole route
// table; a subscriber the ring's deltas cannot carry from its version —
// one starting from 0 included — gets a full snapshot at the current
// head. When the head is a full record this publisher appended to its
// log (the leader's boot, a rebuild), the snapshot is that record, read
// back from the file and copied to the connection as it lies there
// (sendfile, where the platform has it): those are the bytes source
// would encode. Otherwise — a delta since, no log, or a rotation since —
// source encodes it.
type Publisher struct {
	// source produces a framed full snapshot of the leader's current
	// state, for subscribers the ring cannot carry. It is called
	// OUTSIDE the publisher mutex: the source takes the leader's own
	// lock, and the leader calls PublishRecord while holding it, so
	// calling source under p.mu would invert that order.
	source func() (version uint64, frame []byte, err error)

	mu sync.Mutex
	// ring[(next-n+i) mod ringSize], i < n, is the i-th oldest retained
	// delta; versions in it are consecutive. An evicted or reset slot is
	// cleared, so the ring keeps no frame it no longer serves.
	ring   [ringSize]ringEntry
	next   int
	n      int
	head   uint64
	subs   map[*subscriber]struct{}
	closed bool

	log *Log
	ln  net.Listener
	wg  sync.WaitGroup
}

// NewPublisher builds a publisher over the given full-snapshot source.
// log may be nil (no on-disk record log).
func NewPublisher(source func() (uint64, []byte, error), log *Log) *Publisher {
	return &Publisher{source: source, subs: make(map[*subscriber]struct{}), log: log}
}

// PublishRecord ships one swap's framed record: log, ring, broadcast.
// A delta enters the ring over its oldest entry once the ring is full; a
// full record resets it. It never blocks on a subscriber — one that
// cannot keep up is dropped.
func (p *Publisher) PublishRecord(version uint64, frame []byte) error {
	var logErr error
	if p.log != nil {
		logErr = p.log.Append(frame)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.head = version
	if frameKind(frame) == KindFull {
		clear(p.ring[:])
		p.next, p.n = 0, 0
	} else {
		p.ring[p.next] = ringEntry{version: version, frame: frame}
		p.next = (p.next + 1) % ringSize
		p.n = min(p.n+1, ringSize)
	}
	for s := range p.subs {
		if s.dead {
			continue
		}
		select {
		case s.ch <- frame:
		default:
			s.dead = true
			close(s.ch)
			delete(p.subs, s)
		}
	}
	return logErr
}

// SetLogMaxBytes arms size-based rotation on the publisher's on-disk
// log (a no-op without one): once the live replica.log passes n bytes
// the leader retires it to a numbered segment and reseeds the fresh
// file with a full checkpoint. n ≤ 0 disables rotation.
func (p *Publisher) SetLogMaxBytes(n int64) {
	if p.log != nil {
		p.log.SetMaxBytes(n)
	}
}

// RotateDue implements the serve package's log-rotation surface: true
// when the on-disk log has outgrown its armed byte cap.
func (p *Publisher) RotateDue() bool {
	return p.log != nil && p.log.RotateDue()
}

// RotateLog retires the live log segment, seeding its successor with
// the provided full-snapshot frame. Called by the leader under its
// writer lock, like PublishRecord.
func (p *Publisher) RotateLog(version uint64, full []byte) error {
	if p.log == nil {
		return nil
	}
	return p.log.Rotate(version, full)
}

// Head returns the newest published version.
func (p *Publisher) Head() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.head
}

// Serve accepts subscribers on ln until Close. Each connection sends
// one Subscribe record; the publisher answers with either the delta
// tail from the subscriber's version (when the ring still covers it)
// or a fresh full snapshot, then streams records as they are
// published.
func (p *Publisher) Serve(ln net.Listener) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return fmt.Errorf("replica: publisher closed")
	}
	p.ln = ln
	p.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			p.mu.Lock()
			closed := p.closed
			p.mu.Unlock()
			if closed {
				return nil
			}
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.handle(conn)
		}()
	}
}

// handle serves one subscriber connection.
func (p *Publisher) handle(conn net.Conn) {
	defer conn.Close()
	rec, err := ReadRecord(bufio.NewReader(conn))
	if err != nil || rec.Kind != KindSubscribe {
		return
	}
	from := rec.SubscribeFrom

	// Register first, then materialize catch-up: records published from
	// this point buffer in the channel, and the stale-version skip on
	// the follower absorbs any overlap with the catch-up payload.
	sub := &subscriber{ch: make(chan []byte, subBuffer)}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.subs[sub] = struct{}{}
	head := p.head
	var tail [][]byte
	needFull := true
	if from == p.head {
		needFull = false
	} else if from < p.head && p.n > 0 {
		// The ring covers from+1..head iff its oldest retained version is
		// ≤ from+1: versions in the ring are consecutive, and it ends at
		// head (a full record at head empties it).
		oldest := (p.next - p.n + ringSize) % ringSize
		if first := p.ring[oldest].version; first <= from+1 {
			needFull = false
			for i := 0; i < p.n; i++ {
				if e := &p.ring[(oldest+i)%ringSize]; e.version > from {
					tail = append(tail, e.frame)
				}
			}
		}
	}
	p.mu.Unlock()

	defer func() {
		p.mu.Lock()
		if !sub.dead {
			sub.dead = true
			close(sub.ch)
			delete(p.subs, sub)
		}
		p.mu.Unlock()
	}()

	w := bufio.NewWriter(conn)
	if needFull {
		served, err := p.fullFromLog(conn, head)
		if err != nil {
			return
		}
		if !served {
			_, frame, err := p.source()
			if err != nil {
				return
			}
			tail = [][]byte{frame}
		}
	}
	for _, frame := range tail {
		if _, err := w.Write(frame); err != nil {
			return
		}
	}
	if err := w.Flush(); err != nil {
		return
	}
	for frame := range sub.ch {
		if _, err := w.Write(frame); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// fullFromLog copies the full record of version head from the log to
// conn, reporting whether the log held it: the bootstrap a subscriber
// registered at head gets when head is the log's last full record.
// Records published after head reach the subscriber through its
// channel, as they do after a source snapshot.
func (p *Publisher) fullFromLog(conn net.Conn, head uint64) (bool, error) {
	if p.log == nil {
		return false, nil
	}
	f, n, ok := p.log.OpenFull(head)
	if !ok {
		return false, nil
	}
	defer f.Close()
	if m, err := io.Copy(conn, &io.LimitedReader{R: f, N: n}); err != nil || m != n {
		return true, fmt.Errorf("replica: bootstrap from log: %d of %d bytes: %v", m, n, err)
	}
	return true, nil
}

// Close stops the accept loop, disconnects subscribers, and waits for
// connection handlers to finish.
func (p *Publisher) Close() error {
	p.mu.Lock()
	p.closed = true
	ln := p.ln
	for s := range p.subs {
		if !s.dead {
			s.dead = true
			close(s.ch)
		}
		delete(p.subs, s)
	}
	p.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	p.wg.Wait()
	return err
}
