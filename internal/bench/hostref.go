package bench

import (
	"io"
	"net"
	"time"
)

// The host reference.
//
// The reference sandbox is a two-vCPU guest on a shared host whose
// state changes for minutes at a time: with one binary and one seed,
// every latency of a run — convergence, GET, batch — reads 1.4–2 times
// higher in the busy state than in the quiet one, together. A pure
// compute loop hardly moves; system calls, scheduler wake-ups and cache
// misses do, which is what a neighbour on the sibling hardware threads
// and in the shared cache looks like from inside a guest. No window a
// 60-second run allows averages a state of minutes away, so the
// benchmark measures the state instead: between its own operations, on
// the generator goroutine that would otherwise be sending the next
// request, it times a bare echo over a loopback TCP connection to a
// goroutine of its own. The echo touches nothing of the system under
// test — a change to the program cannot move it — but it pays the same
// kinds of host cost every measured operation pays (two system calls, a
// netpoll wake-up and a goroutine hand-off each way, through whatever
// cache the neighbours have left).
//
// Every end-to-end latency of a window is reported divided by that
// window's host factor, median echo round trip ÷ refNominalNs; rates are
// multiplied by it. The raw readings and the echo time itself are
// printed as information next to them. README.md has the measurements
// behind this (eighteen same-seed runs across a change of state:
// converge_p50_ms spread 63 % raw, 8 % normalised). setup_s is divided
// by the factor of the main window, which follows the boots at once. The
// byte counts and the traced pass are not normalised.
const (
	// refNominalNs is the echo round trip's usual reading on the
	// reference sandbox under the benchmark's load (9 µs in the host's
	// quiet state, 13–16 µs in its busy and more common one), so that on
	// that host a normalised reading is the elapsed time its usual state
	// would have shown.
	refNominalNs = 13000
	// refWarm untimed round trips precede each slice's timed ones: the
	// first echo after a long operation finds the echo goroutine parked
	// deep and its stack cold, which says more about what ran before than
	// about the host.
	refWarm = 2
	// refTrips timed round trips make one slice (one sample).
	refTrips = 8
	// refEveryCycles is how often a read client takes a slice; the storm
	// driver takes one before every storm. Either way the reference costs
	// about 1 % of the window.
	refEveryCycles = 32

	refRequest = 128 // bytes each way, roughly a GET and its answer
	refReply   = 384
)

// hostRef is one echo connection and its serving goroutine. Each
// generator goroutine owns one; a slice runs in place of that
// goroutine's next request, so the generator still never has more than
// two connections in use at a time.
type hostRef struct {
	conn net.Conn
	done chan struct{}
	buf  [refReply]byte
}

func newHostRef() (*hostRef, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	// The dial completes against the listen backlog; the accept below
	// then returns at once.
	conn, err := net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
	if err != nil {
		return nil, err
	}
	srv, err := ln.Accept()
	if err != nil {
		conn.Close()
		return nil, err
	}
	h := &hostRef{conn: conn, done: make(chan struct{})}
	go func() {
		defer close(h.done)
		defer srv.Close()
		var buf [refReply]byte
		for {
			if _, err := io.ReadFull(srv, buf[:refRequest]); err != nil {
				return
			}
			if _, err := srv.Write(buf[:]); err != nil {
				return
			}
		}
	}()
	return h, nil
}

// slice takes one sample — the mean of refTrips echo round trips, in
// nanoseconds — into s. It allocates nothing, so it does not show in
// swap_alloc_bytes. A transport error (there is no reason for one on
// loopback) records nothing; a window left without samples fails the
// run in hostFactor.
func (h *hostRef) slice(s *Series) {
	var t0 time.Time
	for i := 0; i < refWarm+refTrips; i++ {
		if i == refWarm {
			t0 = time.Now()
		}
		if _, err := h.conn.Write(h.buf[:refRequest]); err != nil {
			return
		}
		if _, err := io.ReadFull(h.conn, h.buf[:]); err != nil {
			return
		}
	}
	s.Add(time.Since(t0).Nanoseconds() / refTrips)
}

// close ends the echo goroutine and waits for it.
func (h *hostRef) close() {
	h.conn.Close()
	<-h.done
}

// hostFactor is how slow the host was during a window, from the echo
// samples its generator goroutines took: median round trip ÷ the
// nominal one (NaN when there are no samples, which fails the run).
func hostFactor(samples ...*Series) float64 {
	all := NewSeries(0)
	for _, s := range samples {
		if s != nil {
			all.Merge(s)
		}
	}
	return all.Q(0.5) / refNominalNs
}
