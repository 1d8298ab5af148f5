package bench

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"metarouting/internal/replica"
	"metarouting/internal/serve"
	"metarouting/internal/serve/wire"
)

// applyTimeout bounds how long a storm waits for the follower before
// it counts as a failed operation.
const applyTimeout = 30 * time.Second

// opCount tallies operations for the failed/attempted ratio. Each
// generator goroutine owns one and they are summed after the window.
type opCount struct{ attempted, failed int64 }

func (o *opCount) add(p opCount) {
	o.attempted += p.attempted
	o.failed += p.failed
}

// fail records one failed operation and says why on the first few.
func (o *opCount) fail(log *failLog, format string, args ...any) {
	o.failed++
	log.printf(format, args...)
}

// failLog keeps the first failures of a run for the report; a broken
// build fails thousands of operations the same way.
type failLog struct {
	mu    sync.Mutex
	lines []string
	total int
}

func (l *failLog) printf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	if len(l.lines) < 8 {
		l.lines = append(l.lines, fmt.Sprintf(format, args...))
	}
}

// stormWindow is what one closed-loop storm window measured.
type stormWindow struct {
	converge   *Series // POST sent → Follower.Apply returned for its version
	leaderSwap *Series // POST round trip
	firstRead  *Series // Apply returned → verification GET answered
	ref        *Series // host reference: echo round trips taken between storms
	ops        opCount
	storms     int
}

func newStormWindow() *stormWindow {
	return &stormWindow{converge: NewSeries(1 << 14), leaderSwap: NewSeries(1 << 14), firstRead: NewSeries(1 << 14), ref: NewSeries(1 << 14)}
}

// stormDriver is the closed-loop storm writer: one storm in flight,
// alternately failing and restoring consecutive arc sets through
// synchronous POST /v1/events, each followed by a version-gated
// verification read on the follower. Its cursor persists across
// windows so a restore always follows its own failure.
type stormDriver struct {
	in       *Inputs
	leader   *client
	follower *client
	applied  *applyTracker
	tr       *Tracer
	log      *failLog
	// ref, when set, is sampled before every storm (see hostref.go).
	ref *hostRef

	cur    int
	down   bool
	sent   int // storms posted so far, warm-ups included
	suffix []byte
}

// run drives storms until deadline, recording into w (nil: warm-up).
func (d *stormDriver) run(deadline time.Time, w *stormWindow) {
	var discard stormWindow
	if w == nil {
		w = &discard
		w.converge, w.leaderSwap, w.firstRead, w.ref = NewSeries(64), NewSeries(64), NewSeries(64), NewSeries(64)
	}
	for time.Now().Before(deadline) {
		if d.ref != nil {
			d.ref.slice(w.ref)
		}
		s := d.in.storm(regionClosed, d.cur)
		body := s.FailBody
		if d.down {
			body = s.UpBody
		}
		w.ops.attempted++
		w.storms++
		d.sent++
		t0 := time.Now()
		status, resp, err := d.leader.post("/v1/events", "application/json", body)
		t1 := time.Now()
		// Advance regardless of outcome: a set whose failure was refused
		// is restored as a no-op, which the applied check below reports.
		if d.down {
			d.cur++
		}
		d.down = !d.down
		if err != nil || status != 200 {
			w.ops.fail(d.log, "POST /v1/events: status %d err %v", status, err)
			continue
		}
		appliedN, version, ok := parseEventsReply(resp)
		if !ok || appliedN != StormArcs {
			w.ops.fail(d.log, "POST /v1/events answered %q, want %d arcs applied", resp, StormArcs)
			continue
		}
		tApplied, ok := d.applied.waitFor(version, applyTimeout)
		if !ok {
			w.ops.fail(d.log, "follower did not reach v%d within %v", version, applyTimeout)
			continue
		}
		w.leaderSwap.Add(t1.Sub(t0).Nanoseconds())
		w.converge.Add(tApplied.Sub(t0).Nanoseconds())

		// The verification read: the follower must answer from the
		// version the event produced.
		w.ops.attempted++
		g := &d.in.Plans[1][d.cur%readCycles].Gets[0]
		d.suffix = strconv.AppendUint(append(d.suffix[:0], "&version="...), version, 10)
		t2 := time.Now()
		status, resp, err = d.follower.get(g.Path, d.suffix)
		t3 := time.Now()
		if err != nil || status != 200 {
			w.ops.fail(d.log, "follower GET %s%s: status %d err %v body %q", g.Path, d.suffix, status, err, resp)
			continue
		}
		w.firstRead.Add(t3.Sub(tApplied).Nanoseconds())
		if d.tr != nil {
			d.tr.storm(version, t0, t2, t3)
		}
	}
}

// parseEventsReply reads "applied" and "version" out of an
// EventsReply body without a JSON decoder (the writer is in the
// measured loop).
func parseEventsReply(b []byte) (applied int, version uint64, ok bool) {
	a, ok1 := jsonUint(b, `"applied":`)
	v, ok2 := jsonUint(b, `"version":`)
	return int(a), v, ok1 && ok2
}

func jsonUint(b []byte, key string) (uint64, bool) {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return 0, false
	}
	i += len(key)
	j := i
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		j++
	}
	v, err := strconv.ParseUint(string(b[i:j]), 10, 64)
	return v, err == nil
}

// readWindow is what one read client measured in one window.
type readWindow struct {
	get   *Series // one GET /v1/route round trip
	batch *Series // one binary POST /v1/routes round trip (whole batch)
	ref   *Series // host reference: echo round trips taken between cycles
	ops   opCount
	// answers counts route answers delivered: one per GET, BatchQueries
	// per batch.
	answers int64
	// start is when the window opened; cycleEnds holds, for every
	// completed cycle, nanoseconds since start and answers so far — the
	// throughput timeline.
	start     time.Time
	cycleEnds []cycleEnd
}

type cycleEnd struct{ ns, answers int64 }

func newReadWindow() *readWindow {
	return &readWindow{get: NewSeries(1 << 20), batch: NewSeries(1 << 17), ref: NewSeries(1 << 12), cycleEnds: make([]cycleEnd, 0, 1<<17)}
}

// rates returns the answers-per-second rate of each of k equal slices
// of the window's first d.
func (w *readWindow) rates(d time.Duration, k int) []float64 {
	out := make([]float64, k)
	slice := d.Nanoseconds() / int64(k)
	var prev int64
	i := 0
	for s := 0; s < k; s++ {
		edge := int64(s+1) * slice
		last := prev
		for i < len(w.cycleEnds) && w.cycleEnds[i].ns <= edge {
			last = w.cycleEnds[i].answers
			i++
		}
		out[s] = float64(last-prev) / (float64(slice) / 1e9)
		prev = last
	}
	return out
}

// readDriver is one closed-loop read client bound to one role: it
// cycles GetsPerCycle single GETs then one binary batch, each sent
// only after the previous answer arrived.
type readDriver struct {
	plan []Cycle
	cl   *client
	tr   *Tracer
	log  *failLog
	role string
	// gate, when set, supplies a version every GET must be served at —
	// on the follower beside a writer, the newest version the apply
	// callback has seen, so each read doubles as a freshness check.
	gate func() uint64
	// ref, when set, is sampled every refEveryCycles cycles (see
	// hostref.go).
	ref *hostRef

	cur    int
	suffix []byte
	as     []wire.Answer
	pool   []int32
}

// run drives reads until deadline, recording into w (nil: warm-up).
func (d *readDriver) run(deadline time.Time, w *readWindow) {
	var discard readWindow
	if w == nil {
		w = &discard
		w.get, w.batch, w.ref = NewSeries(1<<16), NewSeries(1<<12), NewSeries(1<<8)
	}
	w.start = time.Now()
	for n := 0; ; n++ {
		if d.ref != nil && n%refEveryCycles == 0 {
			d.ref.slice(w.ref)
		}
		c := &d.plan[d.cur%len(d.plan)]
		d.cur++
		for i := range c.Gets {
			var suffix []byte
			if d.gate != nil {
				d.suffix = strconv.AppendUint(append(d.suffix[:0], "&version="...), d.gate(), 10)
				suffix = d.suffix
			}
			w.ops.attempted++
			t0 := time.Now()
			status, body, err := d.cl.get(c.Gets[i].Path, suffix)
			t1 := time.Now()
			if err != nil || status != 200 {
				w.ops.fail(d.log, "%s GET %s%s: status %d err %v body %q", d.role, c.Gets[i].Path, suffix, status, err, body)
			} else {
				w.get.Add(t1.Sub(t0).Nanoseconds())
				w.answers++
				if d.tr != nil && w.answers&15 == 0 {
					d.tr.span(d.role+".route_get", t0, t1)
				}
			}
			if !t1.Before(deadline) {
				return
			}
		}
		w.ops.attempted++
		t0 := time.Now()
		status, body, err := d.cl.post("/v1/routes", wire.ContentType, c.Frame)
		t1 := time.Now()
		if err == nil && status == 200 {
			_, d.as, d.pool, err = wire.DecodeAnswerResponse(body, d.as[:0], d.pool[:0])
			if err == nil && len(d.as) != len(c.Batch) {
				err = fmt.Errorf("%d answers for %d queries", len(d.as), len(c.Batch))
			}
		}
		if err != nil || status != 200 {
			w.ops.fail(d.log, "%s POST /v1/routes: status %d err %v", d.role, status, err)
		} else {
			w.batch.Add(t1.Sub(t0).Nanoseconds())
			w.answers += int64(len(c.Batch))
			if d.tr != nil {
				d.tr.span(d.role+".batch_query", t0, t1)
			}
		}
		w.cycleEnds = append(w.cycleEnds, cycleEnd{t1.Sub(w.start).Nanoseconds(), w.answers})
		if !t1.Before(deadline) {
			return
		}
	}
}

// openOp is one open-loop storm operation (a fail or a restore of one
// arc set) in enqueue order.
type openOp struct {
	due, sent time.Time
	done      time.Time
	version   uint64
	remaining int
	rejected  bool
}

// openWriter is the open-loop storm writer: every period it hands one
// StormArcs-wide batch of events to Server.EnqueueEvent whether or not
// earlier ones have been absorbed, and times each from the instant it
// was due. A storm is complete when the follower has applied a version
// whose toggles cover all of its arcs; because the intake queue is
// FIFO, every earlier storm is then complete as well — which also
// resolves a fail that coalesced away against its own restore.
type openWriter struct {
	in *Inputs
	// enqueue hands one event to the system (Server.EnqueueEvent);
	// depth reads its intake backlog.
	enqueue func(serve.ArcEvent) error
	depth   func() int
	every   time.Duration
	log     *failLog

	mu    sync.Mutex
	ops   []openOp
	byArc map[int]int // arc<<1|down → index into ops
	open  int         // oldest op not yet complete

	count    opCount
	maxDepth int
	k        int // operations scheduled so far, across windows
}

func newOpenWriter(in *Inputs, srv *serve.Server, log *failLog) *openWriter {
	return &openWriter{in: in, every: in.W.StormEvery, log: log,
		enqueue: srv.EnqueueEvent,
		depth:   func() int { return srv.Stats().QueueDepth },
		ops:     make([]openOp, 0, 1<<12), byArc: make(map[int]int, 1<<12)}
}

// reset forgets the finished windows' bookkeeping but keeps the
// schedule position, so the next window continues on fresh arc sets.
// Call it only after finish: nothing may still be in flight.
func (o *openWriter) reset() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.ops, o.open, o.count, o.maxDepth = o.ops[:0], 0, opCount{}, 0
	clear(o.byArc)
}

func arcKey(arc int, down bool) int {
	k := arc << 1
	if down {
		k |= 1
	}
	return k
}

// onDelta is the apply-callback hook: it retires the operations the
// just-applied delta's toggles complete.
func (o *openWriter) onDelta(d *replica.Delta, applied time.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, t := range d.Toggles {
		k := arcKey(t.Arc, t.Down)
		idx, ok := o.byArc[k]
		if !ok {
			continue
		}
		delete(o.byArc, k)
		if o.ops[idx].remaining--; o.ops[idx].remaining > 0 {
			continue
		}
		for ; o.open <= idx; o.open++ {
			if op := &o.ops[o.open]; op.done.IsZero() {
				op.done, op.version = applied, d.Version
			}
		}
	}
}

// openSchedule maps the k-th operation of the schedule F0 F1 R0 F2 R1 …
// to its arc set and direction: a restore trails its failure by three
// periods (two for the very first set), so the two coalesce away only
// under a stall longer than that.
func openSchedule(k int) (set int, down bool) {
	switch {
	case k == 0:
		return 0, true
	case k%2 == 1:
		return (k + 1) / 2, true
	}
	return k/2 - 1, false
}

// run fires storms on schedule until deadline. record=false is the
// warm-up: same traffic, nothing kept.
func (o *openWriter) run(start, deadline time.Time, record bool) {
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * o.every)
		if !due.Before(deadline) {
			return
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		set, down := openSchedule(o.k)
		o.k++
		arcs := o.in.storm(regionOpen, set).Arcs
		sent := time.Now()
		idx := -1
		if record {
			o.mu.Lock()
			idx = len(o.ops)
			o.ops = append(o.ops, openOp{due: due, sent: sent, remaining: len(arcs)})
			for _, a := range arcs {
				o.byArc[arcKey(a, down)] = idx
			}
			o.mu.Unlock()
			o.count.attempted++
		}
		for _, a := range arcs {
			if err := o.enqueue(serve.ArcEvent{Arc: a, Fail: down}); err != nil {
				if record {
					o.mu.Lock()
					o.ops[idx].rejected = true
					o.mu.Unlock()
					o.count.fail(o.log, "EnqueueEvent arc %d: %v", a, err)
				}
				if errors.Is(err, serve.ErrBacklogged) {
					break
				}
			}
		}
		if record {
			if depth := o.depth(); depth > o.maxDepth {
				o.maxDepth = depth
			}
		}
	}
}

// openWindow is what the open-loop writer measured.
type openWindow struct {
	converge   *Series // due → follower applied
	late       *Series // due → actually sent
	ops        opCount
	storms     int
	unresolved int
	maxDepth   int
	spans      []openOp
}

// finish waits for the tail of the schedule to reach the follower and
// collects the samples. Operations still open after the drain (a tail
// pair that coalesced to nothing has no later storm to resolve it) are
// reported as unresolved, not failed: every event was accepted.
func (o *openWriter) finish() *openWindow {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		o.mu.Lock()
		done := o.open == len(o.ops)
		o.mu.Unlock()
		if done {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	w := &openWindow{converge: NewSeries(len(o.ops)), late: NewSeries(len(o.ops)),
		ops: o.count, storms: len(o.ops), maxDepth: o.maxDepth}
	for _, op := range o.ops {
		w.late.Add(op.sent.Sub(op.due).Nanoseconds())
		switch {
		case op.rejected:
		case op.done.IsZero():
			w.unresolved++
		default:
			w.converge.Add(op.done.Sub(op.due).Nanoseconds())
			w.spans = append(w.spans, op)
		}
	}
	return w
}
