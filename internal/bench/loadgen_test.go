package bench

import (
	"sync"
	"testing"
	"time"

	"metarouting/internal/replica"
	"metarouting/internal/serve"
	"metarouting/internal/solve"
)

func testInputs(t *testing.T, name string, seed int64) *Inputs {
	t.Helper()
	w, ok := WorkloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	in, err := Generate(w.Scaled(200), seed)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestOpenScheduleRestoresTrailFailuresByTwo(t *testing.T) {
	down := map[int]int{} // set → schedule position of its failure
	for k := 0; k < 200; k++ {
		set, fail := openSchedule(k)
		if fail {
			if _, dup := down[set]; dup {
				t.Fatalf("op %d fails set %d a second time", k, set)
			}
			down[set] = k
			continue
		}
		at, ok := down[set]
		if !ok {
			t.Fatalf("op %d restores set %d before failing it", k, set)
		}
		if k > 2 && k-at != 3 {
			t.Errorf("set %d: failed at op %d, restored at op %d; want the restore three ops later", set, at, k)
		}
		delete(down, set)
	}
	if len(down) > 2 {
		t.Errorf("%d sets down at once, want at most 2", len(down))
	}
}

// The open-loop writer must keep its schedule when the system stalls:
// due times stay on the start + k·period grid, each storm is timed from
// its due time, and the lateness the stall caused is reported.
func TestOpenWriterTimesFromDueAndReportsLateness(t *testing.T) {
	in := testInputs(t, "query-storm-10k", 1)
	const every = 5 * time.Millisecond
	const stall = 40 * time.Millisecond
	var mu sync.Mutex
	var got []serve.ArcEvent
	stalled := false
	o := &openWriter{in: in, every: every, log: &failLog{}, byArc: map[int]int{},
		depth: func() int { return 0 },
		enqueue: func(ev serve.ArcEvent) error {
			mu.Lock()
			defer mu.Unlock()
			if !stalled {
				stalled = true
				time.Sleep(stall) // the generator is held up once, on its first event
			}
			got = append(got, ev)
			return nil
		}}
	start := time.Now()
	o.run(start, start.Add(20*every), true)

	if len(o.ops) != 20 {
		t.Fatalf("%d storms sent, want 20 — an open loop sends on schedule regardless of stalls", len(o.ops))
	}
	if len(got) != 20*StormArcs {
		t.Fatalf("%d events enqueued, want %d", len(got), 20*StormArcs)
	}
	for k, op := range o.ops {
		if want := start.Add(time.Duration(k) * every); !op.due.Equal(want) {
			t.Fatalf("storm %d due %v after start, want %v", k, op.due.Sub(start), want.Sub(start))
		}
		if op.sent.Before(op.due) {
			t.Errorf("storm %d sent %v before it was due", k, op.due.Sub(op.sent))
		}
	}
	// Storm 1 was due at 5ms but could not be sent before the 40ms
	// stall ended.
	if late := o.ops[1].sent.Sub(o.ops[1].due); late < stall-2*every {
		t.Errorf("storm 1 reported %v late, want about %v", late, stall-every)
	}

	// Complete everything through one delta whose toggles cover the
	// last storm; the FIFO rule retires the rest.
	last := len(o.ops) - 1
	set, fail := openSchedule(last)
	var toggles []solve.ArcToggle
	for _, a := range in.storm(regionOpen, set).Arcs {
		toggles = append(toggles, solve.ArcToggle{Arc: a, Down: fail})
	}
	applied := time.Now()
	o.onDelta(&replica.Delta{Version: 9, Toggles: toggles}, applied)
	w := o.finish()
	if w.unresolved != 0 || w.converge.Len() != 20 {
		t.Fatalf("%d resolved, %d unresolved; want 20, 0", w.converge.Len(), w.unresolved)
	}
	if got, want := w.converge.Q(1), float64(applied.Sub(o.ops[0].due).Nanoseconds()); got != want {
		t.Errorf("slowest storm converged in %vns, want %vns: applied − due, not applied − sent", got, want)
	}
	if w.late.Q(0.95) < float64((stall - 3*every).Nanoseconds()) {
		t.Errorf("late p95 = %.1fms, want the stall to show", w.late.Q(0.95)/1e6)
	}
}

func TestOpenWriterCompletesOnlyWhenEveryArcToggled(t *testing.T) {
	in := testInputs(t, "query-storm-10k", 1)
	o := &openWriter{in: in, byArc: map[int]int{}}
	now := time.Now()
	arcs := in.storm(regionOpen, 0).Arcs
	o.ops = append(o.ops, openOp{due: now, sent: now, remaining: len(arcs)})
	for _, a := range arcs {
		o.byArc[arcKey(a, true)] = 0
	}
	// A batch boundary split the storm: two arcs in one version…
	o.onDelta(&replica.Delta{Version: 2, Toggles: []solve.ArcToggle{{Arc: arcs[0], Down: true}, {Arc: arcs[1], Down: true}}}, now.Add(time.Millisecond))
	if !o.ops[0].done.IsZero() {
		t.Fatal("storm complete after half of its arcs")
	}
	// …a restore of the same arcs is a different operation…
	o.onDelta(&replica.Delta{Version: 3, Toggles: []solve.ArcToggle{{Arc: arcs[2], Down: false}}}, now.Add(2*time.Millisecond))
	if !o.ops[0].done.IsZero() {
		t.Fatal("storm completed by a toggle in the other direction")
	}
	// …and the rest in the next.
	o.onDelta(&replica.Delta{Version: 4, Toggles: []solve.ArcToggle{{Arc: arcs[2], Down: true}, {Arc: arcs[3], Down: true}}}, now.Add(3*time.Millisecond))
	if got := o.ops[0].done.Sub(now); got != 3*time.Millisecond || o.ops[0].version != 4 {
		t.Fatalf("storm done after %v at v%d, want 3ms at v4", got, o.ops[0].version)
	}
}

func TestParseEventsReply(t *testing.T) {
	applied, version, ok := parseEventsReply([]byte(`{"applied":4,"recomputed_dests":8,"version":1234}` + "\n"))
	if !ok || applied != 4 || version != 1234 {
		t.Errorf("got applied=%d version=%d ok=%v", applied, version, ok)
	}
	if _, _, ok := parseEventsReply([]byte(`{"error":{}}`)); ok {
		t.Error("parsed an error envelope as a reply")
	}
}

// The host reference must measure without allocating (it runs inside
// the window swap_alloc_bytes is taken over), and a window that took no
// sample must not read as a plausible factor.
func TestHostRefSlice(t *testing.T) {
	h, err := newHostRef()
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	s := NewSeries(256)
	if allocs := testing.AllocsPerRun(100, func() { h.slice(s) }); allocs != 0 {
		t.Errorf("slice allocates %.0f times, want 0", allocs)
	}
	if s.Len() != 101 || s.Q(0) <= 0 {
		t.Errorf("%d samples, smallest %v ns; want 101 positive ones", s.Len(), s.Q(0))
	}
	if f := hostFactor(s, nil); !(f > 0) {
		t.Errorf("hostFactor = %v, want positive", f)
	}
	if f := hostFactor(NewSeries(0)); f == f {
		t.Errorf("hostFactor of no samples = %v, want NaN", f)
	}
}
