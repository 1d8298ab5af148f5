package bench

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Span is one traced interval. Spans of one storm share the root's id
// as Parent; times are nanoseconds since the tracer's epoch.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// The live stages of one storm, in order. Each starts where the
// previous one ends, so together they tile the storm's wall time from
// the event leaving the generator to the follower's first answer.
const (
	StagePost      = "serve.events_post"         // POST sent → leader's sink entered
	StageShip      = "replica.ship"              // sink entered → follower callback entered
	StageApply     = "serve.follower_apply"      // callback entered → Follower.Apply returned
	StageFirstRead = "serve.follower_first_read" // Apply returned → verification GET answered
	// Open-loop storms have no per-storm read; their first stage is
	// the intake queue instead of an HTTP POST.
	StageLate   = "gen.late"     // due → handed to EnqueueEvent
	StageIntake = "serve.intake" // handed over → leader's sink entered
)

// Tracer is the harness's own span recorder. It lives entirely in the
// benchmark's files: spans are taken around the calls into each layer
// (the POST, the RecordSink wrapper, the Subscribe apply callback, the
// verification GET), kept in memory, and written out when the run
// ends. Recording is switched on only for the traced window.
type Tracer struct {
	epoch time.Time

	mu    sync.Mutex
	on    bool
	spans []Span
	// pub and fol remember, per version, the sink wrapper's entry/exit
	// and the apply callback's entry/return.
	pub map[uint64][2]time.Time
	fol map[uint64][2]time.Time
	// stages collects each stage's duration over every reconciled
	// storm; wallNS sums the storms' wall times.
	stages map[string]*Series
	wallNS int64
	storms int
	// publishNS collects PublishRecord durations.
	publishNS *Series
}

// NewTracer returns a tracer with recording off.
func NewTracer() *Tracer {
	return &Tracer{
		epoch:     time.Now(),
		pub:       make(map[uint64][2]time.Time),
		fol:       make(map[uint64][2]time.Time),
		stages:    make(map[string]*Series),
		publishNS: NewSeries(1 << 12),
	}
}

// Enable switches recording.
func (t *Tracer) Enable(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

func (t *Tracer) published(version uint64, t0, t1 time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.on {
		t.pub[version] = [2]time.Time{t0, t1}
		t.publishNS.Add(t1.Sub(t0).Nanoseconds())
	}
}

func (t *Tracer) followerApplied(version uint64, t0, t1 time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.on {
		t.fol[version] = [2]time.Time{t0, t1}
	}
}

// add appends one span and returns its id. Callers hold t.mu.
func (t *Tracer) add(parent int, name string, t0, t1 time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name,
		Start: t0.Sub(t.epoch).Nanoseconds(), End: t1.Sub(t.epoch).Nanoseconds()})
	return id
}

// span records one free-standing interval.
func (t *Tracer) span(name string, t0, t1 time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.on {
		t.add(0, name, t0, t1)
	}
}

// stage records one stage of the storm rooted at parent and folds it
// into the reconciliation sums. Callers hold t.mu.
func (t *Tracer) stage(parent int, name string, t0, t1 time.Time) {
	t.add(parent, name, t0, t1)
	s := t.stages[name]
	if s == nil {
		s = NewSeries(1 << 10)
		t.stages[name] = s
	}
	s.Add(t1.Sub(t0).Nanoseconds())
}

// storm assembles one closed-loop storm's spans once its verification
// read has returned: the root covers POST sent → GET answered, and the
// four live stages are cut at the boundary timestamps the sink wrapper
// and the apply callback recorded for the storm's version. A storm
// whose boundaries were not both seen (tracing switched on mid-storm)
// is skipped.
func (t *Tracer) storm(version uint64, post, getSent, getDone time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	pub, ok1 := t.pub[version]
	fol, ok2 := t.fol[version]
	if !t.on || !ok1 || !ok2 {
		return
	}
	delete(t.pub, version)
	delete(t.fol, version)
	root := t.add(0, "converge", post, getDone)
	t.stage(root, StagePost, post, pub[0])
	t.stage(root, StageShip, pub[0], fol[0])
	t.stage(root, StageApply, fol[0], fol[1])
	t.stage(root, StageFirstRead, fol[1], getDone)
	t.add(root, "replica.publish", pub[0], pub[1])
	t.add(root, "verify_get", getSent, getDone)
	t.wallNS += getDone.Sub(post).Nanoseconds()
	t.storms++
}

// openStorm assembles one open-loop storm: due → follower applied,
// cut at the hand-over to EnqueueEvent and at the boundaries of the
// version that completed it.
func (t *Tracer) openStorm(op openOp) {
	t.mu.Lock()
	defer t.mu.Unlock()
	pub, ok1 := t.pub[op.version]
	fol, ok2 := t.fol[op.version]
	if !ok1 || !ok2 || pub[0].Before(op.sent) {
		// The completing version was published before this storm was
		// handed over only when the FIFO rule retired it (its own
		// toggles coalesced away); such a storm has no stage chain.
		return
	}
	root := t.add(0, "converge", op.due, op.done)
	t.stage(root, StageLate, op.due, op.sent)
	t.stage(root, StageIntake, op.sent, pub[0])
	t.stage(root, StageShip, pub[0], fol[0])
	t.stage(root, StageApply, fol[0], fol[1])
	t.wallNS += op.done.Sub(op.due).Nanoseconds()
	t.storms++
}

// StageSumRatio is Σ stage time ÷ Σ storm wall time over every
// reconciled storm: 1 when the stages tile the wall time exactly.
func (t *Tracer) StageSumRatio() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	sums := make(map[string]int64, len(t.stages))
	for name, s := range t.stages {
		sums[name] = s.Sum()
	}
	return stageSumRatio(sums, t.wallNS)
}

func stageSumRatio(stageNS map[string]int64, wallNS int64) float64 {
	if wallNS == 0 {
		return 0
	}
	var sum int64
	for _, ns := range stageNS {
		sum += ns
	}
	return float64(sum) / float64(wallNS)
}

// Stage returns one stage's mean and median duration in microseconds
// and how many storms contributed (zeros when the stage never ran).
func (t *Tracer) Stage(name string) (meanUS, p50US float64, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.stages[name]
	if s == nil || s.Len() == 0 {
		return 0, 0, 0
	}
	return s.Mean() / 1e3, s.Q(0.5) / 1e3, s.Len()
}

// Storms is how many storms were reconciled.
func (t *Tracer) Storms() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.storms
}

// WriteFile writes every span as one JSON document.
func (t *Tracer) WriteFile(path string) error {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"unit": "ns", "spans": spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
