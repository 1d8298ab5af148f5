package bench

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// A closed-loop storm's four live stages are cut at timestamps taken
// on three different goroutines; reconciled against the right version
// they must tile the storm's wall time exactly.
func TestStageSumReconciles(t *testing.T) {
	tr := NewTracer()
	tr.Enable(true)
	base := time.Now()
	at := func(us int) time.Time { return base.Add(time.Duration(us) * time.Microsecond) }
	for v := uint64(2); v < 12; v++ {
		off := int(v) * 10_000
		tr.published(v, at(off+900), at(off+950))
		tr.followerApplied(v, at(off+1100), at(off+4100))
		tr.storm(v, at(off), at(off+4150), at(off+4300))
	}
	if tr.Storms() != 10 {
		t.Fatalf("%d storms reconciled, want 10", tr.Storms())
	}
	if r := tr.StageSumRatio(); math.Abs(r-1) > 1e-9 {
		t.Errorf("stage sum ratio %v, want 1", r)
	}
	for stage, want := range map[string]float64{StagePost: 900, StageShip: 200, StageApply: 3000, StageFirstRead: 200} {
		if mean, p50, n := tr.Stage(stage); math.Abs(mean-want) > 1e-6 || math.Abs(p50-want) > 1e-6 || n != 10 {
			t.Errorf("%s mean %vus p50 %vus over %d storms, want %v over 10", stage, mean, p50, n, want)
		}
	}

	// A storm whose version's boundaries were never recorded cannot be
	// cut into stages and must not count.
	tr.storm(99, at(0), at(10), at(20))
	if tr.Storms() != 10 {
		t.Error("a storm with no recorded boundaries was reconciled")
	}
}

func TestStageSumRatioExposesAMissingStage(t *testing.T) {
	stages := map[string]int64{StagePost: 900, StageShip: 200, StageApply: 3000}
	if r := stageSumRatio(stages, 4300); r > 0.98 {
		t.Errorf("ratio %v with the first-read stage missing; the 1 ± 0.02 gate must see it", r)
	}
	if r := stageSumRatio(nil, 0); r != 0 {
		t.Errorf("ratio %v with no storms, want 0", r)
	}
}

func TestOpenStormStages(t *testing.T) {
	tr := NewTracer()
	tr.Enable(true)
	base := time.Now()
	at := func(us int) time.Time { return base.Add(time.Duration(us) * time.Microsecond) }
	tr.published(7, at(2000), at(2050))
	tr.followerApplied(7, at(2200), at(5200))
	tr.openStorm(openOp{due: at(0), sent: at(300), done: at(5200), version: 7})
	// Retired by the FIFO rule through a version published before it
	// was even handed over: no stage chain.
	tr.openStorm(openOp{due: at(2500), sent: at(2600), done: at(5200), version: 7})
	if tr.Storms() != 1 {
		t.Fatalf("%d open-loop storms reconciled, want 1", tr.Storms())
	}
	if r := tr.StageSumRatio(); math.Abs(r-1) > 1e-9 {
		t.Errorf("stage sum ratio %v, want 1", r)
	}
	if got, _, _ := tr.Stage(StageLate); got != 300 {
		t.Errorf("gen.late %vus, want 300", got)
	}
	if got, _, _ := tr.Stage(StageIntake); got != 1700 {
		t.Errorf("serve.intake %vus, want 1700", got)
	}
}

func TestTraceFileHoldsParentedSpans(t *testing.T) {
	tr := NewTracer()
	tr.Enable(true)
	base := time.Now()
	tr.published(2, base.Add(time.Millisecond), base.Add(2*time.Millisecond))
	tr.followerApplied(2, base.Add(3*time.Millisecond), base.Add(4*time.Millisecond))
	tr.storm(2, base, base.Add(5*time.Millisecond), base.Add(6*time.Millisecond))
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []Span `json:"spans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) != 7 {
		t.Fatalf("%d spans, want root + 4 stages + publish + verify_get", len(doc.Spans))
	}
	root := doc.Spans[0]
	if root.Name != "converge" || root.Parent != 0 {
		t.Fatalf("first span %+v, want the converge root", root)
	}
	for _, s := range doc.Spans[1:] {
		if s.Parent != root.ID {
			t.Errorf("span %s has parent %d, want the root %d", s.Name, s.Parent, root.ID)
		}
		if s.Start < root.Start || s.End > root.End || s.End < s.Start {
			t.Errorf("span %s [%d,%d] outside its root [%d,%d]", s.Name, s.Start, s.End, root.Start, root.End)
		}
	}
}
