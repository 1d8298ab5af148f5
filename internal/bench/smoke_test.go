package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// The smoke runs the four real workloads end to end at 200 nodes: the
// whole cluster over loopback, every window, every correctness gate.
// Values are meaningless at this size; presence, positivity and
// correctness are what is asserted.

func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(Options{Workload: w.Scaled(200), Seed: 5, Seconds: 0.6, Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v failed=%d of %d: %v", res.Correct, res.Failed, res.Attempted, res.Failures)
			}
			line := res.Line()
			if len(line.Metrics) != len(EndToEnd) {
				t.Fatalf("%d metrics in the result line, want %d", len(line.Metrics), len(EndToEnd))
			}
			for _, d := range EndToEnd {
				v := line.Metrics[d.Name]
				if !(v.Value > 0) || v.Unit != d.Unit {
					t.Errorf("%s = %v %q; every workload must report every end-to-end metric, never 0", d.Name, v.Value, v.Unit)
				}
				if res.Metrics[d.Name].Samples == 0 {
					t.Errorf("%s reports no sample count", d.Name)
				}
			}
			// Every normalised timing keeps its raw reading and the echo
			// time it was divided by.
			for _, name := range []string{"host.echo_rtt_us.storm_window", "host.echo_rtt_us.read_window",
				"raw.converge_p50_ms", "raw.route_get_p95_us", "raw.queries_per_s"} {
				if !(res.Info[name].Value > 0) || res.Info[name].Unit == "" {
					t.Errorf("info %s = %+v, want a positive reading with a unit", name, res.Info[name])
				}
			}
			if _, err := json.Marshal(line); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	for _, w := range Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			res, err := Run(Options{Workload: w.Scaled(200), Seed: 6, Seconds: 0.6, Trace: true, Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			// Correct covers the traced gates too: stage sum within
			// 1 ± 0.02 and the replayed chain ending at the live state.
			if !res.Correct {
				t.Fatalf("failed %d of %d: %v", res.Failed, res.Attempted, res.Failures)
			}
			for _, d := range PerLayer {
				if _, ok := res.Metrics[d.Name]; !ok {
					t.Errorf("traced run did not report %s", d.Name)
				}
			}
			for name := range res.Metrics {
				if unitOf(name) == "" {
					t.Errorf("traced run reported %s, which the catalogue does not list", name)
				}
			}
			if r := res.Metrics["trace.stage_sum_ratio"]; r.Value < 0.98 || r.Value > 1.02 || r.Samples == 0 {
				t.Errorf("stage sum ratio %v over %d storms", r.Value, r.Samples)
			}
			for _, name := range []string{"serve.follower_apply_us", "replica.ship_us", "rib.delta_paged_us", "serve.handler_get_us", "wire.decode_resp_ns", "rib.lpm_ns"} {
				if !(res.Metrics[name].Value > 0) {
					t.Errorf("%s = %v, want a measurement", name, res.Metrics[name].Value)
				}
			}
			raw, err := os.ReadFile(filepath.Join(dir, "trace-"+w.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				Spans []Span `json:"spans"`
			}
			if err := json.Unmarshal(raw, &doc); err != nil || len(doc.Spans) == 0 {
				t.Fatalf("trace file: %d spans, err %v", len(doc.Spans), err)
			}
		})
	}
}

// A failed operation must make the run incorrect, not vanish.
func TestFailedOperationMakesRunIncorrect(t *testing.T) {
	res := &Result{Attempted: 10, Failed: 0, Correct: true, Metrics: map[string]Value{}}
	for _, d := range EndToEnd {
		res.Metrics[d.Name] = Value{Value: 1, Unit: d.Unit}
	}
	if !res.Line().Correct {
		t.Fatal("complete result reported incorrect")
	}
	delete(res.Metrics, "converge_p50_ms")
	if res.Line().Correct {
		t.Error("a result missing an end-to-end metric reported correct")
	}
}

func TestCompareUsesEachMetricsOwnBound(t *testing.T) {
	a := ResultLine{Metrics: map[string]LineMetric{}}
	b := ResultLine{Metrics: map[string]LineMetric{}}
	for _, d := range EndToEnd {
		a.Metrics[d.Name] = LineMetric{Value: 100}
		b.Metrics[d.Name] = LineMetric{Value: 100 * (1 + d.Bound*0.9)}
	}
	if dis := Compare("w", a, b); len(dis) != 0 {
		t.Errorf("differences inside every bound flagged: %+v", dis)
	}
	b.Metrics["heap_live_mb"] = LineMetric{Value: 100 * (1 - 2*0.05)}
	dis := Compare("w", a, b)
	if len(dis) != 1 || dis[0].Metric != "heap_live_mb" {
		t.Errorf("want exactly heap_live_mb flagged (A/A compares both directions), got %+v", dis)
	}
}

func TestSelfCheckPrintsBothColumnsAndFlagsDrift(t *testing.T) {
	calls := 0
	run := func(w Workload) (ResultLine, error) {
		calls++
		l := ResultLine{Correct: true, Attempted: 1, Metrics: map[string]LineMetric{}}
		for _, d := range EndToEnd {
			l.Metrics[d.Name] = LineMetric{Value: 10, Unit: d.Unit}
		}
		if w.Name == "storm-policy-2k" && calls%2 == 0 {
			l.Metrics["converge_p50_ms"] = LineMetric{Value: 14, Unit: "ms"} // 40 % off
		}
		return l, nil
	}
	var out bytes.Buffer
	bad, err := SelfCheck(run, &out)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2*len(Workloads) {
		t.Errorf("%d runs, want two per workload", calls)
	}
	if len(bad) != 1 || bad[0].Workload != "storm-policy-2k" || bad[0].Metric != "converge_p50_ms" {
		t.Errorf("flagged %+v, want only storm-policy-2k converge_p50_ms", bad)
	}
	if !bytes.Contains(out.Bytes(), []byte("exceeds bound")) {
		t.Error("the table does not mark the metric that drifted")
	}
}
