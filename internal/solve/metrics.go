package solve

import "metarouting/internal/telemetry"

// Metrics collects per-stage solver telemetry: how many fixpoint runs
// executed, how many relax passes (rounds) and candidate evaluations
// (relaxations) they took, whether the workspace's buffers were reused
// or had to grow, and a histogram of per-destination solve durations.
// Attach one to a Workspace (Workspace.Metrics); several workspaces may
// share one Metrics — every field is an atomic instrument. A nil
// Metrics disables instrumentation entirely.
type Metrics struct {
	// Runs counts completed fixpoint solves.
	Runs telemetry.Counter
	// Rounds counts relax passes summed over all runs.
	Rounds telemetry.Counter
	// Relaxations counts candidate-route evaluations (one per enabled
	// out-arc to a routed neighbour, per node a pass re-evaluates).
	Relaxations telemetry.Counter
	// ReuseHits counts solves served entirely from existing workspace
	// buffers; Grows counts solves that had to (re)allocate them.
	ReuseHits telemetry.Counter
	Grows     telemetry.Counter
	// SolveNS is the per-destination solve duration histogram, in
	// nanoseconds.
	SolveNS *telemetry.Histogram
}

// NewMetrics builds a Metrics with the default latency bucket layout.
func NewMetrics() *Metrics {
	return &Metrics{SolveNS: telemetry.NewLatencyHistogram()}
}

// Register exposes the metrics in reg under prefix (e.g. "mrserve_solve").
func (m *Metrics) Register(reg *telemetry.Registry, prefix string) {
	reg.AddCounter(prefix+"_runs_total", "Completed per-destination fixpoint solves.", &m.Runs)
	reg.AddCounter(prefix+"_rounds_total", "Relax passes summed over all solves.", &m.Rounds)
	reg.AddCounter(prefix+"_relaxations_total", "Candidate-route evaluations summed over all solves.", &m.Relaxations)
	reg.AddCounter(prefix+"_workspace_reuses_total", "Solves served from existing workspace buffers.", &m.ReuseHits)
	reg.AddCounter(prefix+"_workspace_grows_total", "Solves that had to grow workspace buffers.", &m.Grows)
	reg.AddHistogram(prefix+"_seconds", "Per-destination solve duration.", m.SolveNS, 1e9)
}
