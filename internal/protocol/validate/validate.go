// Package validate turns convergence theory into executable checks.
//
// Daggitt–Griffin (PAPERS.md) prove that distributed Bellman–Ford over a
// strictly-increasing routing algebra quiesces within a bounded number of
// asynchronous rounds, and that non-increasing gadget algebras admit
// schedules that never quiesce. This package runs both directions of the
// theorem against the simulator: a Case pairs an algebra expression and
// topology with an Expectation (quiesce within the round bound, or keep
// oscillating past a generous multiple of it), Check executes it on the
// serial or parallel engine, and RunCorpus sweeps a scenario corpus (flap
// storms, node churn, partition/heal over GNP/ring/grid/ScaleFree
// topologies) with convergence telemetry. The property gate is checked
// first: a Case whose Expectation disagrees with the inferred I status is
// an error, not a failure — the harness validates the theory, it does not
// second-guess the inference engine.
package validate

import (
	"context"
	"fmt"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/graph"
	"metarouting/internal/prop"
	"metarouting/internal/protocol"
	"metarouting/internal/telemetry"
	"metarouting/internal/value"
)

// RoundBound is the Daggitt–Griffin asynchronous-round bound for a
// strictly-increasing algebra on n nodes: the path-vector iteration is
// an n²-step contraction in the worst case (n candidate path lengths ×
// n activation orders), so any fair schedule quiesces within n² rounds
// of the last topology change. It is deliberately loose — the corpus
// asserts an upper bound from theory, not a performance target.
func RoundBound(n int) int { return n * n }

// OscFactor is the default oscillation cutoff multiplier: a
// non-increasing case must still be busy after OscFactor× the round
// bound a strictly-increasing algebra would be held to.
const OscFactor = 4

// Expectation is the theory-predicted behaviour of a Case.
type Expectation int

const (
	// ExpectQuiesce: strictly increasing ⇒ convergence within
	// Epochs × RoundBound(n) asynchronous rounds.
	ExpectQuiesce Expectation = iota
	// ExpectOscillate: non-increasing gadget ⇒ still oscillating when
	// the round cutoff (OscFactor × bound) fires.
	ExpectOscillate
)

func (e Expectation) String() string {
	if e == ExpectOscillate {
		return "oscillate"
	}
	return "quiesce"
}

// MarshalJSON emits the expectation as its name — corpus results are
// read by humans and grep, not round-tripped.
func (e Expectation) MarshalJSON() ([]byte, error) {
	return []byte(`"` + e.String() + `"`), nil
}

// Case is one corpus entry: an algebra, a topology, a schedule of
// topology events, and the behaviour theory predicts for them.
type Case struct {
	// Name identifies the case in results and telemetry.
	Name string
	// Expr is the algebra expression, compiled through the inference
	// engine so the property gate sees the derived I status.
	Expr string
	// Graph is the topology; Dest the destination node.
	Graph *graph.Graph
	Dest  int
	// Origin is the originated weight; nil means the algebra's
	// DefaultOrigin.
	Origin value.V
	// Events is the topology-change schedule.
	Events []protocol.LinkEvent
	// Seed drives the per-node delay streams (Config.PerNodeDelays).
	Seed int64
	// Expect is the theory prediction being validated.
	Expect Expectation
	// MaxSteps overrides the simulator's message budget (0 = default).
	MaxSteps int
}

// Epochs counts the reconvergence epochs of the case: the initial
// origination plus one per distinct event time. The round bound applies
// per epoch (theory bounds rounds since the *last* topology change), so
// the whole-run budget is Epochs × RoundBound(n).
func (c *Case) Epochs() int {
	seen := make(map[int64]bool, len(c.Events))
	for _, ev := range c.Events {
		seen[ev.At] = true
	}
	return 1 + len(seen)
}

// Bound is the whole-run round budget for the case.
func (c *Case) Bound() int { return c.Epochs() * RoundBound(c.Graph.N) }

// Result records one executed Case.
type Result struct {
	Case   string
	Expect Expectation
	// Pass is the verdict; Detail explains a failure.
	Pass   bool
	Detail string
	// Converged, Rounds, Steps, TotalFlaps, QuiescedAt summarize the
	// simulator Outcome; Bound is the round budget the run was held to.
	Converged  bool
	Rounds     int
	Bound      int
	Steps      int
	TotalFlaps int
	QuiescedAt int64
}

// Check compiles and executes one Case. With p non-nil the parallel
// engine runs it; otherwise the serial oracle does. The returned error
// covers infrastructure problems (bad expression, expectation
// contradicting the inferred property); a theory violation is reported
// through Result.Pass so a corpus sweep can collect every failure.
func Check(ctx context.Context, p *protocol.Parallel, c Case) (*Result, error) {
	a, err := core.InferString(c.Expr)
	if err != nil {
		return nil, fmt.Errorf("validate %s: %v", c.Name, err)
	}
	increasing := a.Props.Holds(prop.ILeft)
	switch c.Expect {
	case ExpectQuiesce:
		if !increasing {
			return nil, fmt.Errorf("validate %s: expects quiescence but %q is not strictly increasing (I=%v)",
				c.Name, c.Expr, a.Props.Status(prop.ILeft))
		}
	case ExpectOscillate:
		if increasing {
			return nil, fmt.Errorf("validate %s: expects oscillation but %q is strictly increasing — theory forbids it",
				c.Name, c.Expr)
		}
	}
	origin := c.Origin
	if origin == nil {
		if origin, err = a.OT.CheckedDefaultOrigin(); err != nil {
			return nil, fmt.Errorf("validate %s: %v", c.Name, err)
		}
	}
	bound := c.Bound()
	cfg := protocol.Config{
		Dest: c.Dest, Origin: origin, MaxDelay: 3,
		PerNodeDelays: true, Seed: c.Seed,
		Events: c.Events, MaxSteps: c.MaxSteps,
	}
	if c.Expect == ExpectOscillate {
		// The cutoff is what ends an oscillating run; make it generous
		// enough that quiescence had every chance to happen first.
		cfg.MaxRounds = OscFactor * bound
	}
	var out *protocol.Outcome
	if p != nil {
		out, err = p.Run(ctx, exec.For(a.OT, origin), c.Graph, cfg)
		if err != nil {
			return nil, fmt.Errorf("validate %s: %v", c.Name, err)
		}
	} else {
		out = protocol.Run(a.OT, c.Graph, cfg)
	}
	r := &Result{
		Case: c.Name, Expect: c.Expect, Bound: bound,
		Converged: out.Converged, Rounds: out.Convergence.Rounds,
		Steps: out.Steps, TotalFlaps: out.Convergence.TotalFlaps,
		QuiescedAt: out.Convergence.QuiescedAt,
	}
	switch c.Expect {
	case ExpectQuiesce:
		switch {
		case !out.Converged:
			r.Detail = fmt.Sprintf("did not quiesce within %d messages (%d rounds)", out.Steps, r.Rounds)
		case r.Rounds > bound:
			r.Detail = fmt.Sprintf("quiesced but took %d rounds, bound is %d", r.Rounds, bound)
		default:
			r.Pass = true
		}
	case ExpectOscillate:
		switch {
		case out.Converged:
			r.Detail = fmt.Sprintf("quiesced after %d rounds despite non-increasing algebra", r.Rounds)
		case r.Rounds < cfg.MaxRounds:
			// The run stopped for some other reason (step budget) before
			// the round cutoff — that is not evidence of oscillation.
			r.Detail = fmt.Sprintf("stopped at %d rounds before the %d-round cutoff (step budget?)", r.Rounds, cfg.MaxRounds)
		default:
			r.Pass = true
		}
	}
	return r, nil
}

// RunCorpus executes every case, optionally publishing convergence
// telemetry (time-to-quiescence, flap counts, message totals) to reg.
// It stops early only on infrastructure errors; theory violations are
// collected in the returned results.
func RunCorpus(ctx context.Context, p *protocol.Parallel, cases []Case, reg *telemetry.Registry) ([]Result, error) {
	var (
		quiesceTime = telemetry.NewHistogram([]int64{10, 50, 100, 500, 1000, 5000, 10000, 50000})
		flaps       = telemetry.NewHistogram([]int64{1, 10, 50, 100, 500, 1000, 5000})
		messages    = telemetry.NewHistogram([]int64{100, 1000, 10000, 100000, 1000000})
		pass, fail  telemetry.Counter
	)
	if reg != nil {
		reg.AddHistogram("validate_quiescence_time", "simulated time to quiescence per converged case", quiesceTime, 1)
		reg.AddHistogram("validate_flaps", "best-route changes per case", flaps, 1)
		reg.AddHistogram("validate_messages", "delivered messages per case", messages, 1)
		reg.AddCounter("validate_cases_pass", "corpus cases matching theory", &pass)
		reg.AddCounter("validate_cases_fail", "corpus cases violating theory", &fail)
	}
	results := make([]Result, 0, len(cases))
	for _, c := range cases {
		r, err := Check(ctx, p, c)
		if err != nil {
			return results, err
		}
		if r.Converged {
			quiesceTime.Observe(r.QuiescedAt)
		}
		flaps.Observe(int64(r.TotalFlaps))
		messages.Observe(int64(r.Steps))
		if r.Pass {
			pass.Inc()
		} else {
			fail.Inc()
		}
		results = append(results, *r)
	}
	return results, nil
}

// Failures filters results down to theory violations.
func Failures(results []Result) []Result {
	var out []Result
	for _, r := range results {
		if !r.Pass {
			out = append(out, r)
		}
	}
	return out
}
