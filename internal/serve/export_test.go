package serve

import (
	"fmt"

	"metarouting/internal/graph"
	"metarouting/internal/rib"
)

// WithoutBatcher returns an Option that skips starting the intake
// batcher, so tests can fill the queue and exercise the backpressure
// policies deterministically, draining by hand with DrainForTest.
func WithoutBatcher() Option { return optionFunc(func(c *config) { c.noBatcher = true }) }

// WithDelta enables or disables warm-start delta reconvergence
// (default enabled, where the plan allows it). Disabling it clears the
// plan's warm start and skip rule, which pins every rebuild to the
// from-scratch solver: the oracle the delta differentials compare
// warm-started servers against.
func WithDelta(enabled bool) Option { return optionFunc(func(c *config) { c.noDelta = !enabled }) }

// RelaxationsForTest returns the arc candidates the server's solves
// have evaluated (solve.Metrics.Relaxations), 0 without a registry.
func (s *Server) RelaxationsForTest() uint64 {
	if s.solveMetrics == nil {
		return 0
	}
	return s.solveMetrics.Relaxations.Load()
}

// DrainForTest runs one batcher drain cycle synchronously: everything
// queued plus the pending coalesced state becomes one applied batch.
func (s *Server) DrainForTest() error { return s.drainAndApply(nil) }

// PrefixTableForTest returns the served view's prefix table, so tests
// can tell a carried-over table from a restored one by pointer.
func (f *Follower) PrefixTableForTest() *rib.PrefixTable { return f.view().pt }

// SubsetMutants names the broken subset rules SetSubsetRuleForTest
// installs, each one a way the per-toggle skip rule could go wrong:
//   - "primary-only": a failed arc moves its tail only when its head is
//     the primary next hop, which drops the fails that only shrink an
//     equal-cost set;
//   - "strictly-better": a restored arc moves its tail only when its
//     candidate is strictly better, which drops the equal-cost restores;
//   - "unclean": columns that are converged but not Clean are sharp
//     for failed arcs too, so log-path columns are handed subsets of
//     their fails (and skipped when theirs is empty).
var SubsetMutants = []string{"primary-only", "strictly-better", "unclean"}

// SetSubsetRuleForTest makes invalidated apply the named broken rule
// (SubsetMutants) instead of the server's own.
func (s *Server) SetSubsetRuleForTest(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch name {
	case "primary-only":
		s.rule = primaryOnlyRule{s}
	case "strictly-better":
		s.rule = strictlyBetterRule{s}
	case "unclean":
		s.rule = uncleanRule{s}
	default:
		panic(fmt.Sprintf("serve: no subset mutant %q", name))
	}
}

type primaryOnlyRule struct{ *Server }

func (r primaryOnlyRule) toggleMoves(col *rib.PagedColumn, a graph.Arc, fail bool, wy int32) bool {
	if fail {
		nh := col.NextHops(a.From)
		return len(nh) > 0 && nh[0] == int32(a.To)
	}
	return r.Server.toggleMoves(col, a, fail, wy)
}

type strictlyBetterRule struct{ *Server }

func (r strictlyBetterRule) toggleMoves(col *rib.PagedColumn, a graph.Arc, fail bool, wy int32) bool {
	if fail {
		return r.Server.toggleMoves(col, a, fail, wy)
	}
	wx, routed := col.Route(a.From)
	return !routed || r.eng.Lt(r.eng.Apply(a.Label, wy), wx)
}

type uncleanRule struct{ *Server }

func (r uncleanRule) sharp(col *rib.PagedColumn, _ bool) bool { return r.plan.Skip && col.Converged }
