package serve

import "metarouting/internal/rib"

// WithoutBatcher returns an Option that skips starting the intake
// batcher, so tests can fill the queue and exercise the backpressure
// policies deterministically, draining by hand with DrainForTest.
func WithoutBatcher() Option { return optionFunc(func(c *config) { c.noBatcher = true }) }

// DrainForTest runs one batcher drain cycle synchronously: everything
// queued plus the pending coalesced state becomes one applied batch.
func (s *Server) DrainForTest() error { return s.drainAndApply(nil) }

// PrefixTableForTest returns the served view's prefix table, so tests
// can tell a carried-over trie from a restored one by pointer.
func (f *Follower) PrefixTableForTest() *rib.PrefixTable { return f.view().pt }
