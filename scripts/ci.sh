#!/usr/bin/env sh
# CI entry point: build, vet, race-test. Run from the repository root.
set -eux

go build ./...
go vet ./...

# CHANGES.md keeps one paragraph per PR: every line is at most 100
# characters (UTF-8 continuation bytes are not counted), and the newest
# entry — from the last top-level "- " bullet to the end of the file —
# may run to 40 lines.
LC_ALL=C awk '/^- /{n=NR} {
  s = $0
  gsub(/[\200-\277]/, "", s)
  if (length(s) > 100) { print "CHANGES.md:" NR ": " length(s) " columns, want <= 100"; bad = 1 }
} END {
  if (NR - n + 1 > 40) { print "CHANGES.md: the newest entry has " NR - n + 1 " lines, want <= 40"; bad = 1 }
  exit bad
}' CHANGES.md

# mrserve's flags are what a deployment sets and mrexp's what an
# experiment or corpus run sets: both inventories are pinned so a
# measurement mode cannot creep back in as a flag (measurements are
# testing.B benchmarks beside the code they time).
MRSERVE_FLAGS=$(go run ./cmd/mrserve -h 2>&1 | sed -n 's/^  -\([a-z-]*\).*/\1/p' | LC_ALL=C sort | tr '\n' ' ')
test "$MRSERVE_FLAGS" = "addr backpressure dests expr follow log-dir log-max-bytes \
oneshot p pprof publish queue-cap random rebuild-timeout replay replay-storm scenario seed \
slow-query-us workers "
MREXP_FLAGS=$(go run ./cmd/mrexp -h 2>&1 | sed -n 's/^  -\([a-z-]*\).*/\1/p' | LC_ALL=C sort | tr '\n' ' ')
test "$MREXP_FLAGS" = "corpus corpus-seed json only out parallel seed sim-workers "

# staticcheck when available (CI installs a pinned version; local runs
# without it are still valid).
if command -v staticcheck >/dev/null 2>&1; then
  staticcheck ./...
fi

go test -race ./...

# The serve subsystem is the concurrency-heavy code path: exercise its
# tests again under the race detector with shuffled execution order.
# This is also where the publish-path differentials run (every swap's
# flap count and delta frame against the scan-based oracle), and
# TestEncodeFullConcurrentWithSwaps: full records encoded outside the
# writer lock beside 200 swaps, each one bootstrapping a follower that
# the stream's following deltas still apply to — run ten times more on
# its own, since a race only shows on the interleavings a run happens on.
go test -race -count=2 -shuffle=on ./internal/serve/
go test -race -run='^TestEncodeFullConcurrentWithSwaps$' -count=10 ./internal/serve/

# Adjacency-row differentials: graph views against a dense mask and a
# naive filter of Arcs, the row-form sweep, drain and ECMP scan against
# the arc-index kernels they replaced (state, rounds, relaxation count,
# pages), and the label-range checks at every entry point that takes a
# topology from outside. Views are shared across goroutines by the serve
# plane, so the concurrent-reader test runs ten times under -race.
go test -race -run='^(TestViewChains|TestNewRejectsUnindexable)$' -count=1 ./internal/graph/
go test -race -run='^TestViewConcurrentReaders$' -count=10 ./internal/graph/
go test -race -run='^TestKernelsMatchArcIndexOracle$' -count=1 ./internal/solve/
go test -race -run='^TestPagedMatchesArcIndexOracle$' -count=1 ./internal/rib/

# Table kernels: the sweep and ECMP scan that index a compiled engine's
# flat function table and rank vector, against the interface loops on the
# same engine hidden behind a wrapper type (state after every round,
# Rounds, Relaxations, verdict, pages); and the rank vector against the
# order it was derived from on every pair of every corpus algebra, with a
# non-transitive relation refused. TestViewChains above now ends on
# colliding and saturated row filters. The tables themselves are built
# bottom-up over the expression: every composed field (Elems, Index, Fn,
# Rank, LeqBits, LtBits) against the whole transform evaluated cell by
# cell, on named, hand-made and 400 random algebras; and the compile's
# counted cost, the leaves' function applications and order tests, at
# exactly Σ over distinct leaves of F·N + N² (4 535 for the policy
# product, whose root evaluated whole makes 381 550 through the same
# counters).
go test -race -run='^TestTableKernelsMatchInterface$' -count=1 ./internal/rib/
go test -race -run='^(TestRankMatchesMatrices|TestComposedTablesMatchEnumeration|TestCompileCostBoundedByLeaves)$' \
  -count=1 ./internal/compile/

# Licensed scratch solves: the best-first kernel against the sweep on the
# same engine hidden from its tables (random and named algebras, five
# graph families, three views, every destination, flat and paged columns,
# the delta path's scratch fallback) and the selection by plan; the
# three mutants that must fail (no re-queue, non-strict I, shared rank);
# the constructed M algebra past the sweep's round budget; four schedules
# agreeing at the workloads' sizes; every corpus algebra's table against
# what inference derives; and the tables' cell-by-cell M and strict I,
# the plan's oracle, against the plan's kernel on named algebras and 200
# random compilable ones from each of two generators.
go test -race -run='^TestScratchKernelMatchesSweep$' -count=1 ./internal/rib/
go test -race -run='^(TestScratchKernelBeyondSweepBudget|TestScratchKernelMutantsFail|TestScratchRawDispatch|TestScheduleIndependenceAtSize)$' \
  -count=1 ./internal/solve/
go test -race -run='^(TestTableLicencesMatchInference|TestTableLicencesMatchPlan)$' -count=1 ./internal/compile/

# Licences from inference: the comparison kernel (weight-id buckets, a
# heap of queued ids ordered by Lt) against the sweep on the tiered
# engine licensed by the inferred set alone (the query workloads' lex
# product, the forwardable policy and its bounded twin, random inferred-I
# and -M algebras; five graph families, masks, every destination), with
# the two mutants that must fail (no re-queue under M; ties the gate
# refuses). Under the licencecheck build tag every kernel — the table
# kernel, the comparison kernel and the logged drain — asserts the
# plan's I or ND on every relaxation it makes, so the packages whose
# column builds run them are tested again with the tag.
go test -race -run='^TestLtKernelMatchesSweep$' -count=1 ./internal/solve/
go test -tags licencecheck ./internal/solve/ ./internal/rib/ ./internal/serve/

# Warm starts licensed by M: every destination's column carried through
# fail, restore and mixed batches by its derivation log against scratch
# builds (policy products and the corpus's M tables, five graph families;
# pages, totals, verdicts, change lists and the log's own invariant:
# every entry recomputes from its parent, and a node's weights fall to
# its last entry, which carries its column weight); the three broken warm
# starts that must fail (justification by final weights, unpropagated
# invalidity, unrouted for invalid nodes — the settle skipped) with the
# no-raise invariant on policy storms; the replay's counted cost,
# DeltaStats.Restarts, against a naive count of the nodes whose last
# entry went invalid; the indexed replay and persistent log against the
# flat scan and copy they replaced, kept as the oracle (S, restarts and
# the live entries after every rebuild, the previous log untouched), and
# DeltaStats.LogVisited against its contract (failed toggles + Σ over
# invalidated entries of 1 + in-degree + chain steps); a clean column
# keeps no log; and a logged server against a WithDelta(false) one, storm
# by storm. The rebuild benchmark must report both counts, and the
# replay's reads stay a fixed bound below the whole log (≈ 2 300 entries
# per fail rebuild when the replay scanned it): log-visits/op ≤ 100.
go test -race -run='^(TestDerivationDeltaMatchesScratch|TestCleanColumnKeepsNoLog)$' -count=1 ./internal/rib/
go test -race -run='^(TestDerivationDeltaMutantsFail|TestDerivationRestartsCounted|TestIndexedReplayMatchesFlat|TestLogVisitedContract)$' -count=1 ./internal/solve/
go test -race -run='^TestServeDeltaDerivationLog$' -count=1 ./internal/serve/
go test -run='^$' -bench='^BenchmarkDerivationDelta$/logged' -benchtime=200x ./internal/rib/ | awk '
  /restarts\/op/ { r = 1 }
  { for (i = 2; i <= NF; i++) if ($i == "log-visits/op") v = $(i - 1) }
  END { if (!r || v == "" || v + 0 > 100) { print "BenchmarkDerivationDelta/logged: restarts/op missing or log-visits/op " v " over 100"; exit 1 } }'


# A rebuilt destination pays only for the toggles that can move it. The
# subset differential: storms of fails, restores, fails that only shrink
# an equal-cost set and restores that only widen one, on scale-free graphs
# with hubs, compiled and tiered; every rebuild, handed the toggles that
# can move its column (fails and restores on a clean one, restores alone
# on the policy product's unclean ones, by M), equals the rebuild from
# the whole batch and a scratch build, and the frame is byte-identical to
# the whole batch's. The three broken rules must be caught (ECMP-only
# fails dropped, equal-cost restores dropped on clean and unclean
# columns, fail subsets handed to unclean log-path columns). Beside it, the run-wise page transplant against the per-slot
# copy it replaced; the leader's delta rebuild cloning a page if and only
# if its routes change (sparse, log and dense warm starts, compiled and
# tiered, fail, restore, mixed and ECMP-only batches on scale-free graphs,
# a partial last page); and the weight-only overlay's next-hop reads
# bounded on hub-heavy batches (the licencecheck run above covers it too).
go test -race -run='^(TestSubsetDifferential|TestSubsetMutantsFail)$' -count=1 ./internal/serve/
go test -race -run='^(TestTransplantRunMatchesSlots|TestDeltaClonesOnlyChangedPages)$' -count=1 ./internal/rib/
go test -race -run='^TestSparseNextHopLoads$' -count=1 ./internal/solve/

# The strict-I push drain: in-neighbours of a changed node relax the one
# arc that changed, and a redo node whose weight stands has its span
# edited from its previous one. Every destination's column through fail,
# restore and mixed batches (downed primaries with and without an
# equal-cost sibling, a 500-arc hub, coarse labels, parallel arcs;
# compiled and tiered) against the sweep's BuildDestColumn, plus the
# next hop whose weight improves while the candidate through it worsens.
# Beside it, the ⊤-only clean-tree certificate against the walk of every
# chain, on every strict-I algebra of the plan table and delay(8,2),
# whose columns loop at ⊤.
go test -race -run='^(TestPushDeltaMatchesSweep|TestPushDeltaWorsenedPrimary)$' -count=1 ./internal/rib/
go test -race -run='^TestTopCertificateMatchesFullWalk$' -count=1 ./internal/solve/
go test -run='^(TestNewServerRejectsLabelOutOfRange|TestNewServerRejectsSampledFunctionSet|TestNewServerRejectsMisfitOrigin|TestLoadTopologyChecksLabels|TestSolveDefaultOriginFits|TestCheckRejectsUnfitDefaultOrigin|TestParseErrors|TestParseRejectsMisfitOrigin)$' -count=1 \
  ./internal/serve/ ./cmd/metaroute/ ./internal/scenario/ ./internal/protocol/validate/

# The read path: the staged binary resolver against the per-query loop
# it replaced (leader and follower views, every query shape, batch size
# and malformed frame; a span too wide for the answer slot fails the
# frame in both), and one route reply built in one place — leader GET,
# follower GET and JSON-batch element byte-identical, forwardable/loop_at
# included, on the policy algebra whose next hops loop; and spans that
# saturate a page slot's NhLen, at several page positions, exact through
# every builder, the codec, the follower, both resolvers and Forward.
go test -race -run='^(TestStagedResolverMatchesSerial|TestWireSpanOverflowFailsFrame|TestRouteReplyIdentityAcrossSurfaces|TestSaturatedSpansEverywhere)$' \
  -count=1 ./internal/serve/

# The LPM differential: on a 1 000-node graph where every node is a
# destination, each auto-prefix /32 resolves through the index to its own
# node, whose served column equals the naive flat build.
go test -race -run='^TestAutoPrefixResolvesEveryDest$' -count=1 ./internal/serve/

# One plan per algebra, read from the proof its order transform carries:
# one golden plan line per named policy and query algebra, held on every
# backend, each plan equal to the one the inferred set gives directly and
# the same on compiled, tiered and dynamic engines (named algebras and
# 200 random compilable ones), and a transform no inference ran on
# getting only its declared judgements. The CLI prints that plan: the
# policy product, as it is ¬ND, promises no forwarding.
go test -race -run='^TestPlanTable$' -count=1 ./internal/solve/
go run ./cmd/metaroute -expr 'scoped(bw(4), delay(64,4))' -solve -random 8 -seed 3 |
  grep '^plan: ' | tee /tmp/plan_smoke.txt
grep -q '^plan: .*; forwarding: not promised$' /tmp/plan_smoke.txt

# The failure mask: a persistent chunked bitset against a []bool oracle
# (bits, count, wire bytes and checksum at every version of random toggle
# chains from 0 to 399 908 arcs, every earlier version re-checked; the
# in-place mutant must fail), refused toggles leaving it untouched, a
# follower refusing a divergent delta with its version and checksum
# unchanged, and leader and follower agreeing on /v1/stats disabled_arcs
# and the checksum at every version of a fail/restore storm. On the
# leader, every published mask against a []bool replay of the coalesced
# toggles (batches past 32 toggles, a Rebuild, Count against /v1/stats,
# the Snapshot().Disabled view, every pinned snapshot re-checked; the
# mutant writing each mask over the previous snapshot's must fail), and
# a sync /v1/events reply naming the version its own batch left, while
# async intake flips the same arc.
go test -race -run='^(TestMaskMatchesOracle|TestMaskToggleRejects)$' -count=1 ./internal/replica/
go test -race -run='^(TestFollowerRejectsDivergentToggles|TestReplicaDifferentialStorm)$' -count=1 ./internal/serve/
go test -race -run='^(TestLeaderMaskMatchesOracle|TestEventsReplyNamesItsOwnVersion)$' -count=1 ./internal/serve/

# The tiered engine is shared by every pool worker with no mutex around
# it: memo hits read an atomically published table generation, misses
# serialize on the engine's own lock. The 16-goroutine stress (hot caps
# 4, 64 and TierLimit — growth and the cold tail under the readers) runs
# ten times under -race for the same reason the view test does; beside
# it, a held miss mutex must not stop a hit, the order transform's
# closures must never overlap, and pre-growth cells must survive three
# doublings under eight readers.
go test -race -run='^TestConcurrentStress$' -count=10 ./internal/exec/
go test -race -run='^(TestTieredHitTakesNoLock|TestTieredClosuresNeverOverlap|TestTieredGrowth|TestTieredEquivMemo)$' \
  -count=1 ./internal/exec/

# Bench smoke: every benchmark must still compile and survive one
# iteration (no timing assertions — this only guards against bit-rot).
go test -bench=. -benchtime=1x -run='^$' ./...
# The table kernel's own benchmark (the policy algebra's scratch build on
# a 2k scale-free graph, base and overlay view, tables vs interface),
# named so that a rename cannot drop it silently.
go test -bench='^BenchmarkSweepKernel$' -benchtime=1x -run='^$' ./internal/rib/ | grep -q 'BenchmarkSweepKernel/tables/overlay'
# The licensed scratch solve's own benchmark (sweep vs best-first kernel on
# the policy product's 2k graph and a 100k lex graph), named likewise.
go test -bench='^BenchmarkScratchKernel$' -benchtime=1x -run='^$' ./internal/solve/ | grep -q 'BenchmarkScratchKernel/lex-100k/kernel'
# The compile's own benchmark (the policy product and the two largest
# algebras under exec.AutoLimit), named likewise; its value-calls/op is
# exact on any host, so the policy product's is bounded with no timer: a
# compile that evaluates the root instead of its leaves fails here.
go test -bench='^BenchmarkCompile$' -benchtime=1x -run='^$' ./internal/compile/ | awk '
  /^BenchmarkCompile\/scoped-2304/ { s = 1 }
  /^BenchmarkCompile\/policy/ { for (i = 2; i <= NF; i++) if ($i == "value-calls/op") v = $(i - 1) }
  END { if (!s || v == "" || v + 0 > 4535) {
    print "BenchmarkCompile: scoped-2304 missing or policy value-calls/op " v " (want <= 4535)"; exit 1 } }'
# The log warm start's own benchmark (one destination's rebuild on the
# storm-policy-2k shape over 4-arc fail/restore pairs, logged delta vs the
# scratch build it replaced), named likewise.
go test -bench='^BenchmarkDerivationDelta$' -benchtime=1x -run='^$' ./internal/rib/ | grep -q 'BenchmarkDerivationDelta/scratch'
# The binary resolver's own benchmark (staged vs per-query at 2k, 10k and
# 100k nodes over 4096 distinct batches), named for the same reason.
go test -bench='^BenchmarkResolveWireBatch$' -benchtime=1x -run='^$' ./internal/serve/ | grep -q 'BenchmarkResolveWireBatch/staged/100k'
# The follower's delta apply at 100k nodes and 400k arcs (toggles alone,
# and with a column patch), named likewise.
go test -bench='^BenchmarkApplyDelta$' -benchtime=1x -run='^$' ./internal/replica/ | grep -q 'BenchmarkApplyDelta/toggles+patch'
# The full-record codec (encode and decode at 10k and 100k nodes),
# named likewise.
go test -bench='^Benchmark(En|De)codeFull$' -benchtime=1x -run='^$' ./internal/replica/ | grep -q 'BenchmarkDecodeFull/100k'
# The leader's in-process swap at the same size (a 4-arc fail/restore
# pair with the replication sink on), named likewise. Its counted costs
# are bounded exactly: the pages whose routes changed and the arc
# candidates evaluated per swap are fixed by the seeded graph and storm
# sequence (33.90 and 287.3 at 20x, on any host and -cpu), so a rebuild
# that clones pages it did not change, or a drain that re-pulls every
# in-neighbour, fails here without any timing.
go test -bench='^BenchmarkLeaderSwap$' -benchtime=20x -run='^$' ./internal/serve/ | awk '
  /^BenchmarkLeaderSwap/ { for (i = 2; i <= NF; i++) {
    if ($i == "pages-cloned/swap") p = $(i - 1)
    if ($i == "relaxations/swap") r = $(i - 1)
  } }
  END { if (p == "" || r == "" || p + 0 > 33.90 || r + 0 > 287.3) {
    print "BenchmarkLeaderSwap: pages-cloned/swap " p " (want <= 33.90), relaxations/swap " r " (want <= 287.3)"; exit 1 } }'
# Its allocation is bounded exactly too, with no timer: at -cpu 1 and
# 20x the pair allocates 365 263 B in 325 objects (go1.24 linux/amd64,
# 3 of 3 runs), the bounds 0.5 % above. The 12-byte slot in pages, which
# puts every cloned ColumnPage in the 896-byte size class instead of the
# 576-byte one, reads 386 956 B/op and fails here (a 16-byte one, in
# the 1 152-byte class, read 404 316), as does any allocation a swap
# adds.
go test -bench='^BenchmarkLeaderSwap$' -benchtime=20x -cpu 1 -benchmem -run='^$' ./internal/serve/ | awk '
  /^BenchmarkLeaderSwap/ { for (i = 2; i <= NF; i++) {
    if ($i == "B/op") m = $(i - 1)
    if ($i == "allocs/op") a = $(i - 1)
  } }
  END { if (m == "" || a == "" || m + 0 > 367090 || a + 0 > 326) {
    print "BenchmarkLeaderSwap -cpu 1: " m " B/op (want <= 367090), " a " allocs/op (want <= 326)"; exit 1 } }'
# The telemetry-overhead pairing (bare vs instrumented server on one
# query sequence) and the simulator's serial-vs-parallel run at its
# smallest size, once each: both must compile, run and report their
# metrics (the simulator benchmark also fails on a parallel Outcome that
# differs from the serial oracle's); no timing assertion.
go test -run='^$' -bench='BenchmarkForwardTelemetry|BenchmarkSimulator/n=64' -benchtime=1x \
  ./internal/serve/ ./internal/protocol/validate/ | tee /tmp/harness_bench_smoke.txt
grep -q 'overhead-%' /tmp/harness_bench_smoke.txt
grep '^BenchmarkSimulator/n=64/parallel' /tmp/harness_bench_smoke.txt | grep -q 'msgs/s'

# Leader/follower replication smoke, on the forwardable lex product and
# on the policy product: a leader boots, absorbs a deterministic storm
# and rotation-logs every record; a follower bootstrapped from nothing
# but the live log — which rotation reseeds with a full snapshot — and
# another replaying the whole segment directory must both report the
# identical snapshot version and routing checksum.
go build -o /tmp/mrserve_smoke ./cmd/mrserve
for EXPR in 'lex(delay(32,3), hops(8))' 'scoped(bw(4), delay(64,4))'; do
  REPL_DIR=$(mktemp -d)
  /tmp/mrserve_smoke -expr "$EXPR" -random 24 -dests 4 \
    -log-dir "$REPL_DIR" -log-max-bytes 4096 -replay-storm 50 -oneshot | tee /tmp/replica_leader.txt
  ls "$REPL_DIR"/replica-*.log  # rotation must actually have produced segments
  /tmp/mrserve_smoke -follow "file:$REPL_DIR/replica.log" -oneshot | tee /tmp/replica_follower.txt
  /tmp/mrserve_smoke -follow "file:$REPL_DIR" -oneshot | tee /tmp/replica_follower_dir.txt
  LEADER_STATE=$(sed 's/role=leader//' /tmp/replica_leader.txt)
  FOLLOWER_STATE=$(sed 's/role=follower//' /tmp/replica_follower.txt)
  FOLLOWER_DIR_STATE=$(sed 's/role=follower//' /tmp/replica_follower_dir.txt)
  test -n "$LEADER_STATE" && test "$LEADER_STATE" = "$FOLLOWER_STATE"
  test "$LEADER_STATE" = "$FOLLOWER_DIR_STATE"
  rm -rf "$REPL_DIR"
done

# Allocs/op guards: the flat column build must stay allocation-flat, the
# paged copy-on-write delta rebuild must allocate a fixed handful per
# rebuild plus a page and a pool per changed page (a rebuild that
# changes nothing copies no page table), a short Forward must
# allocate nothing sized by the column, a follower's delta apply must
# stay O(cloned pages) in objects and bytes and its mask O(toggles) (a
# 4-toggle delta under 4 KiB at 400k arcs, within 10 % of 40k), and so
# must the leader's publish path, its mask's O(toggles) share included —
# nothing budgeted per arc, no per-dirty-page slot expansion, no
# per-change next-hop copy. A full
# record must cost its frame (one exactly-sized allocation, no flat copy
# of the columns), and a frame reader's buffer must track the bytes
# received, never the length the frame claims. The adjacency index must stay within
# 24 B/arc + 8 B/node at 100k nodes, and a toggle batch on an overlay
# view must allocate by its endpoints' degree, never by N. A tiered
# memo hit must allocate nothing, interning must allocate by chunk and
# doubling rather than a table generation per weight, and the packed
# order memo must stay at one byte per hot pair. Compiled engines must
# be collected with the order transform they were built from: retained
# heap after infer/compile/drop rounds may not grow with the rounds. A
# licensed scratch solve on a warm workspace allocates nothing and grows
# no per-node buffer beyond the sweep's — on the tiered engine too, whose
# per-id list heads are all empty again after every solve — and a logged
# delta allocates its column, its changed pages and the log pages it
# changed plus one directory copy: at most 2 KB of log a delta, and at 8k
# nodes within 1.5× of that at 2k.
go test -run='^(TestGraphIndexBytes|TestWithArcsToggledAllocs)$' -count=1 ./internal/graph/
go test -run='^(TestTieredHitAllocs|TestTieredFootprint|TestCompiledEnginesCollected)$' -count=1 ./internal/exec/
go test -run='^(TestScratchKernelAllocs|TestLtKernelAllocs)$' -count=1 ./internal/solve/
go test -run='^(TestColumnBuildAllocs|TestDeltaPagedAllocs|TestForwardAllocs|TestDerivationDeltaAllocs)$' \
  -count=1 ./internal/rib/
go test -run='^(TestApplyDeltaAllocs|TestApplyDeltaTogglesAllocs|TestReadRecordBoundedAlloc)$' -count=1 ./internal/replica/
go test -run='^(TestPublishAllocsScaleWithChanges|TestEncodeFullAllocs)$' -count=1 ./internal/serve/

# Zero-alloc query-plane guards, under the race detector: the binary
# batch resolution core (at 7, 256 and wire.MaxBatch queries — its
# per-query stage state lives in the pooled scratch) and the wire codec
# must stay at zero allocations with warm scratch.
go test -race -run='^(TestResolveWireBatchAllocs|TestCodecAllocs)$' -count=1 \
  ./internal/serve/ ./internal/serve/wire/

# Fuzz smoke: a short live session per target so the fuzz harnesses
# cannot bit-rot (go test accepts one -fuzz target per invocation; the
# patterns are anchored because the leader's V1 targets share their
# prefixes with the follower's).
go test -run='^$' -fuzz='^FuzzRouteHandler$' -fuzztime=10s ./internal/serve/
go test -run='^$' -fuzz='^FuzzEventHandler$' -fuzztime=10s ./internal/serve/
go test -run='^$' -fuzz='^FuzzRouteHandlerV1$' -fuzztime=10s ./internal/serve/
go test -run='^$' -fuzz='^FuzzEventsHandlerV1$' -fuzztime=10s ./internal/serve/
go test -run='^$' -fuzz='^FuzzDecodeRecord$' -fuzztime=10s ./internal/replica/
go test -run='^$' -fuzz='^FuzzMaskToggles$' -fuzztime=10s ./internal/replica/
go test -run='^$' -fuzz='^FuzzQueryWire$' -fuzztime=10s ./internal/serve/wire/
go test -run='^$' -fuzz='^FuzzPrefixLPM$' -fuzztime=10s ./internal/rib/

# Convergence-corpus smoke: every strictly-increasing scenario must
# quiesce within the Daggitt-Griffin round budget and every gadget
# scenario must be flagged oscillating; mrexp exits nonzero on any
# theory violation.
go run ./cmd/mrexp -corpus -sim-workers 2 | tee /tmp/corpus_smoke.txt
grep -q '0 theory violations' /tmp/corpus_smoke.txt

go test -run='^$' -fuzz='^FuzzScenarioParse$' -fuzztime=10s ./internal/scenario/

# End-to-end benchmark smoke: one short mrbench run on the smallest
# workload must boot the leader/follower pair, pass every parity and
# checksum gate, and end its output with a result line saying so (no
# timing assertions).
go run ./cmd/mrbench -workload storm-policy-2k -seed 1 -seconds 8 | tee /tmp/mrbench_smoke.txt
tail -n 1 /tmp/mrbench_smoke.txt | grep -q '"correct":true'
