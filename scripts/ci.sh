#!/usr/bin/env bash
# Tier-1 verification for the Delphi reproduction (see ROADMAP.md).
#
# Usage: scripts/ci.sh [-short]
#   -short   skip the slow experiment-harness tests (internal/bench)
#
# Gates, in order: formatting, vet, build, race-enabled tests.
set -euo pipefail
cd "$(dirname "$0")/.."

# A plain string, not an array: expanding an empty array under `set -u`
# aborts on bash < 4.4 (e.g. macOS system bash 3.2).
short_flag=""
if [[ "${1:-}" == "-short" ]]; then
    short_flag="-short"
fi

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

# Package state is built where it is declared, not by init side effects: no
# non-test Go file outside perf/ (its own module) declares func init().
echo "== no init functions =="
inits=$(find . -name '*.go' ! -name '*_test.go' ! -path './.*' ! -path './perf/*' -print0 |
    xargs -0 grep -l '^func init()' || true)
if [[ -n "$inits" ]]; then
    echo "func init() declared in:" >&2
    echo "$inits" >&2
    exit 1
fi

# One simulator entry point: outside internal/sim itself, the run layer
# (internal/run) and perf/ (its own module), no non-test Go file builds a
# sim.NewRunner — every simulated run goes through run.Run and its checks.
echo "== one simulator entry point =="
runners=$(find . -name '*.go' ! -name '*_test.go' ! -path './.*' ! -path './perf/*' \
    ! -path './internal/sim/*' ! -path './internal/run/*' -print0 |
    xargs -0 grep -l 'sim\.NewRunner(' || true)
if [[ -n "$runners" ]]; then
    echo "sim.NewRunner called outside internal/run in:" >&2
    echo "$runners" >&2
    exit 1
fi

echo "== go build =="
go build ./...

# The examples are the library's first readers, and an API change edits
# them: build and run each one, so an edited example is executed, not only
# compiled (all four together run in well under a second).
echo "== examples =="
for ex in examples/*/; do
    go run "./$ex" > /dev/null
done

# The live-cluster demo, in process, plain and with the DORA certificate
# round: RunLive and RunLiveOracles check every run (and RunLiveOracles
# verifies every certificate), so a violation exits 1 here.
echo "== cmd/delphi =="
go run ./cmd/delphi -n 4 -f 1 > /dev/null
go run ./cmd/delphi -n 4 -f 1 -oracle > /dev/null

# The library's size, printed and not gated: non-test Go lines outside
# cmd/, examples/, perf/ and hidden directories (.git, the benchmark's
# .bench_build).
echo "== library non-test Go lines =="
find . -name '*.go' ! -name '*_test.go' ! -path './.*' \
    ! -path './cmd/*' ! -path './examples/*' ! -path './perf/*' -print0 |
    xargs -0 cat | wc -l
# The same count per internal/* package (a package's own directory), so a
# change can be held to leaving its package no larger; printed, not gated.
for pkg in internal/*/; do
    printf '%6d %s\n' "$(find "$pkg" -maxdepth 1 -name '*.go' ! -name '*_test.go' -print0 |
        xargs -0 cat /dev/null | wc -l)" "${pkg%/}"
done

echo "== go test -race =="
go test -race ${short_flag:+"$short_flag"} ./...

# Every benchmark, once (including -short; ~15 s). `go test` runs none, and a
# benchmark's runs pass the same per-run checks as a test's, so a benchmark
# whose spec breaks its own guarantees fails here instead of going unseen.
echo "== benchmarks, once =="
go test -run '^$' -bench . -benchtime 1x ./...

# The adversary scenario axis is exercised on every run (including -short,
# where the heavy bench tests skip): a quick-scale sweep of the named
# DelayRule presets across protocols, run twice to hold the byte-identical
# reruns guarantee.
echo "== adversary-matrix smoke =="
adv1=$(mktemp)
adv2=$(mktemp)
trap 'rm -f "$adv1" "$adv2" "${svc1:-}" "${svc2:-}"' EXIT
# (the "[... completed in ...]" wall-clock lines go to stderr, not stdout)
go run ./cmd/experiments -scale quick -seed 1 -run adversary > "$adv1"
go run ./cmd/experiments -scale quick -seed 1 -run adversary > "$adv2"
if ! cmp -s "$adv1" "$adv2"; then
    echo "adversary sweep reruns differ:" >&2
    diff "$adv1" "$adv2" >&2 || true
    exit 1
fi

# The BinAA engine's per-delivery path carries two guarantees of its own:
# the transcript golden (TestTranscriptGolden — every message a node emits
# and every weight it decides, byte for byte, clean / Byzantine / crashed,
# compression on and off) and the allocation gate (TestDeliverAllocs — a
# delivery that crosses no vote threshold allocates nothing). Both ran in
# `go test -race ./...` above and are not run again. What that pass does not
# do is fuzz: a short smoke of the compressed-bundle decoder and
# reconstruction, the one engine path that indexes by wire-supplied counts
# (one -fuzz target per invocation is a go test rule). Each input goes to two
# engines: one with the base round current (the bundle is rebuilt in a copy)
# and one that has left it (rebuilt in the stored base bundle itself, so a
# rejected bundle is also checked to have left that base untouched). Last, the
# tally oracle: the engine keeps a round's agreeing votes as implicit tallies
# and materialises one on the first vote that disagrees, so a byte-driven
# stream of deliveries (duplicate listings, NaN and −0, echoes ahead of their
# bundle, bitmap bits over zero-listed entries, explicit ECHO2 overrides, late
# activation, left rounds, and compressed bundles, which the oracle rebuilds
# against the sender's previous bundle — mostly unchanged ones, which a quiet
# round records without walking their entries) is checked after every delivery
# against a brute-force recount of each (instance, round)'s voter sets.
echo "== binaa compressed-bundle and tally fuzz smoke =="
go test ./internal/binaa -run '^$' -fuzz FuzzDecodeEcho1C -fuzztime 10s
go test ./internal/binaa -run '^$' -fuzz FuzzApplyCompressed -fuzztime 10s
go test ./internal/binaa -run '^$' -fuzz FuzzEngineTallies -fuzztime 10s

# The baselines count votes in node.Set bitsets and dense tables indexed by
# initiator, tag, slot and round. Each engine is fuzzed against the map-keyed
# counting it replaced, kept in its test file as the oracle: one byte-driven
# stream (repeats, two payloads or both values per instance, votes ahead of
# their INIT or round, zombie rounds after an ABA decision, and initiators,
# tags, instances, rounds and senders out of range) must give the same
# emitted messages and deliveries or decisions, in the same order.
echo "== rbc and aba counting fuzz smoke =="
go test ./internal/rbc -run '^$' -fuzz FuzzRBCCounts -fuzztime 10s
go test ./internal/aba -run '^$' -fuzz FuzzABACounts -fuzztime 10s

# The simulator's event queue carries a byte-identity guarantee: fixed-seed
# outputs for every protocol under every adversary preset must match the
# golden file bit for bit (TestSimGoldenByteIdentity), because a silent
# schedule change would invalidate every downstream measurement. The window
# executor, the simulator's one executor, carries worker-count determinism —
# a run is byte-identical across reruns and across 1/4/8 workers
# (TestParallelDeterminism, TestParallelScratchReuse,
# TestParallelOverflowHorizon) — and fails loudly on a latency model that
# undercuts its declared MinLatency, the window width
# (TestLookaheadViolation). All of these ran under -race in
# `go test -race ./...` above, none is -short-gated, and they are not run
# again. Neither are the quick-scale text of every experiment
# (TestExperimentsGolden), the run count of their de-duplicated batch
# (TestExperimentsRunCount), and the seed sweep that holds every protocol's
# per-run check over clean and preset networks (run.TestSeedSweep). The sim
# golden file's last nine cells (Delphi n=40, FIN n=31, Dolev n=300) fill
# windows past the radix sort's threshold; what that pass does not do is
# search the queue's order: a short fuzz of a shard's queue (calendar ring +
# overflow heap + window order, at three window widths, early stops
# included) against a reference min-heap on interleaved pushes and windows.
echo "== sim event-queue fuzz smoke =="
go test ./internal/sim -run '^$' -fuzz FuzzCalendarOrder -fuzztime 10s

# The checks between a socket and the driver — the tcp [sender][len] record
# loop, the batch-envelope walk the driver and the accounting wrapper both
# lean on, the 8-byte suffix demux (epoch filter and InstanceMux tag router)
# and auth.Open — against arbitrary input: no panic, no slice past the input,
# oversize and truncated records counted, the envelope codec round-trips, a
# frame without the expected suffix is counted stale and recycled, and
# nothing opens but a sealed frame under its own sender. The record loop is
# also fuzzed against the bufio loop it replaced, kept as the oracle: any
# stream, cut into any read boundaries (split headers, jumbo frames past the
# 16 KiB stage), must give the same frames, drops and stopping point. Its
# minimisation is capped at 100 runs: a jumbo-sized input costs about a
# millisecond a run, and minimising one would take the whole 10 s. Last, what the driver
# hands an opened frame to: the full message registry's decode — no panic, no
# read past the frame, and whatever decodes re-encodes to exactly WireSize
# bytes that decode to the same message (the size the simulator caches per
# send is the size on the wire).
echo "== runtime socket-parser fuzz smoke =="
go test ./internal/runtime -run '^$' -fuzz FuzzUnpackBatch -fuzztime 10s
go test ./internal/runtime -run '^$' -fuzz FuzzTCPHeaderLoop -fuzztime 10s
go test ./internal/runtime -run '^$' -fuzz FuzzLinkReader -fuzztime 10s -fuzzminimizetime 100x
go test ./internal/runtime -run '^$' -fuzz FuzzSuffixDemux -fuzztime 10s
go test ./internal/auth -run '^$' -fuzz FuzzAuthOpen -fuzztime 10s
go test ./internal/codec -run '^$' -fuzz FuzzDecodeFramed -fuzztime 10s

# The window executor across workers, gated under -race on every run:
# determinism at the engine level on quick n=8, δ=20 cells (every protocol,
# clean and under two adversary presets, one shard against 1/4/8 workers).
# What -race is here to catch is the staging chains' ownership rule: a chain of chunks is written in window
# k by the sending shard's worker, read in k+1 by the receiving shard's, and
# recycled in k+2 by the sender's again, with only the window barrier between
# them — a chunk recycled a window early, or a chain walked while it is still
# being written, is a data race before it is a wrong result
# (TestParallelStagingChains: chains of 16+ chunks at 1/2/3/8 workers, fresh,
# rebuilt and warm arenas; TestEarlyStopLeaksNoMessage: chains nobody walked).
# The same barrier is all that orders a sent record — message, cached wire
# size, sender and sequence base, written once by the sending shard's step —
# before its reads on every other shard (TestBroadcastIsNSends: one staged
# Broadcast against n Sends, in and out of step, 1/2/3 workers; TestTieOrder:
# the order of deliveries that tie on time, looked up through those records;
# TestEventLayout: the 16-byte pointer-free event). An event names its record
# by index, and the other shards resolve it while the sender's arena grows:
# TestSentArenaGrowsUnderReaders is a race on any slab table that moves.
# The one-shot tests pin the same for run.Run's borrowed Scratch: invisible
# in results, never shared by two concurrent runs, dropped by a run that
# panics, gone after a collection, and a second run allocates no arena.
echo "== parallel-sim gate (-race) =="
go test ./internal/sim -race -count=1 \
    -run 'TestParallelStagingChains|TestEarlyStopLeaksNoMessage|TestEventLayout|TestBroadcastIsNSends|TestTieOrder|TestSentArenaGrowsUnderReaders'
go test ./internal/bench -race -count=1 \
    -run 'TestParallelWindowAgreement|TestParallelWindowDeterminism'
go test ./internal/run -race -count=1 -run 'TestOneShot'

# The execution-backend axis is exercised on every run (including -short):
# an existing workload retargeted onto a live goroutine cluster with
# `-backend live`. Every run is checked where its outputs are assembled
# (RunSpec.StatsFromOutputs): a run that breaks ε-agreement or validity
# fails its batch, so it fails this step. Wall-clock columns are real time
# and non-deterministic by design, so no byte comparison here; the
# cross-backend δ-window tests (`TestCrossBackendValidation*`) and the full
# TCP-cluster smoke (`TestTCPBackend`, `TestTCPTransportDelphi`) live in the
# test suite, the tcp ones -short-gated, so the workflow's full (main) runs
# cover them while PR runs stay fast.
echo "== backend smoke =="
go run ./cmd/experiments -scale quick -seed 1 -backend live -run matrix > /dev/null

# The live/tcp frame hot path batches per-step sends into sealed envelopes;
# the gates below run explicitly so a trimmed test invocation above can
# never silently drop them: per-link FIFO under overflow bursts and the
# dial-stall/close races (under -race — these are ordering and locking
# bugs), and the batched-vs-unbatched equivalence check (the batching knob
# must not move the simulator by a bit, and batched and unbatched live
# runs must agree inside the cross-backend δ window with zero transport
# drops). A tcp fabric's links carry both directions on one connection, so
# the same list holds both-way FIFO on every link at once and the fallback
# to one-way dials when a link breaks. The receive side's allocation gate
# (TestEnvelopeDecodeAllocs: a driver decodes a 16-message envelope into its
# arena for at most one allocation), the send side's (TestBroadcastAllocs…:
# a steady step of two broadcasts and a flush allocates nothing;
# TestEveryMessageAppends: every message type appends into a buffer with room
# for free), keying's (TestKeyingAllocs: keying a node for a 16-node trial and
# using each channel both ways costs at most 8 allocations) and the vote
# counters' (TestRBCRowAllocs, TestABARoundAllocs: a tag row's or a round's
# first votes for every instance cost at most two allocations;
# TestSpamVotesAreBounded: 10 000 distinct-payload ECHOs from one sender make
# at most one further tally), and a warm session's (TestArenaReset: a reset
# arena refills without allocating and hands out zeroed values;
# TestInboxPoolSizeClasses: a frame pool warmed with alternating envelope
# sizes allocates nothing; TestWarmTrialAllocs: a FIN n=16 trial on a warm
# tcp session makes at most 900 allocations of at most 200 KiB in all), and
# the per-trial state sized by use (TestEngineSizedByRounds: an n=16 ABA
# engine allocates under 1 KiB and keeps a round-1 decision's rows inline;
# TestSourceSizedByUse: a 64-coin source allocates itself alone; TestNewBytes:
# keying a node for n=16 allocates at most 2 KiB; TestZeroByteKey: a channel
# key with a zero byte is derived once) run without -race, which allocates.
echo "== transport batching gate =="
go test ./internal/runtime -race -count=1 \
    -run 'TestHubPerLinkFIFO|TestTCPPerLinkFIFO|TestTCPDialStall|TestTCPDialInstallRace|TestTCPDropCounter|TestTCPNetLinksCarryBothDirections|TestTCPNetBrokenLinkFallsBack'
go test ./internal/backend ./internal/runtime ./internal/rbc ./internal/aba ./internal/coin ./internal/auth ./internal/codec ./internal/wire -count=1 ${short_flag:+"$short_flag"} \
    -run 'TestBatchingLiveAgreement|TestBatchingTCPAgreement|TestSessionTransportDrops|TestEnvelopeDecodeAllocs|TestBroadcastAllocsDoNotGrowWithN|TestEveryMessageAppends|TestKeyingAllocs|TestRBCRowAllocs|TestABARoundAllocs|TestSpamVotesAreBounded|TestArenaReset|TestInboxPoolSizeClasses|TestWarmTrialAllocs|TestEngineSizedByRounds|TestFarRoundBound|TestSourceSizedByUse|TestNewBytes|TestZeroByteKey'

# A tcp node holds its drivers' writes while any of them is in a step and
# writes once per peer when the last goes idle (runtime's "Write side"). The
# hold tests' interleavings depend on goroutine timing, so they run twenty
# times under -race: one write per peer for two instances, the flushEvery
# bound across drivers taking turns, per-link FIFO with a sender that holds
# nothing, a failed write counted and redialed, and no hold left behind on
# any exit path.
echo "== tcp write hold gate (-race -count=20) =="
go test ./internal/runtime -race -count=20 -run 'TestHold'

# Persistent-session smoke: the matrix's tcp cells through the engine, each
# worker reusing one loopback cluster (listeners + connections) across its
# trials. The per-run check fails the run on any agreement or validity
# violation. Stale inter-trial frames are filtered by epoch id and counted,
# so stderr stays empty on a clean run. The second run takes the per-trial
# setup path (-sessions=false).
echo "== tcp session smoke =="
go run ./cmd/experiments -scale quick -seed 1 -backend tcp -run matrix > /dev/null
go run ./cmd/experiments -scale quick -seed 1 -backend tcp -sessions=false -run matrix > /dev/null

# Continuous-service mode, two gates that run on every invocation
# (including -short):
#   1. The simulator service model is deterministic end to end: the rendered
#      report must be byte-identical across reruns AND across worker counts.
#   2. The tcp soak (short profile: 150 rounds multiplexed onto ONE
#      persistent loopback session, window 4) under -race, with goroutine,
#      fd, and heap counts asserted flat mid-run and zero unaccounted frame
#      drops. Beside it, the one-shot leak test: twenty sequential live and
#      tcp one-shot runs (each opens and closes a whole fabric), crashed
#      slots and a never-halting spammer included, with goroutine and fd
#      counts asserted flat.
echo "== service determinism gate =="
svc1=$(mktemp)
svc2=$(mktemp)
go run ./cmd/experiments -scale quick -seed 1 -workers 1 -run service > "$svc1"
go run ./cmd/experiments -scale quick -seed 1 -workers 8 -run service > "$svc2"
if ! cmp -s "$svc1" "$svc2"; then
    echo "sim service reruns differ across worker counts:" >&2
    diff "$svc1" "$svc2" >&2 || true
    exit 1
fi

echo "== tcp service soak and one-shot leak (-race) =="
go test ./internal/backend -race -short -count=1 -run 'TestServiceTCPSoak|TestOneShotNoLeak'

# Observability gates, all explicit so a trimmed test invocation above can
# never silently drop them:
#   1. Trace determinism (Go level): a fixed-seed sim run's exported trace
#      is byte-identical across reruns and across parallel worker counts,
#      clean and under the jitter-storm adversary — and attaching the
#      recorder moves no result bit (the disabled-tracing golden check:
#      traced and untraced runs produce identical golden lines, on top of
#      TestSimGoldenByteIdentity in the test pass above, which runs
#      entirely untraced).
#   2. Span decomposition + accounting identity on the service model.
#   3. Zero-alloc regression on the disabled driver/transport hot paths.
#   4. Trace determinism (CLI level): `-run table2 -trace` records every
#      run of a table target, and its Perfetto JSON is non-empty and
#      byte-identical across -workers 1/4/8 (the engine's core budget, so
#      also across the window shard counts it picks).
echo "== observability gate =="
go test ./internal/bench -count=1 \
    -run 'TestSimTraceDeterminism|TestServiceSimSpanDecomposition|TestServiceSimMetricsAccounting|TestRunStatsMetricsSnapshot'
go test ./internal/runtime -count=1 -run 'TestDisabledObs'
tr1=$(mktemp)
tr2=$(mktemp)
trap 'rm -f "$adv1" "$adv2" "${svc1:-}" "${svc2:-}" "$tr1" "$tr2"' EXIT
go run ./cmd/experiments -scale quick -seed 1 -workers 1 -run table2 -trace "$tr1" > /dev/null
if ! grep -q '"ph"' "$tr1"; then
    echo "-run table2 -trace recorded no events" >&2
    exit 1
fi
for w in 4 8; do
    go run ./cmd/experiments -scale quick -seed 1 -workers "$w" -run table2 -trace "$tr2" > /dev/null
    if ! cmp -s "$tr1" "$tr2"; then
        echo "trace bytes differ between -workers 1 and $w" >&2
        exit 1
    fi
done

# Worst-case search gate: the adversary-space search (successive halving +
# annealing, internal/advsearch) is a pure function of its seed — the
# printed profiles must be byte-identical across reruns. The search
# exercises the adaptive adversaries end to end: every probe's
# history-reactive schedule must reproduce exactly for the bytes to match.
# Its probes run one window shard; shard-count invariance is gated by
# TestAdaptiveDeterminism, TestParallelWindowAgreement/Determinism and
# TestSimTraceDeterminism in the test pass.
echo "== worst-case search determinism gate =="
wc1=$(mktemp)
wc2=$(mktemp)
trap 'rm -f "$adv1" "$adv2" "${svc1:-}" "${svc2:-}" "$tr1" "$tr2" "${wc1:-}" "${wc2:-}"' EXIT
go run ./cmd/experiments -scale quick -seed 1 -run worstcase > "$wc1"
go run ./cmd/experiments -scale quick -seed 1 -run worstcase > "$wc2"
if ! cmp -s "$wc1" "$wc2"; then
    echo "worst-case search reruns differ:" >&2
    diff "$wc1" "$wc2" >&2 || true
    exit 1
fi

# perf/ is its own module compiled against this one's exported API, and
# `go build ./... && go test ./...` never enters it: vet it, run its tests,
# and run every workload once at smoke size, untraced and traced (the traced
# tcp-fin pass builds perf's own cluster over runtime, auth and wire), so an
# API break against the benchmark fails here instead of in the benchmark run.
echo "== perf module (vet, test, smoke) =="
perf_start=$SECONDS
go vet -C perf ./...
go test -C perf ./...
bash perf/run.sh -smoke > /dev/null
bash perf/run.sh -smoke -trace > /dev/null
echo "perf module step: $((SECONDS - perf_start)) s"

echo "CI OK in $SECONDS s"
