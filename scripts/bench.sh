#!/usr/bin/env bash
# Machine-readable performance trajectory for the Delphi reproduction.
#
# Runs the pinned regression benchmarks — BenchmarkSimCore (simulator core:
# ns/event and allocs/event per size × adversary), BenchmarkSimParallel
# (the n=400/1000/2000 scale curve: sequential vs 8-worker parallel window
# ns/event and their speedup, as paired alternating lanes with a forced
# collection between them so neither lane's garbage lands on the other's
# clock), BenchmarkTCPCellSetup (per-trial tcp setup cost: persistent
# session vs per-trial binds/dials), BenchmarkTCPFrameThroughput (live/tcp
# frame hot path: frames/sec with per-step batching vs
# one-write-per-message, measured as paired alternating trials so host
# drift cannot bias either lane), and the continuous-service benchmarks
# (BenchmarkServiceSim / BenchmarkServiceTCP: service-mode rounds/sec and
# p99 subscriber staleness on the deterministic sim model and on a real
# multiplexed tcp session), plus the paired tracing-on/off observability
# benchmarks (BenchmarkSimParallelObsOverhead on the n=1000 parallel sim
# cell, BenchmarkTCPObsOverhead on the frame-heavy ACS tcp cell; each runs
# several times and the gate takes the median overhead ratio, because
# single paired runs on a noisy host wobble by more than the ≤5% bar),
# plus BenchmarkAdvSearch (the worst-case adversary search: probe
# throughput and the searched-worst-vs-best-fixed-preset score ratio per
# protocol; the gate requires the search to beat or match the preset grid
# on at least one protocol) — and writes the numbers to BENCH_10.json so
# perf regressions are diffable across PRs.
#
# Usage: scripts/bench.sh [output.json]
#   SIM_BENCHTIME (default 1s), PAR_BENCHTIME (default 2x),
#   TCP_BENCHTIME (default 5x), FRAME_BENCHTIME (default 6x),
#   SERVICE_BENCHTIME (default 1x), OBS_BENCHTIME (default 4x),
#   OBS_COUNT (default 3), and SEARCH_BENCHTIME (default 1x) tune runtime.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_10.json}"
sim_benchtime="${SIM_BENCHTIME:-1s}"
par_benchtime="${PAR_BENCHTIME:-2x}"
tcp_benchtime="${TCP_BENCHTIME:-5x}"
frame_benchtime="${FRAME_BENCHTIME:-6x}"
service_benchtime="${SERVICE_BENCHTIME:-1x}"
obs_benchtime="${OBS_BENCHTIME:-4x}"
obs_count="${OBS_COUNT:-3}"
search_benchtime="${SEARCH_BENCHTIME:-1x}"

echo "== BenchmarkSimCore (${sim_benchtime}) =="
sim_out=$(go test ./internal/sim -run '^$' -bench BenchmarkSimCore \
    -benchtime "$sim_benchtime" -count=1 -timeout 900s 2>/dev/null)
echo "$sim_out" | grep BenchmarkSimCore

echo "== BenchmarkSimParallel (${par_benchtime}) =="
par_out=$(go test ./internal/sim -run '^$' -bench BenchmarkSimParallel \
    -benchtime "$par_benchtime" -count=1 -timeout 900s 2>/dev/null)
echo "$par_out" | grep BenchmarkSimParallel

echo "== BenchmarkTCPCellSetup (${tcp_benchtime}) =="
tcp_out=$(go test ./internal/backend -run '^$' -bench BenchmarkTCPCellSetup \
    -benchtime "$tcp_benchtime" -count=1 -timeout 900s 2>/dev/null)
echo "$tcp_out" | grep -E "BenchmarkTCPCellSetup|ms/trial" | grep -v "^2[0-9]"

echo "== BenchmarkTCPFrameThroughput (${frame_benchtime}) =="
frame_out=$(go test ./internal/backend -run '^$' -bench BenchmarkTCPFrameThroughput \
    -benchtime "$frame_benchtime" -count=1 -timeout 900s 2>/dev/null)
echo "$frame_out" | grep BenchmarkTCPFrameThroughput

echo "== BenchmarkServiceSim / BenchmarkServiceTCP (${service_benchtime}) =="
svc_sim_out=$(go test ./internal/bench -run '^$' -bench BenchmarkServiceSim \
    -benchtime "$service_benchtime" -count=1 -timeout 900s 2>/dev/null)
echo "$svc_sim_out" | grep BenchmarkServiceSim
svc_tcp_out=$(go test ./internal/backend -run '^$' -bench BenchmarkServiceTCP \
    -benchtime "$service_benchtime" -count=1 -timeout 900s 2>/dev/null)
echo "$svc_tcp_out" | grep BenchmarkServiceTCP

echo "== BenchmarkSimParallelObsOverhead (${obs_benchtime} x${obs_count}) =="
obs_sim_out=$(go test ./internal/sim -run '^$' -bench BenchmarkSimParallelObsOverhead \
    -benchtime "$obs_benchtime" -count="$obs_count" -timeout 900s 2>/dev/null)
echo "$obs_sim_out" | grep BenchmarkSimParallelObsOverhead

echo "== BenchmarkTCPObsOverhead (${obs_benchtime} x${obs_count}) =="
obs_tcp_out=$(go test ./internal/backend -run '^$' -bench BenchmarkTCPObsOverhead \
    -benchtime "$obs_benchtime" -count="$obs_count" -timeout 900s 2>/dev/null)
echo "$obs_tcp_out" | grep BenchmarkTCPObsOverhead

echo "== BenchmarkAdvSearch (${search_benchtime}) =="
search_out=$(go test ./internal/advsearch -run '^$' -bench BenchmarkAdvSearch \
    -benchtime "$search_benchtime" -count=1 -timeout 900s 2>/dev/null)
echo "$search_out" | grep BenchmarkAdvSearch

# obs_extract <bench output> <bench name>: per-run off/on costs plus the
# median overhead ratio across the repeated runs, as one JSON object.
obs_extract() {
    awk -v bench="$2" '
        $1 ~ "^"bench {
            off = on = ovh = "null"
            for (i = 2; i < NF; i++) {
                if ($(i+1) ~ /^off_/) off = $i
                if ($(i+1) ~ /^on_/) on = $i
                if ($(i+1) == "tracing_overhead") ovh = $i
            }
            offs[++cnt] = off; ons[cnt] = on; ovhs[cnt] = ovh
        }
        END {
            # insertion-sort the overhead ratios, take the median
            for (i = 2; i <= cnt; i++) {
                v = ovhs[i] + 0
                for (j = i - 1; j >= 1 && ovhs[j] + 0 > v; j--) ovhs[j+1] = ovhs[j]
                ovhs[j+1] = v
            }
            med = (cnt % 2) ? ovhs[(cnt+1)/2] : (ovhs[cnt/2] + ovhs[cnt/2+1]) / 2
            printf "{\"runs\": ["
            for (i = 1; i <= cnt; i++)
                printf "%s{\"off\": %s, \"on\": %s}", (i > 1 ? ", " : ""), offs[i], ons[i]
            printf "], \"median_overhead\": %.4f}", med
        }' <<< "$1"
}

{
    printf '{\n'
    printf '  "issue": 10,\n'
    printf '  "generated": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
    printf '  "go": "%s",\n' "$(go env GOVERSION)"
    printf '  "host": "%s/%s",\n' "$(go env GOOS)" "$(go env GOARCH)"

    printf '  "sim_core": [\n'
    echo "$sim_out" | awk '
        /^BenchmarkSimCore\// {
            name = $1
            sub(/^BenchmarkSimCore\//, "", name)
            sub(/-[0-9]+$/, "", name)
            split(name, parts, "/")
            n = parts[1]; sub(/^n=/, "", n)
            adv = parts[2]
            nse = ape = epr = "null"
            for (i = 2; i < NF; i++) {
                if ($(i+1) == "ns/event") nse = $i
                if ($(i+1) == "allocs/event") ape = $i
                if ($(i+1) == "events/run") epr = $i
            }
            lines[++cnt] = sprintf("    {\"n\": %s, \"adversary\": \"%s\", \"ns_per_event\": %s, \"allocs_per_event\": %s, \"events_per_run\": %s}", n, adv, nse, ape, epr)
        }
        END {
            for (i = 1; i <= cnt; i++) printf "%s%s\n", lines[i], (i < cnt ? "," : "")
        }'
    printf '  ],\n'

    # Scale curve: sequential vs 8-worker parallel window, per n. Both
    # lanes and the speedup come out of one paired benchmark, so the three
    # numbers are consistent by construction.
    printf '  "sim_parallel": [\n'
    echo "$par_out" | awk '
        /^BenchmarkSimParallel\/n=/ {
            name = $1
            sub(/^BenchmarkSimParallel\//, "", name)
            sub(/-[0-9]+$/, "", name)
            n = name; sub(/^n=/, "", n)
            seq = par = spd = epr = "null"
            for (i = 2; i < NF; i++) {
                if ($(i+1) == "seq_ns/event") seq = $i
                if ($(i+1) == "par_ns/event") par = $i
                if ($(i+1) == "parallel_speedup") spd = $i
                if ($(i+1) == "events/run") epr = $i
            }
            lines[++cnt] = sprintf("    {\"n\": %s, \"workers\": 8, \"seq_ns_per_event\": %s, \"par_ns_per_event\": %s, \"parallel_speedup\": %s, \"events_per_run\": %s}", n, seq, par, spd, epr)
        }
        END {
            for (i = 1; i <= cnt; i++) printf "%s%s\n", lines[i], (i < cnt ? "," : "")
        }'
    printf '  ],\n'

    printf '  "tcp_cell_setup": [\n'
    echo "$tcp_out" | awk '
        /^BenchmarkTCPCellSetup\// {
            name = $1
            sub(/^BenchmarkTCPCellSetup\//, "", name)
            sub(/-[0-9]+$/, "", name)
            ms = nsop = "null"
            for (i = 2; i < NF; i++) {
                if ($(i+1) == "ms/trial") ms = $i
                if ($(i+1) == "ns/op") nsop = $i
            }
            if (ms == "null") next
            lines[++cnt] = sprintf("    {\"mode\": \"%s\", \"ms_per_trial\": %s, \"cell_ns\": %s}", name, ms, nsop)
            vals[name] = ms
        }
        END {
            for (i = 1; i <= cnt; i++) printf "%s%s\n", lines[i], (i < cnt ? "," : "")
        }'
    printf '  ],\n'

    speedup=$(echo "$tcp_out" | awk '
        /^BenchmarkTCPCellSetup\// {
            name = $1
            sub(/^BenchmarkTCPCellSetup\//, "", name)
            sub(/-[0-9]+$/, "", name)
            for (i = 2; i < NF; i++) if ($(i+1) == "ms/trial") vals[name] = $i
        }
        END {
            if (vals["session"] > 0) printf "%.2f", vals["per-trial"] / vals["session"]
            else printf "null"
        }')
    printf '  "tcp_session_speedup": %s,\n' "$speedup"

    # Frame hot path: both lanes and their ratio come out of one paired
    # benchmark (alternating trials), so the three numbers are consistent
    # by construction.
    echo "$frame_out" | awk '
        /^BenchmarkTCPFrameThroughput/ {
            for (i = 2; i < NF; i++) {
                if ($(i+1) == "batched_fps") bat = $i
                if ($(i+1) == "unbatched_fps") unb = $i
                if ($(i+1) == "batch_speedup") spd = $i
            }
        }
        END {
            printf "  \"tcp_frames\": {\"batched_fps\": %s, \"unbatched_fps\": %s},\n", bat, unb
            printf "  \"tcp_batch_speedup\": %s,\n", spd
        }'

    # Continuous-service mode: rounds/sec and p99 subscriber staleness per
    # backend. The sim numbers are virtual-time (deterministic); the tcp
    # numbers are a real wall-clock soak over one multiplexed session.
    svc_extract() {
        awk '
            /rounds\/s/ {
                for (i = 2; i < NF; i++) {
                    if ($(i+1) == "rounds/s") rps = $i
                    if ($(i+1) == "p99_staleness_ms") p99 = $i
                }
            }
            END {
                if (rps == "") rps = "null"
                if (p99 == "") p99 = "null"
                printf "{\"rounds_per_sec\": %s, \"p99_staleness_ms\": %s}", rps, p99
            }'
    }
    printf '  "service": {\n'
    printf '    "sim": %s,\n' "$(echo "$svc_sim_out" | svc_extract)"
    printf '    "tcp": %s\n' "$(echo "$svc_tcp_out" | svc_extract)"
    printf '  },\n'

    # Observability cost: ns/event (sim) and ms/trial (tcp) with tracing
    # off/on, per repeated run, plus the median on/off ratio the gate uses.
    printf '  "obs_overhead": {\n'
    printf '    "sim_parallel_n1000": %s,\n' "$(obs_extract "$obs_sim_out" BenchmarkSimParallelObsOverhead)"
    printf '    "tcp_acs_frames": %s\n' "$(obs_extract "$obs_tcp_out" BenchmarkTCPObsOverhead)"
    printf '  },\n'

    # Worst-case adversary search: probe throughput on the quick space and
    # the searched worst case vs the strongest fixed preset, per protocol.
    printf '  "advsearch": [\n'
    echo "$search_out" | awk '
        /^BenchmarkAdvSearch\// {
            name = $1
            sub(/^BenchmarkAdvSearch\//, "", name)
            sub(/-[0-9]+$/, "", name)
            pps = best = preset = ratio = "null"
            for (i = 2; i < NF; i++) {
                if ($(i+1) == "probes/sec") pps = $i
                if ($(i+1) == "best_score") best = $i
                if ($(i+1) == "preset_worst") preset = $i
                if ($(i+1) == "best_over_preset") ratio = $i
            }
            lines[++cnt] = sprintf("    {\"protocol\": \"%s\", \"probes_per_sec\": %s, \"best_score\": %s, \"preset_worst\": %s, \"best_over_preset\": %s}", name, pps, best, preset, ratio)
        }
        END {
            for (i = 1; i <= cnt; i++) printf "%s%s\n", lines[i], (i < cnt ? "," : "")
        }'
    printf '  ]\n'
    printf '}\n'
} > "$out"

echo "wrote $out"

# The batching speedup is the frame hot path's acceptance bar: fail loudly
# if batched sends ever regress to near-unbatched throughput.
speedup=$(awk -F': ' '/"tcp_batch_speedup"/ {gsub(/[ ,]/, "", $2); print $2}' "$out")
awk -v s="$speedup" 'BEGIN { exit !(s >= 1.5) }' || {
    echo "FAIL: tcp_batch_speedup $speedup < 1.5" >&2
    exit 1
}
echo "tcp_batch_speedup $speedup >= 1.5"

# The parallel window executor's acceptance bar: the n=1000 cell must not
# run slower than the sequential loop at 8 workers. Both executors file
# events in the same calendar, so the margin is one counting sort per window
# against the sequential loop's radix sort of each bucket it drains, plus
# what the host's cores add: 147 against 112 ns/event, 1.25x, on the 2-core
# reference host (while the sequential loop heap-popped its buckets it read
# 289, and the bar was 1.3x). What is left to gate is that sharding pays.
par_speedup=$(awk -F'"parallel_speedup": ' '
    /"n": 1000,/ { split($2, a, /[,}]/); print a[1] }' "$out")
awk -v s="$par_speedup" 'BEGIN { exit !(s >= 1.0) }' || {
    echo "FAIL: parallel_speedup at n=1000 is $par_speedup < 1.0" >&2
    exit 1
}
echo "parallel_speedup at n=1000 is $par_speedup >= 1.0"

# The observability acceptance bar: an attached recorder may cost at most
# 5% on either gated cell, judged on the median ratio across the repeated
# paired runs (single paired runs wobble by more than 5% on a busy host).
for cell in sim_parallel_n1000 tcp_acs_frames; do
    ovh=$(awk -v cell="$cell" -F'"median_overhead": ' '
        $0 ~ "\"" cell "\"" { split($2, a, /[,}]/); print a[1] }' "$out")
    awk -v s="$ovh" 'BEGIN { exit !(s <= 1.05) }' || {
        echo "FAIL: tracing overhead on $cell is $ovh > 1.05" >&2
        exit 1
    }
    echo "tracing overhead on $cell is $ovh <= 1.05"
done

# The worst-case search's acceptance bar: on at least one protocol the
# searched worst case must beat or match the strongest fixed preset at the
# same probe budget (the search is an argmax over both, so a ratio below
# 1.0 means the accounting itself broke).
best_ratio=$(awk -F'"best_over_preset": ' '
    /"best_over_preset"/ { split($2, a, /[,}]/); if (a[1] + 0 > m) m = a[1] + 0 }
    END { printf "%.3f", m }' "$out")
awk -v s="$best_ratio" 'BEGIN { exit !(s >= 1.0) }' || {
    echo "FAIL: searched worst case never reaches the preset grid (max best_over_preset $best_ratio < 1.0)" >&2
    exit 1
}
echo "searched worst case vs best fixed preset: max ratio $best_ratio >= 1.0"
