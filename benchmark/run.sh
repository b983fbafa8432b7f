#!/usr/bin/env bash
# The benchmark's one command. Builds the benchmark package in release
# mode, offline, then:
#
#   run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload in one process (the benchmark contract's
#       invocation): --trace 0 prints the end-to-end metrics, --trace 1 the
#       per-layer ones; the last line of output is the result as JSON.
#   run.sh [--seed N] [--seconds S]
#       a full set: every workload untraced, each in its own process (peak
#       RSS is per workload), then every workload's traced run. Prints
#       every metric as `name unit value ...`; exits non-zero if any cell
#       failed. The set is also kept in benchmark/out/set.txt.
#   run.sh --selfcheck [--seed N] [--seconds S]
#       two full sets of the same build, then `--compare`: timings must
#       agree within their bounds, everything simulated exactly.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
bin="$target/release/flashsim-benchmark"

for arg in "$@"; do
    if [[ "$arg" == --workload ]]; then
        exec "$bin" "$@"
    fi
done

seed=1
seconds=12
selfcheck=0
while (($#)); do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --selfcheck) selfcheck=1; shift ;;
        *) echo "usage: run.sh [--selfcheck] [--seed N] [--seconds S] | --workload NAME ..." >&2; exit 2 ;;
    esac
done

workloads=$("$bin" --list | awk '/^workloads:/ {on = 1; next} /^[^ ]/ {on = 0} on {print $1}')
mkdir -p benchmark/out

# run_set FILE: one full set into FILE (and stdout); fails if any run did.
run_set() {
    local status=0
    echo "# host nproc=$(nproc) kernel=$(uname -r) rustc=$(rustc --version | cut -d' ' -f2)" | tee "$1"
    for trace in 0 1; do
        for workload in $workloads; do
            "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
                | tee -a "$1" || status=1
        done
    done
    return $status
}

if ((selfcheck)); then
    run_set benchmark/out/set-a.txt
    run_set benchmark/out/set-b.txt
    "$bin" --compare benchmark/out/set-a.txt benchmark/out/set-b.txt
else
    run_set benchmark/out/set.txt
fi
