#!/bin/sh
# Full offline CI gate: build, test, formatting, lints.
# Run from anywhere inside the repository; no network access required.
set -eu

cd "$(dirname "$0")/.."

echo "== cargo build --release =="
# Whole-program (the one-profile gate below): the wall time is printed
# because fat LTO is what a release build now spends most of it on.
build_started=$(date +%s)
cargo build --release --workspace
echo "release build took $(($(date +%s) - build_started)) s"
flashsim=./target/release/flashsim

echo "== cargo test -q =="
cargo test -q --workspace

echo "== benchmark package (its own workspace) =="
# benchmark/ drives crates/* through their public API (LaggardHeap,
# ThreadStream, Core::execute, FixedEnv, ...) but is a workspace of its
# own, so `--workspace` above never compiles it: without this step a
# public-API change would first fail in the benchmark pipeline.
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== scheduler equivalence worker sweep (1, 2, host parallelism) =="
# The parallel policy must be byte-identical to the reference
# interleaving at *every* worker count, not just the suite's default of
# 2: one worker (pure fork overhead, no concurrency), two (the smallest
# real interleaving), and 0 = one per available host core. That includes
# the runs with telemetry, the profiler and a checkpoint sink attached
# (the per-op observer writes ride in per-node windows across every fork
# and join:
# `observer_windows_lose_nothing_across_forks_and_barrier_cuts`), and the
# host profiler's isolation suite, which reads the same variable.
for w in 1 2 0; do
    echo "-- FLASHSIM_EQ_WORKERS=$w --"
    FLASHSIM_EQ_WORKERS=$w cargo test -q --test sched_equivalence --test hostprof_isolation
done

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== panic/unwrap/expect/unreachable + unsafe-concurrency gate (library crates) =="
# Library code must fail structurally (SimError), not panic: reject
# panic!/.unwrap()/.expect(/unreachable! outside #[cfg(test)] regions.
# The parallel scheduler also makes `static mut` and hand-asserted
# `unsafe impl Send/Sync` load-bearing hazards, so those are rejected
# outright — cross-thread sharing must go through the safe primitives.
# The bench crate (CLI tools), test modules, comments, and sites
# annotated `gate: allow` — same line or the comment line directly above
# (documented programming-error contracts) — are exempt.
violations=$(find crates -name '*.rs' -path '*/src/*' ! -path 'crates/bench/*' \
    -exec awk '
        FNR == 1 { intest = 0; skipnext = 0 }
        /#\[cfg\(test\)\]/ { intest = 1 }
        intest { next }
        { stripped = $0; sub(/^[ \t]+/, "", stripped) }
        stripped ~ /^\/\// { if ($0 ~ /gate: allow/) skipnext = 1; next }
        /gate: allow/ { next }
        skipnext { skipnext = 0; next }
        /panic!\(|\.unwrap\(\)|\.expect\(|unreachable!\(/ { print FILENAME ":" FNR ": " $0 }
        /static[ \t]+mut[ \t]|unsafe[ \t]+impl/ { print FILENAME ":" FNR ": " $0 }
    ' {} +)
if [ -n "$violations" ]; then
    echo "library code must return SimError instead of panicking, and must"
    echo "not smuggle shared mutable state past the compiler:"
    echo "$violations"
    exit 1
fi

echo "== observer-spine gate (one attach per layer) =="
# Observers reach a layer as one engine::Observers bundle through its one
# `attach`, built from MachineConfig only: there is no per-handle attach.
strays=$(grep -rnE 'fn attach_(tracer|profiler|telemetry|spans|hostprof)\b' crates/*/src || true)
if [ -n "$strays" ]; then
    echo "per-handle observer attach:"
    echo "$strays"
    exit 1
fi

echo "== one-recorder gate (spans are the only per-transaction timeline) =="
# engine::span is the one per-transaction recorder and `flashsim spans
# SIM` the hardware-vs-simulator diff: no event ring, no Chrome export.
# engine::trace is only the re-export `benchmark/src/spans.rs` imports
# `push_json_escaped` through. (`-w` keeps `SpanTracer` out.)
ring=$(grep -rnwE 'Tracer|TraceEvent|TraceCategory|CategoryMask|to_chrome_json|attach_tracer|merge_into_chrome' \
    crates/*/src tests examples || true)
if [ -n "$ring" ]; then
    echo "flight-recorder API is back:"
    echo "$ring"
    exit 1
fi
if [ "$(wc -l < crates/engine/src/trace.rs)" -gt 10 ]; then
    echo "crates/engine/src/trace.rs must stay a re-export (<= 10 lines)"
    exit 1
fi

echo "== one-live-view gate (a run is observed after it ends, survives by checkpoint) =="
# There is no live event protocol and no dashboard: progress is the
# stderr heartbeat, survival is checkpoint + journal, and every question
# is answered from a completed run's exports.
live=$(grep -rnE 'StreamEmitter|StreamSink|attach_stream_sink|stream_path|streamview|flashsim-stream-v1' \
    crates/*/src tests examples || true)
if [ -n "$live" ]; then
    echo "live-stream API is back:"
    echo "$live"
    exit 1
fi
for gone in crates/engine/src/stream.rs crates/bench/src/streamview.rs crates/bench/src/watch.rs; do
    if [ -e "$gone" ]; then
        echo "$gone must not exist"
        exit 1
    fi
done

echo "== one-export-path gate (every export file is an engine::Schema format) =="
# Tables go to stdout as text; every file a run exports is one of the
# formats `flashsim validate` checks, and each schema id names exactly one
# document. An export nothing validates or reads — Prometheus text, CSV,
# an HTML page, a second telemetry document — does not come back.
writers=$(grep -rnE 'to_prometheus|to_csv|phases_to_csv|to_jsonl_full|fn to_html|prom::' \
    crates/*/src tests examples || true)
if [ -n "$writers" ]; then
    echo "export writer outside the Schema registry:"
    echo "$writers"
    exit 1
fi
if [ -e crates/engine/src/prom.rs ]; then
    echo "crates/engine/src/prom.rs must not exist"
    exit 1
fi

echo "== memory-path gate (no per-access hash map) =="
# A node's in-flight fills are an arrival-ordered table retired against
# the node clock, and a directory's headers a two-level table indexed by
# home-local line: neither may quietly become a hash map again. (The
# barrier/lock maps in machine/mod.rs are probed per sync op and stay.)
maps=$(grep -rnE '\b(pending|headers): *(Fx)?HashMap' crates/machine/src crates/proto/src || true)
if [ -n "$maps" ]; then
    echo "per-access hash map on the memory path:"
    echo "$maps"
    exit 1
fi

echo "== op-in-place gate (the scheduler executes ops out of the generator's buffer) =="
# `Epoch::step` borrows `ThreadStream::pending()` and hands `&ops[i]` to
# the core; copying a peeked op onto the stack first was a failed
# store-forward on every dispatched op. And the op stays 16 bytes: its
# size is the hand-off's memory (`CHUNK_OPS` of them per chunk).
copies=$(grep -rnE 'peek_op\(\)\.copied\(\)|peek_op\(\)\.cloned\(\)' crates/machine/src || true)
if [ -n "$copies" ]; then
    echo "op copied out of the stream in the machine layer:"
    echo "$copies"
    exit 1
fi
if ! grep -qF 'const _: () = assert!(core::mem::size_of::<Op>() == 16);' crates/isa/src/op.rs; then
    echo "crates/isa/src/op.rs no longer pins size_of::<Op>() == 16 at compile time"
    exit 1
fi

echo "== one-queue gate (the laggard queue is one sorted run) =="
# engine::sched::LaggardHeap is a sorted run behind its historical name;
# the binary heap it replaced (sifts, a position table) must not come back
# beside it, in the engine or as a second structure in the machine.
heaps=$(grep -rnE 'sift_|fn settle\(|pos:|BinaryHeap' crates/engine/src/sched.rs crates/machine/src || true)
if [ -n "$heaps" ]; then
    echo "a heap beside the sorted run:"
    echo "$heaps"
    exit 1
fi

echo "== one-profile gate (one release profile, in .cargo/config.toml) =="
# The root workspace and benchmark/ (a workspace of its own, built from
# the repo root) both read .cargo/config.toml and nothing else in common:
# a [profile] table in a manifest would make the two builds differ. The
# results gate below is what proves LTO moved no output byte.
for setting in 'lto = "fat"' 'codegen-units = 1'; do
    if ! grep -qxF "$setting" .cargo/config.toml; then
        echo ".cargo/config.toml no longer sets: $setting"
        exit 1
    fi
done
profiles=$(grep -n '^\[profile\.' Cargo.toml crates/*/Cargo.toml || true)
if [ -n "$profiles" ]; then
    echo "a second release profile (the one profile lives in .cargo/config.toml):"
    echo "$profiles"
    exit 1
fi

echo "== one-walk gate (directory transactions live in proto::walk) =="
# FlashLite and NUMA run ONE copy of the transaction sequence and differ
# only in their `Timing` impl. A model crate that calls the directory's
# demand operations or samples its pool has grown a walk of its own.
walks=$(grep -rnE '\.read_exclusive\(|\.occupancy_sample\(\)' crates/*/src \
    | grep -v '^crates/proto/src/' || true)
if [ -n "$walks" ]; then
    echo "directory transaction outside crates/proto/src:"
    echo "$walks"
    exit 1
fi

echo "== one-checkpoint-walk gate (each component checkpoints through one walk) =="
# A component names each checkpointed field once, in one
# `ckpt(&mut self, c: &mut Ckpt)` that both saves and restores: a
# hand-mirrored save/load pair does not come back, and a restore-time
# check is an engine::ckpt walker helper or `ckpt::bad`, not an inline
# `CkptError::Parse` outside the format layer. (Test modules, which match
# on the error's kind, are exempt.) `OooConfig::exception_flush`, a knob
# zero on every config, stays deleted.
pairs=$(grep -rnE 'fn (save_ckpt|load_ckpt)\b' crates/*/src || true)
literals=$(find crates -name '*.rs' -path '*/src/*' ! -path crates/engine/src/ckpt.rs \
    -exec awk '
        FNR == 1 { intest = 0 }
        /#\[cfg\(test\)\]/ { intest = 1 }
        !intest && /CkptError::Parse \{/ { print FILENAME ":" FNR ": " $0 }
    ' {} +)
flush=$(grep -rn 'exception_flush' crates || true)
if [ -n "$pairs$literals$flush" ]; then
    echo "a second checkpoint path, an inline Parse error, or exception_flush:"
    printf '%s\n' "$pairs" "$literals" "$flush" | sed '/^$/d'
    exit 1
fi

echo "== one-tool gate (one binary, one validate entry point) =="
# Every command-line surface is a subcommand of `flashsim`; a second file
# under src/bin is a second tool, and a format validator called past the
# engine::Schema registry is a second validation entry point.
bins=$(ls crates/bench/src/bin)
if [ "$bins" != "flashsim.rs" ]; then
    echo "crates/bench/src/bin must hold exactly flashsim.rs, found:"
    echo "$bins"
    exit 1
fi
direct=$(grep -rn 'validate_jsonl\|ckpt::validate' crates/bench crates/core || true)
if [ -n "$direct" ]; then
    echo "format validator called directly instead of through Schema::validate:"
    echo "$direct"
    exit 1
fi
echo "== results gate (results/*.txt regenerate byte-for-byte) =="
# The committed tables and figures are the repo's accuracy artifact: each
# must be exactly what this build prints. `figures` is deterministic, so
# the tolerance is zero; a change that moves a number regenerates the
# file (`./target/release/flashsim figures NAME > results/NAME.txt`) and
# says why.
for name in table1 table2 table3 fig1 fig2 fig3 fig4 fig5 fig6 fig7 ablate_latency; do
    if ! $flashsim figures "$name" | cmp -s - "results/$name.txt"; then
        echo "FAIL: \`flashsim figures $name\` no longer prints results/$name.txt"
        exit 1
    fi
done
echo "all eleven results files reproduce"

echo "== bench history (commit backfill) =="
# A PR's history line is written before its commit exists, so it lands
# with "commit":null; fill each from the commit whose subject starts
# "PR N:" once there is one. Only the newest line may stay null.
hist=results/BENCH_history.jsonl
if git rev-parse --git-dir > /dev/null 2>&1; then
    for pr in $(sed -n 's/.*"pr":\([0-9]*\),"commit":null.*/\1/p' "$hist"); do
        hash=$(git log --format=%h --grep "^PR $pr:" | tail -n 1)
        if [ -n "$hash" ]; then
            sed -i "s/\"pr\":$pr,\"commit\":null/\"pr\":$pr,\"commit\":\"$hash\"/" "$hist"
        fi
    done
fi
if sed '$d' "$hist" | grep -q '"commit":null'; then
    echo "FAIL: $hist has a line with no commit before its newest line"
    exit 1
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== report smoke (conservation + attribution + telemetry/span schemas) =="
# Gold-standard hardware + one simulator over a 2-node FFT through the
# supervised matrix, accounting profiler, telemetry and span sampler
# attached. The tool itself gates on accounting conservation (per-node
# per-class sums equal total cycles on both platforms), exact integer-ps
# telemetry conservation, the attribution residual (per-class
# contributions sum to the total relative error within 1e-9) and the
# validity of every export, exiting nonzero on any violation. Both JSONL
# exports are then re-checked through `flashsim validate`, the entry
# point external consumers get.
$flashsim report --nodes 2 --jsonl "$tmp/report.jsonl" \
    --spans-jsonl "$tmp/report-spans.jsonl" > "$tmp/report.out"
grep -q "^attribution OK" "$tmp/report.out" \
    || { echo "FAIL: report printed no closed attribution"; exit 1; }
$flashsim validate telemetry "$tmp/report.jsonl"

echo "== hostprof gate (flashsim-hostprof-v1 schema + wall-clock reconciliation) =="
# The host-time self-profiler, attached to both cells under the parallel
# policy, must emit a schema-valid flashsim-hostprof-v1 document (phase
# nanoseconds tile the window exactly) and reconcile every per-phase
# table against the cell's measured wall time within 1% (a failed
# reconciliation prints `SKEW` instead of `reconciled`). What attaching
# the profiler costs is read from the benchmark's traced run
# (`trace.overhead_frac`, `machine.observe.*`, `machine.host.*.frac`),
# not timed here.
$flashsim report --nodes 2 --workers 2 --hostprof \
    --hostprof-jsonl "$tmp/hostprof.jsonl" > "$tmp/hostprof.out"
$flashsim validate hostprof "$tmp/hostprof.jsonl"
[ "$(grep -c "reconciled" "$tmp/hostprof.out")" = 2 ] \
    || { echo "FAIL: expected one reconciled hostprof table per cell"; exit 1; }
if grep "SKEW" "$tmp/hostprof.out"; then
    echo "FAIL: hostprof phase sum does not reconcile with wall time"
    exit 1
fi

echo "== spans smoke (span diff + flashsim-span-v1 schema gate) =="
# Span diff over the hotspot drive: the tool gates on schema validity,
# exact charge tiling, sampler alignment across platforms, and the
# MAGIC-occupancy-leg signature (present on FlashLite, absent on NUMA),
# exiting nonzero on any violation. Its export and the report's
# machine-layer export are re-checked through `flashsim validate`.
# Hardware vs a simulator over snbench gates on the same schema and
# alignment, and on the per-leg deltas summing to the end-to-end gap.
$flashsim spans --jsonl-fl "$tmp/spans.jsonl" > /dev/null
$flashsim spans simos-mipsy > /dev/null
$flashsim validate span "$tmp/spans.jsonl" "$tmp/report-spans.jsonl"

echo "== chaos smoke (fault-injection survival) =="
# 20 seeded fault plans x all platforms; exits nonzero if any cell
# panics or the sweep hangs past the watchdog.
$flashsim chaos

echo "== kill-and-resume smoke (crash-consistent journal + ckpt schema) =="
# Runs a journaled multi-barrier matrix straight, re-runs it while
# hard-killing the process (exit 137, no destructors) at a seeded
# checkpoint count, resumes to convergence, and byte-compares every
# cell's artifacts (accounting, telemetry and span exports) against the
# straight run. Every flashsim-ckpt-v1 file left on disk is then
# structurally validated. Exits nonzero on any divergence or invalid file.
kr_dir="$tmp/kill-resume"
$flashsim chaos --kill-resume --kills 1 --dir "$kr_dir" > /dev/null
$flashsim validate ckpt "$kr_dir"/killed/cell*.ckpt-* > /dev/null
echo "kill-and-resume converged byte-identically; checkpoints validate"

echo "== all checks passed =="
