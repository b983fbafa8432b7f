#!/usr/bin/env bash
# Mutation sweep over the model crates: would any check notice a *wrong*
# model, not just a changed one?
#
#   scripts/mutants.sh [--dir DIR] [ID ...]   run the listed mutants (default: all)
#   scripts/mutants.sh --check                every mutant still applies to HEAD
#
# The mutants are scripts/mutants.txt, one a line, five tab-separated
# fields: ID, kind, file, the original text and its replacement. The
# original must occur exactly once in the file at HEAD (`--check`, run by
# scripts/check.sh, keeps the list from going stale).
#
# A sweep copies HEAD once into DIR/src with `git archive` (never the
# working tree), then for each mutant rewrites its one file there and:
#   1. runs the digest matrix's fast kill test
#      (`cargo test --test ckpt_determinism`);
#   2. only if the mutant survives that: the mutated crate's own tests
#      (unit and integration), the other integration suites (SUITES), and
#      `flashsim figures table3` and `fig3` compared against results/;
# then puts the file back. Every cargo command builds the dev profile at
# opt-level 1 (`--config profile.dev.opt-level=1`): debug assertions and
# overflow checks stay on, the suites run about four times faster, and
# both figures still regenerate byte for byte. A test that runs past
# TIMEOUT seconds counts as failed (a mutant can make a loop endless).
#
# Each mutant's verdict is appended to DIR/results.tsv and printed:
#   ID  test|bytes|survived|unviable|stale  by-what  seconds
# `test`: a test failed (by = the suite, or the crate whose tests failed);
# `bytes`: every test passed but a results file moved (by = the figure);
# `unviable`: the mutant does not build; `stale`: its original text is
# not in its file exactly once.
set -u

cd "$(dirname "$0")/.."
list=scripts/mutants.txt
# Suites step 2 runs besides ckpt_determinism. Left out: digest_matrix
# (checks the table's shape, runs no cell) and figures_smoke (step 2
# compares the figures' bytes itself).
SUITES="account_determinism calibration_loop hostile_exports hostprof_isolation memsys_walk
paper_shapes random_programs same_binary sched_equivalence span_determinism
telemetry_determinism telemetry_hotspot"
FIGURES="table3 fig3"
TIMEOUT=90

# Prints "ID<TAB>kind<TAB>file<TAB>original<TAB>replacement" lines of the
# list (comments and blank lines dropped).
entries() {
    grep -v -e '^#' -e '^[[:space:]]*$' "$list"
}

if [ "${1:-}" = "--check" ]; then
    bad=0
    n=0
    while IFS=$'\t' read -r id kind file orig repl; do
        n=$((n + 1))
        if [ -z "$repl" ] || [ "$orig" = "$repl" ]; then
            echo "$id: needs five fields and a replacement unlike the original" >&2
            bad=1
            continue
        fi
        found=$(git show "HEAD:$file" 2>/dev/null | grep -oF -- "$orig" | wc -l)
        if [ "$found" -ne 1 ]; then
            echo "$id: original text occurs $found times in $file at HEAD: $orig" >&2
            bad=1
        fi
    done < <(entries)
    ids=$(entries | cut -f1 | sort | uniq -d)
    if [ -n "$ids" ]; then
        echo "duplicate mutant ids: $ids" >&2
        bad=1
    fi
    [ "$bad" = 0 ] || exit 1
    echo "mutant list: $n mutants, each applies once at HEAD"
    exit 0
fi

dir=target/mutants
if [ "${1:-}" = "--dir" ]; then
    dir=$2
    shift 2
fi
mkdir -p "$dir"
dir=$(cd "$dir" && pwd)
src=$dir/src
results=$dir/results.tsv
rm -rf "$src"
mkdir -p "$src"
git archive HEAD | tar -x -m -C "$src"
export CARGO_TARGET_DIR=$dir/target
cargo_() {
    (cd "$src" && cargo "$@" --offline -q --config profile.dev.opt-level=1)
}
test_() {
    (cd "$src" && timeout "$TIMEOUT" cargo test "$@" --offline -q --config profile.dev.opt-level=1)
}

# Runs one mutant's checks in $src (already mutated); prints "verdict by".
judge() {
    local crate=$1
    cargo_ test --test ckpt_determinism --no-run >/dev/null 2>&1 || {
        echo "unviable build"
        return
    }
    test_ --test ckpt_determinism >/dev/null 2>&1 || {
        echo "test ckpt_determinism"
        return
    }
    test_ -p "$crate" --lib --tests >/dev/null 2>&1 || {
        echo "test $crate"
        return
    }
    local s
    for s in $SUITES; do
        test_ --test "$s" >/dev/null 2>&1 || {
            echo "test $s"
            return
        }
    done
    cargo_ build -p flashsim-bench >/dev/null 2>&1 || {
        echo "unviable flashsim"
        return
    }
    local f
    for f in $FIGURES; do
        if ! timeout "$TIMEOUT" "$CARGO_TARGET_DIR/debug/flashsim" figures "$f" 2>/dev/null |
            cmp -s - "$src/results/$f.txt"; then
            echo "bytes $f"
            return
        fi
    done
    echo "survived -"
}

# Build everything once, so each mutant pays only its rebuild, and check
# that HEAD itself passes every step: otherwise each mutant would count as
# killed.
if ! cargo_ test --workspace --no-run >/dev/null 2>&1; then
    echo "HEAD does not build" >&2
    exit 1
fi
baseline=$(judge flashsim-machine)
if [ "$baseline" != "survived -" ]; then
    echo "HEAD fails its own checks: $baseline" >&2
    exit 1
fi

want=" $* "
while IFS=$'\t' read -r id kind file orig repl; do
    if [ $# -gt 0 ] && [ "${want#* "$id" }" = "$want" ]; then
        continue
    fi
    started=$(date +%s)
    path=$src/$file
    text=$(cat "$path")
    found=$(grep -oF -- "$orig" "$path" | wc -l)
    if [ "$found" -ne 1 ]; then
        verdict="stale -"
    else
        printf '%s\n' "${text/"$orig"/"$repl"}" >"$path"
        crate=flashsim-$(echo "$file" | cut -d/ -f2)
        verdict=$(judge "$crate")
        # A fresh mtime, so the next build sees the original again.
        printf '%s\n' "$text" >"$path"
    fi
    printf '%s\t%s\t%s\t%s\n' "$id" "${verdict% *}" "${verdict#* }" $(($(date +%s) - started)) |
        tee -a "$results"
done < <(entries)
