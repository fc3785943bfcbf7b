#!/usr/bin/env bash
# The full local CI gate. Run from the repository root:
#
#   scripts/ci.sh
#
# Fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> snakebench smoke (benchmark identity checks gate simulator changes)"
# The repository benchmark is a workspace of its own (snakebench/). It
# exits non-zero when any of its checks fails: every job must complete,
# and every timed rep must reproduce the warm-up run's statistics
# exactly, so a change that makes the simulation fail or drift between
# runs of one process cannot pass CI.
cargo build --release --offline --manifest-path snakebench/Cargo.toml
# The smokes' stdout is the perf record committed with every change:
# BENCH_ci.jsonl holds one line naming the revision and the host's CPU
# count, then every metric and result line of the four smokes (the
# unprofiled end-to-end metrics per workload, and with `--trace 1` the
# sampled `profile.*` breakdown). A parent-against-change comparison of
# the same metrics is what decides whether a change is slower; see
# snakebench/README.md.
BENCH_LOG=BENCH_ci.jsonl
printf '{"git":"%s","nproc":%s}\n' \
    "$(git describe --always --dirty --abbrev=7 2>/dev/null || echo unknown)" \
    "$(nproc)" > "$BENCH_LOG"
# `--trace 1` adds the profiled and traced passes to the untraced ones:
# every profiled run must reproduce the reference run's statistics too.
if ! ./snakebench/target/release/snakebench --workload memory_bound --seconds 1 --trace 1 \
    | tee -a "$BENCH_LOG"; then
    echo "snakebench smoke: a benchmark check failed" >&2
    exit 1
fi
# prefetch_heavy's jobs run the L1 prefetch path on every load, so its
# profiled passes hand the sampled profiler to the prefetcher hook.
if ! ./snakebench/target/release/snakebench --workload prefetch_heavy --seconds 1 --trace 1 \
    | tee -a "$BENCH_LOG"; then
    echo "snakebench smoke: a prefetch_heavy check failed" >&2
    exit 1
fi
# paper_all runs every figure of `repro --quick --all`, whose timing
# matrix and sweeps share one thread pool: each pass's matrix must hold
# all 132 (app, mechanism) pairs, and every pass must render the same
# bytes as the first.
if ! ./snakebench/target/release/snakebench --workload paper_all --seconds 1 --trace 0 \
    | tee -a "$BENCH_LOG"; then
    echo "snakebench smoke: a paper_all check failed" >&2
    exit 1
fi
# isolated_resume is the one workload that runs the sandbox executor
# and checkpoint capture and restore (with the device fingerprint each
# of them checks): every job must finish, and every restored run must
# reproduce the uninterrupted statistics.
if ! ./snakebench/target/release/snakebench --workload isolated_resume --seconds 1 --trace 0 \
    | tee -a "$BENCH_LOG"; then
    echo "snakebench smoke: an isolated_resume check failed" >&2
    exit 1
fi

echo "==> cargo test (default features)"
cargo test --workspace -q

echo "==> cargo test (audit feature)"
cargo test -p snake-sim --features audit -q

echo "==> EXPERIMENTS.md full results (published = produced)"
# Everything after EXPERIMENTS.md's "## Full results" heading and its
# blank line must be exactly what `repro --all --markdown` prints
# (standard size, about 11 s on 2 vCPUs).
PUBLISHED=$(mktemp)
PRODUCED=$(mktemp)
sed '1,/^## Full results$/d' EXPERIMENTS.md | tail -n +2 > "$PUBLISHED"
./target/release/repro --all --markdown > "$PRODUCED"
if ! cmp -s "$PRODUCED" "$PUBLISHED"; then
    diff "$PUBLISHED" "$PRODUCED" >&2 || true
    rm -f "$PUBLISHED" "$PRODUCED"
    echo "EXPERIMENTS.md: the Full results section differs from repro --all --markdown;" \
         "regenerate it with:" >&2
    echo "  { sed '/^## Full results\$/q' EXPERIMENTS.md; echo;" \
         "./target/release/repro --all --markdown; } > EXPERIMENTS.md.new" \
         "&& mv EXPERIMENTS.md.new EXPERIMENTS.md" >&2
    exit 1
fi
rm -f "$PUBLISHED" "$PRODUCED"

echo "==> cargo clippy"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> shellcheck (scripts/*.sh)"
# Static-check the shell entry points when the linter is available;
# the container image does not ship it, so absence is not a failure.
if command -v shellcheck >/dev/null 2>&1; then
    shellcheck scripts/*.sh
else
    echo "    shellcheck not installed, skipping"
fi

echo "==> chaos-sweep smoke (supervisor: interrupt + resume, byte-identical)"
# A time-bounded supervised sweep with the canned fault plan injected:
# run it to completion, then again with a forced mid-sweep stop
# (deterministic stand-in for a kill), then resume from the manifest.
# The resumed report must be byte-identical to the uninterrupted one,
# and the interrupted run must use its distinct exit code (4).
SWEEP_DIR=$(mktemp -d)
trap 'kill "${SNAKED_PID:-}" 2>/dev/null || true; rm -rf "$SWEEP_DIR"' EXIT
SWEEP_FLAGS=(--sweep --quick --chaos --budget 400000
             --benchmarks LPS,CP --mechanisms baseline,snake)
./target/release/repro "${SWEEP_FLAGS[@]}" \
    --manifest "$SWEEP_DIR/full.jsonl" --out "$SWEEP_DIR/full.md"
rc=0
./target/release/repro "${SWEEP_FLAGS[@]}" --stop-after 2 \
    --manifest "$SWEEP_DIR/part.jsonl" --out "$SWEEP_DIR/part.md" || rc=$?
if [ "$rc" -ne 4 ]; then
    echo "chaos-sweep smoke: interrupted sweep must exit 4, got $rc" >&2
    exit 1
fi
./target/release/repro "${SWEEP_FLAGS[@]}" \
    --resume "$SWEEP_DIR/part.jsonl" --out "$SWEEP_DIR/resumed.md"
if ! cmp -s "$SWEEP_DIR/full.md" "$SWEEP_DIR/resumed.md"; then
    echo "chaos-sweep smoke: resumed report differs from the uninterrupted run" >&2
    diff "$SWEEP_DIR/full.md" "$SWEEP_DIR/resumed.md" >&2 || true
    exit 1
fi

echo "==> kill-anywhere smoke (checkpoint mid-run, restore, byte-identical outcome)"
# Kill a benchmark at a pseudo-random cycle, restore from the
# checkpoint in a fresh process, and require the restored run's
# SimOutcome artifact to be byte-identical to the uninterrupted one.
# LIB is memory-bound and its chain walks almost never repeat. MRQ is
# chain-heavy: most of Snake's walks there come from the Tail table's
# walk cache, which is never checkpointed, so the restored run walks
# from an empty cache and must still match the uninterrupted one. The
# lib-w500 leg samples windowed metrics every 500 cycles, so its
# checkpoint carries metrics-sample rows and its outcome the series.
# The early legs kill before the first warp retires (LIB/snake's first
# retirement is at cycle 9,100 of 42,276, MRQ/snake's at 3,395); the
# lib-late leg kills after it, so its restore rebuilds slots whose
# traces are exhausted and slots relaunched by later CTAs. The lps-cta
# and lps-iso legs run LPS under CTA-aware and Isolated-Snake, so a
# restore also goes through a baseline's hashed table and the isolated
# side buffer; a leg's name carries its mechanism.
# The kill cycles are derived from the PID and echoed so a failure is
# reproducible; a mismatched restore must use the distinct exit code 6.
KILL_CYCLE=$((500 + $$ % 2000))
LATE_KILL_CYCLE=$((9100 + $$ % 30000))
echo "    kill cycle: $KILL_CYCLE (reproduce with --checkpoint-at $KILL_CYCLE)"
echo "    late kill cycle (lib-late): $LATE_KILL_CYCLE (reproduce with --checkpoint-at $LATE_KILL_CYCLE)"
for LEG in lib mrq lib-w500 lib-late lps-cta lps-iso; do
    APP=${LEG%%-*}
    MECH=snake
    LEG_FLAGS=()
    LEG_KILL=$KILL_CYCLE
    case "$LEG" in
        lib-w500) LEG_FLAGS=(--window 500) ;;
        lib-late) LEG_KILL=$LATE_KILL_CYCLE ;;
        lps-cta) MECH=cta-aware ;;
        lps-iso) MECH=isolated-snake ;;
    esac
    ./target/release/pfdebug "$APP" "$MECH" "${LEG_FLAGS[@]}" \
        --outcome-out "$SWEEP_DIR/$LEG-uninterrupted.outcome"
    ./target/release/pfdebug "$APP" "$MECH" "${LEG_FLAGS[@]}" --checkpoint-at "$LEG_KILL" \
        --checkpoint-out "$SWEEP_DIR/$LEG-kill.ckpt" --outcome-out /dev/null
    ./target/release/pfdebug "$APP" "$MECH" "${LEG_FLAGS[@]}" --restore "$SWEEP_DIR/$LEG-kill.ckpt" \
        --outcome-out "$SWEEP_DIR/$LEG-restored.outcome"
    if ! cmp -s "$SWEEP_DIR/$LEG-uninterrupted.outcome" "$SWEEP_DIR/$LEG-restored.outcome"; then
        echo "kill-anywhere smoke: $LEG restored outcome differs from the uninterrupted run" >&2
        ./target/release/pfdebug "$APP" "$MECH" "${LEG_FLAGS[@]}" --checkpoint-at $((LEG_KILL + 32)) \
            --checkpoint-out "$SWEEP_DIR/$LEG-kill2.ckpt" --outcome-out /dev/null
        ./target/release/pfdebug "$APP" "$MECH" "${LEG_FLAGS[@]}" \
            --diverge "$SWEEP_DIR/$LEG-kill.ckpt" "$SWEEP_DIR/$LEG-kill2.ckpt" >&2 || true
        exit 1
    fi
done
rc=0
./target/release/pfdebug lib mta --restore "$SWEEP_DIR/lib-kill.ckpt" >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 6 ]; then
    echo "kill-anywhere smoke: mismatched restore must exit 6, got $rc" >&2
    exit 1
fi
# Note: checkpointing-off overhead is covered by snakebench's
# end-to-end metrics, compared parent against change (Gpu::run is the
# one run loop with no checkpoint path), and by the
# checkpointing_off_is_exactly_run test in
# crates/bench/tests/checkpoint.rs (a job with a checkpoint path but no
# cadence is exactly a plain Harness::run_job).

echo "==> suspend-resume smoke (supervisor: deadline preemption, no quarantine)"
# A sweep whose jobs all hit the suspend trigger must exit 4 with the
# per-job checkpoints durable next to the manifest; resuming restores
# them mid-simulation and renders byte-identically to an uninterrupted
# sweep, with nothing quarantined. The same holds with every job in a
# sandboxed worker process (--isolate), suspended and resumed there.
SUS_FLAGS=(--sweep --quick --benchmarks LIB --mechanisms snake,mta)
./target/release/repro "${SUS_FLAGS[@]}" \
    --manifest "$SWEEP_DIR/sus-full.jsonl" --out "$SWEEP_DIR/sus-full.md"
for SUS_LEG in in-thread isolate; do
    SUS_LEG_FLAGS=("${SUS_FLAGS[@]}")
    if [ "$SUS_LEG" = isolate ]; then
        SUS_LEG_FLAGS+=(--isolate)
    fi
    rc=0
    ./target/release/repro "${SUS_LEG_FLAGS[@]}" --suspend-after 300 \
        --manifest "$SWEEP_DIR/sus-$SUS_LEG.jsonl" \
        --out "$SWEEP_DIR/sus-$SUS_LEG-part.md" || rc=$?
    if [ "$rc" -ne 4 ]; then
        echo "suspend-resume smoke ($SUS_LEG): suspended sweep must exit 4, got $rc" >&2
        exit 1
    fi
    ls "$SWEEP_DIR"/sus-"$SUS_LEG".jsonl.*.ckpt >/dev/null
    ./target/release/repro "${SUS_LEG_FLAGS[@]}" \
        --resume "$SWEEP_DIR/sus-$SUS_LEG.jsonl" \
        --out "$SWEEP_DIR/sus-$SUS_LEG-resumed.md"
    if ! cmp -s "$SWEEP_DIR/sus-full.md" "$SWEEP_DIR/sus-$SUS_LEG-resumed.md"; then
        echo "suspend-resume smoke ($SUS_LEG): resumed report differs from the uninterrupted run" >&2
        diff "$SWEEP_DIR/sus-full.md" "$SWEEP_DIR/sus-$SUS_LEG-resumed.md" >&2 || true
        exit 1
    fi
done

echo "==> snaked smoke (telemetry daemon: submit, tail, cancel, clean shutdown)"
# Start the daemon on a temp socket, submit a sweep, tail it (the
# stream must carry at least one window row), cancel a queued job (its
# tail must exit with the distinct cancelled code 7), then shut down
# cleanly: the state journal must balance — every submitted job gets a
# terminal line, so no orphaned jobs survive the daemon.
SNAKED_SOCK="$SWEEP_DIR/snaked.sock"
SNAKED_LOG="$SWEEP_DIR/snaked-state.jsonl"
# One worker keeps the victim queued behind the busy sweep; with the
# default two workers it would start (and maybe finish) before cancel.
./target/release/snaked --socket "$SNAKED_SOCK" --state "$SNAKED_LOG" --workers 1 &
SNAKED_PID=$!
for _ in $(seq 1 100); do
    [ -S "$SNAKED_SOCK" ] && break
    sleep 0.05
done
if [ ! -S "$SNAKED_SOCK" ]; then
    echo "snaked smoke: daemon socket never appeared" >&2
    exit 1
fi
SNAKECTL=(./target/release/snakectl --socket "$SNAKED_SOCK")
# A budgeted standard-harness sweep occupies the scheduler long enough
# to both tail it live and cancel a job queued behind it.
BUSY_ID=$("${SNAKECTL[@]}" submit --benchmarks LPS --mechanisms baseline,snake \
    --budget 100000 --window 500)
VICTIM_ID=$("${SNAKECTL[@]}" submit --quick --benchmarks CP --mechanisms snake)
"${SNAKECTL[@]}" cancel "$VICTIM_ID" >/dev/null
rc=0
"${SNAKECTL[@]}" tail "$VICTIM_ID" >/dev/null || rc=$?
if [ "$rc" -ne 7 ]; then
    echo "snaked smoke: cancelled job's tail must exit 7, got $rc" >&2
    exit 1
fi
# The dashboard must render at least one window (its stall-breakdown
# stacked bar) from the live job and exit 0 after a single snapshot.
"${SNAKECTL[@]}" top "$BUSY_ID" --once > "$SWEEP_DIR/top.txt"
if ! grep -q 'stall \[' "$SWEEP_DIR/top.txt"; then
    echo "snaked smoke: top --once rendered no stall breakdown" >&2
    cat "$SWEEP_DIR/top.txt" >&2
    exit 1
fi
"${SNAKECTL[@]}" tail "$BUSY_ID" > "$SWEEP_DIR/tail.txt"
if ! grep -q '^window ' "$SWEEP_DIR/tail.txt"; then
    echo "snaked smoke: tail streamed no window rows" >&2
    cat "$SWEEP_DIR/tail.txt" >&2
    exit 1
fi
SNAKED_HEALTH=$("${SNAKECTL[@]}" health)
"${SNAKECTL[@]}" shutdown >/dev/null
wait "$SNAKED_PID"
# The balance invariant only holds when every append reached disk; a
# degraded journal (disk failure mid-run) is surfaced by health and
# deliberately tolerated here — degradation is counted, not fatal.
if echo "$SNAKED_HEALTH" | grep -q '"journal_degraded":true'; then
    echo "snaked smoke: journal degraded, skipping balance check" >&2
    echo "$SNAKED_HEALTH" >&2
else
    SUBMITTED=$(grep -c '"event":"submitted"' "$SNAKED_LOG")
    TERMINAL=$(grep -c '"terminal":true' "$SNAKED_LOG")
    if [ "$SUBMITTED" -ne 2 ] || [ "$SUBMITTED" -ne "$TERMINAL" ]; then
        echo "snaked smoke: state journal unbalanced" \
             "(submitted=$SUBMITTED terminal=$TERMINAL)" >&2
        cat "$SNAKED_LOG" >&2
        exit 1
    fi
fi

echo "==> snaked recovery smoke (kill -9 mid-run, restart, journal replay)"
# Kill the daemon mid-simulation with the job running, restart it over
# the same journal: the orphan must re-queue (journaled), resume from
# its checkpoint, and finish with a balanced journal.
RECOVER_SOCK="$SWEEP_DIR/recover.sock"
RECOVER_LOG="$SWEEP_DIR/recover-state.jsonl"
RCTL=(./target/release/snakectl --socket "$RECOVER_SOCK")
snaked_ready() { # ctl-array-name
    local -n ctl=$1
    for _ in $(seq 1 200); do
        "${ctl[@]}" status >/dev/null 2>&1 && return 0
        sleep 0.05
    done
    echo "snaked smoke: daemon never became ready" >&2
    exit 1
}
./target/release/snaked --socket "$RECOVER_SOCK" --state "$RECOVER_LOG" \
    --checkpoint-every 500 &
SNAKED_PID=$!
snaked_ready RCTL
RECOVER_ID=$("${RCTL[@]}" submit --benchmarks LPS --mechanisms snake \
    --budget 150000 --window 500)
# Kill once the job has journaled its first checkpoint (polled in 10 ms
# steps for about 2 s): a fixed sleep lets a fast host finish the job
# before the kill, leaving nothing to recover.
for _ in $(seq 1 200); do
    grep -q '"event":"checkpoint"' "$RECOVER_LOG" && break
    sleep 0.01
done
kill -9 "$SNAKED_PID"
wait "$SNAKED_PID" 2>/dev/null || true
if grep -q '"event":"done"' "$RECOVER_LOG"; then
    echo "snaked recovery smoke: the job finished before the kill; nothing was left to recover" >&2
    cat "$RECOVER_LOG" >&2
    exit 1
fi
./target/release/snaked --socket "$RECOVER_SOCK" --state "$RECOVER_LOG" \
    --checkpoint-every 500 &
SNAKED_PID=$!
snaked_ready RCTL
rc=0
"${RCTL[@]}" tail "$RECOVER_ID" >/dev/null || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "snaked recovery smoke: recovered job must finish cleanly, got exit $rc" >&2
    exit 1
fi
if ! grep -q '"event":"requeued"' "$RECOVER_LOG"; then
    echo "snaked recovery smoke: restart never re-queued the orphaned job" >&2
    cat "$RECOVER_LOG" >&2
    exit 1
fi
"${RCTL[@]}" shutdown >/dev/null
wait "$SNAKED_PID"
SUBMITTED=$(grep -c '"event":"submitted"' "$RECOVER_LOG")
TERMINAL=$(grep -c '"terminal":true' "$RECOVER_LOG")
if [ "$SUBMITTED" -ne 1 ] || [ "$TERMINAL" -ne 1 ]; then
    echo "snaked recovery smoke: unbalanced journal" \
         "(submitted=$SUBMITTED terminal=$TERMINAL)" >&2
    cat "$RECOVER_LOG" >&2
    exit 1
fi

echo "==> snaked quota smoke (typed per-client rejection, exit code 8)"
# One worker + a queued quota of 1: with the busy job running and one
# job queued, a further submit from the same client must be rejected
# with the distinct quota exit code — while other clients still get in.
QUOTA_SOCK="$SWEEP_DIR/quota.sock"
QCTL=(./target/release/snakectl --socket "$QUOTA_SOCK")
./target/release/snaked --socket "$QUOTA_SOCK" --workers 1 --quota-queued 1 &
SNAKED_PID=$!
snaked_ready QCTL
QUOTA_BUSY=$("${QCTL[@]}" submit --client ci --benchmarks LPS \
    --mechanisms baseline,snake --budget 2000000 --window 5000)
for _ in $(seq 1 200); do
    "${QCTL[@]}" status "$QUOTA_BUSY" | grep -q '"state":"running"' && break
    sleep 0.05
done
"${QCTL[@]}" submit --client ci --quick --benchmarks CP --mechanisms snake \
    >/dev/null
rc=0
"${QCTL[@]}" submit --client ci --quick --benchmarks CP --mechanisms snake \
    >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 8 ]; then
    echo "snaked quota smoke: over-quota submit must exit 8, got $rc" >&2
    exit 1
fi
"${QCTL[@]}" submit --client other --quick --benchmarks CP --mechanisms snake \
    >/dev/null
"${QCTL[@]}" shutdown >/dev/null
wait "$SNAKED_PID"

echo "==> isolation smoke (sandboxed workers: byte-identity, crash kinds, degradation)"
# A fault-free --isolate sweep must render byte-identically to the
# in-thread run; an injected abort / address-space blowout must
# quarantine only the poisoned job with its decoded crash kind while
# the siblings' rows stay identical; a missing worker binary must
# degrade to in-thread execution with identical output and exit 0.
ISO_FLAGS=(--sweep --quick --benchmarks LPS,CP --mechanisms baseline,snake)
./target/release/repro "${ISO_FLAGS[@]}" > "$SWEEP_DIR/iso-ref.txt"
./target/release/repro "${ISO_FLAGS[@]}" --isolate > "$SWEEP_DIR/iso-sandboxed.txt"
if ! cmp -s "$SWEEP_DIR/iso-ref.txt" "$SWEEP_DIR/iso-sandboxed.txt"; then
    echo "isolation smoke: sandboxed report differs from the in-thread run" >&2
    diff "$SWEEP_DIR/iso-ref.txt" "$SWEEP_DIR/iso-sandboxed.txt" >&2 || true
    exit 1
fi
rc=0
SNAKE_EXEC_CRASH="CP/snake=abort" ./target/release/repro "${ISO_FLAGS[@]}" \
    --isolate > "$SWEEP_DIR/iso-abort.txt" || rc=$?
if [ "$rc" -ne 3 ]; then
    echo "isolation smoke: aborted child must quarantine its job (exit 3), got $rc" >&2
    exit 1
fi
if ! grep -q 'signal 6' "$SWEEP_DIR/iso-abort.txt"; then
    echo "isolation smoke: quarantine table must name the decoded crash kind" >&2
    cat "$SWEEP_DIR/iso-abort.txt" >&2
    exit 1
fi
grep '^LPS' "$SWEEP_DIR/iso-ref.txt" > "$SWEEP_DIR/iso-ref-lps.txt"
grep '^LPS' "$SWEEP_DIR/iso-abort.txt" > "$SWEEP_DIR/iso-abort-lps.txt"
if ! cmp -s "$SWEEP_DIR/iso-ref-lps.txt" "$SWEEP_DIR/iso-abort-lps.txt"; then
    echo "isolation smoke: sibling rows changed after a child crash" >&2
    diff "$SWEEP_DIR/iso-ref-lps.txt" "$SWEEP_DIR/iso-abort-lps.txt" >&2 || true
    exit 1
fi
rc=0
SNAKE_EXEC_CRASH="CP/baseline=oom" ./target/release/repro "${ISO_FLAGS[@]}" \
    --isolate --isolate-mem 512 > "$SWEEP_DIR/iso-oom.txt" || rc=$?
if [ "$rc" -ne 3 ] || ! grep -q 'oom' "$SWEEP_DIR/iso-oom.txt"; then
    echo "isolation smoke: rlimit blowout must be classified oom (exit 3), got $rc" >&2
    cat "$SWEEP_DIR/iso-oom.txt" >&2
    exit 1
fi
SNAKE_EXEC_WORKER=/nonexistent/snake-worker ./target/release/repro \
    "${ISO_FLAGS[@]}" --isolate > "$SWEEP_DIR/iso-degraded.txt"
if ! cmp -s "$SWEEP_DIR/iso-ref.txt" "$SWEEP_DIR/iso-degraded.txt"; then
    echo "isolation smoke: degraded (in-thread fallback) report differs" >&2
    diff "$SWEEP_DIR/iso-ref.txt" "$SWEEP_DIR/iso-degraded.txt" >&2 || true
    exit 1
fi

echo "==> snaked isolation smoke (child segfault quarantined, daemon healthy)"
# A segfaulting sandboxed child must not harm the daemon: its job ends
# quarantined with the decoded crash kind in status, the sibling's
# report survives, health stays undegraded, and shutdown is clean.
ISO_SOCK="$SWEEP_DIR/iso.sock"
ICTL=(./target/release/snakectl --socket "$ISO_SOCK")
SNAKE_EXEC_CRASH="CP/snake=segv" ./target/release/snaked \
    --socket "$ISO_SOCK" --isolate &
SNAKED_PID=$!
snaked_ready ICTL
ISO_ID=$("${ICTL[@]}" submit --quick --benchmarks LPS,CP --mechanisms snake)
for _ in $(seq 1 200); do
    "${ICTL[@]}" status "$ISO_ID" | grep -q '"state":"done"' && break
    sleep 0.05
done
ISO_STATUS=$("${ICTL[@]}" status "$ISO_ID")
if ! echo "$ISO_STATUS" | grep -q '"crash":"signal 11"'; then
    echo "snaked isolation smoke: status must carry the decoded crash kind" >&2
    echo "$ISO_STATUS" >&2
    exit 1
fi
if ! "${ICTL[@]}" health | grep -q '"exec_degraded":false'; then
    echo "snaked isolation smoke: a child crash must not degrade the executor" >&2
    "${ICTL[@]}" health >&2
    exit 1
fi
"${ICTL[@]}" shutdown >/dev/null
wait "$SNAKED_PID"

echo "CI gate passed."
