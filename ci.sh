#!/usr/bin/env sh
# Continuous-integration gate for the linvar workspace.
#
# Runs the full quality bar: release build, the complete test suite,
# clippy with warnings denied, formatting, and the parallel-determinism
# contract at two explicit worker counts (the suite's internal thread
# sweeps already cover 1/2/4/8; this re-checks the LINVAR_THREADS knob
# end-to-end).
set -eu

cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all -- --check

# The workspace tests above already ran every test binary once; the
# re-runs below are the ones whose environment or package differs.
echo "==> determinism contract at LINVAR_THREADS=1 and LINVAR_THREADS=8"
LINVAR_THREADS=1 cargo test -q --test parallel_determinism
LINVAR_THREADS=8 cargo test -q --test parallel_determinism

echo "==> benchmark self-tests and seed-1 result rows (paths, chains, irdrop, serve)"
# run.py exits non-zero when a workload's rows differ from perfbench/expected,
# so a hot-path or grid-route change that moves a result bit fails here
# (the paths rows are checked by the perf gate's seed-1 run below).
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
python3 perfbench/run.py --workload chains --seed 1 --seconds 1 >/dev/null
python3 perfbench/run.py --workload irdrop --seed 1 --seconds 1 >/dev/null
python3 perfbench/run.py --workload serve --seed 1 --seconds 1 >/dev/null

echo "==> no-panic smoke pass (examples must not panic)"
smoke_log=$(mktemp)
ckdir=$(mktemp -d)
base_tree="$ckdir/base-tree"
cleanup() {
    if [ -d "$base_tree" ]; then
        git worktree remove --force "$base_tree" || true
    fi
    rm -f "$smoke_log"
    rm -rf "$ckdir"
}
trap cleanup EXIT
# dash skips the EXIT trap on an untrapped signal; route them through it.
trap 'exit 130' INT
trap 'exit 143' TERM
for ex in quickstart variational_rc reduce_deck; do
    echo "    example $ex"
    if ! RUST_BACKTRACE=1 LINVAR_THREADS=2 \
        cargo run --release -q --example "$ex" >"$smoke_log" 2>&1; then
        echo "example $ex failed:" >&2
        cat "$smoke_log" >&2
        exit 1
    fi
    if grep -q "panicked at" "$smoke_log"; then
        echo "example $ex panicked:" >&2
        cat "$smoke_log" >&2
        exit 1
    fi
done

echo "==> interrupted-resume smoke (table4 --quick, deadline + checkpoint + resume)"
# Clean reference: the deterministic 'mc' stat lines of an uninterrupted run.
LINVAR_THREADS=2 cargo run --release -q -p linvar-bench --bin table4 -- --quick \
    >"$ckdir/clean.out" 2>&1
grep '^mc ' "$ckdir/clean.out" >"$ckdir/clean.mc"
if ! [ -s "$ckdir/clean.mc" ]; then
    echo "clean table4 run printed no mc lines:" >&2
    cat "$ckdir/clean.out" >&2
    exit 1
fi
# Interrupted run: a 2-second budget must truncate gracefully (exit 0) and
# leave resumable snapshots behind.
if ! LINVAR_THREADS=2 cargo run --release -q -p linvar-bench --bin table4 -- --quick \
    --deadline 2 --checkpoint "$ckdir/t4" >"$ckdir/cut.out" 2>&1; then
    echo "deadline-truncated table4 run did not exit cleanly:" >&2
    cat "$ckdir/cut.out" >&2
    exit 1
fi
# Resume at a different worker count: final stats must be bitwise-identical
# to the uninterrupted reference.
LINVAR_THREADS=4 cargo run --release -q -p linvar-bench --bin table4 -- --quick \
    --resume "$ckdir/t4" --checkpoint "$ckdir/t4" >"$ckdir/resume.out" 2>&1
grep '^mc ' "$ckdir/resume.out" >"$ckdir/resume.mc"
if ! diff -u "$ckdir/clean.mc" "$ckdir/resume.mc"; then
    echo "resumed table4 stats differ from the uninterrupted run" >&2
    exit 1
fi

echo "==> corruption-rejection smoke (damaged snapshot must refuse, exit 3)"
ck=$(ls "$ckdir"/t4.*.ckpt | head -n 1)
printf 'X' | dd of="$ck" bs=1 seek=40 conv=notrunc 2>/dev/null
status=0
LINVAR_THREADS=2 cargo run --release -q -p linvar-bench --bin table4 -- --quick \
    --resume "$ckdir/t4" >"$ckdir/corrupt.out" 2>&1 || status=$?
if [ "$status" -ne 3 ]; then
    echo "corrupted snapshot was not rejected with exit 3 (got $status):" >&2
    cat "$ckdir/corrupt.out" >&2
    exit 1
fi

echo "==> metrics report smoke (instrumented table4 --quick, same-seed counter diff)"
LINVAR_THREADS=2 cargo run --release -q -p linvar-bench --bin table4 -- --quick \
    --metrics "$ckdir/m1.json" >"$ckdir/m1.out" 2>&1
if ! [ -s BENCH_table4.json ] || ! [ -s "$ckdir/m1.json" ]; then
    echo "instrumented table4 run did not write its metrics reports" >&2
    cat "$ckdir/m1.out" >&2
    exit 1
fi
python3 -m json.tool BENCH_table4.json >/dev/null || {
    echo "BENCH_table4.json is not valid JSON" >&2
    exit 1
}
for key in '"bench"' '"counters"' '"gauges"' '"timers"' \
    '"phase.sample_eval.calls"' '"mc.samples_completed"' '"rung.' '"wall_seconds"'; do
    if ! grep -q "$key" BENCH_table4.json; then
        echo "BENCH_table4.json is missing required key $key" >&2
        exit 1
    fi
done
# Same seed at a different worker count: the deterministic counters
# section must be byte-identical (gauges/timers are run-dependent).
LINVAR_THREADS=4 cargo run --release -q -p linvar-bench --bin table4 -- --quick \
    --metrics "$ckdir/m2.json" >"$ckdir/m2.out" 2>&1
sed -n '/^  "counters": {$/,/^  },$/p' "$ckdir/m1.json" >"$ckdir/m1.counters"
sed -n '/^  "counters": {$/,/^  },$/p' "$ckdir/m2.json" >"$ckdir/m2.counters"
if ! [ -s "$ckdir/m1.counters" ]; then
    echo "could not extract the counters section from the metrics report" >&2
    exit 1
fi
if ! diff -u "$ckdir/m1.counters" "$ckdir/m2.counters"; then
    echo "metrics counters differ between same-seed runs at different thread counts" >&2
    exit 1
fi

echo "==> sparse solver smoke (chains --quick, both backends byte-diffed by the bin itself)"
LINVAR_THREADS=2 cargo run --release -q -p linvar-bench --bin chains -- --quick \
    >"$ckdir/chains.out" 2>&1 || {
    echo "chains --quick failed (backend mismatch or error):" >&2
    cat "$ckdir/chains.out" >&2
    exit 1
}
if ! grep -q '^mc ' "$ckdir/chains.out"; then
    echo "chains --quick printed no mc lines:" >&2
    cat "$ckdir/chains.out" >&2
    exit 1
fi

echo "==> AC campaign smoke (chains --quick --analysis ac, both backends byte-diffed by the bin)"
LINVAR_THREADS=2 cargo run --release -q -p linvar-bench --bin chains -- --quick --analysis ac \
    >"$ckdir/ac.out" 2>&1 || {
    echo "chains --quick --analysis ac failed (backend mismatch or error):" >&2
    cat "$ckdir/ac.out" >&2
    exit 1
}
if ! grep -q '^mc .*\.ac:' "$ckdir/ac.out"; then
    echo "chains --analysis ac printed no .ac-named mc rows:" >&2
    cat "$ckdir/ac.out" >&2
    exit 1
fi

echo "==> IR-drop smoke (acgrid --quick, both backends byte-diffed by the bin itself)"
LINVAR_THREADS=2 cargo run --release -q -p linvar-bench --bin acgrid -- --quick \
    >"$ckdir/acgrid.out" 2>&1 || {
    echo "acgrid --quick failed (backend mismatch or error):" >&2
    cat "$ckdir/acgrid.out" >&2
    exit 1
}
if ! grep -q '^mc grid' "$ckdir/acgrid.out"; then
    echo "acgrid --quick printed no mc rows:" >&2
    cat "$ckdir/acgrid.out" >&2
    exit 1
fi
for key in '"grid8x8.sparse.samples_per_sec"' '"grid8x8.dense.samples_per_sec"' \
    '"grid8x8.dim"' '"wall_seconds"'; do
    if ! grep -q "$key" BENCH_acgrid.json; then
        echo "BENCH_acgrid.json is missing required key $key" >&2
        exit 1
    fi
done

echo "==> spectral engine smoke (table4 --quick --engine gpc vs mc)"
# The gpc run fails (non-zero exit) on a budget violation; the budgets
# themselves are held by tests/gpc_budget.rs in the workspace tests above.
if ! LINVAR_THREADS=2 cargo run --release -q -p linvar-bench --bin table4 -- --quick \
    --engine gpc >"$ckdir/gpc.out" 2>&1; then
    echo "table4 --engine gpc failed (budget violation or error):" >&2
    cat "$ckdir/gpc.out" >&2
    exit 1
fi
grep '^gpc ' "$ckdir/gpc.out" >"$ckdir/gpc.rows"
if ! [ -s "$ckdir/gpc.rows" ]; then
    echo "table4 --engine gpc printed no gpc rows:" >&2
    cat "$ckdir/gpc.out" >&2
    exit 1
fi

echo "==> shard smoke (table4 --quick: 1 shard, then 2 shard processes, one killed)"
# Unsharded reference rows come from the interrupted-resume smoke above
# ($ckdir/clean.mc). 1 shard must reproduce them...
LINVAR_THREADS=2 cargo run --release -q -p linvar-bench --bin table4 -- --quick \
    --shards 1 >"$ckdir/shard1.out" 2>&1
grep '^mc ' "$ckdir/shard1.out" >"$ckdir/shard1.mc"
if ! diff -u "$ckdir/clean.mc" "$ckdir/shard1.mc"; then
    echo "table4 mc rows differ between unsharded and --shards 1" >&2
    exit 1
fi
# ...and so must 2 shard processes merged by a resumed run. Shard 0 runs
# to completion. Shard 1 is killed with -9 as soon as its first campaign
# snapshot lands (the whole worker takes under a second, so a fixed
# delay would usually miss it) and is re-run with --resume, which
# restores the finished campaigns instead of evaluating them again.
T4=target/release/table4
if ! LINVAR_THREADS=2 "$T4" --quick --shards 2 --shard-index 0 \
    --checkpoint "$ckdir/sh" >"$ckdir/shard_w0.out" 2>&1; then
    echo "table4 shard worker 0 failed:" >&2
    cat "$ckdir/shard_w0.out" >&2
    exit 1
fi
LINVAR_THREADS=2 "$T4" --quick --shards 2 --shard-index 1 \
    --checkpoint "$ckdir/sh" >"$ckdir/shard_w1_killed.out" 2>&1 &
shard_w1_pid=$!
i=0
while [ "$i" -lt 200 ] && ! ls "$ckdir"/sh.*.shard1of2.ckpt >/dev/null 2>&1; do
    sleep 0.05
    i=$((i + 1))
done
shard_w1_killed=0
kill -9 "$shard_w1_pid" 2>/dev/null && shard_w1_killed=1
wait "$shard_w1_pid" 2>/dev/null || true
[ "$shard_w1_killed" -eq 1 ] || echo "    shard worker 1 finished before the kill"
if ! LINVAR_THREADS=2 "$T4" --quick --shards 2 --shard-index 1 \
    --checkpoint "$ckdir/sh" --resume "$ckdir/sh" >"$ckdir/shard_w1.out" 2>&1; then
    echo "re-run of killed table4 shard worker 1 failed:" >&2
    cat "$ckdir/shard_w1.out" >&2
    exit 1
fi
if [ "$shard_w1_killed" -eq 1 ] && ! grep -q ' evaluated=0 ' "$ckdir/shard_w1.out"; then
    echo "re-run of the killed shard worker restored no campaign from its snapshots:" >&2
    cat "$ckdir/shard_w1.out" >&2
    exit 1
fi
if ! LINVAR_THREADS=2 "$T4" --quick --shards 2 --resume "$ckdir/sh" \
    >"$ckdir/shard2.out" 2>&1; then
    echo "merging table4 --shards 2 --resume run failed:" >&2
    cat "$ckdir/shard2.out" >&2
    exit 1
fi
grep '^mc ' "$ckdir/shard2.out" >"$ckdir/shard2.mc"
if ! diff -u "$ckdir/clean.mc" "$ckdir/shard2.mc"; then
    echo "table4 mc rows differ after two shard processes (one killed) were merged" >&2
    exit 1
fi

echo "==> paired perf gate (perfbench paths, base vs change, alternating pairs)"
# The base is the last commit when tracked files have uncommitted changes,
# else its parent. Each side runs its own tree's perfbench; pair k runs
# seed k, and the side that goes first alternates. One run drifts 10-15%
# with machine load, so the gate fails only when the change loses most
# pairs *and* the median per-pair samples_per_s ratio (change / base) is
# below the threshold. setup_s (lower is better) runs under the same rule:
# most pairs lost *and* the median ratio above 1 + its bound in
# BENCHMARK.json. The gate also fails when the median per-pair
# peak_rss_mb ratio is above 1 + that metric's bound.
perf_pairs=5
perf_seconds=5
perf_workload=paths
perf_min_ratio=0.9
if git diff --quiet HEAD --; then base_rev=HEAD^; else base_rev=HEAD; fi
git rev-parse -q --verify "$base_rev^{commit}" >/dev/null || {
    echo "perf gate: no base commit $base_rev to compare against" >&2
    exit 1
}
# Drop registrations a killed earlier run (kill -9 skips every trap) left.
git worktree prune
git worktree add -q --detach "$base_tree" "$base_rev"
echo "    base $(git rev-parse --short "$base_rev") ($base_rev)"
# perf_run <side> <tree> <target dir> <seed>: one perfbench run; its
# result line is kept as $ckdir/perf_<side>_<seed>.json.
perf_run() {
    (cd "$2" && CARGO_TARGET_DIR="$3" python3 perfbench/run.py --workload "$perf_workload" \
        --seed "$4" --seconds "$perf_seconds" >"$ckdir/perf_$1_$4.json" \
        2>"$ckdir/perf_$1_$4.err") || {
        echo "perfbench $perf_workload ($1 side, seed $4) failed:" >&2
        cat "$ckdir/perf_$1_$4.err" >&2
        exit 1
    }
}
seed=1
while [ "$seed" -le "$perf_pairs" ]; do
    if [ $((seed % 2)) -eq 1 ]; then
        perf_run change . "$PWD/.bench_build" "$seed"
        perf_run base "$base_tree" "$ckdir/base_build" "$seed"
    else
        perf_run base "$base_tree" "$ckdir/base_build" "$seed"
        perf_run change . "$PWD/.bench_build" "$seed"
    fi
    seed=$((seed + 1))
done
python3 - "$ckdir" "$perf_pairs" "$perf_min_ratio" <<'EOF'
import json, statistics, sys

ckdir, pairs, min_ratio = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
bounds = {m["name"]: m["bound"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
def metric(side, seed, name):
    line = open(f"{ckdir}/perf_{side}_{seed}.json").read().splitlines()[-1]
    return json.loads(line)["metrics"][name]["value"]
ratios, setup_ratios, rss_ratios = [], [], []
for seed in range(1, pairs + 1):
    base, change = metric("base", seed, "samples_per_s"), metric("change", seed, "samples_per_s")
    ratios.append(change / base)
    base_setup, change_setup = metric("base", seed, "setup_s"), metric("change", seed, "setup_s")
    setup_ratios.append(change_setup / base_setup)
    base_rss, change_rss = metric("base", seed, "peak_rss_mb"), metric("change", seed, "peak_rss_mb")
    rss_ratios.append(change_rss / base_rss)
    first = "change" if seed % 2 else "base"
    print(f"    pair {seed} ({first} first): base {base:.2f}, change {change:.2f} "
          f"samples/s, ratio {ratios[-1]:.3f}; setup base {base_setup:.3f}, "
          f"change {change_setup:.3f} s, ratio {setup_ratios[-1]:.3f}; peak RSS "
          f"base {base_rss:.1f}, change {change_rss:.1f} MiB, ratio {rss_ratios[-1]:.3f}")
wins = sum(r > 1.0 for r in ratios)
median = statistics.median(ratios)
print(f"    change wins {wins}/{pairs} pairs, median ratio {median:.3f}")
if 2 * wins <= pairs and median < min_ratio:
    sys.exit(f"perf gate: change loses {pairs - wins}/{pairs} pairs and its median "
             f"samples_per_s ratio {median:.3f} is below {min_ratio}")
setup_wins = sum(r < 1.0 for r in setup_ratios)
setup_median = statistics.median(setup_ratios)
setup_max = 1 + bounds["setup_s"]
print(f"    setup_s: change wins {setup_wins}/{pairs} pairs, median ratio "
      f"{setup_median:.3f} (at most {setup_max:.2f} when most pairs are lost)")
if 2 * setup_wins <= pairs and setup_median > setup_max:
    sys.exit(f"perf gate: change loses {pairs - setup_wins}/{pairs} pairs and its median "
             f"setup_s ratio {setup_median:.3f} is above {setup_max:.2f}")
rss_bound = bounds["peak_rss_mb"]
rss_median = statistics.median(rss_ratios)
print(f"    median peak_rss_mb ratio {rss_median:.3f} (at most {1 + rss_bound:.2f})")
if rss_median > 1 + rss_bound:
    sys.exit(f"perf gate: median peak_rss_mb ratio {rss_median:.3f} is above "
             f"{1 + rss_bound:.2f}")
EOF

echo "==> campaign-service smoke (kill -9 mid-campaign + restart, byte-identical result)"
SB=target/release/serve
serve_wait_up() {
    i=0
    while ! "$SB" health --addr "$1" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -ge 60 ]; then
            echo "campaign server at $1 never became healthy" >&2
            return 1
        fi
        sleep 0.25
    done
}
# Reference: the same campaign through an uninterrupted server.
"$SB" serve --addr 127.0.0.1:17441 --jobs-dir "$ckdir/serve-ref" \
    >"$ckdir/serve_ref.log" 2>&1 &
serve_ref_pid=$!
serve_wait_up 127.0.0.1:17441
ref_job=$("$SB" submit --addr 127.0.0.1:17441 --model demo-slow --n 40 --seed 7 \
    2>/dev/null)
"$SB" wait --addr 127.0.0.1:17441 --job "$ref_job" --timeout-secs 120 \
    >"$ckdir/serve_ref.mc"
"$SB" shutdown --addr 127.0.0.1:17441 >/dev/null
wait "$serve_ref_pid" || {
    echo "graceful shutdown of the reference campaign server did not exit 0" >&2
    cat "$ckdir/serve_ref.log" >&2
    exit 1
}
# Interrupted: kill -9 the server mid-campaign, restart on the same job
# store, and let the recovery scan resume the job from its checkpoint.
"$SB" serve --addr 127.0.0.1:17442 --jobs-dir "$ckdir/serve-kill" \
    >"$ckdir/serve_kill1.log" 2>&1 &
serve_kill_pid=$!
serve_wait_up 127.0.0.1:17442
kill_job=$("$SB" submit --addr 127.0.0.1:17442 --model demo-slow --n 40 --seed 7 \
    2>/dev/null)
sleep 1
kill -9 "$serve_kill_pid"
wait "$serve_kill_pid" 2>/dev/null || true
"$SB" serve --addr 127.0.0.1:17442 --jobs-dir "$ckdir/serve-kill" \
    >"$ckdir/serve_kill2.log" 2>&1 &
serve_kill2_pid=$!
serve_wait_up 127.0.0.1:17442
"$SB" wait --addr 127.0.0.1:17442 --job "$kill_job" --timeout-secs 120 \
    >"$ckdir/serve_kill.mc"
"$SB" shutdown --addr 127.0.0.1:17442 >/dev/null
wait "$serve_kill2_pid" || true
if ! diff -u "$ckdir/serve_ref.mc" "$ckdir/serve_kill.mc"; then
    echo "campaign-service result differs after kill -9 + restart" >&2
    exit 1
fi
if ! grep -q "recovery scan: requeued 1 job" "$ckdir/serve_kill2.log"; then
    echo "restarted campaign server did not report a recovery scan:" >&2
    cat "$ckdir/serve_kill2.log" >&2
    exit 1
fi

echo "==> campaign-service overload smoke (queue depth 1 sheds with 429)"
"$SB" serve --addr 127.0.0.1:17443 --jobs-dir "$ckdir/serve-shed" \
    --workers 1 --queue 1 >"$ckdir/serve_shed.log" 2>&1 &
serve_shed_pid=$!
serve_wait_up 127.0.0.1:17443
"$SB" submit --addr 127.0.0.1:17443 --model demo-slow --n 400 --seed 1 >/dev/null 2>&1
"$SB" submit --addr 127.0.0.1:17443 --model demo-slow --n 400 --seed 2 >/dev/null 2>&1
shed_status=0
"$SB" submit --addr 127.0.0.1:17443 --model demo-slow --n 400 --seed 3 \
    >/dev/null 2>"$ckdir/serve_shed.err" || shed_status=$?
if [ "$shed_status" -eq 0 ] || ! grep -q "429" "$ckdir/serve_shed.err"; then
    echo "full queue did not shed with 429:" >&2
    cat "$ckdir/serve_shed.err" >&2
    exit 1
fi
"$SB" health --addr 127.0.0.1:17443 >/dev/null
"$SB" shutdown --addr 127.0.0.1:17443 >/dev/null
wait "$serve_shed_pid" || true

echo "==> ci green"
