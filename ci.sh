#!/bin/sh
# Local CI gate. The workspace is hermetic (no crates.io dependencies),
# so everything here runs fully offline. See README "Offline-build
# policy".
set -eu

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace"
cargo test -q --workspace

echo "==> cargo test --workspace --features qbf-core/debug-counters"
# Re-runs the whole suite with the eager counter discipline shadowing the
# watched-literal propagator (panics on any propagation divergence).
cargo test -q --workspace --features qbf-core/debug-counters

echo "==> search fingerprint under release code generation"
# The pinned search, watch, certificate and hook digests must also hold in
# the shipped optimisation profile, where the debug cross-checks (heap
# pick against the scan, the watched-prefix invariant) are compiled out.
cargo test -q --release --test search_fingerprint

echo "==> long-input gate (one huge clause line is read, built and solved in linear time)"
# A 1 M-literal existential clause, and a 200 000-literal clause over an
# outer existential and an inner universal block. The duplicate-literal
# check of the parser, the sentinel attach and the free-pair count of the
# instance statistics must all stay linear: each run must print `s cnf 1`
# and exit 10 well within the timeout.
mkdir -p target/long-gate
{
    echo "p cnf 1000000 1"
    printf 'e '; seq -s ' ' 1 1000000 | tr '\n' ' '; echo 0
    seq -s ' ' 1 1000000 | tr '\n' ' '; echo 0
} > target/long-gate/exists.qdimacs
{
    echo "p cnf 200000 1"
    printf 'e '; seq -s ' ' 1 100000 | tr '\n' ' '; echo 0
    printf 'a '; seq -s ' ' 100001 200000 | tr '\n' ' '; echo 0
    seq -s ' ' 1 200000 | tr '\n' ' '; echo 0
} > target/long-gate/mixed.qdimacs
for f in exists mixed; do
    status=0
    timeout 10 ./target/release/qbfsolve --po target/long-gate/$f.qdimacs \
        > target/long-gate/$f.out 2> /dev/null || status=$?
    [ "$status" -eq 10 ] || { echo "ci.sh: qbfsolve --po on the long $f clause exited $status"; exit 1; }
    grep -qx "s cnf 1" target/long-gate/$f.out || {
        echo "ci.sh: qbfsolve --po on the long $f clause did not print s cnf 1"; exit 1;
    }
done

echo "==> TO memory gate (DIA semaphore<3>@n3, Eq. 16, QUBE(TO): peak RSS <= 40 MB, arena touches <= 6 M)"
# Table I's heaviest TO run, on Table I's DIA budget. It must end normally:
# a verdict, or exit 1 with `s cnf -1` when the budget runs out (as Table I
# records it today). Its peak RSS, read by python3 from getrusage, must
# stay at or under 40 MB: learned goods hold no pinned sentinels and the
# compaction map is sized by the live constraints. With a pinned sentinel
# on nearly every literal of a ~220-literal good and a one-word-per-arena-
# word compaction map, the same run peaked at about 75 MB.
# Its arena touches (watcher visits that miss the blocker, read from
# --stats) must stay at or under 6 M: a good found disabled keeps the
# literal that disabled it as its blocker. The run makes about 3.1 M; with
# the other watched literal as the blocker it made 30.6 M.
mkdir -p target/memory-gate
./target/release/repro --out target/memory-gate instances > /dev/null
python3 - target/memory-gate/instances/dia_semaphore3_n3.qdimacs <<'EOF'
import re, resource, subprocess, sys
cmd = ["./target/release/qbfsolve", "--to", "--budget", "1200000", "--stats", sys.argv[1]]
run = subprocess.run(cmd, capture_output=True, text=True)
answer = run.stdout.strip()
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
if {10: "s cnf 1", 20: "s cnf 0", 1: "s cnf -1"}.get(run.returncode) != answer:
    sys.exit(f"ci.sh: qbfsolve --to on the TO probe exited {run.returncode} with {answer!r}")
stats = dict(re.findall(r"^c (\w+) += (\d+)$", run.stderr, re.M))
if "watcher_visits" not in stats or "blocker_hits" not in stats:
    sys.exit("ci.sh: qbfsolve --stats on the TO probe printed no watcher counters")
touches = int(stats["watcher_visits"]) - int(stats["blocker_hits"])
print(f"TO probe: {answer}, peak RSS {peak_mb:.1f} MB, {touches} arena touches")
if peak_mb > 40:
    sys.exit(f"ci.sh: TO probe peak RSS {peak_mb:.1f} MB exceeds 40 MB")
if touches > 6_000_000:
    sys.exit(f"ci.sh: TO probe made {touches} arena touches, more than 6 000 000")
EOF

echo "==> front-end bit-identity gate (preprocess + miniscope vs the reference)"
# The incremental preprocessor and the union-find miniscoper must return
# exactly what the replaced quadratic implementations (kept only inside
# this test) return. The ignored cases are the large flat instances of the
# prenex-large benchmark shape, too slow for the reference in debug builds.
cargo test -q --release --test frontend_equivalence -- --include-ignored

echo "==> repro bench-smoke (telemetry determinism gate)"
# Runs a micro benchmark suite twice and asserts the machine-readable
# BENCH_qbf.json aggregate is byte-identical across runs and parses with
# the in-tree JSON reader. Writes under target/repro-smoke so the
# committed BENCH_qbf.json at the repo root is never clobbered.
cargo run -q --release -p qbf-bench --bin repro -- --out target/repro-smoke --jobs 1 bench-smoke

echo "==> repro bench-smoke --jobs 4 (parallel determinism gate)"
# The --jobs fan-out parallelizes only the measurement phase; aggregation
# stays sequential in instance order, so the smoke benchmark must produce
# a byte-identical BENCH_qbf_smoke.json at any worker count.
cargo run -q --release -p qbf-bench --bin repro -- --out target/repro-smoke-jobs4 --jobs 4 bench-smoke
cmp target/repro-smoke/BENCH_qbf_smoke.json target/repro-smoke-jobs4/BENCH_qbf_smoke.json

echo "==> certificate gate (solve with --proof, verify with qbfcheck, byte-determinism)"
# The release differential suite already certifies all 239 pool
# instances under TO and PO; here the *binaries* are exercised
# end-to-end: qbfsolve writes a certificate twice, qbfcheck must accept
# it, and the two runs must be byte-identical.
cargo test -q --release --test proof_differential
mkdir -p target/proof-gate
for cfg in --to --po; do
    # paper_example is false: qbfsolve exits 20, qbfcheck prints VERIFIED 0.
    ./target/release/qbfsolve $cfg --proof=target/proof-gate/a.qrp data/paper_example.qtree || [ $? -eq 20 ]
    ./target/release/qbfsolve $cfg --proof=target/proof-gate/b.qrp data/paper_example.qtree || [ $? -eq 20 ]
    cmp target/proof-gate/a.qrp target/proof-gate/b.qrp
    ./target/release/qbfcheck data/paper_example.qtree target/proof-gate/a.qrp
done
# Under --preprocess the log would certify the simplified instance, which
# qbfcheck rejects against the input file (E11). Until the preprocessor's
# steps are logged, qbfsolve refuses the pair: exit 1, an error naming
# both flags, and no certificate file, on the single-solver and the
# portfolio path alike.
for mode in "" "--portfolio 2 --deterministic"; do
    rm -f target/proof-gate/pre.qrp
    status=0
    ./target/release/qbfsolve --po --preprocess $mode --proof=target/proof-gate/pre.qrp \
        data/paper_example.qtree > /dev/null 2> target/proof-gate/pre.err || status=$?
    [ "$status" -eq 1 ] || { echo "ci.sh: qbfsolve --preprocess --proof $mode exited $status"; exit 1; }
    grep -q -- "--preprocess" target/proof-gate/pre.err && grep -q -- "--proof" target/proof-gate/pre.err || {
        echo "ci.sh: qbfsolve --preprocess --proof $mode did not name both flags"; exit 1;
    }
    [ ! -e target/proof-gate/pre.qrp ] || {
        echo "ci.sh: qbfsolve --preprocess --proof $mode wrote a certificate"; exit 1;
    }
done

echo "==> qbfsolve instrumentation gate (--metrics on every observer path)"
# --metrics alone attaches the phase recorder directly; next to --profile
# and --trace-json it joins the observer fan-out; --proof adds a
# certificate log beside the directly attached recorder; --to runs the TO
# configuration; --engine expand times the expansion engine.
# paper_example is false: each run must exit 20, print `s cnf 0` and
# report at least one timed call of its engine's main phase.
mkdir -p target/instrument-gate
check_metrics() {
    phase=$1
    shift
    status=0
    ./target/release/qbfsolve "$@" data/paper_example.qtree \
        > target/instrument-gate/out.txt 2> target/instrument-gate/err.txt || status=$?
    [ "$status" -eq 20 ] || { echo "ci.sh: qbfsolve $* exited $status"; exit 1; }
    grep -qx "s cnf 0" target/instrument-gate/out.txt || {
        echo "ci.sh: qbfsolve $* did not print s cnf 0"; exit 1;
    }
    grep -Eq "^c phase $phase +calls +[1-9]" target/instrument-gate/err.txt || {
        echo "ci.sh: qbfsolve $* timed no $phase call"; exit 1;
    }
}
check_metrics propagate --po --metrics
check_metrics propagate --po --metrics --profile --trace-json=target/instrument-gate/trace.jsonl
check_metrics propagate --po --metrics --proof=target/instrument-gate/m.qrp
./target/release/qbfcheck data/paper_example.qtree target/instrument-gate/m.qrp
check_metrics propagate --to --metrics --stats
check_metrics sat_solve --engine expand --metrics

echo "==> qbfserve session replay gate (byte-determinism + per-query certificates)"
# Pipes a scripted incremental session (push/add/assume/solve/pop plus
# deliberate protocol errors) through the long-lived qbfserve service
# twice and asserts the transcripts are byte-identical. Each certified
# query dumps its qrp certificate and the frame-restricted instance it
# proves; qbfcheck must accept every pair.
mkdir -p target/serve-gate
cat > target/serve-gate/session.jsonl <<'EOF'
{"cmd":"solve","proof":true}
{"cmd":"proof","path":"target/serve-gate/q1.qrp","instance":"target/serve-gate/q1.qtree"}
{"cmd":"push"}
{"cmd":"add","lits":[3]}
{"cmd":"assume","lit":-1}
{"cmd":"solve","proof":true}
{"cmd":"proof","path":"target/serve-gate/q2.qrp","instance":"target/serve-gate/q2.qtree"}
{"cmd":"stats"}
{"cmd":"pop"}
{"cmd":"pop"}
{"cmd":"frobnicate"}
not json at all
{"cmd":"solve","proof":true}
{"cmd":"proof","path":"target/serve-gate/q3.qrp","instance":"target/serve-gate/q3.qtree"}
EOF
./target/release/qbfserve --po data/paper_example.qtree \
    < target/serve-gate/session.jsonl > target/serve-gate/transcript-a.txt
./target/release/qbfserve --po data/paper_example.qtree \
    < target/serve-gate/session.jsonl > target/serve-gate/transcript-b.txt
cmp target/serve-gate/transcript-a.txt target/serve-gate/transcript-b.txt
for q in q1 q2 q3; do
    ./target/release/qbfcheck target/serve-gate/$q.qtree target/serve-gate/$q.qrp
done
# A request line nested 100 000 deep must come back as a structured error
# with its line number, not a stack overflow, and the session must go on.
{
    printf '{"cmd":"solve","x":'
    head -c 100000 /dev/zero | tr '\0' '['
    head -c 100000 /dev/zero | tr '\0' ']'
    printf '}\n{"cmd":"solve"}\n'
} > target/serve-gate/deep.jsonl
./target/release/qbfserve --po data/paper_example.qtree \
    < target/serve-gate/deep.jsonl > target/serve-gate/deep-transcript.txt || {
    echo "ci.sh: qbfserve died on a deeply nested request"; exit 1;
}
# Transcript line 1 answers the initial load of the instance file.
sed -n 2p target/serve-gate/deep-transcript.txt | grep -q '^{"ok":false,"line":1,' || {
    echo "ci.sh: deeply nested request not rejected with its line number"; exit 1;
}
sed -n 3p target/serve-gate/deep-transcript.txt | grep -q '^{"ok":true,"cmd":"solve"' || {
    echo "ci.sh: qbfserve stopped answering after a deeply nested request"; exit 1;
}

echo "==> qbfserve metrics gate (ManualClock byte-determinism + qbfstat round-trip)"
# Replays a metrics-instrumented session twice under --manual-clock (the
# deterministic Clock: every read advances a fixed step, so latencies are
# pure functions of the script) and asserts both the transcript — which
# includes the {"cmd":"metrics"} Prometheus exposition — and the
# --metrics-jsonl snapshot stream are byte-identical. qbfstat must then
# accept the stream it just wrote.
mkdir -p target/metrics-gate
cat > target/metrics-gate/session.jsonl <<'EOF'
{"cmd":"solve"}
{"cmd":"push"}
{"cmd":"add","lits":[3]}
{"cmd":"assume","lit":-1}
{"cmd":"solve"}
{"cmd":"pop"}
{"cmd":"frobnicate"}
{"cmd":"solve"}
{"cmd":"stats"}
{"cmd":"metrics"}
{"cmd":"metrics","format":"json"}
EOF
for run in a b; do
    ./target/release/qbfserve --po --manual-clock --metrics-every 2 --progress 2 \
        --metrics-jsonl target/metrics-gate/stream-$run.jsonl data/paper_example.qtree \
        < target/metrics-gate/session.jsonl > target/metrics-gate/transcript-$run.txt
done
cmp target/metrics-gate/transcript-a.txt target/metrics-gate/transcript-b.txt
cmp target/metrics-gate/stream-a.jsonl target/metrics-gate/stream-b.jsonl
./target/release/qbfstat snapshots target/metrics-gate/stream-a.jsonl

echo "==> qbfstat round-trip on the committed bench artifacts"
# The strict readers must accept the committed aggregate and the smoke
# telemetry written above, and the self-diff must report no drift (exit
# 0). Finally, re-assert that nothing in this run clobbered the committed
# BENCH_qbf.json.
./target/release/qbfstat bench BENCH_qbf.json
./target/release/qbfstat summary target/repro-smoke/BENCH_qbf_smoke_telemetry.jsonl --top 5
./target/release/qbfstat diff BENCH_qbf.json BENCH_qbf.json
git diff --quiet -- BENCH_qbf.json || {
    echo "ci.sh: committed BENCH_qbf.json was modified"; exit 1;
}

echo "==> repro table1 artifact gate (regenerated Table I matches the committed bytes)"
# The check above only guards the committed file against being
# overwritten. Here Table I is regenerated from the current source into
# target/ and must be byte-identical to the committed BENCH_qbf.json:
# every change that claims to keep verdicts and search Stats must keep
# the paper's table reproducible.
cargo run -q --release -p qbf-bench --bin repro -- --out target/table1-gate --jobs 2 table1
cmp target/table1-gate/BENCH_qbf.json BENCH_qbf.json || {
    echo "ci.sh: regenerated Table I differs from the committed BENCH_qbf.json"; exit 1;
}

echo "==> repro bench-incremental (incremental-vs-cold DIA gate)"
# Solves DIA probe families through one incremental session and cold,
# twice: verdicts must agree, the incremental totals must not exceed the
# cold totals, and the aggregate must be byte-deterministic. Writes its
# own BENCH_qbf_incremental.json artifact; the committed BENCH_qbf.json
# is never touched (incrementality is opt-in).
cargo run -q --release -p qbf-bench --bin repro -- --out target/serve-gate bench-incremental

echo "==> portfolio gate (deterministic transcripts + bench round-trip)"
# Deterministic portfolio runs must produce byte-identical transcripts
# regardless of thread count and across repeated invocations: the fixed
# 8-variant roster races in lockstep epochs, so the transcript is a pure
# function of the instance. paper_example is false (exit 20).
mkdir -p target/portfolio-gate
./target/release/qbfsolve --po --deterministic --portfolio 1 \
    --portfolio-out target/portfolio-gate/t1.txt data/paper_example.qtree || [ $? -eq 20 ]
./target/release/qbfsolve --po --deterministic --portfolio 4 \
    --portfolio-out target/portfolio-gate/t4a.txt data/paper_example.qtree || [ $? -eq 20 ]
./target/release/qbfsolve --po --deterministic --portfolio 4 \
    --portfolio-out target/portfolio-gate/t4b.txt data/paper_example.qtree || [ $? -eq 20 ]
cmp target/portfolio-gate/t4a.txt target/portfolio-gate/t4b.txt
cmp target/portfolio-gate/t1.txt target/portfolio-gate/t4a.txt
# A portfolio winner's self-contained certificate must verify against the
# base instance (sharing is auto-disabled under --proof).
./target/release/qbfsolve --po --deterministic --portfolio 4 \
    --proof=target/portfolio-gate/w.qrp data/paper_example.qtree || [ $? -eq 20 ]
./target/release/qbfcheck data/paper_example.qtree target/portfolio-gate/w.qrp
# bench-portfolio internally runs its deterministic sample twice and
# asserts byte-identity; the wall-clock speedup gate engages when >= 4
# cores are available (override with QBF_PORTFOLIO_MIN_SPEEDUP). The
# artifact must round-trip through the strict qbfstat diff reader.
cargo run -q --release -p qbf-bench --bin repro -- --out target/portfolio-gate bench-portfolio
./target/release/qbfstat diff target/portfolio-gate/BENCH_qbf_portfolio.json \
    target/portfolio-gate/BENCH_qbf_portfolio.json

echo "==> expansion engine gate (second-paradigm agreement + determinism)"
# The release differential suite runs the expansion engine (both
# dependency schemes) as the third oracle over the whole instance pool;
# here the binaries are exercised end-to-end. paper_example is false:
# qbfsolve --engine expand must exit 20 under both schemes, and an
# unknown engine must be the strict-parser exit 2.
mkdir -p target/expand-gate
cargo test -q --release --test differential
./target/release/qbfsolve --engine expand data/paper_example.qtree || [ $? -eq 20 ]
./target/release/qbfsolve --engine expand --to data/paper_example.qtree || [ $? -eq 20 ]
./target/release/qbfsolve --engine bogus data/paper_example.qtree 2>/dev/null && {
    echo "ci.sh: unknown --engine must fail"; exit 1;
} || [ $? -eq 2 ]
# bench-engines runs search and expansion head to head twice in-process
# and asserts byte-identity itself; a second invocation must reproduce
# the artifact byte-for-byte across processes too, and it must
# round-trip through the strict qbfstat diff reader.
cargo run -q --release -p qbf-bench --bin repro -- --out target/expand-gate bench-engines
cargo run -q --release -p qbf-bench --bin repro -- --out target/expand-gate-b bench-engines
cmp target/expand-gate/BENCH_qbf_engines.json target/expand-gate-b/BENCH_qbf_engines.json
./target/release/qbfstat diff target/expand-gate/BENCH_qbf_engines.json \
    target/expand-gate-b/BENCH_qbf_engines.json
# Cross-paradigm portfolio: search and expansion race in-process with
# first-finisher cancellation; in deterministic mode the transcript
# (search stats + expansion engine counters) must replay byte-identically
# for any thread count.
./target/release/qbfsolve --po --deterministic --portfolio 1 --portfolio-expand \
    --portfolio-out target/expand-gate/x1.txt data/paper_example.qtree || [ $? -eq 20 ]
./target/release/qbfsolve --po --deterministic --portfolio 4 --portfolio-expand \
    --portfolio-out target/expand-gate/x4.txt data/paper_example.qtree || [ $? -eq 20 ]
cmp target/expand-gate/x1.txt target/expand-gate/x4.txt
grep -q "expand-po" target/expand-gate/x4.txt || {
    echo "ci.sh: expansion workers missing from the mixed transcript"; exit 1;
}

echo "==> portfolio exchange gate (lockstep sharing across epoch barriers)"
# paper_example finishes inside the first epoch and imports nothing, so
# the gates above never reach an exchange barrier. DIA gray<3>@n6 (true,
# exit 10; written by the memory gate's `repro instances`) runs for many
# 64-assignment epochs: the 1- and 4-thread transcripts must be equal,
# with and without the expansion workers, and the workers must import
# peer constraints (262 imports at the time of writing).
for mode in "" "--portfolio-expand"; do
    for n in 1 4; do
        status=0
        ./target/release/qbfsolve --po --budget 1200000 --deterministic --epoch 64 \
            --portfolio $n $mode --portfolio-out target/portfolio-gate/gray$n.txt \
            target/memory-gate/instances/dia_gray3_n6.qtree > /dev/null || status=$?
        [ "$status" -eq 10 ] || {
            echo "ci.sh: portfolio $n $mode on dia_gray3_n6 exited $status"; exit 1;
        }
    done
    cmp target/portfolio-gate/gray1.txt target/portfolio-gate/gray4.txt
    imported=$(grep -o 'imported=[0-9]*' target/portfolio-gate/gray4.txt | cut -d= -f2 \
        | awk '{ s += $1 } END { print s + 0 }')
    [ "$imported" -gt 0 ] || {
        echo "ci.sh: portfolio $mode on dia_gray3_n6 imported no constraints"; exit 1;
    }
done

echo "==> rustdoc (warnings denied)"
# Broken or private intra-doc links and redundant link targets fail the
# build of the API docs.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo clippy (best effort)"
# clippy may not be installed in minimal offline toolchains; treat its
# absence as a skip, but deny warnings when it is available.
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "clippy unavailable; skipped"
fi

echo "==> ci.sh: all checks passed"
