#!/usr/bin/env bash
# CI for the hermetic workspace: everything runs --offline; a network
# fetch (i.e. any external dependency creeping back in) is a failure.
set -euo pipefail
cd "$(dirname "$0")/.."
XP=(cargo run -q --release --offline -p apples-bench --bin xp --)

echo "== fmt =="
cargo fmt --all -- --check

# Every cargo command on perfbench/Cargo.toml (clippy below, the A/B
# and the perfbench stage) re-resolves the benchmark's stale lock file
# in place. A copy taken now is put back when this script exits, pass
# or fail, so CI leaves the benchmark's files as it found them.
mkdir -p target
cp perfbench/Cargo.lock target/perfbench.Cargo.lock
trap 'cp target/perfbench.Cargo.lock perfbench/Cargo.lock' EXIT

echo "== clippy =="
# The whole lint gate (DESIGN.md §8): the rules live in clippy.toml
# (disallowed types and methods), in [workspace.lints] of Cargo.toml and
# in the P1 attributes of the library crate roots; tests/lint_canary.rs
# fails this stage if any clippy.toml entry stops firing. perfbench is
# its own package, outside --workspace, and is linted separately.
cargo clippy --workspace --all-targets --offline -- -D warnings
cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

echo "== docs =="
# Rustdoc with warnings denied: a doc link to a deleted or private item
# fails here instead of rendering as dead text.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== tier-1: release build =="
cargo build --release --offline

echo "== tier-1: tests (count-floored) =="
# The full workspace suite includes the golden-report fixtures
# (tests/golden/) and the determinism-under-faults suite; both gate
# here. The passed-test count is compared against a checked-in floor
# so a suite cannot silently shrink or stop being discovered.
mkdir -p target
cargo test -q --workspace --offline | tee target/test-output.txt
passed=$(grep -Eo '[0-9]+ passed' target/test-output.txt | awk '{s += $1} END {print s + 0}')
floor=$(grep -Eo '^[0-9]+' reports/test_floor.txt | head -n1)
echo "tests passed: ${passed} (floor: ${floor})"
if [ "${passed}" -lt "${floor}" ]; then
  echo "test count ${passed} fell below the floor ${floor} (reports/test_floor.txt)" >&2
  exit 1
fi

echo "== observed identity: every scenario, observed == unobserved =="
# Every registered scenario runs as an unobserved reference and once
# observed (telemetry, spans, time series). `xp run` exits 1 unless the
# observed run's measurement is bit-identical to the reference; each
# run prints its verdict line.
"${XP[@]}" run base-2c | tail -n 1
"${XP[@]}" run smartnic --severity 0.5 | tail -n 1
"${XP[@]}" run switch-2c | tail -n 1
"${XP[@]}" run cluster --severity 0.3 | tail -n 1
"${XP[@]}" run rss | tail -n 1
# Usage errors exit 2: an unknown scenario, the removed shard-count
# flag, the verbs `xp run` replaced, the removed scheduler-choice and
# bench floor-file flags, the removed order-sanitizer flags, the
# removed `xp lint` verb (clippy above is the lint gate), and the six
# removed bench baseline and robustness flags (the perf stage below
# replaced them).
for cmd in "run nope" "run cluster --shards 2" \
  "trace smartnic" "profile smartnic" "sanitize smartnic" \
  "run smartnic --scheduler heap" "bench --check-floor x" \
  "run base-2c --sanitize" "run switch-2c --perturb-seed 7" \
  "lint" "lint --json" \
  "bench --baseline reports/baseline.json" "bench --export-baseline x" \
  "bench --faults" "bench --replications 3" "bench --max-drop 0.1" \
  "bench --strict"; do
  status=0
  # shellcheck disable=SC2086 # each entry is a list of words
  "${XP[@]}" ${cmd} > /dev/null 2>&1 || status=$?
  if [ "${status}" -ne 2 ]; then
    echo "xp ${cmd} exited ${status}, want 2" >&2
    exit 1
  fi
done

echo "== store: incremental experiment cache =="
# The content-addressed experiment store (DESIGN.md §13): a cold run
# populates target/store-ci, a warm run must be 100% hits (0 stale, 0
# miss, 0 torn) with byte-identical stdout, --no-cache must reproduce
# the same bytes while bypassing the store, flipping one fault-spec
# severity rung (via the sanctioned override) must re-run exactly that
# experiment, with --explain naming the rung, and `xp gc` must reap
# exactly the three override-keyed entries it left behind (its run,
# report and figure).
rm -rf target/store-ci
"${XP[@]}" --store-dir target/store-ci --explain all \
  > target/store-cold.txt 2> target/store-cold-explain.txt
grep -q "re-ran 27/27 experiments" target/store-cold-explain.txt
"${XP[@]}" --store-dir target/store-ci --explain all \
  > target/store-warm.txt 2> target/store-warm-explain.txt
grep -q "0 stale, 0 miss, 0 torn" target/store-warm-explain.txt
grep -q "re-ran 0/27 experiments" target/store-warm-explain.txt
cmp target/store-cold.txt target/store-warm.txt
"${XP[@]}" --store-dir target/store-ci --no-cache all > target/store-fresh.txt
cmp target/store-cold.txt target/store-fresh.txt
APPLES_SEVERITY_OVERRIDE="robustness-verdict:moderate=0.55" \
  "${XP[@]}" --store-dir target/store-ci --explain all \
  > /dev/null 2> target/store-flip-explain.txt
grep -q "re-ran 1/27 experiments" target/store-flip-explain.txt
grep -q "stale run/robustness-verdict" target/store-flip-explain.txt
grep -q "severity/moderate: 0.5 -> 0.55" target/store-flip-explain.txt
if grep "stale run/" target/store-flip-explain.txt | grep -qv "robustness-verdict"; then
  echo "severity flip dirtied an unrelated experiment subtree:" >&2
  grep "stale run/" target/store-flip-explain.txt >&2
  exit 1
fi
"${XP[@]}" --store-dir target/store-ci --explain all \
  > /dev/null 2> target/store-warm2-explain.txt
grep -q "re-ran 0/27 experiments" target/store-warm2-explain.txt
"${XP[@]}" gc --store-dir target/store-ci | tail -n 1 | tee target/store-gc.txt
grep -q "removed 3" target/store-gc.txt
"${XP[@]}" --store-dir target/store-ci --explain all \
  > /dev/null 2> target/store-warm3-explain.txt
grep -q "re-ran 0/27 experiments" target/store-warm3-explain.txt

echo "== perf: same-host A/B against the merge base =="
# The benchmark's perf gate (DESIGN.md §14): perfbench built from the
# merge base of HEAD and main and from this tree, ten alternating pairs
# of every BENCHMARK.json workload on this host. Fails on any failed op
# or wrong digest, or on an end-to-end metric whose change median is
# worse than the parent's by more than its BENCHMARK.json bound. Needs
# a local `main` branch.
scripts/perf_ab.sh

echo "== golden fixtures under the release profile =="
# All golden reports and the golden trace fixture must be
# byte-identical to the checked-in files when built with the release
# profile too (the tier-1 suite runs them in the test profile).
cargo test -q --release --offline --test golden_reports | tail -n 2
cargo test -q --release --offline --test observability golden | tail -n 2
# Each published report under reports/ is a byte copy of its golden
# fixture, so a fixture regenerated without its copy fails here.
for golden in tests/golden/*.md; do
  report="reports/$(basename "${golden}")"
  if ! cmp -s "${golden}" "${report}"; then
    echo "${report} differs from ${golden}: copy the fixture to reports/" >&2
    exit 1
  fi
done

echo "== observability: trace determinism + overhead ceiling =="
# A traced run is a pure function of (seed, spec): the same scenario
# exported twice must produce byte-identical Chrome trace files. Note:
# APPLES_TOOLCHAIN / APPLES_GIT_REV are left unset here on purpose;
# golden fixtures bake in the "unrecorded" fallback, and stamping real
# values is an opt-in for humans.
"${XP[@]}" run smartnic --severity 0.5 --trace target/trace-a.json --ring 4096 > /dev/null
"${XP[@]}" run smartnic --severity 0.5 --trace target/trace-b.json --ring 4096 > /dev/null
if ! cmp -s target/trace-a.json target/trace-b.json; then
  echo "trace files differ across repeat runs: tracing leaked wall-clock state" >&2
  exit 1
fi
# Flamegraph export smoke: an observed run must exit 0 (its
# measurement byte-identical to the unobserved reference) and emit
# well-formed folded stacks — every line `frames... <integer>`, with
# the engine-phase root present.
"${XP[@]}" run cluster --profile target/prof.folded > /dev/null
if [ ! -s target/prof.folded ]; then
  echo "xp run --profile emitted an empty folded-stack file" >&2
  exit 1
fi
if grep -qvE '^[^ ]+ [0-9]+$' target/prof.folded; then
  echo "malformed folded-stack lines in target/prof.folded:" >&2
  grep -vE '^[^ ]+ [0-9]+$' target/prof.folded >&2
  exit 1
fi
grep -q '^engine;dispatch ' target/prof.folded
# The quick bench exits 1 on an identity break (fused vs unfused,
# observed vs unobserved) or a fused ratio below 0.85; --check-obs adds
# the diagnosis set's "cheap enough to leave on" budget (span profiler
# + sim-time metrics ring), so a hook-path regression fails CI (<5%,
# reports/obs_overhead.txt).
"${XP[@]}" bench --quick --out target/bench-obs.json \
  --check-obs reports/obs_overhead.txt > /dev/null

echo "== perfbench =="
# The benchmark (perfbench/, its own Cargo package) pins an output
# digest for each workload at its default and held-out seed. Its
# self-tests run first; then each workload runs one second per seed and
# must report every op correct, so any change to the simulated output of
# the three benchmarked deployments fails CI here.
cargo test -q --offline --manifest-path perfbench/Cargo.toml
for run in sim-cluster:71 sim-cluster:1071 sim-ips:17 sim-ips:1017 sim-faults:1 sim-faults:1001; do
  cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
    --workload "${run%%:*}" --seed "${run##*:}" --seconds 1 --trace 0 \
    | tail -n 1 | tee target/perfbench.json
  if ! grep -q '"correct": true' target/perfbench.json; then
    echo "perfbench ${run}: an op failed its checks (see the lines above)" >&2
    exit 1
  fi
done
# The traced path runs `Deployment::run_observed` with every observer
# piece off, checks its measurement bit for bit against the first op,
# and cross-checks the scheduler's push count and the fault plan's
# decisions. One traced run per workload, at its default seed.
for workload in sim-cluster sim-ips sim-faults; do
  cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
    --workload "${workload}" --seconds 1 --trace 1 \
    | tail -n 1 | tee target/perfbench-trace.json
  if ! grep -q '"correct": true' target/perfbench-trace.json \
    || ! grep -q '"failed": 0,' target/perfbench-trace.json; then
    echo "perfbench ${workload} --trace 1: an op failed its checks (see the lines above)" >&2
    exit 1
  fi
done

echo "== dependency hygiene: workspace members only =="
if cargo tree --offline -e normal --prefix none | grep -v '^apples' | grep -q '[^[:space:]]'; then
  echo "external crates found in cargo tree:" >&2
  cargo tree --offline -e normal --prefix none | grep -v '^apples' >&2
  exit 1
fi

echo "CI OK"
