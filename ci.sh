#!/usr/bin/env sh
# Full offline verification gate. The workspace has a zero-external-
# dependency policy, so everything here must succeed with no network
# access and a cold cargo cache.
set -eu

cd "$(dirname "$0")"

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test -q --offline"
cargo test -q --offline --workspace

echo "==> mdbs-lint (determinism/hermeticity policy, twice, byte-compared)"
# Exit 0 with nothing printed means a clean tree; any finding fails the
# gate. Running twice and byte-comparing both the text and the --json
# output asserts the lint's own determinism promise (the workspace pass,
# unregistered-metric, runs inside the same invocation, so it is covered
# by the same cmp).
LINT_DIR="${TMPDIR:-/tmp}/mdbs-ci-lint.$$"
mkdir -p "$LINT_DIR"
./target/release/mdbs-lint . --json "$LINT_DIR/first.json" > "$LINT_DIR/first.txt" || {
  echo "mdbs-lint found policy violations:" >&2
  cat "$LINT_DIR/first.txt" >&2
  rm -rf "$LINT_DIR"
  exit 1
}
./target/release/mdbs-lint . --json "$LINT_DIR/second.json" > "$LINT_DIR/second.txt"
cmp "$LINT_DIR/first.txt" "$LINT_DIR/second.txt"
cmp "$LINT_DIR/first.json" "$LINT_DIR/second.json"
./target/release/lint-json-check "$LINT_DIR/first.json"
rm -rf "$LINT_DIR"

echo "==> telemetry registry covers the serving-loop interface names"
# The committed registry must pin every serve.correction.* / serve.ledger.*
# name the correction and observability layers emit — the names the stats
# subcommand and the determinism gates key on.
for name in \
  serve.correction.applied serve.correction.cells serve.correction.escalations \
  serve.correction.evictions serve.correction.samples \
  serve.ledger.evictions "serve.ledger.\*"; do
  grep -q "^$name " crates/lint/telemetry.registry || {
    echo "telemetry.registry is missing \`$name\`" >&2
    exit 1
  }
done

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -- -D warnings -W clippy::or_fun_call"
cargo clippy --offline --workspace --all-targets -- -D warnings -W clippy::or_fun_call

echo "==> perfbench: cargo fmt --check + clippy -D warnings (its own workspace)"
# perfbench/ is a separate cargo workspace, so the two steps above never
# see it.
cargo fmt --manifest-path perfbench/Cargo.toml --check
cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings -W clippy::or_fun_call

echo "==> cargo doc --offline --no-deps (deny rustdoc warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "==> cargo test --examples (examples as tests)"
cargo test -q --offline --workspace --examples

echo "==> suffstats parity gate (Gram candidate scores vs the QR fit)"
# Redundant with the workspace test run above by design: the search scores
# every candidate from Gram blocks while the published model is the QR fit,
# and this suite is the contract that lets it — every candidate family the
# search scores, built as the search builds it, agrees with fit_cost_model
# — so it gets its own named gate that survives any future
# test-partitioning.
cargo test -q --offline -p mdbs-bench --test suffstats_parity

echo "==> block-diagonal solve parity gate (per-state solves vs the dense solves)"
# Redundant with the workspace test run by design: the general model is
# solved one contention state at a time, and this suite is the contract
# that lets it — the per-state Gram solve bit-identical to a verbatim copy
# of the dense k×k solve (Cholesky, QR fallback and singular systems), the
# per-state published fit within the C·m·ε·κ bound of the dense
# observation-space QR, and a one-state fit bit-identical to OlsFit::fit.
cargo test -q --offline -p mdbs-stats --test block_solve_parity

echo "==> pinned catalog digests (derived catalogs byte-identical to the pins)"
# Redundant with the workspace test run by design: two FNV-1a digests of
# six derived text catalogs (IUPMA/uniform, ICMA/clustered, the
# single-model path, an ICMA derivation that resamples thin clusters, and
# the two all-class catalogs whose join selections react most to search
# numerics) are pinned — one over every byte, one over everything but the coef/fit
# lines — so a change meant to leave derivation output alone proves it
# here, and a solver change that only moves low bits proves the states,
# variables and Gram blocks stayed put; the --jobs gates below only
# compare a build against itself.
cargo test -q --offline -p mdbs-cli --test catalog_digests

echo "==> bench --json smoke (fit_suffstats n=00100)"
BENCH_JSON="${TMPDIR:-/tmp}/mdbs-ci-bench.$$.json"
cargo bench -q --offline --bench fit_suffstats -- "n=00100" --json "$BENCH_JSON" > /dev/null
./target/release/bench-json-check "$BENCH_JSON"
rm -f "$BENCH_JSON"

echo "==> repro fig1 --quick --telemetry (JSONL smoke)"
# repro validates every telemetry line parses before writing and exits
# non-zero otherwise, so the exit status is the assertion; the file
# check below just guards against an accidentally empty stream.
TELEMETRY_SMOKE="${TMPDIR:-/tmp}/mdbs-ci-telemetry.jsonl"
./target/release/repro fig1 --quick --telemetry "$TELEMETRY_SMOKE" > /dev/null
test -s "$TELEMETRY_SMOKE"
rm -f "$TELEMETRY_SMOKE"

echo "==> repro parallel --quick (serial-vs-parallel identity)"
# The runner itself fails if any worker count's catalog diverges from the
# serial one.
./target/release/repro parallel --quick > /dev/null

echo "==> derive --jobs 1/2/8 -> byte-identical catalogs"
# Every class, so each site has jobs before its last one: publishing the
# batch fits only the last job's probe estimator; the others never do.
PAR_DIR="${TMPDIR:-/tmp}/mdbs-ci-parallel.$$"
mkdir -p "$PAR_DIR"
for j in 1 2 8; do
  ./target/release/mdbs-qcost derive --site all --class all --seed 7 \
    --jobs "$j" --out "$PAR_DIR/catalog-$j.txt" > /dev/null
done
cmp "$PAR_DIR/catalog-1.txt" "$PAR_DIR/catalog-2.txt"
cmp "$PAR_DIR/catalog-1.txt" "$PAR_DIR/catalog-8.txt"
rm -rf "$PAR_DIR"

echo "==> derive -> archive -> restore -> byte-identical catalogs (--jobs 1/2)"
# The versioned snapshot store round trip: the text catalog archived to
# the binary form and restored back must reproduce the original bytes
# exactly (Gram accumulator blocks included), independent of --jobs.
ARC_DIR="${TMPDIR:-/tmp}/mdbs-ci-archive.$$"
mkdir -p "$ARC_DIR"
for j in 1 2; do
  ./target/release/mdbs-qcost derive --site all --class g1 --seed 11 \
    --jobs "$j" --out "$ARC_DIR/catalog-$j.txt" > /dev/null
  ./target/release/mdbs-qcost archive --catalog "$ARC_DIR/catalog-$j.txt" \
    --dest "file:$ARC_DIR/catalog-$j.mdbc" > /dev/null
  ./target/release/mdbs-qcost restore --archive "file:$ARC_DIR/catalog-$j.mdbc" \
    --out "$ARC_DIR/restored-$j.txt" > /dev/null
  cmp "$ARC_DIR/catalog-$j.txt" "$ARC_DIR/restored-$j.txt"
done
# The binary archives themselves are byte-identical across worker counts.
cmp "$ARC_DIR/catalog-1.mdbc" "$ARC_DIR/catalog-2.mdbc"
rm -rf "$ARC_DIR"

echo "==> catalog snapshot store gate (round trips, corruption, seeded loader sweep)"
# Redundant with the workspace test run by design: text -> binary -> text
# byte identity of a derived catalog, typed errors (no panic) for
# truncated, mis-versioned and wrongly framed files, and a seeded sweep
# of 10k binary byte flips and 10k text mutations pushed from load to
# estimate without a panic or an abort, are the store's contract, so it
# keeps its own named gate.
cargo test -q --offline -p mdbs-bench --test catalog_store

echo "==> serve (batch) --jobs 1/2/8 -> byte-identical rows through the loop engine"
# Batch serve is a t=0 trace through the same server as --loop. The
# committed file mixes answered lines for both sites with a no-model
# class, a malformed line and an unknown site; every --jobs value must
# render the same bytes, with answered and ERROR rows inline.
BATCH_DIR="${TMPDIR:-/tmp}/mdbs-ci-batch.$$"
mkdir -p "$BATCH_DIR"
./target/release/mdbs-qcost derive --site all --class g1 --seed 7 \
  --out "$BATCH_DIR/catalog.txt" > /dev/null
for j in 1 2 8; do
  ./target/release/mdbs-qcost serve --catalog "$BATCH_DIR/catalog.txt" \
    --queries examples/serve_batch.queries --seed 7 --jobs "$j" \
    > "$BATCH_DIR/out-$j.txt"
done
cmp "$BATCH_DIR/out-1.txt" "$BATCH_DIR/out-2.txt"
cmp "$BATCH_DIR/out-1.txt" "$BATCH_DIR/out-8.txt"
grep -q -- "-> estimate .* \[v[0-9]* S[0-9]*\]$" "$BATCH_DIR/out-1.txt"
grep -q " ERROR: " "$BATCH_DIR/out-1.txt"
rm -rf "$BATCH_DIR"

echo "==> serve --loop --jobs 1/2/8 -> byte-identical report + stripped telemetry"
SERVE_DIR="${TMPDIR:-/tmp}/mdbs-ci-serve.$$"
mkdir -p "$SERVE_DIR"
./target/release/mdbs-qcost derive --site oracle --class g1 --seed 7 \
  --out "$SERVE_DIR/catalog.txt" > /dev/null
for j in 1 2 8; do
  # Once without telemetry: reports must be byte-identical. Once with:
  # after strip-telemetry removes wall_ms and pool.sched.* scheduling
  # metrics, the JSONL streams must be byte-identical too.
  ./target/release/mdbs-qcost serve --loop --catalog "$SERVE_DIR/catalog.txt" \
    --trace examples/serve_loop.trace --queue 4 --batch 2 --batch-delay 0.05 \
    --service-cost 0.2 --deadline 0.5 --refit 20 --drift-window 20 \
    --drift-min 8 --drift-fraction 0.65 --seed 7 --jobs "$j" \
    > "$SERVE_DIR/out-$j.txt"
  ./target/release/mdbs-qcost serve --loop --catalog "$SERVE_DIR/catalog.txt" \
    --trace examples/serve_loop.trace --queue 4 --batch 2 --batch-delay 0.05 \
    --service-cost 0.2 --deadline 0.5 --refit 20 --drift-window 20 \
    --drift-min 8 --drift-fraction 0.65 --seed 7 --jobs "$j" \
    --heartbeat 10 --flight-recorder "$SERVE_DIR/flight-$j.jsonl" \
    --report-json "$SERVE_DIR/report-$j.json" \
    --telemetry "$SERVE_DIR/tel.jsonl" > /dev/null
  ./target/release/strip-telemetry "$SERVE_DIR/tel.jsonl" > "$SERVE_DIR/tel-$j.txt"
  ./target/release/strip-telemetry "$SERVE_DIR/flight-$j.jsonl" \
    > "$SERVE_DIR/flight-$j.txt"
done
cmp "$SERVE_DIR/out-1.txt" "$SERVE_DIR/out-2.txt"
cmp "$SERVE_DIR/out-1.txt" "$SERVE_DIR/out-8.txt"
cmp "$SERVE_DIR/tel-1.txt" "$SERVE_DIR/tel-2.txt"
cmp "$SERVE_DIR/tel-1.txt" "$SERVE_DIR/tel-8.txt"
# Flight records carry no wall-clock at all, so the dumps must already be
# byte-identical across worker counts after the strip pass.
cmp "$SERVE_DIR/flight-1.txt" "$SERVE_DIR/flight-2.txt"
cmp "$SERVE_DIR/flight-1.txt" "$SERVE_DIR/flight-8.txt"
cmp "$SERVE_DIR/report-1.json" "$SERVE_DIR/report-2.json"
cmp "$SERVE_DIR/report-1.json" "$SERVE_DIR/report-8.json"
# The committed trace must exercise both online-maintenance paths while
# still answering requests.
grep -q "incremental refit" "$SERVE_DIR/out-1.txt"
grep -q "rederived" "$SERVE_DIR/out-1.txt"
grep -q "answered" "$SERVE_DIR/out-1.txt"

echo "==> serve --loop observability (heartbeats, ledger, stats round-trip)"
# The 58s committed trace at 10s virtual heartbeats must beat at least
# twice, and the accuracy ledger must populate in the human report.
HB_COUNT=$(grep -c '"kind":"heartbeat"' "$SERVE_DIR/flight-1.jsonl")
test "$HB_COUNT" -ge 2
grep -q "accuracy ledger" "$SERVE_DIR/out-1.txt"
grep -q '"ledger":\[{' "$SERVE_DIR/report-1.json"
# `stats` strictly re-parses every line of both JSONL streams through the
# workspace's own JSON reader, so a clean run is schema validation.
./target/release/mdbs-qcost stats "$SERVE_DIR/tel.jsonl" > "$SERVE_DIR/stats-tel.txt"
grep -q "heartbeats:" "$SERVE_DIR/stats-tel.txt"
grep -q "accuracy ledger" "$SERVE_DIR/stats-tel.txt"
./target/release/mdbs-qcost stats "$SERVE_DIR/flight-1.jsonl" \
  > "$SERVE_DIR/stats-flight.txt"
grep -q "flight records by kind:" "$SERVE_DIR/stats-flight.txt"

echo "==> serve --loop --correction (drift trace: corrected p50 beats uncorrected)"
# The committed drift trace degrades the site 4x mid-run. The corrected
# replay must stay byte-identical at every --jobs, apply corrections, and
# land a strictly lower pooled ledger p50 |relative error| than the same
# replay with the correction layer off.
for j in 1 2 8; do
  # The report-json path echoes into stdout, so the byte-compared runs
  # skip it; a separate jobs-2 run below captures the report (which the
  # in-repo tests pin as jobs-independent).
  ./target/release/mdbs-qcost serve --loop --catalog "$SERVE_DIR/catalog.txt" \
    --trace examples/serve_drift.trace --refit 500 --drift-window 20 \
    --drift-min 10 --drift-fraction 0.5 --seed 7 --jobs "$j" --correction \
    > "$SERVE_DIR/corr-out-$j.txt"
done
cmp "$SERVE_DIR/corr-out-1.txt" "$SERVE_DIR/corr-out-2.txt"
cmp "$SERVE_DIR/corr-out-1.txt" "$SERVE_DIR/corr-out-8.txt"
grep -q "correction:" "$SERVE_DIR/corr-out-1.txt"
./target/release/mdbs-qcost serve --loop --catalog "$SERVE_DIR/catalog.txt" \
  --trace examples/serve_drift.trace --refit 500 --drift-window 20 \
  --drift-min 10 --drift-fraction 0.5 --seed 7 --jobs 2 --correction \
  --report-json "$SERVE_DIR/corr-report.json" > /dev/null
./target/release/mdbs-qcost serve --loop --catalog "$SERVE_DIR/catalog.txt" \
  --trace examples/serve_drift.trace --refit 500 --drift-window 20 \
  --drift-min 10 --drift-fraction 0.5 --seed 7 --jobs 2 \
  --report-json "$SERVE_DIR/plain-report.json" > /dev/null
CORR_P50=$(grep -o '"ledger_p50_abs_rel_err":[0-9.eE+-]*' \
  "$SERVE_DIR/corr-report.json" | cut -d: -f2)
PLAIN_P50=$(grep -o '"ledger_p50_abs_rel_err":[0-9.eE+-]*' \
  "$SERVE_DIR/plain-report.json" | cut -d: -f2)
CORR_APPLIED=$(grep -o '"corrections_applied":[0-9]*' \
  "$SERVE_DIR/corr-report.json" | cut -d: -f2)
test "$CORR_APPLIED" -gt 0
awk -v on="$CORR_P50" -v off="$PLAIN_P50" 'BEGIN {
  if (!(on + 0 < off + 0)) {
    printf "correction gate failed: corrected p50 %s !< uncorrected p50 %s\n", on, off
    exit 1
  }
  printf "correction gate: corrected p50 %s < uncorrected p50 %s\n", on, off
}'

echo "==> serve --loop heartbeat coalescing (far-future trace, bounded output)"
# Two requests a million virtual seconds apart at a 1s heartbeat: the loop
# beats at most once per clock advance, so this finishes at once with a
# handful of heartbeats instead of one per crossed tick.
printf '@0 request oracle select a1 from R2 where a2 < 100\n@1000000 request oracle select a1 from R2 where a2 < 100\n' \
  > "$SERVE_DIR/far.trace"
timeout 20 ./target/release/mdbs-qcost serve --loop --catalog "$SERVE_DIR/catalog.txt" \
  --trace "$SERVE_DIR/far.trace" --heartbeat 1 \
  --flight-recorder "$SERVE_DIR/far-flight.jsonl" > /dev/null
FAR_BEATS=$(grep -c '"kind":"heartbeat"' "$SERVE_DIR/far-flight.jsonl" || true)
FAR_ANSWERED=$(grep -c '"outcome":"answered"' "$SERVE_DIR/far-flight.jsonl" || true)
test "$FAR_BEATS" -le 3
test "$FAR_ANSWERED" -eq 2
rm -rf "$SERVE_DIR"

echo "==> trace fuzz gate (seeded trace mutations, release build)"
# Redundant with the workspace test run by design: no trace input may
# panic the parser or the serving loop, and every request line must end
# in exactly one outcome, so the sweep keeps its own named gate.
cargo test -q --offline --release -p mdbs-bench --test trace_fuzz

echo "==> SQL fuzz gate (seeded to_sql mutations, debug build)"
# Redundant with the workspace test run by design: no SQL text may panic
# the parser, and every mutation of a rendered sample query (prefix cuts,
# byte flips, token edits; 12k cases, well under a second in debug) must
# end in a typed SqlError or a query that classifies.
cargo test -q --offline -p mdbs-bench --test sql_fuzz

echo "==> JSON fuzz gate (seeded stats re-parse mutations, debug build)"
# Redundant with the workspace test run by design: no line of a telemetry
# or flight-recorder file may panic or overflow the stack of the JSON
# reader or `stats`, and every mutation of a rendered record (prefix cuts,
# byte flips, bracket runs up to 100k deep; over 10k cases, under a
# second in debug) must end in a typed error or a parsed record.
cargo test -q --offline -p mdbs-cli --test json_fuzz

echo "==> bench --json smoke (catalog_store size/load criteria)"
# The bench self-asserts the binary format's acceptance criteria: >= 3x
# smaller and >= 5x faster to load than the text catalog at 2 vendors x
# 3 classes with accumulators.
CAT_BENCH_JSON="${TMPDIR:-/tmp}/mdbs-ci-catalog-bench.$$.json"
cargo bench -q --offline --bench catalog_store -- --json "$CAT_BENCH_JSON" > /dev/null
./target/release/bench-json-check "$CAT_BENCH_JSON"
rm -f "$CAT_BENCH_JSON"

echo "==> perfbench: both workloads, end to end and traced (exit 0, \"correct\":true)"
# perfbench's output checks (catalogs byte-identical at --jobs 1 and 2,
# archive -> restore round trips, replay answers against a shadow pass,
# the traced layer table's self time) run only when perfbench runs, so a
# one-second run of each workload in both modes keeps them in the gate. A
# failed check exits non-zero; the last stdout line is the JSON verdict.
PB_OUT="${TMPDIR:-/tmp}/mdbs-ci-perfbench.$$.txt"
for workload in serve_drift derive_catalog; do
  for trace in 0 1; do
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
      --workload "$workload" --seed 1 --seconds 1 --trace "$trace" > "$PB_OUT"
    tail -n 1 "$PB_OUT" | grep -q '"correct":true' || {
      echo "perfbench $workload --trace $trace did not report \"correct\":true:" >&2
      tail -n 1 "$PB_OUT" >&2
      rm -f "$PB_OUT"
      exit 1
    }
  done
done
rm -f "$PB_OUT"

echo "==> ci.sh: all checks passed"
