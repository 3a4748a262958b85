#!/usr/bin/env bash
# CI gate: build, full test suite, then prove the determinism contract
# end-to-end by diffing repro output between a serial (HPCFAIL_THREADS=1)
# and a parallel (HPCFAIL_THREADS=8) run, smoke-run the fit and trace
# benchmark suites, and check the recorded bench numbers parse.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo build --workspace --release"
cargo build --workspace --release

# Every target, tests included, must compile without a warning, so a
# helper whose last caller goes away fails the gate instead of lingering.
# Its own target dir keeps the release cache above warm.
echo "==> cargo check --workspace --all-targets, warnings denied"
RUSTFLAGS="-D warnings" CARGO_TARGET_DIR=target/deny-warnings \
    cargo check --offline --workspace --all-targets

echo "==> cargo test --workspace (release)"
cargo test --workspace --release -q

# The benchmark package lives outside the workspace and calls the
# crates' public API; its self-tests fail to build if that API loses a
# name the benchmark uses.
echo "==> benchmark harness self-tests (perfbench)"
cargo test --offline --manifest-path perfbench/Cargo.toml

echo "==> determinism suite, HPCFAIL_THREADS=1"
HPCFAIL_THREADS=1 cargo test --release -q -p hpcfail --test parallel_determinism

echo "==> determinism suite, HPCFAIL_THREADS=8"
HPCFAIL_THREADS=8 cargo test --release -q -p hpcfail --test parallel_determinism

echo "==> repro harness serial-vs-parallel diff"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
HPCFAIL_THREADS=1 cargo run --release -q -p hpcfail-bench --bin repro > "$tmpdir/repro_t1.txt"
HPCFAIL_THREADS=8 cargo run --release -q -p hpcfail-bench --bin repro > "$tmpdir/repro_t8.txt"
if ! diff -u "$tmpdir/repro_t1.txt" "$tmpdir/repro_t8.txt"; then
    echo "FAIL: repro output differs between 1 and 8 workers" >&2
    exit 1
fi
echo "OK: repro output byte-identical across worker counts"

echo "==> repro output vs committed experiments/repro_output.txt"
if ! diff -u experiments/repro_output.txt "$tmpdir/repro_t1.txt"; then
    echo "FAIL: fresh repro run differs from the committed golden output." >&2
    echo "      The fit kernels (DESIGN.md §13) and every other fit-path" >&2
    echo "      change must stay bit-identical; if a drift is intentional," >&2
    echo "      re-record with: cargo run --release -p hpcfail-bench --bin repro" >&2
    exit 1
fi
echo "OK: fresh repro output byte-identical to the committed golden"

echo "==> repro via packed .hpct round trip vs committed golden"
cargo run --release -q -p hpcfail-bench --bin repro -- --packed > "$tmpdir/repro_packed.txt"
if ! diff -u experiments/repro_output.txt "$tmpdir/repro_packed.txt"; then
    echo "FAIL: repro run off a packed trace store differs from the golden." >&2
    echo "      The binary store (DESIGN.md §14) must reproduce the index" >&2
    echo "      element-identically; a drift here means pack/load is lossy." >&2
    exit 1
fi
echo "OK: repro --packed (pack -> checked load) byte-identical to the golden"

echo "==> examples vs committed experiments/example_*.txt goldens"
for src in examples/*.rs; do
    example="$(basename "$src" .rs)"
    cargo run --release -q -p hpcfail --example "$example" > "$tmpdir/example_$example.txt"
    if ! diff -u "experiments/example_$example.txt" "$tmpdir/example_$example.txt"; then
        echo "FAIL: example $example differs from experiments/example_$example.txt." >&2
        echo "      If the drift is intentional, re-record with:" >&2
        echo "      cargo run --release -p hpcfail --example $example > experiments/example_$example.txt" >&2
        exit 1
    fi
done
echo "OK: every example's output byte-identical to its golden"

echo "==> ingest robustness suite (corruptor sweep, conservation, repair idempotence)"
cargo test --release -q -p hpcfail --test ingest_robustness

echo "==> CLI quality smoke (lenient ingest + audit + repair on a dirty trace)"
good="20,22,110000000,110021600,compute,memory"
printf '%s\n%s\nnot,a,row\n20,22,110021600,110000000,compute,memory\n' \
    "$good" "$good" > "$tmpdir/dirty.csv"
cargo run --release -q -p hpcfail-cli --bin hpcfail -- \
    quality "$tmpdir/dirty.csv" --repair --out "$tmpdir/fixed.csv" > "$tmpdir/quality.txt"
grep -q "conserved: true" "$tmpdir/quality.txt" || {
    echo "FAIL: quality smoke did not report row conservation" >&2
    cat "$tmpdir/quality.txt" >&2
    exit 1
}
grep -q "repair:" "$tmpdir/quality.txt" || {
    echo "FAIL: quality smoke did not run the repair passes" >&2
    exit 1
}
test -s "$tmpdir/fixed.csv" || {
    echo "FAIL: quality --out wrote no repaired trace" >&2
    exit 1
}
echo "OK: quality subcommand quarantines, audits, and repairs"

echo "==> CLI pack smoke (CSV -> .hpct -> sniffed readers, corruption rejected)"
cargo run --release -q -p hpcfail-cli --bin hpcfail -- \
    generate --system 20 --seed 42 --out "$tmpdir/sys20.csv" > /dev/null
cargo run --release -q -p hpcfail-cli --bin hpcfail -- \
    pack "$tmpdir/sys20.csv" --out "$tmpdir/sys20.hpct" > "$tmpdir/pack.txt"
grep -q "packed" "$tmpdir/pack.txt" || {
    echo "FAIL: pack did not report a packed store" >&2
    cat "$tmpdir/pack.txt" >&2
    exit 1
}
cargo run --release -q -p hpcfail-cli --bin hpcfail -- \
    summary "$tmpdir/sys20.csv" > "$tmpdir/summary_csv.txt"
cargo run --release -q -p hpcfail-cli --bin hpcfail -- \
    summary "$tmpdir/sys20.hpct" > "$tmpdir/summary_hpct.txt"
if ! diff -u "$tmpdir/summary_csv.txt" "$tmpdir/summary_hpct.txt"; then
    echo "FAIL: summary differs between the CSV and its packed store" >&2
    exit 1
fi
# A bit-flipped store must be rejected with a typed error, not loaded.
python3 - "$tmpdir/sys20.hpct" "$tmpdir/broken.hpct" <<'EOF'
import sys
data = bytearray(open(sys.argv[1], "rb").read())
data[len(data) // 2] ^= 0x10
open(sys.argv[2], "wb").write(bytes(data))
EOF
if cargo run --release -q -p hpcfail-cli --bin hpcfail -- \
    summary "$tmpdir/broken.hpct" > /dev/null 2>"$tmpdir/broken.err"; then
    echo "FAIL: a bit-flipped .hpct loaded instead of failing typed" >&2
    exit 1
fi
grep -qi "checksum\|truncated\|malformed\|magic\|version" "$tmpdir/broken.err" || {
    echo "FAIL: corrupted-store rejection did not name a typed store error" >&2
    cat "$tmpdir/broken.err" >&2
    exit 1
}
cargo run --release -q -p hpcfail-cli --bin hpcfail -- \
    quality "$tmpdir/dirty.csv" --repair --out "$tmpdir/fixed.hpct" --pack \
    > "$tmpdir/quality_pack.txt"
grep -q "packed" "$tmpdir/quality_pack.txt" || {
    echo "FAIL: quality --pack did not report a packed store" >&2
    cat "$tmpdir/quality_pack.txt" >&2
    exit 1
}
cargo run --release -q -p hpcfail-cli --bin hpcfail -- \
    summary "$tmpdir/fixed.hpct" > /dev/null
# The converters sniff a packed input too: quality reports and repairs
# the store exactly like its CSV, pack reproduces it byte for byte, and
# import-lanl unpacks it to the generated CSV.
for input in csv hpct; do
    cargo run --release -q -p hpcfail-cli --bin hpcfail -- \
        quality "$tmpdir/sys20.$input" --repair --out "$tmpdir/repaired_$input.csv" \
        | sed "s|$tmpdir/repaired_$input.csv|OUT|" > "$tmpdir/quality_$input.txt"
done
if ! diff -u "$tmpdir/quality_csv.txt" "$tmpdir/quality_hpct.txt"; then
    echo "FAIL: quality reports a packed store differently from its CSV" >&2
    exit 1
fi
cmp "$tmpdir/repaired_csv.csv" "$tmpdir/repaired_hpct.csv" || {
    echo "FAIL: quality --repair wrote different traces for a store and its CSV" >&2
    exit 1
}
cargo run --release -q -p hpcfail-cli --bin hpcfail -- \
    pack "$tmpdir/sys20.hpct" --out "$tmpdir/repacked.hpct" > /dev/null
cmp "$tmpdir/sys20.hpct" "$tmpdir/repacked.hpct" || {
    echo "FAIL: repacking a .hpct store changed its bytes" >&2
    exit 1
}
cargo run --release -q -p hpcfail-cli --bin hpcfail -- \
    import-lanl "$tmpdir/sys20.hpct" --out "$tmpdir/unpacked.csv" > /dev/null
cmp "$tmpdir/sys20.csv" "$tmpdir/unpacked.csv" || {
    echo "FAIL: import-lanl of a .hpct store differs from the generated CSV" >&2
    exit 1
}
echo "OK: pack round-trips through every sniffed reader and converter and rejects corruption typed"

echo "==> CLI output into a closed pipe"
# A reader that stops early ends the output; it must not panic the CLI.
# The second reader exits before the command writes, so the write
# always meets a closed pipe.
for reader in "head -1" "true"; do
    cargo run --release -q -p hpcfail-cli --bin hpcfail -- \
        validate --seed 42 2> "$tmpdir/pipe.err" | $reader > /dev/null
    if [ -s "$tmpdir/pipe.err" ]; then
        echo "FAIL: hpcfail validate | $reader wrote to stderr" >&2
        cat "$tmpdir/pipe.err" >&2
        exit 1
    fi
done
echo "OK: a closed stdout ends the output quietly"

echo "==> CLI summary and validate vs committed experiments/cli_*.txt goldens"
diff_cli_golden() { # golden, fresh-output, re-record command
    if ! diff -u "$1" "$2"; then
        echo "FAIL: $2 differs from $1." >&2
        echo "      If the drift is intentional, re-record with:" >&2
        echo "      $3 > $1" >&2
        exit 1
    fi
}
diff_cli_golden experiments/cli_summary_sys20.txt "$tmpdir/summary_csv.txt" \
    "cargo run --release -p hpcfail-cli --bin hpcfail -- generate --seed 42 --system 20 --out sys20.csv && cargo run --release -p hpcfail-cli --bin hpcfail -- summary sys20.csv"
cargo run --release -q -p hpcfail-cli --bin hpcfail -- \
    validate --seed 42 > "$tmpdir/validate.txt"
diff_cli_golden experiments/cli_validate_seed42.txt "$tmpdir/validate.txt" \
    "cargo run --release -p hpcfail-cli --bin hpcfail -- validate --seed 42"
echo "OK: summary and validate byte-identical to their goldens"

echo "==> serve test battery (integration, cache, http proptests, determinism)"
cargo test --release -q -p hpcfail --test serve_integration
cargo test --release -q -p hpcfail --test serve_cache
cargo test --release -q -p hpcfail --test serve_http_proptests
HPCFAIL_THREADS=1 cargo test --release -q -p hpcfail --test serve_determinism
HPCFAIL_THREADS=8 cargo test --release -q -p hpcfail --test serve_determinism

echo "==> serve chaos suite (seeded socket-fault sweep: sheds bounded, answers byte-identical, drain leaks nothing)"
cargo test --release -q -p hpcfail --test serve_chaos

echo "==> serve smoke (boot on an ephemeral port, probe, shut down)"
cargo run --release -q -p hpcfail-cli --bin hpcfail -- \
    serve --synth 42 --system 20 --port 0 > "$tmpdir/serve.out" 2>&1 &
serve_pid=$!
serve_url=""
for _ in $(seq 1 50); do
    serve_url="$(sed -n 's|.*listening on \(http://[0-9.:]*\).*|\1|p' "$tmpdir/serve.out")"
    [ -n "$serve_url" ] && break
    sleep 0.2
done
if [ -z "$serve_url" ]; then
    echo "FAIL: serve never announced its bound port" >&2
    cat "$tmpdir/serve.out" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
probe() {
    # Tiny HTTP client: curl is not guaranteed in the image.
    python3 - "$1" <<'EOF'
import sys, urllib.request
with urllib.request.urlopen(sys.argv[1], timeout=10) as resp:
    body = resp.read().decode()
    assert resp.status == 200, resp.status
    assert body.startswith("{"), body[:80]
    print(body[:120])
EOF
}
probe "$serve_url/healthz"
probe "$serve_url/v1/synth/tbf?view=pooled"
# Graceful shutdown over the signal path: POST /v1/shutdown drains
# in-flight work and the process exits on its own — no kill needed.
python3 - "$serve_url/v1/shutdown" <<'EOF'
import sys, urllib.request
req = urllib.request.Request(sys.argv[1], data=b"", method="POST")
with urllib.request.urlopen(req, timeout=10) as resp:
    assert resp.status == 200, resp.status
    assert b"draining" in resp.read(), "shutdown must acknowledge the drain"
EOF
for _ in $(seq 1 50); do
    kill -0 "$serve_pid" 2>/dev/null || break
    sleep 0.2
done
if kill -0 "$serve_pid" 2>/dev/null; then
    echo "FAIL: serve did not exit after POST /v1/shutdown" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
wait "$serve_pid" 2>/dev/null || true
grep -q "drained and stopped" "$tmpdir/serve.out" || {
    echo "FAIL: serve exited without announcing a clean drain" >&2
    cat "$tmpdir/serve.out" >&2
    exit 1
}
echo "OK: serve boots, answers /healthz and a stratified analysis, and drains cleanly on POST /v1/shutdown"

echo "==> serve load-harness numbers (experiments/BENCH_serve.json)"
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json
with open("experiments/BENCH_serve.json") as f:
    doc = json.load(f)
rows = doc["rows"]
steady = {row["clients"] for row in rows if row["phase"] == "steady"}
assert steady == {1, 8, 64}, f"steady rows must cover 1/8/64 clients: {steady}"
reload_rows = [row for row in rows if row["phase"] == "reload"]
assert reload_rows and reload_rows[0]["reloads"] >= 1, "need a mid-run reload row"
for row in rows:
    fields = ("p50_ms", "p95_ms", "p99_ms")
    if row["phase"] != "chaos":
        fields += ("req_per_sec",)
    for field in fields:
        assert row[field] > 0, f"{row['phase']}: bad {field}"
chaos = [row for row in rows if row["phase"] == "chaos"]
assert len(chaos) >= 3, f"need degraded-mode (chaos) rows, got {len(chaos)}"
mixes = {row["mix"] for row in chaos}
assert {"uniform", "trickle_heavy", "flood_heavy"} <= mixes, f"chaos mixes: {mixes}"
for row in chaos:
    assert row["mode"] == "degraded", row
    assert 0 < row["fault_rate"] <= 1, row
    assert row["faults"] > 0, f"chaos/{row['mix']}: no faults injected"
    assert row["controls"] > 0, f"chaos/{row['mix']}: no clean controls measured"
    # Degraded-mode floor: even under a 70% fault storm, at least half
    # of the clean requests must succeed on the first try (and the bin
    # itself asserts every one succeeds within its retry budget).
    assert row["availability"] >= 0.5, \
        f"chaos/{row['mix']}: first-try availability {row['availability']}"
rate = doc["cache"]["hit_rate"]
assert rate >= 0.95, f"recorded cache hit rate below the 95% floor: {rate}"
worst = min(row["availability"] for row in chaos)
print(f"OK: BENCH_serve.json parses; hit rate {rate:.3f}, "
      f"{len(rows)} phase rows incl. reload ({reload_rows[0]['reloads']} reloads) "
      f"and {len(chaos)} degraded-mode rows (worst availability {worst:.3f})")
EOF
else
    grep -q '"hit_rate"' experiments/BENCH_serve.json
    echo "OK: BENCH_serve.json present (python3 unavailable, skipped value check)"
fi
echo "    (re-record with: cargo run -p hpcfail-bench --release --bin serve_load)"

echo "==> scenario robustness suite (panic isolation, parser totality, journal corruption, determinism)"
cargo test --release -q -p hpcfail --test scenario_robustness

echo "==> scenario plan smoke on the bundled campaign"
spec="experiments/scenarios/lanl_whatif.toml"
cargo run --release -q -p hpcfail-cli --bin hpcfail -- \
    scenario plan "$spec" > "$tmpdir/plan.txt"
grep -q "cells         1296" "$tmpdir/plan.txt" || {
    echo "FAIL: bundled campaign no longer expands to 1296 cells" >&2
    cat "$tmpdir/plan.txt" >&2
    exit 1
}
echo "OK: scenario plan validates and expands the bundled spec"

echo "==> scenario run serial-vs-parallel diff (bundled 1296-cell campaign)"
# The bundled campaign deliberately contains degraded projection cells,
# so a successful run exits 3 (completed with degradations) — capture
# the code instead of letting set -e kill the gate.
run_campaign() { # threads, out-file
    local rc=0
    HPCFAIL_THREADS="$1" cargo run --release -q -p hpcfail-cli --bin hpcfail -- \
        scenario run "$spec" --out "$2" > "$tmpdir/scenario_run.log" 2>&1 || rc=$?
    if [ "$rc" -ne 3 ]; then
        echo "FAIL: scenario run exited $rc (want 3: completed with degradations)" >&2
        cat "$tmpdir/scenario_run.log" >&2
        exit 1
    fi
}
run_campaign 1 "$tmpdir/campaign_t1.txt"
run_campaign 8 "$tmpdir/campaign_t8.txt"
if ! diff -u "$tmpdir/campaign_t1.txt" "$tmpdir/campaign_t8.txt"; then
    echo "FAIL: campaign results differ between 1 and 8 workers" >&2
    exit 1
fi
grep -q "degraded \[invalid-composition\]" "$tmpdir/campaign_t1.txt" || {
    echo "FAIL: bundled campaign lost its designed degradation rows" >&2
    exit 1
}
echo "OK: 1296-cell campaign byte-identical across worker counts, exit code 3 as designed"

# The committed golden of the bundled campaign: a re-record command for
# when a drift is intentional (the run leaves a journal beside the output).
campaign_golden="experiments/scenario_lanl_whatif.txt"
diff_campaign_golden() { # out-file, what
    if ! diff -u "$campaign_golden" "$1"; then
        echo "FAIL: $2 differs from the committed $campaign_golden." >&2
        echo "      If the drift is intentional, re-record with:" >&2
        echo "      cargo run --release -p hpcfail-cli --bin hpcfail -- scenario run $spec \\" >&2
        echo "          --out $campaign_golden && rm $campaign_golden.journal" >&2
        exit 1
    fi
}
echo "==> scenario run vs committed $campaign_golden"
diff_campaign_golden "$tmpdir/campaign_t1.txt" "the 1-worker campaign run"
echo "OK: bundled campaign byte-identical to its committed golden"

echo "==> scenario kill-mid-run + --resume byte-identical check"
rm -f "$tmpdir/resumed.txt" "$tmpdir/resumed.txt.journal"
HPCFAIL_THREADS=8 cargo run --release -q -p hpcfail-cli --bin hpcfail -- \
    scenario run "$spec" --out "$tmpdir/resumed.txt" > /dev/null 2>&1 &
campaign_pid=$!
# The whole campaign takes ~2 s on a 2-core host; kill it about a third of the way in.
sleep 0.5
kill -9 "$campaign_pid" 2>/dev/null || true
wait "$campaign_pid" 2>/dev/null || true
if [ -f "$tmpdir/resumed.txt" ]; then
    echo "WARN: the campaign finished before the kill; --resume replays a complete journal" >&2
fi
test -f "$tmpdir/resumed.txt.journal" || {
    echo "FAIL: killed campaign left no journal to resume from" >&2
    exit 1
}
rc=0
HPCFAIL_THREADS=8 cargo run --release -q -p hpcfail-cli --bin hpcfail -- \
    scenario run "$spec" --out "$tmpdir/resumed.txt" --resume \
    > "$tmpdir/resume.log" 2>&1 || rc=$?
if [ "$rc" -ne 3 ]; then
    echo "FAIL: resumed campaign exited $rc (want 3)" >&2
    cat "$tmpdir/resume.log" >&2
    exit 1
fi
if ! diff -u "$tmpdir/campaign_t1.txt" "$tmpdir/resumed.txt"; then
    echo "FAIL: killed-and-resumed campaign differs from an uninterrupted run" >&2
    exit 1
fi
diff_campaign_golden "$tmpdir/resumed.txt" "the killed-and-resumed campaign"
echo "OK: SIGKILL mid-campaign + --resume reproduces the uninterrupted output byte-identically"

echo "==> scenario poisoned-spec smoke (chaos cells degrade, campaign survives)"
{ cat "$spec"; printf '\n[chaos]\npanic_cells = [0, 7, 650]\n'; } > "$tmpdir/poisoned.toml"
rc=0
cargo run --release -q -p hpcfail-cli --bin hpcfail -- \
    scenario run "$tmpdir/poisoned.toml" --out "$tmpdir/poisoned.txt" \
    > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 3 ]; then
    echo "FAIL: poisoned campaign exited $rc (want 3)" >&2
    exit 1
fi
grep -q "degraded \[panic\]" "$tmpdir/poisoned.txt" || {
    echo "FAIL: poisoned cells did not surface as panic-degraded rows" >&2
    exit 1
}
poisoned_rows="$(grep -c "degraded \[panic\]" "$tmpdir/poisoned.txt")"
if [ "$poisoned_rows" -ne 3 ]; then
    echo "FAIL: expected exactly 3 panic-degraded rows, got $poisoned_rows" >&2
    exit 1
fi
echo "OK: poisoned cells degrade in isolation while 1293 siblings settle"

echo "==> scenario benchmark suite smoke run (--test mode: each bench once, untimed)"
cargo bench -q -p hpcfail-bench --bench scenario_bench -- --test

echo "==> recorded scenario-bench numbers (experiments/BENCH_scenario.json)"
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json
with open("experiments/BENCH_scenario.json") as f:
    doc = json.load(f)
group = doc["groups"]["scenario_bench"]
results = group["results"]
for workers in ("1", "8"):
    assert results["campaign_24_cells"][workers] > 0, \
        f"campaign_24_cells/{workers} missing or bad"
for key in ("parse_bundled_spec", "expand_1296_cells", "journaled_campaign_24_cells"):
    assert results[key] > 0, f"{key} missing or bad"
cells = group["cells_per_sec"]
for workers in ("1", "8"):
    assert cells[workers] >= 100.0, \
        f"campaign throughput at {workers} workers below the 100 cells/sec floor: {cells[workers]}"
# Journaling (checksummed frames + fsync per wave) must stay cheap:
# within 25% of the unjournaled 8-worker campaign.
overhead = results["journaled_campaign_24_cells"] / results["campaign_24_cells"]["8"]
assert overhead <= 1.25, f"journal overhead {overhead:.2f}x exceeds the 1.25x ceiling"
print(f"OK: BENCH_scenario.json parses; {cells['1']} cells/sec serial, "
      f"{cells['8']} at 8 workers, journal overhead {overhead:.2f}x")
EOF
else
    grep -q '"cells_per_sec"' experiments/BENCH_scenario.json
    echo "OK: BENCH_scenario.json present (python3 unavailable, skipped value check)"
fi
echo "    (re-record with: cargo bench -p hpcfail-bench --bench scenario_bench)"

echo "==> fit benchmark suite smoke run (--test mode: each bench once, untimed)"
cargo bench -q -p hpcfail-bench --bench fit_bench -- --test

echo "==> trace query benchmark suite smoke run (--test mode: each bench once, untimed)"
cargo bench -q -p hpcfail-bench --bench trace_bench -- --test

echo "==> recorded fit-bench numbers (experiments/BENCH_fit.json)"
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json
with open("experiments/BENCH_fit.json") as f:
    doc = json.load(f)
ratio = doc["groups"]["paper_set_rank"]["speedup_at_1e5"]["kernel_vs_legacy"]
assert ratio >= 2.0, f"paper-set ranking speedup regressed below 2x: {ratio}"

# Batch distribution kernels (DESIGN.md §13): the scalar-vs-batch rows
# must be present for every size, and batch KS at n=1e5 must hold the
# 1.5x floor over the scalar exhaustive scan.
ks = doc["groups"]["batch_ks"]["results"]
for variant in ("scalar_exhaustive", "branch_bound", "batch"):
    for n in ("10000", "100000", "1000000"):
        assert ks[variant][n] > 0, f"batch_ks/{variant}/{n} missing or bad"
nll = doc["groups"]["batch_nll"]["results"]
for variant in ("prepared", "batch"):
    for n in ("10000", "100000", "1000000"):
        assert nll[variant][n] > 0, f"batch_nll/{variant}/{n} missing or bad"
sampling = doc["groups"]["batch_sampling"]["results"]
for variant in ("scalar_1e6", "batch_1e6"):
    assert sampling[variant] > 0, f"batch_sampling/{variant} missing or bad"
batch_ks = doc["groups"]["batch_ks"]["speedup_at_1e5"]["batch_vs_scalar"]
assert batch_ks >= 1.5, f"batch KS speedup at 1e5 below the 1.5x floor: {batch_ks}"
print(f"OK: BENCH_fit.json parses; recorded paper-set speedup at 1e5 = {ratio}x, "
      f"batch-KS speedup at 1e5 = {batch_ks}x")
EOF
else
    grep -q '"kernel_vs_legacy"' experiments/BENCH_fit.json
    echo "OK: BENCH_fit.json present (python3 unavailable, skipped value check)"
fi
echo "    (re-record with: cargo bench -p hpcfail-bench --bench fit_bench)"

echo "==> recorded trace-bench numbers (experiments/BENCH_trace.json)"
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json
with open("experiments/BENCH_trace.json") as f:
    doc = json.load(f)
ratio = doc["groups"]["per_node_tbf"]["speedup_at_1e6"]["indexed_warm_vs_legacy"]
assert ratio >= 3.0, f"per-node TBF speedup regressed below 3x: {ratio}"

# Binary trace store (DESIGN.md §14): all three store_load variants
# must be recorded at every size, and opening a packed .hpct at 1e6
# must hold the 10x floor over CSV parse + index rebuild.
store = doc["groups"]["store_load"]["results"]
for variant in ("csv_parse_build", "hpct_open", "pack_write"):
    for n in ("100000", "1000000", "10000000"):
        assert store[variant][n] > 0, f"store_load/{variant}/{n} missing or bad"
open_ratio = doc["groups"]["store_load"]["speedup_at_1e6"]["open_vs_rebuild"]
assert open_ratio >= 10.0, \
    f"packed-store open speedup at 1e6 below the 10x floor: {open_ratio}"
print(f"OK: BENCH_trace.json parses; recorded per-node TBF speedup at 1e6 = {ratio}x, "
      f"packed-store open speedup at 1e6 = {open_ratio}x")
EOF
else
    grep -q '"indexed_warm_vs_legacy"' experiments/BENCH_trace.json
    echo "OK: BENCH_trace.json present (python3 unavailable, skipped value check)"
fi
echo "    (re-record with: cargo bench -p hpcfail-bench --bench trace_bench)"

echo "==> ci.sh passed"
