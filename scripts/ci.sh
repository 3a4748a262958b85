#!/usr/bin/env bash
# CI gate: build, full test suite, then prove the determinism contract
# end-to-end by diffing `hpcfail repro` output between a serial
# (HPCFAIL_THREADS=1) and a parallel (HPCFAIL_THREADS=8) run, diff every
# committed golden output, and smoke-run the CLI, serve and scenario
# surfaces. Speed is
# measured by perfbench (BENCHMARK.json), not here.
set -euo pipefail

cd "$(dirname "$0")/.."

# Formatting drift fails before anything builds. Only the project's own
# sources are checked: vendor/ holds offline stand-ins for external crates
# (a workspace member, so a plain `cargo fmt` would rewrite them) and
# perfbench/ is the benchmark's own package.
echo "==> rustfmt --check over crates/, tests/ and examples/"
fmt_files=()
while IFS= read -r -d '' f; do fmt_files+=("$f"); done \
    < <(find crates tests examples -name '*.rs' -print0 | sort -z)
if ! rustfmt --edition 2021 --check "${fmt_files[@]}"; then
    echo "FAIL: formatting drift; fix with:" >&2
    echo "      rustfmt --edition 2021 \$(find crates tests examples -name '*.rs')" >&2
    exit 1
fi
echo "OK: ${#fmt_files[@]} source files formatted"

# Lint drift fails next, over the same sources: every crates/* package
# with its tests and examples. vendor/ stand-ins are excluded for the
# reason above, and perfbench/ is not a workspace member.
echo "==> cargo clippy --all-targets over the crates/* packages, warnings denied"
cargo clippy --offline --workspace --exclude rand --exclude proptest --all-targets \
    -- -D warnings
echo "OK: no clippy warnings"

# A doc link to an item that was renamed or deleted fails here, not in a
# reader's browser. Same package set as clippy.
echo "==> cargo doc over the crates/* packages, warnings denied"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace \
    --exclude rand --exclude proptest
echo "OK: docs build without a warning"

echo "==> cargo build --workspace --release"
cargo build --workspace --release

# Every target, tests included, must compile without a warning, so a
# helper whose last caller goes away fails the gate instead of lingering.
# Its own target dir keeps the release cache above warm.
echo "==> cargo check --workspace --all-targets, warnings denied"
RUSTFLAGS="-D warnings" CARGO_TARGET_DIR=target/deny-warnings \
    cargo check --offline --workspace --all-targets

# A dependency no source file names compiles to nothing but build time.
# Every [dependencies]/[dev-dependencies] entry of a crate must appear,
# as its Rust identifier, in a source file of the crate directory or of
# one of its [[test]]/[[example]]/[[bin]] paths. A name that appears
# only in a comment still passes.
echo "==> every crate dependency is named in that crate's sources"
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import glob, os, re, sys
manifests = sorted(glob.glob("crates/*/Cargo.toml"))
orphans = []
for manifest in manifests:
    crate = os.path.dirname(manifest)
    deps, sources, section = [], [crate], None
    for line in open(manifest):
        line = line.strip()
        if line.startswith("["):
            section = line
            continue
        key = re.match(r"([A-Za-z0-9_-]+)\s*[.=]", line)
        if not key:
            continue
        if section in ("[dependencies]", "[dev-dependencies]"):
            deps.append(key.group(1))
        elif section in ("[[test]]", "[[example]]", "[[bin]]") and key.group(1) == "path":
            sources.append(os.path.normpath(os.path.join(crate, line.split('"')[1])))
    files = [f for src in sources
             for f in ([src] if os.path.isfile(src) else glob.glob(f"{src}/**/*.rs", recursive=True))]
    text = "".join(open(f).read() for f in files)
    for dep in deps:
        if not re.search(rf"\b{dep.replace('-', '_')}\b", text):
            orphans.append(f"{manifest}: {dep}")
if orphans:
    sys.exit("FAIL: dependencies no source names:\n  " + "\n  ".join(orphans))
print(f"OK: every dependency of the {len(manifests)} crates is named in its sources")
EOF
else
    echo "OK: dependency check skipped (python3 unavailable)"
fi

# A public function nothing outside its crate calls is surface to read,
# test and keep compiling. Every `pub fn` in crates/X/src must be named
# outside X's library sources: by another crate's library code ahead of
# its file's #[cfg(test)] module (the last item of a file, as clippy's
# items_after_test_module wants), by a bin target (src/main.rs), or by
# tests/, examples/ or perfbench/. An item only its own crate uses is
# pub(crate), where the dead_code lint denied above checks it by path,
# so a name shared with another item of the same crate hides nothing.
# As above, a name in a comment still passes. Names kept for a planned
# caller carry their ROADMAP item.
echo "==> every pub fn is named outside its own crate"
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import glob, re, sys
RESERVED = {
    "without_diurnal": "ROADMAP item 3",
    "uniform_gap_shape": "ROADMAP item 3",
    "homogeneous_nodes": "ROADMAP item 3",
}
def code(path):
    return open(path).read().split("#[cfg(test)]")[0]
def is_bin(path):
    return path.endswith("/src/main.rs") or "/src/bin/" in path
sources = sorted(glob.glob("crates/*/src/**/*.rs", recursive=True))
library = {}
for f in sources:
    if not is_bin(f):
        library.setdefault(f.split("/")[1], []).append(f)
shared = "".join(open(f).read() for d in ("tests", "examples", "perfbench")
                 for f in sorted(glob.glob(f"{d}/**/*.rs", recursive=True)))
shared += "".join(open(f).read() for f in sources if is_bin(f))
unreached = []
for crate, files in sorted(library.items()):
    outside = shared + "".join(code(f) for c, fs in library.items() if c != crate for f in fs)
    for name in sorted(set(re.findall(r"\bpub fn (\w+)", "".join(open(f).read() for f in files)))):
        if name not in RESERVED and len(re.findall(rf"\b{name}\b", outside)) \
                <= len(re.findall(rf"\bfn {name}\b", outside)):
            unreached.append(f"{crate}: {name}")
if unreached:
    sys.exit("FAIL: pub fns nothing outside their own crate names (make them pub(crate)):\n  "
             + "\n  ".join(unreached))
print(f"OK: every pub fn is named outside its own crate ({len(RESERVED)} reserved)")
EOF
else
    echo "OK: reachability check skipped (python3 unavailable)"
fi

# The size measure simplicity changes quote, printed and never gated:
# per crates/* package, the non-blank lines before each source file's
# first #[cfg(test)] and the `pub fn` definitions among them.
echo "==> product size (non-blank lines before #[cfg(test)], pub fns), not gated"
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import glob, re
sizes = {}
for f in sorted(glob.glob("crates/*/src/**/*.rs", recursive=True)):
    code = open(f).read().split("#[cfg(test)]")[0]
    size = sizes.setdefault(f.split("/")[1], [0, 0])
    size[0] += sum(1 for line in code.splitlines() if line.strip())
    size[1] += len(re.findall(r"\bpub (?:const )?fn \w+", code))
print(f"{'crate':<10} {'lines':>6} {'pub fns':>7}")
for crate, (lines, fns) in sorted(sizes.items()):
    print(f"{crate:<10} {lines:>6} {fns:>7}")
print(f"{'total':<10} {sum(s[0] for s in sizes.values()):>6} {sum(s[1] for s in sizes.values()):>7}")
EOF
else
    echo "OK: size measure skipped (python3 unavailable)"
fi

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
HPCFAIL_THREADS=1 cargo run --release -q -p hpcfail-cli --bin hpcfail -- repro > "$tmpdir/repro_t1.txt"
HPCFAIL_THREADS=8 cargo run --release -q -p hpcfail-cli --bin hpcfail -- repro > "$tmpdir/repro_t8.txt"
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
    echo "      re-record with:" >&2
    echo "      cargo run --release -p hpcfail-cli --bin hpcfail -- repro > experiments/repro_output.txt" >&2
    exit 1
fi
echo "OK: fresh repro output byte-identical to the committed golden"

echo "==> repro off the generated site CSV and its packed .hpct vs committed golden"
# The seeded site written out by generate, and its packed store, must
# reproduce the golden through the one trace loader.
cargo run --release -q -p hpcfail-cli --bin hpcfail -- \
    generate --seed 42 --out "$tmpdir/site.csv" > /dev/null
cargo run --release -q -p hpcfail-cli --bin hpcfail -- \
    pack "$tmpdir/site.csv" --out "$tmpdir/site.hpct" > /dev/null
for input in csv hpct; do
    cargo run --release -q -p hpcfail-cli --bin hpcfail -- \
        repro --trace "$tmpdir/site.$input" > "$tmpdir/repro_$input.txt"
    if ! diff -u experiments/repro_output.txt "$tmpdir/repro_$input.txt"; then
        echo "FAIL: repro --trace site.$input differs from the golden." >&2
        echo "      The loader and the binary store (DESIGN.md §14) must" >&2
        echo "      reproduce the generated index element-identically." >&2
        exit 1
    fi
done
echo "OK: repro --trace on the site CSV and on its .hpct byte-identical to the golden"

echo "==> ablations output vs committed experiments/ablations_output.txt"
cargo run --release -q -p hpcfail-cli --bin hpcfail -- ablations > "$tmpdir/ablations.txt"
if ! diff -u experiments/ablations_output.txt "$tmpdir/ablations.txt"; then
    echo "FAIL: fresh ablations run differs from the committed golden." >&2
    echo "      If the drift is intentional, re-record with:" >&2
    echo "      cargo run --release -p hpcfail-cli --bin hpcfail -- ablations > experiments/ablations_output.txt" >&2
    exit 1
fi
echo "OK: fresh ablations output byte-identical to the committed golden"

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
    quality "$tmpdir/dirty.csv" --repair --out "$tmpdir/fixed.hpct" \
    > "$tmpdir/quality_pack.txt"
grep -q "packed" "$tmpdir/quality_pack.txt" || {
    echo "FAIL: quality --out FILE.hpct did not report a packed store" >&2
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

echo "==> CLI LANL export through summary, import-lanl and pack, no dialect flag"
# The loader tells a LANL export from native CSV by its header, so the
# export, its native conversion and its packed store summarize alike.
lanl_fixture="tests/data/lanl_fixture.csv"
cargo run --release -q -p hpcfail-cli --bin hpcfail -- \
    summary "$lanl_fixture" > "$tmpdir/summary_lanl.txt"
cargo run --release -q -p hpcfail-cli --bin hpcfail -- \
    import-lanl "$lanl_fixture" --out "$tmpdir/lanl_native.csv" > /dev/null
cargo run --release -q -p hpcfail-cli --bin hpcfail -- \
    summary "$tmpdir/lanl_native.csv" > "$tmpdir/summary_lanl_native.txt"
cargo run --release -q -p hpcfail-cli --bin hpcfail -- \
    pack "$lanl_fixture" --out "$tmpdir/lanl.hpct" > /dev/null
cargo run --release -q -p hpcfail-cli --bin hpcfail -- \
    summary "$tmpdir/lanl.hpct" > "$tmpdir/summary_lanl_hpct.txt"
for converted in native hpct; do
    if ! diff -u "$tmpdir/summary_lanl.txt" "$tmpdir/summary_lanl_$converted.txt"; then
        echo "FAIL: summary of the LANL export differs from its $converted conversion" >&2
        exit 1
    fi
done
echo "OK: a LANL export summarizes like its native CSV and its packed store"

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

echo "==> serve test battery (integration, cache, http proptests, percentile determinism)"
cargo test --release -q -p hpcfail --test serve_integration
cargo test --release -q -p hpcfail --test serve_cache
cargo test --release -q -p hpcfail --test serve_http_proptests
cargo test --release -q -p hpcfail --test serve_determinism

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
# An era window and the node view run the TBF kernel in the shipped binary.
probe "$serve_url/v1/synth/tbf?view=systemwide&era=early"
probe "$serve_url/v1/synth/tbf?view=node&node=22&era=late"
# One-stratum misses run the per-system and per-cause row kernels.
probe "$serve_url/v1/synth/rates?system=20"
probe "$serve_url/v1/synth/availability?system=20"
probe "$serve_url/v1/synth/repair?cause=hardware"
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
# The whole campaign takes ~0.1 s on a host with one core's worth of CPU,
# too short for a fixed sleep: poll until the first wave is journaled (the
# file has grown past its 40-byte header), then kill. On that host 20 of 20
# repeats killed the run after 2-4 of the 41 waves, so a campaign that
# outruns the kill is a failure, not noise.
for _ in $(seq 2000); do
    if [ -f "$tmpdir/resumed.txt.journal" ] && [ "$(wc -c < "$tmpdir/resumed.txt.journal")" -gt 40 ]; then
        break
    fi
    sleep 0.005
done
kill -9 "$campaign_pid" 2>/dev/null || true
wait "$campaign_pid" 2>/dev/null || true
if [ -f "$tmpdir/resumed.txt" ]; then
    echo "FAIL: the campaign finished before the kill; --resume would only replay a complete journal" >&2
    exit 1
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

echo "==> ci.sh passed"
