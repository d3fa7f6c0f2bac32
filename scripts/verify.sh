#!/usr/bin/env bash
# Repo verification gate: tier-1 build+test, workspace tests, lint
# wall, benchmark adapter tests, experiment smokes.
#
#   scripts/verify.sh          # full gate (~a few minutes on 1 core)
#   SKIP_SMOKE=1 scripts/verify.sh   # build+tests+clippy+perfbench only
#
# The experiment smokes run with target/smoke/ as their working
# directory, so their tiny-scale results/BENCH_*.json land in
# target/smoke/results/ and never overwrite the committed results/.
#
# Everything runs offline; see README § Offline builds.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"

step() { printf '\n==> %s\n' "$*"; }

step "tier-1: cargo build --release"
cargo build --release

step "tier-1: cargo test -q"
cargo test -q

# The root `cargo test` covers only the `nwc` facade package; the crate
# unit tests (candidate scan, sinks, storage, serving) live in the
# workspace members.
step "workspace: cargo test -q --workspace"
cargo test -q --workspace

step "lint: cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The benchmark drives the library only through perfbench's adapter,
# so a library change that breaks it must fail here rather than in the
# benchmark run.
step "benchmark adapter: perfbench tests"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# The disk query read path must stay panic-free: every failure routes
# through TreeError::Io / QueryError::Io (tests below the #[cfg(test)]
# marker are exempt; the infallible wrappers in tree.rs are the one
# deliberate panic site and are not query-read-path code). The serving
# layer joins the list: a panicking worker or reader thread
# would silently strand client connections, so every serve source file
# must route failures through typed responses instead. node.rs joins
# too: its kind accessors sit under every disk read, so a decode bug
# must degrade (debug assertion + empty view) rather than panic. The
# scatter-gather planner joins too: a panicking shard worker would
# poison the shared kNWC core and strand the gather, so shard.rs is
# try_-only outside tests (missing structures degrade, partial shard
# failures surface as typed ShardScatterError). The anytime layer joins
# too: cancel.rs sits under every budget check on the hot descent, and
# anytime.rs computes the bounds a partial answer's soundness rests on
# — a panic there would turn graceful degradation into a crash.
step "lint: no panic paths in the disk query read path"
for f in crates/rtree/src/disk.rs crates/rtree/src/browser.rs \
         crates/rtree/src/query.rs crates/rtree/src/iwp.rs \
         crates/rtree/src/node.rs crates/rtree/src/cancel.rs \
         crates/core/src/shard.rs crates/core/src/anytime.rs \
         crates/serve/src/protocol.rs crates/serve/src/histogram.rs \
         crates/serve/src/handle.rs crates/serve/src/server.rs \
         crates/serve/src/client.rs; do
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -nE 'panic!|unwrap\(\)|\.expect\(|unreachable!'; then
    echo "error: panic-capable call in non-test section of $f" >&2
    exit 1
  fi
done
echo "ok: disk query read path is panic-free outside tests"

if [[ "${SKIP_SMOKE:-0}" != "1" ]]; then
  smoke="$root/target/smoke"
  rm -rf "$smoke"
  mkdir -p "$smoke"
  # One tiny-scale `experiments` run, from inside target/smoke/.
  experiments() {
    (cd "$smoke" && NWC_SCALE=0.02 NWC_QUERIES=3 \
      cargo run --release --manifest-path "$root/Cargo.toml" -p nwc-bench -- "$@")
  }

  step "smoke: throughput experiment (tiny scale)"
  experiments throughput
  test -s target/smoke/results/BENCH_throughput.json
  echo "ok: target/smoke/results/BENCH_throughput.json written"

  step "smoke: disk mode (persist, reopen, buffer sweep)"
  cargo run --release --example persist_and_query
  experiments buffer
  test -s target/smoke/results/BENCH_buffer.json
  grep -q '"peak_resident_nodes"' target/smoke/results/BENCH_buffer.json
  echo "ok: target/smoke/results/BENCH_buffer.json written (with resident-node gauge)"

  step "smoke: readahead + clustered layout (sweep covers both, counters present)"
  grep -q '"layout": "clustered"' target/smoke/results/BENCH_buffer.json
  grep -q '"prefetch_batches"' target/smoke/results/BENCH_buffer.json
  echo "ok: layout/readahead cells recorded in the sweep"

  step "smoke: demand paging (tiny pool, answers match arena)"
  cargo test -q --release --test demand_paging
  echo "ok: pool capacity bounds resident decoded nodes"

  step "smoke: sharded pool under concurrent batches"
  cargo test -q --release --test pool_stress
  echo "ok: concurrent accounting exact across shards and readahead"

  step "smoke: chaos (fault injection, typed errors, recovery)"
  cargo test -q --release --test chaos
  echo "ok: transient faults invisible, permanent faults typed and recoverable"

  step "smoke: fault-injection sweep (tiny scale)"
  experiments faults
  test -s target/smoke/results/BENCH_faults.json
  grep -q '"prefetch_errors"' target/smoke/results/BENCH_faults.json
  echo "ok: target/smoke/results/BENCH_faults.json written (with retry/readahead-error counters)"

  step "smoke: kernel + device-latency sweep (tiny scale)"
  cargo test -q --release --test kernel_equivalence
  experiments kernels
  test -s target/smoke/results/BENCH_kernels.json
  grep -q '"backend"' target/smoke/results/BENCH_kernels.json
  echo "ok: target/smoke/results/BENCH_kernels.json written (backend recorded)"

  step "smoke: serving layer (concurrent clients, deadlines, hot-swap)"
  cargo run --release --bin nwc-serve -- --self-test
  cargo test -q --release --test serve_swap
  echo "ok: serve self-test and hot-swap suite passed"

  step "smoke: serve load sweep (tiny scale)"
  experiments serve
  test -s target/smoke/results/BENCH_serve.json
  grep -q '"capacity_qps"' target/smoke/results/BENCH_serve.json
  grep -q '"p999_us"' target/smoke/results/BENCH_serve.json
  echo "ok: target/smoke/results/BENCH_serve.json written (capacity + tail latency)"

  step "smoke: writable disk mode (mutate, commit, reopen ≡ arena)"
  cargo test -q --release --test disk_equivalence writable
  cargo test -q --release --test crash
  echo "ok: mutate-save-reopen equivalence and crash kill-point matrix passed"

  step "smoke: streaming ingest sweep (tiny scale)"
  experiments ingest
  test -s target/smoke/results/BENCH_ingest.json
  grep -q '"ingest_per_s"' target/smoke/results/BENCH_ingest.json
  grep -q '"reopen_ms"' target/smoke/results/BENCH_ingest.json
  echo "ok: target/smoke/results/BENCH_ingest.json written (throughput + recovery time)"

  step "smoke: sharded scatter-gather (oracle equivalence, faults, disk dirs)"
  cargo test -q --release --test shard_equivalence
  experiments shard
  test -s target/smoke/results/BENCH_shard.json
  grep -q '"pool_split"' target/smoke/results/BENCH_shard.json
  grep -q '"io_ratio_vs_unsharded"' target/smoke/results/BENCH_shard.json
  grep -q '"cores"' target/smoke/results/BENCH_shard.json
  echo "ok: target/smoke/results/BENCH_shard.json written (split + I/O ratio + core honesty)"

  step "smoke: anytime/approximate sweep (tiny scale)"
  experiments approx
  test -s target/smoke/results/BENCH_approx.json
  grep -q '"exact_recall": 1' target/smoke/results/BENCH_approx.json
  grep -q '"bound_violations": 0' target/smoke/results/BENCH_approx.json
  echo "ok: target/smoke/results/BENCH_approx.json written (exact mode bit-identical, bounds sound)"
fi

step "verify: all checks passed"
