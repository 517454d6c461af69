#!/usr/bin/env bash
# Regenerates the checked-in perf records so successive PRs have a
# trajectory to compare against:
#
#   BENCH_fastpath.json — single-core fault fast path: virtual-time cost
#     of repeated same-block single-page faults (leaf hints on vs off),
#     hint hit rate, and a wall-clock 1-core fault-fill loop.
#   BENCH_scale.json    — multicore disjoint-ops sweep (Fig. 5 local): ops/sec
#     and per-core retention for every backend on 1..16 simulated cores,
#     remote cache-line transfers and shootdown IPIs per op; the
#     contended-range sweep (persistent shared mapping, periodic remap,
#     real shootdown IPIs); the overlap-degree sweep (multi-page ops
#     colliding with probability 0/10/50/100% on both the list-based
#     range-lock substrate and the slotspin baseline); plus the
#     scaling/contended/overlap gate verdicts (the scenario exits
#     non-zero on regression).
#   BENCH_huge.json     — huge-mapping (superpage) populate: faults,
#     superpage installs/demotions/promotions, index and page-table
#     bytes for every backend with and without the huge hint
#     (hint-ignoring backends get one 4 KiB row); the
#     demote-then-converge promotion gate (every block re-folds, probe
#     faults and index bytes within 1.25x of never-demoted); the
#     16-core span-shootdown sweep (span vs per-page IPI pricing by
#     sharer count); plus the gate verdicts (≥ 8x fewer faults,
#     strictly smaller index; the scenario exits non-zero if any gate
#     regresses).
#   BENCH_refcount.json — frame-table ownership: cold + warm fault
#     loops with zero Refcache-object heap allocations, frame-table
#     cell activation/release balance, and remote-line transfers by
#     category (frame-table vs anonymous heap); the scenario exits
#     non-zero on regression.
#   BENCH_numa.json     — NUMA placement sweep: disjoint / contended /
#     index-churn workloads on 1/2/4-node striped topologies under
#     first-touch, interleave, and replicate-read-only placement, with
#     every cache-line transfer priced by hop distance; records per-label
#     per-node-pair cross-socket attribution, on-node vs cross-node frees
#     and fault frames, plus the placement gate verdict (the scenario exits
#     non-zero on regression).
#   BENCH_pressure.json — memory pressure: the OOM-tolerant local cycle
#     on a frame-capped two-node machine at 0/50/90% pre-fill
#     utilization (throughput, stalls, pressure-tier drains/steals),
#     the fragmentation point (huge-hinted populate degrading to
#     scattered 4 KiB pages under squeezed headroom), plus the pressure
#     gate verdict (the scenario exits non-zero on regression).
#
# Each record comes from one scenario of the rvm_bench driver, which
# exits non-zero when a gate fails; the script stops there.
#
# Run from the repository root; commit the refreshed files.
set -euo pipefail
cd "$(dirname "$0")/.."

for s in fastpath scale huge refcount numa pressure; do
  cargo run --release -p rvm_bench -- "$s" > "BENCH_$s.json"
  echo "wrote $(pwd)/BENCH_$s.json:" >&2
  cat "BENCH_$s.json"
done
