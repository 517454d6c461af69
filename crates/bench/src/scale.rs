//! The Figure 5 local scalability harness: disjoint mmap/munmap/pagefault
//! throughput vs. simulated core count, for every backend.
//!
//! The paper's headline claim (§5, Figure 5 local) is that operations on
//! *disjoint* address-space ranges scale linearly with cores on RadixVM,
//! while lock-based designs flatten. This module sweeps the `local`
//! workload (per-core private mmap → touch → munmap cycles, the
//! per-thread memory-pool pattern) across 1..N virtual cores on the
//! deterministic simulator and reports, per point:
//!
//! * throughput (ops per virtual second) and its per-core retention
//!   relative to the 1-core point,
//! * remote cache-line transfers per op — the direct measure of
//!   incidental sharing on the op path (sharded counters, read-only
//!   attach checks, and batched magazines are what keep it flat), and
//! * shootdown IPIs per op (zero for disjoint ranges under targeted
//!   shootdown).
//!
//! [`check_gate`] turns the radix / bonsai / linux curves into a
//! pass/fail scalability gate: `bench_scale` runs it in CI and
//! `BENCH_scale.json` records the sweep so successive PRs have a
//! multicore perf trajectory, complementing the single-core
//! `BENCH_fastpath.json`.

use rvm_hw::Machine;
use rvm_sync::CostModel;

use crate::workloads;
use crate::{build, run_sim, BackendKind};

/// One measured point of the disjoint-ops sweep.
#[derive(Clone, Debug)]
pub struct ScalePoint {
    /// Virtual cores driven.
    pub cores: usize,
    /// Completed mmap+touch+munmap cycles.
    pub ops: u64,
    /// Virtual nanoseconds elapsed (max core clock).
    pub virt_ns: u64,
    /// Remote cache-line transfers over the whole run.
    pub remote_transfers: u64,
    /// Shootdown IPIs sent over the whole run.
    pub ipis: u64,
    /// Frame frees returned to a list/reservoir of the freeing core's
    /// node (on a flat single-node machine: all of them).
    pub on_node_frees: u64,
    /// Frame frees that traveled to another node's reservoir.
    pub cross_node_frees: u64,
}

impl ScalePoint {
    /// Operations per virtual second.
    pub fn ops_per_sec(&self) -> f64 {
        if self.virt_ns == 0 {
            0.0
        } else {
            self.ops as f64 * 1e9 / self.virt_ns as f64
        }
    }

    /// Operations per virtual second per core.
    pub fn per_core_ops_per_sec(&self) -> f64 {
        self.ops_per_sec() / self.cores as f64
    }

    /// Remote line transfers per operation.
    pub fn remote_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.remote_transfers as f64 / self.ops as f64
        }
    }

    /// Shootdown IPIs per operation.
    pub fn ipis_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.ipis as f64 / self.ops as f64
        }
    }
}

/// Runs the disjoint-ops workload for one backend at one core count.
///
/// A fresh machine and address space per point keeps points independent
/// (the simulator is deterministic, so every run of this function with
/// the same arguments produces the same numbers).
pub fn disjoint_point(kind: BackendKind, ncores: usize, duration_ns: u64) -> ScalePoint {
    let machine = Machine::new(ncores);
    let vm = build(&machine, kind);
    let point = run_sim(ncores, duration_ns, CostModel::default(), |core| {
        workloads::local(machine.clone(), vm.clone(), core)
    });
    let pool = machine.pool().stats();
    ScalePoint {
        cores: ncores,
        ops: point.units,
        virt_ns: point.virt_ns,
        remote_transfers: point.sim.total_remote(),
        ipis: point.sim.total_ipis(),
        on_node_frees: pool.on_node_frees,
        cross_node_frees: pool.cross_node_frees,
    }
}

/// Sweeps one backend across `core_counts`.
pub fn disjoint_sweep(
    kind: BackendKind,
    core_counts: &[usize],
    duration_ns: u64,
) -> Vec<ScalePoint> {
    core_counts
        .iter()
        .map(|&n| disjoint_point(kind, n, crate::point_duration(duration_ns, n)))
        .collect()
}

/// Per-core throughput retention of the last point relative to the
/// first: 1.0 is perfect linear scaling, 1/N is full serialization.
pub fn retention(points: &[ScalePoint]) -> f64 {
    let first = points.first().map(ScalePoint::per_core_ops_per_sec);
    let last = points.last().map(ScalePoint::per_core_ops_per_sec);
    match (first, last) {
        (Some(f), Some(l)) if f > 0.0 => l / f,
        _ => 0.0,
    }
}

/// The scalability gate's verdict (all curves measured at the same core
/// counts, radix judged at the sweep's maximum).
#[derive(Clone, Debug)]
pub struct GateReport {
    /// Largest core count in the sweep.
    pub max_cores: usize,
    /// RadixVM per-core retention at `max_cores`.
    pub radix_retention: f64,
    /// Bonsai per-core retention at `max_cores`.
    pub bonsai_retention: f64,
    /// Linux per-core retention at `max_cores`.
    pub linux_retention: f64,
    /// RadixVM's worst remote-line-transfers-per-op over the sweep.
    pub radix_remote_per_op: f64,
    /// Human-readable failures; empty means the gate passed.
    pub failures: Vec<String>,
}

impl GateReport {
    /// True when every gate condition held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// RadixVM must retain at least this fraction of its 1-core per-core
/// throughput at the sweep's maximum core count (acceptance bar).
pub const RADIX_RETENTION_FLOOR: f64 = 0.70;

/// RadixVM's warm disjoint op path must stay under this many remote
/// cache-line transfers per op at *any* core count — O(1), not O(cores).
/// Tightened from 1.0 after the frame-table ownership refactor
/// (DESIGN.md §8) cut the measured peak from ~0.95 to ~0.10: the old
/// ceiling would no longer catch a reintroduced per-fault heap object.
pub const RADIX_REMOTE_PER_OP_CEIL: f64 = 0.5;

/// Evaluates the scalability gate over radix/bonsai/linux sweeps.
///
/// Conditions:
/// 1. radix per-core retention at max cores ≥ [`RADIX_RETENTION_FLOOR`];
/// 2. radix remote transfers per op ≤ [`RADIX_REMOTE_PER_OP_CEIL`]
///    (flat incidental sharing: sharded counters, read-only attach
///    checks, batched magazines);
/// 3. radix's retention strictly dominates both baselines' — the slope
///    separation Figure 5 local shows.
pub fn check_gate(radix: &[ScalePoint], bonsai: &[ScalePoint], linux: &[ScalePoint]) -> GateReport {
    let max_cores = radix.last().map(|p| p.cores).unwrap_or(0);
    let radix_retention = retention(radix);
    let bonsai_retention = retention(bonsai);
    let linux_retention = retention(linux);
    // The O(1) bound must hold at *every* core count, so judge the
    // worst point of the sweep, not just the last (a contended line can
    // peak at intermediate counts).
    let radix_remote_per_op = radix
        .iter()
        .map(ScalePoint::remote_per_op)
        .fold(0.0, f64::max);
    let mut failures = Vec::new();
    if radix_retention < RADIX_RETENTION_FLOOR {
        failures.push(format!(
            "radix per-core retention {radix_retention:.3} at {max_cores} cores \
             < floor {RADIX_RETENTION_FLOOR}"
        ));
    }
    if radix_remote_per_op > RADIX_REMOTE_PER_OP_CEIL {
        failures.push(format!(
            "radix remote line transfers per op peak at {radix_remote_per_op:.3} \
             > ceiling {RADIX_REMOTE_PER_OP_CEIL} (not O(1))"
        ));
    }
    if radix_retention <= bonsai_retention {
        failures.push(format!(
            "radix retention {radix_retention:.3} does not beat bonsai {bonsai_retention:.3}"
        ));
    }
    if radix_retention <= linux_retention {
        failures.push(format!(
            "radix retention {radix_retention:.3} does not beat linux {linux_retention:.3}"
        ));
    }
    GateReport {
        max_cores,
        radix_retention,
        bonsai_retention,
        linux_retention,
        radix_remote_per_op,
        failures,
    }
}

/// Runs the *contended* workload (all cores hammering one range) for
/// one backend at one core count.
pub fn contended_point(kind: BackendKind, ncores: usize, duration_ns: u64) -> ScalePoint {
    let machine = Machine::new(ncores);
    let vm = build(&machine, kind);
    let point = run_sim(ncores, duration_ns, CostModel::default(), |core| {
        workloads::contended(machine.clone(), vm.clone(), core)
    });
    let pool = machine.pool().stats();
    ScalePoint {
        cores: ncores,
        ops: point.units,
        virt_ns: point.virt_ns,
        remote_transfers: point.sim.total_remote(),
        ipis: point.sim.total_ipis(),
        on_node_frees: pool.on_node_frees,
        cross_node_frees: pool.cross_node_frees,
    }
}

/// Sweeps the contended workload across `core_counts`.
pub fn contended_sweep(
    kind: BackendKind,
    core_counts: &[usize],
    duration_ns: u64,
) -> Vec<ScalePoint> {
    core_counts
        .iter()
        .map(|&n| contended_point(kind, n, crate::point_duration(duration_ns, n)))
        .collect()
}

/// Under full contention RadixVM's *total* throughput must stay at or
/// above this fraction of its serial (1-core) rate at every core count:
/// conflicting operations serialize on the range lock, so the curve may
/// flatten, but coherence/IPI storms must not drive it *below* the
/// serial rate by more than this factor — the "graceful degradation"
/// bar.
pub const CONTENDED_DEGRADATION_FLOOR: f64 = 0.30;

/// Ceiling on remote cache-line transfers per contended cycle at any
/// core count. Conflicting ops migrate the lines they genuinely share
/// (the lock words, the touched pages, the frame metadata) — that is
/// the workload's nature — but the count must stay a small constant;
/// growth here means the serialized path started bouncing lines it has
/// no business touching. Set just above the measured 16-core peak
/// (~6.0 with the persistent-mapping workload shape).
pub const CONTENDED_REMOTE_PER_OP_CEIL: f64 = 8.0;

/// Verdict of the contended-range degradation gate.
#[derive(Clone, Debug)]
pub struct ContendedReport {
    /// Largest core count in the sweep.
    pub max_cores: usize,
    /// Worst total-throughput ratio vs. the 1-core point over the sweep.
    pub worst_ratio: f64,
    /// Worst remote-line-transfers-per-op over the sweep.
    pub worst_remote_per_op: f64,
    /// Human-readable failures; empty means the gate passed.
    pub failures: Vec<String>,
}

impl ContendedReport {
    /// True when the gate held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Evaluates graceful degradation over a contended sweep (first point
/// must be the 1-core serial baseline).
pub fn check_contended(radix: &[ScalePoint]) -> ContendedReport {
    let max_cores = radix.last().map(|p| p.cores).unwrap_or(0);
    let serial = radix.first().map(ScalePoint::ops_per_sec).unwrap_or(0.0);
    let mut worst_ratio = f64::INFINITY;
    let mut failures = Vec::new();
    // The ratios below are meaningless against anything but a 1-core
    // serial baseline (RVM_CORES can reorder or trim the sweep).
    if radix.first().map(|p| p.cores) != Some(1) {
        failures.push(format!(
            "contended sweep must start at 1 core (serial baseline), got {:?}",
            radix.first().map(|p| p.cores)
        ));
    }
    if serial <= 0.0 {
        failures.push("no serial baseline point".to_string());
        return ContendedReport {
            max_cores,
            worst_ratio: 0.0,
            worst_remote_per_op: 0.0,
            failures,
        };
    }
    for p in &radix[1..] {
        let ratio = p.ops_per_sec() / serial;
        worst_ratio = worst_ratio.min(ratio);
        if ratio < CONTENDED_DEGRADATION_FLOOR {
            failures.push(format!(
                "contended throughput at {} cores is {:.3}x the serial rate \
                 < floor {CONTENDED_DEGRADATION_FLOOR} (collapse, not degradation)",
                p.cores, ratio
            ));
        }
    }
    let worst_remote_per_op = radix
        .iter()
        .map(ScalePoint::remote_per_op)
        .fold(0.0, f64::max);
    if worst_remote_per_op > CONTENDED_REMOTE_PER_OP_CEIL {
        failures.push(format!(
            "contended remote line transfers per op peak at {worst_remote_per_op:.3} \
             > ceiling {CONTENDED_REMOTE_PER_OP_CEIL}"
        ));
    }
    if worst_ratio == f64::INFINITY {
        worst_ratio = 1.0;
    }
    ContendedReport {
        max_cores,
        worst_ratio,
        worst_remote_per_op,
        failures,
    }
}

/// Runs the *overlap* workload (multi-page ops colliding with
/// probability `degree`%) for one backend at one core count.
pub fn overlap_point(
    kind: BackendKind,
    degree: u32,
    ncores: usize,
    duration_ns: u64,
) -> ScalePoint {
    let machine = Machine::new(ncores);
    let vm = build(&machine, kind);
    let point = run_sim(ncores, duration_ns, CostModel::default(), |core| {
        workloads::overlap(machine.clone(), vm.clone(), core, degree)
    });
    let pool = machine.pool().stats();
    ScalePoint {
        cores: ncores,
        ops: point.units,
        virt_ns: point.virt_ns,
        remote_transfers: point.sim.total_remote(),
        ipis: point.sim.total_ipis(),
        on_node_frees: pool.on_node_frees,
        cross_node_frees: pool.cross_node_frees,
    }
}

/// One overlap degree's sweep across core counts for one backend.
#[derive(Clone, Debug)]
pub struct OverlapSweep {
    /// Collision probability in percent (0, 10, 50, 100).
    pub degree: u32,
    /// Points at ascending core counts (first must be 1 core).
    pub points: Vec<ScalePoint>,
}

/// Sweeps the overlap workload across `core_counts` for each degree.
pub fn overlap_sweep(
    kind: BackendKind,
    degrees: &[u32],
    core_counts: &[usize],
    duration_ns: u64,
) -> Vec<OverlapSweep> {
    degrees
        .iter()
        .map(|&degree| OverlapSweep {
            degree,
            points: core_counts
                .iter()
                .map(|&n| overlap_point(kind, degree, n, crate::point_duration(duration_ns, n)))
                .collect(),
        })
        .collect()
}

/// Overlap degrees the sweep and `BENCH_scale.json` record.
pub const OVERLAP_DEGREES: [u32; 4] = [0, 10, 50, 100];

/// At 0 % overlap the ops are disjoint multi-page mmap/munmap cycles:
/// the list-based range lock must not tax the scaling case, so per-core
/// retention at the sweep's maximum must stay at least this high.
pub const OVERLAP_RETENTION_FLOOR: f64 = 0.70;

/// At 100 % overlap every op conflicts and the curve flattens to the
/// serial rate; it must not *collapse below* it by more than this
/// factor (same graceful-degradation bar as the contended gate).
pub const OVERLAP_DEGRADATION_FLOOR: f64 = 0.30;

/// Verdict of the overlap-degree gate (judged on the List substrate).
#[derive(Clone, Debug)]
pub struct OverlapReport {
    /// Largest core count in the sweep.
    pub max_cores: usize,
    /// Per-core retention at max cores, 0 % overlap.
    pub disjoint_retention: f64,
    /// Worst total-throughput ratio vs. 1 core at 100 % overlap.
    pub full_overlap_worst_ratio: f64,
    /// Human-readable failures; empty means the gate passed.
    pub failures: Vec<String>,
}

impl OverlapReport {
    /// True when every gate condition held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Evaluates the overlap gate over one backend's degree sweeps: the
/// 0 %-overlap curve must scale (retention ≥
/// [`OVERLAP_RETENTION_FLOOR`]) and the 100 %-overlap curve must
/// degrade gracefully (every multicore point ≥
/// [`OVERLAP_DEGRADATION_FLOOR`] × the 1-core rate).
pub fn check_overlap(sweeps: &[OverlapSweep]) -> OverlapReport {
    let mut failures = Vec::new();
    let mut max_cores = 0;
    let mut disjoint_retention = 0.0;
    let mut full_overlap_worst_ratio: f64 = 1.0;
    match sweeps.iter().find(|s| s.degree == 0) {
        Some(s) => {
            max_cores = s.points.last().map(|p| p.cores).unwrap_or(0);
            disjoint_retention = retention(&s.points);
            if disjoint_retention < OVERLAP_RETENTION_FLOOR {
                failures.push(format!(
                    "0%-overlap per-core retention {disjoint_retention:.3} at {max_cores} \
                     cores < floor {OVERLAP_RETENTION_FLOOR}"
                ));
            }
        }
        None => failures.push("sweep is missing the 0%-overlap degree".to_string()),
    }
    match sweeps.iter().find(|s| s.degree == 100) {
        Some(s) => {
            let serial = s.points.first().map(ScalePoint::ops_per_sec).unwrap_or(0.0);
            if s.points.first().map(|p| p.cores) != Some(1) || serial <= 0.0 {
                failures.push("100%-overlap sweep lacks a 1-core serial baseline".to_string());
            } else {
                for p in &s.points[1..] {
                    let ratio = p.ops_per_sec() / serial;
                    full_overlap_worst_ratio = full_overlap_worst_ratio.min(ratio);
                    if ratio < OVERLAP_DEGRADATION_FLOOR {
                        failures.push(format!(
                            "100%-overlap throughput at {} cores is {ratio:.3}x the serial \
                             rate < floor {OVERLAP_DEGRADATION_FLOOR} (collapse)",
                            p.cores
                        ));
                    }
                }
            }
        }
        None => failures.push("sweep is missing the 100%-overlap degree".to_string()),
    }
    OverlapReport {
        max_cores,
        disjoint_retention,
        full_overlap_worst_ratio,
        failures,
    }
}

/// Core counts for the scale sweep: `RVM_CORES` override, trimmed for
/// `--quick` (the CI smoke gate at 4 cores), full 1..16 otherwise.
pub fn scale_core_counts() -> Vec<usize> {
    if let Ok(s) = std::env::var("RVM_CORES") {
        return s.split(',').filter_map(|x| x.trim().parse().ok()).collect();
    }
    if crate::quick() {
        vec![1, 4]
    } else {
        vec![1, 2, 4, 8, 16]
    }
}

/// Runs the three gated backends at the given core counts and evaluates
/// the gate (the entry point both the unit test and `bench_scale` use).
pub fn run_gate(core_counts: &[usize], duration_ns: u64) -> GateReport {
    let radix = disjoint_sweep(BackendKind::Radix, core_counts, duration_ns);
    let bonsai = disjoint_sweep(BackendKind::Bonsai, core_counts, duration_ns);
    let linux = disjoint_sweep(BackendKind::Linux, core_counts, duration_ns);
    check_gate(&radix, &bonsai, &linux)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checked-in scalability gate: disjoint ops on RadixVM keep
    /// ≥ 70 % of their 1-core per-core throughput at 8 cores, the warm
    /// op path's remote-line traffic is O(1) per op, and both baselines
    /// scale strictly worse. Deterministic — not a flaky perf test.
    #[test]
    fn disjoint_ops_scaling_gate() {
        let report = run_gate(&[1, 8], 4_000_000);
        assert!(
            report.passed(),
            "scalability gate failed:\n  {}",
            report.failures.join("\n  ")
        );
        // The separation must be qualitative, not marginal: the
        // serialized baselines lose most of their per-core throughput.
        assert!(
            report.radix_retention > 2.0 * report.bonsai_retention,
            "radix {:.3} vs bonsai {:.3}: separation collapsed",
            report.radix_retention,
            report.bonsai_retention
        );
        assert!(
            report.radix_retention > 2.0 * report.linux_retention,
            "radix {:.3} vs linux {:.3}: separation collapsed",
            report.radix_retention,
            report.linux_retention
        );
    }

    /// The contended-range degradation gate: all cores hammering one
    /// range serializes, but RadixVM's total throughput must stay
    /// within [`CONTENDED_DEGRADATION_FLOOR`] of its serial rate —
    /// graceful degradation, not collapse. Deterministic.
    #[test]
    fn contended_range_degrades_gracefully() {
        let sweep = contended_sweep(BackendKind::Radix, &[1, 8], 3_000_000);
        assert!(
            sweep.iter().all(|p| p.ops > 0),
            "no progress under contention"
        );
        let report = check_contended(&sweep);
        assert!(
            report.passed(),
            "contended degradation gate failed:\n  {}",
            report.failures.join("\n  ")
        );
    }

    /// The overlap-degree gate at its extremes, on the List substrate:
    /// 0 % overlap (disjoint multi-page ops) must scale, 100 % overlap
    /// (every op conflicts) must degrade gracefully. Deterministic.
    #[test]
    fn overlap_extremes_gate() {
        let sweeps = overlap_sweep(BackendKind::Radix, &[0, 100], &[1, 8], 3_000_000);
        assert!(
            sweeps.iter().all(|s| s.points.iter().all(|p| p.ops > 0)),
            "no progress in an overlap sweep"
        );
        let report = check_overlap(&sweeps);
        assert!(
            report.passed(),
            "overlap gate failed:\n  {}",
            report.failures.join("\n  ")
        );
    }

    /// Both range-lock substrates must agree on correctness under full
    /// overlap — the list only fronts the slot locks, it never replaces
    /// them — and the slotspin baseline must also make progress.
    #[test]
    fn overlap_runs_on_both_substrates() {
        for kind in [BackendKind::Radix, BackendKind::RadixSlotSpin] {
            let p = overlap_point(kind, 100, 4, 1_000_000);
            assert!(p.ops > 0, "{kind}: no progress at full overlap");
        }
    }

    #[test]
    fn disjoint_ops_send_no_ipis_on_radix() {
        // Targeted shootdown: a core unmapping its own pages never
        // interrupts another core.
        let p = disjoint_point(BackendKind::Radix, 4, 1_000_000);
        assert!(p.ops > 0);
        assert_eq!(p.ipis, 0, "disjoint munmaps sent IPIs");
    }

    #[test]
    fn retention_math() {
        let mk = |cores, ops, ns| ScalePoint {
            cores,
            ops,
            virt_ns: ns,
            remote_transfers: 0,
            ipis: 0,
            on_node_frees: 0,
            cross_node_frees: 0,
        };
        // 1 core: 100 ops/s; 4 cores: 400 ops/s → retention 1.0.
        let perfect = vec![mk(1, 100, 1_000_000_000), mk(4, 400, 1_000_000_000)];
        assert!((retention(&perfect) - 1.0).abs() < 1e-9);
        // 4 cores still 100 ops/s → retention 0.25.
        let flat = vec![mk(1, 100, 1_000_000_000), mk(4, 100, 1_000_000_000)];
        assert!((retention(&flat) - 0.25).abs() < 1e-9);
    }
}
