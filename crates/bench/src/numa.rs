//! The NUMA placement sweep: distance-priced workloads across
//! topologies × placement policies, and the gates the `numa` scenario
//! ([`record`], `BENCH_numa.json`) enforces.
//!
//! The simulator prices every cache-line transfer and every page of
//! allocator work by the hop distance it crosses (`rvm_sync::model`),
//! so frame *placement* becomes measurable: this module runs the
//! disjoint, contended, and index-churn workloads on 1/2/4-node striped
//! topologies under each [`PlacementPolicy`] and records throughput,
//! on-node vs cross-node allocator traffic, and the per-label
//! cross-node transfer attribution.
//!
//! Three things are gated:
//!
//! 1. on 4 nodes, first-touch beats interleave by ≥
//!    [`FT_OVER_INTERLEAVE_FLOOR`]× on disjoint ops — local placement
//!    must actually win once remote pages cost hops;
//! 2. replicate-read-only cuts the cross-node transfers attributed to
//!    `radix-index` lines vs first-touch on the index-churn workload —
//!    replicas must absorb the remote descent reads;
//! 3. the contended workload's [`sim::cross_node_transfers_by_label`]
//!    attribution is non-empty — the *where does cross-socket traffic
//!    live* view works end-to-end.

use std::sync::Arc;

use rvm_hw::{Machine, MachineConfig, PlacementPolicy};
use rvm_sync::{sim, CostModel, Topology};

use crate::workloads::Workload;
use crate::{build, ratio, run_sim_collect, BackendKind, Gate, Inputs, Json, Record};

/// Display name of a placement policy (JSON keys).
pub fn policy_name(p: PlacementPolicy) -> &'static str {
    match p {
        PlacementPolicy::FirstTouch => "first-touch",
        PlacementPolicy::Interleave => "interleave",
        PlacementPolicy::ReplicateReadOnly => "replicate-read-only",
    }
}

/// Policies the sweep records.
pub const POLICIES: [PlacementPolicy; 3] = [
    PlacementPolicy::FirstTouch,
    PlacementPolicy::Interleave,
    PlacementPolicy::ReplicateReadOnly,
];

/// Node counts the sweep records (striped topologies).
pub const NODE_COUNTS: [usize; 3] = [1, 2, 4];

/// One measured point of the NUMA sweep.
#[derive(Clone, Debug)]
pub struct NumaPoint {
    /// Workload driven.
    pub workload: &'static str,
    /// Virtual cores.
    pub cores: usize,
    /// NUMA nodes (striped topology).
    pub nnodes: usize,
    /// Placement policy name.
    pub policy: &'static str,
    /// Completed work units.
    pub ops: u64,
    /// Virtual nanoseconds elapsed.
    pub virt_ns: u64,
    /// Cross-node cache-line transfers, all labels summed.
    pub cross_node_transfers: u64,
    /// Cross-node transfers attributed to `radix-index` lines.
    pub index_cross: u64,
    /// Per-label cross-node totals plus flattened `nnodes × nnodes`
    /// source→destination matrices, sorted by total descending.
    pub attribution: Vec<(&'static str, Vec<u64>)>,
    /// Frees returned to a list/reservoir of the freeing core's node.
    pub on_node_frees: u64,
    /// Frees that had to travel to another node's reservoir.
    pub cross_node_frees: u64,
    /// Fault-installed frames homed on the faulting core's node.
    pub fault_frames_on_node: u64,
    /// Fault-installed frames homed on a remote node.
    pub fault_frames_cross_node: u64,
}

impl NumaPoint {
    /// Work units per virtual second.
    pub fn ops_per_sec(&self) -> f64 {
        ratio(self.ops as f64 * 1e9, self.virt_ns as f64)
    }

    /// The point as a record row. Its `attribution` lists one flattened
    /// source→destination matrix per label with any cross-node traffic.
    /// The labels with any cross-node traffic, with their matrices.
    fn live_attribution(&self) -> impl Iterator<Item = &(&'static str, Vec<u64>)> {
        self.attribution
            .iter()
            .filter(|(_, m)| m.iter().any(|&v| v > 0))
    }

    fn json(&self) -> Json {
        let attribution: Vec<Json> = self
            .live_attribution()
            .map(|(label, m)| {
                Json::obj()
                    .with("label", *label)
                    .with("total", m.iter().sum::<u64>())
                    .with("matrix", m.clone())
            })
            .collect();
        Json::obj()
            .with("workload", self.workload)
            .with("cores", self.cores)
            .with("nnodes", self.nnodes)
            .with("policy", self.policy)
            .with("ops_per_sec", Json::fixed(self.ops_per_sec(), 0))
            .with("cross_node_transfers", self.cross_node_transfers)
            .with("index_cross", self.index_cross)
            .with("on_node_frees", self.on_node_frees)
            .with("cross_node_frees", self.cross_node_frees)
            .with("fault_frames_on_node", self.fault_frames_on_node)
            .with("fault_frames_cross_node", self.fault_frames_cross_node)
            .with("attribution", attribution)
    }
}

/// Builds a machine whose pool *and* simulator cost model share one
/// striped `nnodes`-node topology under `policy`.
pub fn numa_machine(ncores: usize, nnodes: usize, policy: PlacementPolicy) -> Arc<Machine> {
    let mut cfg = MachineConfig::new(ncores);
    cfg.placement = policy;
    cfg.topology = Topology::striped(nnodes);
    Machine::with_config(cfg)
}

/// The default cost model carrying a striped `nnodes`-node topology.
pub fn numa_model(nnodes: usize) -> CostModel {
    CostModel::default().with_topology(Topology::striped(nnodes))
}

/// Runs one workload on the Radix backend at one (cores, nodes, policy)
/// configuration and captures the cross-node attribution before the
/// simulator tears down.
pub fn numa_point(
    workload: Workload,
    ncores: usize,
    nnodes: usize,
    policy: PlacementPolicy,
    duration_ns: u64,
) -> NumaPoint {
    let machine = numa_machine(ncores, nnodes, policy);
    let vm = build(&machine, BackendKind::Radix);
    let (point, attribution) = run_sim_collect(
        ncores,
        duration_ns,
        numa_model(nnodes),
        workload.on(&machine, &vm, ncores),
        sim::cross_node_transfers_by_label,
    );
    let pool = machine.pool().stats();
    let op = vm.op_stats();
    let total = |m: &[u64]| m.iter().sum::<u64>();
    NumaPoint {
        workload: workload.name(),
        cores: ncores,
        nnodes,
        policy: policy_name(policy),
        ops: point.units,
        virt_ns: point.virt_ns,
        cross_node_transfers: attribution.iter().map(|(_, m)| total(m)).sum(),
        index_cross: attribution
            .iter()
            .find(|(l, _)| *l == "radix-index")
            .map(|(_, m)| total(m))
            .unwrap_or(0),
        attribution,
        on_node_frees: pool.on_node_frees,
        cross_node_frees: pool.cross_node_frees,
        fault_frames_on_node: op.fault_frames_on_node,
        fault_frames_cross_node: op.fault_frames_cross_node,
    }
}

/// First-touch must beat interleave by at least this factor on disjoint
/// ops at 4 nodes: every interleaved allocation that leaves the node
/// pays hop-priced zeroing and drags remote page lines behind it.
pub const FT_OVER_INTERLEAVE_FLOOR: f64 = 1.2;

/// Evaluates the three NUMA gate conditions on the points `at(workload,
/// policy)` returns for the gate's core count on 4 nodes; returns the
/// record's `gate` section and the verdict.
pub fn check_numa(at: impl Fn(Workload, PlacementPolicy) -> NumaPoint) -> (Json, Gate) {
    use PlacementPolicy::{FirstTouch, Interleave, ReplicateReadOnly};
    let disjoint_ft = at(Workload::Disjoint, FirstTouch);
    let disjoint_il = at(Workload::Disjoint, Interleave);
    let churn_ft = at(Workload::IndexChurn, FirstTouch);
    let churn_rep = at(Workload::IndexChurn, ReplicateReadOnly);
    let contended = at(Workload::Contended, FirstTouch);
    let mut gate = Gate::new("NUMA placement");
    let ft_over_interleave = ratio(disjoint_ft.ops_per_sec(), disjoint_il.ops_per_sec());
    gate.fail_if(ft_over_interleave < FT_OVER_INTERLEAVE_FLOOR, || {
        format!(
            "first-touch is only {ft_over_interleave:.3}x interleave on disjoint ops at \
             {} nodes < floor {FT_OVER_INTERLEAVE_FLOOR}",
            disjoint_ft.nnodes
        )
    });
    gate.fail_if(churn_rep.index_cross >= churn_ft.index_cross, || {
        format!(
            "replicate-read-only moved {} cross-node radix-index lines vs first-touch's {} \
             on index churn — replication did not cut index traffic",
            churn_rep.index_cross, churn_ft.index_cross
        )
    });
    let contended_labels = contended.live_attribution().count();
    gate.fail_if(contended_labels == 0, || {
        "contended workload produced no cross-node transfer attribution (labels empty)".to_string()
    });
    let section = Json::obj()
        .with("cores", disjoint_ft.cores)
        .with("nnodes", disjoint_ft.nnodes)
        .with("ft_over_interleave_floor", FT_OVER_INTERLEAVE_FLOOR)
        .with("ft_over_interleave", Json::fixed(ft_over_interleave, 4))
        .with("ft_index_cross", churn_ft.index_cross)
        .with("replicate_index_cross", churn_rep.index_cross)
        .with("contended_labels", contended_labels);
    (gate.stamp(section), gate)
}

/// The `numa` record: every workload × node count × policy at each core
/// count, gated on the largest core count's 4-node points. Default cores
/// are 16, or 8 under `--quick` (cores stripe across up to 4 nodes, so
/// both put multiple cores on every node).
pub fn record(inp: &Inputs) -> Record {
    let cores = inp.cores(&[8], &[16]);
    let dur = inp.duration_ns();
    let mut points: Vec<NumaPoint> = Vec::new();
    for &ncores in &cores {
        for &nnodes in &NODE_COUNTS {
            for policy in POLICIES {
                for w in [
                    Workload::Disjoint,
                    Workload::Contended,
                    Workload::IndexChurn,
                ] {
                    let p = numa_point(w, ncores, nnodes, policy, dur);
                    eprint!("  {}", p.json().pretty());
                    points.push(p);
                }
            }
        }
    }
    let gate_cores = *cores.last().expect("RVM_CORES is never empty");
    let (gate_section, gate) = check_numa(|w, policy| {
        let found = points.iter().find(|p| {
            p.workload == w.name()
                && p.cores == gate_cores
                && p.nnodes == 4
                && p.policy == policy_name(policy)
        });
        found.expect("the sweep covers every gate point").clone()
    });
    let json = Json::obj()
        .with("schema", 1u64)
        .with("bench", "numa")
        .with(
            "workloads",
            "disjoint local cycles / contended 4-page range / index churn through one hot \
             interior node",
        )
        .with("cores", cores)
        .with("node_counts", NODE_COUNTS.to_vec())
        .with("policies", POLICIES.map(policy_name).to_vec())
        .with(
            "points",
            points.iter().map(NumaPoint::json).collect::<Vec<_>>(),
        )
        .with("gate", gate_section);
    Record {
        json,
        gates: vec![gate],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checked-in NUMA placement gate at 8 cores / 4 nodes:
    /// first-touch ≥ 1.2× interleave on disjoint ops, replication cuts
    /// cross-node radix-index traffic, and contended attribution is
    /// non-empty. Deterministic — not a flaky perf test.
    #[test]
    fn numa_placement_gate() {
        let (_, gate) = check_numa(|w, policy| numa_point(w, 8, 4, policy, 3_000_000));
        assert!(
            gate.passed(),
            "NUMA gate failed:\n  {}",
            gate.failures.join("\n  ")
        );
    }

    /// `nnodes = 1` degenerates to the flat model: no cross-node
    /// transfers, no cross-node frees, identical pricing (the existing
    /// BENCH gates verify the numbers themselves stay put).
    #[test]
    fn single_node_is_flat() {
        for policy in POLICIES {
            let p = numa_point(Workload::Disjoint, 4, 1, policy, 1_000_000);
            assert!(p.ops > 0, "{}: no progress", p.policy);
            assert_eq!(
                p.cross_node_transfers, 0,
                "{}: cross-node on 1 node",
                p.policy
            );
            assert_eq!(
                p.cross_node_frees, 0,
                "{}: cross-node frees on 1 node",
                p.policy
            );
            assert_eq!(
                p.fault_frames_cross_node, 0,
                "{}: cross-node fault frames on 1 node",
                p.policy
            );
        }
    }

    /// Disjoint ops under first-touch stay node-local even on 4 nodes:
    /// every fault frame is homed where it faulted.
    #[test]
    fn first_touch_disjoint_is_node_local() {
        let p = numa_point(
            Workload::Disjoint,
            8,
            4,
            PlacementPolicy::FirstTouch,
            1_000_000,
        );
        assert!(p.ops > 0);
        assert_eq!(
            p.fault_frames_cross_node, 0,
            "first-touch faulted remote frames"
        );
        assert!(p.fault_frames_on_node > 0);
    }

    /// Interleave actually spreads: a 4-node run places roughly 3/4 of
    /// fault frames off-node.
    #[test]
    fn interleave_spreads_fault_frames() {
        let p = numa_point(
            Workload::Disjoint,
            8,
            4,
            PlacementPolicy::Interleave,
            1_000_000,
        );
        let total = p.fault_frames_on_node + p.fault_frames_cross_node;
        assert!(total > 0);
        let remote_share = p.fault_frames_cross_node as f64 / total as f64;
        assert!(
            remote_share > 0.5,
            "interleave placed only {remote_share:.2} of frames remotely"
        );
    }
}
