//! What the benchmark reports: its workloads and metrics, with units,
//! direction and regression bounds. `BENCHMARK.json` at the repository
//! root is rendered from these tables (`perfbench --spec`), and a test
//! keeps the two in step.

use crate::json::Json;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 20;

/// The workloads and why each is in the set.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "local",
        "Fig. 5 local: private 4 KiB map-write-unmap per core; radix insert/remove, frame \
         alloc/free and Refcache frees, zero IPIs; the disjoint case that must scale",
    ),
    (
        "pipeline",
        "Fig. 5 pipeline: each page is written by its producer and unmapped by the next core; \
         one targeted IPI per munmap, remote frees and cross-core Refcache decrements",
    ),
    (
        "global",
        "Fig. 5 global: random writes over a shared region with periodic slice remaps; fill \
         faults, TLB misses and leaf-hint lookups, plus broadcast shootdowns",
    ),
    (
        "huge",
        "superpage lifecycle on private 2 MiB slots: block alloc, block PTE and span TLB \
         install, demotion by mprotect, promotion on rewrite, munmap",
    ),
];

/// Metrics a user of the system sees, reported by `--trace 0`.
///
/// Bounds sit at three times or more the spread (interquartile range over
/// median) seen over ten seeds, and above the shift of the median between
/// two sets of those runs. The virtual-time metrics barely spread; the
/// widest are `huge`'s mmap p50 and munmap tail (up to 0.054 and 0.047),
/// and `huge`'s peak metadata moved 2% between sets (the program's
/// address-keyed nondeterminism).
/// `setup_s` is host time and moves with whatever else loads the host, so
/// it carries the widest bound allowed. The host-thread metrics are
/// per-layer metrics (`host.*`): on a shared host their spread over ten
/// seeds reached 0.25 and single runs differed by up to half with other
/// tenants' load, wider than any regression bound may be.
pub const END_TO_END: [Metric; 10] = [
    e2e("sim_ops_per_s", "writes/virtual_s", Higher, 0.05),
    e2e("sim_ops_per_s_1core", "writes/virtual_s", Higher, 0.05),
    e2e("sim_fault_p50_ns", "virtual_ns", Lower, 0.10),
    e2e("sim_fault_p99_ns", "virtual_ns", Lower, 0.05),
    e2e("sim_mmap_p50_ns", "virtual_ns", Lower, 0.20),
    e2e("sim_mmap_tail_ns", "virtual_ns", Lower, 0.05),
    e2e("sim_munmap_p50_ns", "virtual_ns", Lower, 0.05),
    e2e("sim_munmap_tail_ns", "virtual_ns", Lower, 0.15),
    e2e("peak_meta_bytes", "bytes", Lower, 0.10),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Metrics of single layers, reported by `--trace 1`.
pub const PER_LAYER: [Metric; 44] = [
    layer("core.pagefault.sim_ns", "virtual_ns", Lower),
    layer("core.pagefault.host_ns", "ns", Lower),
    layer("core.fill_fault_frac", "ratio", Lower),
    layer("core.mmap.sim_ns", "virtual_ns", Lower),
    layer("core.mmap.host_ns", "ns", Lower),
    layer("core.munmap.sim_ns", "virtual_ns", Lower),
    layer("core.munmap.host_ns", "ns", Lower),
    layer("core.mprotect.sim_ns", "virtual_ns", Lower),
    layer("core.promotions_per_demotion", "ratio", Higher),
    layer("core.block_fallbacks", "count", Lower),
    layer("hw.access.self_sim_ns", "virtual_ns", Lower),
    layer("hw.access.self_host_ns", "ns", Lower),
    layer("hw.tlb_miss_rate", "ratio", Lower),
    layer("hw.ipis_per_munmap", "1/munmap", Lower),
    layer("hw.shootdown_rounds_per_munmap", "1/munmap", Lower),
    layer("hw.pagetable_bytes", "bytes", Lower),
    layer("radix.hint_hit_rate", "ratio", Higher),
    layer("radix.expansions_per_op", "1/op", Lower),
    layer("radix.nodes_collapsed_per_op", "1/op", Lower),
    layer("radix.guard_spills_per_op", "1/op", Lower),
    layer("radix.index_bytes", "bytes", Lower),
    layer("radix.remote_lines_per_op", "lines/op", Lower),
    layer("radix.slot_spins_per_op", "spins/op", Lower),
    layer("mem.reuse_rate", "ratio", Higher),
    layer("mem.remote_free_frac", "ratio", Lower),
    layer("mem.magazine_flushes_per_op", "1/op", Lower),
    layer("mem.remote_lines_per_op", "lines/op", Lower),
    layer("mem.block_allocs_per_op", "1/op", Lower),
    layer("refcache.maintain.sim_ns", "virtual_ns", Lower),
    layer("refcache.maintain.host_ns", "ns", Lower),
    layer("refcache.conflicts_per_op", "1/op", Lower),
    layer("refcache.flushes_per_op", "1/op", Lower),
    layer("refcache.dirty_zeros_per_op", "1/op", Lower),
    layer("refcache.revivals_per_op", "1/op", Lower),
    layer("sync.charged_ns_per_op", "virtual_ns/op", Lower),
    layer("sync.lock_wait_ns_per_op", "virtual_ns/op", Lower),
    layer("sync.remote_lines_per_op", "lines/op", Lower),
    layer("sync.heap_remote_lines_per_op", "lines/op", Lower),
    layer("sync.ipis_per_op", "1/op", Lower),
    layer("sync.heap_allocs_per_op", "1/op", Lower),
    layer("host.ops_per_s", "writes/s", Higher),
    layer("host.op_p50_ns", "ns", Lower),
    layer("host.op_p99_ns", "ns", Lower),
    layer("trace.host_overhead_frac", "ratio", Lower),
];

/// Looks up an end-to-end or per-layer metric by name.
pub fn metric(name: &str) -> &'static Metric {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the spec"))
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let metric_json = |m: &Metric| {
        let j = Json::obj()
            .with("name", m.name)
            .with("unit", m.unit)
            .with("better", m.better.as_str());
        match m.bound {
            Some(b) => j.with("bound", b),
            None => j,
        }
    };
    Json::obj()
        .with(
            "command",
            vec![
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "perfbench/Cargo.toml",
                "--",
            ],
        )
        .with("paths", vec!["perfbench"])
        .with("run_seconds", RUN_SECONDS)
        .with(
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(n, w)| Json::obj().with("name", *n).with("why", *w))
                    .collect(),
            ),
        )
        .with(
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric_json).collect()),
        )
        .with(
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric_json).collect()),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn spec_obeys_the_format_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            names.push(m.name);
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            if let Some(b) = m.bound {
                assert!(b > 0.0 && b <= 0.25, "{}", m.name);
            }
        }
        assert!(names.iter().all(|n| name_ok(n)));
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "a name is used twice");
        let setup = metric("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let max = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(max), "setup_s carries the largest bound");
    }

    #[test]
    fn checked_in_benchmark_json_matches() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the root");
        assert_eq!(
            on_disk,
            benchmark_json().pretty(),
            "regenerate with `cargo run --release --manifest-path perfbench/Cargo.toml -- --spec`"
        );
    }
}
