//! Emits the multicore scalability record (`BENCH_scale.json`) to
//! stdout and enforces the disjoint-ops scaling gate.
//!
//! The sweep drives every backend through `rvm_backend::build()` over
//! the disjoint mmap/touch/munmap workload on 1..N simulated cores
//! (Figure 5 local's experiment), recording ops per virtual second, per-core
//! retention vs. 1 core, remote cache-line transfers per op, and
//! shootdown IPIs per op. The gate (radix retention ≥ 70 % at max
//! cores, O(1) remote traffic per op, and a strictly better slope than
//! the Bonsai/Linux baselines) exits non-zero on regression, so the CI
//! smoke step fails loudly.
//!
//! Usage: `cargo run --release -p rvm_bench --bin bench_scale [--quick]`
//! (or `scripts/bench_record.sh`, which redirects into the checked-in
//! JSON). Env: `RVM_CORES=1,4,...`, `RVM_DUR_MS`.

use rvm_bench::scale::{
    check_contended, check_gate, check_overlap, contended_sweep, disjoint_sweep, overlap_sweep,
    retention, scale_core_counts, OverlapSweep, ScalePoint, CONTENDED_DEGRADATION_FLOOR,
    CONTENDED_REMOTE_PER_OP_CEIL, OVERLAP_DEGRADATION_FLOOR, OVERLAP_DEGREES,
    OVERLAP_RETENTION_FLOOR, RADIX_REMOTE_PER_OP_CEIL, RADIX_RETENTION_FLOOR,
};
use rvm_bench::{duration_ns, BackendKind};

fn print_backend(name: &str, points: &[ScalePoint], last: bool) {
    println!("    \"{name}\": {{");
    println!(
        "      \"retention_at_max_cores\": {:.4},",
        retention(points)
    );
    println!("      \"points\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 == points.len() { "" } else { "," };
        println!(
            "        {{\"cores\": {}, \"ops_per_sec\": {:.0}, \
             \"per_core_ops_per_sec\": {:.0}, \"remote_per_op\": {:.4}, \
             \"ipis_per_op\": {:.4}, \"on_node_frees\": {}, \
             \"cross_node_frees\": {}}}{comma}",
            p.cores,
            p.ops_per_sec(),
            p.per_core_ops_per_sec(),
            p.remote_per_op(),
            p.ipis_per_op(),
            p.on_node_frees,
            p.cross_node_frees,
        );
    }
    println!("      ]");
    println!("    }}{}", if last { "" } else { "," });
}

fn main() {
    let cores = scale_core_counts();
    let dur = duration_ns();
    let mut sweeps: Vec<(BackendKind, Vec<ScalePoint>)> = Vec::new();
    for kind in BackendKind::ALL {
        eprintln!("sweeping {kind} over {cores:?} cores...");
        let points = disjoint_sweep(kind, &cores, dur);
        for p in &points {
            eprintln!(
                "  {kind:>20} {:>3} cores: {:>12.0} ops/s ({:>10.0}/core, \
                 {:.3} remote/op, {:.3} ipi/op)",
                p.cores,
                p.ops_per_sec(),
                p.per_core_ops_per_sec(),
                p.remote_per_op(),
                p.ipis_per_op(),
            );
        }
        sweeps.push((kind, points));
    }
    let get = |k: BackendKind| {
        &sweeps
            .iter()
            .find(|(kind, _)| *kind == k)
            .unwrap_or_else(|| panic!("{k} sweep missing from results"))
            .1
    };
    let report = check_gate(
        get(BackendKind::Radix),
        get(BackendKind::Bonsai),
        get(BackendKind::Linux),
    );
    // The adversarial companion sweep: all cores hammering one range
    // (graceful-degradation gate; ROADMAP's contended-range item).
    eprintln!("sweeping contended range on RadixVM over {cores:?} cores...");
    let contended = contended_sweep(BackendKind::Radix, &cores, dur);
    for p in &contended {
        eprintln!(
            "  {:>20} {:>3} cores: {:>12.0} ops/s ({:.3} remote/op, {:.3} ipi/op)",
            "RadixVM/contended",
            p.cores,
            p.ops_per_sec(),
            p.remote_per_op(),
            p.ipis_per_op(),
        );
    }
    let contended_report = check_contended(&contended);

    // The range-lock substrate sweep: multi-page ops colliding with
    // probability 0/10/50/100 %, on both the list-based lock (the
    // default) and the slot-CAS-only baseline. The gate judges List.
    let mut overlap: Vec<(BackendKind, Vec<OverlapSweep>)> = Vec::new();
    for kind in [BackendKind::Radix, BackendKind::RadixSlotSpin] {
        eprintln!("sweeping overlap degrees on {kind} over {cores:?} cores...");
        let sweeps = overlap_sweep(kind, &OVERLAP_DEGREES, &cores, dur);
        for s in &sweeps {
            for p in &s.points {
                eprintln!(
                    "  {kind:>20} {:>3}% {:>3} cores: {:>12.0} ops/s \
                     ({:.3} remote/op, {:.3} ipi/op)",
                    s.degree,
                    p.cores,
                    p.ops_per_sec(),
                    p.remote_per_op(),
                    p.ipis_per_op(),
                );
            }
        }
        overlap.push((kind, sweeps));
    }
    let overlap_report = check_overlap(&overlap[0].1);

    println!("{{");
    println!("  \"schema\": 1,");
    println!("  \"bench\": \"scale\",");
    println!("  \"workload\": \"disjoint mmap+touch+munmap per core (Fig. 5 local)\",");
    print!("  \"cores\": [");
    print!(
        "{}",
        cores
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("],");
    println!("  \"backends\": {{");
    for (i, (kind, points)) in sweeps.iter().enumerate() {
        print_backend(kind.name(), points, i + 1 == sweeps.len());
    }
    println!("  }},");
    println!("  \"contended\": {{");
    println!(
        "    \"workload\": \"all cores touch ONE persistently mapped 4-page range, \
         remapping it every 16th cycle (a map-unmap-per-cycle shape privatizes the \
         range each op and measures ipis_per_op=0)\","
    );
    println!("    \"points\": [");
    for (i, p) in contended.iter().enumerate() {
        let comma = if i + 1 == contended.len() { "" } else { "," };
        println!(
            "      {{\"cores\": {}, \"ops_per_sec\": {:.0}, \"vs_serial\": {:.4}, \
             \"remote_per_op\": {:.4}, \"ipis_per_op\": {:.4}}}{comma}",
            p.cores,
            p.ops_per_sec(),
            p.ops_per_sec() / contended[0].ops_per_sec().max(1e-9),
            p.remote_per_op(),
            p.ipis_per_op(),
        );
    }
    println!("    ],");
    println!("    \"degradation_floor\": {CONTENDED_DEGRADATION_FLOOR},");
    println!("    \"remote_per_op_ceiling\": {CONTENDED_REMOTE_PER_OP_CEIL},");
    println!(
        "    \"worst_vs_serial\": {:.4},",
        contended_report.worst_ratio
    );
    println!(
        "    \"worst_remote_per_op\": {:.4},",
        contended_report.worst_remote_per_op
    );
    println!("    \"passed\": {}", contended_report.passed());
    println!("  }},");
    println!("  \"overlap\": {{");
    println!(
        "    \"workload\": \"16-page mmap+touch+munmap; each op collides on a shared \
         slice with probability <degree>%\","
    );
    println!("    \"degrees\": [0, 10, 50, 100],");
    println!("    \"substrates\": {{");
    for (bi, (kind, sweeps)) in overlap.iter().enumerate() {
        let subst = kind.meta().range_lock.name();
        println!("      \"{subst}\": {{");
        for (si, s) in sweeps.iter().enumerate() {
            let serial = s.points.first().map(|p| p.ops_per_sec()).unwrap_or(0.0);
            println!("        \"{}\": [", s.degree);
            for (i, p) in s.points.iter().enumerate() {
                let comma = if i + 1 == s.points.len() { "" } else { "," };
                println!(
                    "          {{\"cores\": {}, \"ops_per_sec\": {:.0}, \"vs_serial\": {:.4}, \
                     \"remote_per_op\": {:.4}, \"ipis_per_op\": {:.4}}}{comma}",
                    p.cores,
                    p.ops_per_sec(),
                    p.ops_per_sec() / serial.max(1e-9),
                    p.remote_per_op(),
                    p.ipis_per_op(),
                );
            }
            let comma = if si + 1 == sweeps.len() { "" } else { "," };
            println!("        ]{comma}");
        }
        let comma = if bi + 1 == overlap.len() { "" } else { "," };
        println!("      }}{comma}");
    }
    println!("    }},");
    println!("    \"retention_floor_at_0\": {OVERLAP_RETENTION_FLOOR},");
    println!("    \"degradation_floor_at_100\": {OVERLAP_DEGRADATION_FLOOR},");
    println!(
        "    \"list_disjoint_retention\": {:.4},",
        overlap_report.disjoint_retention
    );
    println!(
        "    \"list_full_overlap_worst_vs_serial\": {:.4},",
        overlap_report.full_overlap_worst_ratio
    );
    println!("    \"passed\": {}", overlap_report.passed());
    println!("  }},");
    println!("  \"gate\": {{");
    println!("    \"radix_retention_floor\": {RADIX_RETENTION_FLOOR},");
    println!("    \"radix_remote_per_op_ceiling\": {RADIX_REMOTE_PER_OP_CEIL},");
    println!("    \"radix_retention\": {:.4},", report.radix_retention);
    println!("    \"bonsai_retention\": {:.4},", report.bonsai_retention);
    println!("    \"linux_retention\": {:.4},", report.linux_retention);
    println!(
        "    \"radix_remote_per_op\": {:.4},",
        report.radix_remote_per_op
    );
    println!("    \"passed\": {}", report.passed());
    println!("  }}");
    println!("}}");

    if !report.passed() || !contended_report.passed() || !overlap_report.passed() {
        eprintln!("SCALING GATE FAILED:");
        for f in report
            .failures
            .iter()
            .chain(&contended_report.failures)
            .chain(&overlap_report.failures)
        {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    eprintln!(
        "scaling gate passed: radix retention {:.3} at {} cores \
         (bonsai {:.3}, linux {:.3}), {:.3} remote lines/op; \
         contended worst {:.3}x serial; overlap 0% retention {:.3}, \
         100% worst {:.3}x serial",
        report.radix_retention,
        report.max_cores,
        report.bonsai_retention,
        report.linux_retention,
        report.radix_remote_per_op,
        contended_report.worst_ratio,
        overlap_report.disjoint_retention,
        overlap_report.full_overlap_worst_ratio
    );
}
