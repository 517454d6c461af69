//! The huge-mapping (superpage) workload: 4 KiB vs. variable-granularity
//! fault throughput and index size.
//!
//! RadixVM's radix tree folds a whole aligned 2 MiB mapping into one
//! interior slot; with variable-granularity support that fold now reaches
//! the hardware: one block PTE, one span TLB entry, one contiguous frame
//! block, one Refcache object. This module measures what that buys on the
//! workload the fold was designed for — populating large aligned
//! anonymous mappings — by driving every backend through the same
//! mmap→touch-every-page cycle twice, with and without the
//! [`MapFlags::HUGE`] hint, on the deterministic simulator.
//!
//! Per point it records faults-to-populate (the hinted radix path takes
//! **one** fault per 2 MiB instead of 512), superpage installs/demotions,
//! index bytes (the fold keeps one folded value where the 4 KiB path
//! expands 512 leaf copies), page-table bytes, and virtual time.
//! [`check_gate`] turns the hinted/unhinted pair into the acceptance bar
//! recorded in `BENCH_huge.json`: ≥ [`HUGE_FAULT_RATIO_FLOOR`]× fewer
//! faults and strictly smaller index bytes, enforced by the `huge`
//! scenario ([`record`]) in CI alongside the fastpath and scale gates.

use std::sync::Arc;

use rvm_hw::{Backing, Machine, MapFlags, OpStats, Prot, VmSystem, BLOCK_PAGES, PAGE_SIZE};
use rvm_sync::sim::{self, SimGuard};
use rvm_sync::CostModel;

use crate::{build, ratio, BackendKind, Gate, Inputs, Json, Record};

/// Virtual-address base of the huge workload (2 MiB aligned, clear of
/// the other workloads' regions).
const HUGE_BASE: u64 = 0x500_0000_0000;

/// Bytes of one superpage block.
pub const BLOCK_BYTES: u64 = BLOCK_PAGES * PAGE_SIZE;

/// One measured populate run.
#[derive(Clone, Debug)]
pub struct HugePoint {
    /// Whether the mapping carried the huge-page hint.
    pub hinted: bool,
    /// 2 MiB blocks mapped and touched.
    pub blocks: u64,
    /// Page faults taken to populate every page.
    pub faults: u64,
    /// Superpage PTE installs reported by the backend.
    pub superpage_installs: u64,
    /// Superpage demotions reported by the backend.
    pub superpage_demotions: u64,
    /// Superpage promotions reported by the backend.
    pub superpage_promotions: u64,
    /// Index (metadata) bytes after populating.
    pub index_bytes: u64,
    /// Hardware page-table bytes after populating.
    pub pagetable_bytes: u64,
    /// Virtual nanoseconds for the whole populate.
    pub virt_ns: u64,
}

impl HugePoint {
    /// Pages touched.
    pub fn pages(&self) -> u64 {
        self.blocks * BLOCK_PAGES
    }

    /// Pages populated per virtual second.
    pub fn pages_per_sec(&self) -> f64 {
        ratio(self.pages() as f64 * 1e9, self.virt_ns as f64)
    }

    /// The point as a record row.
    fn json(&self) -> Json {
        Json::obj()
            .with("mode", if self.hinted { "huge" } else { "4k" })
            .with("faults", self.faults)
            .with("superpage_installs", self.superpage_installs)
            .with("superpage_demotions", self.superpage_demotions)
            .with("superpage_promotions", self.superpage_promotions)
            .with("index_bytes", self.index_bytes)
            .with("pagetable_bytes", self.pagetable_bytes)
            .with("pages_per_sec", Json::fixed(self.pages_per_sec(), 0))
    }
}

/// Touches every page of the `blocks`-block region at [`HUGE_BASE`] from
/// `core`, writing `value`; returns the page faults that took and the
/// counters after it.
fn touch_region(
    machine: &Machine,
    vm: &dyn VmSystem,
    core: usize,
    blocks: u64,
    value: u8,
) -> (u64, OpStats) {
    let faults = |st: OpStats| st.faults_alloc + st.faults_fill + st.faults_cow;
    let before = faults(vm.op_stats());
    for page in 0..blocks * BLOCK_PAGES {
        machine
            .touch_page(core, vm, HUGE_BASE + page * PAGE_SIZE, value)
            .expect("every page of the region is mapped");
    }
    let st = vm.op_stats();
    (faults(st) - before, st)
}

/// Installs the simulator for `ncores` cores, driving from core 0, then
/// builds `kind` on a fresh machine with every core attached and maps
/// `blocks` aligned 2 MiB blocks at [`HUGE_BASE`] with `flags`.
fn huge_region(
    ncores: usize,
    kind: BackendKind,
    blocks: u64,
    flags: MapFlags,
) -> (SimGuard, Arc<Machine>, Arc<dyn VmSystem>) {
    let guard = sim::install(ncores, CostModel::default());
    sim::switch(0);
    let machine = Machine::new(ncores);
    let vm = build(&machine, kind);
    for c in 0..ncores {
        vm.attach_core(c);
    }
    let bytes = blocks * BLOCK_BYTES;
    vm.mmap_flags(0, HUGE_BASE, bytes, Prot::RW, Backing::Anon, flags)
        .expect("mapping the huge region");
    (guard, machine, vm)
}

/// Maps `blocks` aligned 2 MiB blocks (hinted or not) and touches every
/// page, on one simulated core. Deterministic: same inputs, same point.
pub fn populate_point(kind: BackendKind, hinted: bool, blocks: u64) -> HugePoint {
    let flags = if hinted {
        MapFlags::HUGE
    } else {
        MapFlags::NONE
    };
    let (guard, machine, vm) = huge_region(1, kind, blocks, flags);
    let (faults, st) = touch_region(&machine, &*vm, 0, blocks, 1);
    let usage = vm.space_usage();
    let stats = guard.finish();
    HugePoint {
        hinted,
        blocks,
        faults,
        superpage_installs: st.superpage_installs,
        superpage_demotions: st.superpage_demotions,
        superpage_promotions: st.superpage_promotions,
        index_bytes: usage.index_bytes,
        pagetable_bytes: usage.pagetable_bytes,
        virt_ns: stats.max_clock(),
    }
}

/// Populating a hinted aligned region must take at least this many times
/// fewer faults than the 4 KiB path (acceptance bar; the actual ratio is
/// the full 512 when every block folds).
pub const HUGE_FAULT_RATIO_FLOOR: f64 = 8.0;

/// Evaluates the huge-mapping gate from a hinted/unhinted pair; returns
/// the record's `gate` section and the verdict.
///
/// Conditions:
/// 1. faults(4 KiB) / faults(huge) ≥ [`HUGE_FAULT_RATIO_FLOOR`];
/// 2. hinted `index_bytes` strictly smaller than unhinted (the fold
///    survives population instead of expanding into 512 leaf copies);
/// 3. the hinted run actually installed superpages.
pub fn check_gate(huge: &HugePoint, four_k: &HugePoint) -> (Json, Gate) {
    let fault_ratio = if huge.faults == 0 {
        f64::INFINITY
    } else {
        four_k.faults as f64 / huge.faults as f64
    };
    let mut gate = Gate::new("huge-mapping");
    gate.fail_if(fault_ratio < HUGE_FAULT_RATIO_FLOOR, || {
        format!(
            "fault ratio {fault_ratio:.1} ({} vs {}) < floor {HUGE_FAULT_RATIO_FLOOR}",
            four_k.faults, huge.faults
        )
    });
    gate.fail_if(huge.index_bytes >= four_k.index_bytes, || {
        format!(
            "hinted index bytes {} not strictly smaller than 4 KiB {}",
            huge.index_bytes, four_k.index_bytes
        )
    });
    gate.fail_if(huge.superpage_installs == 0, || {
        "hinted run installed no superpages".into()
    });
    let section = Json::obj()
        .with("fault_ratio_floor", HUGE_FAULT_RATIO_FLOOR)
        .with("fault_ratio", Json::fixed(fault_ratio, 1))
        .with("faults_huge", huge.faults)
        .with("faults_4k", four_k.faults)
        .with("index_bytes_huge", huge.index_bytes)
        .with("index_bytes_4k", four_k.index_bytes)
        .with("superpage_installs", huge.superpage_installs);
    (gate.stamp(section), gate)
}

// --- Demote-then-converge: the promotion gate (DESIGN.md §12) ---

/// A converged (promoted) address space may cost at most this factor
/// more than one that never demoted, in probe faults and index bytes.
pub const CONVERGE_RATIO_CEIL: f64 = 1.25;

/// One populate-(demote-converge)-probe run.
#[derive(Clone, Debug)]
pub struct ConvergeRun {
    /// Demotions taken by the mprotect round-trips (one per block).
    pub demotions: u64,
    /// Promotions the fault path's fill counters triggered.
    pub promotions: u64,
    /// Faults the convergence sweep itself took (the promotion price:
    /// ~threshold faults per block, then the span entry serves the rest).
    pub converge_faults: u64,
    /// Fresh-core probe faults after convergence (1 per block when the
    /// fold is back; 512 per block if promotion failed).
    pub probe_faults: u64,
    /// Index bytes after convergence (severed leaves drained).
    pub index_bytes: u64,
}

/// One populate-(demote-converge)-probe run on full RadixVM: two
/// simulated cores, core 0 drives, core 1 probes at the end. Without
/// `demote` it is the never-demoted baseline.
pub fn converge_run(demote: bool, blocks: u64) -> ConvergeRun {
    let (_guard, machine, vm) = huge_region(2, BackendKind::Radix, blocks, MapFlags::HUGE);
    touch_region(&machine, &*vm, 0, blocks, 1);
    let mut converge_faults = 0;
    if demote {
        // Demote every block with a sub-block protection round-trip
        // (revoke-and-restore, e.g. a GC write barrier), then touch the
        // whole region again: the fill counters re-fold each block from
        // the fault path — no background thread.
        for b in 0..blocks {
            let base = HUGE_BASE + b * BLOCK_BYTES;
            vm.mprotect(0, base, 8 * PAGE_SIZE, Prot::READ)
                .expect("revoke");
            vm.mprotect(0, base, 8 * PAGE_SIZE, Prot::RW)
                .expect("restore");
        }
        converge_faults = touch_region(&machine, &*vm, 0, blocks, 2).0;
    }
    // Drain deferred reclamation (severed leaves, surrendered refs) so
    // the index measurement reflects the converged steady state.
    vm.quiesce();
    let index_bytes = vm.space_usage().index_bytes;
    let (probe_faults, st) = touch_region(&machine, &*vm, 1, blocks, 3);
    ConvergeRun {
        demotions: st.superpage_demotions,
        promotions: st.superpage_promotions,
        converge_faults,
        probe_faults,
        index_bytes,
    }
}

/// Evaluates the promotion gate on a demote-then-converge `run` of
/// `blocks` blocks against the never-demoted `base`; returns the
/// record's `converge` section and the verdict:
///
/// 1. the fill counters actually promoted (one per demoted block);
/// 2. a fresh core's probe faults are within [`CONVERGE_RATIO_CEIL`] of
///    the never-demoted run (the span fault path is back);
/// 3. index bytes are within [`CONVERGE_RATIO_CEIL`] of the
///    never-demoted run (the 512 leaf copies re-folded and freed).
pub fn check_converge(base: &ConvergeRun, run: &ConvergeRun, blocks: u64) -> (Json, Gate) {
    let (probe, probe_b) = (run.probe_faults, base.probe_faults);
    let (index, index_b) = (run.index_bytes, base.index_bytes);
    let mut gate = Gate::new("promotion");
    gate.fail_if(run.promotions < blocks, || {
        format!(
            "only {}/{blocks} demoted blocks promoted back",
            run.promotions
        )
    });
    gate.fail_if(
        (probe as f64) > probe_b as f64 * CONVERGE_RATIO_CEIL,
        || {
            format!(
                "post-promotion probe faults {probe} exceed {CONVERGE_RATIO_CEIL}x \
             never-demoted {probe_b}"
            )
        },
    );
    gate.fail_if(
        (index as f64) > index_b as f64 * CONVERGE_RATIO_CEIL,
        || {
            format!(
                "post-promotion index bytes {index} exceed {CONVERGE_RATIO_CEIL}x \
             never-demoted {index_b}"
            )
        },
    );
    let section = Json::obj()
        .with("ratio_ceil", CONVERGE_RATIO_CEIL)
        .with("demotions", run.demotions)
        .with("promotions", run.promotions)
        .with("converge_faults", run.converge_faults)
        .with("probe_faults", probe)
        .with("probe_faults_baseline", probe_b)
        .with("index_bytes", index)
        .with("index_bytes_baseline", index_b);
    (gate.stamp(section), gate)
}

// --- The 16-core span-shootdown sweep ---

/// Cores in the shootdown sweep.
pub const SWEEP_CORES: usize = 16;

/// One point of the span-shootdown sweep.
#[derive(Clone, Debug)]
pub struct ShootdownPoint {
    /// Cores sharing the block's span TLB entry (including the driver).
    pub sharers: usize,
    /// IPIs one demote + converge + promote cycle actually sent: span
    /// protocol, one invalidation message per *sharing* core per round.
    pub span_ipis: u64,
    /// What the same cycle would send invalidating page-by-page: both
    /// span teardowns (demote and promote) priced at one message per
    /// 4 KiB entry per remote sharer.
    pub per_page_ipis: u64,
    /// Promotions observed (the cycle must re-fold the block).
    pub promotions: u64,
    /// Disjoint pages the non-sharing cores faulted during the cycle —
    /// targeted shootdown means none of them receives an IPI.
    pub bg_faults: u64,
    /// Virtual nanoseconds for the whole cycle (max over cores).
    pub virt_ns: u64,
}

/// Drives the span-shootdown sweep: on a [`SWEEP_CORES`]-core machine,
/// `sharers` cores map one hinted block into their TLBs, core 0 then
/// demotes it (protection round-trip) and promotes it back through the
/// fault path, while every non-sharing core faults disjoint private
/// pages. Records the actual span-invalidation IPI cost against the
/// per-page-priced equivalent, per sharer count.
pub fn shootdown_sweep() -> Vec<ShootdownPoint> {
    let mut points = Vec::new();
    for sharers in [1usize, 2, 4, 8, SWEEP_CORES] {
        let (guard, machine, vm) = huge_region(SWEEP_CORES, BackendKind::Radix, 1, MapFlags::HUGE);
        // Private disjoint regions for the background cores.
        const BG_PAGES: u64 = 64;
        let bg_base = |c: usize| HUGE_BASE + (1 + c as u64) * (1 << 30);
        for c in sharers..SWEEP_CORES {
            sim::switch(c);
            vm.mmap(
                c,
                bg_base(c),
                2 * BG_PAGES * PAGE_SIZE,
                Prot::RW,
                Backing::Anon,
            )
            .expect("bg mmap");
        }
        // Every sharer pulls the span entry into its TLB.
        for c in 0..sharers {
            sim::switch(c);
            machine.touch_page(c, &*vm, HUGE_BASE, 1).expect("share");
        }
        sim::switch(0);
        let ipis0 = machine.stats().shootdown_ipis;
        let promotions0 = vm.op_stats().superpage_promotions;
        let clock0 = (0..SWEEP_CORES).map(sim::clock).max().unwrap();
        let mut bg_faults = 0u64;
        let mut bg_batch = |phase: u64| {
            for c in sharers..SWEEP_CORES {
                sim::switch(c);
                for p in 0..BG_PAGES {
                    machine
                        .touch_page(c, &*vm, bg_base(c) + (phase * BG_PAGES + p) * PAGE_SIZE, 1)
                        .expect("bg touch");
                    bg_faults += 1;
                }
            }
            sim::switch(0);
        };
        // Demote: span shootdown to the sharing cores only.
        vm.mprotect(0, HUGE_BASE, 8 * PAGE_SIZE, Prot::READ)
            .expect("revoke");
        vm.mprotect(0, HUGE_BASE, 8 * PAGE_SIZE, Prot::RW)
            .expect("restore");
        bg_batch(0);
        // Converge: the fill counter promotes the block back; the refold
        // shoots the 4 KiB entries down, again span-priced.
        for page in 0..BLOCK_PAGES {
            machine
                .touch_page(0, &*vm, HUGE_BASE + page * PAGE_SIZE, 2)
                .expect("converge");
        }
        bg_batch(1);
        let span_ipis = machine.stats().shootdown_ipis - ipis0;
        let promotions = vm.op_stats().superpage_promotions - promotions0;
        let virt_ns = (0..SWEEP_CORES).map(sim::clock).max().unwrap() - clock0;
        let per_page_ipis = 2 * (sharers as u64 - 1) * BLOCK_PAGES;
        drop(vm);
        let _ = guard.finish();
        points.push(ShootdownPoint {
            sharers,
            span_ipis,
            per_page_ipis,
            promotions,
            bg_faults,
            virt_ns,
        });
    }
    points
}

/// Sanity conditions for the sweep (CI smoke): every point promoted,
/// and with remote sharers the span protocol beat per-page pricing.
pub fn check_sweep(points: &[ShootdownPoint]) -> Gate {
    let mut gate = Gate::new("span-shootdown sweep");
    for p in points {
        gate.fail_if(p.promotions == 0, || {
            format!("{} sharers: no promotion", p.sharers)
        });
        gate.fail_if(p.sharers > 1 && p.span_ipis >= p.per_page_ipis, || {
            format!(
                "{} sharers: span shootdown sent {} IPIs, not fewer than \
                 per-page {}",
                p.sharers, p.span_ipis, p.per_page_ipis
            )
        });
    }
    gate
}

/// The `huge` record, in three sections:
///
/// * `backends` — every backend populates an aligned multi-block
///   anonymous mapping with and without the `MapFlags::HUGE` hint
///   (hint-ignoring backends behave identically either way, so they get
///   a single 4 KiB row), gated by [`check_gate`] on RadixVM;
/// * `converge` — the demote-then-converge promotion gate
///   ([`check_converge`]);
/// * `shootdown_sweep` — the 16-core span-shootdown sweep
///   ([`check_sweep`]).
///
/// Blocks per run: 8, or 2 under `--quick`.
pub fn record(inp: &Inputs) -> Record {
    let blocks = inp.pick(2, 8);
    let mut backends = Json::obj();
    let mut radix = None;
    for kind in BackendKind::ALL {
        let modes: &[bool] = if kind.hint_aware() {
            &[true, false]
        } else {
            &[false]
        };
        let points: Vec<HugePoint> = modes
            .iter()
            .map(|&hinted| populate_point(kind, hinted, blocks))
            .collect();
        let rows: Vec<Json> = points.iter().map(HugePoint::json).collect();
        rows.iter()
            .for_each(|row| eprint!("  {kind}: {}", row.pretty()));
        backends = backends.with(kind.name(), rows);
        if kind == BackendKind::Radix {
            radix = Some(check_gate(&points[0], &points[1]));
        }
    }
    let (gate_section, gate) = radix.expect("RadixVM was populated");

    eprintln!("demote-then-converge on RadixVM ({blocks} blocks)...");
    let base = converge_run(false, blocks);
    let run = converge_run(true, blocks);
    let (converge_section, converge_gate) = check_converge(&base, &run, blocks);
    eprintln!("span-shootdown sweep ({SWEEP_CORES} cores)...");
    let sweep = shootdown_sweep();
    let sweep_rows: Vec<Json> = sweep
        .iter()
        .map(|p| {
            Json::obj()
                .with("sharers", p.sharers)
                .with("span_ipis", p.span_ipis)
                .with("per_page_ipis", p.per_page_ipis)
                .with("promotions", p.promotions)
                .with("bg_faults", p.bg_faults)
                .with("virt_ns", p.virt_ns)
        })
        .collect();
    let json = Json::obj()
        .with("schema", 2u64)
        .with("bench", "huge")
        .with(
            "workload",
            format!(
                "populate {blocks} aligned 2 MiB anonymous blocks, huge hint vs 4 KiB; \
                 demote-then-converge promotion gate; 16-core span-shootdown sweep"
            ),
        )
        .with("blocks", blocks)
        .with("backends", backends)
        .with("converge", converge_section)
        .with("shootdown_sweep", sweep_rows)
        .with("gate", gate_section);
    Record {
        json,
        gates: vec![gate, converge_gate, check_sweep(&sweep)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checked-in huge-mapping gate: populating an aligned
    /// 2 MiB-hinted region takes ≥ 8× fewer faults (actually 512×) and
    /// strictly less index memory than 4 KiB mappings. Deterministic.
    #[test]
    fn huge_mapping_gate() {
        let huge = populate_point(BackendKind::Radix, true, 2);
        let four_k = populate_point(BackendKind::Radix, false, 2);
        let (_, gate) = check_gate(&huge, &four_k);
        assert!(
            gate.passed(),
            "huge-mapping gate failed:\n  {}",
            gate.failures.join("\n  ")
        );
        // The ratio is not marginal: one fault per block.
        assert_eq!(huge.faults, huge.blocks);
        assert_eq!(four_k.faults, huge.blocks * BLOCK_PAGES);
    }

    /// A hinted run that took no faults makes the fault ratio infinite;
    /// the record must still parse, so the ratio renders as `null` and
    /// the gate names the missing superpages.
    #[test]
    fn gate_section_renders_an_infinite_ratio_as_null() {
        let mut huge = populate_point(BackendKind::Radix, true, 1);
        huge.faults = 0;
        huge.superpage_installs = 0;
        let four_k = populate_point(BackendKind::Radix, false, 1);
        let (section, gate) = check_gate(&huge, &four_k);
        assert!(section.pretty().contains("\"fault_ratio\": null"));
        assert!(section.pretty().contains("\"passed\": false"));
        assert_eq!(gate.failures, ["hinted run installed no superpages"]);
    }

    #[test]
    fn hint_is_harmless_on_every_backend() {
        // Every backend completes the hinted populate; results match the
        // unhinted run page-for-page (faults may differ, contents not).
        for kind in BackendKind::ALL {
            let p = populate_point(kind, true, 1);
            assert_eq!(p.pages(), BLOCK_PAGES, "{kind}");
            assert!(p.faults >= 1, "{kind}");
        }
    }

    #[test]
    fn hint_ignoring_backends_match_their_4k_run() {
        // The dedup in the `huge` record is sound: a hint-ignoring backend
        // produces identical points hinted and unhinted.
        for kind in BackendKind::ALL {
            if kind.hint_aware() {
                continue;
            }
            let hinted = populate_point(kind, true, 1);
            let plain = populate_point(kind, false, 1);
            assert_eq!(hinted.faults, plain.faults, "{kind}");
            assert_eq!(hinted.index_bytes, plain.index_bytes, "{kind}");
            assert_eq!(hinted.superpage_installs, 0, "{kind}");
        }
    }

    /// The checked-in promotion gate: after demoting every block and
    /// re-touching, the fill counters promote each block back, and a
    /// fresh core pays span-fault prices again. Deterministic.
    #[test]
    fn promotion_gate() {
        let base = converge_run(false, 2);
        let run = converge_run(true, 2);
        let (_, gate) = check_converge(&base, &run, 2);
        assert!(
            gate.passed(),
            "promotion gate failed:\n  {}",
            gate.failures.join("\n  ")
        );
        assert_eq!(run.demotions, 2);
        assert_eq!(run.promotions, 2);
        // The probe is not marginal: one fault per block on both sides.
        assert_eq!(run.probe_faults, base.probe_faults);
    }

    #[test]
    fn shootdown_sweep_spans_beat_per_page() {
        let points = shootdown_sweep();
        assert_eq!(points.len(), 5);
        let gate = check_sweep(&points);
        assert!(gate.passed(), "{}", gate.failures.join("\n"));
        // Background cores never stall: every disjoint fault completed.
        for p in &points {
            assert_eq!(
                p.bg_faults,
                2 * 64 * (SWEEP_CORES - p.sharers) as u64,
                "{} sharers",
                p.sharers
            );
        }
    }
}
