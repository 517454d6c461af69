//! Fault-fast-path measurements: the virtual-time cost of repeated
//! same-block single-page faults through the radix tree, with and
//! without the per-core leaf hint cache, plus hint hit-rate accounting
//! and a wall-clock single-core fault-fill loop through the full
//! `RadixVm` stack.
//!
//! The `fastpath` scenario ([`record`]) writes these numbers as
//! `BENCH_fastpath.json` so successive changes have a perf trajectory,
//! and a unit test below holds the fast path to its acceptance bar
//! (≥ 25 % fewer virtual cycles per repeated same-block fault than the
//! plain descent).

use std::sync::Arc;
use std::time::Instant;

use rvm_core::RadixVm;
use rvm_hw::{Backing, Machine, Prot, VmSystem, PAGE_SIZE};
use rvm_radix::{LockMode, RadixConfig, RadixTree};
use rvm_refcache::Refcache;
use rvm_sync::{sim, CostModel};

use crate::{build, ratio, BackendKind, Inputs, Json, Record};

/// One measured configuration of the single-page fault loop.
#[derive(Clone, Debug)]
pub struct FastpathPoint {
    /// Virtual nanoseconds per repeated same-block single-page fault
    /// (tree component: lock, mutate metadata, unlock).
    pub virt_ns_per_fault: f64,
    /// Leaf-hint hits during the measured loop.
    pub hint_hits: u64,
    /// Leaf-hint misses during the measured loop.
    pub hint_misses: u64,
    /// Heap allocations charged by the simulator during the measured
    /// loop (InlineVec spills, node/object allocation).
    pub heap_allocs: u64,
}

impl FastpathPoint {
    /// Hint hit rate in [0, 1]; 0 when hints were disabled.
    pub fn hit_rate(&self) -> f64 {
        hit_rate(self.hint_hits, self.hint_misses)
    }
}

/// Hit rate of a hit/miss counter pair in [0, 1]; 0 when both are zero.
/// The one definition every fast-path report uses (`fig7_radix` and
/// the `fastpath` record), so counting or rounding changes
/// cannot skew one report against another.
pub fn hit_rate(hits: u64, misses: u64) -> f64 {
    ratio(hits as f64, (hits + misses) as f64)
}

/// Runs `iters` single-page fault-pattern operations (lock the page,
/// mutate its metadata, unlock) against pages of one 512-page block on
/// one simulated core, and reports the steady-state virtual-time cost.
///
/// The loop mimics `RadixVm::pagefault`'s tree work exactly: a
/// `LockMode::ExpandFolded` single-page range lock plus a
/// `page_value_mut` mutation. Warm-up faults (which expand the folded
/// block into a leaf) are excluded from the measurement.
pub fn tree_fault_point(leaf_hints: bool, iters: u64) -> FastpathPoint {
    let guard = sim::install(1, CostModel::default());
    let tree = same_block_tree(leaf_hints);
    // Warm the path: the first fault expands the folded block to a leaf;
    // a few more bring every touched line into the core's cache.
    (0..16).for_each(|i| same_block_fault(&tree, i));
    let hits0 = tree.stats().hint_hits();
    let misses0 = tree.stats().hint_misses();
    let allocs0 = sim::stats().cores[0].heap_allocs;
    let t0 = sim::clock(0);
    (0..iters).for_each(|i| same_block_fault(&tree, i));
    let t1 = sim::clock(0);
    let stats = guard.finish();
    let point = FastpathPoint {
        virt_ns_per_fault: (t1 - t0) as f64 / iters as f64,
        hint_hits: tree.stats().hint_hits() - hits0,
        hint_misses: tree.stats().hint_misses() - misses0,
        heap_allocs: stats.cores[0].heap_allocs - allocs0,
    };
    drop(tree);
    point
}

/// First page of the block [`same_block_tree`] maps.
const SAME_BLOCK: u64 = 512 * 11;

/// A one-core radix tree (collapse on, leaf hints as given) with one
/// aligned 512-page block mapped, folded into one interior slot.
pub fn same_block_tree(leaf_hints: bool) -> RadixTree<u64> {
    let cache = Arc::new(Refcache::new(1));
    let config = RadixConfig {
        collapse: true,
        leaf_hints,
        ..RadixConfig::default()
    };
    let tree = RadixTree::<u64>::new(cache, config);
    tree.lock_range(0, SAME_BLOCK, SAME_BLOCK + 512, LockMode::ExpandAll)
        .replace(&1);
    tree
}

/// The tree work of one single-page fault on page `i % 8` of the
/// [`same_block_tree`] block: an `ExpandFolded` range lock plus a page
/// metadata mutation, as `RadixVm::pagefault` does.
pub fn same_block_fault(tree: &RadixTree<u64>, i: u64) {
    let vpn = SAME_BLOCK + (i % 8);
    let mut g = tree.lock_range(0, vpn, vpn + 1, LockMode::ExpandFolded);
    *g.page_value_mut().expect("the block is mapped") += 1;
}

/// Relative improvement of the hinted fast path over the plain descent:
/// `(off - on) / off`, e.g. `0.4` = 40 % fewer virtual cycles.
pub fn fastpath_improvement(off: &FastpathPoint, on: &FastpathPoint) -> f64 {
    (off.virt_ns_per_fault - on.virt_ns_per_fault) / off.virt_ns_per_fault
}

/// Virtual-address base of the fill-fault pages.
pub const BASE: u64 = 0x70_0000_0000;

/// A one-core `kind` address space with `pages` resident pages at
/// [`BASE`], each ready to refault.
pub fn fill_fault_vm(kind: BackendKind, pages: u64) -> (Arc<Machine>, Arc<dyn VmSystem>) {
    let machine = Machine::new(1);
    let vm = build(&machine, kind);
    vm.attach_core(0);
    vm.mmap(0, BASE, pages * PAGE_SIZE, Prot::RW, Backing::Anon)
        .expect("fastpath warm-up mmap failed");
    for p in 0..pages {
        machine
            .touch_page(0, &*vm, BASE + p * PAGE_SIZE, 1)
            .expect("fastpath warm-up touch failed");
    }
    (machine, vm)
}

/// One fill fault on page `i % pages` of the resident region at `base`
/// (as [`fill_fault_vm`] maps at [`BASE`]): drops the page's TLB entry
/// and reads it back (lock page metadata, reinstall PTE and TLB entry).
pub fn refault(machine: &Machine, vm: &dyn VmSystem, base: u64, pages: u64, i: u64) {
    machine.invalidate_local(0, vm.asid(), (base >> 12) + i % pages, 1);
    machine
        .read_u64(0, vm, base + (i % pages) * PAGE_SIZE)
        .expect("refault read of a resident page");
}

/// Wall-clock single-core fault loop over [`refault`]. Returns (ops/sec,
/// hint hit rate).
fn real_fault_loop(iters: u64) -> (f64, f64) {
    let (machine, vm) = fill_fault_vm(BackendKind::Radix, 8);
    let radix = vm
        .as_any()
        .downcast_ref::<RadixVm>()
        .expect("Radix backend is a RadixVm");
    (0..1_000).for_each(|i| refault(&machine, &*vm, BASE, 8, i)); // warm-up
    let hits0 = radix.tree_stats().hint_hits();
    let misses0 = radix.tree_stats().hint_misses();
    let t0 = Instant::now();
    (0..iters).for_each(|i| refault(&machine, &*vm, BASE, 8, i));
    let elapsed = t0.elapsed().as_secs_f64();
    let hits = radix.tree_stats().hint_hits() - hits0;
    let misses = radix.tree_stats().hint_misses() - misses0;
    (iters as f64 / elapsed, hit_rate(hits, misses))
}

/// The `fastpath` record: simulated same-block faults with and without
/// leaf hints, and the wall-clock fault-fill loop. It has no gate; the
/// unit tests below hold the bar.
pub fn record(_: &Inputs) -> Record {
    let iters = 200_000u64;
    let descent = tree_fault_point(false, iters);
    let fast = tree_fault_point(true, iters);
    let improvement = fastpath_improvement(&descent, &fast) * 100.0;
    let (ops_per_sec, real_hit_rate) = real_fault_loop(1_000_000);
    let sim = Json::obj()
        .with("descent_ns", Json::fixed(descent.virt_ns_per_fault, 1))
        .with("fastpath_ns", Json::fixed(fast.virt_ns_per_fault, 1))
        .with("improvement_pct", Json::fixed(improvement, 1))
        .with("hint_hit_rate", Json::fixed(fast.hit_rate(), 4))
        .with(
            "steady_state_heap_allocs",
            fast.heap_allocs + descent.heap_allocs,
        );
    let real = Json::obj()
        .with("ops_per_sec", Json::fixed(ops_per_sec, 0))
        .with("ns_per_op", Json::fixed(1e9 / ops_per_sec, 1))
        .with("hint_hit_rate", Json::fixed(real_hit_rate, 4));
    // Fixed reference point: the same benches run against the tree
    // before leaf hints existed (Vec-based guards, per-level pins), with
    // the `pagefault_fill` VPN-invalidation fix applied so both sides
    // measure real faults. Lets any machine see the trajectory even
    // though absolute wall-clock numbers are host-dependent.
    let reference = Json::obj()
        .with("criterion_pagefault_fill_radixvm_ns", 244.0)
        .with("criterion_index_lookup_radix_ns", 109.3)
        .with("sim_descent_ns", 44.0);
    let json = Json::obj()
        .with("schema", 1u64)
        .with("bench", "fastpath")
        .with("sim_single_page_fault", sim)
        .with("real_fault_fill_loop_1core", real)
        .with("before_pr2_reference", reference);
    Record {
        json,
        gates: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_block_faults_meet_the_25_percent_bar() {
        // Acceptance criterion: the leaf-hint fast path costs at least
        // 25 % fewer virtual cycles per repeated same-block fault than
        // the full descent. The simulator is deterministic, so this is a
        // stable regression gate, not a flaky perf test.
        let off = tree_fault_point(false, 10_000);
        let improvement = fastpath_improvement(&off, &tree_fault_point(true, 10_000));
        assert!(
            improvement >= 0.25,
            "fast path improved by only {:.1}% (need ≥ 25%)",
            improvement * 100.0
        );
    }

    #[test]
    fn steady_state_hint_hit_rate_is_high_and_allocation_free() {
        let p = tree_fault_point(true, 10_000);
        assert!(p.hit_rate() > 0.99, "hit rate {:.3}", p.hit_rate());
        assert_eq!(
            p.heap_allocs, 0,
            "steady-state single-page faults must not charge allocations"
        );
        let off = tree_fault_point(false, 10_000);
        assert_eq!(off.hint_hits, 0, "hints disabled must never hit");
        assert_eq!(
            off.heap_allocs, 0,
            "the plain descent is also allocation-free after warm-up"
        );
    }
}
