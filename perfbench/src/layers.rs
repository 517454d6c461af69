//! Counter snapshots from each crate's public stats surface, and the
//! per-layer metrics derived from them and from the spans.

use rvm_core::RadixVm;
use rvm_hw::{Machine, VmSystem};
use rvm_sync::sim;

use crate::stats::ratio;
use crate::trace::{NameTotals, SpanName, NAMES};

macro_rules! counters {
    ($($(#[$doc:meta])* $f:ident),* $(,)?) => {
        /// One reading of every counter the per-layer metrics use.
        #[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
        pub struct Counters {
            $($(#[$doc])* pub $f: u64,)*
        }

        impl Counters {
            /// `self - earlier`, field by field, clamped at 0 (see the
            /// line-label caveat on [`Counters::with_sim`]).
            pub fn since(&self, earlier: &Counters) -> Counters {
                Counters { $($f: self.$f.saturating_sub(earlier.$f),)* }
            }

            /// `self + other`, field by field.
            pub fn plus(&self, other: &Counters) -> Counters {
                Counters { $($f: self.$f.saturating_add(other.$f),)* }
            }

            /// Every field by name.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($f), self.$f),)*]
            }
        }
    };
}

counters! {
    // rvm_core: `VmSystem::op_stats`
    mmaps, munmaps, faults_alloc, faults_fill, faults_cow,
    superpage_installs, superpage_demotions, superpage_promotions, block_fallbacks,
    // rvm_hw: `Machine::stats`
    tlb_hits, tlb_misses, shootdown_rounds, shootdown_ipis, stale_detected,
    // rvm_mem: `FramePool::stats`
    fresh, reused, remote_frees, local_frees, magazine_flushes, block_allocs,
    alloc_pages, free_pages,
    // rvm_radix: `RadixVm::tree_stats`
    hint_hits, hint_misses, expansions, nodes_collapsed, guard_spills, slot_spins,
    // rvm_refcache: `Refcache::stats`
    rc_conflicts, rc_flushes, rc_dirty_zeros, rc_revivals,
    // rvm_sync: the simulator's per-core counters and line labels
    sim_charged_ns, sim_lock_wait_ns, sim_remote_lines, sim_ipis, sim_heap_allocs,
    sim_radix_lines, sim_frame_lines, sim_heap_lines,
}

impl Counters {
    /// Reads the program's counters. Stats cells are instrumented
    /// atomics, so on the simulator this runs on a thread without a
    /// simulator context (see [`observe`]) and perturbs nothing.
    pub fn read(machine: &Machine, vm: &dyn VmSystem) -> Counters {
        let radix = vm
            .as_any()
            .downcast_ref::<RadixVm>()
            .expect("the benchmark drives BackendKind::Radix");
        let op = vm.op_stats();
        let m = machine.stats();
        let pool = machine.pool().stats();
        let tree = radix.tree_stats();
        let rc = radix.cache().stats();
        Counters {
            mmaps: op.mmaps,
            munmaps: op.munmaps,
            faults_alloc: op.faults_alloc,
            faults_fill: op.faults_fill,
            faults_cow: op.faults_cow,
            superpage_installs: op.superpage_installs,
            superpage_demotions: op.superpage_demotions,
            superpage_promotions: op.superpage_promotions,
            block_fallbacks: op.block_fallbacks,
            tlb_hits: m.tlb_hits,
            tlb_misses: m.tlb_misses,
            shootdown_rounds: m.shootdown_rounds,
            shootdown_ipis: m.shootdown_ipis,
            stale_detected: m.stale_detected,
            fresh: pool.fresh,
            reused: pool.reused,
            remote_frees: pool.remote_frees,
            local_frees: pool.local_frees,
            magazine_flushes: pool.magazine_flushes,
            block_allocs: pool.block_allocs,
            alloc_pages: pool.alloc_pages,
            free_pages: pool.free_pages,
            hint_hits: tree.hint_hits(),
            hint_misses: tree.hint_misses(),
            expansions: tree.expansions(),
            nodes_collapsed: tree.nodes_collapsed(),
            guard_spills: tree.guard_spills(),
            slot_spins: tree.slot_spins(),
            rc_conflicts: rc.conflicts,
            rc_flushes: rc.flushes,
            rc_dirty_zeros: rc.dirty_zeros,
            rc_revivals: rc.revivals,
            ..Counters::default()
        }
    }

    /// Adds the simulator's own counters (read on the simulator thread;
    /// reading them is not instrumented).
    ///
    /// Line labels are read as they stand: a line whose structure was
    /// freed loses its label and its transfers count as unlabelled heap
    /// from then on. On workloads that free radix nodes inside the window
    /// (`huge` collapses a leaf every cycle) the radix and frame-table
    /// line counts over a window are therefore lower bounds.
    pub fn with_sim(mut self) -> Counters {
        let st = sim::stats();
        for c in &st.cores {
            self.sim_charged_ns += c.charged_ns;
            self.sim_lock_wait_ns += c.lock_wait_ns;
            self.sim_remote_lines += c.remote_transfers;
            self.sim_ipis += c.ipis_sent;
            self.sim_heap_allocs += c.heap_allocs;
        }
        for (label, n) in sim::remote_transfers_by_label() {
            match label {
                "radix-index" | "radix-leaf" => self.sim_radix_lines += n,
                "frame-table" => self.sim_frame_lines += n,
                sim::UNLABELED => self.sim_heap_lines += n,
                _ => {}
            }
        }
        self
    }

    /// Page faults of every kind.
    pub fn faults(&self) -> u64 {
        self.faults_alloc + self.faults_fill + self.faults_cow
    }
}

/// Runs `f` on a fresh thread, where no simulator context is installed,
/// so the instrumented loads it makes are neither priced nor recorded.
pub fn observe<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().expect("observer thread panicked"))
}

/// Everything the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    /// Counter deltas over the traced simulator window.
    pub sim: &'a Counters,
    /// Span totals of the traced simulator window (virtual clock).
    pub sim_spans: &'a [NameTotals; NAMES],
    /// Non-idle ops in the traced simulator window.
    pub sim_ops: u64,
    /// Peak index and page-table bytes over the traced simulator run.
    pub peak_index: u64,
    pub peak_pagetable: u64,
    /// Counter deltas over the traced host runs.
    pub host: &'a Counters,
    /// Span totals of the traced host runs (host clock).
    pub host_spans: &'a [NameTotals; NAMES],
    /// Non-idle ops in the traced host runs.
    pub host_ops: u64,
    /// Host throughput with and without tracing, writes/s (medians over
    /// runs).
    pub host_traced: f64,
    pub host_untraced: f64,
    /// Median op latency and p99 of the untraced host runs, ns, and the
    /// ops behind them.
    pub host_p50: f64,
    pub host_p99: f64,
    pub host_untraced_ops: u64,
}

/// One per-layer metric value with the number of samples behind it.
pub struct LayerValue {
    pub name: &'static str,
    pub value: f64,
    pub samples: u64,
}

/// The per-layer metrics, in [`crate::spec::PER_LAYER`] order.
pub fn per_layer(x: &LayerInputs) -> Vec<LayerValue> {
    let s = x.sim;
    let h = x.host;
    let so = x.sim_ops;
    let span_mean =
        |t: &[NameTotals; NAMES], n: SpanName| (t[n.idx()].mean_dur(), t[n.idx()].count);
    let self_mean =
        |t: &[NameTotals; NAMES], n: SpanName| (t[n.idx()].mean_self(), t[n.idx()].count);
    let per_op = |v: u64| (ratio(v, so), so);
    let v = |name, (value, samples): (f64, u64)| LayerValue {
        name,
        value,
        samples,
    };
    vec![
        v(
            "core.pagefault.sim_ns",
            span_mean(x.sim_spans, SpanName::Pagefault),
        ),
        v(
            "core.pagefault.host_ns",
            span_mean(x.host_spans, SpanName::Pagefault),
        ),
        v(
            "core.fill_fault_frac",
            (ratio(s.faults_fill, s.faults()), s.faults()),
        ),
        v("core.mmap.sim_ns", span_mean(x.sim_spans, SpanName::Mmap)),
        v("core.mmap.host_ns", span_mean(x.host_spans, SpanName::Mmap)),
        v(
            "core.munmap.sim_ns",
            span_mean(x.sim_spans, SpanName::Munmap),
        ),
        v(
            "core.munmap.host_ns",
            span_mean(x.host_spans, SpanName::Munmap),
        ),
        v(
            "core.mprotect.sim_ns",
            span_mean(x.sim_spans, SpanName::Mprotect),
        ),
        v(
            "core.promotions_per_demotion",
            (
                ratio(s.superpage_promotions, s.superpage_demotions),
                s.superpage_demotions,
            ),
        ),
        v("core.block_fallbacks", (s.block_fallbacks as f64, so)),
        v(
            "hw.access.self_sim_ns",
            self_mean(x.sim_spans, SpanName::Access),
        ),
        v(
            "hw.access.self_host_ns",
            self_mean(x.host_spans, SpanName::Access),
        ),
        v(
            "hw.tlb_miss_rate",
            (
                ratio(s.tlb_misses, s.tlb_hits + s.tlb_misses),
                s.tlb_hits + s.tlb_misses,
            ),
        ),
        v(
            "hw.ipis_per_munmap",
            (ratio(s.shootdown_ipis, s.munmaps), s.munmaps),
        ),
        v(
            "hw.shootdown_rounds_per_munmap",
            (ratio(s.shootdown_rounds, s.munmaps), s.munmaps),
        ),
        v("hw.pagetable_bytes", (x.peak_pagetable as f64, so)),
        v(
            "radix.hint_hit_rate",
            (
                ratio(s.hint_hits, s.hint_hits + s.hint_misses),
                s.hint_hits + s.hint_misses,
            ),
        ),
        v("radix.expansions_per_op", per_op(s.expansions)),
        v("radix.nodes_collapsed_per_op", per_op(s.nodes_collapsed)),
        v("radix.guard_spills_per_op", per_op(s.guard_spills)),
        v("radix.index_bytes", (x.peak_index as f64, so)),
        v("radix.remote_lines_per_op", per_op(s.sim_radix_lines)),
        v(
            "radix.slot_spins_per_op",
            (ratio(h.slot_spins, x.host_ops), x.host_ops),
        ),
        v(
            "mem.reuse_rate",
            (ratio(s.reused, s.fresh + s.reused), s.fresh + s.reused),
        ),
        v(
            "mem.remote_free_frac",
            (
                ratio(s.remote_frees, s.remote_frees + s.local_frees),
                s.remote_frees + s.local_frees,
            ),
        ),
        v("mem.magazine_flushes_per_op", per_op(s.magazine_flushes)),
        v("mem.remote_lines_per_op", per_op(s.sim_frame_lines)),
        v("mem.block_allocs_per_op", per_op(s.block_allocs)),
        v(
            "refcache.maintain.sim_ns",
            span_mean(x.sim_spans, SpanName::Maintain),
        ),
        v(
            "refcache.maintain.host_ns",
            span_mean(x.host_spans, SpanName::Maintain),
        ),
        v("refcache.conflicts_per_op", per_op(s.rc_conflicts)),
        v("refcache.flushes_per_op", per_op(s.rc_flushes)),
        v("refcache.dirty_zeros_per_op", per_op(s.rc_dirty_zeros)),
        v("refcache.revivals_per_op", per_op(s.rc_revivals)),
        v("sync.charged_ns_per_op", per_op(s.sim_charged_ns)),
        v("sync.lock_wait_ns_per_op", per_op(s.sim_lock_wait_ns)),
        v("sync.remote_lines_per_op", per_op(s.sim_remote_lines)),
        v("sync.heap_remote_lines_per_op", per_op(s.sim_heap_lines)),
        v("sync.ipis_per_op", per_op(s.sim_ipis)),
        v("sync.heap_allocs_per_op", per_op(s.sim_heap_allocs)),
        v("host.ops_per_s", (x.host_untraced, x.host_untraced_ops)),
        v("host.op_p50_ns", (x.host_p50, x.host_untraced_ops)),
        v("host.op_p99_ns", (x.host_p99, x.host_untraced_ops)),
        v(
            "trace.host_overhead_frac",
            (1.0 - ratio_f(x.host_traced, x.host_untraced), x.host_ops),
        ),
    ]
}

fn ratio_f(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
