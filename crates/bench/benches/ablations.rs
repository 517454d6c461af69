//! Ablation benches for design choices DESIGN.md calls out:
//!
//! * radix-node collapsing on vs. off (the paper's prototype shipped
//!   without collapsing; §3.2 argues the epoch delay amortizes it),
//! * Refcache delta-cache size (the space/conflict-rate knob of §3.1),
//! * folding vs. forced per-page metadata for large mappings.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use rvm_bench::figures::SharedPage;
use rvm_bench::{build, BackendKind};
use rvm_hw::{Backing, Machine, Prot, PAGE_SIZE};
use rvm_radix::{LockMode, RadixConfig, RadixTree};
use rvm_refcache::{Refcache, RefcacheConfig};

const BASE: u64 = 0x80_0000_0000;

fn collapse_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("map_unmap_churn");
    g.sample_size(15);
    for (name, kind) in [
        ("collapse_on", BackendKind::Radix),
        ("collapse_off", BackendKind::RadixNoCollapse),
    ] {
        let machine = Machine::new(1);
        let vm = build(&machine, kind);
        vm.attach_core(0);
        let mut i = 0u64;
        g.bench_function(name, |b| {
            b.iter(|| {
                // Churn distinct regions so collapsing actually has nodes
                // to reap (and no-collapse accumulates them).
                let addr = BASE + (i % 512) * 8 * PAGE_SIZE;
                i += 1;
                vm.mmap(0, addr, 8 * PAGE_SIZE, Prot::RW, Backing::Anon)
                    .unwrap();
                machine.touch_page(0, &*vm, addr, 1).unwrap();
                vm.munmap(0, addr, 8 * PAGE_SIZE).unwrap();
                if i.is_multiple_of(128) {
                    vm.maintain(0);
                }
            })
        });
    }
    g.finish();
}

fn delta_cache_size(c: &mut Criterion) {
    let mut g = c.benchmark_group("refcache_cache_size");
    g.sample_size(15);
    // Working set of 1024 objects; small caches conflict constantly,
    // large ones almost never — the paper's space/scalability trade-off.
    for slots in [64usize, 512, 4096] {
        let rc = Refcache::with_config(
            1,
            RefcacheConfig {
                cache_slots: slots,
                review_delay: 2,
            },
        );
        let objs: Vec<_> = (0..1024).map(|_| rc.alloc(1, SharedPage)).collect();
        let mut i = 0usize;
        g.bench_function(format!("slots_{slots}"), |b| {
            b.iter(|| {
                let o = objs[i % 1024];
                i += 1;
                rc.inc(0, o);
                rc.dec(0, o);
                if i.is_multiple_of(512) {
                    rc.maintain(0);
                }
            })
        });
        for o in objs {
            rc.dec(0, o);
        }
        rc.quiesce();
    }
    g.finish();
}

fn folding_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("large_mmap");
    g.sample_size(15);
    // A 512-page aligned mapping folds into one slot; the same mapping
    // misaligned by one page is forced out to leaves.
    let cache = Arc::new(Refcache::new(1));
    let tree = RadixTree::<u64>::new(cache, RadixConfig::default());
    g.bench_function("aligned_folds", |b| {
        let mut i = 0u64;
        b.iter(|| {
            let lo = (i % 64) * 512 + (1 << 20);
            i += 1;
            tree.lock_range(0, lo, lo + 512, LockMode::ExpandAll)
                .replace(&i);
            tree.lock_range(0, lo, lo + 512, LockMode::ExpandFolded)
                .clear();
            if i.is_multiple_of(128) {
                tree.cache().maintain(0);
            }
        })
    });
    g.bench_function("misaligned_expands", |b| {
        let mut i = 0u64;
        b.iter(|| {
            let lo = (i % 64) * 512 + (1 << 21) + 1;
            i += 1;
            tree.lock_range(0, lo, lo + 512, LockMode::ExpandAll)
                .replace(&i);
            tree.lock_range(0, lo, lo + 512, LockMode::ExpandFolded)
                .clear();
            if i.is_multiple_of(128) {
                tree.cache().maintain(0);
            }
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    collapse_ablation,
    delta_cache_size,
    folding_ablation
);
criterion_main!(benches);
