//! Single-core operation latencies (criterion): the sequential-performance
//! side of the paper's evaluation (§5.3 reports RadixVM within ~8 % of
//! Linux at one core). Compares mmap/fault/munmap across the three VM
//! systems, reference-count operations across counting schemes, and index
//! lookups across structures.

use criterion::{criterion_group, criterion_main, Criterion};
use rvm_bench::fastpath::{fill_fault_vm, refault, BASE};
use rvm_bench::figures::{present_radix, present_skiplist, SharedPage};
use rvm_bench::{build, BackendKind};
use rvm_hw::{Backing, Machine, Prot, PAGE_SIZE};
use rvm_refcache::counters::{RefCounter, SharedCounter, Snzi};
use rvm_refcache::Refcache;

fn vm_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("vm_map_touch_unmap");
    g.sample_size(20);
    for kind in [BackendKind::Radix, BackendKind::Bonsai, BackendKind::Linux] {
        let machine = Machine::new(1);
        let vm = build(&machine, kind);
        vm.attach_core(0);
        let mut i = 0u64;
        g.bench_function(kind.name(), |b| {
            b.iter(|| {
                let addr = BASE + (i % 64) * PAGE_SIZE;
                i += 1;
                vm.mmap(0, addr, PAGE_SIZE, Prot::RW, Backing::Anon)
                    .unwrap();
                machine.touch_page(0, &*vm, addr, 1).unwrap();
                vm.munmap(0, addr, PAGE_SIZE).unwrap();
                if i.is_multiple_of(256) {
                    vm.maintain(0);
                }
            })
        });
    }
    g.finish();
}

fn fault_only(c: &mut Criterion) {
    let mut g = c.benchmark_group("pagefault_fill");
    g.sample_size(20);
    for kind in [BackendKind::Radix, BackendKind::Bonsai, BackendKind::Linux] {
        let (machine, vm) = fill_fault_vm(kind, 256);
        let mut p = 0u64;
        g.bench_function(kind.name(), |b| {
            b.iter(|| {
                // Every access walks the fault path but hits an existing
                // page (fill fault).
                refault(&machine, &*vm, BASE, 256, p);
                p += 1;
            })
        });
    }
    g.finish();
}

fn refcount_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("refcount_inc_dec");
    g.sample_size(20);
    {
        let rc = Refcache::new(1);
        let obj = rc.alloc(1, SharedPage);
        let mut i = 0u64;
        g.bench_function("refcache", |b| {
            b.iter(|| {
                rc.inc(0, obj);
                rc.dec(0, obj);
                i += 1;
                if i.is_multiple_of(512) {
                    rc.maintain(0);
                }
            })
        });
        rc.dec(0, obj);
        rc.quiesce();
    }
    {
        let s = Snzi::new(1, 4);
        s.inc(0);
        g.bench_function("snzi", |b| {
            b.iter(|| {
                s.inc(0);
                s.dec(0);
            })
        });
    }
    {
        let s = SharedCounter::new(1);
        g.bench_function("shared_atomic", |b| {
            b.iter(|| {
                s.inc(0);
                s.dec(0);
            })
        });
    }
    g.finish();
}

fn index_lookup(c: &mut Criterion) {
    let mut g = c.benchmark_group("index_lookup_1000_regions");
    g.sample_size(20);
    {
        let tree = present_radix(1);
        let mut k = 0u64;
        g.bench_function("radix_tree", |b| {
            b.iter(|| {
                k = (k + 37) % 1000;
                assert!(tree.lookup_present(0, k * 2));
            })
        });
    }
    {
        let list = present_skiplist();
        let mut k = 0u64;
        g.bench_function("skip_list", |b| {
            b.iter(|| {
                k = (k + 37) % 1000;
                assert!(list.contains(k * 2));
            })
        });
    }
    g.finish();
}

fn fork_cost(c: &mut Criterion) {
    let mut g = c.benchmark_group("fork");
    g.sample_size(10);
    let machine = Machine::new(2);
    let vm = build(&machine, BackendKind::Radix);
    vm.attach_core(0);
    vm.mmap(0, BASE, 64 * PAGE_SIZE, Prot::RW, Backing::Anon)
        .unwrap();
    for p in 0..64u64 {
        machine.write_u64(0, &*vm, BASE + p * PAGE_SIZE, p).unwrap();
    }
    g.bench_function("fork_64_pages", |b| {
        b.iter(|| {
            let child = vm.fork(0).expect("RadixVM supports fork");
            drop(child);
            vm.maintain(0);
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    vm_ops,
    fault_only,
    refcount_ops,
    index_lookup,
    fork_cost
);
criterion_main!(benches);
