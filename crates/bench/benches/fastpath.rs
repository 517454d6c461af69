//! `pagefault_hot`: wall-clock latency of the single-page fault fast
//! path — repeated faults in one 512-page block, the pattern the leaf
//! hint cache and inline guard storage optimize. Complements the
//! virtual-time numbers in `rvm_bench::fastpath` (and the acceptance
//! test there), which defines both loops; run once by the CI bench-smoke
//! step.

use criterion::{criterion_group, criterion_main, Criterion};
use rvm_bench::fastpath::{fill_fault_vm, refault, same_block_fault, same_block_tree, BASE};
use rvm_bench::BackendKind;

/// Full-stack fill fault, same page block every time: TLB invalidate +
/// access → pagefault → hinted single-page range lock → PTE/TLB refill.
fn radixvm_same_block(c: &mut Criterion) {
    let mut g = c.benchmark_group("pagefault_hot");
    g.sample_size(20);
    let (machine, vm) = fill_fault_vm(BackendKind::Radix, 8);
    let mut i = 0u64;
    g.bench_function("radixvm_fill_fault", |b| {
        b.iter(|| {
            refault(&machine, &*vm, BASE, 8, i);
            i += 1;
        })
    });
    g.finish();
}

/// Tree component only: single-page range lock + metadata mutation, with
/// the leaf hint cache on vs off (the plain descent).
fn tree_same_block(c: &mut Criterion) {
    let mut g = c.benchmark_group("pagefault_hot_tree");
    g.sample_size(20);
    for (name, hints) in [("leaf_hints", true), ("plain_descent", false)] {
        let tree = same_block_tree(hints);
        let mut i = 0u64;
        g.bench_function(name, |b| {
            b.iter(|| {
                same_block_fault(&tree, i);
                i += 1;
            })
        });
    }
    g.finish();
}

criterion_group!(benches, radixvm_same_block, tree_same_block);
criterion_main!(benches);
