//! The figure and table scenarios: each prints the paper's series as
//! CSV tables to stdout and its progress to stderr.

use std::fs;
use std::path::Path;
use std::sync::Arc;

use rvm_baselines::SkipList;
use rvm_hw::Machine;
use rvm_metis::{Metis, MetisConfig, MetisStats, Step, VmArena};
use rvm_radix::{LockMode, RadixConfig, RadixTree};
use rvm_refcache::counters::{RefCounter, SharedCounter, Snzi};
use rvm_refcache::{Managed, Refcache, ReleaseCtx};
use rvm_sync::{sim, CostModel};

use crate::fastpath::hit_rate;
use crate::layouts::{build_layout, generate, table2_apps};
use crate::scale::sweep;
use crate::workloads::{splitmix, Workload};
use crate::{build, point_duration, print_table, run_sim, BackendKind, Inputs};

/// A table's series: one `(label, [(x, y)])` column per curve.
type Series<'a> = Vec<(&'a str, Vec<(usize, f64)>)>;

/// Runs one Metis job to completion on `n` virtual cores; returns
/// (virtual ns, stats).
fn metis_job(kind: BackendKind, n: usize, block_pages: u64, words: u64) -> (u64, MetisStats) {
    let machine = Machine::new(n);
    let vm = build(&machine, kind);
    for c in 0..n {
        vm.attach_core(c);
    }
    let arena = Arc::new(VmArena::new(machine.clone(), vm.clone(), block_pages));
    let cfg = MetisConfig {
        workers: n,
        total_words: words,
        chunk: 256,
        hot_vocab: 1_000,
        cold_vocab: 65_536,
    };
    let job = Metis::new(arena, cfg);
    let guard = sim::install(n, CostModel::default());
    let mut stall_guard = 0u64;
    while !job.done() {
        let core = sim::min_clock_core();
        sim::switch(core);
        match job.step(core) {
            Step::Worked => stall_guard = 0,
            Step::Idle => {
                sim::charge(1_000); // barrier poll
                stall_guard += 1;
                assert!(stall_guard < 10_000_000, "job stalled");
            }
            Step::Done => {
                // This worker is finished; let its clock drift forward so
                // the scheduler picks others.
                sim::charge(10_000);
            }
        }
    }
    let stats = guard.finish();
    (stats.max_clock(), job.stats())
}

/// Figure 4: Metis (MapReduce word position index) jobs/hour on RadixVM,
/// Bonsai and Linux, with 8 MB and 64 KB allocation units, plus the
/// operation counts of §5.2.
///
/// Expected shape (§5.2): RadixVM scales with both unit sizes. Bonsai
/// matches it at 8 MB (fault-dominated; its faults are lock-free) but
/// falls behind at 64 KB (mmap-dominated; its mmaps serialize). Linux
/// scales poorly in both, because faults and mmaps contend for the same
/// address-space lock.
pub fn fig4_metis(inp: &Inputs) {
    let words = inp.metis_words.unwrap_or(inp.pick(100_000, 400_000));
    let cores_list = inp.figure_cores();
    let units = [("8 MB", 2048u64), ("64 KB", 16u64)];
    for (unit_name, block_pages) in units {
        let series: Series = [BackendKind::Radix, BackendKind::Bonsai, BackendKind::Linux]
            .iter()
            .map(|&k| {
                let pts = cores_list
                    .iter()
                    .map(|&n| {
                        let (virt_ns, st) = metis_job(k, n, block_pages, words);
                        let jobs_per_hour = 3_600e9 / virt_ns as f64;
                        eprintln!(
                            "  {unit_name:>5} {:>8} {n:>3} cores: {jobs_per_hour:>9.1} jobs/h  \
                             ({} mmaps, {} pairs)",
                            k.name(),
                            st.mmaps,
                            st.pairs
                        );
                        (n, jobs_per_hour)
                    })
                    .collect();
                (k.name(), pts)
            })
            .collect();
        print_table(
            &format!("Figure 4 ({unit_name} allocation unit): Metis jobs/hour"),
            &series,
        );
    }
    let n = *cores_list.last().expect("RVM_CORES is never empty");
    for (unit_name, block_pages) in units {
        let (_, st) = metis_job(BackendKind::Radix, n, block_pages, words);
        println!(
            "# §5.2 counts at {n} cores, {unit_name} unit: {} mmaps, {} pairs, {} distinct words",
            st.mmaps, st.pairs, st.distinct_words
        );
    }
}

/// The local/pipeline/global sweep behind Figures 5 and 9: one table per
/// microbenchmark, one column per `(label, backend)`, total page writes
/// per virtual second.
fn micro_figure(inp: &Inputs, figure: &str, unit: &str, systems: &[(&str, BackendKind)]) {
    let cores = inp.figure_cores();
    for (bench, workload) in [
        ("local", Workload::Disjoint),
        ("pipeline", Workload::Pipeline),
        ("global", Workload::Global),
    ] {
        let series: Series = systems
            .iter()
            .map(|&(label, kind)| {
                let points = sweep(kind, workload, &cores, inp.duration_ns());
                for p in &points {
                    eprintln!(
                        "  {bench:>8} {:>18} {:>3} cores: {:>12.0} pages/s  \
                         (ipis {}, remote xfers {})",
                        kind.name(),
                        p.cores,
                        p.ops_per_sec(),
                        p.ipis,
                        p.remote_transfers,
                    );
                }
                (
                    label,
                    points.iter().map(|p| (p.cores, p.ops_per_sec())).collect(),
                )
            })
            .collect();
        print_table(&format!("{figure} ({bench}): {unit}"), &series);
    }
}

/// Figure 5: the local, pipeline and global microbenchmarks on RadixVM,
/// Bonsai and Linux.
///
/// Expected shape (§5.3): RadixVM scales linearly on local (zero
/// shootdowns, zero remote traffic), near-linearly on pipeline (exactly
/// one remote shootdown per munmap, IPI delivery cost grows with core
/// count), and well on global (broadcast shootdowns amortized over many
/// faults). Linux and Bonsai stay flat on local/pipeline because every
/// operation takes the address-space lock; they do better on global
/// thanks to its higher fault:mmap ratio.
pub fn fig5_micro(inp: &Inputs) {
    let systems = [BackendKind::Radix, BackendKind::Bonsai, BackendKind::Linux];
    let systems = systems.map(|k| (k.name(), k));
    micro_figure(inp, "Figure 5", "total page writes/sec", &systems);
}

/// Figure 9: per-core page tables with targeted shootdown vs a shared
/// page table with broadcast shootdown, on the three microbenchmarks.
///
/// Expected shape (§5.5): local and pipeline collapse under the shared
/// table — every munmap must broadcast to all cores at hundreds of
/// thousands of cycles per round. Global is closer (it broadcasts under
/// both schemes) but per-core tables still win by eliminating contention
/// on the shared page-table structure.
pub fn fig9_tlb(inp: &Inputs) {
    micro_figure(
        inp,
        "Figure 9",
        "per-core vs shared page tables, page writes/sec",
        &[
            ("Per-core", BackendKind::Radix),
            ("Shared", BackendKind::RadixSharedPt),
        ],
    );
}

/// Mapped regions in the Figure 6/7 address spaces; region `i` is the
/// present key `2i`.
const REGIONS: u64 = 1_000;

/// An index under the §5.5 lookup experiment of Figures 6 and 7: readers
/// look up present keys (page faults) while writers insert an absent key
/// and delete it again (mmap/munmap).
trait LookupIndex {
    /// Looks `key` up from `core`; true when present.
    fn lookup(&self, core: usize, key: u64) -> bool;
    /// Inserts an absent key drawn from `rng`; returns it if inserted.
    fn insert_absent(&self, core: usize, rng: u64) -> Option<u64>;
    /// Deletes `key`.
    fn delete(&self, core: usize, key: u64);
    /// Housekeeping after `core`'s `ops`-th operation.
    fn tick(&self, _core: usize, _ops: u64) {}
}

impl LookupIndex for SkipList {
    fn lookup(&self, _: usize, key: u64) -> bool {
        self.contains(key)
    }

    fn insert_absent(&self, _: usize, rng: u64) -> Option<u64> {
        // Odd keys interleave with the hot present keys, so tower updates
        // dirty lines on reader paths.
        let k = (rng % REGIONS) * 2 + 1;
        self.insert(k).then_some(k)
    }

    fn delete(&self, _: usize, key: u64) {
        self.remove(key);
    }
}

impl LookupIndex for RadixTree<u64> {
    fn lookup(&self, core: usize, key: u64) -> bool {
        self.lookup_present(core, key)
    }

    fn insert_absent(&self, core: usize, rng: u64) -> Option<u64> {
        // Random key with no locality: nearly every insert expands a
        // fresh leaf (paper §5.5).
        let k = (1 << 30) + (rng % (1 << 24)) * 2 + 1;
        self.lock_range(core, k, k + 1, LockMode::ExpandAll)
            .replace(&k);
        Some(k)
    }

    fn delete(&self, core: usize, key: u64) {
        self.lock_range(core, key, key + 1, LockMode::ExpandFolded)
            .clear();
    }

    fn tick(&self, core: usize, ops: u64) {
        if ops.is_multiple_of(256) {
            self.cache().maintain(core);
        }
    }
}

/// A skip list holding the present keys.
pub fn present_skiplist() -> SkipList {
    let list = SkipList::new();
    for i in 0..REGIONS {
        list.insert(i * 2);
    }
    list
}

/// A radix tree for `ncores` cores holding the present keys, key `2i`
/// mapped to `i`.
pub fn present_radix(ncores: usize) -> RadixTree<u64> {
    let cache = Arc::new(Refcache::new(ncores.max(1)));
    let tree = RadixTree::<u64>::new(cache, RadixConfig::default());
    for i in 0..REGIONS {
        tree.lock_range(0, i * 2, i * 2 + 1, LockMode::ExpandAll)
            .replace(&i);
    }
    tree
}

/// Runs `readers` lookup cores against `writers` insert/delete cores on
/// `index`; returns lookups per virtual second.
fn lookup_point<I: LookupIndex + 'static>(
    index: &Arc<I>,
    readers: usize,
    writers: usize,
    dur: u64,
) -> f64 {
    let total = readers + writers;
    let point = run_sim(
        total,
        point_duration(dur, total),
        CostModel::default(),
        |c| {
            let index = index.clone();
            let mut rng = splitmix(c as u64 + 1);
            let mut ops = 0u64;
            if c < readers {
                Box::new(move || {
                    rng = splitmix(rng);
                    let key = (rng % REGIONS) * 2;
                    sim::charge(60); // fault-handler overhead around the lookup
                    ops += 1;
                    index.tick(c, ops);
                    assert!(index.lookup(c, key));
                    1
                })
            } else {
                let mut holding: Option<u64> = None;
                Box::new(move || {
                    sim::charge(60);
                    ops += 1;
                    index.tick(c, ops);
                    match holding.take() {
                        Some(k) => index.delete(c, k),
                        None => {
                            rng = splitmix(rng);
                            holding = index.insert_absent(c, rng);
                        }
                    }
                    0 // writers do not count toward lookup throughput
                })
            }
        },
    );
    point.per_sec()
}

/// Figure 6: concurrent skip-list lookup throughput as writers are added.
///
/// The paper's §5.5 strawman: an address space simulated as 1,000 mapped
/// regions; reader cores continuously look up random present keys
/// (pagefault), writer cores continuously insert a random absent key and
/// delete it again (mmap/munmap). Expected shape: lookups scale
/// perfectly with 0 writers, degrade with 1 writer, and collapse with 5 —
/// inserts modify interior towers, so unrelated lookups keep re-fetching
/// dirtied cache lines.
pub fn fig6_skiplist(inp: &Inputs) {
    let dur = inp.duration_ns();
    let series: Series = [("0 writers", 0), ("1 writer", 1), ("5 writers", 5)]
        .iter()
        .map(|&(name, w)| {
            let pts = inp
                .figure_cores()
                .into_iter()
                .map(|r| {
                    let tput = lookup_point(&Arc::new(present_skiplist()), r, w, dur);
                    eprintln!("  skiplist {name:>10} {r:>3} readers: {tput:>14.0} lookups/s");
                    (r, tput)
                })
                .collect();
            (name, pts)
        })
        .collect();
    print_table("Figure 6: skip-list lookups/sec vs reader cores", &series);
}

/// Figure 7: radix-tree lookup throughput as writers are added, plus the
/// leaf-hint hit rate.
///
/// The counterpart of Figure 6 on RadixVM's radix tree: readers look up
/// random present keys while writer cores insert-then-delete random
/// absent keys. Expected shape (§5.5): lookup throughput is *unaffected*
/// by writers — initialized interior nodes are never written by
/// operations on unrelated keys — and insert/delete throughput is
/// independent of the number of readers. The paper uses 0/10/40 writers.
pub fn fig7_radix(inp: &Inputs) {
    let dur = inp.duration_ns();
    let mut tput_series: Series = Vec::new();
    let mut hint_series: Series = Vec::new();
    for (name, w) in [("0 writers", 0), ("10 writers", 10), ("40 writers", 40)] {
        let mut tputs = Vec::new();
        let mut hints = Vec::new();
        for r in inp.figure_cores() {
            let tree = Arc::new(present_radix(r + w));
            let tput = lookup_point(&tree, r, w, dur);
            let st = tree.stats();
            eprintln!(
                "  radix {name:>10} {r:>3} readers: {tput:>14.0} lookups/s  \
                 (hint hits {}, misses {}, spills {})",
                st.hint_hits(),
                st.hint_misses(),
                st.guard_spills()
            );
            tputs.push((r, tput));
            hints.push((r, hit_rate(st.hint_hits(), st.hint_misses()) * 100.0));
        }
        tput_series.push((name, tputs));
        hint_series.push((name, hints));
    }
    print_table(
        "Figure 7: radix-tree lookups/sec vs reader cores",
        &tput_series,
    );
    print_table(
        "Figure 7b: leaf-hint hit rate (%) vs reader cores",
        &hint_series,
    );
}

/// Per-iteration kernel work around the Figure 8 count manipulation
/// (mmap + munmap syscall path, metadata locking).
const ITER_WORK_NS: u64 = 300;

/// A Refcache-managed object with no release work: Figure 8's shared
/// physical page, and the counted object of the reference-count benches.
pub struct SharedPage;

impl Managed for SharedPage {
    fn on_release(&mut self, _ctx: &ReleaseCtx<'_>) {}
}

/// Figure 8 point: every core maps and unmaps the shared page, its odd
/// ops taking a reference and its even ops dropping it through
/// `count(core, take, ops)`; returns map+unmap iterations per virtual
/// second.
fn sharing_point(
    ncores: usize,
    dur: u64,
    count: impl Fn(usize, bool, u64) + Clone + 'static,
) -> f64 {
    let p = run_sim(
        ncores,
        point_duration(dur, ncores),
        CostModel::default(),
        |c| {
            let count = count.clone();
            let mut ops = 0u64;
            Box::new(move || {
                sim::charge(ITER_WORK_NS / 2);
                ops += 1;
                count(c, ops % 2 == 1, ops);
                // One iteration = one mmap + one munmap = 2 steps.
                ops % 2
            })
        },
    );
    p.per_sec()
}

/// Figure 8: page-sharing throughput under three reference-counting
/// schemes — Refcache, SNZI and a single shared atomic counter.
///
/// The paper's microbenchmark maps and unmaps one shared library page: n
/// cores repeatedly mmap and munmap it, incrementing and decrementing its
/// reference count constantly and concurrently. Expected shape (§5.5):
/// Refcache scales linearly (all count manipulation stays in per-core
/// delta caches; zero detection is batched and delayed), SNZI clearly
/// beats the shared counter but hits a wall around 10 cores, and the
/// shared counter is flat from the start.
pub fn fig8_refcount(inp: &Inputs) {
    let dur = inp.duration_ns();
    let mut refcache_pts = Vec::new();
    let mut snzi_pts = Vec::new();
    let mut shared_pts = Vec::new();
    for n in inp.figure_cores() {
        let cache = Arc::new(Refcache::new(n));
        let page = cache.alloc(1, SharedPage);
        let counts = cache.clone();
        let r = sharing_point(n, dur, move |c, take, ops| {
            if ops.is_multiple_of(128) {
                counts.maintain(c);
            }
            if take {
                counts.inc(c, page);
            } else {
                counts.dec(c, page);
            }
        });
        cache.quiesce();
        let eager = |counter: Arc<dyn RefCounter>| {
            // Hold one base reference so the count never truly drains.
            counter.inc(0);
            sharing_point(n, dur, move |c, take, _| {
                if take {
                    counter.inc(c);
                } else {
                    counter.dec(c);
                }
            })
        };
        let s = eager(Arc::new(Snzi::new(n, 4)));
        let a = eager(Arc::new(SharedCounter::new(0)));
        eprintln!("  {n:>3} cores: refcache {r:>13.0}  snzi {s:>13.0}  shared {a:>13.0} iters/s");
        refcache_pts.push((n, r));
        snzi_pts.push((n, s));
        shared_pts.push((n, a));
    }
    print_table(
        "Figure 8: shared-page map/unmap iterations/sec by counting scheme",
        &[
            ("Refcache", refcache_pts),
            ("SNZI", snzi_pts),
            ("Shared counter", shared_pts),
        ],
    );
}

/// Counts the `.rs` lines under `dir`: (code lines, all lines). A code
/// line is one that is neither blank nor a `//` comment; test code
/// counts as code.
fn count_dir(dir: &Path) -> (u64, u64) {
    let mut code = 0;
    let mut all = 0;
    let Ok(entries) = fs::read_dir(dir) else {
        return (0, 0);
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let (c, a) = count_dir(&path);
            code += c;
            all += a;
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Ok(src) = fs::read_to_string(&path) {
                for line in src.lines() {
                    all += 1;
                    let t = line.trim();
                    if !t.is_empty() && !t.starts_with("//") {
                        code += 1;
                    }
                }
            }
        }
    }
    (code, all)
}

/// Table 1: line counts of the major RadixVM components against the
/// paper's C++ prototype (radix tree 1,376; Refcache 932; MMU
/// abstraction 889; syscall interface 632 — 3,829 total), then the whole
/// repository's inventory.
pub fn table1_loc(_: &Inputs) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("the bench crate sits two levels below the repository root");
    let components: &[(&str, &str, u64)] = &[
        ("Radix tree", "crates/radix/src", 1_376),
        ("Refcache", "crates/refcache/src", 932),
        ("MMU abstraction", "crates/hw/src", 889),
        ("Syscall interface", "crates/core/src", 632),
    ];
    println!("# Table 1: major RadixVM components (code lines)");
    println!(
        "{:<20} {:>12} {:>12} {:>12}",
        "component", "this repo", "paper (C++)", "all lines"
    );
    let mut ours = 0;
    let mut theirs = 0;
    for (name, dir, paper) in components {
        let (code, all) = count_dir(&root.join(dir));
        ours += code;
        theirs += paper;
        println!("{name:<20} {code:>12} {paper:>12} {all:>12}");
    }
    println!("{:<20} {ours:>12} {theirs:>12}", "total");
    println!();
    println!("# full workspace inventory");
    for dir in [
        "crates/sync",
        "crates/refcache",
        "crates/mem",
        "crates/hw",
        "crates/radix",
        "crates/core",
        "crates/backend",
        "crates/baselines",
        "crates/metis",
        "crates/bench",
        "perfbench",
        "src",
        "tests",
        "examples",
    ] {
        let (code, all) = count_dir(&root.join(dir));
        println!("{dir:<20} {code:>12} code {all:>12} all lines");
    }
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn kb(bytes: u64) -> f64 {
    bytes as f64 / 1024.0
}

/// Table 2: metadata memory of alternate VM representations.
///
/// Builds synthetic address-space layouts calibrated to the paper's four
/// applications (Firefox, Chrome, Apache, MySQL — see
/// [`crate::layouts`]) in both the Linux baseline and RadixVM. Expected
/// shape: the radix tree costs a small multiple (the paper saw 1.5–2.7×)
/// of Linux's VMA tree plus page table and stays a small percentage of
/// RSS.
pub fn table2_memory(_: &Inputs) {
    println!("# Table 2: memory usage for alternate VM representations");
    println!(
        "{:<10} {:>8} {:>12} {:>14} {:>14} {:>8} {:>9}",
        "app", "RSS", "VMA tree", "Linux PT", "radix tree", "ratio", "% of RSS"
    );
    for app in table2_apps() {
        let regions = generate(&app);
        let lm = Machine::new(1);
        let lvm = build(&lm, BackendKind::Linux);
        let touched = build_layout(&lm, &*lvm, &regions);
        let lu = lvm.space_usage();
        drop(lvm);
        // RadixVM counts the radix tree only: the paper's point is that
        // hardware page tables become disposable caches, so the tree is
        // the persistent metadata.
        let rm = Machine::new(1);
        let rvm = build(&rm, BackendKind::Radix);
        let _ = build_layout(&rm, &*rvm, &regions);
        let ru = rvm.space_usage();
        let rss_bytes = touched * 4096;
        let linux_total = lu.index_bytes + lu.pagetable_bytes;
        let ratio = ru.index_bytes as f64 / linux_total as f64;
        let pct = ru.index_bytes as f64 * 100.0 / rss_bytes as f64;
        println!(
            "{:<10} {:>6.0}MB {:>10.0}KB {:>12.0}KB {:>12.1}MB {:>7.1}x {:>8.1}%",
            app.name,
            mb(rss_bytes),
            kb(lu.index_bytes),
            kb(lu.pagetable_bytes),
            mb(ru.index_bytes),
            ratio,
            pct
        );
        drop(rvm);
    }
    println!();
    println!("# paper (Table 2): Firefox 2.4x, Chrome 2.0x, Apache 1.5x, MySQL 2.7x;");
    println!("# radix tree at most 3.7% of application RSS.");
}
