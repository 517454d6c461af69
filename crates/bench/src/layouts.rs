//! Synthetic address-space layouts calibrated to Table 2's applications.
//!
//! The paper snapshots the address spaces of Firefox, Chrome, Apache, and
//! MySQL and measures the metadata cost of representing each in Linux
//! (VMA tree + hardware page table) versus RadixVM (radix tree). Those
//! snapshots are not available, so we generate layouts matching the
//! published statistics — VMA count (inferred from the reported VMA-tree
//! bytes), resident set size, and the small/large region mix typical of
//! the applications — and measure our implementations on them.

use std::sync::Arc;

use rvm_hw::{Backing, Machine, Prot, VmSystem, PAGE_SIZE};

use crate::workloads::splitmix;

/// One application profile from Table 2.
#[derive(Clone, Copy, Debug)]
pub struct AppProfile {
    /// Application name.
    pub name: &'static str,
    /// Number of mapped regions (VMAs).
    pub vmas: usize,
    /// Resident set size in MB (pages actually touched).
    pub rss_mb: u64,
}

/// The four applications of Table 2. VMA counts are derived from the
/// paper's reported VMA-tree sizes at ~200 bytes per VMA.
pub fn table2_apps() -> Vec<AppProfile> {
    vec![
        AppProfile {
            name: "Firefox",
            vmas: 600,
            rss_mb: 352,
        },
        AppProfile {
            name: "Chrome",
            vmas: 620,
            rss_mb: 152,
        },
        AppProfile {
            name: "Apache",
            vmas: 220,
            rss_mb: 16,
        },
        AppProfile {
            name: "MySQL",
            vmas: 90,
            rss_mb: 84,
        },
    ]
}

/// A generated region: base address and page count, with the fraction of
/// pages to touch (residency).
pub struct Region {
    /// Base virtual address.
    pub addr: u64,
    /// Pages mapped.
    pub pages: u64,
    /// Pages of the region resident (touched), from the front.
    pub resident: u64,
    /// File-backed (libraries) vs anonymous (heaps).
    pub file: bool,
}

/// Generates a layout matching `profile`: mostly small file-backed
/// regions (library segments) clustered together, plus a few large
/// anonymous heaps carrying most of the RSS.
pub fn generate(profile: &AppProfile) -> Vec<Region> {
    let mut rng = splitmix(profile.vmas as u64 * 31 + profile.rss_mb);
    let mut regions = Vec::new();
    let rss_pages = profile.rss_mb * 1024 * 1024 / PAGE_SIZE;
    // ~8% of regions are heap-like and carry ~85% of the RSS.
    let big = (profile.vmas / 12).max(1);
    let small = profile.vmas - big;
    let big_resident = rss_pages * 85 / 100 / big as u64;
    let small_resident_total = rss_pages - big_resident * big as u64;
    let small_resident = (small_resident_total / small as u64).max(1);

    // Library clusters: sequential small mappings with small gaps.
    let mut addr = 0x7f00_0000_0000u64 / PAGE_SIZE * PAGE_SIZE;
    for i in 0..small {
        rng = splitmix(rng);
        let pages = 1 + rng % 24; // 4 KB – 96 KB segments
        let resident = small_resident.min(pages);
        regions.push(Region {
            addr,
            pages,
            resident,
            file: true,
        });
        rng = splitmix(rng);
        addr += (pages + 1 + rng % 4) * PAGE_SIZE;
        if i % 60 == 59 {
            // Next library cluster.
            rng = splitmix(rng);
            addr += (1 << 24) + (rng % (1 << 22)) * PAGE_SIZE;
        }
    }
    // Heaps: large anonymous regions, partially resident.
    let mut heap = 0x5555_0000_0000u64;
    for _ in 0..big {
        rng = splitmix(rng);
        let pages = (big_resident * 13 / 10).max(16); // ~77% resident
        regions.push(Region {
            addr: heap,
            pages,
            resident: big_resident.min(pages),
            file: false,
        });
        heap += (pages + 512) * PAGE_SIZE;
    }
    regions
}

/// Builds the layout inside `vm` (mapping every region and touching the
/// resident prefix) and returns the touched page count.
pub fn build_layout(machine: &Arc<Machine>, vm: &dyn VmSystem, regions: &[Region]) -> u64 {
    vm.attach_core(0);
    let mut touched = 0;
    for (i, r) in regions.iter().enumerate() {
        let backing = if r.file {
            Backing::File {
                file: i as u32,
                offset_pages: 0,
            }
        } else {
            Backing::Anon
        };
        vm.mmap(0, r.addr, r.pages * PAGE_SIZE, Prot::RW, backing)
            .expect("layout mmap");
        for p in 0..r.resident {
            machine
                .touch_page(0, vm, r.addr + p * PAGE_SIZE, 1)
                .expect("layout touch");
            touched += 1;
        }
    }
    touched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build, BackendKind};

    #[test]
    fn profiles_have_sane_counts() {
        for app in table2_apps() {
            let regions = generate(&app);
            assert_eq!(regions.len(), app.vmas, "{}", app.name);
            let resident: u64 = regions.iter().map(|r| r.resident).sum();
            let rss_pages = app.rss_mb * 256;
            assert!(
                resident > rss_pages * 8 / 10 && resident < rss_pages * 12 / 10,
                "{}: resident {resident} vs target {rss_pages}",
                app.name
            );
            // No overlaps.
            let mut sorted: Vec<(u64, u64)> = regions.iter().map(|r| (r.addr, r.pages)).collect();
            sorted.sort();
            for w in sorted.windows(2) {
                assert!(w[0].0 + w[0].1 * PAGE_SIZE <= w[1].0, "overlap");
            }
        }
    }

    #[test]
    fn build_small_layout() {
        let app = AppProfile {
            name: "tiny",
            vmas: 30,
            rss_mb: 2,
        };
        let machine = Machine::new(1);
        let vm = build(&machine, BackendKind::Radix);
        let regions = generate(&app);
        let touched = build_layout(&machine, &*vm, &regions);
        assert!(touched >= 400, "2 MB ≈ 512 pages touched, got {touched}");
        let usage = vm.space_usage();
        assert!(usage.index_bytes > 0);
    }
}
