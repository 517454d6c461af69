//! Simulated multicore hardware: the machine, cores, TLBs, and the access
//! path connecting user memory operations to VM systems.
//!
//! A [`Machine`] bundles the physical [`FramePool`], one software [`Tlb`]
//! per core, ASID allocation, and the shootdown engine. VM systems — the
//! RadixVM core and the Linux/Bonsai baselines — implement [`VmSystem`]
//! and plug in underneath the same access path:
//!
//! ```text
//! workload op ──> Machine::write(core, vm, va)
//!                   │  TLB hit → frame access (generation-checked)
//!                   └─ TLB miss → vm.pagefault() → TLB fill
//! vm.munmap ──> Machine::shootdown(targets) → IPIs + remote TLB clears
//! ```
//!
//! Shootdowns are *sender-executed*: the munmapping core performs the
//! remote TLB invalidations itself while the simulator charges IPI
//! latencies to sender and targets (see DESIGN.md; delivery mechanics are
//! not what the paper measures — the number of cores contacted is). The
//! `shootdown_enabled` switch exists for failure injection: with it off,
//! stale TLB entries survive and the generation check converts the
//! resulting silent use-after-free into a detectable
//! [`VmError::StaleTranslation`].

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use rvm_mem::{FramePool, Pfn, FRAME_SIZE};
use rvm_sync::{sim, CachePadded, CoreSet, ShardedStats, SpinLock};

pub mod mmu;
pub mod pagetable;
pub mod tlb;

pub use mmu::{Mmu, MmuKind, PerCoreMmu, SharedMmu};
pub use pagetable::{PageTable, Pte, Rung, BLOCK_PAGES, GIANT_PAGES, RUNGS};
pub use rvm_mem::{OutOfMemory, PlacementPolicy};
pub use tlb::{Tlb, TlbEntry};

/// Virtual address.
pub type Vaddr = u64;
/// Virtual page number.
pub type Vpn = u64;
/// Address-space identifier.
pub type Asid = u32;

/// Virtual address bits (x86-64 canonical user space).
pub const VA_BITS: usize = 48;
/// Virtual page number bits.
pub const VPN_BITS: usize = 36;
/// Page size in bytes (= frame size).
pub const PAGE_SIZE: u64 = FRAME_SIZE as u64;
/// log2(PAGE_SIZE).
pub const PAGE_SHIFT: u32 = 12;
/// Exclusive upper bound of user virtual addresses.
pub const VA_LIMIT: Vaddr = 1 << VA_BITS;

/// Converts an address to its page number.
#[inline]
pub fn vpn_of(va: Vaddr) -> Vpn {
    va >> PAGE_SHIFT
}

/// Validates an mmap/munmap/mprotect operation range: page-aligned,
/// non-empty, no overflow, within the canonical user address space.
/// Returns `(first VPN, page count)`. Shared by every backend so
/// `BadRange` semantics cannot drift between them.
pub fn check_range(addr: Vaddr, len: u64) -> VmResult<(Vpn, u64)> {
    if len == 0
        || !addr.is_multiple_of(PAGE_SIZE)
        || !len.is_multiple_of(PAGE_SIZE)
        || addr.checked_add(len).is_none()
        || addr + len > VA_LIMIT
    {
        return Err(VmError::BadRange);
    }
    Ok((vpn_of(addr), len / PAGE_SIZE))
}

/// Memory protection bits.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Prot(pub u8);

impl Prot {
    /// No access.
    pub const NONE: Prot = Prot(0);
    /// Readable.
    pub const READ: Prot = Prot(1);
    /// Readable and writable.
    pub const RW: Prot = Prot(3);

    /// Returns true if reads are permitted.
    #[inline]
    pub fn readable(self) -> bool {
        self.0 & 1 != 0
    }

    /// Returns true if writes are permitted.
    #[inline]
    pub fn writable(self) -> bool {
        self.0 & 2 != 0
    }
}

/// Mapping flags: advisory hints a [`VmSystem::mmap_flags`] caller may
/// pass. Hints are semantics-preserving — a backend may honor or ignore
/// them; reads, protections, and errors are identical either way.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MapFlags(pub u8);

impl MapFlags {
    /// No hints.
    pub const NONE: MapFlags = MapFlags(0);
    /// Huge-page hint (`MAP_HUGETLB`-style): aligned spans of any
    /// [`Rung`] in the mapping are candidates for one superpage PTE
    /// backed by a physically contiguous frame block.
    pub const HUGE: MapFlags = MapFlags(1);

    /// Returns true if the huge-page hint is set.
    #[inline]
    pub fn huge(self) -> bool {
        self.0 & 1 != 0
    }
}

/// What backs a mapping.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backing {
    /// Demand-zero anonymous memory.
    Anon,
    /// A (simulated) file: mapping metadata records `(file, page offset)`.
    File {
        /// File identifier.
        file: u32,
        /// Page offset of the mapping's start within the file.
        offset_pages: u64,
    },
}

/// The kind of memory access being performed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessKind {
    /// Load.
    Read,
    /// Store.
    Write,
}

/// Errors surfaced by VM operations and the access path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VmError {
    /// Address or length is malformed (unaligned, out of range, zero).
    BadRange,
    /// Access or operation on an unmapped address.
    NoMapping,
    /// Access violates the mapping's protection.
    ProtViolation,
    /// An access went through a stale TLB entry to a reused frame — the
    /// corruption TLB shootdown exists to prevent (failure injection).
    StaleTranslation,
    /// The operation is not supported by this VM system.
    Unsupported,
    /// Physical memory is exhausted: every tier of the frame pool's
    /// pressure protocol failed. The operation unwound exactly (no
    /// frames or locks leaked) and may be retried after memory is freed
    /// (DESIGN.md §11).
    OutOfMemory,
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            VmError::BadRange => "bad address range",
            VmError::NoMapping => "no mapping",
            VmError::ProtViolation => "protection violation",
            VmError::StaleTranslation => "stale TLB translation (missed shootdown)",
            VmError::Unsupported => "unsupported operation",
            VmError::OutOfMemory => "out of physical memory",
        };
        f.write_str(s)
    }
}

impl std::error::Error for VmError {}

impl From<rvm_mem::OutOfMemory> for VmError {
    fn from(_: rvm_mem::OutOfMemory) -> Self {
        VmError::OutOfMemory
    }
}

/// Result type for VM operations.
pub type VmResult<T> = Result<T, VmError>;

/// A translation produced by a page-fault handler, ready for TLB fill.
#[derive(Clone, Copy, Debug)]
pub struct Translation {
    /// Target frame.
    pub pfn: Pfn,
    /// Frame generation at mapping time.
    pub gen: u64,
    /// Whether stores are permitted.
    pub writable: bool,
}

/// Space consumed by a VM system's address-space structures (Table 2).
#[derive(Clone, Copy, Debug, Default)]
pub struct SpaceUsage {
    /// Bytes of index metadata (VMA tree / radix tree, including per-page
    /// mapping metadata).
    pub index_bytes: u64,
    /// Bytes of hardware page tables.
    pub pagetable_bytes: u64,
}

impl SpaceUsage {
    /// Total bytes.
    pub fn total(&self) -> u64 {
        self.index_bytes + self.pagetable_bytes
    }
}

/// Operation counters every VM system may report (the paper's §5.2
/// numbers). Backends that do not track a counter leave it zero.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpStats {
    /// mmap invocations.
    pub mmaps: u64,
    /// munmap invocations.
    pub munmaps: u64,
    /// Faults that allocated a new physical page.
    pub faults_alloc: u64,
    /// Faults that only filled a translation (page already present).
    pub faults_fill: u64,
    /// Copy-on-write resolutions.
    pub faults_cow: u64,
    /// Superpage (block) PTE installs — faults that populated or filled
    /// a whole block with one entry.
    pub superpage_installs: u64,
    /// Superpage demotions: one per superpage PTE shattered one rung
    /// down (a block into 4 KiB PTEs, or a giant into block PTEs).
    pub superpage_demotions: u64,
    /// Superpage promotions — demoted (or never-folded) 4 KiB runs
    /// opportunistically re-folded into one block PTE (§7's inverse).
    pub superpage_promotions: u64,
    /// Frames installed by faults that were homed on the faulting core's
    /// NUMA node (placement hit).
    pub fault_frames_on_node: u64,
    /// Frames installed by faults homed on a different node (the access
    /// stream pays cross-node traffic for the page's lifetime).
    pub fault_frames_cross_node: u64,
    /// Operations that failed with [`VmError::OutOfMemory`] after the
    /// full pressure protocol came up empty.
    pub oom_faults: u64,
    /// Superpage populates that degraded to scattered 4 KiB pages
    /// because no contiguous block was available.
    pub block_fallbacks: u64,
    /// Allocations that were satisfied only by reclaiming parked frames
    /// (magazine drain) under pressure.
    pub reclaim_drains: u64,
}

/// Per-core sharded operation counters for [`VmSystem::op_stats`].
///
/// Every backend embeds one and bumps it on each operation with the
/// operating core's id: the bump lands in that core's cache-line-padded
/// cell, so counting costs no cross-core traffic even when every core
/// runs the op loop flat out (sum-on-read; DESIGN.md §6). Totals are
/// exact once the address space is idle — the conformance suite asserts
/// no count is ever lost.
pub struct ShardedOpStats {
    cells: ShardedStats<13>,
}

impl ShardedOpStats {
    const F_MMAPS: usize = 0;
    const F_MUNMAPS: usize = 1;
    const F_FAULTS_ALLOC: usize = 2;
    const F_FAULTS_FILL: usize = 3;
    const F_FAULTS_COW: usize = 4;
    const F_SUPERPAGE_INSTALLS: usize = 5;
    const F_SUPERPAGE_DEMOTIONS: usize = 6;
    const F_FAULT_FRAMES_ON_NODE: usize = 7;
    const F_FAULT_FRAMES_CROSS_NODE: usize = 8;
    const F_OOM_FAULTS: usize = 9;
    const F_BLOCK_FALLBACKS: usize = 10;
    const F_RECLAIM_DRAINS: usize = 11;
    const F_SUPERPAGE_PROMOTIONS: usize = 12;

    /// Creates a block striped for `ncores` cores.
    pub fn new(ncores: usize) -> Self {
        ShardedOpStats {
            cells: ShardedStats::new(ncores),
        }
    }

    /// Counts one mmap by `core`.
    #[inline]
    pub fn mmap(&self, core: usize) {
        self.cells.add(core, Self::F_MMAPS, 1);
    }

    /// Counts one munmap by `core`.
    #[inline]
    pub fn munmap(&self, core: usize) {
        self.cells.add(core, Self::F_MUNMAPS, 1);
    }

    /// Counts one page-allocating fault by `core`.
    #[inline]
    pub fn fault_alloc(&self, core: usize) {
        self.cells.add(core, Self::F_FAULTS_ALLOC, 1);
    }

    /// Counts one fill-only fault by `core`.
    #[inline]
    pub fn fault_fill(&self, core: usize) {
        self.cells.add(core, Self::F_FAULTS_FILL, 1);
    }

    /// Counts one copy-on-write resolution by `core`.
    #[inline]
    pub fn fault_cow(&self, core: usize) {
        self.cells.add(core, Self::F_FAULTS_COW, 1);
    }

    /// Counts one superpage PTE install by `core`.
    #[inline]
    pub fn superpage_install(&self, core: usize) {
        self.cells.add(core, Self::F_SUPERPAGE_INSTALLS, 1);
    }

    /// Counts one superpage demotion by `core`.
    #[inline]
    pub fn superpage_demote(&self, core: usize) {
        self.cells.add(core, Self::F_SUPERPAGE_DEMOTIONS, 1);
    }

    /// Counts one superpage promotion (re-fold) by `core`.
    #[inline]
    pub fn superpage_promote(&self, core: usize) {
        self.cells.add(core, Self::F_SUPERPAGE_PROMOTIONS, 1);
    }

    /// Counts `frames` fault-installed frames homed on the faulting
    /// core's node.
    #[inline]
    pub fn fault_frames_on_node(&self, core: usize, frames: u64) {
        self.cells.add(core, Self::F_FAULT_FRAMES_ON_NODE, frames);
    }

    /// Counts `frames` fault-installed frames homed on a remote node.
    #[inline]
    pub fn fault_frames_cross_node(&self, core: usize, frames: u64) {
        self.cells
            .add(core, Self::F_FAULT_FRAMES_CROSS_NODE, frames);
    }

    /// Counts one operation that failed with
    /// [`VmError::OutOfMemory`] on `core`.
    #[inline]
    pub fn oom_fault(&self, core: usize) {
        self.cells.add(core, Self::F_OOM_FAULTS, 1);
    }

    /// Counts one superpage-to-scattered-pages degradation on `core`.
    #[inline]
    pub fn block_fallback(&self, core: usize) {
        self.cells.add(core, Self::F_BLOCK_FALLBACKS, 1);
    }

    /// Counts one pressure reclaim (magazine drain) on `core`.
    #[inline]
    pub fn reclaim_drain(&self, core: usize) {
        self.cells.add(core, Self::F_RECLAIM_DRAINS, 1);
    }

    /// Sums the cells into an [`OpStats`] snapshot.
    pub fn snapshot(&self) -> OpStats {
        OpStats {
            mmaps: self.cells.sum(Self::F_MMAPS),
            munmaps: self.cells.sum(Self::F_MUNMAPS),
            faults_alloc: self.cells.sum(Self::F_FAULTS_ALLOC),
            faults_fill: self.cells.sum(Self::F_FAULTS_FILL),
            faults_cow: self.cells.sum(Self::F_FAULTS_COW),
            superpage_installs: self.cells.sum(Self::F_SUPERPAGE_INSTALLS),
            superpage_demotions: self.cells.sum(Self::F_SUPERPAGE_DEMOTIONS),
            superpage_promotions: self.cells.sum(Self::F_SUPERPAGE_PROMOTIONS),
            fault_frames_on_node: self.cells.sum(Self::F_FAULT_FRAMES_ON_NODE),
            fault_frames_cross_node: self.cells.sum(Self::F_FAULT_FRAMES_CROSS_NODE),
            oom_faults: self.cells.sum(Self::F_OOM_FAULTS),
            block_fallbacks: self.cells.sum(Self::F_BLOCK_FALLBACKS),
            reclaim_drains: self.cells.sum(Self::F_RECLAIM_DRAINS),
        }
    }
}

/// A virtual memory system managing one address space.
///
/// Implemented by `rvm_core::RadixVm` and the baselines; constructed
/// exclusively through the backend layer (`rvm_backend::build`). All
/// operations take the executing core explicitly (kernel code runs on a
/// core).
pub trait VmSystem: Send + Sync {
    /// Short human-readable name for harness output.
    fn name(&self) -> &'static str;

    /// This address space's identifier (TLB tag).
    fn asid(&self) -> Asid;

    /// Declares that `core` runs threads of this address space (used for
    /// conservative broadcast shootdown).
    fn attach_core(&self, core: usize);

    /// Maps `[addr, addr + len)` with the given protection and backing.
    /// Returns the mapped address. Fixed-address semantics: existing
    /// mappings in the range are replaced.
    fn mmap(
        &self,
        core: usize,
        addr: Vaddr,
        len: u64,
        prot: Prot,
        backing: Backing,
    ) -> VmResult<Vaddr>;

    /// [`VmSystem::mmap`] with advisory [`MapFlags`] (huge-page hint).
    /// Hints are semantics-preserving: the default implementation drops
    /// them, so every backend accepts the call; backends with
    /// variable-granularity support override it.
    fn mmap_flags(
        &self,
        core: usize,
        addr: Vaddr,
        len: u64,
        prot: Prot,
        backing: Backing,
        flags: MapFlags,
    ) -> VmResult<Vaddr> {
        let _ = flags;
        self.mmap(core, addr, len, prot, backing)
    }

    /// Unmaps `[addr, addr + len)`: clears metadata and page tables,
    /// shoots down TLBs, and releases physical pages.
    fn munmap(&self, core: usize, addr: Vaddr, len: u64) -> VmResult<()>;

    /// Handles a page fault at `va` for the given access kind, returning
    /// the translation to cache.
    fn pagefault(&self, core: usize, va: Vaddr, kind: AccessKind) -> VmResult<Translation>;

    /// Changes protection on `[addr, addr + len)`.
    fn mprotect(&self, _core: usize, _addr: Vaddr, _len: u64, _prot: Prot) -> VmResult<()> {
        Err(VmError::Unsupported)
    }

    /// Periodic per-core maintenance (Refcache ticks); default no-op.
    fn maintain(&self, _core: usize) {}

    /// Forks this address space copy-on-write, returning the child.
    /// Backends without fork return [`VmError::Unsupported`]; the backend
    /// layer's metadata (`supports_fork`) says which do.
    fn fork(&self, _core: usize) -> VmResult<Arc<dyn VmSystem>> {
        Err(VmError::Unsupported)
    }

    /// Snapshot of this address space's operation counters.
    fn op_stats(&self) -> OpStats {
        OpStats::default()
    }

    /// Drains all deferred reclamation (Refcache epochs, RCU grace
    /// periods) so frame accounting is exact; default no-op for backends
    /// that free eagerly.
    fn quiesce(&self) {}

    /// The concrete backend, for white-box tests that need to downcast
    /// (`vm.as_any().downcast_ref::<RadixVm>()`). Production code never
    /// calls this.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Current space consumption of the address-space structures.
    fn space_usage(&self) -> SpaceUsage;
}

/// Machine configuration.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Number of cores.
    pub ncores: usize,
    /// TLB entries per core (power of two).
    pub tlb_entries: usize,
    /// Whether munmap sends shootdowns (disable for failure injection).
    pub shootdown_enabled: bool,
    /// Whether accesses validate frame generations (use-after-free
    /// detection; negligible cost, recommended on).
    pub check_generations: bool,
    /// Frame-placement policy of the machine's pool (NUMA knob).
    pub placement: rvm_mem::PlacementPolicy,
    /// NUMA topology: node count, core striping, and hop distances. Must
    /// match the topology installed in the simulator's
    /// [`rvm_sync::CostModel`] for the virtual-time pricing to line up
    /// with placement decisions.
    pub topology: rvm_sync::Topology,
}

impl MachineConfig {
    /// Defaults for `ncores` cores: flat single-node topology.
    pub fn new(ncores: usize) -> Self {
        MachineConfig {
            ncores,
            tlb_entries: 1024,
            shootdown_enabled: true,
            check_generations: true,
            placement: rvm_mem::PlacementPolicy::FirstTouch,
            topology: rvm_sync::Topology::single(),
        }
    }
}

/// Machine-level event counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct MachineStats {
    /// TLB hits on the access path.
    pub tlb_hits: u64,
    /// TLB misses (page faults taken).
    pub tlb_misses: u64,
    /// Shootdown rounds with at least one remote target.
    pub shootdown_rounds: u64,
    /// Total remote shootdown IPIs delivered.
    pub shootdown_ipis: u64,
    /// Shootdowns suppressed by failure injection.
    pub shootdowns_suppressed: u64,
    /// Stale translations detected (should be zero unless injected).
    pub stale_detected: u64,
}

/// Field indices into the machine's sharded stats block.
const F_TLB_HITS: usize = 0;
const F_TLB_MISSES: usize = 1;
const F_SHOOTDOWN_ROUNDS: usize = 2;
const F_SHOOTDOWN_IPIS: usize = 3;
const F_SHOOTDOWNS_SUPPRESSED: usize = 4;
const F_STALE_DETECTED: usize = 5;

/// Bound on fault-retry iterations in [`Machine::access`] before the
/// machine declares a livelock (indicates a VM-system bug).
const RETRY_LIMIT: usize = 1024;

/// The simulated multicore machine.
pub struct Machine {
    cfg: MachineConfig,
    pool: Arc<FramePool>,
    tlbs: Vec<CachePadded<SpinLock<Tlb>>>,
    next_asid: AtomicU32,
    /// Event counters sharded per core: the access path bumps TLB
    /// hit/miss counts on *every* user memory access, so these must never
    /// share a cache line across cores (sum-on-read; DESIGN.md §6).
    stats: ShardedStats<6>,
}

impl Machine {
    /// Creates a machine with default configuration for `ncores`.
    pub fn new(ncores: usize) -> Arc<Machine> {
        Self::with_config(MachineConfig::new(ncores))
    }

    /// Creates a machine with the given configuration.
    pub fn with_config(cfg: MachineConfig) -> Arc<Machine> {
        assert!(cfg.ncores >= 1 && cfg.ncores <= rvm_sync::MAX_CORES);
        let pool = Arc::new(FramePool::with_placement(
            cfg.ncores,
            cfg.placement,
            cfg.topology.clone(),
        ));
        let tlbs = (0..cfg.ncores)
            .map(|_| CachePadded::new(SpinLock::new(Tlb::new(cfg.tlb_entries))))
            .collect();
        Arc::new(Machine {
            stats: ShardedStats::new(cfg.ncores),
            cfg,
            pool,
            tlbs,
            next_asid: AtomicU32::new(1),
        })
    }

    /// Number of cores.
    pub fn ncores(&self) -> usize {
        self.cfg.ncores
    }

    /// The machine's physical frame pool.
    pub fn pool(&self) -> &Arc<FramePool> {
        &self.pool
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The machine's frame-placement policy.
    pub fn placement_policy(&self) -> rvm_mem::PlacementPolicy {
        self.cfg.placement
    }

    /// The machine's NUMA topology.
    pub fn topology(&self) -> &rvm_sync::Topology {
        &self.cfg.topology
    }

    /// Allocates a fresh address-space identifier.
    pub fn alloc_asid(&self) -> Asid {
        self.next_asid.fetch_add(1, Ordering::Relaxed)
    }

    /// Snapshot of machine counters.
    pub fn stats(&self) -> MachineStats {
        MachineStats {
            tlb_hits: self.stats.sum(F_TLB_HITS),
            tlb_misses: self.stats.sum(F_TLB_MISSES),
            shootdown_rounds: self.stats.sum(F_SHOOTDOWN_ROUNDS),
            shootdown_ipis: self.stats.sum(F_SHOOTDOWN_IPIS),
            shootdowns_suppressed: self.stats.sum(F_SHOOTDOWNS_SUPPRESSED),
            stale_detected: self.stats.sum(F_STALE_DETECTED),
        }
    }

    /// Fills `core`'s TLB with `entry`.
    ///
    /// Page-fault handlers must call this *before releasing the lock that
    /// serializes the fault against munmap of the same page*; otherwise a
    /// completed shootdown could be followed by a stale fill. (Real MMUs
    /// make the fill atomic with the faulting access; this is the software
    /// model's equivalent ordering obligation.)
    pub fn tlb_fill(&self, core: usize, entry: TlbEntry) {
        self.tlbs[core].lock().insert(entry);
    }

    /// Performs a user memory access at `va`: translates through `core`'s
    /// TLB (faulting into `vm` on a miss and retrying, as hardware
    /// re-executes the access) and runs `f` on the target frame while the
    /// TLB entry is pinned.
    ///
    /// Running `f` under the TLB lock guarantees that a concurrent
    /// shootdown — which must take the same lock — cannot complete, and
    /// hence the frame cannot be freed, while the access is in flight.
    pub fn access<R>(
        &self,
        core: usize,
        vm: &dyn VmSystem,
        va: Vaddr,
        kind: AccessKind,
        f: impl FnOnce(&FramePool, Pfn, usize) -> R,
    ) -> VmResult<R> {
        if va >= VA_LIMIT {
            return Err(VmError::BadRange);
        }
        let vpn = vpn_of(va);
        let asid = vm.asid();
        let offset = (va % PAGE_SIZE) as usize;
        for _attempt in 0..RETRY_LIMIT {
            {
                let mut tlb = self.tlbs[core].lock();
                if let Some(e) = tlb.lookup(asid, vpn) {
                    if kind == AccessKind::Read || e.writable {
                        // A span entry's gen is the base frame's; block
                        // frames free only as a unit, so it proxies the
                        // whole block. The member frame is the base plus
                        // the page's offset within the span.
                        if self.cfg.check_generations && self.pool.generation(e.pfn) != e.gen {
                            // Report the use-after-unmap and evict the
                            // poisoned entry so later accesses refault
                            // instead of repeating the report.
                            tlb.invalidate_page(asid, vpn);
                            drop(tlb);
                            self.stats.add(core, F_STALE_DETECTED, 1);
                            return Err(VmError::StaleTranslation);
                        }
                        self.stats.add(core, F_TLB_HITS, 1);
                        let pfn = e.pfn + (vpn - e.vpn) as Pfn;
                        return Ok(f(&self.pool, pfn, offset));
                    }
                    // Write through a read-only entry: fall through to a
                    // fault (the VM may upgrade, e.g. copy-on-write).
                }
            }
            self.stats.add(core, F_TLB_MISSES, 1);
            let tr = vm.pagefault(core, va, kind)?;
            // Complete the access through the translation the fault
            // handler produced, even if a concurrent munmap has already
            // shot the fresh TLB entry down — the paper's §3.4 semantics:
            // when pagefault wins the metadata lock, the faulting access
            // may complete while munmap is in flight. This is safe
            // because physical frames are freed through Refcache, whose
            // epoch barrier cannot pass until *this* core flushes again —
            // which it cannot do mid-access. The generation check guards
            // the (never-taken in practice) remaining window.
            if (kind == AccessKind::Read || tr.writable)
                && (!self.cfg.check_generations || self.pool.generation(tr.pfn) == tr.gen)
            {
                return Ok(f(&self.pool, tr.pfn, offset));
            }
            // Protection changed or frame already recycled: fault again.
        }
        panic!("translation livelock at va {va:#x} (fault/shootdown loop)");
    }

    /// Writes a word at `va` through the access path.
    pub fn write_u64(&self, core: usize, vm: &dyn VmSystem, va: Vaddr, val: u64) -> VmResult<()> {
        self.access(core, vm, va, AccessKind::Write, |pool, pfn, off| {
            pool.write_u64(pfn, off, val)
        })
    }

    /// Reads a word at `va` through the access path.
    pub fn read_u64(&self, core: usize, vm: &dyn VmSystem, va: Vaddr) -> VmResult<u64> {
        self.access(core, vm, va, AccessKind::Read, |pool, pfn, off| {
            pool.read_u64(pfn, off)
        })
    }

    /// Writes an entire page (workload "touch": one access + page fill).
    pub fn touch_page(&self, core: usize, vm: &dyn VmSystem, va: Vaddr, byte: u8) -> VmResult<()> {
        self.access(core, vm, va, AccessKind::Write, |pool, pfn, _| {
            pool.fill(pfn, byte)
        })
    }

    /// Invalidates `core`'s own TLB for a page range (no IPI).
    pub fn invalidate_local(&self, core: usize, asid: Asid, start_vpn: Vpn, n: u64) {
        self.tlbs[core].lock().invalidate_range(asid, start_vpn, n);
    }

    /// Performs a TLB shootdown round from `sender` to `targets`.
    ///
    /// The sender's own TLB (if in `targets`) is invalidated locally
    /// without an IPI; remote targets each cost an IPI and have the range
    /// cleared from their TLBs. Returns the number of remote IPIs.
    pub fn shootdown(
        &self,
        sender: usize,
        asid: Asid,
        start_vpn: Vpn,
        n: u64,
        targets: CoreSet,
    ) -> usize {
        if targets.contains(sender) {
            self.invalidate_local(sender, asid, start_vpn, n);
        }
        let mut remote = targets;
        remote.remove(sender);
        if remote.is_empty() {
            return 0;
        }
        if !self.cfg.shootdown_enabled {
            self.stats
                .add(sender, F_SHOOTDOWNS_SUPPRESSED, remote.len() as u64);
            return 0;
        }
        sim::ipi_round(remote);
        for t in remote.iter() {
            self.tlbs[t].lock().invalidate_range(asid, start_vpn, n);
        }
        self.stats.add(sender, F_SHOOTDOWN_ROUNDS, 1);
        self.stats
            .add(sender, F_SHOOTDOWN_IPIS, remote.len() as u64);
        remote.len()
    }

    /// Flushes every core's TLB entries for an address space (used when an
    /// address space is destroyed).
    pub fn flush_asid(&self, asid: Asid) {
        for t in &self.tlbs {
            t.lock().invalidate_asid(asid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial VmSystem: identity-ish mapping over a fixed set of pages,
    /// allocating frames on first fault.
    struct ToyVm {
        asid: Asid,
        machine: Arc<Machine>,
        frames: rvm_sync::Mutex<std::collections::HashMap<Vpn, Pfn>>,
        limit_vpn: Vpn,
    }

    impl ToyVm {
        fn new(m: &Arc<Machine>, limit_vpn: Vpn) -> ToyVm {
            ToyVm {
                asid: m.alloc_asid(),
                machine: m.clone(),
                frames: rvm_sync::Mutex::new(std::collections::HashMap::new()),
                limit_vpn,
            }
        }
    }

    impl VmSystem for ToyVm {
        fn name(&self) -> &'static str {
            "toy"
        }

        fn asid(&self) -> Asid {
            self.asid
        }

        fn attach_core(&self, _core: usize) {}

        fn mmap(&self, _c: usize, a: Vaddr, _l: u64, _p: Prot, _b: Backing) -> VmResult<Vaddr> {
            Ok(a)
        }

        fn munmap(&self, _c: usize, _a: Vaddr, _l: u64) -> VmResult<()> {
            Ok(())
        }

        fn pagefault(&self, core: usize, va: Vaddr, _k: AccessKind) -> VmResult<Translation> {
            let vpn = vpn_of(va);
            if vpn >= self.limit_vpn {
                return Err(VmError::NoMapping);
            }
            let pool = self.machine.pool();
            let mut frames = self.frames.lock();
            let pfn = *frames.entry(vpn).or_insert_with(|| pool.alloc(core));
            let tr = Translation {
                pfn,
                gen: pool.generation(pfn),
                writable: true,
            };
            // Fill while holding the frames lock (serializes vs. unmap).
            self.machine.tlb_fill(
                core,
                TlbEntry {
                    asid: self.asid,
                    vpn,
                    pfn: tr.pfn,
                    gen: tr.gen,
                    span: 1,
                    writable: tr.writable,
                    valid: true,
                },
            );
            Ok(tr)
        }

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }

        fn space_usage(&self) -> SpaceUsage {
            SpaceUsage::default()
        }
    }

    #[test]
    fn access_path_roundtrip() {
        let m = Machine::new(2);
        let vm = ToyVm::new(&m, 100);
        m.write_u64(0, &vm, 0x1000, 0xABCD).unwrap();
        assert_eq!(m.read_u64(0, &vm, 0x1000).unwrap(), 0xABCD);
        // Second access hits the TLB.
        let s0 = m.stats();
        assert_eq!(m.read_u64(0, &vm, 0x1008).unwrap(), 0);
        let s1 = m.stats();
        assert_eq!(s1.tlb_misses, s0.tlb_misses);
        assert!(s1.tlb_hits > s0.tlb_hits);
    }

    #[test]
    fn fault_on_unmapped() {
        let m = Machine::new(1);
        let vm = ToyVm::new(&m, 4);
        assert_eq!(
            m.read_u64(0, &vm, 100 << PAGE_SHIFT),
            Err(VmError::NoMapping)
        );
        assert_eq!(m.read_u64(0, &vm, VA_LIMIT), Err(VmError::BadRange));
    }

    #[test]
    fn shootdown_clears_remote_tlbs() {
        let m = Machine::new(3);
        let vm = ToyVm::new(&m, 100);
        // Cores 1 and 2 cache vpn 1.
        m.write_u64(1, &vm, 0x1000, 7).unwrap();
        m.write_u64(2, &vm, 0x1000, 8).unwrap();
        let mut targets = CoreSet::EMPTY;
        targets.insert(1);
        targets.insert(2);
        let ipis = m.shootdown(1, vm.asid(), 1, 1, targets);
        assert_eq!(ipis, 1, "core 1 is local to the sender; only core 2 IPIs");
        // Next accesses miss again.
        let miss0 = m.stats().tlb_misses;
        m.read_u64(1, &vm, 0x1000).unwrap();
        m.read_u64(2, &vm, 0x1000).unwrap();
        assert_eq!(m.stats().tlb_misses, miss0 + 2);
    }

    #[test]
    fn suppressed_shootdown_leaves_stale_entry_detected() {
        let mut cfg = MachineConfig::new(2);
        cfg.shootdown_enabled = false;
        let m = Machine::with_config(cfg);
        let vm = ToyVm::new(&m, 100);
        // Core 1 caches the translation.
        m.write_u64(1, &vm, 0x1000, 7).unwrap();
        let pfn = {
            let frames = vm.frames.lock();
            frames[&1]
        };
        // "Unmap" on core 0: clear VM state, attempt shootdown (suppressed),
        // free the frame.
        vm.frames.lock().remove(&1);
        m.shootdown(0, vm.asid(), 1, 1, CoreSet::single(1));
        m.pool().free(0, pfn);
        // Core 1's stale TLB entry now points at a freed (reusable) frame:
        // the generation check catches it.
        assert_eq!(m.read_u64(1, &vm, 0x1000), Err(VmError::StaleTranslation));
        assert_eq!(m.stats().stale_detected, 1);
        assert_eq!(m.stats().shootdowns_suppressed, 1);
    }

    #[test]
    fn local_shootdown_is_free() {
        let m = Machine::new(4);
        let vm = ToyVm::new(&m, 100);
        m.write_u64(2, &vm, 0x1000, 1).unwrap();
        let ipis = m.shootdown(2, vm.asid(), 1, 1, CoreSet::single(2));
        assert_eq!(ipis, 0);
        assert_eq!(m.stats().shootdown_rounds, 0);
    }

    #[test]
    fn flush_asid_clears_everywhere() {
        let m = Machine::new(2);
        let vm = ToyVm::new(&m, 100);
        m.write_u64(0, &vm, 0x1000, 1).unwrap();
        m.write_u64(1, &vm, 0x2000, 2).unwrap();
        m.flush_asid(vm.asid());
        let miss0 = m.stats().tlb_misses;
        m.read_u64(0, &vm, 0x1000).unwrap();
        m.read_u64(1, &vm, 0x2000).unwrap();
        assert_eq!(m.stats().tlb_misses, miss0 + 2);
    }
}
