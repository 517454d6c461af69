//! Simulated physical memory: a frame pool with per-core free lists.
//!
//! Stands in for the kernel page allocator underneath the VM systems.
//! Design points taken from the paper's evaluation environment:
//!
//! * **Per-core free lists**: frame allocation and free are core-local in
//!   the common case, so the allocator itself never becomes the bottleneck
//!   being measured.
//! * **Per-node reservoirs + home-node return**: every frame is homed on a
//!   NUMA *node* (see [`PlacementPolicy`]); a frame freed on a core of a
//!   different node is batched back to its home node's reservoir. The
//!   pipeline microbenchmark's cross-socket traffic includes exactly this
//!   "synchronization to return freed pages to their home nodes" (§5.3).
//!   Reservoir invariants are in DESIGN.md §10.
//! * **Generation tags**: every frame carries a generation counter bumped
//!   on each free. A translation caches the generation it observed; a
//!   later access through a stale (not shot down) TLB entry detects the
//!   mismatch. This makes the unmap/shootdown safety invariant *testable*
//!   — disabling shootdown must produce detectable use-after-free.
//! * Frames hold real 4 KB buffers, so workloads store and verify real
//!   data through the VM systems.
//!
//! The frame table is a chunked array reachable through atomic pointers:
//! lookups are lock-free and read-mostly (they scale perfectly); only
//! growth takes a lock. A global lock here would serialize every VM
//! system under test and invalidate the scalability experiments.
//!
//! # The frame table as the ownership authority (DESIGN.md §8)
//!
//! Every frame's `FrameSlot` embeds a Refcache count cell
//! ([`rvm_refcache::CountSlot`]), so the table — not a per-fault heap
//! object — is where page reference counts live, exactly as in the
//! paper's kernel. A VM system takes the first reference with
//! [`FramePool::retain_page`] / [`FramePool::retain_block`] (which arms
//! the cell; no allocation), carries it as a plain [`FrameRef`] handle
//! (pfn + generation), and adjusts it through
//! [`FramePool::ref_inc`]/[`FramePool::ref_dec`]. When the cell's true
//! count is confirmed zero, the slot's kind decides the release action:
//! a page slot frees one frame, a block-head slot frees the whole
//! contiguous block. Baseline VM systems that count eagerly keep using
//! the separate `mapcount` word.

use std::sync::atomic::{AtomicPtr, AtomicU16, AtomicU64, AtomicU8, Ordering};

use rvm_refcache::{CountSlot, Refcache, ReleaseCtx, SlotManaged, SlotPtr};
use rvm_sync::{failpoint, sim, CachePadded, ShardedStats, SpinLock, Topology};

/// Physical memory is exhausted: every tier of the pressure protocol
/// (free list, reservoir, magazine drain, remote steal, growth) came up
/// empty. A survivable condition, not a bug — callers unwind and
/// surface it as `VmError::OutOfMemory` (DESIGN.md §11).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutOfMemory;

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("out of physical memory")
    }
}

impl std::error::Error for OutOfMemory {}

/// A [`Topology`] that failed [`Topology::validate`], with the reason.
/// Returned by [`FramePool::try_with_placement`] so embedders can
/// surface configuration mistakes instead of aborting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvalidTopology(pub String);

impl std::fmt::Display for InvalidTopology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid NUMA topology: {}", self.0)
    }
}

impl std::error::Error for InvalidTopology {}

/// What the pressure protocol had to do to satisfy one allocation
/// (returned by [`FramePool::try_alloc_traced`] so VM systems can count
/// reclaim activity in their own op stats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocEvents {
    /// The frame came from draining the core's own outbound magazine.
    pub drained: bool,
    /// The frame was stolen from a remote node's reservoir.
    pub stole: bool,
}

/// Size of a physical frame / virtual page in bytes.
pub const FRAME_SIZE: usize = 4096;

/// log2 of the frames in a superpage-backing block (2 MiB / 4 KiB), the
/// order [`FramePool::alloc_block`] takes for a block PTE.
pub const BLOCK_ORDER: u8 = 9;

/// log2 of the frames in a giant-superpage block (1 GiB / 4 KiB): the
/// second granularity rung. Giant blocks flow through the same
/// `alloc_block`/`free_block`/`retain_block` machinery as 2 MiB blocks —
/// only the order differs.
pub const GIANT_ORDER: u8 = 2 * BLOCK_ORDER;

/// Physical frame number.
pub type Pfn = u32;

/// Reserved invalid frame number.
pub const NULL_PFN: Pfn = u32::MAX;

/// Frames per table chunk (chunked growth keeps metadata addresses stable).
const CHUNK_FRAMES: usize = 1024;

/// Maximum number of chunks (bounds pool size at 32 M frames = 128 GB).
const MAX_CHUNKS: usize = 32_768;

/// Slot kind: the frame is referenced page-by-page; release frees one
/// frame.
const KIND_PAGE: u8 = 0;
/// Slot kind: the frame heads a contiguous block of `1 << order` frames
/// whose members are never counted individually; release frees the
/// block.
const KIND_BLOCK: u8 = 1;

/// The Refcache payload embedded in every frame-table slot: enough
/// context for the zero-count action to return the frame (or its whole
/// block) to the pool it came from.
pub struct FrameRc {
    /// This slot's frame number (fixed at table growth).
    pfn: Pfn,
    /// Page vs. block-head (set at each [`FramePool::retain_page`] /
    /// [`FramePool::retain_block`]).
    kind: AtomicU8,
    /// Block order for block-head slots (set at retain; the zero-count
    /// action must free exactly the frames the retain covered).
    order: AtomicU8,
    /// The owning pool, set at retain time. Sound to dereference at
    /// release: the slot lives *inside* the pool's table, so the pool is
    /// necessarily alive (and pinned — retain takes `&self` on its final
    /// home) whenever Refcache runs the action.
    pool: AtomicPtr<FramePool>,
}

impl SlotManaged for FrameRc {
    fn on_zero(&self, ctx: &ReleaseCtx<'_>) {
        let pool = self.pool.load(Ordering::Acquire);
        debug_assert!(!pool.is_null(), "released a never-retained frame slot");
        // SAFETY: see the `pool` field docs.
        let pool = unsafe { &*pool };
        match self.kind.load(Ordering::Acquire) {
            KIND_PAGE => pool.free(ctx.core, self.pfn),
            _ => pool.free_block(ctx.core, self.pfn, self.order.load(Ordering::Acquire)),
        }
    }
}

/// An owning handle to one reference on a frame-table slot: the frame
/// (for block-head slots, the block's base frame) plus the generation
/// observed when the reference was taken. Plain copyable data — the
/// whole point is that holding a frame costs no heap object — but each
/// copy must be covered by exactly one slot reference
/// ([`FramePool::ref_inc`]/[`FramePool::ref_dec`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FrameRef {
    /// The referenced frame (block base for block-head slots).
    pub pfn: Pfn,
    /// Generation at acquisition; a mismatch at `ref_dec` means the
    /// handle outlived its reference (use-after-free bug).
    pub gen: u64,
    /// log2 frames covered by the slot: 0 for page slots, the block
    /// order for block-head slots. Member frames of a block resolve as
    /// `pfn + (offset & ((1 << order) - 1))` — the handle carries the
    /// order so a demoted member reference (which must keep `pfn` at
    /// the block head, where the count cell lives) still knows the
    /// covered span at any rung (2 MiB or 1 GiB).
    pub order: u8,
}

/// One frame's table slot: payload storage, homing/generation
/// bookkeeping, and the embedded reference-count cell.
///
/// Line-aligned so two frames' count state never share a cache line:
/// neighbouring frames can be homed on (and counted by) different
/// cores, and a false-shared slot line would reintroduce exactly the
/// incidental traffic the embedded cell exists to remove. The ~2-3 %
/// per-frame overhead matches a real kernel's `struct page`.
#[repr(align(64))]
struct FrameSlot {
    /// Embedded Refcache count cell (DESIGN.md §8). Instrumented state:
    /// count traffic is real kernel-side sharing.
    rc: CountSlot<FrameRc>,
    /// Heap storage for the frame's 4096 bytes.
    data: Box<[u8; FRAME_SIZE]>,
    /// NUMA node whose reservoir this frame returns to when freed on a
    /// core of a different node (plain bookkeeping, uninstrumented).
    home: AtomicU16,
    /// Bumped on every free; stale translations detect the change.
    /// Plain (uninstrumented) atomic: generation checks model the MMU
    /// hardware's view of memory, not kernel cache traffic.
    gen: AtomicU64,
    /// Map count for VM systems that use eager, immediate reference
    /// counting (the Linux/Bonsai baselines). Instrumented: this is real
    /// kernel-side shared state.
    mapcount: rvm_sync::Atomic64,
}

/// Where frames are placed across NUMA nodes: which node a fresh frame is
/// homed on (and hence which node's reservoir it returns to when freed),
/// and which node an allocation draws from. The paper's evaluation
/// machines are NUMA; this knob models the kernel's page-placement
/// choice. See DESIGN.md §10.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PlacementPolicy {
    /// Frames are homed on the allocating core's node (the kernel's
    /// default local-allocation policy): all allocator work is on-node.
    #[default]
    FirstTouch,
    /// Allocations stride round-robin across nodes via a per-core cursor:
    /// memory spreads evenly at the cost of mostly-remote placement. The
    /// stride cursor is per-core ([`CachePadded`]) so interleave never
    /// adds a shared contended line to the allocation path.
    Interleave,
    /// Frame placement as [`PlacementPolicy::FirstTouch`], plus read-
    /// mostly radix *index* nodes are replicated per node in the
    /// simulator's cost model (reads are node-local; a write invalidates
    /// every node's replica and pays the broadcast — see
    /// `rvm_sync::sim::place_replicated`).
    ReplicateReadOnly,
}

/// Allocation statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct PoolStats {
    /// Fresh frames created.
    pub fresh: u64,
    /// Allocations served from a free list.
    pub reused: u64,
    /// Frees destined for a remote home node (batched via magazines).
    pub remote_frees: u64,
    /// Frees pushed to the local core's list.
    pub local_frees: u64,
    /// Pages freed on a core of the frame's home node.
    pub on_node_frees: u64,
    /// Pages freed on a core of a different node than the frame's home
    /// (placement-regression signal: surfaced in the bench JSON).
    pub cross_node_frees: u64,
    /// Outbound-magazine flushes (each returns a whole batch of remote
    /// frees to their home lists).
    pub magazine_flushes: u64,
    /// Contiguous blocks handed out by [`FramePool::alloc_block`].
    pub block_allocs: u64,
    /// Contiguous blocks returned by [`FramePool::free_block`].
    pub block_frees: u64,
    /// Blocks currently parked in the reservation pool (a gauge, read at
    /// snapshot time — hugetlb-style `reserve`/`release` accounting).
    pub blocks_reserved: u64,
    /// Pages handed out by `alloc`/`alloc_block` (leak accounting; see
    /// [`FramePool::outstanding_frames`]).
    pub alloc_pages: u64,
    /// Pages returned through `free`/`free_block`.
    pub free_pages: u64,
    /// Allocations satisfied by draining the core's own outbound
    /// magazine under pressure (tier 4 of the pressure protocol).
    pub reclaim_drains: u64,
    /// Allocations satisfied by stealing from a remote node's reservoir
    /// under pressure (tier 5; priced at hop cost).
    pub remote_steals: u64,
}

/// Field indices into the sharded stats block.
const F_FRESH: usize = 0;
const F_REUSED: usize = 1;
const F_REMOTE_FREES: usize = 2;
const F_LOCAL_FREES: usize = 3;
const F_MAG_FLUSHES: usize = 4;
const F_BLOCK_ALLOCS: usize = 5;
const F_BLOCK_FREES: usize = 6;
const F_ALLOC_PAGES: usize = 7;
const F_FREE_PAGES: usize = 8;
const F_ON_NODE_FREES: usize = 9;
const F_CROSS_NODE_FREES: usize = 10;
const F_RECLAIM_DRAINS: usize = 11;
const F_REMOTE_STEALS: usize = 12;

/// Remote frees a core accumulates before flushing its outbound magazine
/// to the home cores' lists. Large enough to amortize the home list's
/// cache-line transfer across a batch, small enough that parked frames
/// are a negligible slice of the pool.
pub const MAGAZINE_SIZE: usize = 64;

/// Fresh frames created per growth (the per-CPU pageset refill batch).
const REFILL_BATCH: usize = 64;

/// One core's outbound magazine: remote frees tagged with their home
/// node.
type Magazine = Vec<(u16, Pfn)>;

/// A free-list of contiguous blocks, as `(order, base)` pairs.
type BlockList = Vec<(u8, Pfn)>;

/// The machine-wide physical frame pool.
pub struct FramePool {
    ncores: usize,
    /// Placement policy for frames (see [`PlacementPolicy`]).
    policy: PlacementPolicy,
    /// NUMA topology: maps cores to nodes and defines the node count.
    topology: Topology,
    /// Cached node id per core (from `topology`).
    core_node: Vec<u16>,
    /// Number of NUMA nodes (≥ 1).
    nnodes: usize,
    /// Per-core stride cursors for [`PlacementPolicy::Interleave`]: each
    /// core picks its next target node from its own padded cursor, so
    /// interleave adds no globally shared line to the allocation path
    /// (the old single `rr_next` word did).
    cursors: Vec<CachePadded<AtomicU64>>,
    free_lists: Vec<CachePadded<SpinLock<Vec<Pfn>>>>,
    /// Per-node frame reservoirs: the second allocation tier. A core with
    /// an empty free list pulls a batch from its own node's reservoir;
    /// magazines flush cross-node frees here by home node. Any core may
    /// lock any node's reservoir (remote pulls under interleave, magazine
    /// flushes), which is exactly the traffic the simulator prices.
    reservoirs: Vec<CachePadded<SpinLock<Vec<Pfn>>>>,
    /// Per-node reservoirs of contiguous blocks. Blocks are few and
    /// large, so the short linear scan for a matching order is noise.
    block_reservoirs: Vec<CachePadded<SpinLock<BlockList>>>,
    /// Hugetlb-style reservation pool: pre-created blocks parked until
    /// drawn by `alloc_block` or returned by `release`.
    reserved: SpinLock<BlockList>,
    /// Per-core outbound magazines: cross-node frees park here (tagged
    /// with their home node) and return home in batches, so a stream of
    /// cross-node frees costs one reservoir cache-line transfer per
    /// [`MAGAZINE_SIZE`] pages instead of one per page (§5.3's
    /// "synchronization to return freed pages to their home nodes").
    magazines: Vec<CachePadded<SpinLock<Magazine>>>,
    /// Chunk pointer table: `chunk_ptrs[i]` points at a leaked
    /// `[FrameSlot; CHUNK_FRAMES]` slice, published with `Release` after
    /// initialization and reclaimed in `Drop`.
    chunk_ptrs: Box<[AtomicPtr<FrameSlot>]>,
    /// Serializes growth only (short holds: batch bookkeeping).
    grow_lock: SpinLock<()>,
    /// Number of frames in the table. Pool-internal bookkeeping (not
    /// modeled kernel state): a real kernel's frame table is statically
    /// sized, so this counter is deliberately uninstrumented.
    nframes: AtomicU64,
    /// Upper bound on `nframes` (defaults to the table's hard capacity).
    /// Growth past the limit fails with [`OutOfMemory`]; tests and the
    /// pressure bench lower it to make exhaustion inducible.
    frame_limit: AtomicU64,
    /// Counters sharded per core (sum-on-read; DESIGN.md §6).
    stats: ShardedStats<13>,
}

/// Hard capacity of the frame table (chunk table fully populated).
const TABLE_CAPACITY: u64 = (MAX_CHUNKS * CHUNK_FRAMES) as u64;

impl FramePool {
    /// Creates a pool serving `ncores` cores with first-touch placement
    /// on a single-node (flat) topology.
    pub fn new(ncores: usize) -> Self {
        Self::with_placement(ncores, PlacementPolicy::FirstTouch, Topology::single())
    }

    /// Creates a pool serving `ncores` cores with the given placement
    /// policy and NUMA topology.
    ///
    /// # Panics
    ///
    /// Panics on an invalid topology; use
    /// [`FramePool::try_with_placement`] to handle that as a typed
    /// error instead.
    pub fn with_placement(ncores: usize, policy: PlacementPolicy, topology: Topology) -> Self {
        match Self::try_with_placement(ncores, policy, topology) {
            Ok(pool) => pool,
            Err(e) => panic!("FramePool: {e}"),
        }
    }

    /// Creates a pool serving `ncores` cores with the given placement
    /// policy and NUMA topology, surfacing an invalid topology as a
    /// typed error instead of panicking.
    pub fn try_with_placement(
        ncores: usize,
        policy: PlacementPolicy,
        topology: Topology,
    ) -> Result<Self, InvalidTopology> {
        assert!((1..=rvm_sync::MAX_CORES).contains(&ncores));
        topology.validate().map_err(InvalidTopology)?;
        let nnodes = topology.nnodes;
        let core_node: Vec<u16> = (0..ncores).map(|c| topology.node_of(c) as u16).collect();
        let chunk_ptrs = (0..MAX_CHUNKS)
            .map(|_| AtomicPtr::new(std::ptr::null_mut()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Ok(FramePool {
            ncores,
            policy,
            topology,
            core_node,
            nnodes,
            // Start each core's stride at its own index so concurrent
            // interleaved allocators begin on different nodes.
            cursors: (0..ncores)
                .map(|c| CachePadded::new(AtomicU64::new(c as u64)))
                .collect(),
            free_lists: (0..ncores)
                .map(|_| CachePadded::new(SpinLock::new(Vec::new())))
                .collect(),
            reservoirs: (0..nnodes)
                .map(|_| CachePadded::new(SpinLock::new(Vec::new())))
                .collect(),
            block_reservoirs: (0..nnodes)
                .map(|_| CachePadded::new(SpinLock::new(Vec::new())))
                .collect(),
            reserved: SpinLock::new(Vec::new()),
            magazines: (0..ncores)
                .map(|_| CachePadded::new(SpinLock::new(Vec::with_capacity(MAGAZINE_SIZE))))
                .collect(),
            chunk_ptrs,
            grow_lock: SpinLock::new(()),
            nframes: AtomicU64::new(0),
            frame_limit: AtomicU64::new(TABLE_CAPACITY),
            stats: ShardedStats::new(ncores),
        })
    }

    /// Caps the pool at `frames` total frames: growth past the limit
    /// fails with [`OutOfMemory`] and allocation falls into the
    /// pressure tiers. Lowering the limit below the current table size
    /// only blocks *further* growth — existing frames stay usable.
    /// The limit is always bounded by the table's hard capacity.
    pub fn set_frame_limit(&self, frames: u64) {
        self.frame_limit
            .store(frames.min(TABLE_CAPACITY), Ordering::Release);
    }

    /// Current frame limit (the table's hard capacity by default).
    pub fn frame_limit(&self) -> u64 {
        self.frame_limit.load(Ordering::Acquire)
    }

    /// Number of cores this pool serves.
    pub fn ncores(&self) -> usize {
        self.ncores
    }

    /// The pool's placement policy.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// The pool's NUMA topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// NUMA node of `core`.
    #[inline]
    pub fn node_of(&self, core: usize) -> usize {
        self.core_node[core] as usize
    }

    /// Next target node for an interleaved allocation on `core`: a
    /// per-core stride, so no shared cursor line.
    #[inline]
    fn stride_target(&self, core: usize) -> usize {
        self.cursors[core].fetch_add(1, Ordering::Relaxed) as usize % self.nnodes
    }

    /// Total frames ever created.
    pub fn total_frames(&self) -> usize {
        self.nframes.load(Ordering::Acquire) as usize
    }

    /// Snapshot of the pool's statistics.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            fresh: self.stats.sum(F_FRESH),
            reused: self.stats.sum(F_REUSED),
            remote_frees: self.stats.sum(F_REMOTE_FREES),
            local_frees: self.stats.sum(F_LOCAL_FREES),
            magazine_flushes: self.stats.sum(F_MAG_FLUSHES),
            block_allocs: self.stats.sum(F_BLOCK_ALLOCS),
            block_frees: self.stats.sum(F_BLOCK_FREES),
            blocks_reserved: self.reserved.lock().len() as u64,
            alloc_pages: self.stats.sum(F_ALLOC_PAGES),
            free_pages: self.stats.sum(F_FREE_PAGES),
            on_node_frees: self.stats.sum(F_ON_NODE_FREES),
            cross_node_frees: self.stats.sum(F_CROSS_NODE_FREES),
            reclaim_drains: self.stats.sum(F_RECLAIM_DRAINS),
            remote_steals: self.stats.sum(F_REMOTE_STEALS),
        }
    }

    /// Pages currently handed out (allocated minus freed). Wrapping
    /// sum-on-read: exact when allocators are quiescent (after every
    /// backend's `quiesce` + magazine flush), which is where the
    /// frame-leak conformance gate reads it.
    pub fn outstanding_frames(&self) -> u64 {
        self.stats
            .sum(F_ALLOC_PAGES)
            .wrapping_sub(self.stats.sum(F_FREE_PAGES))
    }

    /// Lock-free frame-table slot lookup.
    fn slot(&self, pfn: Pfn) -> &FrameSlot {
        debug_assert!(pfn != NULL_PFN);
        let idx = pfn as usize;
        debug_assert!(idx < self.total_frames(), "pfn {pfn} out of range");
        let chunk = self.chunk_ptrs[idx / CHUNK_FRAMES].load(Ordering::Acquire);
        debug_assert!(!chunk.is_null());
        // SAFETY: a non-null chunk pointer was published with `Release`
        // after full initialization, is never replaced or freed before
        // `Drop`, and `idx % CHUNK_FRAMES` is in bounds by construction.
        unsafe { &*chunk.add(idx % CHUNK_FRAMES) }
    }

    /// The Refcache count cell of `pfn`'s frame-table slot.
    fn cell(&self, pfn: Pfn) -> SlotPtr<FrameRc> {
        self.slot(pfn).rc.handle()
    }

    /// Arms `pfn`'s frame-table cell as a *page* slot holding
    /// `init_count` references through `cache`, returning the owning
    /// handle. The caller must have just allocated `pfn` (exclusive
    /// ownership); no heap allocation happens — the count lives in the
    /// statically-indexed table (DESIGN.md §8).
    pub fn retain_page(
        &self,
        cache: &Refcache,
        core: usize,
        pfn: Pfn,
        init_count: i64,
    ) -> FrameRef {
        self.arm(cache, core, pfn, KIND_PAGE, 0, init_count)
    }

    /// Arms the cell of the contiguous block based at `base` (allocated
    /// with [`FramePool::alloc_block`] at the same `order`) as a
    /// *block-head* slot holding `init_count` references: member frames
    /// are never counted individually, and the zero-count action frees
    /// exactly the `1 << order` frames of that allocation.
    pub fn retain_block(
        &self,
        cache: &Refcache,
        core: usize,
        base: Pfn,
        order: u8,
        init_count: i64,
    ) -> FrameRef {
        assert!(order <= GIANT_ORDER, "unsupported block order {order}");
        self.arm(cache, core, base, KIND_BLOCK, order, init_count)
    }

    fn arm(
        &self,
        cache: &Refcache,
        core: usize,
        pfn: Pfn,
        kind: u8,
        order: u8,
        init_count: i64,
    ) -> FrameRef {
        let slot = self.slot(pfn);
        let rc = slot.rc.get();
        debug_assert_eq!(rc.pfn, pfn);
        rc.kind.store(kind, Ordering::Release);
        rc.order.store(order, Ordering::Release);
        rc.pool.store(
            self as *const FramePool as *mut FramePool,
            Ordering::Release,
        );
        cache.activate(core, slot.rc.handle(), init_count);
        FrameRef {
            pfn,
            gen: slot.gen.load(Ordering::Acquire),
            order,
        }
    }

    /// Takes one more reference on the slot behind `r`.
    ///
    /// The caller must already hold a live reference covering `r` (the
    /// usual Refcache discipline).
    #[inline]
    pub fn ref_inc(&self, cache: &Refcache, core: usize, r: FrameRef) {
        debug_assert_eq!(self.generation(r.pfn), r.gen, "stale frame handle");
        cache.inc(core, self.cell(r.pfn));
    }

    /// Surrenders one reference on the slot behind `r`. When the true
    /// count is confirmed zero the frame (or whole block, per the slot's
    /// kind) returns to the pool.
    #[inline]
    pub fn ref_dec(&self, cache: &Refcache, core: usize, r: FrameRef) {
        debug_assert_eq!(self.generation(r.pfn), r.gen, "stale frame handle");
        cache.dec(core, self.cell(r.pfn));
    }

    /// Allocates a zeroed frame on `core`.
    ///
    /// Under first-touch (and replicate-read-only, which places frames
    /// identically) the allocation is node-local: the core's own free
    /// list, then a batch pulled from its node's reservoir, then a fresh
    /// batch created under the growth lock and homed on the core's node —
    /// the per-CPU pageset refill pattern of real kernels, which keeps
    /// the growth lock off the steady-state fault path.
    ///
    /// Under interleave, each allocation strides the core's cursor across
    /// nodes; a remote target draws one frame from that node's reservoir
    /// (growing a batch homed there when empty) *without* adopting the
    /// rest locally — adopted remote frames would drift the pool back to
    /// first-touch steady state and hide the placement difference.
    ///
    /// Charges the simulator for zeroing, priced by the hop distance to
    /// the frame's home node.
    ///
    /// # Panics
    ///
    /// Panics when the pool is exhausted; VM fault paths use
    /// [`FramePool::try_alloc`] and surface the failure instead.
    pub fn alloc(&self, core: usize) -> Pfn {
        match self.try_alloc(core) {
            Ok(pfn) => pfn,
            Err(e) => panic!("FramePool::alloc: {e}"),
        }
    }

    /// Fallible [`FramePool::alloc`]: returns [`OutOfMemory`] once
    /// every tier of the pressure protocol has come up empty.
    pub fn try_alloc(&self, core: usize) -> Result<Pfn, OutOfMemory> {
        self.try_alloc_traced(core).map(|(pfn, _)| pfn)
    }

    /// [`FramePool::try_alloc`] that also reports which pressure tiers
    /// the allocation had to reach (see [`AllocEvents`]), so VM systems
    /// can count reclaim activity in their op stats.
    ///
    /// Tier order (DESIGN.md §11): the core's own free list, its node's
    /// reservoir, and fresh batch growth are the unpressured path —
    /// identical to the pre-pressure allocator. Only when a full-batch
    /// grow *fails* (frame limit reached, table full, or an armed
    /// `chunk-grow` failpoint) do the pressure tiers engage: drain the
    /// core's own outbound magazine, steal from remote-node reservoirs
    /// in ascending hop distance (priced), grow whatever headroom
    /// remains, and finally fail. The drain/steal tiers never run
    /// unpressured because they hand out remote-homed frames, which
    /// would silently violate the placement policy.
    pub fn try_alloc_traced(&self, core: usize) -> Result<(Pfn, AllocEvents), OutOfMemory> {
        if failpoint::should_fail(failpoint::FRAME_ALLOC, core) {
            return Err(OutOfMemory);
        }
        let my_node = self.core_node[core] as usize;
        if self.policy == PlacementPolicy::Interleave {
            let target = self.stride_target(core);
            if target != my_node {
                let (pfn, ev) = self.try_draw_remote(core, target)?;
                self.stats.add(core, F_ALLOC_PAGES, 1);
                sim::charge_page_work_homed(target);
                return Ok((pfn, ev));
            }
        }
        sim::charge_page_work_homed(my_node);
        if let Some(pfn) = self.free_lists[core].lock().pop() {
            self.stats.add(core, F_ALLOC_PAGES, 1);
            self.stats.add(core, F_REUSED, 1);
            self.zero_frame(pfn);
            return Ok((pfn, AllocEvents::default()));
        }
        // Second tier: pull a batch from the node reservoir.
        let pulled = {
            let mut res = self.reservoirs[my_node].lock();
            if res.is_empty() {
                None
            } else {
                let split = res.len() - res.len().min(REFILL_BATCH);
                Some(res.split_off(split))
            }
        };
        if let Some(mut batch) = pulled {
            let pfn = batch.pop().expect("non-empty batch");
            if !batch.is_empty() {
                self.free_lists[core].lock().append(&mut batch);
            }
            self.stats.add(core, F_ALLOC_PAGES, 1);
            self.stats.add(core, F_REUSED, 1);
            self.zero_frame(pfn);
            return Ok((pfn, AllocEvents::default()));
        }
        // Third tier: create REFILL_BATCH fresh frames under the growth
        // lock and adopt the batch minus the returned frame on our own
        // list.
        if let Ok(first) = self.try_grow_contiguous(core, my_node, REFILL_BATCH) {
            let mut list = self.free_lists[core].lock();
            for i in (1..REFILL_BATCH).rev() {
                list.push(first + i as Pfn);
            }
            self.stats.add(core, F_ALLOC_PAGES, 1);
            return Ok((first, AllocEvents::default()));
        }
        // Full-batch growth failed: the pool is under pressure.
        let (pfn, ev) = self.pressure_alloc(core, my_node).ok_or(OutOfMemory)?;
        self.stats.add(core, F_ALLOC_PAGES, 1);
        Ok((pfn, ev))
    }

    /// Draws one frame homed on remote node `target` for an interleaved
    /// allocation: pop that node's reservoir, else grow a fresh batch
    /// homed there (parking the remainder in the reservoir), else fall
    /// into the pressure tiers.
    fn try_draw_remote(
        &self,
        core: usize,
        target: usize,
    ) -> Result<(Pfn, AllocEvents), OutOfMemory> {
        if let Some(pfn) = self.reservoirs[target].lock().pop() {
            self.stats.add(core, F_REUSED, 1);
            self.zero_frame(pfn);
            return Ok((pfn, AllocEvents::default()));
        }
        if let Ok(first) = self.try_grow_contiguous(core, target, REFILL_BATCH) {
            let mut res = self.reservoirs[target].lock();
            for i in (1..REFILL_BATCH).rev() {
                res.push(first + i as Pfn);
            }
            drop(res);
            return Ok((first, AllocEvents::default()));
        }
        // Under pressure an interleaved draw degrades to "any frame":
        // placement fidelity yields to survival.
        self.pressure_alloc(core, target).ok_or(OutOfMemory)
    }

    /// Pressure tiers 4–6 (growth already failed): drain the core's own
    /// outbound magazine, steal from remote reservoirs nearest-first,
    /// then grow whatever headroom remains. Returns `None` when all
    /// three come up empty — the caller reports [`OutOfMemory`].
    fn pressure_alloc(&self, core: usize, my_node: usize) -> Option<(Pfn, AllocEvents)> {
        // Tier 4: the core's own magazine holds cross-node frees parked
        // for batching; under pressure, take one back and flush the
        // rest home so other cores' steal tier can see them.
        let parked = {
            let mut mag = self.magazines[core].lock();
            let taken = mag.pop().map(|(_, pfn)| pfn);
            if taken.is_some() {
                self.flush_mag(core, &mut mag);
            }
            taken
        };
        if let Some(pfn) = parked {
            self.stats.add(core, F_RECLAIM_DRAINS, 1);
            self.stats.add(core, F_REUSED, 1);
            sim::charge_page_work_homed(self.home(pfn));
            self.zero_frame(pfn);
            return Some((
                pfn,
                AllocEvents {
                    drained: true,
                    stole: false,
                },
            ));
        }
        // Tier 5: steal a single frame from a remote node's reservoir,
        // nearest node first, priced at hop cost.
        let mut nodes: Vec<usize> = (0..self.nnodes).filter(|&n| n != my_node).collect();
        nodes.sort_by_key(|&n| self.topology.dist(my_node, n));
        for node in nodes {
            if let Some(pfn) = self.reservoirs[node].lock().pop() {
                self.stats.add(core, F_REMOTE_STEALS, 1);
                self.stats.add(core, F_REUSED, 1);
                sim::charge_page_work_homed(node);
                self.zero_frame(pfn);
                return Some((
                    pfn,
                    AllocEvents {
                        drained: false,
                        stole: true,
                    },
                ));
            }
        }
        // Tier 6: grow less than a full batch if any headroom remains.
        let room = self
            .frame_limit
            .load(Ordering::Acquire)
            .saturating_sub(self.nframes.load(Ordering::Acquire));
        if room > 0 {
            let count = room.min(REFILL_BATCH as u64) as usize;
            if let Ok(first) = self.try_grow_contiguous(core, my_node, count) {
                if count > 1 {
                    let mut list = self.free_lists[core].lock();
                    for i in (1..count).rev() {
                        list.push(first + i as Pfn);
                    }
                }
                return Some((first, AllocEvents::default()));
            }
        }
        None
    }

    /// Re-zeroes a reused frame's payload.
    fn zero_frame(&self, pfn: Pfn) {
        let slot = self.slot(pfn);
        // SAFETY: the frame was free (no mapping references it), so we
        // have exclusive access to its payload.
        unsafe {
            std::ptr::write_bytes(slot.data.as_ptr() as *mut u8, 0, FRAME_SIZE);
        }
    }

    /// Creates `count` fresh, physically contiguous frames homed on node
    /// `home`, returning the first PFN. Serialized by the growth lock;
    /// `core` only attributes the statistics. Fails — instead of the
    /// old "frame pool exhausted" abort — when the growth would exceed
    /// the frame limit or the table's hard chunk capacity, or when the
    /// `chunk-grow` failpoint is armed.
    fn try_grow_contiguous(
        &self,
        core: usize,
        home: usize,
        count: usize,
    ) -> Result<Pfn, OutOfMemory> {
        if failpoint::should_fail(failpoint::CHUNK_GROW, core) {
            return Err(OutOfMemory);
        }
        let first;
        {
            let _g = self.grow_lock.lock();
            let n = self.nframes.load(Ordering::Acquire) as usize;
            let limit = self.frame_limit.load(Ordering::Acquire).min(TABLE_CAPACITY);
            if (n + count) as u64 > limit {
                return Err(OutOfMemory);
            }
            for i in 0..count {
                let idx = n + i;
                if idx.is_multiple_of(CHUNK_FRAMES) {
                    let chunk_idx = idx / CHUNK_FRAMES;
                    debug_assert!(chunk_idx < MAX_CHUNKS, "limit check bounds the table");
                    let chunk: Vec<FrameSlot> = (0..CHUNK_FRAMES)
                        .map(|j| FrameSlot {
                            rc: CountSlot::new(FrameRc {
                                pfn: (chunk_idx * CHUNK_FRAMES + j) as Pfn,
                                kind: AtomicU8::new(KIND_PAGE),
                                order: AtomicU8::new(0),
                                pool: AtomicPtr::new(std::ptr::null_mut()),
                            }),
                            data: Box::new([0u8; FRAME_SIZE]),
                            home: AtomicU16::new(home as u16),
                            gen: AtomicU64::new(1),
                            mapcount: rvm_sync::Atomic64::new(0),
                        })
                        .collect();
                    let leaked = Box::leak(chunk.into_boxed_slice());
                    // Register the chunk for remote-line attribution:
                    // residual-traffic hunts see "frame-table", not an
                    // anonymous heap address (no-op outside simulation).
                    sim::label_range(
                        "frame-table",
                        leaked.as_ptr() as usize,
                        std::mem::size_of_val(&leaked[..]),
                    );
                    self.chunk_ptrs[chunk_idx].store(leaked.as_mut_ptr(), Ordering::Release);
                }
            }
            self.nframes.store((n + count) as u64, Ordering::Release);
            first = n as Pfn;
        }
        self.stats.add(core, F_FRESH, count as u64);
        for i in 0..count {
            self.slot(first + i as Pfn)
                .home
                .store(home as u16, Ordering::Relaxed);
        }
        Ok(first)
    }

    /// Allocates a zeroed, physically contiguous block of `1 << order`
    /// frames on `core`, returning the base PFN. Frames of a live block
    /// are never freed individually; the whole block returns through
    /// [`FramePool::free_block`].
    ///
    /// Prefers the target node's block reservoir (the core's own node,
    /// or the stride target under interleave), then the reservation
    /// pool, then fresh growth homed on the target node. Charges the
    /// simulator for zeroing the block, priced by hop distance to the
    /// block's home node.
    ///
    /// # Panics
    ///
    /// Panics when no contiguous block can be produced; VM fault paths
    /// use [`FramePool::try_alloc_block`] and degrade to scattered
    /// 4 KiB pages instead.
    pub fn alloc_block(&self, core: usize, order: u8) -> Pfn {
        match self.try_alloc_block(core, order) {
            Ok(base) => base,
            Err(e) => panic!("FramePool::alloc_block: {e}"),
        }
    }

    /// Fallible [`FramePool::alloc_block`]. When growth fails (frame
    /// limit, table capacity, or an armed failpoint) the pressure path
    /// steals a whole block from a *remote* node's block reservoir,
    /// nearest node first; only when no node holds a block of the
    /// requested order does the allocation fail.
    pub fn try_alloc_block(&self, core: usize, order: u8) -> Result<Pfn, OutOfMemory> {
        assert!(order <= GIANT_ORDER, "unsupported block order {order}");
        if failpoint::should_fail(failpoint::BLOCK_ALLOC, core) {
            return Err(OutOfMemory);
        }
        let pages = 1usize << order;
        let target = match self.policy {
            PlacementPolicy::Interleave => self.stride_target(core),
            _ => self.core_node[core] as usize,
        };
        let recycled = {
            let mut list = self.block_reservoirs[target].lock();
            list.iter()
                .position(|&(o, _)| o == order)
                .map(|i| list.swap_remove(i).1)
        };
        let recycled = recycled.or_else(|| {
            let mut res = self.reserved.lock();
            res.iter()
                .position(|&(o, _)| o == order)
                .map(|i| res.swap_remove(i).1)
        });
        let base = match recycled {
            Some(base) => {
                self.stats.add(core, F_REUSED, pages as u64);
                for i in 0..pages {
                    self.zero_frame(base + i as Pfn);
                }
                base
            }
            None => match self.try_grow_contiguous(core, target, pages) {
                Ok(base) => base,
                Err(_) => self
                    .steal_remote_block(core, target, order)
                    .ok_or(OutOfMemory)?,
            },
        };
        let home = self.home(base);
        for _ in 0..pages {
            sim::charge_page_work_homed(home);
        }
        self.stats.add(core, F_BLOCK_ALLOCS, 1);
        self.stats.add(core, F_ALLOC_PAGES, pages as u64);
        Ok(base)
    }

    /// Pressure path for block allocation: steal a block of `order`
    /// from the nearest remote node's block reservoir.
    fn steal_remote_block(&self, core: usize, my_node: usize, order: u8) -> Option<Pfn> {
        let pages = 1usize << order;
        let mut nodes: Vec<usize> = (0..self.nnodes).filter(|&n| n != my_node).collect();
        nodes.sort_by_key(|&n| self.topology.dist(my_node, n));
        for node in nodes {
            let stolen = {
                let mut list = self.block_reservoirs[node].lock();
                list.iter()
                    .position(|&(o, _)| o == order)
                    .map(|i| list.swap_remove(i).1)
            };
            if let Some(base) = stolen {
                self.stats.add(core, F_REMOTE_STEALS, 1);
                self.stats.add(core, F_REUSED, pages as u64);
                for i in 0..pages {
                    self.zero_frame(base + i as Pfn);
                }
                return Some(base);
            }
        }
        None
    }

    /// Frees the contiguous block at `base` (allocated with the same
    /// `order`), bumping every member frame's generation so stale block
    /// translations become detectable. The block returns whole to its
    /// home node's block reservoir.
    pub fn free_block(&self, core: usize, base: Pfn, order: u8) {
        let pages = 1usize << order;
        for i in 0..pages {
            self.slot(base + i as Pfn)
                .gen
                .fetch_add(1, Ordering::AcqRel);
        }
        let home = self.home(base);
        self.stats.add(core, F_BLOCK_FREES, 1);
        self.stats.add(core, F_FREE_PAGES, pages as u64);
        if home == self.core_node[core] as usize {
            self.stats.add(core, F_LOCAL_FREES, pages as u64);
            self.stats.add(core, F_ON_NODE_FREES, pages as u64);
        } else {
            // One reservoir lock per 512 frames: already better batched
            // than the single-frame magazines, so return it directly.
            self.stats.add(core, F_REMOTE_FREES, pages as u64);
            self.stats.add(core, F_CROSS_NODE_FREES, pages as u64);
        }
        self.block_reservoirs[home].lock().push((order, base));
    }

    /// Hugetlb-style reservation: pre-creates `n_blocks` contiguous
    /// blocks of `1 << order` frames and parks them in the reservation
    /// pool, guaranteeing later `alloc_block` calls cannot fail for lack
    /// of contiguity. Surfaced as [`PoolStats::blocks_reserved`].
    /// Reserved blocks are homed on the reserving core's node.
    pub fn reserve(&self, core: usize, n_blocks: usize, order: u8) {
        assert!(order <= GIANT_ORDER, "unsupported block order {order}");
        let node = self.core_node[core] as usize;
        let mut fresh = Vec::with_capacity(n_blocks);
        for _ in 0..n_blocks {
            let base = self
                .try_grow_contiguous(core, node, 1usize << order)
                .expect("reservation exceeds the frame limit");
            fresh.push((order, base));
        }
        self.reserved.lock().extend(fresh);
    }

    /// Returns up to `n_blocks` reserved blocks of `order` to the block
    /// reservoir of `core`'s node (un-reserving them).
    pub fn release(&self, core: usize, n_blocks: usize, order: u8) {
        let node = self.core_node[core] as usize;
        let mut moved = Vec::new();
        {
            let mut res = self.reserved.lock();
            for _ in 0..n_blocks {
                match res.iter().position(|&(o, _)| o == order) {
                    Some(i) => moved.push(res.swap_remove(i)),
                    None => break,
                }
            }
        }
        self.block_reservoirs[node].lock().extend(moved);
    }

    /// Blocks currently parked in the reservation pool.
    pub fn reserved_blocks(&self) -> usize {
        self.reserved.lock().len()
    }

    /// Frees `pfn` from `core`, bumping its generation so stale
    /// translations become detectable.
    ///
    /// A frame homed on `core`'s node goes straight back to the core's
    /// own list (core-local: it stays on its home node either way). A
    /// frame homed on a *different node* parks in `core`'s outbound
    /// magazine and returns to its home node's reservoir when the
    /// magazine fills (or at [`FramePool::flush_magazines`]); the
    /// generation was already bumped and the caller has already completed
    /// any required TLB shootdown, so parking only delays *reuse*, never
    /// safety (DESIGN.md §6).
    pub fn free(&self, core: usize, pfn: Pfn) {
        self.stats.add(core, F_FREE_PAGES, 1);
        let slot = self.slot(pfn);
        slot.gen.fetch_add(1, Ordering::AcqRel);
        let home = slot.home.load(Ordering::Relaxed) as usize % self.nnodes;
        if home == self.core_node[core] as usize {
            self.stats.add(core, F_LOCAL_FREES, 1);
            self.stats.add(core, F_ON_NODE_FREES, 1);
            self.free_lists[core].lock().push(pfn);
            return;
        }
        self.stats.add(core, F_REMOTE_FREES, 1);
        self.stats.add(core, F_CROSS_NODE_FREES, 1);
        let mut mag = self.magazines[core].lock();
        mag.push((home as u16, pfn));
        if mag.len() >= MAGAZINE_SIZE {
            self.flush_mag(core, &mut mag);
        }
    }

    /// Drains a held magazine to the home nodes' reservoirs: one
    /// reservoir lock (one contended-line transfer) per contiguous run
    /// of same-home frames, instead of one per page. Runs are flushed in
    /// ascending node order — the fixed ordering means two cores
    /// flushing concurrently lock reservoirs in the same sequence
    /// (DESIGN.md §10).
    ///
    /// The `magazine-flush` failpoint *defers* the flush: the frames
    /// stay parked (the magazine may temporarily exceed
    /// [`MAGAZINE_SIZE`]) and return home at the next unvetoed flush.
    /// A parked frame was already counted freed and generation-bumped,
    /// so deferral delays reuse, never safety or accounting.
    fn flush_mag(&self, core: usize, mag: &mut Magazine) {
        if mag.is_empty() {
            return;
        }
        if failpoint::should_fail(failpoint::MAGAZINE_FLUSH, core) {
            return;
        }
        self.stats.add(core, F_MAG_FLUSHES, 1);
        mag.sort_unstable_by_key(|&(home, _)| home);
        let mut i = 0;
        while i < mag.len() {
            let home = mag[i].0;
            let mut j = i;
            while j < mag.len() && mag[j].0 == home {
                j += 1;
            }
            let mut res = self.reservoirs[home as usize].lock();
            for &(_, pfn) in &mag[i..j] {
                res.push(pfn);
            }
            i = j;
        }
        mag.clear();
    }

    /// Flushes `core`'s outbound magazine, making its parked cross-node
    /// frees allocatable on their home nodes.
    pub fn flush_magazine(&self, core: usize) {
        let mut mag = self.magazines[core].lock();
        self.flush_mag(core, &mut mag);
    }

    /// Flushes every core's outbound magazine (quiesce / orderly
    /// shutdown; frame accounting is exact afterwards).
    pub fn flush_magazines(&self) {
        for core in 0..self.ncores {
            self.flush_magazine(core);
        }
    }

    /// Frames currently parked in `core`'s outbound magazine (tests).
    pub fn magazine_len(&self, core: usize) -> usize {
        self.magazines[core].lock().len()
    }

    /// Current generation of `pfn`.
    pub fn generation(&self, pfn: Pfn) -> u64 {
        self.slot(pfn).gen.load(Ordering::Acquire)
    }

    /// Home node of `pfn`.
    pub fn home(&self, pfn: Pfn) -> usize {
        self.slot(pfn).home.load(Ordering::Relaxed) as usize % self.nnodes
    }

    /// Frames currently parked in node `node`'s reservoir (tests/bench).
    pub fn reservoir_len(&self, node: usize) -> usize {
        self.reservoirs[node].lock().len()
    }

    /// Increments the eager map count (baseline VM systems).
    pub fn inc_map(&self, pfn: Pfn) {
        self.slot(pfn).mapcount.fetch_add(1, Ordering::AcqRel);
    }

    /// Decrements the eager map count; returns true when it reaches zero.
    pub fn dec_map(&self, pfn: Pfn) -> bool {
        self.slot(pfn).mapcount.fetch_sub(1, Ordering::AcqRel) == 1
    }

    /// Current eager map count of `pfn`.
    pub fn map_count(&self, pfn: Pfn) -> u64 {
        self.slot(pfn).mapcount.load(Ordering::Acquire)
    }

    /// Writes `val` at byte offset `off` within the frame.
    ///
    /// # Panics
    ///
    /// Panics if the access crosses the frame boundary.
    pub fn write_u64(&self, pfn: Pfn, off: usize, val: u64) {
        assert!(off + 8 <= FRAME_SIZE);
        let slot = self.slot(pfn);
        // SAFETY: in-bounds write to the frame payload. Concurrent access
        // to the same offset is a workload-level race (the VM permits
        // shared writable mappings); performed as a volatile word write,
        // as real memory would behave.
        unsafe {
            let p = slot.data.as_ptr().add(off) as *mut u64;
            std::ptr::write_volatile(p, val);
        }
    }

    /// Reads a word at byte offset `off` within the frame.
    pub fn read_u64(&self, pfn: Pfn, off: usize) -> u64 {
        assert!(off + 8 <= FRAME_SIZE);
        let slot = self.slot(pfn);
        // SAFETY: in-bounds read of the frame payload.
        unsafe {
            let p = slot.data.as_ptr().add(off) as *const u64;
            std::ptr::read_volatile(p)
        }
    }

    /// Fills the whole frame with `byte` (workload page-touch helper);
    /// charges the simulator for page work, priced by hop distance to
    /// the frame's home node.
    pub fn fill(&self, pfn: Pfn, byte: u8) {
        sim::charge_page_work_homed(self.home(pfn));
        let slot = self.slot(pfn);
        // SAFETY: in-bounds write to the frame payload (workload-level
        // races permitted as in `write_u64`).
        unsafe {
            std::ptr::write_bytes(slot.data.as_ptr() as *mut u8, byte, FRAME_SIZE);
        }
    }

    /// Returns a raw pointer to the frame payload for bulk access.
    ///
    /// # Safety
    ///
    /// The caller must keep accesses in-bounds and must not use the
    /// pointer after the frame is freed.
    pub unsafe fn frame_ptr(&self, pfn: Pfn) -> *mut u8 {
        self.slot(pfn).data.as_ptr() as *mut u8
    }
}

impl Drop for FramePool {
    fn drop(&mut self) {
        let n = self.total_frames();
        let nchunks = n.div_ceil(CHUNK_FRAMES);
        for i in 0..nchunks {
            let p = self.chunk_ptrs[i].load(Ordering::Acquire);
            if !p.is_null() {
                // SAFETY: `p` was leaked from a Box<[FrameSlot]> of length
                // CHUNK_FRAMES in `alloc` and is reclaimed exactly once.
                unsafe {
                    drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                        p,
                        CHUNK_FRAMES,
                    )));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn alloc_zeroes_and_stores() {
        let pool = FramePool::new(2);
        let f = pool.alloc(0);
        assert_eq!(pool.read_u64(f, 0), 0);
        pool.write_u64(f, 8, 0xDEAD_BEEF);
        assert_eq!(pool.read_u64(f, 8), 0xDEAD_BEEF);
        pool.free(0, f);
        let f2 = pool.alloc(0);
        assert_eq!(f2, f, "free list reuse");
        assert_eq!(pool.read_u64(f2, 8), 0, "reused frame re-zeroed");
    }

    #[test]
    fn generation_bumps_on_free() {
        let pool = FramePool::new(1);
        let f = pool.alloc(0);
        let g0 = pool.generation(f);
        pool.free(0, f);
        assert_eq!(pool.generation(f), g0 + 1);
        let f2 = pool.alloc(0);
        assert_eq!(f2, f);
        assert_eq!(pool.generation(f2), g0 + 1, "gen stable across realloc");
    }

    /// First-touch pool with cores striped across `nnodes` nodes.
    fn numa_pool(ncores: usize, nnodes: usize) -> FramePool {
        FramePool::with_placement(
            ncores,
            PlacementPolicy::FirstTouch,
            Topology::striped(nnodes),
        )
    }

    #[test]
    fn same_node_free_stays_core_local() {
        // On a flat topology every core shares node 0: a free on any core
        // adopts the frame locally instead of parking in a magazine.
        let pool = FramePool::new(2);
        let f = pool.alloc(0);
        pool.free(1, f);
        assert_eq!(pool.magazine_len(1), 0);
        assert_eq!(pool.stats().on_node_frees, 1);
        assert_eq!(pool.stats().cross_node_frees, 0);
        assert_eq!(pool.alloc(1), f, "same-node frame adopted by core 1");
    }

    #[test]
    fn home_return() {
        // Cores 0 and 1 on different nodes: a cross-node free parks in
        // the freeing core's magazine and returns to the home node's
        // reservoir at flush.
        let pool = numa_pool(2, 2);
        let f = pool.alloc(0); // homed node 0
        pool.free(1, f);
        assert_eq!(pool.stats().remote_frees, 1);
        assert_eq!(pool.stats().cross_node_frees, 1);
        assert_eq!(pool.magazine_len(1), 1);
        let g = pool.alloc(1);
        assert_ne!(g, f, "node 1 must not see node 0's frame");
        // Once the magazine flushes, the home node's cores reuse it:
        // drain core 0's leftover grow batch until the reservoir frame
        // surfaces.
        pool.flush_magazine(1);
        assert_eq!(pool.magazine_len(1), 0);
        assert_eq!(pool.reservoir_len(0), 1);
        let mut drained = 0;
        loop {
            if pool.alloc(0) == f {
                break;
            }
            drained += 1;
            assert!(
                drained <= 2 * REFILL_BATCH,
                "home node never reused the frame after flush"
            );
        }
    }

    #[test]
    fn magazine_flushes_at_capacity() {
        let pool = numa_pool(2, 2);
        let frames: Vec<Pfn> = (0..MAGAZINE_SIZE).map(|_| pool.alloc(0)).collect();
        // Cross-node-free one short of the magazine size: all park.
        for &f in &frames[..MAGAZINE_SIZE - 1] {
            pool.free(1, f);
        }
        assert_eq!(pool.magazine_len(1), MAGAZINE_SIZE - 1);
        assert_eq!(pool.stats().magazine_flushes, 0);
        // The filling free flushes the whole batch home.
        pool.free(1, frames[MAGAZINE_SIZE - 1]);
        assert_eq!(pool.magazine_len(1), 0);
        assert_eq!(pool.stats().magazine_flushes, 1);
        assert_eq!(pool.stats().remote_frees, MAGAZINE_SIZE as u64);
        // All frames are allocatable on the home node again.
        let mut seen = std::collections::HashSet::new();
        for _ in 0..MAGAZINE_SIZE {
            seen.insert(pool.alloc(0));
        }
        for f in frames {
            assert!(seen.contains(&f), "frame {f} not reusable after flush");
        }
    }

    #[test]
    fn magazine_flush_groups_multiple_homes() {
        // 4 cores striped over 4 nodes: frames homed on nodes 1, 2, 3
        // all freed from core 0 park in one magazine and return to their
        // own node's reservoir at flush.
        let pool = numa_pool(4, 4);
        let mut by_home = Vec::new();
        for core in 1..4usize {
            let f = pool.alloc(core);
            by_home.push((core, f));
        }
        for &(_, f) in &by_home {
            pool.free(0, f);
        }
        assert_eq!(pool.magazine_len(0), 3);
        pool.flush_magazine(0);
        for (core, f) in by_home {
            assert_eq!(pool.reservoir_len(core), 1, "node {core} reservoir");
            // The home core reaches the frame once its adopted fresh
            // batch drains through its own free list.
            let mut got = false;
            for _ in 0..4 * REFILL_BATCH {
                if pool.alloc(core) == f {
                    got = true;
                    break;
                }
            }
            assert!(got, "node {core} never reused its frame {f}");
        }
    }

    #[test]
    fn remote_free_line_traffic_is_batched() {
        // The simulator story: a stream of cross-node frees from one core
        // costs one reservoir transfer per magazine, not one per page.
        // (Flat sim pricing; the pool's own 2-node topology decides what
        // counts as cross-node.)
        let guard = rvm_sync::sim::install(2, rvm_sync::CostModel::default());
        let pool = numa_pool(2, 2);
        rvm_sync::sim::switch(0);
        let frames: Vec<Pfn> = (0..(2 * MAGAZINE_SIZE)).map(|_| pool.alloc(0)).collect();
        // Warm core 1's magazine structures with one full cycle.
        rvm_sync::sim::switch(1);
        for &f in &frames[..MAGAZINE_SIZE] {
            pool.free(1, f);
        }
        let before = rvm_sync::sim::stats();
        for &f in &frames[MAGAZINE_SIZE..] {
            pool.free(1, f);
        }
        let after = rvm_sync::sim::stats();
        let delta = after.cores[1].remote_transfers - before.cores[1].remote_transfers;
        assert!(
            delta <= 4,
            "one magazine of remote frees cost {delta} line transfers \
             (must be O(1) per batch, not per page)"
        );
        drop(guard);
    }

    #[test]
    fn map_counts() {
        let pool = FramePool::new(1);
        let f = pool.alloc(0);
        pool.inc_map(f);
        pool.inc_map(f);
        assert!(!pool.dec_map(f));
        assert!(pool.dec_map(f));
        assert_eq!(pool.map_count(f), 0);
    }

    #[test]
    fn many_frames_cross_chunk() {
        let pool = FramePool::new(1);
        let mut frames = Vec::new();
        for i in 0..(CHUNK_FRAMES + 10) as u64 {
            let f = pool.alloc(0);
            pool.write_u64(f, 0, i);
            frames.push(f);
        }
        for (i, &f) in frames.iter().enumerate() {
            assert_eq!(pool.read_u64(f, 0), i as u64);
        }
        // Batched refill rounds the table size up to whole batches.
        assert!(pool.total_frames() >= CHUNK_FRAMES + 10);
        assert!(pool.total_frames() < CHUNK_FRAMES + 10 + 64);
    }

    #[test]
    fn concurrent_alloc_free() {
        let pool = Arc::new(FramePool::new(4));
        let mut handles = Vec::new();
        for core in 0..4usize {
            let pool = pool.clone();
            handles.push(std::thread::spawn(move || {
                let mut held = Vec::new();
                for i in 0..2_000u64 {
                    let f = pool.alloc(core);
                    pool.write_u64(f, 0, i);
                    held.push(f);
                    if held.len() > 16 {
                        pool.free(core, held.remove(0));
                    }
                }
                for f in held {
                    pool.free(core, f);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let st = pool.stats();
        assert!(st.fresh > 0);
        assert!(st.reused > 0);
    }

    #[test]
    fn local_alloc_free_is_core_local() {
        // Steady-state alloc/free on one core causes no remote transfers.
        let guard = rvm_sync::sim::install(4, rvm_sync::CostModel::default());
        let pool = FramePool::new(4);
        rvm_sync::sim::switch(1);
        // Warm up (fresh allocation touches the growth path).
        let f = pool.alloc(1);
        pool.free(1, f);
        let f = pool.alloc(1);
        pool.free(1, f);
        let before = rvm_sync::sim::stats();
        for _ in 0..100 {
            let f = pool.alloc(1);
            pool.free(1, f);
        }
        let after = rvm_sync::sim::stats();
        assert_eq!(
            after.cores[1].remote_transfers,
            before.cores[1].remote_transfers
        );
        drop(guard);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_write_panics() {
        let pool = FramePool::new(1);
        let f = pool.alloc(0);
        pool.write_u64(f, FRAME_SIZE - 4, 1);
    }

    #[test]
    fn block_alloc_is_contiguous_zeroed_and_reusable() {
        let pool = FramePool::new(2);
        let base = pool.alloc_block(0, BLOCK_ORDER);
        // Contiguous and writable across the whole block.
        for i in 0..1usize << BLOCK_ORDER {
            let pfn = base + i as Pfn;
            assert_eq!(pool.read_u64(pfn, 0), 0, "frame {i} not zeroed");
            pool.write_u64(pfn, 0, i as u64);
        }
        let gens: Vec<u64> = (0..1usize << BLOCK_ORDER)
            .map(|i| pool.generation(base + i as Pfn))
            .collect();
        pool.free_block(0, base, BLOCK_ORDER);
        // Every member frame's generation bumped (stale block TLB
        // entries become detectable).
        for (i, g) in gens.iter().enumerate() {
            assert_eq!(pool.generation(base + i as Pfn), g + 1, "frame {i}");
        }
        // The block is reused whole, re-zeroed.
        let again = pool.alloc_block(0, BLOCK_ORDER);
        assert_eq!(again, base, "home core reuses the freed block");
        assert_eq!(pool.read_u64(again, 0), 0);
        let st = pool.stats();
        assert_eq!(st.block_allocs, 2);
        assert_eq!(st.block_frees, 1);
    }

    #[test]
    fn block_free_returns_home() {
        let pool = numa_pool(2, 2);
        let base = pool.alloc_block(0, BLOCK_ORDER); // homed node 0
                                                     // Freed from core 1 (node 1): returns whole to node 0's block
                                                     // reservoir.
        pool.free_block(1, base, BLOCK_ORDER);
        assert_eq!(pool.stats().remote_frees, 1u64 << BLOCK_ORDER);
        assert_eq!(pool.stats().cross_node_frees, 1u64 << BLOCK_ORDER);
        let other = pool.alloc_block(1, BLOCK_ORDER);
        assert_ne!(other, base, "node 1 must not see node 0's block");
        assert_eq!(pool.alloc_block(0, BLOCK_ORDER), base);
    }

    #[test]
    fn reservation_accounting() {
        let pool = FramePool::new(1);
        pool.reserve(0, 3, BLOCK_ORDER);
        assert_eq!(pool.stats().blocks_reserved, 3);
        assert_eq!(pool.reserved_blocks(), 3);
        // An allocation draws from the reservation before growing.
        let frames_before = pool.total_frames();
        let b = pool.alloc_block(0, BLOCK_ORDER);
        assert_eq!(pool.total_frames(), frames_before, "drew from reserve");
        assert_eq!(pool.stats().blocks_reserved, 2);
        pool.free_block(0, b, BLOCK_ORDER);
        // Release moves the rest to the general block list.
        pool.release(0, 2, BLOCK_ORDER);
        assert_eq!(pool.stats().blocks_reserved, 0);
        assert_eq!(pool.total_frames(), frames_before);
        pool.alloc_block(0, BLOCK_ORDER);
        assert_eq!(pool.total_frames(), frames_before, "released block reused");
    }

    #[test]
    fn retained_page_returns_via_refcache_zero_action() {
        let pool = FramePool::new(2);
        let cache = Refcache::new(2);
        let pfn = pool.alloc(0);
        let r = pool.retain_page(&cache, 0, pfn, 1);
        assert_eq!(r.pfn, pfn);
        assert_eq!(pool.outstanding_frames(), 1);
        // Hand the reference around: inc on core 1, dec both.
        pool.ref_inc(&cache, 1, r);
        pool.ref_dec(&cache, 0, r);
        cache.quiesce();
        assert_eq!(pool.outstanding_frames(), 1, "still referenced on core 1");
        pool.ref_dec(&cache, 1, r);
        cache.quiesce();
        pool.flush_magazines();
        assert_eq!(pool.outstanding_frames(), 0, "zero action freed the frame");
        assert_eq!(cache.stats().slot_activates, 1);
        assert_eq!(cache.stats().slot_releases, 1);
        assert_eq!(cache.stats().allocs, 0, "no heap Refcache object");
        // The frame is reallocatable and its cell re-armable. The zero
        // action freed it to whichever core drove the count to zero, so
        // drain both cores until it reappears.
        let mut extra = Vec::new();
        let again = loop {
            let f = pool.alloc(extra.len() % 2);
            if f == pfn {
                break f;
            }
            extra.push(f);
            assert!(
                extra.len() < 4 * REFILL_BATCH,
                "freed frame never reallocated"
            );
        };
        let r2 = pool.retain_page(&cache, 0, again, 1);
        assert!(r2.gen > r.gen, "new incarnation has a newer generation");
        pool.ref_dec(&cache, 0, r2);
        cache.quiesce();
        pool.flush_magazines();
        for f in extra {
            pool.free(0, f);
        }
        assert_eq!(pool.outstanding_frames(), 0);
    }

    #[test]
    fn retained_block_frees_whole_on_zero() {
        let pool = FramePool::new(1);
        let cache = Refcache::new(1);
        let base = pool.alloc_block(0, BLOCK_ORDER);
        assert_eq!(pool.outstanding_frames(), 1u64 << BLOCK_ORDER);
        // One reference for the fold, then adoption-style inc to 512 and
        // per-page release — the demotion lifecycle.
        let r = pool.retain_block(&cache, 0, base, BLOCK_ORDER, 1);
        for _ in 1..1u64 << BLOCK_ORDER {
            pool.ref_inc(&cache, 0, r);
        }
        for _ in 0..(1u64 << BLOCK_ORDER) - 1 {
            pool.ref_dec(&cache, 0, r);
        }
        cache.quiesce();
        assert_eq!(pool.stats().block_frees, 0, "last page still holds it");
        pool.ref_dec(&cache, 0, r);
        cache.quiesce();
        assert_eq!(pool.stats().block_frees, 1, "block freed whole, once");
        assert_eq!(pool.outstanding_frames(), 0);
    }

    #[test]
    fn outstanding_frames_tracks_pages_and_blocks() {
        let pool = FramePool::new(1);
        let a = pool.alloc(0);
        let b = pool.alloc_block(0, BLOCK_ORDER);
        assert_eq!(pool.outstanding_frames(), 1 + (1u64 << BLOCK_ORDER));
        pool.free(0, a);
        assert_eq!(pool.outstanding_frames(), 1u64 << BLOCK_ORDER);
        pool.free_block(0, b, BLOCK_ORDER);
        assert_eq!(pool.outstanding_frames(), 0);
        // Reservations are not outstanding until drawn.
        pool.reserve(0, 1, BLOCK_ORDER);
        assert_eq!(pool.outstanding_frames(), 0);
        pool.alloc_block(0, BLOCK_ORDER);
        assert_eq!(pool.outstanding_frames(), 1u64 << BLOCK_ORDER);
    }

    #[test]
    fn frame_slots_do_not_share_count_lines() {
        // Adjacent frames' embedded count cells must live on distinct
        // cache lines, or per-core counting would false-share.
        assert!(std::mem::align_of::<FrameSlot>() >= 64);
        assert!(std::mem::size_of::<FrameSlot>().is_multiple_of(64));
    }

    #[test]
    fn interleave_strides_across_nodes() {
        let pool = FramePool::with_placement(4, PlacementPolicy::Interleave, Topology::striped(4));
        assert_eq!(pool.policy(), PlacementPolicy::Interleave);
        // All allocation happens on core 0; homes must still rotate.
        let mut homes = std::collections::HashSet::new();
        for _ in 0..8 {
            let b = pool.alloc_block(0, BLOCK_ORDER);
            homes.insert(pool.home(b));
        }
        assert_eq!(
            homes.len(),
            4,
            "interleave must cover all nodes, got {homes:?}"
        );
        // Single-page interleave likewise draws from every node.
        let mut homes = std::collections::HashSet::new();
        for _ in 0..8 {
            homes.insert(pool.home(pool.alloc(0)));
        }
        assert_eq!(homes.len(), 4, "page interleave covers all nodes");
        // First-touch keeps everything on the allocating core's node.
        let ft = numa_pool(4, 4);
        let b = ft.alloc_block(2, BLOCK_ORDER);
        assert_eq!(ft.home(b), 2);
        assert_eq!(ft.home(ft.alloc(3)), 3);
    }

    #[test]
    fn interleave_on_one_node_degenerates_to_first_touch() {
        // nnodes = 1: the stride always lands on the local node, so the
        // fast path (own list, batch adoption) is identical to
        // first-touch — this is what keeps single-node numbers unchanged.
        let pool = FramePool::with_placement(2, PlacementPolicy::Interleave, Topology::single());
        let f = pool.alloc(0);
        pool.free(0, f);
        assert_eq!(pool.alloc(0), f, "own free list reused");
        let st = pool.stats();
        assert_eq!(st.cross_node_frees, 0);
        assert_eq!(st.on_node_frees, 1);
    }

    #[test]
    fn interleave_remote_draw_reuses_reservoir() {
        // A remote stride target with a stocked reservoir pops exactly
        // one frame instead of growing fresh ones.
        let pool = FramePool::with_placement(2, PlacementPolicy::Interleave, Topology::striped(2));
        // Stock node 1's reservoir: allocate on core 1 until a frame is
        // homed there, free it cross-node from core 0, flush.
        let f = loop {
            let f = pool.alloc(1);
            if pool.home(f) == 1 {
                break f;
            }
        };
        pool.free(0, f);
        pool.flush_magazine(0);
        assert_eq!(pool.reservoir_len(1), 1);
        let fresh_before = pool.stats().fresh;
        // Drive core 0's stride until it targets node 1.
        let mut drawn = None;
        for _ in 0..4 {
            let a = pool.alloc(0);
            if pool.home(a) == 1 {
                drawn = Some(a);
                break;
            }
        }
        assert_eq!(drawn, Some(f), "reservoir frame drawn, not fresh growth");
        assert_eq!(pool.reservoir_len(1), 0);
        // Growth may have happened for node-0 targets, but the node-1
        // draw itself must not have grown anything beyond one batch.
        assert!(pool.stats().fresh <= fresh_before + REFILL_BATCH as u64);
    }

    #[test]
    fn invalid_topology_is_a_typed_error() {
        let broken = Topology {
            nnodes: 2,
            core_to_node: Vec::new(),
            distance: vec![0, 0, 0, 0], // off-diagonal zeros
        };
        let err = match FramePool::try_with_placement(2, PlacementPolicy::FirstTouch, broken) {
            Ok(_) => panic!("invalid topology must be rejected"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("invalid NUMA topology"));
    }

    #[test]
    fn frame_limit_exhaustion_and_recovery() {
        let pool = FramePool::new(1);
        let f = pool.alloc(0); // grows one REFILL_BATCH
        pool.set_frame_limit(pool.total_frames() as u64);
        // Drain the adopted batch; every allocation still succeeds.
        let mut held = vec![f];
        for _ in 1..REFILL_BATCH {
            held.push(pool.try_alloc(0).expect("batch frames still free"));
        }
        // Now every tier is empty: typed failure, not an abort.
        assert_eq!(pool.try_alloc(0), Err(OutOfMemory));
        assert_eq!(
            pool.outstanding_frames(),
            REFILL_BATCH as u64,
            "failed allocation must not count as handed out"
        );
        // Relief: freeing one frame makes the next allocation succeed.
        pool.free(0, held.pop().unwrap());
        let again = pool.try_alloc(0).expect("recovers after pressure relief");
        held.push(again);
        // Raising the limit re-enables growth.
        pool.set_frame_limit(u64::MAX);
        assert_eq!(pool.frame_limit(), TABLE_CAPACITY);
        held.push(pool.try_alloc(0).expect("growth re-enabled"));
        for f in held {
            pool.free(0, f);
        }
        assert_eq!(pool.outstanding_frames(), 0);
    }

    #[test]
    fn pressure_drains_own_magazine() {
        let pool = numa_pool(2, 2);
        let f = pool.alloc(0); // homed node 0
        pool.free(1, f); // parks in core 1's magazine
        assert_eq!(pool.magazine_len(1), 1);
        pool.set_frame_limit(pool.total_frames() as u64);
        let (got, ev) = pool
            .try_alloc_traced(1)
            .expect("drain tier reclaims the parked frame");
        assert_eq!(got, f);
        assert!(ev.drained && !ev.stole);
        assert_eq!(pool.magazine_len(1), 0, "remainder flushed home");
        assert_eq!(pool.stats().reclaim_drains, 1);
        pool.free(1, got);
    }

    #[test]
    fn pressure_steals_from_remote_reservoir_nearest_first() {
        let pool = numa_pool(2, 2);
        let f = pool.alloc(0); // homed node 0
        pool.free(1, f);
        pool.flush_magazine(1); // node 0's reservoir now holds f
        pool.set_frame_limit(pool.total_frames() as u64);
        let (got, ev) = pool
            .try_alloc_traced(1)
            .expect("steal tier takes the remote frame");
        assert_eq!(got, f);
        assert!(ev.stole && !ev.drained);
        assert_eq!(pool.stats().remote_steals, 1);
        pool.free(1, got);
    }

    #[test]
    fn pressure_partial_growth_uses_remaining_headroom() {
        let pool = FramePool::new(1);
        let f = pool.alloc(0);
        // Leave headroom for 3 more frames: less than a refill batch.
        pool.set_frame_limit(pool.total_frames() as u64 + 3);
        let mut held = vec![f];
        for _ in 1..REFILL_BATCH {
            held.push(pool.try_alloc(0).expect("batch frames"));
        }
        for _ in 0..3 {
            held.push(pool.try_alloc(0).expect("partial growth"));
        }
        assert_eq!(pool.try_alloc(0), Err(OutOfMemory));
        for f in held {
            pool.free(0, f);
        }
        assert_eq!(pool.outstanding_frames(), 0);
    }

    #[test]
    fn block_pressure_steals_remote_block() {
        let pool = numa_pool(2, 2);
        let b = pool.alloc_block(0, BLOCK_ORDER); // homed node 0
        pool.free_block(0, b, BLOCK_ORDER); // node 0 block reservoir
        pool.set_frame_limit(pool.total_frames() as u64);
        let got = pool
            .try_alloc_block(1, BLOCK_ORDER)
            .expect("block steal from node 0");
        assert_eq!(got, b);
        assert_eq!(pool.stats().remote_steals, 1);
        pool.free_block(1, got, BLOCK_ORDER);
        // With the reservoir empty too, block allocation fails typed.
        let again = pool.alloc_block(1, BLOCK_ORDER); // reuses b via steal? no: node 1 target, steals again
        pool.free_block(1, again, BLOCK_ORDER);
        pool.set_frame_limit(0);
        // Drain both block reservoirs so nothing is stealable.
        while pool.try_alloc_block(0, BLOCK_ORDER).is_ok()
            || pool.try_alloc_block(1, BLOCK_ORDER).is_ok()
        {}
        assert_eq!(pool.try_alloc_block(1, BLOCK_ORDER), Err(OutOfMemory));
    }

    #[test]
    fn failpoints_inject_typed_failures() {
        use rvm_sync::failpoint::{self, Trigger};
        failpoint::disarm_all();
        let pool = FramePool::new(1);
        let f = pool.alloc(0);
        pool.free(0, f);
        failpoint::arm(failpoint::FRAME_ALLOC, 0, Trigger::Nth(1));
        assert_eq!(
            pool.try_alloc(0),
            Err(OutOfMemory),
            "armed frame-alloc fails even with free frames"
        );
        let f = pool.try_alloc(0).expect("Nth(1) fires once");
        pool.free(0, f);
        // chunk-grow veto on a fresh pool: nothing to recycle → OOM.
        let fresh = FramePool::new(1);
        failpoint::arm(failpoint::CHUNK_GROW, 0, Trigger::EveryK(1));
        assert_eq!(fresh.try_alloc(0), Err(OutOfMemory));
        assert_eq!(fresh.try_alloc_block(0, BLOCK_ORDER), Err(OutOfMemory));
        failpoint::disarm_all();
        assert!(fresh.try_alloc(0).is_ok());
    }

    #[test]
    fn magazine_flush_failpoint_defers_not_fails() {
        use rvm_sync::failpoint::{self, Trigger};
        failpoint::disarm_all();
        let pool = numa_pool(2, 2);
        let frames: Vec<Pfn> = (0..MAGAZINE_SIZE + 4).map(|_| pool.alloc(0)).collect();
        failpoint::arm(failpoint::MAGAZINE_FLUSH, 1, Trigger::EveryK(1));
        for &f in &frames {
            pool.free(1, f);
        }
        // The capacity flush was vetoed: frames stay parked, over size.
        assert_eq!(pool.magazine_len(1), MAGAZINE_SIZE + 4);
        assert_eq!(pool.stats().magazine_flushes, 0);
        failpoint::disarm_all();
        pool.flush_magazine(1);
        assert_eq!(pool.magazine_len(1), 0);
        assert_eq!(pool.reservoir_len(0), MAGAZINE_SIZE + 4);
        assert_eq!(pool.outstanding_frames(), 0);
    }
}
