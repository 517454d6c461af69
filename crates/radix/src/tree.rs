//! The radix tree: precise range locking, folding, and expansion.
//!
//! Concurrency plan (paper §3.4):
//!
//! * Every operation locks the radix-tree slots covering its range
//!   **left-to-right** — leaf slots where leaves exist, otherwise the
//!   covering interior slot. Two operations on overlapping ranges
//!   serialize on the leftmost overlapping slot; operations on disjoint
//!   ranges never touch the same slot.
//! * Expansion (allocating a child under a locked interior slot) creates
//!   the child with the lock bit propagated to **every** entry, then
//!   publishes it with a store that simultaneously unlocks the parent
//!   slot. Releasing the range lock clears the lock bits in newly
//!   allocated children.
//! * Traversal takes no locks: it pins nodes by incrementing their
//!   Refcache count through the parent slot's weak reference (`tryget`),
//!   which also revives nodes that emptied but have not yet been
//!   collapsed.
//!
//! Deadlock freedom: lock *waiting* only ever happens at slot
//! acquisitions performed in ascending VPN order; whole-node locks are
//! born held (created atomically with the node, before it is published),
//! so they add no waiting edges.
//!
//! # The fault fast path (DESIGN.md §5)
//!
//! Single-page operations — the page-fault pattern the paper's Figure 5
//! measures — run allocation-free and descent-cheap:
//!
//! * **Inline guard storage.** [`RangeGuard`] keeps its locked units and
//!   traversal pins in [`InlineVec`]s sized so single-page and
//!   single-block locks never touch the heap; only large multi-block
//!   operations spill (counted in [`TreeStats::guard_spills`]).
//! * **Pin elision.** The root is permanently pinned and never
//!   `tryget`-ed. During descent, a traversal pin on an interior node is
//!   surrendered as soon as the pinned child guarantees the chain stays
//!   live (a linked child holds a used-slot reference on its parent), so
//!   a completed single-page guard holds exactly one pin: the leaf.
//! * **Per-core leaf hints.** Each core caches the last leaf it reached
//!   (with one pinned reference). A repeat fault in the same 512-page
//!   block skips the descent entirely. Correctness never depends on the
//!   hint: a stale or missing hint falls back to the full descent, and
//!   the hint's pin is surrendered at every Refcache flush so collapse is
//!   delayed by at most one epoch. See DESIGN.md §5 for the invariants.

use std::ops::RangeBounds;
use std::sync::Arc;

use rvm_refcache::weak::LOCK_BIT;
use rvm_refcache::{RcPtr, Refcache};
use rvm_sync::atomic::Ordering;
use rvm_sync::{CachePadded, InlineVec, RangeLock, RangeLockKind, RangeToken, SpinLock};

use crate::node::{
    index_at_level, lock_interior_slot, lock_leaf_slot, pack_slot, slot_ptr, slot_tag,
    unlock_interior_slot, unlock_leaf_slot, Node, Slots, TreeStats, FANOUT, F_EXPANSIONS,
    F_FOLDED_VALUES, F_GUARD_SPILLS, F_HINT_HITS, F_HINT_MISSES, F_LEAF_VALUES, LEAF_PRESENT,
    LEVELS, LEVEL_BITS, TAG_CHILD, TAG_EMPTY, TAG_FOLDED,
};

/// Virtual page number (36 bits used).
pub type Vpn = u64;

/// Exclusive upper bound of VPNs the tree covers.
pub const VPN_LIMIT: Vpn = 1 << 36;

/// Inline capacity of a guard's unit list: a single-page fault through a
/// fully folded path creates at most `LEVELS - 1` whole-node units plus
/// one leaf range.
const UNITS_INLINE: usize = LEVELS + 2;

/// Inline capacity of a guard's pin list: one pin per expanded level plus
/// the leaf.
const PINS_INLINE: usize = LEVELS;

/// log2 of the pages in one range-lock region: the span of one level-1
/// slot (1 GiB), which is also the largest superpage rung.
const RANGE_REGION_SHIFT: u32 = (LEVEL_BITS * (LEVELS - 2)) as u32;

/// Values storable in the tree.
///
/// A value set over a range is *identical for every page* (the paper
/// designs mapping metadata this way so large mappings fold), hence
/// `Clone` per page on expansion.
pub trait RadixValue: Clone + Send + Sync + 'static {}

impl<T: Clone + Send + Sync + 'static> RadixValue for T {}

/// Tree configuration.
#[derive(Clone, Debug)]
pub struct RadixConfig {
    /// Collapse empty nodes through Refcache (the full design, §3.2).
    /// The paper's prototype shipped without collapsing; disable to
    /// reproduce that configuration.
    pub collapse: bool,
    /// Enable the per-core leaf hint cache on the single-page fast path.
    /// Disable to measure the plain descent (ablation).
    pub leaf_hints: bool,
    /// Substrate realizing multi-page `lock_range` acquisitions
    /// ([`RangeLockKind::List`] puts the scalable list-based range lock
    /// in front of the slot locks; [`RangeLockKind::SlotSpin`] is the
    /// original slot-CAS-only baseline). Single-page locks — the fault
    /// path — always go straight to the leaf slot lock.
    pub range_lock: RangeLockKind,
    /// Mark interior slot arrays as per-node read-only replicas in the
    /// simulator (the replicate-read-only placement policy for hot index
    /// nodes): reads hit the local replica, writes pay a broadcast
    /// invalidation to every other node's copy. Traffic attribution
    /// (`radix-index`/`radix-leaf` labels) is recorded regardless.
    pub replicate_index: bool,
}

impl Default for RadixConfig {
    fn default() -> Self {
        RadixConfig {
            collapse: true,
            leaf_hints: true,
            range_lock: RangeLockKind::List,
            replicate_index: false,
        }
    }
}

/// How a range lock treats slots that are not expanded to leaves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LockMode {
    /// Expand empty and folded slots so every page in range has a leaf
    /// slot unless the range covers the whole block (mmap).
    ExpandAll,
    /// Expand folded slots only; lock partially covered empty interior
    /// slots as blocks (munmap, mprotect, the 4 KiB pagefault).
    ExpandFolded,
    /// Like [`LockMode::ExpandFolded`], but a folded slot at the *last
    /// interior level* (spanning one [`FANOUT`]-page block) is locked as
    /// a block instead of expanded — the superpage fault path: the fold
    /// stays intact so one block value can govern one block PTE.
    ExpandToBlock,
}

/// A value (or block value) displaced by [`RangeGuard::clear`] /
/// [`RangeGuard::replace`].
#[derive(Debug, PartialEq)]
pub enum Removed<V> {
    /// A single page's value.
    Page(Vpn, V),
    /// A folded block's value covering `pages` pages starting at `start`.
    Block {
        /// First VPN of the block.
        start: Vpn,
        /// Pages covered.
        pages: u64,
        /// The folded value.
        value: V,
    },
}

/// One locked region recorded by a range lock.
enum Unit<V: Send + Sync + 'static> {
    /// Leaf slots `[first, end)` of `node`, individually locked (`born`
    /// means the locks were born held via whole-node creation).
    LeafRange {
        node: RcPtr<Node<V>>,
        first: usize,
        end: usize,
        born: bool,
    },
    /// One locked interior slot (EMPTY or FOLDED block).
    Block {
        node: RcPtr<Node<V>>,
        idx: usize,
        born: bool,
    },
    /// A node created by this operation with every slot lock born held;
    /// dropping the guard clears all its lock bits.
    WholeNode { node: RcPtr<Node<V>> },
}

/// Dereferences a tree node pointer.
///
/// SAFETY-CONTRACT: every `RcPtr<Node<V>>` the tree manipulates is kept
/// alive by (a) the permanent root reference, (b) a traversal pin obtained
/// through `tryget` and released at guard drop, (c) a used-slot
/// reference in a parent that is itself pinned, (d) a pinned *descendant*
/// (a linked child holds a used-slot reference on its parent, surrendered
/// only in `on_release`), or (e) a per-core leaf hint's pinned reference.
/// See module docs and DESIGN.md §5.
fn nref<'a, V: Send + Sync + 'static>(p: RcPtr<Node<V>>) -> &'a Node<V> {
    // SAFETY: see the contract above; all call sites hold one of the
    // listed references across the borrow.
    unsafe { p.as_ref() }
}

/// One core's cached leaf: the last leaf node this core reached on a
/// single-page operation, holding **one pinned reference** to it.
struct LeafHint<V: Send + Sync + 'static> {
    /// First VPN of the hinted leaf's 512-page block.
    block_base: Vpn,
    /// The hinted leaf; the hint owns one Refcache reference to it.
    node: RcPtr<Node<V>>,
}

/// One core's hint slot: line-padded so neighbouring cores never share.
type HintSlot<V> = CachePadded<SpinLock<Option<LeafHint<V>>>>;

/// Per-core leaf hint slots, shared between the tree and its Refcache
/// flush hook (which surrenders the pins every epoch flush).
struct HintTable<V: Send + Sync + 'static> {
    slots: Box<[HintSlot<V>]>,
}

impl<V: Send + Sync + 'static> HintTable<V> {
    fn new(ncores: usize) -> Self {
        HintTable {
            slots: (0..ncores)
                .map(|_| CachePadded::new(SpinLock::new(None)))
                .collect(),
        }
    }

    /// Takes `core`'s hint (if any) and surrenders its pin. Runs at every
    /// Refcache flush so a hint delays node collapse by at most one epoch
    /// — the property that keeps the freeing-safety argument intact.
    fn release(&self, cache: &Refcache, core: usize) {
        let taken = self.slots[core].lock().take();
        if let Some(h) = taken {
            cache.dec(core, h.node);
        }
    }
}

/// The RadixVM radix tree.
pub struct RadixTree<V: RadixValue> {
    cache: Arc<Refcache>,
    root: RcPtr<Node<V>>,
    cfg: RadixConfig,
    stats: Arc<TreeStats>,
    hints: Arc<HintTable<V>>,
    /// Flush-hook registration (0 when `leaf_hints` is off).
    hook_id: u64,
    /// The sharded list-based range lock fronting multi-page acquisitions
    /// (consulted only when `cfg.range_lock` is [`RangeLockKind::List`]):
    /// one shard per core, rounded up to a power of two, over
    /// [`RANGE_REGION_SHIFT`] regions. Overlapping range operations
    /// serialize on one descriptor here instead of CAS-fighting slot by
    /// slot; the slot locks below remain the mutual-exclusion authority
    /// (faults never enqueue).
    range_lock: RangeLock,
}

// SAFETY: nodes are Sync; RcPtr is a pointer; all mutation is internally
// synchronized (slot locks + Refcache).
unsafe impl<V: RadixValue> Send for RadixTree<V> {}
// SAFETY: as above.
unsafe impl<V: RadixValue> Sync for RadixTree<V> {}

impl<V: RadixValue> RadixTree<V> {
    /// Creates an empty tree whose node lifetimes are managed by `cache`.
    pub fn new(cache: Arc<Refcache>, cfg: RadixConfig) -> Self {
        let stats = Arc::new(TreeStats::new(cache.ncores()));
        // The root is pinned forever with its initial count of 1.
        let root = cache.alloc(1, Node::new_interior(0, 0, None, stats.clone(), |_| 0));
        nref(root).register_sim_lines(cfg.replicate_index);
        let hints = Arc::new(HintTable::new(cache.ncores()));
        let hook_id = if cfg.leaf_hints {
            let table = hints.clone();
            cache.register_flush_hook(move |c, core| table.release(c, core))
        } else {
            0
        };
        let range_lock = RangeLock::new(cache.ncores().next_power_of_two(), RANGE_REGION_SHIFT);
        RadixTree {
            cache,
            root,
            cfg,
            stats,
            hints,
            hook_id,
            range_lock,
        }
    }

    /// The configured multi-page lock substrate.
    pub fn range_lock_kind(&self) -> RangeLockKind {
        self.cfg.range_lock
    }

    /// The tree's statistics block.
    pub fn stats(&self) -> &TreeStats {
        &self.stats
    }

    /// The Refcache managing this tree's nodes.
    pub fn cache(&self) -> &Arc<Refcache> {
        &self.cache
    }

    /// Approximate bytes of memory used by the tree's nodes and values
    /// (Table 2 accounting).
    pub fn space_bytes(&self) -> u64 {
        let hdr = 96u64; // node header + Refcache header, rounded
        let interior = self.stats.interior_nodes();
        let leaf = self.stats.leaf_nodes();
        let folded = self.stats.folded_values();
        let leaf_slot = 8 + std::mem::size_of::<Option<V>>() as u64;
        interior * (FANOUT as u64 * 8 + hdr)
            + leaf * (FANOUT as u64 * leaf_slot + hdr)
            + folded * std::mem::size_of::<V>() as u64
    }

    /// True when `node`'s parent slot still publishes it. A refold
    /// ([`RangeGuard::refold`]) severs a fully populated leaf while
    /// holding **every** leaf slot lock, so any reader that holds one of
    /// a leaf's slot locks and observes it linked is guaranteed the leaf
    /// stays linked (and its values stay put) until that lock drops.
    /// Readers that find a slot *empty* must re-check linkage: an
    /// emptied-and-severed leaf means the pages moved into a folded
    /// block value and the operation must retry from the root.
    fn leaf_linked(node: RcPtr<Node<V>>) -> bool {
        match nref(node).parent {
            Some((parent, idx)) => {
                let w = nref(parent).interior()[idx as usize].load(Ordering::Acquire);
                slot_tag(w) == TAG_CHILD && slot_ptr(w) == node.addr()
            }
            None => true, // the root is never severed
        }
    }

    /// Checks a hint against the block containing `vpn`: the block must
    /// match and the parent slot must still publish the hinted node
    /// (a refold severs the leaf and replaces it with a folded value, so
    /// a promoted block's stale hint misses here instead of reading the
    /// emptied slots).
    fn hint_valid(h: &LeafHint<V>, block_base: Vpn) -> bool {
        if h.block_base != block_base {
            return false;
        }
        nref(h.node).parent.is_some() && Self::leaf_linked(h.node)
    }

    /// Fault fast path: returns `core`'s hinted leaf for `vpn`'s block
    /// with one pinned reference transferred to the caller, or `None` on
    /// a miss. Hit/miss counts land in [`TreeStats`].
    fn hint_lookup(&self, core: usize, vpn: Vpn) -> Option<RcPtr<Node<V>>> {
        if !self.cfg.leaf_hints {
            return None;
        }
        let block_base = vpn & !((FANOUT as u64) - 1);
        let slot = self.hints.slots[core].lock();
        if let Some(h) = slot.as_ref() {
            if Self::hint_valid(h, block_base) {
                let node = h.node;
                // Pin for the caller while the hint lock is held — the
                // hint's own pin guarantees liveness until we are done.
                self.cache.inc(core, node);
                drop(slot);
                self.stats.add(core, F_HINT_HITS, 1);
                return Some(node);
            }
        }
        drop(slot);
        self.stats.add(core, F_HINT_MISSES, 1);
        None
    }

    /// Remembers `node` as `core`'s leaf hint, taking one pinned
    /// reference for the hint and surrendering the previous hint's pin.
    ///
    /// The caller must hold a live reference to `node` (a traversal pin
    /// or a guard pin) across the call.
    fn install_hint(&self, core: usize, node: RcPtr<Node<V>>) {
        if !self.cfg.leaf_hints {
            return;
        }
        debug_assert!(nref(node).is_leaf());
        self.cache.inc(core, node);
        let prev = self.hints.slots[core].lock().replace(LeafHint {
            block_base: nref(node).base_vpn,
            node,
        });
        if let Some(h) = prev {
            self.cache.dec(core, h.node);
        }
    }

    /// Locks `[lo, hi)` left-to-right and returns the guard.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or exceeds [`VPN_LIMIT`].
    pub fn lock_range(&self, core: usize, lo: Vpn, hi: Vpn, mode: LockMode) -> RangeGuard<'_, V> {
        assert!(lo < hi && hi <= VPN_LIMIT, "bad range {lo}..{hi}");
        let mut guard = RangeGuard {
            tree: self,
            core,
            units: InlineVec::new(),
            pins: InlineVec::new(),
            range_token: None,
        };
        // Fault fast path: a single-page lock served by the leaf hint
        // skips the descent entirely (both modes behave identically once
        // a leaf exists). Single-page locks never enqueue in the range
        // lock either — the leaf slot lock alone excludes them from
        // everything, including list-fronted multi-page holders (which
        // still take every slot lock in their range during descent).
        if hi == lo + 1 {
            if let Some(leaf) = self.hint_lookup(core, lo) {
                let n = nref(leaf);
                let first = (lo - n.base_vpn) as usize;
                lock_leaf_slot(&n.leaf()[first].status, &self.stats);
                if Self::leaf_linked(leaf) {
                    guard.pins.push(leaf);
                    guard.units.push(Unit::LeafRange {
                        node: leaf,
                        first,
                        end: first + 1,
                        born: false,
                    });
                    return guard;
                }
                // A refold severed this leaf between the hint check and
                // the slot lock: surrender and take the full descent.
                unlock_leaf_slot(&n.leaf()[first].status);
                self.cache.dec(core, leaf);
            }
        }
        // Multi-page acquisitions under the List substrate serialize on
        // one descriptor per shard before touching any slot, so
        // overlapping range ops contend on a single line instead of
        // CAS-fighting every slot in the intersection. Slot locks stay
        // the mutual-exclusion authority (faults never enqueue here), so
        // this is purely a contention front: descent below proceeds
        // exactly as before.
        if hi > lo + 1 && self.cfg.range_lock == RangeLockKind::List {
            guard.range_token = Some(self.range_lock.acquire(core, lo, hi));
        }
        self.descend(core, self.root, lo, hi, mode, false, &mut guard);
        // Refresh the hint when the descent ended at a single leaf slot,
        // so the next fault in this block takes the fast path. The leaf
        // is pinned by the guard, satisfying `install_hint`'s contract.
        if hi == lo + 1 && self.cfg.leaf_hints {
            if let Some(Unit::LeafRange { node, .. }) = guard.units.iter().last() {
                self.install_hint(core, *node);
            }
        }
        guard
    }

    /// Recursive locking descent (see module docs for the protocol).
    /// Takes the full lock-plan state; splitting it into a struct would
    /// only rename the arguments.
    ///
    /// Returns `Some(true)` when `node_ptr` itself is referenced by a
    /// pushed unit and must therefore stay pinned by the guard. On
    /// `Some(false)`, every unit pushed below lives in a pinned
    /// descendant, and a pinned descendant transitively keeps this node
    /// alive (each linked child holds a used-slot reference on its
    /// parent) — so the caller surrenders the traversal pin immediately
    /// instead of accumulating one pin per level. Returns `None` (with
    /// nothing pushed for this node) when a concurrent refold severed
    /// the leaf between the caller's slot read and our lock
    /// acquisitions; the caller re-reads its slot and retries.
    #[allow(clippy::too_many_arguments)]
    fn descend(
        &self,
        core: usize,
        node_ptr: RcPtr<Node<V>>,
        lo: Vpn,
        hi: Vpn,
        mode: LockMode,
        born_locked: bool,
        g: &mut RangeGuard<'_, V>,
    ) -> Option<bool> {
        let node = nref(node_ptr);
        if node.is_leaf() {
            let first = (lo - node.base_vpn) as usize;
            let end = (hi - node.base_vpn) as usize;
            debug_assert!(end <= FANOUT);
            if !born_locked {
                for slot in &node.leaf()[first..end] {
                    lock_leaf_slot(&slot.status, &self.stats);
                }
                if !Self::leaf_linked(node_ptr) {
                    // Refolded under us: the values now live in a folded
                    // parent slot. Unwind and let the caller retry.
                    for slot in &node.leaf()[first..end] {
                        unlock_leaf_slot(&slot.status);
                    }
                    return None;
                }
            }
            g.units.push(Unit::LeafRange {
                node: node_ptr,
                first,
                end,
                born: born_locked,
            });
            return Some(true);
        }
        let span = node.slot_span();
        let level = node.level as usize;
        let first_idx = index_at_level(lo, level);
        let last_idx = index_at_level(hi - 1, level);
        let mut retain = false;
        for idx in first_idx..=last_idx {
            let block_lo = node.base_vpn + idx as u64 * span;
            let block_hi = block_lo + span;
            let sub_lo = lo.max(block_lo);
            let sub_hi = hi.min(block_hi);
            let full = sub_lo == block_lo && sub_hi == block_hi;
            let slot = &node.interior()[idx];
            loop {
                let peek = slot.load(Ordering::Acquire);
                if slot_tag(peek) == TAG_CHILD {
                    // Traversal: pin the child through its weak reference
                    // (no lock required).
                    // SAFETY: TAG_CHILD slots of this tree always hold
                    // `Node<V>` pointers registered with this cache.
                    match unsafe { self.cache.tryget::<Node<V>>(core, slot, TAG_CHILD) } {
                        Some(child) => {
                            match self.descend(core, child, sub_lo, sub_hi, mode, false, g) {
                                Some(true) => g.pins.push(child),
                                // Pin elision: the child's subtree holds
                                // pinned units that keep it alive.
                                Some(false) => self.cache.dec(core, child),
                                None => {
                                    // Refolded under us: re-read the slot
                                    // (it now holds the folded value).
                                    self.cache.dec(core, child);
                                    continue;
                                }
                            }
                            break;
                        }
                        None => continue, // freed under us; re-read
                    }
                }
                // EMPTY or FOLDED: acquire the slot lock (unless born).
                let v = if born_locked {
                    peek
                } else {
                    let observed = lock_interior_slot(slot, &self.stats);
                    if slot_tag(observed) == TAG_CHILD {
                        // Became a child while we were acquiring; the CAS
                        // re-set the lock bit on a child word — undo and
                        // take the traversal path.
                        unlock_interior_slot(slot);
                        continue;
                    }
                    observed
                };
                let tag = slot_tag(v);
                debug_assert_ne!(tag, TAG_CHILD);
                // Under ExpandToBlock a folded slot spanning one block
                // (level `LEVELS - 2`) *or one giant region* (level
                // `LEVELS - 3`) is locked whole instead of expanded: the
                // fold stays intact so one block value governs one
                // block/giant PTE (the superpage fault path, both rungs).
                let expand = match tag {
                    TAG_FOLDED => {
                        !full
                            && (mode != LockMode::ExpandToBlock
                                || (level != LEVELS - 2 && level != LEVELS - 3))
                    }
                    TAG_EMPTY => !full && mode == LockMode::ExpandAll,
                    _ => unreachable!("invalid slot tag"),
                };
                if !expand {
                    g.units.push(Unit::Block {
                        node: node_ptr,
                        idx,
                        born: born_locked,
                    });
                    retain = true;
                    break;
                }
                // Expand under the held slot lock.
                let child = self.expand_slot(core, node_ptr, idx, v, block_lo);
                g.pins.push(child);
                g.units.push(Unit::WholeNode { node: child });
                // The child is already pinned above; the recursion's
                // retain verdict is irrelevant.
                let _ = self.descend(core, child, sub_lo, sub_hi, mode, true, g);
                break;
            }
        }
        Some(retain)
    }

    /// Replaces a locked EMPTY/FOLDED interior slot with a freshly
    /// allocated child whose every slot lock is born held, publishing the
    /// child with a store that simultaneously unlocks the parent slot
    /// (paper §3.4). Returns the child, pinned for the caller.
    fn expand_slot(
        &self,
        core: usize,
        parent: RcPtr<Node<V>>,
        idx: usize,
        locked_word: u64,
        block_lo: Vpn,
    ) -> RcPtr<Node<V>> {
        let parent_node = nref(parent);
        let slot = &parent_node.interior()[idx];
        let child_level = parent_node.level as usize + 1;
        let was_folded = slot_tag(locked_word) == TAG_FOLDED;
        // Take ownership of the folded template, if any.
        let template: Option<Box<V>> = if was_folded {
            self.stats.sub(core, F_FOLDED_VALUES, 1);
            // SAFETY: FOLDED slots own their boxed value; the slot lock is
            // held, so no one else can free or replace it.
            Some(unsafe { Box::from_raw(slot_ptr(locked_word) as *mut V) })
        } else {
            None
        };
        self.stats.add(core, F_EXPANSIONS, 1);
        let permanent = if self.cfg.collapse { 0 } else { 1 };
        let child = if child_level == LEVELS - 1 {
            let node = Node::new_leaf(
                block_lo,
                Some((parent, idx as u16)),
                self.stats.clone(),
                |_| match &template {
                    Some(t) => (LOCK_BIT | LEAF_PRESENT, Some((**t).clone())),
                    None => (LOCK_BIT, None),
                },
            );
            let used = if template.is_some() { FANOUT as i64 } else { 0 };
            self.cache.alloc(used + 1 + permanent, node)
        } else {
            let node = Node::new_interior(
                child_level as u8,
                block_lo,
                Some((parent, idx as u16)),
                self.stats.clone(),
                |_| match &template {
                    Some(t) => {
                        let boxed = Box::new((**t).clone());
                        pack_slot(Box::into_raw(boxed) as usize, TAG_FOLDED) | LOCK_BIT
                    }
                    None => LOCK_BIT,
                },
            );
            if template.is_some() {
                self.stats.add(core, F_FOLDED_VALUES, FANOUT as u64);
            }
            let used = if template.is_some() { FANOUT as i64 } else { 0 };
            self.cache.alloc(used + 1 + permanent, node)
        };
        if !was_folded {
            // EMPTY → CHILD: the parent gains a used slot.
            self.cache.inc(core, parent);
        }
        nref(child).register_sim_lines(self.cfg.replicate_index);
        self.cache.register_weak(child, slot);
        // Publish the child and release the parent slot lock in one store.
        slot.store(pack_slot(child.addr(), TAG_CHILD), Ordering::Release);
        child
    }

    /// Reads (clones) the value governing `vpn`, if any.
    ///
    /// Allocation-free; holds at most one pin at a time (hand-over-hand:
    /// the previous level's pin is surrendered as soon as the next level
    /// is pinned), and none at all when the leaf hint hits.
    pub fn get(&self, core: usize, vpn: Vpn) -> Option<V> {
        if let Some(leaf) = self.hint_lookup(core, vpn) {
            let n = nref(leaf);
            let slot = &n.leaf()[(vpn - n.base_vpn) as usize];
            lock_leaf_slot(&slot.status, &self.stats);
            // Linkage checked under the slot lock: a linked leaf cannot
            // be refolded while we hold one of its slot locks, so the
            // read below is authoritative. A severed leaf's emptied slot
            // says nothing — fall through to the descent.
            let linked = Self::leaf_linked(leaf);
            // SAFETY: the slot lock is held.
            let out = unsafe { (*slot.value.get()).clone() };
            unlock_leaf_slot(&slot.status);
            self.cache.dec(core, leaf);
            if linked {
                return out;
            }
        }
        let mut node_ptr = self.root;
        // The single in-flight traversal pin (`None` while at the
        // permanently pinned root).
        let mut pin: Option<RcPtr<Node<V>>> = None;
        let result = loop {
            let node = nref(node_ptr);
            if node.is_leaf() {
                let idx = (vpn - node.base_vpn) as usize;
                let slot = &node.leaf()[idx];
                lock_leaf_slot(&slot.status, &self.stats);
                let linked = Self::leaf_linked(node_ptr);
                // SAFETY: the slot lock is held.
                let out = unsafe { (*slot.value.get()).clone() };
                unlock_leaf_slot(&slot.status);
                if !linked {
                    // Refolded under us: restart from the root (the
                    // parent slot now folds the whole block).
                    if let Some(prev) = pin.take() {
                        self.cache.dec(core, prev);
                    }
                    node_ptr = self.root;
                    continue;
                }
                // We hold the leaf's pin: remember it for the next fault.
                self.install_hint(core, node_ptr);
                break out;
            }
            let idx = index_at_level(vpn, node.level as usize);
            let slot = &node.interior()[idx];
            let peek = slot.load(Ordering::Acquire);
            match slot_tag(peek) {
                TAG_CHILD => {
                    // SAFETY: TAG_CHILD slots hold `Node<V>` pointers.
                    match unsafe { self.cache.tryget::<Node<V>>(core, slot, TAG_CHILD) } {
                        Some(child) => {
                            // Hand-over-hand: the pinned child keeps its
                            // ancestors alive, so drop the previous pin.
                            if let Some(prev) = pin.replace(child) {
                                self.cache.dec(core, prev);
                            }
                            node_ptr = child;
                            continue;
                        }
                        None => continue,
                    }
                }
                TAG_FOLDED => {
                    // Clone the folded value under a brief slot lock.
                    let v = lock_interior_slot(slot, &self.stats);
                    let out = if slot_tag(v) == TAG_FOLDED {
                        // SAFETY: lock held; FOLDED slot owns the box.
                        Some(unsafe { (*(slot_ptr(v) as *const V)).clone() })
                    } else {
                        None
                    };
                    unlock_interior_slot(slot);
                    match out {
                        Some(val) => break Some(val),
                        None => continue, // changed under us; retry
                    }
                }
                _ => break None, // EMPTY
            }
        };
        if let Some(p) = pin {
            self.cache.dec(core, p);
        }
        result
    }

    /// Read-only presence check: returns true if `vpn` has a value,
    /// without taking any slot lock (pure traversal over atomic slot
    /// words — the Figure 7 lookup operation). May race with concurrent
    /// mutations; the answer is a linearizable snapshot of the slot word.
    ///
    /// On a leaf-hint hit this is pin-free: two loads under the per-core
    /// hint lock.
    pub fn lookup_present(&self, core: usize, vpn: Vpn) -> bool {
        if self.cfg.leaf_hints {
            let block_base = vpn & !((FANOUT as u64) - 1);
            let slot = self.hints.slots[core].lock();
            if let Some(h) = slot.as_ref() {
                if Self::hint_valid(h, block_base) {
                    let st = nref(h.node).leaf()[(vpn - block_base) as usize]
                        .status
                        .load(Ordering::Acquire);
                    // A present bit is trustworthy even if a refold races
                    // with the load: refold moves present values into a
                    // folded block, so the page stays mapped either way.
                    // An *absent* bit must be re-confirmed: if the leaf
                    // was severed after the validity check, the emptied
                    // slot says nothing — take the descent instead.
                    if st & LEAF_PRESENT != 0 || Self::hint_valid(h, block_base) {
                        drop(slot);
                        self.stats.add(core, F_HINT_HITS, 1);
                        return st & LEAF_PRESENT != 0;
                    }
                }
            }
            drop(slot);
            self.stats.add(core, F_HINT_MISSES, 1);
        }
        let mut node_ptr = self.root;
        let mut pin: Option<RcPtr<Node<V>>> = None;
        let result = loop {
            let node = nref(node_ptr);
            if node.is_leaf() {
                let idx = (vpn - node.base_vpn) as usize;
                let st = node.leaf()[idx].status.load(Ordering::Acquire);
                if st & LEAF_PRESENT == 0 && !Self::leaf_linked(node_ptr) {
                    // Refolded under us: restart from the root.
                    if let Some(prev) = pin.take() {
                        self.cache.dec(core, prev);
                    }
                    node_ptr = self.root;
                    continue;
                }
                self.install_hint(core, node_ptr);
                break st & crate::node::LEAF_PRESENT != 0;
            }
            let idx = index_at_level(vpn, node.level as usize);
            let slot = &node.interior()[idx];
            let peek = slot.load(Ordering::Acquire);
            match slot_tag(peek) {
                TAG_CHILD => {
                    // SAFETY: TAG_CHILD slots hold `Node<V>` pointers.
                    match unsafe { self.cache.tryget::<Node<V>>(core, slot, TAG_CHILD) } {
                        Some(child) => {
                            if let Some(prev) = pin.replace(child) {
                                self.cache.dec(core, prev);
                            }
                            node_ptr = child;
                        }
                        None => continue,
                    }
                }
                TAG_FOLDED => break true,
                _ => break false,
            }
        };
        if let Some(p) = pin {
            self.cache.dec(core, p);
        }
        result
    }

    /// Collects all `(vpn, value)` pairs in `[lo, hi)` (test oracle aid;
    /// clones each page's governing value).
    ///
    /// A single range walk: each leaf and each folded block in range is
    /// visited once, with one pin per traversed level — not the old
    /// per-page root-to-leaf descent (O(pages × depth) with per-page pin
    /// traffic).
    pub fn collect_range(&self, core: usize, lo: Vpn, hi: Vpn) -> Vec<(Vpn, V)> {
        assert!(hi <= VPN_LIMIT, "bad range {lo}..{hi}");
        let mut out = Vec::new();
        if lo < hi {
            // The root is interior and never severed, so the top-level
            // walk cannot request a retry.
            let ok = self.collect_from(core, self.root, lo, hi, &mut out);
            debug_assert!(ok, "root walk requested a retry");
        }
        out
    }

    /// Range-walk worker for [`RadixTree::collect_range`]. Returns false
    /// when a concurrent refold severed this leaf mid-walk (its pages
    /// were rolled back from `out`); the caller re-reads its slot, which
    /// now holds the folded value.
    fn collect_from(
        &self,
        core: usize,
        node_ptr: RcPtr<Node<V>>,
        lo: Vpn,
        hi: Vpn,
        out: &mut Vec<(Vpn, V)>,
    ) -> bool {
        let node = nref(node_ptr);
        if node.is_leaf() {
            let mark = out.len();
            let first = (lo - node.base_vpn) as usize;
            let end = (hi - node.base_vpn) as usize;
            for idx in first..end {
                let slot = &node.leaf()[idx];
                lock_leaf_slot(&slot.status, &self.stats);
                // SAFETY: the slot lock is held.
                let v = unsafe { (*slot.value.get()).clone() };
                unlock_leaf_slot(&slot.status);
                if let Some(v) = v {
                    out.push((node.base_vpn + idx as u64, v));
                }
            }
            // Locks were taken slot-by-slot, so a refold may have raced
            // through the middle of the walk (emptying later slots). If
            // the leaf is still linked the snapshot is sound; otherwise
            // discard it and re-read the fold.
            if !Self::leaf_linked(node_ptr) {
                out.truncate(mark);
                return false;
            }
            return true;
        }
        let span = node.slot_span();
        let level = node.level as usize;
        let first_idx = index_at_level(lo, level);
        let last_idx = index_at_level(hi - 1, level);
        for idx in first_idx..=last_idx {
            let block_lo = node.base_vpn + idx as u64 * span;
            let sub_lo = lo.max(block_lo);
            let sub_hi = hi.min(block_lo + span);
            let slot = &node.interior()[idx];
            loop {
                let peek = slot.load(Ordering::Acquire);
                match slot_tag(peek) {
                    TAG_CHILD => {
                        // SAFETY: TAG_CHILD slots hold `Node<V>` pointers.
                        let done = unsafe {
                            self.cache
                                .with_pin::<Node<V>, _>(core, slot, TAG_CHILD, |child| {
                                    self.collect_from(core, child, sub_lo, sub_hi, out)
                                })
                        };
                        match done {
                            Some(true) => break,
                            // Refolded or freed under us; re-read.
                            Some(false) | None => continue,
                        }
                    }
                    TAG_FOLDED => {
                        // Clone the folded value once under a brief lock,
                        // then fan it out per page.
                        let v = lock_interior_slot(slot, &self.stats);
                        let val = if slot_tag(v) == TAG_FOLDED {
                            // SAFETY: lock held; FOLDED slot owns the box.
                            Some(unsafe { (*(slot_ptr(v) as *const V)).clone() })
                        } else {
                            None
                        };
                        unlock_interior_slot(slot);
                        match val {
                            Some(val) => {
                                for vpn in sub_lo..sub_hi {
                                    out.push((vpn, val.clone()));
                                }
                                break;
                            }
                            None => continue, // changed under us; retry
                        }
                    }
                    _ => break, // EMPTY
                }
            }
        }
        true
    }

    /// Tears down a subtree, freeing nodes directly (exclusive access).
    fn teardown(&mut self, node_ptr: RcPtr<Node<V>>) {
        let node = nref(node_ptr);
        if let Slots::Interior(slots) = &node.slots {
            for slot in slots.iter() {
                let w = slot.load(Ordering::Acquire);
                if slot_tag(w) == TAG_CHILD {
                    // SAFETY: TAG_CHILD slots hold `Node<V>` pointers; we
                    // have exclusive access during drop.
                    let child = unsafe { RcPtr::<Node<V>>::from_raw_addr(slot_ptr(w)) };
                    self.teardown(child);
                    slot.store(0, Ordering::Release);
                }
            }
        }
        // SAFETY: after quiesce no cached deltas or review entries refer
        // to this node, and children were freed above; `free_untracked`
        // skips `on_release` (the parent is being torn down too).
        unsafe { self.cache.free_untracked(node_ptr) };
    }
}

impl<V: RadixValue> Drop for RadixTree<V> {
    fn drop(&mut self) {
        // Stop the flush hook first (it holds the hint table, not the
        // tree, but after teardown its nodes would dangle), surrender
        // every hint pin, then settle Refcache so no core caches deltas
        // for our nodes and no review-queue entry survives, and free the
        // remaining structure.
        if self.cfg.leaf_hints {
            self.cache.unregister_flush_hook(self.hook_id);
            for core in 0..self.cache.ncores() {
                self.hints.release(&self.cache, core);
            }
        }
        self.cache.quiesce();
        self.teardown(self.root);
    }
}

/// A held range lock over `[lo, hi)`.
///
/// Dropping the guard unlocks every slot (clearing born-held lock bits of
/// newly created nodes, per §3.4) and releases all traversal pins.
///
/// Unit and pin storage is inline ([`InlineVec`]): single-page and
/// single-block guards never allocate.
pub struct RangeGuard<'t, V: RadixValue> {
    tree: &'t RadixTree<V>,
    core: usize,
    units: InlineVec<Unit<V>, UNITS_INLINE>,
    pins: InlineVec<RcPtr<Node<V>>, PINS_INLINE>,
    /// Held list-lock descriptors when this is a multi-page acquisition
    /// under [`RangeLockKind::List`]; released last on drop so their
    /// hold window covers the whole slot-locked critical section.
    range_token: Option<RangeToken>,
}

impl<V: RadixValue> RangeGuard<'_, V> {
    /// Removes every value in the locked range, returning the displaced
    /// pages and blocks.
    pub fn clear(&mut self) -> Vec<Removed<V>> {
        let mut out = Vec::new();
        let core = self.core;
        let cache = &self.tree.cache;
        let stats = &self.tree.stats;
        for unit in self.units.iter() {
            match unit {
                Unit::LeafRange {
                    node, first, end, ..
                } => {
                    let n = nref(*node);
                    for idx in *first..*end {
                        let slot = &n.leaf()[idx];
                        let st = slot.status.load(Ordering::Acquire);
                        debug_assert!(st & LOCK_BIT != 0, "leaf slot not locked");
                        if st & LEAF_PRESENT != 0 {
                            // SAFETY: we hold the slot lock.
                            let val = unsafe { (*slot.value.get()).take() };
                            slot.status.fetch_and(!LEAF_PRESENT, Ordering::AcqRel);
                            stats.sub(core, F_LEAF_VALUES, 1);
                            cache.dec(core, *node);
                            if let Some(v) = val {
                                out.push(Removed::Page(n.base_vpn + idx as u64, v));
                            }
                        }
                    }
                }
                Unit::Block { node, idx, .. } => {
                    let n = nref(*node);
                    let slot = &n.interior()[*idx];
                    let w = slot.load(Ordering::Acquire);
                    debug_assert!(w & LOCK_BIT != 0, "interior slot not locked");
                    if slot_tag(w) == TAG_FOLDED {
                        // SAFETY: lock held; FOLDED slot owns the box.
                        let boxed = unsafe { Box::from_raw(slot_ptr(w) as *mut V) };
                        slot.store(LOCK_BIT, Ordering::Release);
                        stats.sub(core, F_FOLDED_VALUES, 1);
                        cache.dec(core, *node);
                        out.push(Removed::Block {
                            start: n.base_vpn + *idx as u64 * n.slot_span(),
                            pages: n.slot_span(),
                            value: *boxed,
                        });
                    }
                }
                Unit::WholeNode { .. } => {}
            }
        }
        out
    }

    /// Sets every page (or whole block) in the locked range to a clone of
    /// `value`, returning displaced values. Empty full blocks receive a
    /// folded value; partially covered blocks were expanded at lock time.
    ///
    /// One walk per slot: a present slot swaps its value in place (no
    /// reference-count or status traffic, and folded blocks reuse their
    /// box allocation); only previously empty slots pay the install cost.
    pub fn replace(&mut self, value: &V) -> Vec<Removed<V>> {
        let mut out = Vec::new();
        let core = self.core;
        let cache = &self.tree.cache;
        let stats = &self.tree.stats;
        for unit in self.units.iter() {
            match unit {
                Unit::LeafRange {
                    node, first, end, ..
                } => {
                    let n = nref(*node);
                    for idx in *first..*end {
                        let slot = &n.leaf()[idx];
                        let st = slot.status.load(Ordering::Acquire);
                        debug_assert!(st & LOCK_BIT != 0, "leaf slot not locked");
                        if st & LEAF_PRESENT != 0 {
                            // SAFETY: we hold the slot lock.
                            let old = unsafe { (*slot.value.get()).replace(value.clone()) };
                            if let Some(v) = old {
                                out.push(Removed::Page(n.base_vpn + idx as u64, v));
                            }
                            // Present → present: status, value count, and
                            // the node's used-slot reference are unchanged.
                        } else {
                            // SAFETY: we hold the slot lock.
                            unsafe { *slot.value.get() = Some(value.clone()) };
                            slot.status.fetch_or(LEAF_PRESENT, Ordering::AcqRel);
                            stats.add(core, F_LEAF_VALUES, 1);
                            cache.inc(core, *node);
                        }
                    }
                }
                Unit::Block { node, idx, .. } => {
                    let n = nref(*node);
                    let slot = &n.interior()[*idx];
                    let w = slot.load(Ordering::Acquire);
                    debug_assert!(w & LOCK_BIT != 0, "interior slot not locked");
                    if slot_tag(w) == TAG_FOLDED {
                        // SAFETY: lock held; FOLDED slot owns the box.
                        // Swap in place, reusing the allocation; the slot
                        // word (and the node's used-slot ref) is unchanged.
                        let old = std::mem::replace(
                            unsafe { &mut *(slot_ptr(w) as *mut V) },
                            value.clone(),
                        );
                        out.push(Removed::Block {
                            start: n.base_vpn + *idx as u64 * n.slot_span(),
                            pages: n.slot_span(),
                            value: old,
                        });
                    } else {
                        let boxed = Box::new(value.clone());
                        slot.store(
                            pack_slot(Box::into_raw(boxed) as usize, TAG_FOLDED) | LOCK_BIT,
                            Ordering::Release,
                        );
                        stats.add(core, F_FOLDED_VALUES, 1);
                        cache.inc(core, *node);
                    }
                }
                Unit::WholeNode { .. } => {}
            }
        }
        out
    }

    /// Applies `f` to every present entry in the locked range with its
    /// location: `f(start_vpn, pages, value)` where `pages` is 1 for leaf
    /// pages and the block span for folded blocks. Used by fork-style
    /// duplication and mprotect.
    pub fn for_each_entry_mut(&mut self, mut f: impl FnMut(Vpn, u64, &mut V)) {
        for unit in self.units.iter() {
            match unit {
                Unit::LeafRange {
                    node, first, end, ..
                } => {
                    let n = nref(*node);
                    for idx in *first..*end {
                        let slot = &n.leaf()[idx];
                        if slot.status.load(Ordering::Acquire) & LEAF_PRESENT != 0 {
                            // SAFETY: we hold the slot lock.
                            if let Some(v) = unsafe { (*slot.value.get()).as_mut() } {
                                f(n.base_vpn + idx as u64, 1, v);
                            }
                        }
                    }
                }
                Unit::Block { node, idx, .. } => {
                    let n = nref(*node);
                    let slot = &n.interior()[*idx];
                    let w = slot.load(Ordering::Acquire);
                    if slot_tag(w) == TAG_FOLDED {
                        let start = n.base_vpn + *idx as u64 * n.slot_span();
                        // SAFETY: lock held; FOLDED slot owns the box.
                        f(start, n.slot_span(), unsafe {
                            &mut *(slot_ptr(w) as *mut V)
                        });
                    }
                }
                Unit::WholeNode { .. } => {}
            }
        }
    }

    /// Applies `f` to every present value in the locked range (pages and
    /// folded blocks) — the mprotect path.
    pub fn for_each_value_mut(&mut self, mut f: impl FnMut(&mut V)) {
        self.for_each_entry_mut(|_, _, v| f(v));
    }

    /// For a single-page guard at leaf granularity, returns mutable access
    /// to the page's value (the pagefault path). Returns `None` if the
    /// page is unmapped or only covered by an empty block.
    ///
    /// The value's *presence* must not change through this reference; use
    /// [`RangeGuard::clear`]/[`RangeGuard::replace`] for that.
    pub fn page_value_mut(&mut self) -> Option<&mut V> {
        for unit in self.units.iter() {
            match unit {
                Unit::LeafRange {
                    node, first, end, ..
                } => {
                    debug_assert_eq!(*end - *first, 1, "page_value_mut on multi-page guard");
                    let n = nref(*node);
                    let slot = &n.leaf()[*first];
                    if slot.status.load(Ordering::Acquire) & LEAF_PRESENT != 0 {
                        // SAFETY: we hold the slot lock for the guard's
                        // lifetime and hand out a borrow tied to it.
                        return unsafe { (*slot.value.get()).as_mut() };
                    }
                    return None;
                }
                Unit::Block { .. } => return None,
                Unit::WholeNode { .. } => {}
            }
        }
        None
    }

    /// For a guard holding a locked *folded* block slot (the
    /// [`LockMode::ExpandToBlock`] fault path), returns the block's
    /// first VPN, page span, and mutable access to its single governing
    /// value. Returns `None` when the range resolved to leaves or an
    /// empty block instead.
    ///
    /// The value's presence must not change through this reference.
    pub fn block_entry_mut(&mut self) -> Option<(Vpn, u64, &mut V)> {
        for unit in self.units.iter() {
            match unit {
                Unit::Block { node, idx, .. } => {
                    let n = nref(*node);
                    let slot = &n.interior()[*idx];
                    let w = slot.load(Ordering::Acquire);
                    debug_assert!(w & LOCK_BIT != 0, "interior slot not locked");
                    if slot_tag(w) == TAG_FOLDED {
                        let start = n.base_vpn + *idx as u64 * n.slot_span();
                        // SAFETY: we hold the slot lock for the guard's
                        // lifetime and hand out a borrow tied to it.
                        return Some((start, n.slot_span(), unsafe {
                            &mut *(slot_ptr(w) as *mut V)
                        }));
                    }
                    return None;
                }
                Unit::LeafRange { .. } => return None,
                Unit::WholeNode { .. } => {}
            }
        }
        None
    }

    /// Applies `f(vpn, value)` to every value this lock operation cloned
    /// by expansion into a node whose slot span lies in `spans`
    /// (whole-node units): page values in expanded leaves (span 1),
    /// folded values in expanded interior nodes.
    ///
    /// Expansion clones the displaced folded template into **all** the
    /// new node's slots — including slots outside the requested range —
    /// and every slot lock is born held until the guard drops, so the
    /// caller has exclusive access to fix up clone-sensitive state (the
    /// superpage demotion protocol adopts block references here, one rung
    /// at a time, before any other core can observe the copies).
    pub fn for_each_expanded_mut(
        &mut self,
        spans: impl RangeBounds<u64>,
        mut f: impl FnMut(Vpn, &mut V),
    ) {
        for unit in self.units.iter() {
            let Unit::WholeNode { node } = unit else {
                continue;
            };
            let n = nref(*node);
            let span = n.slot_span();
            if !spans.contains(&span) {
                continue;
            }
            if n.is_leaf() {
                for (idx, slot) in n.leaf().iter().enumerate() {
                    let st = slot.status.load(Ordering::Acquire);
                    debug_assert!(st & LOCK_BIT != 0, "expanded slot not locked");
                    if st & LEAF_PRESENT != 0 {
                        // SAFETY: the slot lock is born held by this
                        // guard's whole-node unit.
                        if let Some(v) = unsafe { (*slot.value.get()).as_mut() } {
                            f(n.base_vpn + idx as u64, v);
                        }
                    }
                }
                continue;
            }
            for (idx, slot) in n.interior().iter().enumerate() {
                let w = slot.load(Ordering::Acquire);
                // In-range slots this same descent expanded *further* are
                // TAG_CHILD and already published-and-unlocked
                // (expand_slot's release store); their clones are visited
                // at the smaller span. Only the FOLDED clones are still
                // born locked.
                if slot_tag(w) == TAG_FOLDED {
                    debug_assert!(w & LOCK_BIT != 0, "expanded fold not locked");
                    // SAFETY: the slot lock is born held by this guard's
                    // whole-node unit.
                    f(n.base_vpn + idx as u64 * span, unsafe {
                        &mut *(slot_ptr(w) as *mut V)
                    });
                }
            }
        }
    }

    /// Re-folds the locked block into a single folded value — superpage
    /// promotion's metadata step, the inverse of expansion (§7).
    ///
    /// Requires the guard to hold exactly one unit: a full pre-existing
    /// leaf ([`LockMode::ExpandFolded`] over one whole aligned block)
    /// with **every** slot populated. The 512 page values are taken out
    /// and returned, the leaf is severed from its parent slot (its weak
    /// reference unregistered so Refcache frees it cleanly once the
    /// guard's pin and any hint pins drain), and the parent slot is
    /// republished as a FOLDED block holding `folded`. Returns `None`,
    /// with the mapping untouched, when the guard's shape does not match
    /// (already folded, partially populated, or freshly expanded).
    ///
    /// Lock order: the parent interior slot is acquired *while holding*
    /// all 512 leaf slot locks. This adds no deadlock edge — descenders
    /// holding an interior slot lock never wait on leaf locks (expansion
    /// publishes and releases before descending), and readers take
    /// interior slot locks only transiently with no leaf lock held.
    pub fn refold(&mut self, folded: V) -> Option<Vec<V>> {
        let core = self.core;
        let cache = &self.tree.cache;
        let stats = &self.tree.stats;
        if self.units.len() != 1 {
            return None;
        }
        let node = match self.units.iter().next() {
            Some(Unit::LeafRange {
                node,
                first: 0,
                end,
                born: false,
            }) if *end == FANOUT => *node,
            _ => return None,
        };
        let n = nref(node);
        let (parent, pidx) = n.parent?;
        if n.leaf()
            .iter()
            .any(|s| s.status.load(Ordering::Acquire) & LEAF_PRESENT == 0)
        {
            return None;
        }
        let pslot = &nref(parent).interior()[pidx as usize];
        let w = lock_interior_slot(pslot, stats);
        if !(slot_tag(w) == TAG_CHILD && slot_ptr(w) == node.addr()) {
            // Unreachable while we hold every leaf slot lock (only a
            // refold severs a linked leaf, and it needs those locks);
            // unwind defensively rather than corrupt the slot.
            unlock_interior_slot(pslot);
            return None;
        }
        // Take the 512 values; the slots stay locked (and are unlocked,
        // on the now-severed node, at guard drop).
        let mut vals = Vec::with_capacity(FANOUT);
        for slot in n.leaf().iter() {
            // SAFETY: this guard holds every slot lock.
            let v = unsafe { (*slot.value.get()).take() }.expect("present slot lost its value");
            slot.status.fetch_and(!LEAF_PRESENT, Ordering::AcqRel);
            vals.push(v);
        }
        stats.sub(core, F_LEAF_VALUES, FANOUT as u64);
        // Surrender the used-slot references the values represented; the
        // node frees once the guard's pin (and any hint pins) drain.
        for _ in 0..FANOUT {
            cache.dec(core, node);
        }
        if !self.tree.cfg.collapse {
            // No-collapse trees give nodes a permanent reference; a
            // severed leaf is unreachable from the tree, so surrender it
            // too or the node would never free.
            cache.dec(core, node);
        }
        // The severed leaf's `on_release` will surrender one used-slot
        // reference on the parent; pre-compensate so CHILD → FOLDED
        // keeps the parent's count balanced at one per occupied slot.
        cache.inc(core, parent);
        // Sever the weak reference *before* republishing the slot, so a
        // later true-zero review of the leaf cannot CAS the folded word.
        cache.unregister_weak(node);
        let boxed = Box::into_raw(Box::new(folded)) as usize;
        // Publish the fold and release the parent slot lock in one store.
        pslot.store(pack_slot(boxed, TAG_FOLDED), Ordering::Release);
        stats.add(core, F_FOLDED_VALUES, 1);
        Some(vals)
    }

    /// Number of distinct locked units (diagnostics).
    pub fn unit_count(&self) -> usize {
        self.units.len()
    }
}

impl<V: RadixValue> Drop for RangeGuard<'_, V> {
    fn drop(&mut self) {
        for unit in self.units.iter() {
            match unit {
                Unit::LeafRange {
                    node,
                    first,
                    end,
                    born,
                } => {
                    if !born {
                        let n = nref(*node);
                        for idx in *first..*end {
                            unlock_leaf_slot(&n.leaf()[idx].status);
                        }
                    }
                }
                Unit::Block { node, idx, born } => {
                    if !born {
                        unlock_interior_slot(&nref(*node).interior()[*idx]);
                    }
                }
                Unit::WholeNode { node } => {
                    let n = nref(*node);
                    match &n.slots {
                        Slots::Interior(slots) => {
                            for s in slots.iter() {
                                s.fetch_and(!LOCK_BIT, Ordering::AcqRel);
                            }
                        }
                        Slots::Leaf(slots) => {
                            for s in slots.iter() {
                                s.status.fetch_and(!LOCK_BIT, Ordering::AcqRel);
                            }
                        }
                    }
                }
            }
        }
        for pin in self.pins.iter() {
            self.tree.cache.dec(self.core, *pin);
        }
        if self.units.spilled() || self.pins.spilled() {
            self.tree.stats.add(self.core, F_GUARD_SPILLS, 1);
        }
        // Release the list descriptor after every slot lock is down so
        // overlapping waiters observe a fully unlocked range.
        if let Some(token) = self.range_token.take() {
            self.tree.range_lock.release(self.core, token);
        }
    }
}
