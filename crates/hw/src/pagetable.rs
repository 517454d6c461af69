//! Software x86-64-style page tables.
//!
//! A four-level radix table indexed by 9 bits of virtual page number per
//! level, exactly like the hardware structure the paper's MMU abstraction
//! manages (§4). Interior slots hold child-node pointers; leaf slots hold
//! PTEs. All slots are instrumented atomics: on a *shared* page table,
//! concurrent faults installing PTEs contend on real cache lines, which is
//! part of what Figure 9 measures.
//!
//! # Variable granularity
//!
//! A slot at an interior level may hold a **superpage PTE** instead of a
//! child pointer — the x86 PS bit: one entry maps a whole aligned span of
//! pages to a physically contiguous frame block. Each level that may hold
//! one is a [`Rung`] of the [`RUNGS`] table: 2 MiB block PTEs at the last
//! interior level, 1 GiB giant PTEs one level higher. Every superpage
//! operation takes the rung as an input. [`Pte::new_span`] builds the
//! entry and [`PageTable::set_span`] installs it. The walk stops at a
//! superpage entry, and [`PageTable::get`] synthesizes the member frame's
//! translation. [`PageTable::shatter`] demotes one in place into a node of
//! 512 entries one rung down: a block into 4 KiB PTEs, a giant into block
//! PTEs. This is the paper-adjacent demotion path: partial munmap of a
//! superpage must not lose the surviving smaller translations.
//! Encoding: a superpage PTE is distinguished from a child pointer by
//! [`Pte::BLOCK`] (bit 2), which is always clear in an aligned pointer
//! tagged with `CHILD_TAG` (bit 0).

use std::sync::atomic::{AtomicU64, Ordering};

use rvm_mem::Pfn;
use rvm_sync::Atomic64;

use crate::{Vpn, VPN_BITS};

/// Bits of VPN consumed per level.
pub const LEVEL_BITS: usize = 9;
/// Slots per node.
pub const NODE_SLOTS: usize = 1 << LEVEL_BITS;
/// Number of levels (36-bit VPN / 9).
pub const LEVELS: usize = VPN_BITS / LEVEL_BITS;

/// One superpage size: the span a PTE at one interior level maps.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Rung {
    order: u8,
    pages: u64,
    /// Table level whose slots hold this rung's entries.
    level: usize,
    /// PTE bits that mark an entry of this rung.
    flags: u64,
}

impl Rung {
    /// The rung whose entries sit `height` levels above the leaves.
    const fn at_height(height: usize, flags: u64) -> Rung {
        let order = (height * LEVEL_BITS) as u8;
        Rung {
            order,
            pages: 1 << order,
            level: LEVELS - 1 - height,
            flags,
        }
    }

    /// log2 of the pages one entry maps: the frame-pool block order that
    /// backs it.
    pub const fn order(self) -> u8 {
        self.order
    }

    /// Pages one entry maps (`1 << order`).
    pub const fn pages(self) -> u64 {
        self.pages
    }

    /// The rung whose entries map `pages` pages, if any.
    pub fn with_pages(pages: u64) -> Option<Rung> {
        RUNGS.into_iter().find(|r| r.pages == pages)
    }

    /// The rung whose entries live in the slots of table `level`, if any.
    fn at_level(level: usize) -> Option<Rung> {
        RUNGS.into_iter().find(|r| r.level == level)
    }
}

/// The superpage rungs, smallest first. Adding a rung means adding one
/// order to `rvm_mem` and one row here.
pub const RUNGS: [Rung; 2] = [
    // 2 MiB: the PS bit in an x86 page-directory entry.
    Rung::at_height(1, Pte::BLOCK),
    // 1 GiB: the PS bit one level up, in a PDPT entry.
    Rung::at_height(2, Pte::BLOCK | Pte::GIANT),
];

/// Pages covered by one block PTE (an entry at the last interior level).
pub const BLOCK_PAGES: u64 = RUNGS[0].pages;

/// Pages covered by one giant PTE (an entry one interior level higher:
/// the x86 1 GiB PDPT superpage).
pub const GIANT_PAGES: u64 = RUNGS[1].pages;

// A superpage PTE's frame block must be exactly as large as the page span
// its table slot covers; a drift between the pool's block orders and the
// table fanout would map unrelated frames.
const _: () = assert!(RUNGS[0].order == rvm_mem::BLOCK_ORDER);
const _: () = assert!(RUNGS[1].order == rvm_mem::GIANT_ORDER);

/// A page table entry.
///
/// Encoding: `[pfn:32 | reserved | G | B | W | P]`. `B` ([`Pte::BLOCK`],
/// the x86 PS bit) marks a superpage entry installed at an interior level;
/// `G` ([`Pte::GIANT`]) tells the 1 GiB rung from the 2 MiB one. A
/// superpage entry's `pfn` is the base of a physically contiguous frame
/// block.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Pte(pub u64);

impl Pte {
    /// The non-present entry.
    pub const EMPTY: Pte = Pte(0);
    const PRESENT: u64 = 1 << 0;
    const WRITABLE: u64 = 1 << 1;
    /// Block ("page size") bit: the entry is an interior-level leaf
    /// covering a whole [`Rung`]. Doubles as the discriminant between
    /// superpage PTEs and `CHILD_TAG`-tagged child pointers in interior
    /// slots (aligned pointers never have bit 2 set).
    pub const BLOCK: u64 = 1 << 2;
    /// Giant bit: together with [`Pte::BLOCK`], the entry sits one
    /// interior level higher and covers [`GIANT_PAGES`] pages (x86's
    /// PS bit at the PDPT level). Only interpreted on words already
    /// known to be block PTEs, so it never ambiguates child pointers.
    pub const GIANT: u64 = 1 << 3;

    /// Builds a present PTE.
    pub fn new(pfn: Pfn, writable: bool) -> Pte {
        Pte(((pfn as u64) << 32) | Self::PRESENT | if writable { Self::WRITABLE } else { 0 })
    }

    /// Builds a present superpage PTE of `rung` whose `pfn` is the base of
    /// a contiguous block of `rung.pages` frames.
    pub fn new_span(pfn: Pfn, writable: bool, rung: Rung) -> Pte {
        Pte(Self::new(pfn, writable).0 | rung.flags)
    }

    /// Returns true if the entry is present.
    #[inline]
    pub fn present(self) -> bool {
        self.0 & Self::PRESENT != 0
    }

    /// Returns true if the entry permits writes.
    #[inline]
    pub fn writable(self) -> bool {
        self.0 & Self::WRITABLE != 0
    }

    /// Returns true if the entry is a superpage entry of any rung.
    #[inline]
    pub fn block(self) -> bool {
        self.0 & Self::BLOCK != 0
    }

    /// The rung of a superpage entry; `None` for a 4 KiB entry.
    #[inline]
    fn rung(self) -> Option<Rung> {
        // A larger rung's bits include a smaller one's: test it first.
        RUNGS
            .into_iter()
            .rev()
            .find(|r| self.0 & r.flags == r.flags)
    }

    /// Pages this entry translates.
    #[inline]
    pub fn span(self) -> u64 {
        self.rung().map_or(1, |r| r.pages)
    }

    /// The mapped frame (a block entry's base frame).
    #[inline]
    pub fn pfn(self) -> Pfn {
        (self.0 >> 32) as Pfn
    }
}

/// Returns true when an interior slot word holds a superpage PTE rather
/// than a child pointer.
#[inline]
fn is_block_word(v: u64) -> bool {
    v & Pte::BLOCK != 0
}

/// One 512-slot page-table node.
struct PtNode {
    slots: Box<[Atomic64]>,
}

impl PtNode {
    fn new() -> Box<PtNode> {
        Box::new(PtNode {
            slots: (0..NODE_SLOTS).map(|_| Atomic64::new(0)).collect(),
        })
    }
}

/// The child node a non-zero, non-block interior slot word points to.
///
/// # Safety
///
/// `v` must have been loaded from an interior slot. Such words always
/// hold a child pointer published by [`PageTable::child_or_create`];
/// children are only freed in `Drop` (which requires `&mut self`) or under
/// the VA-range lock contract of [`PageTable::set_span`].
unsafe fn child<'a>(v: u64) -> &'a PtNode {
    debug_assert!(v & CHILD_TAG != 0 && !is_block_word(v));
    &*((v & !CHILD_TAG) as *const PtNode)
}

/// A four-level software page table for one (address space, core) pair —
/// or a single shared one, depending on the MMU mode.
pub struct PageTable {
    root: Box<PtNode>,
    /// Number of nodes allocated (root included), for space accounting.
    nodes: AtomicU64,
}

/// Interior slots store `Box<PtNode>` pointers tagged with bit 0.
const CHILD_TAG: u64 = 1;

impl PageTable {
    /// Creates an empty table.
    pub fn new() -> PageTable {
        PageTable {
            root: PtNode::new(),
            nodes: AtomicU64::new(1),
        }
    }

    /// Index of `vpn` at `level` (level 0 = root).
    #[inline]
    fn index(vpn: Vpn, level: usize) -> usize {
        let shift = LEVEL_BITS * (LEVELS - 1 - level);
        ((vpn >> shift) as usize) & (NODE_SLOTS - 1)
    }

    /// Pages one slot of `level` covers.
    #[inline]
    fn level_pages(level: usize) -> u64 {
        1 << (LEVEL_BITS * (LEVELS - 1 - level))
    }

    /// Allocates (or finds) the child published in `slot`, returning it.
    fn child_or_create<'a>(&'a self, slot: &'a Atomic64, create: bool) -> Option<&'a PtNode> {
        let mut v = slot.load(Ordering::Acquire);
        if v == 0 {
            if !create {
                return None;
            }
            let fresh = PtNode::new();
            let ptr = Box::into_raw(fresh) as u64 | CHILD_TAG;
            match slot.compare_exchange(0, ptr, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => {
                    self.nodes.fetch_add(1, Ordering::Relaxed);
                    v = ptr;
                }
                Err(cur) => {
                    // Lost the install race; free ours, use theirs.
                    // SAFETY: the pointer came from Box::into_raw just
                    // above and was never published.
                    unsafe { drop(Box::from_raw((ptr & !CHILD_TAG) as *mut PtNode)) };
                    v = cur;
                }
            }
        }
        // SAFETY: a non-zero slot on the descent path holds a child
        // pointer (the caller ruled out a superpage word).
        Some(unsafe { child(v) })
    }

    /// Descends from the root to the slot covering `vpn` at `level`,
    /// optionally allocating missing interior nodes. A superpage PTE met
    /// above `level` is shattered one rung at a time when `create` is set
    /// (the caller is about to install something smaller under it),
    /// otherwise the descent reports `None` — use [`PageTable::get`] for
    /// superpage-aware reads.
    fn slot(&self, vpn: Vpn, level: usize, create: bool) -> Option<&Atomic64> {
        let mut node: &PtNode = &self.root;
        for l in 0..level {
            let slot = &node.slots[Self::index(vpn, l)];
            // Only a rung's level can hold a superpage word.
            if let Some(rung) = Rung::at_level(l) {
                loop {
                    let v = slot.load(Ordering::Acquire);
                    if !is_block_word(v) {
                        break;
                    }
                    if !create {
                        return None;
                    }
                    self.shatter_word(slot, v, rung);
                }
            }
            node = self.child_or_create(slot, create)?;
        }
        Some(&node.slots[Self::index(vpn, level)])
    }

    /// Replaces the `rung` PTE word `v` in `slot` with a node holding the
    /// 512 equivalent entries one rung down (4 KiB PTEs under a block,
    /// block PTEs under a giant). Returns true if this call did the
    /// shatter (false: someone else changed the slot first).
    fn shatter_word(&self, slot: &Atomic64, v: u64, rung: Rung) -> bool {
        let pte = Pte(v);
        debug_assert_eq!(pte.rung(), Some(rung));
        let pages = rung.pages >> LEVEL_BITS;
        let below = Rung::at_level(rung.level + 1);
        let node = PtNode::new();
        for (i, s) in node.slots.iter().enumerate() {
            let pfn = pte.pfn() + (i as u64 * pages) as Pfn;
            let entry = match below {
                Some(r) => Pte::new_span(pfn, pte.writable(), r),
                None => Pte::new(pfn, pte.writable()),
            };
            s.store(entry.0, Ordering::Relaxed);
        }
        let ptr = Box::into_raw(node) as u64 | CHILD_TAG;
        match slot.compare_exchange(v, ptr, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => {
                self.nodes.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(_) => {
                // SAFETY: never published.
                unsafe { drop(Box::from_raw((ptr & !CHILD_TAG) as *mut PtNode)) };
                false
            }
        }
    }

    /// Installs `pte` for `vpn`, returning the previous entry. A
    /// superpage PTE covering `vpn` is shattered first.
    pub fn set(&self, vpn: Vpn, pte: Pte) -> Pte {
        debug_assert!(!pte.block(), "use set_span for superpage PTEs");
        let slot = self
            .slot(vpn, LEVELS - 1, true)
            .expect("slot(create) cannot fail");
        Pte(slot.swap(pte.0, Ordering::AcqRel))
    }

    /// Installs `pte` only if the slot currently holds `expect`.
    pub fn set_if(&self, vpn: Vpn, expect: Pte, pte: Pte) -> Result<(), Pte> {
        let slot = self
            .slot(vpn, LEVELS - 1, true)
            .expect("slot(create) cannot fail");
        slot.compare_exchange(expect.0, pte.0, Ordering::AcqRel, Ordering::Acquire)
            .map(|_| ())
            .map_err(Pte)
    }

    /// Installs the superpage PTE `pte` (built with [`Pte::new_span`])
    /// over the aligned span of its rung containing `vpn`. Any existing
    /// subtree for the span (its entries were cleared by the caller's
    /// unmap) is freed.
    ///
    /// Contract: the caller holds the VA-range lock for the whole span,
    /// excluding concurrent walks of this range in shared-table
    /// configurations (the radix slot lock provides exactly this).
    pub fn set_span(&self, vpn: Vpn, pte: Pte) {
        let rung = pte.rung().expect("set_span needs a superpage PTE");
        let slot = self
            .slot(vpn, rung.level, true)
            .expect("slot(create) cannot fail");
        let old = slot.swap(pte.0, Ordering::AcqRel);
        if old != 0 && !is_block_word(old) {
            // Displaced a (cleared) subtree: reclaim it.
            // SAFETY: the word held an exclusively owned child pointer;
            // the caller's range lock excludes concurrent walkers.
            unsafe { self.free_subtree((old & !CHILD_TAG) as *mut PtNode, rung.level + 1) };
        }
    }

    /// Frees `node` and every descendant; `slots_level` is the level its
    /// slots index ([`LEVELS`]` - 1` slots hold PTE values, so a node
    /// there has no children). Superpage PTE words are values, never
    /// followed.
    ///
    /// # Safety
    ///
    /// `node` must be an exclusively owned, unpublished subtree.
    unsafe fn free_subtree(&self, node: *mut PtNode, slots_level: usize) {
        let boxed = Box::from_raw(node);
        if slots_level < LEVELS - 1 {
            for slot in boxed.slots.iter() {
                let v = slot.load(Ordering::Acquire);
                if v != 0 && !is_block_word(v) {
                    self.free_subtree((v & !CHILD_TAG) as *mut PtNode, slots_level + 1);
                }
            }
        }
        self.nodes.fetch_sub(1, Ordering::Relaxed);
    }

    /// Demotes the `rung` PTE covering `vpn` one rung down, in place: a
    /// node of 512 entries of the next smaller size replaces it, every
    /// translation preserved. No-op if no `rung` entry covers `vpn`.
    /// Returns true when an entry was shattered.
    pub fn shatter(&self, vpn: Vpn, rung: Rung) -> bool {
        let Some(slot) = self.slot(vpn, rung.level, false) else {
            return false;
        };
        let v = slot.load(Ordering::Acquire);
        is_block_word(v) && self.shatter_word(slot, v, rung)
    }

    /// Reads the entry for `vpn` (non-allocating). Under a superpage PTE
    /// the member frame's translation is synthesized, with the rung's
    /// bits kept set so callers can recognize the granularity.
    pub fn get(&self, vpn: Vpn) -> Pte {
        let mut node: &PtNode = &self.root;
        for level in 0..LEVELS - 1 {
            let v = node.slots[Self::index(vpn, level)].load(Ordering::Acquire);
            if v == 0 {
                return Pte::EMPTY;
            }
            if is_block_word(v) {
                let pte = Pte(v);
                let off = (vpn & (pte.span() - 1)) as Pfn;
                return Pte(((pte.pfn() + off) as u64) << 32 | (v & 0xFFFF_FFFF));
            }
            // SAFETY: non-block non-zero words are published children.
            node = unsafe { child(v) };
        }
        Pte(node.slots[Self::index(vpn, LEVELS - 1)].load(Ordering::Acquire))
    }

    /// Clears the entry for `vpn`, returning the previous entry. A
    /// superpage PTE covering `vpn` is shattered first so only the one
    /// page's translation is removed.
    pub fn clear(&self, vpn: Vpn) -> Pte {
        loop {
            if let Some(slot) = self.slot(vpn, LEVELS - 1, false) {
                return Pte(slot.swap(0, Ordering::AcqRel));
            }
            // Either absent or covered by a superpage PTE: shatter the
            // covering entry one rung and retry (a giant shatters to
            // blocks first, then the block to a leaf).
            if !RUNGS.into_iter().any(|r| self.shatter(vpn, r)) {
                return Pte::EMPTY;
            }
        }
    }

    /// Clears `[start, start + n)`, invoking `f(vpn, pages, pte)` for
    /// each present entry with the number of pages it spanned — 1 for
    /// 4 KiB PTEs, the rung's `pages` for superpage PTEs — so
    /// frame-release paths can account whole blocks exactly once.
    ///
    /// A superpage PTE overlapping the range is cleared *whole* and
    /// reported with its full span and base VPN (even when the range
    /// covers only part of it); callers that need surviving smaller
    /// translations must demote first via [`PageTable::shatter`].
    pub fn clear_range(&self, start: Vpn, n: u64, mut f: impl FnMut(Vpn, u64, Pte)) {
        // Levels above the top rung hold only child pointers: descend
        // through them afresh for each top-rung span.
        let top = RUNGS[RUNGS.len() - 1];
        let end = start + n;
        let mut vpn = start;
        while vpn < end {
            let stop = ((vpn & !(top.pages - 1)) + top.pages).min(end);
            vpn = match self.slot(vpn, top.level, false) {
                Some(slot) => self.clear_slot(slot, top.level, vpn, stop, &mut f),
                None => stop,
            };
        }
    }

    /// Clears `[vpn, stop)`, all under `slot` at interior `level`, for
    /// [`PageTable::clear_range`]. Returns the VPN to resume from: `stop`,
    /// or `vpn` itself when a superpage word changed under the clear and
    /// must be re-examined.
    fn clear_slot<F: FnMut(Vpn, u64, Pte)>(
        &self,
        slot: &Atomic64,
        level: usize,
        mut vpn: Vpn,
        stop: Vpn,
        f: &mut F,
    ) -> Vpn {
        let v = slot.load(Ordering::Acquire);
        if is_block_word(v) {
            let pages = Self::level_pages(level);
            if slot
                .compare_exchange(v, 0, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                f(vpn & !(pages - 1), pages, Pte(v));
            }
            // Changed under us (or cleared): either way re-examine.
            return if slot.load(Ordering::Acquire) == 0 {
                stop
            } else {
                vpn
            };
        }
        if v == 0 {
            return stop;
        }
        // SAFETY: published child pointer.
        let node = unsafe { child(v) };
        if level + 1 == LEVELS - 1 {
            for vpn in vpn..stop {
                let old = Pte(node.slots[Self::index(vpn, level + 1)].swap(0, Ordering::AcqRel));
                if old.present() {
                    f(vpn, 1, old);
                }
            }
            return stop;
        }
        let pages = Self::level_pages(level + 1);
        while vpn < stop {
            let sub = ((vpn & !(pages - 1)) + pages).min(stop);
            let slot = &node.slots[Self::index(vpn, level + 1)];
            vpn = self.clear_slot(slot, level + 1, vpn, sub, f);
        }
        stop
    }

    /// Bytes of memory consumed by table nodes (4 KB-equivalent per node,
    /// as on hardware).
    pub fn bytes(&self) -> u64 {
        self.nodes.load(Ordering::Relaxed) * 4096
    }

    /// Number of allocated nodes.
    pub fn node_count(&self) -> u64 {
        self.nodes.load(Ordering::Relaxed)
    }
}

impl Default for PageTable {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for PageTable {
    fn drop(&mut self) {
        for slot in self.root.slots.iter() {
            let v = slot.load(Ordering::Acquire);
            // Superpage PTEs are values, not child pointers: skip them.
            if v != 0 && !is_block_word(v) {
                // SAFETY: interior slots hold exclusively owned child
                // boxes; `&mut self` guarantees no concurrent walkers.
                unsafe { self.free_subtree((v & !CHILD_TAG) as *mut PtNode, 1) };
            }
        }
    }
}

// SAFETY: all mutation goes through atomics; child nodes are immutable
// once published.
unsafe impl Send for PageTable {}
// SAFETY: as above.
unsafe impl Sync for PageTable {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pte_encoding() {
        let p = Pte::new(42, true);
        assert!(p.present());
        assert!(p.writable());
        assert_eq!(p.pfn(), 42);
        let r = Pte::new(7, false);
        assert!(!r.writable());
        assert!(!Pte::EMPTY.present());
    }

    #[test]
    fn rung_table_matches_levels() {
        for (i, rung) in RUNGS.into_iter().enumerate() {
            assert_eq!(rung.pages, 1 << rung.order);
            assert_eq!(rung.pages, PageTable::level_pages(rung.level));
            assert_eq!(Rung::with_pages(rung.pages), Some(rung));
            let pte = Pte::new_span(7, true, rung);
            assert_eq!(
                (pte.rung(), pte.span(), pte.pfn()),
                (Some(rung), rung.pages, 7)
            );
            assert!(pte.block() && pte.writable());
            if i > 0 {
                assert_eq!(rung.pages, RUNGS[i - 1].pages << LEVEL_BITS);
            }
        }
        assert_eq!(
            (Pte::new(7, true).rung(), Pte::new(7, true).span()),
            (None, 1)
        );
        assert_eq!(Rung::with_pages(1), None);
    }

    #[test]
    fn set_get_clear() {
        let pt = PageTable::new();
        assert!(!pt.get(123).present());
        pt.set(123, Pte::new(5, true));
        assert_eq!(pt.get(123).pfn(), 5);
        let old = pt.clear(123);
        assert_eq!(old.pfn(), 5);
        assert!(!pt.get(123).present());
    }

    #[test]
    fn distant_vpns_use_distinct_subtrees() {
        let pt = PageTable::new();
        let a: Vpn = 0;
        let b: Vpn = (1 << 35) - 1; // far end of the VPN space
        pt.set(a, Pte::new(1, false));
        pt.set(b, Pte::new(2, false));
        assert_eq!(pt.get(a).pfn(), 1);
        assert_eq!(pt.get(b).pfn(), 2);
        assert!(pt.node_count() >= 7, "two full paths plus root");
    }

    #[test]
    fn clear_range_reports_present() {
        let pt = PageTable::new();
        for vpn in 10..20 {
            pt.set(vpn, Pte::new(vpn as Pfn, true));
        }
        let mut seen = Vec::new();
        pt.clear_range(5, 20, |vpn, pages, pte| {
            assert_eq!(pages, 1);
            seen.push((vpn, pte.pfn()));
        });
        assert_eq!(seen.len(), 10);
        assert_eq!(seen[0], (10, 10));
        assert!(!pt.get(15).present());
    }

    #[test]
    fn block_pte_roundtrip() {
        for rung in RUNGS {
            let pt = PageTable::new();
            let base: Vpn = rung.pages * 3;
            pt.set_span(base + 7, Pte::new_span(1000, true, rung));
            // Every member page translates to base + offset.
            for off in [0u64, 1, 100, rung.pages / 2, rung.pages - 1] {
                let p = pt.get(base + off);
                assert!(p.present() && p.block(), "offset {off}");
                assert_eq!(p.pfn(), 1000 + off as Pfn);
                assert!(p.writable());
            }
            assert!(!pt.get(base - 1).present());
            assert!(!pt.get(base + rung.pages).present());
            let mut seen = Vec::new();
            pt.clear_range(base, rung.pages, |vpn, pages, pte| {
                seen.push((vpn, pages, pte));
            });
            let (vpn, pages, old) = seen[0];
            assert_eq!(seen.len(), 1);
            assert_eq!((vpn, pages), (base, rung.pages));
            assert!(old.block());
            assert_eq!(old.pfn(), 1000);
            assert_eq!(old.span(), rung.pages);
            assert!(!pt.get(base).present());
        }
    }

    #[test]
    fn block_install_allocates_no_leaf() {
        let pt = PageTable::new();
        pt.set_span(0, Pte::new_span(0, false, RUNGS[0]));
        let with_block = pt.node_count();
        // A 4 KiB install of the same range would need one more node
        // (the leaf); the block entry terminates the walk early.
        let pt2 = PageTable::new();
        pt2.set(0, Pte::new(0, false));
        assert!(pt2.node_count() > with_block, "block entry must be cheaper");
    }

    #[test]
    fn shatter_preserves_translations() {
        for rung in RUNGS {
            let pt = PageTable::new();
            let base: Vpn = rung.pages * 5;
            pt.set_span(base, Pte::new_span(2000, true, rung));
            assert!(pt.shatter(base + 3, rung));
            assert!(!pt.shatter(base, rung), "second shatter is a no-op");
            for off in [0u64, 9, rung.pages - 1] {
                let p = pt.get(base + off);
                // One rung down: 4 KiB entries under a block.
                assert!(p.present(), "offset {off} lost");
                assert_eq!(p.span(), rung.pages >> LEVEL_BITS, "offset {off}");
                assert_eq!(p.pfn(), 2000 + off as Pfn);
                assert!(p.writable());
            }
            // Clearing a single page after shatter leaves the others.
            let old = pt.clear(base + 9);
            assert_eq!(old.pfn(), 2009);
            assert!(pt.get(base + 10).present());
            assert!(!pt.get(base + 9).present());
        }
    }

    #[test]
    fn set_over_block_shatters_implicitly() {
        for rung in RUNGS {
            let pt = PageTable::new();
            let base: Vpn = rung.pages * 2;
            pt.set_span(base, Pte::new_span(3000, false, rung));
            // A 4 KiB install inside the superpage demotes it rather than
            // corrupting the interior slot.
            let old = pt.set(base + 2, Pte::new(77, true));
            assert_eq!(old.pfn(), 3002, "displaced the synthesized member PTE");
            assert_eq!(pt.get(base + 2).pfn(), 77);
            assert_eq!(pt.get(base + 1).pfn(), 3001);
        }
    }

    #[test]
    fn clear_range_reports_block_span_once() {
        for rung in RUNGS {
            let pt = PageTable::new();
            let base: Vpn = rung.pages * 8;
            pt.set_span(base, Pte::new_span(4000, true, rung));
            pt.set(base - 1, Pte::new(9, false));
            let mut seen = Vec::new();
            // Range partially overlaps the superpage: the whole entry is
            // cleared and reported exactly once with its full span.
            pt.clear_range(base - 1, 10, |vpn, pages, pte| {
                seen.push((vpn, pages, pte.pfn()));
            });
            assert_eq!(seen.len(), 2);
            assert_eq!(seen[0], (base - 1, 1, 9));
            assert_eq!(seen[1], (base, rung.pages, 4000));
            assert!(!pt.get(base + 100).present());
        }
    }

    #[test]
    fn giant_shatter_cascades_one_rung_at_a_time() {
        let [block, giant] = RUNGS;
        let pt = PageTable::new();
        let base: Vpn = GIANT_PAGES * 2;
        pt.set_span(base, Pte::new_span(100_000, true, giant));
        // One entry, no mid/leaf nodes for the region.
        let with_giant = pt.node_count();
        // Cascade: shatter to blocks, then one block to a leaf.
        assert!(pt.shatter(base + 777, giant));
        assert!(!pt.shatter(base, giant), "second shatter is a no-op");
        assert_eq!(pt.node_count(), with_giant + 1);
        let p = pt.get(base + 777);
        assert_eq!(p.rung(), Some(block));
        assert_eq!(p.pfn(), 100_777);
        // A 4 KiB install inside shatters the covering block implicitly.
        let old = pt.set(base + 777, Pte::new(5, true));
        assert_eq!(old.pfn(), 100_777);
        assert_eq!(pt.get(base + 777).pfn(), 5);
        assert_eq!(pt.get(base + 778).pfn(), 100_778);
        // A single-page clear under a fresh giant cascades too.
        let base2: Vpn = GIANT_PAGES * 5;
        pt.set_span(base2, Pte::new_span(7_000_000, false, giant));
        let old = pt.clear(base2 + 3);
        assert_eq!(old.pfn(), 7_000_003);
        assert!(pt.get(base2 + 4).present());
        assert!(!pt.get(base2 + 3).present());
    }

    #[test]
    fn set_span_reclaims_displaced_subtree() {
        let base: Vpn = GIANT_PAGES * 3;
        let pt = PageTable::new();
        // Build a two-level subtree inside the giant region, clear the
        // entries (callers unmap first), then install the giant.
        pt.set(base + 5, Pte::new(1, true));
        pt.set(base + 512 * 7 + 3, Pte::new(2, true));
        pt.set_span(base + 512 * 9, Pte::new_span(3, true, RUNGS[0]));
        pt.clear_range(base, GIANT_PAGES, |_, _, _| {});
        let before = pt.node_count();
        pt.set_span(base, Pte::new_span(50_000, true, RUNGS[1]));
        // The mid node and both leaves were reclaimed.
        assert_eq!(pt.node_count(), before - 3);
        assert_eq!(pt.get(base + 5).pfn(), 50_005);
    }

    #[test]
    fn blocks_freed_on_drop() {
        // Drop must not confuse superpage PTEs with child pointers.
        let pt = PageTable::new();
        pt.set_span(0, Pte::new_span(1, true, RUNGS[0]));
        pt.set_span(GIANT_PAGES, Pte::new_span(1, true, RUNGS[1]));
        pt.set(512, Pte::new(2, true));
        drop(pt);
    }

    #[test]
    fn set_if_races() {
        let pt = PageTable::new();
        assert!(pt.set_if(9, Pte::EMPTY, Pte::new(1, false)).is_ok());
        // Second conditional install must observe the first.
        let err = pt.set_if(9, Pte::EMPTY, Pte::new(2, false)).unwrap_err();
        assert_eq!(err.pfn(), 1);
    }

    #[test]
    fn concurrent_installs() {
        let pt = std::sync::Arc::new(PageTable::new());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let pt = pt.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1_000u64 {
                    let vpn = t * 1_000_000 + i * 7;
                    pt.set(vpn, Pte::new((t * 10_000 + i) as Pfn, true));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..4u64 {
            for i in 0..1_000u64 {
                let vpn = t * 1_000_000 + i * 7;
                assert_eq!(pt.get(vpn).pfn(), (t * 10_000 + i) as Pfn);
            }
        }
    }

    #[test]
    fn bytes_accounting() {
        let pt = PageTable::new();
        let base = pt.bytes();
        pt.set(0, Pte::new(1, false));
        assert!(pt.bytes() > base);
    }
}
