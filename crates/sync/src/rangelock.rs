//! A sharded list-based scalable range lock (after Kogan, Dice & Issa,
//! *Scalable Range Locks for Scalable Address Spaces and Beyond*).
//!
//! Acquiring `[lo, hi)` enqueues a *range descriptor* into a sorted
//! lock-free linked list; presence in the list **is** ownership of the
//! range. Because holders are mutually disjoint, the list is totally
//! ordered by `lo`. An acquirer walks the list once: descriptors
//! entirely before its range are skipped, the first descriptor at or
//! past it marks the insertion point, and an *overlapping* descriptor
//! is the one thing worth waiting for — the waiter spins (bounded
//! exponential backoff, [`crate::backoff::Backoff`]) on that
//! descriptor alone, not on the list head.
//!
//! Release marks the descriptor's own `next` word (logical delete — a
//! single-word operation waiters observe directly), physically unlinks
//! it, and recycles it through a per-core cache.
//!
//! # Shards
//!
//! One list would make every acquisition CAS the same sentinel `next`
//! word twice (insert and unlink), so disjoint acquirers would still
//! trade that one line. The lock therefore keeps one list per *shard*,
//! each behind its own line-aligned sentinel. The unit space is cut
//! into *regions* of `2^region_shift` units, and a region picks its
//! shard by a multiplicative hash of its index. A range takes one
//! descriptor, carrying the whole range, in every shard its regions map
//! to, in ascending shard order:
//!
//! * Overlapping ranges share a unit, hence a region, hence a shard.
//!   Live descriptors within one shard are therefore still pairwise
//!   disjoint, and the shard two overlapping ranges share serializes
//!   them exactly as the single list did.
//! * A multi-shard acquirer may wait at one shard while holding lower
//!   ones. A holder it waits on has already passed that shard, so it
//!   can itself only be waiting at a higher one: every waits-for edge
//!   climbs the shard order, and no cycle (deadlock) can form.
//! * Ranges whose regions hash to different shards touch no common
//!   line. Two regions that collide share their shard's sentinel line,
//!   which costs transfers but never correctness: the descriptors still
//!   compare whole ranges.
//!
//! One per-core descriptor cache serves every shard, so an acquisition
//! within one region allocates nothing once warm.
//!
//! # Simulator accounting
//!
//! All list words are instrumented atomics, so traversal and insertion
//! pay MESI line costs like any other shared structure. Hold-window
//! serialization cannot come from real spinning (virtual cores run one
//! op at a time, so the lists are empty whenever a simulated op
//! begins): instead [`sim::range_lock_acquire`] consults a per-shard
//! history of released intervals and advances the acquirer's clock
//! past the latest *overlapping* release, charging the difference as
//! lock wait. Disjoint ranges never wait, while overlapping ops
//! serialize exactly as a real waiter would. Each shard is its own
//! lock to the simulator, so [`sim::top_lock_waits`] lists one entry
//! per shard.
//!
//! # Invariants
//!
//! * Descriptors in a shard's list are disjoint and sorted by `lo`; the
//!   sentinel is never marked or removed.
//! * A descriptor's `next` word carries the logical-delete mark
//!   (bit 0), so marking a node atomically invalidates every pending
//!   CAS on it — insertion after a released node cannot succeed.
//! * A descriptor is published *marked* and unmarked only once its
//!   neighbors validate. Among reachable descriptors, an unmarked `next`
//!   therefore always belongs to a live, linked one, so an insertion
//!   CAS that succeeds on a recycled neighbor still lands in some list,
//!   where the inserter finds it again (searching every shard) to
//!   retract it.
//! * Only the owner physically unlinks its descriptor, and a descriptor
//!   is recycled only after its unlink completed, so a descriptor
//!   reachable from a list is never concurrently reused-in-place.
//!   Traversals that raced a recycle revalidate neighbors by their
//!   `seq` generation and retract on mismatch.
//! * A walk steps only through descriptors it validated as live members
//!   of its own shard (`shard` stamp and `seq` unchanged around the
//!   read of `next`). A recycle can move a descriptor into another
//!   shard's list, and that list's order says nothing about this one:
//!   an insertion placed there, or a wait on a descriptor found there
//!   (possibly the waiter's own, in a lower shard), would break
//!   exclusion or deadlock.
//! * A thread never acquires a range overlapping one it already holds
//!   on the same lock (self-deadlock); `RadixTree` guarantees this by
//!   holding at most one guard per tree per core.

use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering::{Relaxed, SeqCst};

use crate::atomic::{Atomic64, AtomicPtr64};
use crate::backoff::Backoff;
use crate::lock::SpinLock;
use crate::pad::CachePadded;
use crate::{sim, MAX_CORES};

/// Which substrate realizes `RadixTree::lock_range`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RangeLockKind {
    /// Per-leaf-slot CAS spin locks only (the original substrate): a
    /// k-page range costs k CAS's on k status words, and overlapping
    /// rangers fight slot by slot.
    SlotSpin,
    /// The sharded list-based range lock in front of the slot locks:
    /// multi-page acquisitions serialize on one descriptor per overlap
    /// instead of fighting per slot, and acquisitions in regions that
    /// hash to different shards share no line.
    #[default]
    List,
}

impl RangeLockKind {
    /// Stable lowercase name (bench records, backend metadata).
    pub fn name(self) -> &'static str {
        match self {
            RangeLockKind::SlotSpin => "slotspin",
            RangeLockKind::List => "list",
        }
    }
}

/// Largest shard count: a range's shards are a `u128` mask.
const MAX_SHARDS: usize = 128;

/// Logical-delete mark in a descriptor's `next` word.
const MARK: u64 = 1;

/// One range acquisition in one shard. Fits one cache line; `next`
/// carries the [`MARK`] bit, `seq` counts reuses so stale traversals
/// can detect a recycled neighbor.
#[repr(align(64))]
#[derive(Default)]
struct Desc {
    lo: Atomic64,
    hi: Atomic64,
    seq: Atomic64,
    next: Atomic64,
    /// The shard this descriptor is enqueued in. Stamped before the
    /// `seq` bump; other cores read it only to reject a descriptor a
    /// recycle moved into another shard, which never happens under the
    /// simulator (its lists are empty whenever an op begins), so it is
    /// not instrumented.
    shard: AtomicUsize,
    /// The acquisition's next descriptor (0 ends the chain).
    /// Owner-private, so not instrumented.
    link: AtomicUsize,
}

/// Proof of an acquisition; must be passed back to [`RangeLock::release`].
/// Holds the chain of the acquisition's descriptors, one per shard.
#[derive(Debug)]
pub struct RangeToken {
    desc: usize,
}

impl RangeToken {
    fn push(&mut self, desc: *mut Desc) {
        // SAFETY: descriptors live as long as their lock (`RangeLock::all`).
        unsafe { (*desc).link.store(self.desc, Relaxed) };
        self.desc = desc as usize;
    }
}

/// The sharded list-based range lock. See the module docs for the
/// protocol.
pub struct RangeLock {
    /// One sentinel per shard: its `next` is that shard's list head;
    /// never holds a range.
    heads: Box<[Desc]>,
    /// log2 of the units per region.
    region_shift: u32,
    /// Per-core single-descriptor recycle slots (0 = empty).
    cache: Vec<CachePadded<AtomicPtr64>>,
    /// Overflow recycle pool: the descriptors beyond the first of a
    /// multi-shard acquisition.
    spare: SpinLock<Vec<usize>>,
    /// Every descriptor ever allocated, for deallocation on drop. No
    /// descriptor is freed earlier, so every pointer this module
    /// dereferences (a sentinel, a token's chain, or a `next` word read
    /// at any time) names a valid `Desc` for the lock's whole life.
    all: SpinLock<Vec<usize>>,
}

impl RangeLock {
    /// Creates an empty lock of `shards` lists (a power of two, at most
    /// 128) over regions of `2^region_shift` units.
    pub fn new(shards: usize, region_shift: u32) -> Self {
        assert!(
            shards.is_power_of_two() && shards <= MAX_SHARDS,
            "range lock shard count {shards} must be a power of two up to {MAX_SHARDS}"
        );
        assert!(
            region_shift < 64,
            "region shift {region_shift} out of range"
        );
        let mut cache = Vec::with_capacity(MAX_CORES);
        cache.resize_with(MAX_CORES, || CachePadded::new(AtomicPtr64::new(0)));
        RangeLock {
            heads: (0..shards).map(|_| Desc::default()).collect(),
            region_shift,
            cache,
            spare: SpinLock::new(Vec::new()),
            all: SpinLock::new(Vec::new()),
        }
    }

    /// Shard `s`'s identity for simulator accounting
    /// ([`sim::top_lock_waits`]).
    fn sim_addr(&self, s: usize) -> usize {
        &self.heads[s] as *const Desc as usize
    }

    /// The shard `region` maps to: Fibonacci hashing, so strided region
    /// indices spread evenly over the shards.
    fn shard_of(&self, region: u64) -> usize {
        let bits = self.heads.len().trailing_zeros();
        (region.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (63 - bits) >> 1) as usize
    }

    /// The shards `[lo, hi)` takes, bit `s` standing for shard `s`. A
    /// range spanning at least as many regions as there are shards takes
    /// them all.
    fn shard_mask(&self, lo: u64, hi: u64) -> u128 {
        let (first, last) = (lo >> self.region_shift, (hi - 1) >> self.region_shift);
        let n = self.heads.len();
        if last - first >= n as u64 {
            return u128::MAX >> (MAX_SHARDS - n);
        }
        (first..=last).fold(0, |m, r| m | 1 << self.shard_of(r))
    }

    /// Acquires `[lo, hi)`, waiting for any overlapping holder.
    pub fn acquire(&self, core: usize, lo: u64, hi: u64) -> RangeToken {
        let mut token = RangeToken { desc: 0 };
        for s in shards_in(self.shard_mask(lo, hi)) {
            let desc = self.prep(core, s, lo, hi);
            // Virtual-time first: wait out the latest overlapping release,
            // then pay the list's line traffic at the post-wait clock.
            sim::range_lock_acquire(self.sim_addr(s), lo, hi);
            self.insert(s, desc, lo, hi, false);
            token.push(desc);
        }
        token
    }

    /// Attempts to acquire `[lo, hi)` without waiting; fails on overlap
    /// with a current holder. (Under the simulator a structural overlap
    /// cannot be observed — ops run to completion — so this is
    /// primarily the oracle-testing and opportunistic-caller surface.)
    pub fn try_acquire(&self, core: usize, lo: u64, hi: u64) -> Option<RangeToken> {
        let mut token = RangeToken { desc: 0 };
        for s in shards_in(self.shard_mask(lo, hi)) {
            let desc = self.prep(core, s, lo, hi);
            if !self.insert(s, desc, lo, hi, true) {
                self.put_desc(core, desc);
                // Give back the shards already taken.
                self.release(core, token);
                return None;
            }
            sim::range_lock_acquire(self.sim_addr(s), lo, hi);
            token.push(desc);
        }
        Some(token)
    }

    /// Releases an acquisition, shard by shard: logical delete (mark),
    /// physical unlink, then recycle. Waiters observe the mark and
    /// re-traverse.
    pub fn release(&self, core: usize, token: RangeToken) {
        let mut p = token.desc;
        while p != 0 {
            let desc = p as *mut Desc;
            // SAFETY: the token's chain holds this lock's descriptors,
            // which live as long as the lock (`all`).
            let d = unsafe { &*desc };
            p = d.link.load(Relaxed);
            let s = d.shard.load(SeqCst);
            let (lo, hi) = (d.lo.load(SeqCst), d.hi.load(SeqCst));
            let prev = d.next.fetch_or(MARK, SeqCst);
            debug_assert_eq!(prev & MARK, 0, "range descriptor released twice");
            self.unlink(s, desc);
            sim::range_lock_release(self.sim_addr(s), lo, hi);
            self.put_desc(core, desc);
        }
    }

    /// Takes a descriptor for `core` and stamps the range onto it. The
    /// `seq` bump comes *after* the field stores: a traverser that
    /// revalidates `seq` around a decision is then guaranteed to have
    /// seen fields at least as new as the generation it validated.
    fn prep(&self, core: usize, shard: usize, lo: u64, hi: u64) -> *mut Desc {
        debug_assert!(lo < hi, "empty or inverted range [{lo}, {hi})");
        let desc = self.take_desc(core);
        let d = unsafe { &*desc };
        d.shard.store(shard, SeqCst);
        d.lo.store(lo, SeqCst);
        d.hi.store(hi, SeqCst);
        d.seq.fetch_add(1, SeqCst);
        desc
    }

    fn take_desc(&self, core: usize) -> *mut Desc {
        let p = self.cache[core].swap(0, SeqCst);
        if p != 0 {
            return p as *mut Desc;
        }
        if let Some(p) = self.spare.lock().pop() {
            return p as *mut Desc;
        }
        sim::charge_alloc();
        let p = Box::into_raw(Box::<Desc>::default());
        self.all.lock().push(p as usize);
        p
    }

    fn put_desc(&self, core: usize, desc: *mut Desc) {
        if self.cache[core]
            .compare_exchange(0, desc as usize, SeqCst, SeqCst)
            .is_err()
        {
            self.spare.lock().push(desc as usize);
        }
    }

    /// Inserts `desc` at its sorted position in shard `shard` once no
    /// live descriptor there overlaps `[lo, hi)`. Returns false only in
    /// `try_only` mode.
    fn insert(&self, shard: usize, desc: *mut Desc, lo: u64, hi: u64, try_only: bool) -> bool {
        let head = &self.heads[shard] as *const Desc;
        // SAFETY (every dereference below): `desc`, the sentinel and
        // every pointer read from a `next` word name descriptors that
        // live as long as the lock (`all`); a stale one is still valid
        // memory, and the `seq` checks reject its contents.
        let d = unsafe { &*desc };
        let mut backoff = Backoff::new();
        'retry: loop {
            let mut pred = head;
            let mut pred_seq = unsafe { (*pred).seq.load(SeqCst) };
            // pred's successor, read while pred was a live member of this
            // shard: the walk never re-reads a `next` that a recycle may
            // have moved into another shard's list.
            let mut pnx = unsafe { (*pred).next.load(SeqCst) };
            loop {
                if pnx == 0 {
                    // Tail: everything in the list ends before `lo`.
                    d.next.store(MARK, SeqCst);
                    if self.publish(pred, pnx, desc) {
                        if unsafe { (*pred).seq.load(SeqCst) } == pred_seq {
                            d.next.store(pnx, SeqCst);
                            return true;
                        }
                        // pred was recycled between our position check
                        // and the CAS (unlink + reuse + reinsert, maybe in
                        // another shard): retract and retry.
                        self.unlink(shard, desc);
                    }
                    continue 'retry;
                }
                let cur = pnx as *const Desc;
                let c = unsafe { &*cur };
                let cur_seq = c.seq.load(SeqCst);
                let cnx = c.next.load(SeqCst);
                if cnx & MARK != 0 {
                    // cur is being released or inserted; its owner is
                    // finishing that right now.
                    assert!(
                        !sim::active(),
                        "rangelock: marked descriptor visible under the simulator"
                    );
                    backoff.pause();
                    continue 'retry;
                }
                let (cur_lo, cur_hi) = (c.lo.load(SeqCst), c.hi.load(SeqCst));
                if c.shard.load(SeqCst) != shard || c.seq.load(SeqCst) != cur_seq {
                    // cur was recycled under us, possibly into another
                    // shard, whose list says nothing about this one's
                    // order: start over rather than walk (or wait) there.
                    continue 'retry;
                }
                if cur_hi <= lo {
                    // Entirely before us: walk past.
                    pred = cur;
                    pred_seq = cur_seq;
                    pnx = cnx;
                    continue;
                }
                if cur_lo >= hi {
                    // Entirely after us: insert between pred and cur.
                    d.next.store(pnx | MARK, SeqCst);
                    if self.publish(pred, pnx, desc) {
                        if unsafe { (*pred).seq.load(SeqCst) } == pred_seq
                            && c.seq.load(SeqCst) == cur_seq
                        {
                            d.next.store(pnx, SeqCst);
                            return true;
                        }
                        self.unlink(shard, desc);
                    }
                    continue 'retry;
                }
                // Overlap with a live holder.
                if try_only {
                    return false;
                }
                assert!(
                    !sim::active(),
                    "rangelock: waiting on an overlapping holder under the simulator \
                     (simulated ops must release before the next op runs)"
                );
                // Spin on this one descriptor — not the list — until its
                // holder releases (mark) or it is recycled (seq moves).
                loop {
                    if c.next.load(SeqCst) & MARK != 0 || c.seq.load(SeqCst) != cur_seq {
                        break;
                    }
                    backoff.pause();
                }
                continue 'retry;
            }
        }
    }

    /// The insertion CAS. Expects `pnx` unmarked, so it fails if `pred`
    /// was released or is still being inserted (either marks the word)
    /// or was restructured.
    #[inline]
    fn publish(&self, pred: *const Desc, pnx: u64, desc: *mut Desc) -> bool {
        unsafe {
            (*pred)
                .next
                .compare_exchange(pnx, desc as u64, SeqCst, SeqCst)
        }
        .is_ok()
    }

    /// Physically removes the (already marked) `desc`. Owner-only: no
    /// other thread ever unlinks it, so "not found" is a stale traversal
    /// artifact and the walk retries until the splice lands. The search
    /// starts at `shard`, where a released descriptor always is; a
    /// retracted insertion whose neighbor was recycled may sit in
    /// another shard, so the others are searched too.
    fn unlink(&self, shard: usize, desc: *mut Desc) {
        let target = desc as u64;
        // Our own next is stable while marked: only the owner writes a
        // marked descriptor's next (at the next reuse, after this).
        let splice = unsafe { (*desc).next.load(SeqCst) } & !MARK;
        let n = self.heads.len();
        let mut backoff = Backoff::new();
        loop {
            for i in 0..n {
                match Self::splice_out(&self.heads[(shard + i) % n], target, splice) {
                    Some(true) => return,
                    Some(false) => break,
                    None => {}
                }
            }
            backoff.pause();
        }
    }

    /// One walk of the list at `head`: `Some(true)` once `target` was
    /// spliced out, `Some(false)` if it was found but could not be (its
    /// predecessor is itself being released or inserted and still
    /// points at it afterwards, so wait that out), `None` if not found.
    fn splice_out(head: &Desc, target: u64, splice: u64) -> Option<bool> {
        // SAFETY (every dereference below): pointers read from `next`
        // words name descriptors that live as long as the lock (`all`).
        let mut pred = head as *const Desc;
        loop {
            let pnx = unsafe { (*pred).next.load(SeqCst) };
            if pnx & !MARK == target {
                return Some(
                    pnx & MARK == 0
                        && unsafe {
                            (*pred)
                                .next
                                .compare_exchange(target, splice, SeqCst, SeqCst)
                        }
                        .is_ok(),
                );
            }
            if pnx & !MARK == 0 {
                return None;
            }
            pred = (pnx & !MARK) as *const Desc;
        }
    }

    /// Number of live acquisitions, over every shard. A multi-shard
    /// acquisition counts once, at its lowest shard. Diagnostics only —
    /// the answer is stale by the time it returns.
    pub fn holders(&self) -> usize {
        let mut n = 0;
        for (s, head) in self.heads.iter().enumerate() {
            let mut p = head.next.load(SeqCst);
            while p & !MARK != 0 {
                // SAFETY: descriptors live as long as the lock (`all`).
                let d = unsafe { &*((p & !MARK) as *const Desc) };
                let nx = d.next.load(SeqCst);
                let lowest = self
                    .shard_mask(d.lo.load(SeqCst), d.hi.load(SeqCst))
                    .trailing_zeros();
                if nx & MARK == 0 && lowest as usize == s {
                    n += 1;
                }
                p = nx;
            }
        }
        n
    }
}

/// The shard indices set in `mask`, ascending.
fn shards_in(mut mask: u128) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let s = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            s
        })
    })
}

impl Drop for RangeLock {
    fn drop(&mut self) {
        // All tokens must have been released: tree guards borrow the
        // tree that owns this lock, so the borrow checker enforces it
        // for tree users.
        for &p in self.all.get_mut().iter() {
            drop(unsafe { Box::from_raw(p as *mut Desc) });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CostModel;
    use std::sync::{Arc, Mutex};

    /// A single list, as before sharding.
    fn one_list() -> RangeLock {
        RangeLock::new(1, 18)
    }

    #[test]
    fn acquire_release_basic() {
        let rl = one_list();
        let t = rl.acquire(0, 10, 20);
        assert_eq!(rl.holders(), 1);
        rl.release(0, t);
        assert_eq!(rl.holders(), 0);
    }

    #[test]
    fn try_acquire_respects_overlap() {
        let rl = one_list();
        let a = rl.acquire(0, 10, 20);
        assert!(rl.try_acquire(1, 15, 25).is_none(), "overlap must fail");
        assert!(rl.try_acquire(1, 0, 10).is_some(), "touching below is fine");
        let c = rl.try_acquire(2, 20, 30).expect("touching above is fine");
        assert_eq!(rl.holders(), 3);
        rl.release(0, a);
        let d = rl
            .try_acquire(0, 10, 20)
            .expect("released range reacquires");
        rl.release(0, d);
        rl.release(2, c);
    }

    #[test]
    fn descriptors_are_recycled_per_core() {
        // Each range lies in a region of its own, so the acquisitions
        // walk every shard; one descriptor still serves them all.
        let rl = RangeLock::new(8, 2);
        for i in 0..100 {
            let t = rl.acquire(3, i * 4, i * 4 + 3);
            rl.release(3, t);
        }
        assert_eq!(rl.all.lock().len(), 1, "one descriptor serves one core");
    }

    #[test]
    fn region_boundary_straddler_conflicts_on_both_sides() {
        // 16-unit regions: [12, 20) straddles the boundary at 16.
        let rl = RangeLock::new(4, 4);
        for (lo, hi) in [(8, 14), (18, 24)] {
            let h = rl.acquire(0, lo, hi);
            assert!(
                rl.try_acquire(1, 12, 20).is_none(),
                "straddler acquired over a holder at [{lo}, {hi})"
            );
            assert_eq!(rl.holders(), 1, "a failed try leaves nothing behind");
            rl.release(0, h);
        }
        let far = rl.acquire(0, 40, 48);
        let s = rl
            .try_acquire(1, 12, 20)
            .expect("a holder in another region does not conflict");
        // And the held straddler excludes both sides in turn.
        assert!(rl.try_acquire(2, 10, 13).is_none());
        assert!(rl.try_acquire(2, 19, 21).is_none());
        let below = rl.try_acquire(2, 0, 12).expect("disjoint below");
        rl.release(2, below);
        rl.release(1, s);
        rl.release(0, far);
        assert_eq!(rl.holders(), 0);
    }

    #[test]
    fn holders_count_every_shard_once_per_acquisition() {
        let rl = RangeLock::new(8, 4);
        let ranges = [(0, 4), (16, 20), (40, 70), (100, 200), (300, 301)];
        let tokens: Vec<_> = ranges
            .iter()
            .enumerate()
            .map(|(c, &(lo, hi))| rl.acquire(c, lo, hi))
            .collect();
        let shards: std::collections::BTreeSet<_> = ranges
            .iter()
            .flat_map(|&(lo, hi)| shards_in(rl.shard_mask(lo, hi)))
            .collect();
        assert!(shards.len() > 1, "the ranges must spread over shards");
        assert_eq!(rl.holders(), ranges.len());
        for (c, t) in tokens.into_iter().enumerate() {
            rl.release(c, t);
        }
        assert_eq!(rl.holders(), 0);
    }

    #[test]
    fn threaded_stress_mutual_exclusion() {
        const THREADS: usize = 4;
        const OPS: usize = 4_000;
        // 8-unit regions over 4 shards: most ranges cross a region
        // boundary, so acquisitions take several shards in order.
        let rl = Arc::new(RangeLock::new(4, 3));
        let held: Arc<Mutex<Vec<(usize, u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for tid in 0..THREADS {
            let rl = rl.clone();
            let held = held.clone();
            handles.push(std::thread::spawn(move || {
                let mut state = 0x9E37u64.wrapping_add(tid as u64);
                let mut rng = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                for _ in 0..OPS {
                    let lo = rng() % 64;
                    let hi = lo + 1 + rng() % 8;
                    let tok = match rng() % 4 {
                        0 => match rl.try_acquire(tid, lo, hi) {
                            Some(t) => t,
                            None => continue,
                        },
                        _ => rl.acquire(tid, lo, hi),
                    };
                    {
                        let mut h = held.lock().unwrap();
                        for &(other, olo, ohi) in h.iter() {
                            assert!(
                                ohi <= lo || hi <= olo,
                                "thread {tid} [{lo},{hi}) overlaps thread {other} [{olo},{ohi})"
                            );
                        }
                        h.push((tid, lo, hi));
                    }
                    std::hint::black_box(lo + hi);
                    // Retire the oracle entry before the real release so
                    // a racing acquirer never sees a stale hold.
                    held.lock().unwrap().retain(|&(t, _, _)| t != tid);
                    rl.release(tid, tok);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rl.holders(), 0);
    }

    #[test]
    fn sim_disjoint_acquires_never_wait() {
        let g = sim::install(4, CostModel::default());
        let rl = one_list();
        for c in 0..4 {
            sim::switch(c);
            let t = rl.acquire(c, (c as u64) * 100, (c as u64) * 100 + 50);
            sim::charge(5_000);
            rl.release(c, t);
        }
        let st = g.finish();
        for c in 0..4 {
            assert_eq!(st.cores[c].lock_wait_ns, 0, "core {c} waited");
        }
    }

    #[test]
    fn sim_regions_in_different_shards_share_no_line() {
        let g = sim::install(2, CostModel::default());
        let rl = RangeLock::new(2, 18);
        // Two regions that hash to different shards, one per core.
        let r0 = 5;
        let r1 = (r0 + 1..)
            .find(|&r| rl.shard_of(r) != rl.shard_of(r0))
            .unwrap();
        let round = |c: usize, region: u64| {
            sim::switch(c);
            let lo = (region << 18) + 512;
            let t = rl.acquire(c, lo, lo + 512);
            sim::charge(1_000);
            rl.release(c, t);
        };
        for _ in 0..4 {
            round(0, r0);
            round(1, r1);
        }
        let warm = sim::stats();
        for _ in 0..100 {
            round(0, r0);
            round(1, r1);
        }
        let st = g.finish();
        for c in 0..2 {
            let (w, s) = (&warm.cores[c], &st.cores[c]);
            assert_eq!(
                s.remote_transfers, w.remote_transfers,
                "core {c} moved a line"
            );
            assert_eq!(s.lock_wait_ns, 0, "core {c} waited");
            assert_eq!(s.heap_allocs, w.heap_allocs, "core {c} allocated");
        }
    }

    #[test]
    fn sim_overlapping_acquires_serialize() {
        let g = sim::install(4, CostModel::default());
        let rl = one_list();
        for c in 0..4 {
            sim::switch(c);
            let t = rl.acquire(c, 40, 60);
            sim::charge(5_000);
            rl.release(c, t);
        }
        let st = g.finish();
        assert!(
            st.clocks[3] >= 20_000,
            "hold windows must serialize: clock {}",
            st.clocks[3]
        );
        assert!(st.cores[3].lock_wait_ns >= 14_000);
    }
}
