//! Per-core software TLBs.
//!
//! Each core owns a direct-mapped translation cache tagged by (ASID, VPN).
//! Entries record the frame generation observed at fill time, so an access
//! through an entry that survived a missing shootdown — the bug class TLB
//! shootdown exists to prevent — is *detected* rather than silently
//! corrupting reused memory (see `rvm_mem`'s generation tags).

use rvm_mem::Pfn;

use crate::pagetable::RUNGS;
use crate::{Asid, Vpn};

/// One TLB entry.
///
/// `span` is the number of pages the entry translates: 1 for ordinary
/// fills, a [`Rung`](crate::pagetable::Rung)'s `pages` for superpage
/// fills (whose `vpn` is the span's base and `pfn` the base of the
/// contiguous frame block). A lookup inside the span resolves to `pfn +
/// (vpn - entry.vpn)`.
#[derive(Clone, Copy, Debug)]
pub struct TlbEntry {
    /// Address-space identifier.
    pub asid: Asid,
    /// Virtual page number (full tag; block base for span entries).
    pub vpn: Vpn,
    /// Cached translation target (block base for span entries).
    pub pfn: Pfn,
    /// Frame generation at fill time (the base frame's, for spans; block
    /// frames only ever free as a unit, so the base is a faithful proxy).
    pub gen: u64,
    /// Pages translated (1, or one rung's `pages`).
    pub span: u64,
    /// Write permission.
    pub writable: bool,
    /// Entry validity.
    pub valid: bool,
}

impl TlbEntry {
    /// True when this entry translates `(asid, vpn)`.
    #[inline]
    fn covers(&self, asid: Asid, vpn: Vpn) -> bool {
        self.valid && self.asid == asid && vpn >= self.vpn && vpn < self.vpn + self.span
    }

    /// True when this entry overlaps `[start, start + n)` of `asid`.
    #[inline]
    fn overlaps(&self, asid: Asid, start: Vpn, n: u64) -> bool {
        self.valid && self.asid == asid && self.vpn < start + n && self.vpn + self.span > start
    }
}

const INVALID: TlbEntry = TlbEntry {
    asid: 0,
    vpn: 0,
    pfn: 0,
    gen: 0,
    span: 1,
    writable: false,
    valid: false,
};

/// A direct-mapped software TLB.
pub struct Tlb {
    entries: Box<[TlbEntry]>,
    mask: usize,
}

impl Tlb {
    /// Creates a TLB with `entries` slots (power of two).
    pub fn new(entries: usize) -> Tlb {
        assert!(entries.is_power_of_two());
        Tlb {
            entries: vec![INVALID; entries].into_boxed_slice(),
            mask: entries - 1,
        }
    }

    #[inline]
    fn slot(&self, vpn: Vpn) -> usize {
        (vpn as usize) & self.mask
    }

    /// The slots an entry translating `vpn` can sit in: the page's own
    /// (4 KiB entries), then each rung's covering base, smallest rung
    /// first (span entries index by their base), skipping a base equal to
    /// the one probed before it — the software analogue of hardware's
    /// split 4K/2M/1G TLB probe.
    #[inline]
    fn probe_slots(&self, vpn: Vpn) -> impl Iterator<Item = usize> + '_ {
        let mut prev = None;
        std::iter::once(1)
            .chain(RUNGS.iter().map(|r| r.pages()))
            .filter_map(move |pages| {
                let base = vpn & !(pages - 1);
                let fresh = prev != Some(base);
                prev = Some(base);
                fresh.then(|| self.slot(base))
            })
    }

    /// Looks up a translation, probing `Tlb::probe_slots` in order.
    #[inline]
    pub fn lookup(&self, asid: Asid, vpn: Vpn) -> Option<TlbEntry> {
        self.probe_slots(vpn)
            .map(|i| self.entries[i])
            .find(|e| e.covers(asid, vpn))
    }

    /// Fills (or replaces) the entry for `vpn` (span entries index by
    /// their block base).
    #[inline]
    pub fn insert(&mut self, entry: TlbEntry) {
        debug_assert!(entry.span == 1 || entry.vpn.is_multiple_of(entry.span));
        let idx = self.slot(entry.vpn);
        self.entries[idx] = TlbEntry {
            valid: true,
            ..entry
        };
    }

    /// Invalidates any entry translating `(asid, vpn)` — a 4 KiB entry
    /// or a span entry covering the page.
    pub fn invalidate_page(&mut self, asid: Asid, vpn: Vpn) {
        let hit = self
            .probe_slots(vpn)
            .find(|&i| self.entries[i].covers(asid, vpn));
        if let Some(i) = hit {
            self.entries[i].valid = false;
        }
    }

    /// Invalidates every entry overlapping `[start, start + n)` of an
    /// address space, span entries included.
    pub fn invalidate_range(&mut self, asid: Asid, start: Vpn, n: u64) {
        if n as usize >= self.entries.len() {
            // Cheaper to scan the whole TLB, like a full flush would be.
            for e in self.entries.iter_mut() {
                if e.overlaps(asid, start, n) {
                    e.valid = false;
                }
            }
            return;
        }
        // Span entries overlapping the range sit at their rung bases,
        // which may precede `start`: probe each candidate of each rung.
        for rung in RUNGS {
            let mut base = start & !(rung.pages() - 1);
            while base < start + n {
                let e = &mut self.entries[self.slot(base)];
                if e.span > 1 && e.overlaps(asid, start, n) {
                    e.valid = false;
                }
                base += rung.pages();
            }
        }
        for vpn in start..start + n {
            let e = &mut self.entries[self.slot(vpn)];
            if e.span == 1 && e.covers(asid, vpn) {
                e.valid = false;
            }
        }
    }

    /// Invalidates every entry of an address space.
    pub fn invalidate_asid(&mut self, asid: Asid) {
        for e in self.entries.iter_mut() {
            if e.valid && e.asid == asid {
                e.valid = false;
            }
        }
    }

    /// Invalidates everything.
    pub fn flush(&mut self) {
        self.entries.fill(INVALID);
    }

    /// Number of currently valid entries (diagnostics).
    pub fn valid_count(&self) -> usize {
        self.entries.iter().filter(|e| e.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagetable::Rung;

    fn entry(asid: Asid, vpn: Vpn, pfn: Pfn) -> TlbEntry {
        TlbEntry {
            asid,
            vpn,
            pfn,
            gen: 1,
            span: 1,
            writable: true,
            valid: true,
        }
    }

    fn span_entry(asid: Asid, base: Vpn, pfn: Pfn, rung: Rung) -> TlbEntry {
        TlbEntry {
            span: rung.pages(),
            ..entry(asid, base, pfn)
        }
    }

    #[test]
    fn fill_and_lookup() {
        let mut t = Tlb::new(64);
        assert!(t.lookup(1, 100).is_none());
        t.insert(entry(1, 100, 7));
        let e = t.lookup(1, 100).unwrap();
        assert_eq!(e.pfn, 7);
        // Different ASID misses.
        assert!(t.lookup(2, 100).is_none());
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut t = Tlb::new(64);
        t.insert(entry(1, 5, 1));
        t.insert(entry(1, 5 + 64, 2)); // same slot
        assert!(t.lookup(1, 5).is_none());
        assert_eq!(t.lookup(1, 5 + 64).unwrap().pfn, 2);
    }

    #[test]
    fn invalidate_page_and_range() {
        let mut t = Tlb::new(64);
        for vpn in 0..10 {
            t.insert(entry(1, vpn, vpn as Pfn));
        }
        t.invalidate_page(1, 3);
        assert!(t.lookup(1, 3).is_none());
        t.invalidate_range(1, 0, 5);
        assert!(t.lookup(1, 4).is_none());
        assert!(t.lookup(1, 7).is_some());
        // Large ranges fall back to the scan path.
        t.invalidate_range(1, 0, 1 << 20);
        assert_eq!(t.valid_count(), 0);
    }

    #[test]
    fn span_entry_covers_whole_block() {
        for rung in RUNGS {
            let mut t = Tlb::new(64);
            let base = rung.pages() * 3;
            t.insert(span_entry(1, base, 5000, rung));
            // Any page of the span hits, through a base-slot probe.
            for off in [0u64, 1, 63, 64, 100, 511, rung.pages() - 1] {
                let e = t
                    .lookup(1, base + off)
                    .unwrap_or_else(|| panic!("off {off}"));
                assert_eq!(e.pfn + (base + off - e.vpn) as Pfn, 5000 + off as Pfn);
            }
            assert!(t.lookup(1, base - 1).is_none());
            assert!(t.lookup(1, base + rung.pages()).is_none());
            assert!(t.lookup(2, base + 4).is_none(), "other asid");
            // A 4 KiB entry in a conflicting slot coexists until evicted.
            t.insert(entry(1, base + 7, 9));
            assert_eq!(t.lookup(1, base + 7).unwrap().pfn, 9);
            assert!(t.lookup(1, base + 8).is_some(), "span survives");
        }
    }

    #[test]
    fn invalidate_range_kills_overlapping_span() {
        for rung in RUNGS {
            let mut t = Tlb::new(64);
            let base = rung.pages() * 2;
            t.insert(span_entry(1, base, 1000, rung));
            // Range strictly inside the span, not touching the base page.
            t.invalidate_range(1, base + 100, 4);
            assert!(t.lookup(1, base).is_none(), "span must die on overlap");
            // Disjoint range leaves a fresh span alone.
            t.insert(span_entry(1, base, 1000, rung));
            t.invalidate_range(1, base + rung.pages(), 16);
            assert!(t.lookup(1, base + 5).is_some());
            // invalidate_page inside the span kills it too.
            t.invalidate_page(1, base + 300);
            assert!(t.lookup(1, base + 5).is_none());
        }
    }

    #[test]
    fn invalidate_asid_spares_others() {
        let mut t = Tlb::new(64);
        t.insert(entry(1, 1, 1));
        t.insert(entry(2, 2, 2));
        t.invalidate_asid(1);
        assert!(t.lookup(1, 1).is_none());
        assert!(t.lookup(2, 2).is_some());
        t.flush();
        assert!(t.lookup(2, 2).is_none());
    }
}
