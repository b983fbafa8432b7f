//! Translation lookaside buffer.
//!
//! The paper's single biggest "omission" finding is the TLB: the R10000's
//! 64-entry TLB is small enough that tuned SPLASH-2 kernels whose working
//! sets fit the primary cache still thrash it, and a simulator that either
//! omits the TLB (Solo) or models its refill too cheaply (SimOS before
//! tuning: 25/35 cycles instead of the measured 65) misses a first-order
//! effect. This module models the reach structure; refill *cost* is owned
//! by the environment model in `flashsim-os`.
//!
//! The TLB sits on every load and store, and on a thrashing workload
//! nearly every one of them refills it, so both paths are kept short. The
//! page size is a power of two, held as a shift. A hit asks a last-hit
//! memo, then the `vpn -> slot` hash. A refill makes one hash probe that
//! finds the page or its place; only an eviction probes again, to drop
//! the victim's page. The victim itself comes from a scan of the dense
//! slots.

use flashsim_engine::ckpt::{bad, Ckpt, CkptError};
use flashsim_engine::fxhash::FxHashMap;
use flashsim_isa::VAddr;
use std::collections::hash_map::Entry;

/// A fully-associative, LRU-replacement TLB mapping virtual page numbers to
/// physical frame numbers.
#[derive(Debug, Clone)]
pub struct Tlb {
    entries: usize,
    /// log2 of the page size: the page number is a shift, never a
    /// division.
    page_shift: u32,
    // vpn -> index into `slots`. Point lookups only (never iterated), so
    // the fast fixed-seed hasher is behaviour-neutral.
    map: FxHashMap<u64, usize>,
    // Dense `(vpn, pfn, last_used)` entries: eviction scans this, not the
    // map. LRU ticks are strictly monotonic, so the scan has a unique
    // minimum and the victim never depends on slot order.
    slots: Vec<(u64, u64, u64)>,
    // The `(vpn, slot)` the last hit or insert resolved to: a repeat
    // lookup of the same page skips the hash probe. Whatever moves or
    // drops a slot (`insert`, `flush`, `ckpt`) re-aims or clears it.
    memo: Option<(u64, usize)>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates an empty TLB with `entries` slots over `page_bytes` pages.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or `page_bytes` is not a power of two.
    pub fn new(entries: usize, page_bytes: u64) -> Tlb {
        assert!(entries > 0, "TLB needs at least one entry");
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        Tlb {
            entries,
            page_shift: page_bytes.trailing_zeros(),
            map: FxHashMap::with_capacity_and_hasher(entries, Default::default()),
            slots: Vec::with_capacity(entries),
            memo: None,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        1 << self.page_shift
    }

    /// Looks up `vaddr`; on a hit returns the frame number and refreshes
    /// LRU, on a miss records the miss and returns `None` (the caller runs
    /// the refill handler and then calls [`insert`](Tlb::insert)).
    pub fn translate(&mut self, vaddr: VAddr) -> Option<u64> {
        self.tick += 1;
        let vpn = vaddr.vpn(self.page_shift);
        let slot = match self.memo {
            Some((last_vpn, slot)) if last_vpn == vpn => slot,
            _ => match self.map.get(&vpn) {
                Some(&slot) => {
                    self.memo = Some((vpn, slot));
                    slot
                }
                None => {
                    self.misses += 1;
                    return None;
                }
            },
        };
        let (_, pfn, last) = &mut self.slots[slot];
        *last = self.tick;
        self.hits += 1;
        Some(*pfn)
    }

    /// Installs a translation after a refill, evicting the LRU entry if
    /// full. Re-inserting an existing vpn updates its frame.
    ///
    /// One probe finds `vpn` or the place to insert it; only an eviction
    /// probes again, to drop the victim's page.
    pub fn insert(&mut self, vpn: u64, pfn: u64) {
        self.tick += 1;
        let entry = (vpn, pfn, self.tick);
        let slot = match self.map.entry(vpn) {
            Entry::Occupied(at) => *at.get(),
            Entry::Vacant(at) if self.slots.len() < self.entries => {
                self.slots.push(entry);
                *at.insert(self.slots.len() - 1)
            }
            Entry::Vacant(at) => {
                let (mut lru, mut oldest) = (0, u64::MAX);
                for (i, s) in self.slots.iter().enumerate() {
                    if s.2 < oldest {
                        (lru, oldest) = (i, s.2);
                    }
                }
                at.insert(lru);
                self.map.remove(&self.slots[lru].0);
                lru
            }
        };
        self.slots[slot] = entry;
        // The access that took the refill repeats on this page next.
        self.memo = Some((vpn, slot));
    }

    /// Drops every entry (context switch / flush).
    pub fn flush(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.memo = None;
    }

    /// Hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Walks the translation entries (sorted by virtual page, so the
    /// bytes never depend on which slot an entry landed in), the LRU
    /// clock, and the hit/miss counters in the current section. A restore
    /// fails closed on a different entry count or page size, a repeated
    /// page, or more entries than the TLB holds.
    pub fn ckpt(&mut self, c: &mut Ckpt<'_>) -> Result<(), CkptError> {
        c.interlock("shape", &[self.entries as u64, self.page_bytes()])?;
        c.u64("tick", &mut self.tick)?;
        c.u64("hits", &mut self.hits)?;
        c.u64("misses", &mut self.misses)?;
        let mut rows: Vec<[u64; 3]> = self.slots.iter().map(|&(v, p, t)| [v, p, t]).collect();
        rows.sort_unstable();
        c.list("mapped", &mut rows, |c, row| c.array("ent", row))?;
        if c.loading() {
            self.flush();
            for [vpn, pfn, last] in rows {
                // One slot per vpn and at most `entries` of them, or the
                // dense scan and the map would disagree about what is mapped.
                if self.slots.len() == self.entries
                    || self.map.insert(vpn, self.slots.len()).is_some()
                {
                    return Err(bad("ent", format!("{vpn},{pfn},{last}")));
                }
                self.slots.push((vpn, pfn, last));
            }
        }
        Ok(())
    }

    /// Miss ratio over all lookups, or 0 if none.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let mut t = Tlb::new(4, 4096);
        assert_eq!(t.translate(VAddr(0x1234)), None);
        t.insert(1, 99);
        assert_eq!(t.translate(VAddr(0x1234)), Some(99));
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 1);
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let mut t = Tlb::new(2, 4096);
        t.insert(1, 10);
        t.insert(2, 20);
        // Touch vpn 1 so vpn 2 is LRU.
        assert!(t.translate(VAddr(4096)).is_some());
        t.insert(3, 30);
        assert!(t.translate(VAddr(4096)).is_some()); // vpn 1 kept
        assert!(t.translate(VAddr(3 * 4096)).is_some()); // vpn 3 present
        assert_eq!(t.translate(VAddr(2 * 4096)), None); // vpn 2 evicted
    }

    #[test]
    fn reinsert_updates_not_evicts() {
        let mut t = Tlb::new(2, 4096);
        t.insert(1, 10);
        t.insert(2, 20);
        t.insert(1, 11); // update in place, no eviction
        assert_eq!(t.translate(VAddr(4096)), Some(11));
        assert_eq!(t.translate(VAddr(2 * 4096)), Some(20));
    }

    #[test]
    fn reach_and_flush() {
        let mut t = Tlb::new(64, 4096);
        t.insert(0, 0);
        t.flush();
        assert_eq!(t.translate(VAddr(0)), None);
    }

    #[test]
    fn sequential_walk_larger_than_reach_thrashes() {
        // The paper's FFT-transpose pathology in miniature: walk more pages
        // than the TLB holds, twice; the second pass misses on every page.
        let mut t = Tlb::new(8, 4096);
        for pass in 0..2 {
            for vpn in 0..16u64 {
                if t.translate(VAddr(vpn * 4096)).is_none() {
                    t.insert(vpn, vpn);
                }
            }
            if pass == 0 {
                assert_eq!(t.misses(), 16);
            }
        }
        assert_eq!(t.misses(), 32);
    }

    #[test]
    fn working_set_within_reach_stops_missing() {
        let mut t = Tlb::new(8, 4096);
        for _ in 0..4 {
            for vpn in 0..8u64 {
                if t.translate(VAddr(vpn * 4096)).is_none() {
                    t.insert(vpn, vpn);
                }
            }
        }
        assert_eq!(t.misses(), 8); // only cold misses
        assert!(t.miss_ratio() < 0.3);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_panics() {
        Tlb::new(0, 4096);
    }

    #[test]
    fn ckpt_roundtrip_preserves_lru_order() {
        let mut a = Tlb::new(2, 4096);
        a.insert(1, 10);
        a.insert(2, 20);
        a.translate(VAddr(4096)); // vpn 1 hot, vpn 2 LRU
        let mut w = Ckpt::save("tlb-test");
        a.ckpt(&mut w).unwrap();
        let text = w.finish().unwrap();

        let mut b = Tlb::new(2, 4096);
        let mut r = Ckpt::open(&text).expect("open");
        b.ckpt(&mut r).expect("load");
        r.finish().expect("fully consumed");
        for t in [&mut a, &mut b] {
            t.insert(3, 30); // must evict vpn 2, keep vpn 1
            assert_eq!(t.translate(VAddr(4096)), Some(10));
            assert_eq!(t.translate(VAddr(2 * 4096)), None);
        }
        assert_eq!(a.hits(), b.hits());
        assert_eq!(a.misses(), b.misses());

        let mut other = Tlb::new(4, 4096);
        let mut r = Ckpt::open(&text).expect("open");
        assert!(matches!(other.ckpt(&mut r), Err(CkptError::Parse { .. })));
    }

    #[test]
    fn ckpt_with_repeated_or_surplus_entries_is_rejected() {
        for ents in [
            vec![[1, 10, 1], [1, 11, 2]],
            vec![[1, 10, 1], [2, 20, 2], [3, 30, 3]],
        ] {
            let mut w = Ckpt::save("tlb-test");
            w.interlock("shape", &[2, 4096]).unwrap();
            for key in ["tick", "hits", "misses"] {
                w.u64(key, &mut 3).unwrap();
            }
            w.count("mapped", ents.len()).unwrap();
            for e in &ents {
                w.array("ent", &mut { *e }).unwrap();
            }
            let text = w.finish().unwrap();
            let mut r = Ckpt::open(&text).expect("open");
            assert!(matches!(
                Tlb::new(2, 4096).ckpt(&mut r),
                Err(CkptError::Parse { .. })
            ));
        }
    }

    #[test]
    fn eviction_order_matches_a_naive_lru_model() {
        // Seeded lookups (often repeating the last page, so the memo is
        // live), refills, and inserts of pages the TLB may already hold, at
        // several sizes, checked against a list kept in recency order:
        // every answer, the hit and miss counts, and exactly which page
        // each eviction drops.
        for entries in [1usize, 8, 16, 64] {
            let mut rng = flashsim_engine::Rng::seeded(0x71B ^ entries as u64);
            let mut t = Tlb::new(entries, 4096);
            let mut model: Vec<(u64, u64)> = Vec::new(); // LRU first
            let (mut hits, mut misses, mut reinserts, mut evictions) = (0, 0, 0, 0);
            let mut vpn = 0;
            for i in 0..20_000u64 {
                if rng.gen_range(3) == 0 {
                    vpn = rng.gen_range(3 * entries as u64);
                }
                let at = model.iter().position(|&(v, _)| v == vpn);
                let inserting = rng.gen_range(8) == 0;
                if !inserting {
                    let got = t.translate(VAddr(vpn * 4096 + rng.gen_range(4096)));
                    assert_eq!(got, at.map(|k| model[k].1), "{entries}: step {i}");
                    if let Some(k) = at {
                        hits += 1;
                        let e = model.remove(k);
                        model.push(e);
                        continue;
                    }
                    misses += 1;
                }
                // A refill, or an insert nobody asked for: it re-maps a
                // present page in place, or evicts the LRU page if full.
                t.insert(vpn, i);
                match at {
                    Some(k) => {
                        reinserts += 1;
                        model.remove(k);
                    }
                    None if model.len() == entries => {
                        evictions += 1;
                        let (gone, _) = model.remove(0);
                        assert!(!t.map.contains_key(&gone), "{entries}: kept {gone}");
                    }
                    None => {}
                }
                model.push((vpn, i));
                assert_eq!(t.map.len(), model.len());
                assert!(model.iter().all(|&(v, p)| t.slots[t.map[&v]].1 == p));
            }
            assert_eq!((t.hits(), t.misses()), (hits, misses), "{entries}");
            assert!(reinserts > 100 && evictions > 100, "{entries}");
        }
    }
}
