//! Property-style tests for the cache hierarchy and the TLB: inclusion,
//! coherence-state sanity, and no-panic under arbitrary interleavings of
//! accesses, fills, invalidations and downgrades; the TLB's last-hit memo
//! against an always-hashed model. Randomized cases come
//! from seeded loops over the in-tree [`flashsim_engine::Rng`] (this
//! workspace builds offline, so no external property-testing framework).

use flashsim_engine::ckpt::{Ckpt, CkptReader, CkptWriter};
use flashsim_engine::Rng;
use flashsim_isa::VAddr;
use flashsim_mem::addr::{LineAddr, PAddr};
use flashsim_mem::cache::{Cache, CacheGeometry, LineState, Probe};
use flashsim_mem::hier::{CacheHierarchy, HierProbe};
use flashsim_mem::tlb::Tlb;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Action {
    Access { addr: u64, write: bool },
    Invalidate { line: u64 },
    Downgrade { line: u64 },
}

fn random_action(rng: &mut Rng) -> Action {
    match rng.gen_range(10) {
        0..=7 => Action::Access {
            addr: rng.gen_range(0x4000) & !0x7,
            write: rng.gen_range(2) == 0,
        },
        8 => Action::Invalidate {
            line: rng.gen_range(0x4000) & !0x7F,
        },
        _ => Action::Downgrade {
            line: rng.gen_range(0x4000) & !0x7F,
        },
    }
}

fn small_hier() -> CacheHierarchy {
    CacheHierarchy::new(
        CacheGeometry::new(512, 32, 2),
        CacheGeometry::new(2048, 128, 2),
    )
}

/// Walks every L1 line and checks its L2 parent exists (inclusion) and is
/// at least as privileged (an L1-writable line needs a writable L2 line).
fn check_inclusion(h: &CacheHierarchy) {
    for l1_addr in (0u64..0x4000).step_by(32) {
        let l1_line = LineAddr(l1_addr);
        if let Some(l1_state) = h.l1().peek(l1_line) {
            let l2_line = h.l2_line(PAddr(l1_addr));
            let l2_state = h
                .l2()
                .peek(l2_line)
                .unwrap_or_else(|| panic!("inclusion violated at {l1_line}"));
            if l1_state.writable() {
                assert!(
                    l2_state.writable(),
                    "L1 {l1_line} writable but L2 {l2_line} is {l2_state:?}"
                );
            }
        }
    }
}

/// The hierarchy never panics and never violates inclusion, whatever the
/// interleaving of demand accesses and directory actions.
#[test]
fn inclusion_holds_under_arbitrary_traffic() {
    let mut rng = Rng::seeded(0x1c1d);
    for _ in 0..256 {
        let n = 1 + rng.gen_range(299);
        let mut h = small_hier();
        for _ in 0..n {
            match random_action(&mut rng) {
                Action::Access { addr, write } => {
                    let p = PAddr(addr);
                    match h.probe(p, write) {
                        HierProbe::L1Hit => {}
                        HierProbe::L2Hit => h.fill_l1_from_l2(p, write),
                        HierProbe::L2Upgrade => h.complete_upgrade(p),
                        HierProbe::L2Miss => {
                            // The directory grants exclusivity for writes.
                            let _ = h.fill_from_memory(p, write, write);
                        }
                    }
                    // After resolution the access must hit.
                    assert_eq!(h.probe(p, write), HierProbe::L1Hit);
                }
                Action::Invalidate { line } => {
                    h.invalidate_line(LineAddr(line));
                }
                Action::Downgrade { line } => {
                    h.downgrade_line(LineAddr(line));
                }
            }
            check_inclusion(&h);
        }
    }
}

/// A plain cache never reports more lines per set than its ways, and
/// hits+misses always equals the probe count.
#[test]
fn cache_accounting_is_exact() {
    let mut rng = Rng::seeded(0xacc7);
    for _ in 0..256 {
        let addrs: Vec<u64> = (0..1 + rng.gen_range(499))
            .map(|_| rng.gen_range(0x8000))
            .collect();
        let mut c = Cache::new(CacheGeometry::new(1024, 64, 2));
        let mut probes = 0u64;
        for a in &addrs {
            let line = c.line_of(PAddr(*a));
            probes += 1;
            if c.probe(line, false) == Probe::Miss {
                c.fill(line, LineState::Shared);
            }
        }
        assert_eq!(c.hits() + c.misses(), probes);
        // Re-probing everything immediately can at most miss on evicted
        // lines; counters keep adding up.
        for a in &addrs {
            let line = c.line_of(PAddr(*a));
            probes += 1;
            if c.probe(line, false) == Probe::Miss {
                c.fill(line, LineState::Shared);
            }
        }
        assert_eq!(c.hits() + c.misses(), probes);
    }
}

/// LRU within a working set no larger than a set's ways never misses
/// after the cold pass.
#[test]
fn small_working_set_never_misses_after_warmup() {
    let mut rng = Rng::seeded(0x1bu64);
    for _ in 0..256 {
        let start = rng.gen_range(0x1000);
        let mut c = Cache::new(CacheGeometry::new(1024, 64, 2));
        let base = start & !0x3F;
        // Two lines in the same set (stride = sets * line = 8 * 64).
        let lines = [LineAddr(base), LineAddr(base + 512)];
        for line in lines {
            if c.probe(line, false) == Probe::Miss {
                c.fill(line, LineState::Shared);
            }
        }
        for _ in 0..20 {
            for line in lines {
                assert_ne!(c.probe(line, false), Probe::Miss);
            }
        }
    }
}

/// The TLB as it was before the last-hit memo: every lookup probes the
/// `vpn -> slot` map. Same slots, same LRU clock, same checkpoint rows.
struct HashedTlb {
    entries: usize,
    page_bytes: u64,
    map: HashMap<u64, usize>,
    slots: Vec<(u64, u64, u64)>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl HashedTlb {
    fn new(entries: usize, page_bytes: u64) -> HashedTlb {
        HashedTlb {
            entries,
            page_bytes,
            map: HashMap::new(),
            slots: Vec::new(),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn translate(&mut self, vaddr: VAddr) -> Option<u64> {
        self.tick += 1;
        match self.map.get(&vaddr.vpn(self.page_bytes)) {
            Some(&slot) => {
                self.slots[slot].2 = self.tick;
                self.hits += 1;
                Some(self.slots[slot].1)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, vpn: u64, pfn: u64) {
        self.tick += 1;
        let entry = (vpn, pfn, self.tick);
        if let Some(&slot) = self.map.get(&vpn) {
            self.slots[slot] = entry;
        } else if self.slots.len() < self.entries {
            self.map.insert(vpn, self.slots.len());
            self.slots.push(entry);
        } else {
            let lru = (0..self.slots.len())
                .min_by_key(|&i| self.slots[i].2)
                .expect("full TLB has slots");
            self.map.remove(&self.slots[lru].0);
            self.map.insert(vpn, lru);
            self.slots[lru] = entry;
        }
    }

    fn flush(&mut self) {
        self.map.clear();
        self.slots.clear();
    }

    fn ckpt(&self) -> String {
        let mut w = CkptWriter::new("tlb-props");
        w.u64s("shape", &[self.entries as u64, self.page_bytes]);
        w.u64("tick", self.tick);
        w.u64("hits", self.hits);
        w.u64("misses", self.misses);
        let mut entries = self.slots.clone();
        entries.sort_unstable();
        w.u64("mapped", entries.len() as u64);
        for (vpn, pfn, last) in entries {
            w.u64s("ent", &[vpn, pfn, last]);
        }
        w.finish()
    }
}

fn tlb_ckpt(tlb: &Tlb) -> String {
    let mut w = CkptWriter::new("tlb-props");
    tlb.clone().ckpt(&mut Ckpt::Save(&mut w)).unwrap();
    w.finish()
}

/// The memo is invisible: under random lookups (with runs on one page, so
/// the memo is live across inserts, evictions of the memoised slot,
/// flushes and checkpoint restores) the TLB returns what the always-hashed
/// one returns, counts the same hits and misses, and checkpoints to the
/// same bytes after every step.
#[test]
fn tlb_memo_is_invisible_against_an_always_hashed_model() {
    const PAGE: u64 = 4096;
    for seed in 0..16u64 {
        let mut rng = Rng::seeded(0x71b0 ^ seed);
        let entries = 1 + rng.gen_range(8) as usize;
        let mut tlb = Tlb::new(entries, PAGE);
        let mut model = HashedTlb::new(entries, PAGE);
        let mut vpn = 0;
        let mut memo_hits = 0;
        for step in 0..3000u64 {
            // Stay on the last page two times in three.
            let repeat = rng.gen_range(3) != 0;
            if !repeat {
                vpn = rng.gen_range(3 * entries as u64);
            }
            match rng.gen_range(16) {
                0..=10 => {
                    let vaddr = VAddr(vpn * PAGE + rng.gen_range(PAGE));
                    let got = tlb.translate(vaddr);
                    assert_eq!(got, model.translate(vaddr), "seed {seed} step {step}");
                    match got {
                        Some(_) => memo_hits += u64::from(repeat),
                        None => {
                            tlb.insert(vpn, step);
                            model.insert(vpn, step);
                        }
                    }
                }
                // An insert the lookups did not ask for: re-maps a page
                // or evicts the LRU slot, which may be the memoised one.
                11..=13 => {
                    let other = rng.gen_range(3 * entries as u64);
                    tlb.insert(other, step ^ 0x5555);
                    model.insert(other, step ^ 0x5555);
                }
                14 => {
                    tlb.flush();
                    model.flush();
                }
                // Restore over the live TLB: the rows come back sorted by
                // page, so slots move under whatever the memo held.
                _ => {
                    let text = tlb_ckpt(&tlb);
                    let mut r = CkptReader::open(&text).expect("open");
                    tlb.ckpt(&mut Ckpt::Load(&mut r)).expect("load");
                    r.finish().expect("fully consumed");
                }
            }
            assert_eq!(
                (tlb.hits(), tlb.misses()),
                (model.hits, model.misses),
                "seed {seed} step {step}"
            );
            assert_eq!(tlb_ckpt(&tlb), model.ckpt(), "seed {seed} step {step}");
        }
        assert!(memo_hits > 500, "seed {seed}: only {memo_hits} repeat hits");
    }
}
