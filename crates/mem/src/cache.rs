//! Set-associative caches with MESI-style line states.
//!
//! One [`Cache`] type models both R10000 levels: the 32 KB on-chip primary
//! data cache and the 2 MB off-chip secondary cache (sizes, line sizes, and
//! associativity are all parameters; the validation experiments also run
//! proportionally scaled geometries). Caches are **physically indexed**,
//! which is what makes operating-system page placement — and hence the
//! paper's page-colouring findings — matter at all.
//!
//! The cache is a *state* model only; timing lives in the processor and
//! memory-system models that drive it.

use crate::addr::{LineAddr, PAddr};
use core::fmt;
use flashsim_engine::ckpt::{bad, Ckpt, CkptError};

/// Coherence state of a cached line (MESI without a distinct Owned state,
/// matching FLASH's dirty-exclusive protocol).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineState {
    /// Clean, possibly shared with other caches.
    Shared,
    /// Clean, guaranteed the only cached copy; a write upgrades silently.
    Exclusive,
    /// Dirty, the only cached copy.
    Modified,
}

impl LineState {
    /// True if a local write requires no directory traffic.
    pub const fn writable(self) -> bool {
        matches!(self, LineState::Exclusive | LineState::Modified)
    }

    /// True if the memory copy is stale.
    pub const fn is_dirty(self) -> bool {
        matches!(self, LineState::Modified)
    }
}

/// Geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Associativity.
    pub ways: u32,
}

impl CacheGeometry {
    /// Creates and validates a geometry.
    ///
    /// # Panics
    ///
    /// Panics if any field is zero, not a power of two where required, or
    /// if `bytes` is not divisible by `line_bytes * ways`.
    pub fn new(bytes: u64, line_bytes: u64, ways: u32) -> CacheGeometry {
        assert!(bytes > 0 && line_bytes > 0 && ways > 0, "zero geometry");
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            bytes.is_multiple_of(line_bytes * u64::from(ways)),
            "capacity must be a whole number of sets"
        );
        let sets = bytes / (line_bytes * u64::from(ways));
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        CacheGeometry {
            bytes,
            line_bytes,
            ways,
        }
    }

    /// Number of sets.
    pub const fn sets(self) -> u64 {
        self.bytes / (self.line_bytes * self.ways as u64)
    }
}

#[derive(Debug, Clone, Copy)]
struct Way {
    line: LineAddr,
    state: LineState,
    last_used: u64,
    valid: bool,
}

impl Way {
    /// An invalid slot: what a new cache and a restore start from.
    const EMPTY: Way = Way {
        line: LineAddr(0),
        state: LineState::Shared,
        last_used: 0,
        valid: false,
    };
}

/// What happened on a cache probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// The line was present with the given state (already promoted to
    /// Modified if the probe was a write and the line was writable).
    Hit(LineState),
    /// The line was present but a write found it Shared: the directory must
    /// grant ownership before the write can complete.
    UpgradeNeeded,
    /// The line was absent.
    Miss,
}

/// A dirty line displaced by a fill, which the owner must write back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// The displaced line.
    pub line: LineAddr,
    /// True if it was Modified and needs a writeback to memory.
    pub dirty: bool,
}

/// A physically-indexed set-associative write-back cache.
///
/// Storage is one flat `Vec<Way>` of `sets × ways` slots (invalid slots
/// are pre-filled), not a `Vec` per set: probes and fills are the hottest
/// operations in the whole simulator, and the flat layout avoids a second
/// pointer chase plus thousands of tiny allocations per cache. Set
/// indexing uses precomputed shift/mask instead of division.
#[derive(Debug, Clone)]
pub struct Cache {
    geom: CacheGeometry,
    ways: Vec<Way>,
    /// `line.get() >> line_shift` = line number; `& set_mask` = set index.
    line_shift: u32,
    set_mask: u64,
    tick: u64,
    hits: u64,
    misses: u64,
    upgrades: u64,
    evictions: u64,
    dirty_evictions: u64,
    invalidations_received: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(geom: CacheGeometry) -> Cache {
        assert!(
            geom.line_bytes.is_power_of_two() && geom.sets().is_power_of_two(),
            "cache geometry must have power-of-two line size and set count"
        );
        let slots = (geom.sets() * u64::from(geom.ways)) as usize;
        Cache {
            geom,
            ways: vec![Way::EMPTY; slots],
            line_shift: geom.line_bytes.trailing_zeros(),
            set_mask: geom.sets() - 1,
            tick: 0,
            hits: 0,
            misses: 0,
            upgrades: 0,
            evictions: 0,
            dirty_evictions: 0,
            invalidations_received: 0,
        }
    }

    /// The slot range of the set holding `line`.
    #[inline]
    fn set_slots(&self, line: LineAddr) -> std::ops::Range<usize> {
        let set = ((line.get() >> self.line_shift) & self.set_mask) as usize;
        let ways = self.geom.ways as usize;
        let base = set * ways;
        base..base + ways
    }

    /// The cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// The line address containing `paddr` for this cache's line size.
    pub fn line_of(&self, paddr: PAddr) -> LineAddr {
        paddr.line(self.geom.line_bytes)
    }

    /// Probes for `line`, updating LRU and hit/miss statistics.
    ///
    /// On a write hit to a writable line the state is promoted to
    /// [`LineState::Modified`]. A write hit to a Shared line reports
    /// [`Probe::UpgradeNeeded`] and leaves the state unchanged (the caller
    /// performs the directory upgrade, then calls
    /// [`grant_ownership`](Cache::grant_ownership)).
    pub fn probe(&mut self, line: LineAddr, write: bool) -> Probe {
        self.tick = self.tick.saturating_add(1);
        let tick = self.tick;
        let slots = self.set_slots(line);
        let set = &mut self.ways[slots];
        for way in set.iter_mut() {
            if way.valid && way.line == line {
                way.last_used = tick;
                return if write {
                    if way.state.writable() {
                        way.state = LineState::Modified;
                        self.hits += 1;
                        Probe::Hit(LineState::Modified)
                    } else {
                        self.upgrades += 1;
                        Probe::UpgradeNeeded
                    }
                } else {
                    self.hits += 1;
                    Probe::Hit(way.state)
                };
            }
        }
        self.misses += 1;
        Probe::Miss
    }

    /// Probes without updating LRU or statistics.
    pub fn peek(&self, line: LineAddr) -> Option<LineState> {
        let set = &self.ways[self.set_slots(line)];
        set.iter()
            .find(|w| w.valid && w.line == line)
            .map(|w| w.state)
    }

    /// Inserts `line` with `state`, evicting the LRU way if the set is
    /// full. Returns the victim, if any.
    ///
    /// # Panics
    ///
    /// Panics if the line is already present (fills must follow misses).
    pub fn fill(&mut self, line: LineAddr, state: LineState) -> Option<Victim> {
        self.tick = self.tick.saturating_add(1);
        let tick = self.tick;
        let slots = self.set_slots(line);
        let set = &mut self.ways[slots];
        assert!(
            !set.iter().any(|w| w.valid && w.line == line),
            "fill of already-present line {line}"
        );
        let new_way = Way {
            line,
            state,
            last_used: tick,
            valid: true,
        };
        if let Some(slot) = set.iter_mut().find(|w| !w.valid) {
            *slot = new_way;
            return None;
        }
        let (idx, _) = set
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| w.last_used)
            .expect("full set is non-empty"); // gate: allow
        let old = set[idx];
        set[idx] = new_way;
        self.evictions += 1;
        let dirty = old.state.is_dirty();
        if dirty {
            self.dirty_evictions += 1;
        }
        Some(Victim {
            line: old.line,
            dirty,
        })
    }

    /// Promotes a present line to Modified after a directory upgrade.
    ///
    /// # Panics
    ///
    /// Panics if the line is not present.
    pub fn grant_ownership(&mut self, line: LineAddr) {
        let slots = self.set_slots(line);
        let way = self.ways[slots]
            .iter_mut()
            .find(|w| w.valid && w.line == line)
            .expect("ownership grant for absent line"); // gate: allow — documented panic contract
        way.state = LineState::Modified;
    }

    /// Removes `line` (directory-initiated invalidation or inclusion
    /// enforcement). Returns the state it had, or `None` if absent — absent
    /// is normal, since caches may have silently evicted a Shared line the
    /// directory still lists.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<LineState> {
        let slots = self.set_slots(line);
        for way in self.ways[slots].iter_mut() {
            if way.valid && way.line == line {
                way.valid = false;
                self.invalidations_received += 1;
                return Some(way.state);
            }
        }
        None
    }

    /// Demotes `line` to Shared (directory-initiated intervention on a
    /// dirty line). Returns the state it had, or `None` if absent.
    pub fn downgrade(&mut self, line: LineAddr) -> Option<LineState> {
        let slots = self.set_slots(line);
        for way in self.ways[slots].iter_mut() {
            if way.valid && way.line == line {
                let was = way.state;
                way.state = LineState::Shared;
                return Some(was);
            }
        }
        None
    }

    /// Hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count (upgrade probes count as neither hit nor miss).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Write probes that found a Shared line.
    pub fn upgrades(&self) -> u64 {
        self.upgrades
    }

    /// Capacity/conflict evictions performed by fills.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Evictions of Modified lines.
    pub fn dirty_evictions(&self) -> u64 {
        self.dirty_evictions
    }

    /// Directory-initiated invalidations that found the line present.
    pub fn invalidations_received(&self) -> u64 {
        self.invalidations_received
    }

    /// Walks the cache contents and counters in the current checkpoint
    /// section. Only valid ways are written: probe, fill, and eviction
    /// never read an invalid slot's payload, so restoring invalid slots
    /// to the canonical empty way is behaviourally exact while keeping
    /// checkpoints proportional to cache *occupancy*. A restore fails
    /// closed on another geometry, and on a way that does not hold an
    /// aligned line of its own set.
    pub fn ckpt(&mut self, c: &mut Ckpt<'_>) -> Result<(), CkptError> {
        let g = self.geom;
        c.interlock("geom", &[g.bytes, g.line_bytes, u64::from(g.ways)])?;
        c.u64("tick", &mut self.tick)?;
        c.u64("hits", &mut self.hits)?;
        c.u64("misses", &mut self.misses)?;
        c.u64("upgrades", &mut self.upgrades)?;
        c.u64("evictions", &mut self.evictions)?;
        c.u64("dirty_evictions", &mut self.dirty_evictions)?;
        c.u64("invalidations_received", &mut self.invalidations_received)?;
        let valid = self.ways.iter().enumerate().filter(|(_, way)| way.valid);
        let mut rows: Vec<[u64; 4]> = valid
            .map(|(slot, w)| [slot as u64, w.line.get(), w.state as u64, w.last_used])
            .collect();
        c.list("valid", &mut rows, |c, row| c.array("way", row))?;
        if c.loading() {
            self.ways.fill(Way::EMPTY);
            for [slot, line, state, last_used] in rows {
                let bad_row = || bad("way", format!("{slot},{line},{state},{last_used}"));
                let state = match state {
                    0 => LineState::Shared,
                    1 => LineState::Exclusive,
                    2 => LineState::Modified,
                    _ => return Err(bad_row()),
                };
                // A way holds an aligned line of its own set: a probe never
                // finds any other row, and evicting it would hand the
                // protocol a line it has no header for.
                let line = LineAddr(line);
                let aligned = line.get().is_multiple_of(g.line_bytes);
                if !aligned || !self.set_slots(line).contains(&(slot as usize)) {
                    return Err(bad_row());
                }
                self.ways[slot as usize] = Way {
                    line,
                    state,
                    last_used,
                    valid: true,
                };
            }
        }
        Ok(())
    }

    /// The lines the cache holds, in slot order.
    pub(crate) fn lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.ways.iter().filter(|w| w.valid).map(|w| w.line)
    }

    /// Miss ratio over all probes, or 0 if no probes.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

impl fmt::Display for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}KB/{}B/{}-way: {} hits, {} misses ({:.2}% miss)",
            self.geom.bytes / 1024,
            self.geom.line_bytes,
            self.geom.ways,
            self.hits,
            self.misses,
            self.miss_ratio() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashsim_engine::ckpt::{CkptReader, CkptWriter};

    fn small() -> Cache {
        // 4 sets x 2 ways x 64B = 512B
        Cache::new(CacheGeometry::new(512, 64, 2))
    }

    #[test]
    fn geometry_math() {
        let g = CacheGeometry::new(32 * 1024, 32, 2);
        assert_eq!(g.sets(), 512);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn geometry_rejects_odd_line() {
        CacheGeometry::new(512, 48, 2);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        let line = LineAddr(0x1000);
        assert_eq!(c.probe(line, false), Probe::Miss);
        assert_eq!(c.fill(line, LineState::Shared), None);
        assert_eq!(c.probe(line, false), Probe::Hit(LineState::Shared));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn write_hit_promotes_exclusive_to_modified() {
        let mut c = small();
        let line = LineAddr(0);
        c.fill(line, LineState::Exclusive);
        assert_eq!(c.probe(line, true), Probe::Hit(LineState::Modified));
        assert_eq!(c.peek(line), Some(LineState::Modified));
    }

    #[test]
    fn write_to_shared_needs_upgrade() {
        let mut c = small();
        let line = LineAddr(0);
        c.fill(line, LineState::Shared);
        assert_eq!(c.probe(line, true), Probe::UpgradeNeeded);
        assert_eq!(c.upgrades(), 1);
        c.grant_ownership(line);
        assert_eq!(c.probe(line, true), Probe::Hit(LineState::Modified));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Three lines mapping to set 0 (stride = sets*line = 4*64 = 256).
        let a = LineAddr(0);
        let b = LineAddr(256);
        let d = LineAddr(512);
        c.fill(a, LineState::Shared);
        c.fill(b, LineState::Shared);
        // Touch a so b is LRU.
        c.probe(a, false);
        let victim = c.fill(d, LineState::Shared).unwrap();
        assert_eq!(victim.line, b);
        assert!(!victim.dirty);
        assert_eq!(c.peek(a), Some(LineState::Shared));
        assert_eq!(c.peek(b), None);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        c.fill(LineAddr(0), LineState::Modified);
        c.fill(LineAddr(256), LineState::Shared);
        let victim = c.fill(LineAddr(512), LineState::Shared).unwrap();
        // LRU is the Modified line (filled first, never touched again).
        assert!(victim.dirty);
        assert_eq!(c.dirty_evictions(), 1);
    }

    #[test]
    fn invalidate_and_downgrade() {
        let mut c = small();
        let line = LineAddr(64);
        c.fill(line, LineState::Modified);
        assert_eq!(c.downgrade(line), Some(LineState::Modified));
        assert_eq!(c.peek(line), Some(LineState::Shared));
        assert_eq!(c.downgrade(line), Some(LineState::Shared)); // already clean
        assert_eq!(c.invalidate(line), Some(LineState::Shared));
        assert_eq!(c.peek(line), None);
        assert_eq!(c.invalidate(line), None); // absent is fine
        assert_eq!(c.downgrade(line), None);
        assert_eq!(c.invalidations_received(), 1);
    }

    #[test]
    #[should_panic(expected = "already-present")]
    fn double_fill_panics() {
        let mut c = small();
        c.fill(LineAddr(0), LineState::Shared);
        c.fill(LineAddr(0), LineState::Shared);
    }

    #[test]
    fn conflict_misses_in_direct_mapped() {
        // Direct-mapped: two lines in the same set always conflict.
        let mut c = Cache::new(CacheGeometry::new(256, 64, 1));
        let a = LineAddr(0);
        let b = LineAddr(256); // same set (4 sets * 64B)
        c.fill(a, LineState::Shared);
        let v = c.fill(b, LineState::Shared).unwrap();
        assert_eq!(v.line, a);
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn ckpt_roundtrip_preserves_contents_lru_and_counters() {
        let mut a = small();
        a.probe(LineAddr(0), false);
        a.fill(LineAddr(0), LineState::Modified);
        a.probe(LineAddr(256), true);
        a.fill(LineAddr(256), LineState::Shared);
        a.probe(LineAddr(0), false); // 256 is now LRU in set 0
        a.invalidate(LineAddr(0x9999)); // absent, no count

        let mut w = CkptWriter::new("cache-test");
        a.ckpt(&mut Ckpt::Save(&mut w)).unwrap();
        let text = w.finish();
        let mut b = small();
        let mut r = CkptReader::open(&text).expect("open");
        b.ckpt(&mut Ckpt::Load(&mut r)).expect("load");
        r.finish().expect("fully consumed");

        // Same future behaviour: the restored LRU picks the same victim.
        for c in [&mut a, &mut b] {
            let v = c.fill(LineAddr(512), LineState::Exclusive).expect("evicts");
            assert_eq!(v.line, LineAddr(256));
        }
        assert_eq!(a.hits(), b.hits());
        assert_eq!(a.misses(), b.misses());
        assert_eq!(a.upgrades(), b.upgrades());
        assert_eq!(a.evictions(), b.evictions());
        assert_eq!(a.peek(LineAddr(0)), b.peek(LineAddr(0)));

        // A cache of a different geometry refuses the checkpoint.
        let mut other = Cache::new(CacheGeometry::new(1024, 64, 2));
        let mut r = CkptReader::open(&text).expect("open");
        assert!(matches!(
            other.ckpt(&mut Ckpt::Load(&mut r)),
            Err(CkptError::Parse { .. })
        ));
    }

    #[test]
    fn a_way_holding_no_aligned_line_of_its_set_is_rejected() {
        // Slot 0 is in set 0 (4 sets x 2 ways x 64 B). Restored unchecked,
        // such a way broke inclusion on the next write hit, or handed the
        // protocol a line of no directory when evicted.
        for line in [64, 8] {
            let mut a = small();
            a.fill(LineAddr(0), LineState::Shared);
            a.ways[0].line = LineAddr(line);
            let mut w = CkptWriter::new("cache-test");
            a.ckpt(&mut Ckpt::Save(&mut w)).unwrap();
            let text = w.finish();
            let mut r = CkptReader::open(&text).expect("open");
            let err = small()
                .ckpt(&mut Ckpt::Load(&mut r))
                .expect_err("off its set");
            assert_eq!(err, bad("way", format!("0,{line},0,1")));
        }
    }

    #[test]
    fn miss_ratio_calculation() {
        let mut c = small();
        c.probe(LineAddr(0), false);
        c.fill(LineAddr(0), LineState::Shared);
        c.probe(LineAddr(0), false);
        c.probe(LineAddr(0), false);
        assert!((c.miss_ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert!(format!("{c}").contains("miss"));
    }
}
