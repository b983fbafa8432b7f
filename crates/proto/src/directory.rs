//! The FLASH directory: dynamic pointer allocation.
//!
//! FLASH's cache-coherence protocol (run in software on MAGIC's protocol
//! processor) keeps, per memory line, a *directory header* holding the line
//! state and the first sharer inline, with further sharers chained through
//! a per-node *pointer/link store* — Heinrich's "dynamic pointer
//! allocation" scheme (Table 1 of the paper). This module implements that
//! structure and its state machine exactly at transaction granularity:
//! reads, read-exclusives, upgrades, and writebacks, including pointer-pool
//! exhaustion (which reclaims a pointer by invalidating an existing
//! sharer, as the real protocol does).
//!
//! Timing is *not* here — FlashLite and NUMA price these transitions
//! differently; both call into the same directory so their protocol
//! behaviour is identical, mirroring the paper's "the same protocol is
//! used in FlashLite and on the real hardware".

use flashsim_engine::ckpt::{CkptError, CkptReader, CkptWriter};
use flashsim_engine::fxhash::FxHashMap;
use flashsim_mem::addr::LineAddr;
use flashsim_mem::system::NodeId;

/// Directory-visible state of a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DirState {
    /// Cached (possibly) by a set of sharers, memory current.
    Shared,
    /// Owned by one node (Exclusive or Modified there); memory may be stale.
    Owned,
}

/// A directory header: state + inline first sharer + chained extras.
#[derive(Debug, Clone, Copy)]
struct Header {
    state: DirState,
    /// Owner when `Owned`; the inline head sharer when `Shared`.
    head: NodeId,
    /// Index into the pointer store of the rest of the sharer list.
    list: Option<u32>,
}

#[derive(Debug, Clone, Copy)]
struct PoolSlot {
    node: NodeId,
    next: Option<u32>,
}

/// Where the data for a read comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataSource {
    /// Home memory is current.
    Memory,
    /// A remote cache owns the line dirty-exclusive; it supplies the data.
    Owner(NodeId),
}

impl DataSource {
    /// The owning node for dirty lines, `None` when home memory serves.
    pub const fn owner(self) -> Option<NodeId> {
        match self {
            DataSource::Memory => None,
            DataSource::Owner(o) => Some(o),
        }
    }
}

/// The directory's answer to a transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirResponse {
    /// Where the requester's data comes from (`None` for upgrades that
    /// needed no data).
    pub source: DataSource,
    /// Whether the requester now holds the only cached copy.
    pub exclusive: bool,
    /// Nodes whose copies must be invalidated (includes pointer-pool
    /// reclamation victims).
    pub invalidate: Vec<NodeId>,
    /// Node whose dirty copy is downgraded to Shared (kept, not dropped).
    pub downgrade: Option<NodeId>,
}

/// A telemetry-oriented snapshot of a directory's pointer-pool state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirOccupancy {
    /// Pointer-store slots currently in use.
    pub used: u32,
    /// Pointer-store capacity.
    pub capacity: u32,
    /// Cumulative sharer-invalidating reclaims so far.
    pub reclaims: u64,
}

/// One node's directory: headers for lines homed at this node plus the
/// node's pointer/link store.
#[derive(Debug, Clone)]
pub struct Directory {
    // Probed twice per home transaction; point lookups only (never
    // iterated), so the fast fixed-seed hasher is behaviour-neutral.
    headers: FxHashMap<LineAddr, Header>,
    pool: Vec<PoolSlot>,
    free: Option<u32>,
    pool_capacity: u32,
    pool_used: u32,
    reclaims: u64,
}

impl Directory {
    /// Creates a directory with a pointer store of `pool_capacity` slots.
    pub fn new(pool_capacity: u32) -> Directory {
        Directory {
            headers: FxHashMap::default(),
            pool: Vec::new(),
            free: None,
            pool_capacity,
            pool_used: 0,
            reclaims: 0,
        }
    }

    /// Times the protocol reclaimed a pointer by invalidating a sharer.
    pub fn reclaims(&self) -> u64 {
        self.reclaims
    }

    /// Pointer-store slots currently in use.
    pub fn pool_used(&self) -> u32 {
        self.pool_used
    }

    /// Pointer-store capacity this directory was built with.
    pub fn pool_capacity(&self) -> u32 {
        self.pool_capacity
    }

    /// One coherent view of the pointer-pool state (fill, capacity,
    /// cumulative reclaims) for sim-time telemetry: callers record the
    /// fill as a gauge and reclaim deltas as a counter after each
    /// directory operation.
    pub fn occupancy_sample(&self) -> DirOccupancy {
        DirOccupancy {
            used: self.pool_used,
            capacity: self.pool_capacity,
            reclaims: self.reclaims,
        }
    }

    fn alloc_slot(&mut self, node: NodeId, next: Option<u32>) -> Option<u32> {
        if let Some(idx) = self.free {
            self.free = self.pool[idx as usize].next;
            self.pool[idx as usize] = PoolSlot { node, next };
            self.pool_used += 1;
            return Some(idx);
        }
        if (self.pool.len() as u32) < self.pool_capacity {
            self.pool.push(PoolSlot { node, next });
            self.pool_used += 1;
            return Some((self.pool.len() - 1) as u32);
        }
        None
    }

    fn free_slot(&mut self, idx: u32) {
        self.pool[idx as usize].next = self.free;
        self.free = Some(idx);
        self.pool_used -= 1;
    }

    fn free_list(&mut self, mut head: Option<u32>) {
        while let Some(idx) = head {
            head = self.pool[idx as usize].next;
            self.free_slot(idx);
        }
    }

    fn collect_sharers(&self, header: &Header) -> Vec<NodeId> {
        let mut nodes = vec![header.head];
        let mut cur = header.list;
        while let Some(idx) = cur {
            let slot = self.pool[idx as usize];
            nodes.push(slot.node);
            cur = slot.next;
        }
        nodes
    }

    fn sharer_listed(&self, header: &Header, node: NodeId) -> bool {
        let mut cur = header.list;
        while let Some(idx) = cur {
            let slot = self.pool[idx as usize];
            if slot.node == node {
                return true;
            }
            cur = slot.next;
        }
        header.head == node
    }

    /// Adds `node` to a Shared line's list. If the pointer pool is
    /// exhausted, an existing chained sharer is invalidated to reclaim its
    /// pointer; the victim is returned so the caller can send the
    /// invalidation.
    fn add_sharer(&mut self, line: LineAddr, node: NodeId) -> Option<NodeId> {
        // Work on a copy of the header (the pool is borrowed meanwhile)
        // and write it back in place.
        let mut header = *self.headers.get(&line).expect("header exists"); // gate: allow
        debug_assert_eq!(header.state, DirState::Shared);
        if self.sharer_listed(&header, node) {
            return None;
        }
        let mut victim = None;
        match self.alloc_slot(node, header.list) {
            Some(idx) => header.list = Some(idx),
            None => {
                // Pool exhausted: reclaim the first chained pointer by
                // invalidating its node, then reuse the slot.
                match header.list {
                    Some(idx) => {
                        victim = Some(self.pool[idx as usize].node);
                        self.reclaims += 1;
                        self.pool[idx as usize].node = node;
                    }
                    None => {
                        // No chained pointers anywhere to steal: replace the
                        // inline head.
                        victim = Some(header.head);
                        self.reclaims += 1;
                        header.head = node;
                    }
                }
            }
        }
        if let Some(slot) = self.headers.get_mut(&line) {
            *slot = header;
        }
        victim.filter(|v| *v != node)
    }

    /// A read-shared request from `requester` for a line homed here.
    pub fn read(&mut self, line: LineAddr, requester: NodeId) -> DirResponse {
        match self.headers.get(&line).cloned() {
            None => {
                // Uncached: grant exclusive-clean (MESI E), track as owned.
                self.headers.insert(
                    line,
                    Header {
                        state: DirState::Owned,
                        head: requester,
                        list: None,
                    },
                );
                DirResponse {
                    source: DataSource::Memory,
                    exclusive: true,
                    invalidate: Vec::new(),
                    downgrade: None,
                }
            }
            Some(h) if h.state == DirState::Owned => {
                let owner = h.head;
                if owner == requester {
                    // Owner silently dropped a clean-exclusive line and is
                    // re-reading: memory is current, stay owned.
                    return DirResponse {
                        source: DataSource::Memory,
                        exclusive: true,
                        invalidate: Vec::new(),
                        downgrade: None,
                    };
                }
                // Dirty intervention: owner supplies data and is downgraded;
                // line becomes shared by {owner, requester}.
                let mut header = Header {
                    state: DirState::Shared,
                    head: owner,
                    list: None,
                };
                let mut invalidate = Vec::new();
                let mut downgrade = Some(owner);
                match self.alloc_slot(requester, None) {
                    Some(idx) => header.list = Some(idx),
                    None => {
                        // Pool exhausted: cannot chain the requester; the
                        // protocol falls back to invalidating the old owner
                        // after it supplies data, leaving only the requester.
                        invalidate.push(owner);
                        downgrade = None;
                        self.reclaims += 1;
                        header.head = requester;
                    }
                }
                self.headers.insert(line, header);
                DirResponse {
                    source: DataSource::Owner(owner),
                    exclusive: false,
                    invalidate,
                    downgrade,
                }
            }
            Some(_) => {
                let victim = self.add_sharer(line, requester);
                DirResponse {
                    source: DataSource::Memory,
                    exclusive: false,
                    invalidate: victim.into_iter().collect(),
                    downgrade: None,
                }
            }
        }
    }

    /// A read-exclusive request from `requester`.
    pub fn read_exclusive(&mut self, line: LineAddr, requester: NodeId) -> DirResponse {
        match self.headers.get(&line).cloned() {
            None => {
                self.headers.insert(
                    line,
                    Header {
                        state: DirState::Owned,
                        head: requester,
                        list: None,
                    },
                );
                DirResponse {
                    source: DataSource::Memory,
                    exclusive: true,
                    invalidate: Vec::new(),
                    downgrade: None,
                }
            }
            Some(h) if h.state == DirState::Owned => {
                let owner = h.head;
                self.headers.insert(
                    line,
                    Header {
                        state: DirState::Owned,
                        head: requester,
                        list: None,
                    },
                );
                if owner == requester {
                    DirResponse {
                        source: DataSource::Memory,
                        exclusive: true,
                        invalidate: Vec::new(),
                        downgrade: None,
                    }
                } else {
                    DirResponse {
                        source: DataSource::Owner(owner),
                        exclusive: true,
                        invalidate: vec![owner],
                        downgrade: None,
                    }
                }
            }
            Some(h) => {
                let sharers = self.collect_sharers(&h);
                self.free_list(h.list);
                self.headers.insert(
                    line,
                    Header {
                        state: DirState::Owned,
                        head: requester,
                        list: None,
                    },
                );
                DirResponse {
                    source: DataSource::Memory,
                    exclusive: true,
                    invalidate: sharers.into_iter().filter(|n| *n != requester).collect(),
                    downgrade: None,
                }
            }
        }
    }

    /// An ownership upgrade from `requester`, which believes it holds the
    /// line Shared. If the directory no longer lists the requester (its
    /// copy was reclaimed), this degenerates to a read-exclusive and
    /// `source` indicates the data transfer that must happen.
    pub fn upgrade(&mut self, line: LineAddr, requester: NodeId) -> DirResponse {
        match self.headers.get(&line).cloned() {
            Some(h) if h.state == DirState::Shared && self.sharer_listed(&h, requester) => {
                let sharers = self.collect_sharers(&h);
                self.free_list(h.list);
                self.headers.insert(
                    line,
                    Header {
                        state: DirState::Owned,
                        head: requester,
                        list: None,
                    },
                );
                DirResponse {
                    source: DataSource::Memory, // no data actually moves
                    exclusive: true,
                    invalidate: sharers.into_iter().filter(|n| *n != requester).collect(),
                    downgrade: None,
                }
            }
            _ => self.read_exclusive(line, requester),
        }
    }

    /// A writeback of a dirty line by `owner`. Stale writebacks (the
    /// directory has already reassigned the line) are ignored, as in the
    /// real protocol where the races are resolved at the home.
    pub fn writeback(&mut self, line: LineAddr, owner: NodeId) {
        if let Some(h) = self.headers.get(&line) {
            if h.state == DirState::Owned && h.head == owner {
                self.headers.remove(&line);
            }
        }
    }

    /// The sharer set the directory currently lists for `line` (owner only
    /// if owned). Empty if uncached. For tests and invariant checks.
    pub fn sharers(&self, line: LineAddr) -> Vec<NodeId> {
        match self.headers.get(&line) {
            None => Vec::new(),
            Some(h) => {
                let mut v = self.collect_sharers(h);
                v.sort_unstable();
                v.dedup();
                v
            }
        }
    }

    /// Serializes the headers (sorted by line address, so the bytes
    /// never depend on hash-map iteration order), the pointer store in
    /// slot order (indices are links), and the free-list head.
    pub fn save_ckpt(&self, w: &mut CkptWriter) {
        w.u64("pool_capacity", u64::from(self.pool_capacity));
        w.u64("pool_used", u64::from(self.pool_used));
        w.u64("reclaims", self.reclaims);
        w.u64("free", self.free.map_or(u64::MAX, u64::from));
        w.u64("pool", self.pool.len() as u64);
        for slot in &self.pool {
            w.u64s(
                "slot",
                &[u64::from(slot.node), slot.next.map_or(u64::MAX, u64::from)],
            );
        }
        let mut lines: Vec<LineAddr> = self.headers.keys().copied().collect();
        lines.sort_unstable_by_key(|l| l.get());
        w.u64("headers", lines.len() as u64);
        for line in lines {
            let h = &self.headers[&line];
            w.u64s(
                "hdr",
                &[
                    line.get(),
                    match h.state {
                        DirState::Shared => 0,
                        DirState::Owned => 1,
                    },
                    u64::from(h.head),
                    h.list.map_or(u64::MAX, u64::from),
                ],
            );
        }
    }

    /// Restores the state saved by [`Directory::save_ckpt`]. Fails
    /// closed on a different pointer-pool capacity.
    pub fn load_ckpt(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        let cap = r.u64("pool_capacity")?;
        if cap != u64::from(self.pool_capacity) {
            return Err(CkptError::Parse {
                key: "pool_capacity".to_string(),
                value: format!("{cap}, directory has {}", self.pool_capacity),
            });
        }
        self.pool_used = r.u64("pool_used")? as u32;
        self.reclaims = r.u64("reclaims")?;
        let free = r.u64("free")?;
        self.free = (free != u64::MAX).then_some(free as u32);
        let pool_len = r.u64("pool")?;
        self.pool.clear();
        for _ in 0..pool_len {
            let vals = r.u64s("slot")?;
            let [node, next] =
                <[u64; 2]>::try_from(vals.as_slice()).map_err(|_| CkptError::Parse {
                    key: "slot".to_string(),
                    value: format!("{vals:?}"),
                })?;
            self.pool.push(PoolSlot {
                node: node as NodeId,
                next: (next != u64::MAX).then_some(next as u32),
            });
        }
        let headers = r.u64("headers")?;
        self.headers.clear();
        for _ in 0..headers {
            let vals = r.u64s("hdr")?;
            let bad = |vals: &[u64]| CkptError::Parse {
                key: "hdr".to_string(),
                value: format!("{vals:?}"),
            };
            let [line, state, head, list] = match <[u64; 4]>::try_from(vals.as_slice()) {
                Ok(v) => v,
                Err(_) => return Err(bad(&vals)),
            };
            let state = match state {
                0 => DirState::Shared,
                1 => DirState::Owned,
                _ => return Err(bad(&vals)),
            };
            self.headers.insert(
                LineAddr(line),
                Header {
                    state,
                    head: head as NodeId,
                    list: (list != u64::MAX).then_some(list as u32),
                },
            );
        }
        Ok(())
    }

    /// True if `line` is owned dirty-exclusive by some node.
    pub fn is_owned(&self, line: LineAddr) -> bool {
        matches!(
            self.headers.get(&line),
            Some(Header {
                state: DirState::Owned,
                ..
            })
        )
    }

    /// The owner of `line`, if owned.
    pub fn owner(&self, line: LineAddr) -> Option<NodeId> {
        match self.headers.get(&line) {
            Some(h) if h.state == DirState::Owned => Some(h.head),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: LineAddr = LineAddr(0x1000);

    #[test]
    fn first_read_grants_exclusive_clean() {
        let mut d = Directory::new(16);
        let r = d.read(L, 3);
        assert_eq!(r.source, DataSource::Memory);
        assert!(r.exclusive);
        assert!(r.invalidate.is_empty());
        assert_eq!(d.owner(L), Some(3));
    }

    #[test]
    fn second_read_triggers_intervention_and_shares() {
        let mut d = Directory::new(16);
        d.read(L, 1);
        let r = d.read(L, 2);
        assert_eq!(r.source, DataSource::Owner(1));
        assert!(!r.exclusive);
        assert_eq!(r.downgrade, Some(1));
        assert!(!d.is_owned(L));
        assert_eq!(d.sharers(L), vec![1, 2]);
    }

    #[test]
    fn owner_rereading_after_silent_drop_stays_owner() {
        let mut d = Directory::new(16);
        d.read(L, 1);
        let r = d.read(L, 1);
        assert_eq!(r.source, DataSource::Memory);
        assert!(r.exclusive);
        assert_eq!(d.owner(L), Some(1));
    }

    #[test]
    fn read_exclusive_invalidates_all_sharers() {
        let mut d = Directory::new(16);
        d.read(L, 0);
        d.read(L, 1);
        d.read(L, 2);
        let r = d.read_exclusive(L, 3);
        assert!(r.exclusive);
        let mut inv = r.invalidate.clone();
        inv.sort_unstable();
        assert_eq!(inv, vec![0, 1, 2]);
        assert_eq!(d.owner(L), Some(3));
    }

    #[test]
    fn read_exclusive_fetches_dirty_from_owner() {
        let mut d = Directory::new(16);
        d.read_exclusive(L, 5);
        let r = d.read_exclusive(L, 6);
        assert_eq!(r.source, DataSource::Owner(5));
        assert_eq!(r.invalidate, vec![5]);
        assert_eq!(d.owner(L), Some(6));
    }

    #[test]
    fn upgrade_from_listed_sharer_moves_no_data() {
        let mut d = Directory::new(16);
        d.read(L, 0);
        d.read(L, 1); // now shared by {0,1}
        let r = d.upgrade(L, 0);
        assert!(r.exclusive);
        assert_eq!(r.invalidate, vec![1]);
        assert_eq!(d.owner(L), Some(0));
    }

    #[test]
    fn upgrade_from_unlisted_sharer_degenerates_to_read_exclusive() {
        let mut d = Directory::new(16);
        d.read(L, 0); // node 0 owns
                      // Node 1 thinks it has a shared copy, but the directory never saw
                      // it (e.g. reclaimed). The upgrade falls back to read-exclusive.
        let r = d.upgrade(L, 1);
        assert!(r.exclusive);
        assert_eq!(r.source, DataSource::Owner(0));
        assert_eq!(d.owner(L), Some(1));
    }

    #[test]
    fn writeback_uncaches_the_line() {
        let mut d = Directory::new(16);
        d.read_exclusive(L, 2);
        d.writeback(L, 2);
        assert!(d.sharers(L).is_empty());
        // Next read behaves like a cold line.
        let r = d.read(L, 4);
        assert!(r.exclusive);
    }

    #[test]
    fn stale_writeback_is_ignored() {
        let mut d = Directory::new(16);
        d.read_exclusive(L, 2);
        d.read_exclusive(L, 3); // ownership moved to 3
        d.writeback(L, 2); // stale
        assert_eq!(d.owner(L), Some(3));
    }

    #[test]
    fn occupancy_sample_tracks_pool_state() {
        let mut d = Directory::new(2);
        assert_eq!(
            d.occupancy_sample(),
            DirOccupancy {
                used: 0,
                capacity: 2,
                reclaims: 0
            }
        );
        d.read(L, 0); // first sharer is inline in the header
        d.read(L, 1); // chained: one pool slot
        d.read(L, 2); // chained: pool full
        let filled = d.occupancy_sample();
        assert_eq!(filled.used, 2);
        // A fourth sharer exhausts the two-slot pool and reclaims one.
        d.read(L, 3);
        let after = d.occupancy_sample();
        assert_eq!(after.capacity, 2);
        assert_eq!(after.used, 2);
        assert_eq!(after.reclaims, filled.reclaims + 1);
    }

    #[test]
    fn pool_exhaustion_reclaims_a_sharer() {
        // Pool of 2: up to 3 sharers (1 inline + 2 chained).
        let mut d = Directory::new(2);
        d.read(L, 0);
        d.read(L, 1); // intervention: shared {0,1}, 1 chained
        d.read(L, 2); // 2 chained
        assert_eq!(d.sharers(L).len(), 3);
        let before = d.reclaims();
        let r = d.read(L, 3);
        assert_eq!(d.reclaims(), before + 1);
        assert_eq!(r.invalidate.len(), 1, "one sharer reclaimed");
        let victim = r.invalidate[0];
        assert!(!d.sharers(L).contains(&victim));
        assert!(d.sharers(L).contains(&3));
        assert_eq!(d.sharers(L).len(), 3, "pool bound respected");
    }

    #[test]
    fn pool_slots_are_recycled_after_read_exclusive() {
        let mut d = Directory::new(2);
        d.read(L, 0);
        d.read(L, 1);
        d.read(L, 2);
        assert_eq!(d.pool_used(), 2);
        d.read_exclusive(L, 0);
        assert_eq!(d.pool_used(), 0, "invalidation frees pointers");
        // Another line can now use the pool without reclaims.
        let l2 = LineAddr(0x2000);
        d.read(l2, 0);
        d.read(l2, 1);
        d.read(l2, 2);
        assert_eq!(d.sharers(l2).len(), 3);
    }

    #[test]
    fn ckpt_roundtrip_preserves_sharer_chains_and_free_list() {
        let mut a = Directory::new(2);
        a.read(L, 0);
        a.read(L, 1);
        a.read(L, 2);
        a.read(L, 3); // pool exhausted: one reclaim
        let l2 = LineAddr(0x2000);
        a.read_exclusive(l2, 4);
        a.writeback(l2, 4); // exercises the free list
        let mut w = CkptWriter::new("dir-test");
        a.save_ckpt(&mut w);
        let text = w.finish();

        let mut b = Directory::new(2);
        let mut r = CkptReader::open(&text).expect("open");
        b.load_ckpt(&mut r).expect("load");
        r.finish().expect("fully consumed");

        assert_eq!(a.sharers(L), b.sharers(L));
        assert_eq!(a.pool_used(), b.pool_used());
        assert_eq!(a.reclaims(), b.reclaims());
        // Same future decisions, including the next reclaim victim.
        assert_eq!(a.read(L, 5), b.read(L, 5));
        assert_eq!(a.read_exclusive(l2, 6), b.read_exclusive(l2, 6));

        let mut other = Directory::new(16);
        let mut r = CkptReader::open(&text).expect("open");
        assert!(matches!(
            other.load_ckpt(&mut r),
            Err(CkptError::Parse { .. })
        ));
    }

    #[test]
    fn duplicate_read_does_not_duplicate_sharer() {
        let mut d = Directory::new(16);
        d.read(L, 0);
        d.read(L, 1);
        d.read(L, 1);
        d.read(L, 1);
        assert_eq!(d.sharers(L), vec![0, 1]);
        assert_eq!(d.pool_used(), 1);
    }
}
