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
//! A header is 16 bytes: state, the inline node, the link to the chain
//! (a `u32` with a sentinel end), and a 32-bit membership filter with bit
//! `node % 32` set for every node the header lists. "Is this node listed?"
//! is asked on every read of a shared line and is nearly always "no", so a
//! clear bit answers it without walking the chain. Bits are added as nodes
//! are listed and dropped only when the header is rebuilt, for any node
//! count; the filter is recomputed on restore, never checkpointed.
//!
//! Timing is *not* here — FlashLite and NUMA price these transitions
//! differently; both call into the same directory so their protocol
//! behaviour is identical, mirroring the paper's "the same protocol is
//! used in FlashLite and on the real hardware".

use flashsim_engine::ckpt::{bad, Ckpt, CkptError};
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

/// A directory header: state + inline first sharer + chained extras +
/// a membership filter over them.
#[derive(Debug, Clone, Copy)]
struct Header {
    state: DirState,
    /// Owner when `Owned`; the inline head sharer when `Shared`.
    head: NodeId,
    /// Index into the pointer store of the rest of the sharer list, or
    /// [`NIL`].
    list: u32,
    /// Bit `n % 32` is set for every node `n` the header lists (head or
    /// chain). Bits are only ever added, until the header is rebuilt, so
    /// a clear bit proves a node absent and a set bit is confirmed by the
    /// chain walk. Never checkpointed: a restore recomputes it.
    filter: u32,
}

// A header stays 16 bytes, one per cached line of the node's memory: the
// filter takes the bytes an `Option<u32>` list spent on its tag.
const _: () = assert!(std::mem::size_of::<Option<Header>>() == 16);

/// The end of a sharer list.
const NIL: u32 = u32::MAX;

/// `node`'s bit in a [`Header::filter`].
const fn filter_bit(node: NodeId) -> u32 {
    1 << (node % 32)
}

impl Header {
    /// A header listing `head` and the chain at `list`; `chained` holds
    /// the filter bits of the chain's nodes.
    fn new(state: DirState, head: NodeId, list: u32, chained: u32) -> Header {
        Header {
            state,
            head,
            list,
            filter: filter_bit(head) | chained,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct PoolSlot {
    node: NodeId,
    next: Option<u32>,
}

/// A pointer-store link as a checkpoint writes it: `u64::MAX` for none.
fn link(at: Option<u32>) -> u64 {
    at.map_or(u64::MAX, u64::from)
}

/// [`link`] read back; a value past `u32` saturates, and so falls outside
/// any pool.
fn unlink(v: u64) -> Option<u32> {
    (v != u64::MAX).then(|| v.try_into().unwrap_or(u32::MAX))
}

/// A header's list as a pointer-store link.
fn list_link(list: u32) -> Option<u32> {
    (list != NIL).then_some(list)
}

/// A restored header list: a link that would read as [`NIL`] is moved
/// one below it, still outside any pool a checkpoint can carry, so the
/// pool check rejects it rather than taking it for the end of the list.
fn list_of(link: Option<u32>) -> u32 {
    link.map_or(NIL, |at| at.min(NIL - 1))
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

/// FLASH's coherence unit: the 128-byte secondary-cache line. A
/// directory built without a geometry ([`Directory::new`]) keeps one
/// header per line of this size.
pub const LINE_BYTES: u64 = 128;

/// Header blocks never shrink below one 4 KiB page of 128-byte lines.
const MIN_BLOCK_SHIFT: u32 = 5;
/// A sized directory's block index holds at most this many entries
/// (32 KiB of `u32`s per node): larger node memories get larger blocks.
const MAX_INDEX: u64 = 8192;
/// The index never grows past this many blocks; a line further out is
/// beyond any memory a node can be home to.
const MAX_BLOCKS: usize = 1 << 22;

/// The headers of one home node: a two-level table indexed by the line's
/// offset from the home's first byte. The first level maps each block of
/// consecutive lines to a block of headers, allocated when a line in it
/// is first cached; the second level is that block. Finding a header is
/// two array reads and no hashing, and the table reallocates only when a
/// block is touched for the first time.
#[derive(Debug, Clone)]
struct HeaderTable {
    /// Address of the first line this directory is home to.
    base: u64,
    /// log2 of the line size.
    line_shift: u32,
    /// log2 of the lines per block.
    block_shift: u32,
    /// Per block of the home's memory: one more than its position in
    /// `slots` (counted in blocks), or 0 while no line in it was cached.
    index: Vec<u32>,
    /// The allocated blocks back to back, `1 << block_shift` headers
    /// each; `None` is an uncached line.
    slots: Vec<Option<Header>>,
}

impl HeaderTable {
    fn new(base: u64, span_bytes: u64, line_bytes: u64) -> HeaderTable {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let lines = span_bytes / line_bytes;
        let mut block_shift = MIN_BLOCK_SHIFT;
        while (lines >> block_shift) > MAX_INDEX {
            block_shift += 1;
        }
        HeaderTable {
            base,
            line_shift: line_bytes.trailing_zeros(),
            block_shift,
            index: vec![0; lines.div_ceil(1 << block_shift) as usize],
            slots: Vec::new(),
        }
    }

    /// `(block, offset in block)` of `line`; `None` for a line the table
    /// cannot hold a header for: misaligned (two lines inside one granule
    /// would share a header), below the home's base, or beyond the
    /// index's reach. Every line a memory system asks about has a place;
    /// a checkpoint row need not.
    #[inline]
    fn try_locate(&self, line: LineAddr) -> Option<(usize, usize)> {
        if line.get() & ((1 << self.line_shift) - 1) != 0 {
            return None;
        }
        let n = line.get().checked_sub(self.base)? >> self.line_shift;
        let block = n >> self.block_shift;
        let offset = n & ((1 << self.block_shift) - 1);
        (block < MAX_BLOCKS as u64).then_some((block as usize, offset as usize))
    }

    /// [`try_locate`](HeaderTable::try_locate) for a line that must have
    /// a place: refuses loudly (release builds too) rather than corrupt
    /// the protocol.
    #[inline]
    fn locate(&self, line: LineAddr) -> (usize, usize) {
        self.try_locate(line)
            // gate: allow
            .unwrap_or_else(|| panic!("{line} is not a line of this directory"))
    }

    /// Position in `slots` of `line`'s header, if its block exists.
    #[inline]
    fn find(&self, line: LineAddr) -> Option<usize> {
        let (block, offset) = self.locate(line);
        match self.index.get(block) {
            Some(&at) if at != 0 => Some(((at as usize - 1) << self.block_shift) + offset),
            _ => None,
        }
    }

    /// The header of `line`, `None` if uncached.
    fn get(&self, line: LineAddr) -> Option<Header> {
        self.find(line).and_then(|at| self.slots[at])
    }

    /// Position in `slots` of `line`'s header, allocating its block on
    /// first touch: the one table walk of a directory operation, which
    /// then reads and writes `slots[at]` directly.
    #[inline]
    fn entry(&mut self, line: LineAddr) -> usize {
        match self.find(line) {
            Some(at) => at,
            None => self.allocate(line),
        }
    }

    #[cold]
    fn allocate(&mut self, line: LineAddr) -> usize {
        let (block, offset) = self.locate(line);
        if block >= self.index.len() {
            self.index.resize(block + 1, 0);
        }
        let start = self.slots.len();
        self.slots.resize(start + (1 << self.block_shift), None);
        self.index[block] = ((start >> self.block_shift) + 1) as u32;
        start + offset
    }

    /// Every cached line with its header, in line-address order.
    fn iter(&self) -> impl Iterator<Item = (LineAddr, Header)> + '_ {
        let block_lines = 1usize << self.block_shift;
        self.index
            .iter()
            .enumerate()
            .filter(|(_, &at)| at != 0)
            .flat_map(move |(block, &at)| {
                let start = (at as usize - 1) << self.block_shift;
                self.slots[start..start + block_lines]
                    .iter()
                    .enumerate()
                    .filter_map(move |(offset, h)| {
                        let n = ((block << self.block_shift) + offset) as u64;
                        h.map(|h| (LineAddr(self.base + (n << self.line_shift)), h))
                    })
            })
    }

    fn clear(&mut self) {
        self.index.fill(0);
        self.slots.clear();
    }
}

/// One node's directory: headers for lines homed at this node plus the
/// node's pointer/link store.
#[derive(Debug, Clone)]
pub struct Directory {
    headers: HeaderTable,
    pool: Vec<PoolSlot>,
    free: Option<u32>,
    pool_capacity: u32,
    pool_used: u32,
    reclaims: u64,
}

impl Directory {
    /// Creates a directory with a pointer store of `pool_capacity` slots
    /// for [`LINE_BYTES`]-aligned lines anywhere in the address space: the
    /// header index grows to the highest line it is asked about (4 bytes
    /// per 4 KiB). Memory-system models know their node's extent and use
    /// [`Directory::for_home`].
    pub fn new(pool_capacity: u32) -> Directory {
        Directory::with_headers(pool_capacity, HeaderTable::new(0, 0, LINE_BYTES))
    }

    /// Creates the directory of node `home` in a machine whose nodes each
    /// own `node_mem_bytes` of physical memory in `line_bytes` lines: the
    /// header index is sized once for that extent (at most 32 KiB) and
    /// addressed by the line's offset from the node's first byte.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two.
    pub fn for_home(
        pool_capacity: u32,
        home: NodeId,
        node_mem_bytes: u64,
        line_bytes: u64,
    ) -> Directory {
        let base = u64::from(home) * node_mem_bytes;
        Directory::with_headers(
            pool_capacity,
            HeaderTable::new(base, node_mem_bytes, line_bytes),
        )
    }

    fn with_headers(pool_capacity: u32, headers: HeaderTable) -> Directory {
        Directory {
            headers,
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
        let mut cur = list_link(header.list);
        while let Some(idx) = cur {
            let slot = self.pool[idx as usize];
            nodes.push(slot.node);
            cur = slot.next;
        }
        nodes
    }

    /// The listed sharers other than `node`, head first. Allocates only
    /// when there is one.
    fn sharers_but(&self, header: &Header, node: NodeId) -> Vec<NodeId> {
        let mut nodes = Vec::new();
        if header.head != node {
            nodes.push(header.head);
        }
        let mut cur = list_link(header.list);
        while let Some(idx) = cur {
            let slot = self.pool[idx as usize];
            if slot.node != node {
                nodes.push(slot.node);
            }
            cur = slot.next;
        }
        nodes
    }

    /// Whether `header` lists `node`. The filter answers "no" for most
    /// nodes without walking the chain.
    fn sharer_listed(&self, header: &Header, node: NodeId) -> bool {
        if header.filter & filter_bit(node) == 0 {
            return false;
        }
        let mut cur = list_link(header.list);
        while let Some(idx) = cur {
            let slot = self.pool[idx as usize];
            if slot.node == node {
                return true;
            }
            cur = slot.next;
        }
        header.head == node
    }

    /// Adds `node` to the list of the Shared line whose header (`header`,
    /// a copy: the pool is borrowed meanwhile) sits at `at`, and writes
    /// the header back. If the pointer pool is exhausted, an existing
    /// chained sharer is invalidated to reclaim its pointer; the victim
    /// is returned so the caller can send the invalidation.
    fn add_sharer(&mut self, at: usize, mut header: Header, node: NodeId) -> Option<NodeId> {
        debug_assert_eq!(header.state, DirState::Shared);
        if self.sharer_listed(&header, node) {
            return None;
        }
        let mut victim = None;
        header.filter |= filter_bit(node);
        match self.alloc_slot(node, list_link(header.list)) {
            Some(idx) => header.list = idx,
            None => {
                // Pool exhausted: reclaim the first chained pointer by
                // invalidating its node, then reuse the slot. The victim's
                // filter bit stays: a stale bit costs a walk, never a
                // wrong answer.
                match list_link(header.list) {
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
        self.headers.slots[at] = Some(header);
        victim.filter(|v| *v != node)
    }

    /// Makes `requester` the owner of the line whose header sits at `at`.
    fn set_owner(&mut self, at: usize, requester: NodeId) {
        self.headers.slots[at] = Some(Header::new(DirState::Owned, requester, NIL, 0));
    }

    /// A read-shared request from `requester` for a line homed here.
    pub fn read(&mut self, line: LineAddr, requester: NodeId) -> DirResponse {
        let at = self.headers.entry(line);
        match self.headers.slots[at] {
            None => {
                // Uncached: grant exclusive-clean (MESI E), track as owned.
                self.set_owner(at, requester);
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
                let mut invalidate = Vec::new();
                let mut downgrade = Some(owner);
                let header = match self.alloc_slot(requester, None) {
                    Some(idx) => Header::new(DirState::Shared, owner, idx, filter_bit(requester)),
                    None => {
                        // Pool exhausted: cannot chain the requester; the
                        // protocol falls back to invalidating the old owner
                        // after it supplies data, leaving only the requester.
                        invalidate.push(owner);
                        downgrade = None;
                        self.reclaims += 1;
                        Header::new(DirState::Shared, requester, NIL, 0)
                    }
                };
                self.headers.slots[at] = Some(header);
                DirResponse {
                    source: DataSource::Owner(owner),
                    exclusive: false,
                    invalidate,
                    downgrade,
                }
            }
            Some(h) => {
                let victim = self.add_sharer(at, h, requester);
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
        let at = self.headers.entry(line);
        let (source, invalidate) = match self.headers.slots[at] {
            None => (DataSource::Memory, Vec::new()),
            Some(h) if h.state == DirState::Owned => {
                if h.head == requester {
                    (DataSource::Memory, Vec::new())
                } else {
                    (DataSource::Owner(h.head), vec![h.head])
                }
            }
            Some(h) => {
                let invalidate = self.sharers_but(&h, requester);
                self.free_list(list_link(h.list));
                (DataSource::Memory, invalidate)
            }
        };
        self.set_owner(at, requester);
        DirResponse {
            source,
            exclusive: true,
            invalidate,
            downgrade: None,
        }
    }

    /// An ownership upgrade from `requester`, which believes it holds the
    /// line Shared. The directory answers it exactly as a
    /// [`read_exclusive`](Directory::read_exclusive): a listed sharer and
    /// one whose copy was reclaimed both get every other sharer
    /// invalidated and a `Memory` source (for a listed sharer no data
    /// actually moves); an owned line's owner is the source.
    pub fn upgrade(&mut self, line: LineAddr, requester: NodeId) -> DirResponse {
        self.read_exclusive(line, requester)
    }

    /// A writeback of a dirty line by `owner`. Stale writebacks (the
    /// directory has already reassigned the line) are ignored, as in the
    /// real protocol where the races are resolved at the home.
    pub fn writeback(&mut self, line: LineAddr, owner: NodeId) {
        if let Some(at) = self.headers.find(line) {
            if matches!(self.headers.slots[at], Some(h) if h.state == DirState::Owned && h.head == owner)
            {
                self.headers.slots[at] = None;
            }
        }
    }

    /// The sharer set the directory currently lists for `line` (owner only
    /// if owned). Empty if uncached. For tests and invariant checks.
    pub fn sharers(&self, line: LineAddr) -> Vec<NodeId> {
        match self.headers.get(line) {
            None => Vec::new(),
            Some(h) => {
                let mut v = self.collect_sharers(&h);
                v.sort_unstable();
                v.dedup();
                v
            }
        }
    }

    /// Walks the headers (sorted by line address, which is the table's
    /// own order), the pointer store in slot order (indices are links),
    /// and the free-list head. A restore fails closed on a different
    /// pointer-pool capacity, on a row the header table cannot hold, and
    /// on a pointer store some operation could index out of bounds or
    /// chase forever ([`Directory::check_pool`]).
    pub fn ckpt(&mut self, c: &mut Ckpt<'_>) -> Result<(), CkptError> {
        c.interlock("pool_capacity", &[u64::from(self.pool_capacity)])?;
        let mut used = u64::from(self.pool_used);
        c.u64("pool_used", &mut used)?;
        c.u64("reclaims", &mut self.reclaims)?;
        let mut free = link(self.free);
        c.u64("free", &mut free)?;
        c.list("pool", &mut self.pool, |c, slot| {
            let mut row = [u64::from(slot.node), link(slot.next)];
            c.array("slot", &mut row)?;
            (slot.node, slot.next) = (row[0] as NodeId, unlink(row[1]));
            Ok(())
        })?;
        let mut rows: Vec<[u64; 4]> = self
            .headers
            .iter()
            .map(|(line, h)| {
                let list = link(list_link(h.list));
                [line.get(), h.state as u64, u64::from(h.head), list]
            })
            .collect();
        c.list("headers", &mut rows, |c, row| c.array("hdr", row))?;
        if !c.loading() {
            return Ok(());
        }
        (self.pool_used, self.free) = (used.try_into().unwrap_or(u32::MAX), unlink(free));
        self.headers.clear();
        for [line, state, head, list] in rows {
            let bad_row = || bad("hdr", format!("{line},{state},{head},{list}"));
            let state = match state {
                0 => DirState::Shared,
                1 => DirState::Owned,
                _ => return Err(bad_row()),
            };
            if self.headers.try_locate(LineAddr(line)).is_none() {
                return Err(bad_row());
            }
            let at = self.headers.entry(LineAddr(line));
            let list = list_of(unlink(list));
            self.headers.slots[at] = Some(Header::new(state, head as NodeId, list, 0));
        }
        self.check_pool()?;
        self.refilter();
        Ok(())
    }

    /// Recomputes every header's filter from its chain: what a restored
    /// header lists, exactly. Runs once the pool check has proved every
    /// chain ends inside the pool.
    fn refilter(&mut self) {
        for h in self.headers.slots.iter_mut().flatten() {
            let mut cur = list_link(h.list);
            while let Some(idx) = cur {
                let slot = self.pool[idx as usize];
                h.filter |= filter_bit(slot.node);
                cur = slot.next;
            }
        }
    }

    /// What a restored pointer store must satisfy for every operation to
    /// stay in bounds and terminate: the store and its use within
    /// capacity, every link inside the store, and every chain — the free
    /// list and each header's sharer list — ending without meeting a
    /// slot another chain (or itself) already holds. Slots listed by
    /// headers count against `pool_used`, so freeing them cannot take it
    /// below zero. Each condition holds of any prefix of the header rows,
    /// so it never masks a row-count error the reader reports next.
    fn check_pool(&self) -> Result<(), CkptError> {
        let len = self.pool.len();
        if len > self.pool_capacity as usize {
            return Err(bad("pool", format!("{len} slots over capacity")));
        }
        if self.pool_used > self.pool_capacity {
            return Err(bad("pool_used", self.pool_used));
        }
        if let Some(next) = self
            .pool
            .iter()
            .find_map(|s| s.next.filter(|&n| n as usize >= len))
        {
            return Err(bad("slot", format!("next {next} outside a pool of {len}")));
        }
        let mut held = vec![false; len];
        let mut listed = 0u32;
        let lists = self.headers.iter().map(|(_, h)| ("hdr", list_link(h.list)));
        for (key, mut cur) in std::iter::once(("free", self.free)).chain(lists) {
            while let Some(at) = cur {
                match held.get_mut(at as usize) {
                    Some(h) if !*h => *h = true,
                    Some(_) => return Err(bad(key, format!("slot {at} on a second chain"))),
                    None => return Err(bad(key, format!("{at} outside a pool of {len}"))),
                }
                listed += u32::from(key == "hdr");
                cur = self.pool[at as usize].next;
            }
        }
        if listed > self.pool_used {
            return Err(bad(
                "pool_used",
                format!("{} below {listed} listed", self.pool_used),
            ));
        }
        Ok(())
    }

    /// Checked after a restore: every node the directory names — a
    /// header's owner or first sharer, a pointer-store slot's sharer — is
    /// one of the machine's `nodes`, or an invalidation would go nowhere.
    pub(crate) fn check_nodes(&self, nodes: NodeId) -> Result<(), CkptError> {
        if let Some((line, h)) = self.headers.iter().find(|(_, h)| h.head >= nodes) {
            return Err(bad(
                "hdr",
                format!("{line} names node {} of {nodes}", h.head),
            ));
        }
        match self.pool.iter().find(|s| s.node >= nodes) {
            Some(s) => Err(bad("slot", format!("node {} of {nodes}", s.node))),
            None => Ok(()),
        }
    }

    /// True if `line` is owned dirty-exclusive by some node.
    pub fn is_owned(&self, line: LineAddr) -> bool {
        self.owner(line).is_some()
    }

    /// The owner of `line`, if owned.
    pub fn owner(&self, line: LineAddr) -> Option<NodeId> {
        match self.headers.get(line) {
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
        let mut w = Ckpt::save("dir-test");
        a.ckpt(&mut w).unwrap();
        let text = w.finish().unwrap();

        let mut b = Directory::new(2);
        let mut r = Ckpt::open(&text).expect("open");
        b.ckpt(&mut r).expect("load");
        r.finish().expect("fully consumed");

        assert_eq!(a.sharers(L), b.sharers(L));
        assert_eq!(a.pool_used(), b.pool_used());
        assert_eq!(a.reclaims(), b.reclaims());
        // Same future decisions, including the next reclaim victim.
        assert_eq!(a.read(L, 5), b.read(L, 5));
        assert_eq!(a.read_exclusive(l2, 6), b.read_exclusive(l2, 6));

        let mut other = Directory::new(16);
        let mut r = Ckpt::open(&text).expect("open");
        assert!(matches!(other.ckpt(&mut r), Err(CkptError::Parse { .. })));
    }

    #[test]
    fn a_restore_drops_every_header_the_directory_held_before() {
        let mut a = Directory::new(2);
        a.read(L, 0);
        let mut w = Ckpt::save("dir-test");
        a.ckpt(&mut w).unwrap();
        let text = w.finish().unwrap();
        // Restoring into a directory that is not fresh: a line the
        // checkpoint does not hold must come back uncached.
        let mut b = Directory::new(2);
        let stale = LineAddr(0x3000);
        b.read(stale, 7);
        let mut r = Ckpt::open(&text).expect("open");
        b.ckpt(&mut r).expect("load");
        assert_eq!(b.sharers(L), vec![0]);
        assert!(b.sharers(stale).is_empty());
    }

    #[test]
    fn the_filter_never_hides_a_listed_sharer() {
        // Seeded churn over 40 nodes (so filter bits alias) with a two-slot
        // pool (so reclaims happen), restored from its own checkpoint now
        // and then: at every step, for every line and node, the filtered
        // answer equals a plain walk of head and chain.
        let lines = [L, LineAddr(0x2000), LineAddr(0x3000)];
        let mut rng = flashsim_engine::Rng::seeded(0xF117);
        let mut d = Directory::new(2);
        for step in 0..20_000 {
            let line = lines[rng.gen_range(3) as usize];
            let node = rng.gen_range(40) as NodeId;
            match rng.gen_range(16) {
                0..=8 => drop(d.read(line, node)),
                9..=10 => drop(d.read_exclusive(line, node)),
                11..=12 => drop(d.upgrade(line, node)),
                13..=14 => d.writeback(line, node),
                _ => {
                    let mut w = Ckpt::save("dir-test");
                    d.ckpt(&mut w).unwrap();
                    let text = w.finish().unwrap();
                    let mut r = Ckpt::open(&text).expect("open");
                    d = Directory::new(2);
                    d.ckpt(&mut r).expect("load");
                }
            }
            for line in lines {
                let Some(h) = d.headers.get(line) else {
                    continue;
                };
                let chain = d.collect_sharers(&h);
                for n in 0..40 {
                    let listed = chain.contains(&n);
                    assert_eq!(d.sharer_listed(&h, n), listed, "step {step} {line} {n}");
                }
            }
        }
        assert!(d.reclaims() > 100, "{} reclaims", d.reclaims());
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

    #[test]
    fn sized_header_index_is_small_and_blocks_appear_on_first_touch() {
        for node_mem in [1u64 << 24, 32 << 20, 256 << 20, 1 << 32, 3 * 4096] {
            let mut d = Directory::for_home(16, 2, node_mem, 128);
            assert!(
                d.headers.index.len() * std::mem::size_of::<u32>() <= 64 * 1024,
                "{node_mem}: {} index entries",
                d.headers.index.len()
            );
            assert!(d.headers.slots.is_empty());
            let (first, last) = (LineAddr(2 * node_mem), LineAddr(3 * node_mem - 128));
            d.read(last, 1);
            d.read(first, 4);
            assert_eq!(d.owner(last), Some(1));
            assert_eq!(d.owner(first), Some(4));
            assert_eq!(d.headers.slots.len(), 2 << d.headers.block_shift);
            // Save order is address order, not allocation order.
            let lines: Vec<LineAddr> = d.headers.iter().map(|(l, _)| l).collect();
            assert_eq!(lines, [first, last]);
        }
    }

    #[test]
    fn a_line_past_the_sized_extent_grows_the_index() {
        // The last node is also home to every line above its own memory
        // (`home_of` clamps), and an unsized directory to any line at all.
        for mut d in [Directory::for_home(4, 1, 1 << 20, 128), Directory::new(4)] {
            let far = LineAddr((1 << 30) + 0x80);
            assert!(d.sharers(far).is_empty());
            d.writeback(far, 0); // uncached: nothing to do, nothing allocated
            assert!(d.headers.slots.is_empty());
            d.read_exclusive(far, 2);
            assert_eq!(d.owner(far), Some(2));
        }
    }

    #[test]
    fn ckpt_rows_the_table_cannot_hold_are_rejected() {
        // Below the home's base, misaligned, and beyond the index's reach.
        for line in [0u64, (1 << 24) + 64, !127u64] {
            let mut w = Ckpt::save("dir-test");
            w.u64("pool_capacity", &mut 2).unwrap();
            w.u64("pool_used", &mut 0).unwrap();
            w.u64("reclaims", &mut 0).unwrap();
            w.u64("free", &mut { u64::MAX }).unwrap();
            w.u64("pool", &mut 0).unwrap();
            w.u64("headers", &mut 1).unwrap();
            w.array("hdr", &mut [line, 1, 0, u64::MAX]).unwrap();
            let text = w.finish().unwrap();
            let mut r = Ckpt::open(&text).expect("open");
            assert!(matches!(
                Directory::for_home(2, 1, 1 << 24, 128).ckpt(&mut r),
                Err(CkptError::Parse { .. })
            ));
        }
    }

    const NONE: u64 = u64::MAX;

    /// Restores a two-slot-pool directory from the fields after
    /// `pool_capacity`, written as a checkpoint would carry them.
    fn restore(
        used: u64,
        free: u64,
        slots: &[[u64; 2]],
        hdrs: &[[u64; 4]],
    ) -> Result<Directory, CkptError> {
        let mut w = Ckpt::save("dir-test");
        w.u64("pool_capacity", &mut 2).unwrap();
        w.u64("pool_used", &mut { used }).unwrap();
        w.u64("reclaims", &mut 0).unwrap();
        w.u64("free", &mut { free }).unwrap();
        w.count("pool", slots.len()).unwrap();
        for slot in slots {
            w.array("slot", &mut { *slot }).unwrap();
        }
        w.count("headers", hdrs.len()).unwrap();
        for hdr in hdrs {
            w.array("hdr", &mut { *hdr }).unwrap();
        }
        let text = w.finish().unwrap();
        let mut r = Ckpt::open(&text).expect("open");
        let mut d = Directory::new(2);
        d.ckpt(&mut r)?;
        r.finish().expect("fully consumed");
        Ok(d)
    }

    #[test]
    fn a_consistent_pointer_store_restores() {
        // Line 0 shared by 1 (inline) and 0 (slot 0); slot 1 free.
        let d = restore(1, 1, &[[0, NONE], [1, NONE]], &[[0, 0, 1, 0]]).expect("restores");
        assert_eq!(d.sharers(LineAddr(0)), [0, 1]);
        assert_eq!(d.check_nodes(2), Ok(()));
    }

    #[test]
    fn a_sharer_list_past_the_pool_is_rejected() {
        // Restored unchecked, this directory panicked on the first read of
        // line 0: "index out of bounds: the len is 1 but the index is 99".
        let err = restore(1, NONE, &[[0, NONE]], &[[0, 0, 1, 99]]).expect_err("dangling list");
        assert_eq!(err, bad("hdr", "99 outside a pool of 1"));
    }

    #[test]
    fn a_free_list_past_the_pool_is_rejected() {
        let err = restore(0, 1, &[[0, NONE]], &[]).expect_err("dangling free list");
        assert_eq!(err, bad("free", "1 outside a pool of 1"));
    }

    #[test]
    fn a_slot_link_past_the_pool_is_rejected() {
        let err = restore(0, NONE, &[[0, 7]], &[]).expect_err("dangling slot link");
        assert_eq!(err, bad("slot", "next 7 outside a pool of 1"));
    }

    #[test]
    fn a_pool_over_capacity_is_rejected() {
        let slots = [[0, NONE]; 3];
        let err = restore(0, NONE, &slots, &[]).expect_err("three slots in a pool of two");
        assert_eq!(err, bad("pool", "3 slots over capacity"));
    }

    #[test]
    fn pool_use_over_capacity_is_rejected() {
        let err = restore(3, NONE, &[], &[]).expect_err("three used of two");
        assert_eq!(err, bad("pool_used", 3));
    }

    #[test]
    fn a_sharer_chain_with_a_cycle_is_rejected() {
        // Restored unchecked, the first read of line 0 walked this chain
        // forever: a hang, not a panic.
        let slots = [[0, 1], [2, 0]];
        let err = restore(2, NONE, &slots, &[[0, 0, 1, 0]]).expect_err("cyclic chain");
        assert_eq!(err, bad("hdr", "slot 0 on a second chain"));
    }

    #[test]
    fn a_slot_on_two_chains_is_rejected() {
        // Free and listed at once: the next allocation would splice the
        // free list into line 0's sharers.
        let err = restore(1, 0, &[[0, NONE]], &[[0, 0, 1, 0]]).expect_err("shared slot");
        assert_eq!(err, bad("hdr", "slot 0 on a second chain"));
    }

    #[test]
    fn more_listed_slots_than_pool_use_is_rejected() {
        // Freeing line 0's one listed slot would take `pool_used` below 0.
        let err = restore(0, NONE, &[[0, NONE]], &[[0, 0, 1, 0]]).expect_err("underflow");
        assert_eq!(err, bad("pool_used", "0 below 1 listed"));
    }

    #[test]
    fn nodes_past_the_machine_are_found() {
        let d = restore(1, NONE, &[[5, NONE]], &[[0, 0, 1, 0]]).expect("a pointer store in order");
        assert_eq!(d.check_nodes(6), Ok(()));
        assert_eq!(d.check_nodes(5), Err(bad("slot", "node 5 of 5")));
        assert_eq!(d.check_nodes(2), Err(bad("slot", "node 5 of 2")));
        let d = restore(0, NONE, &[], &[[0x80, 1, 8, NONE]]).expect("one owned line");
        assert_eq!(d.check_nodes(9), Ok(()));
        assert_eq!(
            d.check_nodes(8),
            Err(bad("hdr", "l:0x80 names node 8 of 8"))
        );
    }
}
