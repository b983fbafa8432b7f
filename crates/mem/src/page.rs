//! Physical page allocation and the page table.
//!
//! The paper devotes a whole finding to this layer: Solo, like many
//! architectural simulators, "neglects the page-colouring algorithms used in
//! modern operating systems", performs physical allocation itself, and as a
//! result predicts a ~3× higher secondary-cache miss rate for uniprocessor
//! Ocean — while for multiprocessor Radix-Sort, Solo's packed allocation
//! *accidentally beats* IRIX and hides conflicts the hardware really has.
//! Both allocators are modelled here:
//!
//! - [`AllocPolicy::Sequential`] (Solo): each node hands out frames in
//!   first-touch order with a bump pointer. Contiguous touches are packed
//!   optimally (zero conflicts within a range smaller than the cache), but
//!   large same-sized arrays initialized one after another land at equal
//!   colour offsets and conflict systematically.
//! - [`AllocPolicy::ColorHashed`] (IRIX): the OS picks a frame whose colour
//!   is a hash of the virtual page, hopping to neighbouring colour bins when
//!   the preferred bin is empty. This breaks systematic inter-array
//!   conflicts (fixing Ocean) at the cost of birthday-paradox colour
//!   collisions inside a phase's working set (hurting Radix-Sort relative
//!   to Solo's packing — the paper's surprise).

use crate::addr::PAddr;
use flashsim_engine::ckpt::{Ckpt, CkptError};
use flashsim_engine::fxhash::FxHashMap;
use flashsim_isa::VAddr;

/// How an operating system (or Solo's backdoor) chooses physical frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocPolicy {
    /// Bump-pointer first-touch allocation per node (Solo).
    Sequential,
    /// Page-coloured allocation with hashed colour choice and bin hopping
    /// (IRIX-like).
    ColorHashed,
}

/// Per-node physical frame allocator.
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    policy: AllocPolicy,
    /// log2 of the page size.
    page_shift: u32,
    frames_per_node: u64,
    colors: u64,
    /// Per node, per colour: stack of free local frame numbers.
    bins: Vec<Vec<Vec<u64>>>,
    allocated: u64,
}

fn color_hash(vpn: u64) -> u64 {
    // SplitMix64 finalizer: deterministic, well-spread colour choice.
    let mut z = vpn.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl FrameAllocator {
    /// Creates an allocator for `nodes` nodes of `frames_per_node` frames
    /// each, with `colors` cache colours (cache way size / page size).
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero, `page_bytes` is not a power of
    /// two, or `frames_per_node < colors`.
    pub fn new(
        policy: AllocPolicy,
        nodes: u32,
        frames_per_node: u64,
        page_bytes: u64,
        colors: u64,
    ) -> FrameAllocator {
        assert!(nodes > 0 && frames_per_node > 0 && colors > 0);
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        assert!(
            frames_per_node >= colors,
            "each node needs at least one frame per colour"
        );
        let bins = (0..nodes)
            .map(|_| {
                let mut per_color: Vec<Vec<u64>> = vec![Vec::new(); colors as usize];
                // Stack frames in descending order so pops come out ascending:
                // sequential allocation then walks frames 0, 1, 2, ...
                for frame in (0..frames_per_node).rev() {
                    per_color[(frame % colors) as usize].push(frame);
                }
                per_color
            })
            .collect();
        FrameAllocator {
            policy,
            page_shift: page_bytes.trailing_zeros(),
            frames_per_node,
            colors,
            bins,
            allocated: 0,
        }
    }

    /// Number of cache colours.
    pub fn colors(&self) -> u64 {
        self.colors
    }

    /// Frames handed out so far.
    pub fn allocated(&self) -> u64 {
        self.allocated
    }

    /// Allocates a frame on `node` for virtual page `vpn`, returning the
    /// *global* physical frame number, or `None` if the node is out of
    /// memory.
    pub fn alloc(&mut self, node: u32, vpn: u64) -> Option<u64> {
        let bins = self.bins.get_mut(node as usize)?;
        let local = match self.policy {
            AllocPolicy::Sequential => {
                // First-touch bump pointer: smallest free frame on the node.
                let bin = bins
                    .iter_mut()
                    .filter(|b| !b.is_empty())
                    .min_by_key(|b| *b.last().expect("non-empty bin"))?; // gate: allow
                bin.pop().expect("non-empty bin") // gate: allow
            }
            AllocPolicy::ColorHashed => {
                let want = (color_hash(vpn) % self.colors) as usize;
                // Bin hopping: preferred colour first, then neighbours.
                let n = bins.len();
                let mut chosen = None;
                for hop in 0..n {
                    let idx = (want + hop) % n;
                    if !bins[idx].is_empty() {
                        chosen = Some(idx);
                        break;
                    }
                }
                bins[chosen?].pop().expect("non-empty bin") // gate: allow
            }
        };
        self.allocated += 1;
        Some(u64::from(node) * self.frames_per_node + local)
    }

    /// Walks the free-frame bins and allocation counter in the current
    /// section. Bin stacks are written in pop order, so restored
    /// allocators hand out the exact same frame sequence; a restore fails
    /// closed on an allocator built with different parameters.
    pub fn ckpt(&mut self, c: &mut Ckpt<'_>) -> Result<(), CkptError> {
        let policy = u64::from(self.policy == AllocPolicy::ColorHashed);
        let (frames, page, colors) = (self.frames_per_node, 1 << self.page_shift, self.colors);
        c.interlock(
            "shape",
            &[policy, self.bins.len() as u64, frames, page, colors],
        )?;
        c.u64("allocated", &mut self.allocated)?;
        for bin in self.bins.iter_mut().flatten() {
            c.u64s("bin", bin, ..)?;
        }
        Ok(())
    }
}

/// The per-run virtual-to-physical mapping, filled in on first touch.
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    // Probed on every translation; point lookups only (never iterated), so
    // the fast fixed-seed hasher cannot affect simulated behaviour.
    map: FxHashMap<u64, u64>,
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> PageTable {
        PageTable::default()
    }

    /// Looks up the frame for virtual page `vpn`.
    pub fn lookup(&self, vpn: u64) -> Option<u64> {
        self.map.get(&vpn).copied()
    }

    /// Records a mapping.
    ///
    /// # Panics
    ///
    /// Panics if `vpn` is already mapped (double fault).
    pub fn map(&mut self, vpn: u64, pfn: u64) {
        let prev = self.map.insert(vpn, pfn);
        assert!(prev.is_none(), "virtual page {vpn} mapped twice");
    }

    /// Number of mapped pages.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing is mapped.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Translates a full virtual address, if its page (of `page_bytes`) is
    /// mapped.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is not a power of two.
    pub fn translate(&self, vaddr: VAddr, page_bytes: u64) -> Option<PAddr> {
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        let shift = page_bytes.trailing_zeros();
        self.lookup(vaddr.vpn(shift))
            .map(|pfn| crate::addr::translate(vaddr, pfn, shift))
    }

    /// Walks the mappings, sorted by virtual page so the bytes never
    /// depend on hash-map iteration order; a restore replaces any
    /// existing mappings.
    pub fn ckpt(&mut self, c: &mut Ckpt<'_>) -> Result<(), CkptError> {
        let mut pairs: Vec<[u64; 2]> = self.map.iter().map(|(&v, &p)| [v, p]).collect();
        pairs.sort_unstable();
        c.list("mapped", &mut pairs, |c, row| c.array("map", row))?;
        if c.loading() {
            self.map = pairs.into_iter().map(|[vpn, pfn]| (vpn, pfn)).collect();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashsim_engine::ckpt::{CkptReader, CkptWriter};

    #[test]
    fn sequential_allocates_in_frame_order() {
        let mut a = FrameAllocator::new(AllocPolicy::Sequential, 1, 64, 4096, 8);
        let f0 = a.alloc(0, 100).unwrap();
        let f1 = a.alloc(0, 7).unwrap();
        let f2 = a.alloc(0, 55).unwrap();
        assert_eq!((f0, f1, f2), (0, 1, 2));
    }

    #[test]
    fn sequential_is_per_node() {
        let mut a = FrameAllocator::new(AllocPolicy::Sequential, 2, 64, 4096, 8);
        assert_eq!(a.alloc(0, 0).unwrap(), 0);
        assert_eq!(a.alloc(1, 1).unwrap(), 64);
        assert_eq!(a.alloc(1, 2).unwrap(), 65);
    }

    #[test]
    fn color_hashed_matches_hash_color_when_free() {
        let mut a = FrameAllocator::new(AllocPolicy::ColorHashed, 1, 256, 4096, 16);
        for vpn in 0..32u64 {
            let pfn = a.alloc(0, vpn).unwrap();
            assert_eq!(pfn % 16, color_hash(vpn) % 16, "vpn {vpn} got wrong colour");
        }
    }

    #[test]
    fn color_hashed_is_deterministic() {
        let mut a = FrameAllocator::new(AllocPolicy::ColorHashed, 1, 256, 4096, 16);
        let mut b = FrameAllocator::new(AllocPolicy::ColorHashed, 1, 256, 4096, 16);
        for vpn in 0..100u64 {
            assert_eq!(a.alloc(0, vpn), b.alloc(0, vpn));
        }
    }

    #[test]
    fn bin_hopping_when_preferred_color_exhausted() {
        // 2 colours x 2 frames each; exhaust everything — all 4 must differ.
        let mut a = FrameAllocator::new(AllocPolicy::ColorHashed, 1, 4, 4096, 2);
        let mut got: Vec<u64> = (0..4u64).map(|v| a.alloc(0, v).unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
        assert_eq!(a.alloc(0, 99), None); // out of memory
    }

    #[test]
    fn sequential_exhaustion_returns_none() {
        let mut a = FrameAllocator::new(AllocPolicy::Sequential, 1, 8, 4096, 8);
        for vpn in 0..8u64 {
            assert!(a.alloc(0, vpn).is_some());
        }
        assert_eq!(a.alloc(0, 8), None);
        assert_eq!(a.allocated(), 8);
    }

    #[test]
    fn page_table_maps_and_translates() {
        let mut pt = PageTable::new();
        assert!(pt.is_empty());
        pt.map(2, 7);
        assert_eq!(pt.lookup(2), Some(7));
        assert_eq!(pt.lookup(3), None);
        assert_eq!(
            pt.translate(VAddr(2 * 4096 + 0x123), 4096),
            Some(PAddr(7 * 4096 + 0x123))
        );
        assert_eq!(pt.translate(VAddr(0), 4096), None);
        assert_eq!(pt.len(), 1);
    }

    #[test]
    #[should_panic(expected = "mapped twice")]
    fn double_map_panics() {
        let mut pt = PageTable::new();
        pt.map(1, 1);
        pt.map(1, 2);
    }

    #[test]
    fn ckpt_roundtrip_preserves_allocation_order() {
        let mut a = FrameAllocator::new(AllocPolicy::ColorHashed, 2, 64, 4096, 8);
        let mut pt = PageTable::new();
        for vpn in 0..20u64 {
            let pfn = a.alloc((vpn % 2) as u32, vpn).unwrap();
            pt.map(vpn, pfn);
        }
        let mut w = CkptWriter::new("page-test");
        a.ckpt(&mut Ckpt::Save(&mut w)).unwrap();
        pt.ckpt(&mut Ckpt::Save(&mut w)).unwrap();
        let text = w.finish();

        let mut b = FrameAllocator::new(AllocPolicy::ColorHashed, 2, 64, 4096, 8);
        let mut pt2 = PageTable::new();
        let mut r = CkptReader::open(&text).expect("open");
        b.ckpt(&mut Ckpt::Load(&mut r)).expect("alloc load");
        pt2.ckpt(&mut Ckpt::Load(&mut r)).expect("pt load");
        r.finish().expect("fully consumed");

        assert_eq!(a.allocated(), b.allocated());
        for vpn in 20..40u64 {
            assert_eq!(
                a.alloc((vpn % 2) as u32, vpn),
                b.alloc((vpn % 2) as u32, vpn)
            );
        }
        for vpn in 0..20u64 {
            assert_eq!(pt.lookup(vpn), pt2.lookup(vpn));
        }

        let mut other = FrameAllocator::new(AllocPolicy::Sequential, 2, 64, 4096, 8);
        let mut r = CkptReader::open(&text).expect("open");
        assert!(matches!(
            other.ckpt(&mut Ckpt::Load(&mut r)),
            Err(CkptError::Parse { .. })
        ));
    }

    #[test]
    fn sequential_aligned_arrays_share_colors_hashed_do_not() {
        // The Ocean mechanism in miniature: two arrays of exactly one "way"
        // of pages each, touched one after the other. Sequential allocation
        // gives array2's page i the same colour as array1's page i
        // (systematic conflicts); hashed colouring decorrelates them.
        let colors = 16u64;
        let mut seq = FrameAllocator::new(AllocPolicy::Sequential, 1, 256, 4096, colors);
        let mut irix = FrameAllocator::new(AllocPolicy::ColorHashed, 1, 256, 4096, colors);

        let seq_a: Vec<u64> = (0..colors)
            .map(|v| seq.alloc(0, v).unwrap() % colors)
            .collect();
        let seq_b: Vec<u64> = (1000..1000 + colors)
            .map(|v| seq.alloc(0, v).unwrap() % colors)
            .collect();
        assert_eq!(seq_a, seq_b, "sequential: same colour sequence = conflicts");

        let irix_a: Vec<u64> = (0..colors)
            .map(|v| irix.alloc(0, v).unwrap() % colors)
            .collect();
        let irix_b: Vec<u64> = (1000..1000 + colors)
            .map(|v| irix.alloc(0, v).unwrap() % colors)
            .collect();
        let same = irix_a
            .iter()
            .zip(irix_b.iter())
            .filter(|(x, y)| x == y)
            .count();
        assert!(
            same < colors as usize / 2,
            "hashed colouring should decorrelate arrays ({same}/{colors} matched)"
        );
    }
}
