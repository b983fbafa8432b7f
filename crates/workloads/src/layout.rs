//! Shared workload plumbing: problem sizes (Table 2), address layout
//! helpers, and the scaling story.
//!
//! The paper's problem sizes (Table 2) target a machine with a 2 MB
//! secondary cache and a 64-entry TLB. The default experiment geometry in
//! this workspace is the 1/8-scale machine (`MachineGeometry::scaled`:
//! 256 KB L2, 16-entry TLB), so each workload also defines a
//! proportionally scaled size that preserves the regimes the paper's
//! findings live in — dataset ≫ L2, transpose/permutation footprints ≫
//! TLB reach, block sizes matched to the L1. [`ProblemScale`] selects
//! between them; `Tiny` exists for fast unit tests only and is not used
//! for any reported experiment.

use flashsim_isa::VAddr;

/// Which size class a workload instance uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProblemScale {
    /// The paper's Table-2 size, for the full-size FLASH geometry.
    Full,
    /// The 1/8-scale size matched to `MachineGeometry::scaled`.
    Scaled,
    /// A minimal size for unit tests.
    Tiny,
}

/// One row of the paper's Table 2 plus our scaled equivalents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table2Row {
    /// Application name.
    pub app: &'static str,
    /// The paper's problem size description.
    pub paper: &'static str,
    /// Our scaled problem size description.
    pub scaled: &'static str,
}

/// The Table-2 problem-size inventory.
pub fn table2() -> Vec<Table2Row> {
    vec![
        Table2Row {
            app: "FFT",
            paper: "1M points",
            scaled: "64K points (256x256 matrix)",
        },
        Table2Row {
            app: "Radix-Sort",
            paper: "2M keys",
            scaled: "256K keys",
        },
        Table2Row {
            app: "Ocean",
            paper: "514x514 grid",
            scaled: "128x128 grids (way-aligned, see EXPERIMENTS.md)",
        },
        Table2Row {
            app: "LU",
            paper: "768x768 matrix, 16x16 blocks",
            scaled: "192x192 matrix, 16x16 blocks",
        },
    ]
}

/// Segment base addresses: generously separated so workloads never
/// overlap and every array starts page- and colour-aligned (which is
/// itself part of the page-colouring story — see `flashsim-mem::page`).
pub const SEG_A: VAddr = VAddr(0x1000_0000);
/// Second array base.
pub const SEG_B: VAddr = VAddr(0x2000_0000);
/// Third array base.
pub const SEG_C: VAddr = VAddr(0x3000_0000);
/// Fourth array base.
pub const SEG_D: VAddr = VAddr(0x4000_0000);
/// Scratch/auxiliary base.
pub const SEG_E: VAddr = VAddr(0x5000_0000);

/// Bytes per complex double (re, im).
pub const COMPLEX_BYTES: u64 = 16;

/// Rounds `bytes` up to whole pages.
pub fn page_round(bytes: u64, page_bytes: u64) -> u64 {
    bytes.div_ceil(page_bytes) * page_bytes
}

/// Splits `items` across `threads`, returning thread `tid`'s half-open
/// item range. Earlier threads get the remainder.
pub fn block_range(items: u64, threads: usize, tid: usize) -> (u64, u64) {
    let threads = threads as u64;
    let tid = tid as u64;
    let base = items / threads;
    let rem = items % threads;
    let start = tid * base + tid.min(rem);
    let len = base + u64::from(tid < rem);
    (start, start + len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_lists_all_four_apps() {
        let rows = table2();
        let apps: Vec<_> = rows.iter().map(|r| r.app).collect();
        assert_eq!(apps, vec!["FFT", "Radix-Sort", "Ocean", "LU"]);
        assert!(rows
            .iter()
            .all(|r| !r.paper.is_empty() && !r.scaled.is_empty()));
    }

    #[test]
    fn page_round_rounds_up() {
        assert_eq!(page_round(1, 4096), 4096);
        assert_eq!(page_round(4096, 4096), 4096);
        assert_eq!(page_round(4097, 4096), 8192);
        assert_eq!(page_round(0, 4096), 0);
    }

    #[test]
    fn block_range_partitions_exactly() {
        for items in [10u64, 16, 17, 1000] {
            for threads in [1usize, 2, 3, 4, 16] {
                let mut covered = 0;
                let mut prev_end = 0;
                for tid in 0..threads {
                    let (s, e) = block_range(items, threads, tid);
                    assert_eq!(s, prev_end, "ranges must be contiguous");
                    prev_end = e;
                    covered += e - s;
                }
                assert_eq!(covered, items);
                assert_eq!(prev_end, items);
            }
        }
    }

    #[test]
    fn segment_bases_are_distinct_and_aligned() {
        let bases = [SEG_A, SEG_B, SEG_C, SEG_D, SEG_E];
        for w in bases.windows(2) {
            assert!(w[0] < w[1]);
        }
        for b in bases {
            assert_eq!(b.get() % 4096, 0);
        }
    }
}
