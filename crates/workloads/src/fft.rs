//! The SPLASH-2 FFT kernel (six-step, blocked transposes).
//!
//! √N×√N matrix of complex doubles; the parallel section is
//! transpose → per-row FFTs → twiddle scaling → transpose → per-row FFTs
//! → transpose, with barriers between phases and hand-inserted prefetches
//! in the transposes (the paper's binaries prefetch and place data).
//!
//! The tuning knob from §3.1.2 is [`FftBlocking`]: the original SPLASH-2
//! recommendation blocks the transpose for the primary cache, which at
//! Table-2 size produces "a TLB miss on every store during the transpose
//! phase"; re-blocking for the TLB bought 14 % uniprocessor and 16 %
//! four-processor improvements on the real machine. Figures 1→2 are
//! exactly this change.

use crate::layout::{block_range, page_round, ProblemScale, COMPLEX_BYTES, SEG_A, SEG_B, SEG_C};
use flashsim_isa::{OpClass, Placement, Program, Segment, Sink, VAddr};

/// Transpose blocking policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FftBlocking {
    /// Blocked for the primary data cache (the original SPLASH-2 advice;
    /// TLB-hostile at full problem size).
    Cache,
    /// Blocked for the TLB (the paper's fix).
    Tlb,
}

/// The FFT workload.
#[derive(Debug, Clone)]
pub struct Fft {
    n: u64, // matrix dimension (sqrt of the point count)
    threads: usize,
    blocking: FftBlocking,
    page_bytes: u64,
}

impl Fft {
    /// Creates an FFT over `points` points (must be a power of four so
    /// the matrix is square with power-of-two sides).
    ///
    /// # Panics
    ///
    /// Panics if `points` is not a power of four or `threads` is zero.
    pub fn new(points: u64, threads: usize, blocking: FftBlocking) -> Fft {
        assert!(threads > 0);
        assert!(
            points.is_power_of_two() && points.trailing_zeros().is_multiple_of(2),
            "FFT needs a power-of-four point count, got {points}"
        );
        let n = 1u64 << (points.trailing_zeros() / 2);
        assert!(n >= 4, "FFT too small");
        Fft {
            n,
            threads,
            blocking,
            page_bytes: 4096,
        }
    }

    /// The paper/scaled/test sizes.
    pub fn sized(scale: ProblemScale, threads: usize, blocking: FftBlocking) -> Fft {
        let points = match scale {
            ProblemScale::Full => 1 << 20,   // 1M points (Table 2)
            ProblemScale::Scaled => 1 << 16, // 64K points
            ProblemScale::Tiny => 1 << 12,   // 4K points
        };
        Fft::new(points, threads, blocking)
    }

    /// Matrix dimension √N.
    pub fn dim(&self) -> u64 {
        self.n
    }

    fn row_bytes(&self) -> u64 {
        self.n * COMPLEX_BYTES
    }

    fn matrix_bytes(&self) -> u64 {
        page_round(self.n * self.row_bytes(), self.page_bytes)
    }

    fn addr(&self, base: VAddr, row: u64, col: u64) -> VAddr {
        base.offset(row * self.row_bytes() + col * COMPLEX_BYTES)
    }

    /// Transpose block size in elements.
    fn block(&self) -> u64 {
        match self.blocking {
            // Tile sized for a small L1: 16x16 complex = 4KB.
            FftBlocking::Cache => 16.min(self.n),
            // Tile sized so the active page set fits a small TLB.
            FftBlocking::Tlb => 4.min(self.n),
        }
    }

    /// Emits a blocked transpose `dst[j][i] = src[i][j]` for this
    /// thread's share of tiles.
    ///
    /// Loop order differs by blocking policy: cache blocking iterates
    /// source-row-major (good L1 reuse, catastrophic TLB footprint on the
    /// destination); TLB blocking iterates destination-row-major so the
    /// active destination page set stays bounded.
    fn transpose(&self, sink: &mut Sink, tid: usize, src: VAddr, dst: VAddr) {
        let b = self.block();
        let tiles = self.n / b;
        let (t0, t1) = block_range(tiles, self.threads, tid);
        // Deep prefetch: remote source lines take microseconds; the
        // SPLASH-2 transpose therefore prefetches several tiles ahead so
        // the 4 outstanding slots stream the next tiles' lines while the
        // current tile is permuted.
        const PREFETCH_TILES: u64 = 2;
        for outer in t0..t1 {
            for inner_raw in 0..tiles {
                // Stagger each thread's walk (as the SPLASH-2 transpose
                // does): thread t starts at its own patch and proceeds
                // round-robin, so the threads do not convoy on one home
                // node's controller.
                let inner = (inner_raw + t0) % tiles;
                let (bi, bj) = match self.blocking {
                    FftBlocking::Cache => (outer, inner),
                    FftBlocking::Tlb => (inner, outer),
                };
                let ahead = inner + PREFETCH_TILES;
                if ahead < tiles {
                    let (pi, pj) = match self.blocking {
                        FftBlocking::Cache => (outer, ahead),
                        FftBlocking::Tlb => (ahead, outer),
                    };
                    for i in 0..b {
                        sink.prefetch(self.addr(src, pi * b + i, pj * b));
                    }
                }
                for i in 0..b {
                    let row = bi * b + i;
                    for j in 0..b {
                        let col = bj * b + j;
                        if j % 2 == 0 {
                            sink.prefetch(self.addr(dst, col, row));
                        }
                        let v = sink.load(self.addr(src, row, col));
                        sink.store_dep(self.addr(dst, col, row), flashsim_isa::Reg::ZERO, v);
                    }
                    sink.loop_branch(1);
                }
            }
        }
    }

    /// Emits this thread's share of per-row FFTs on `mat` (in place):
    /// `log2(n)` stages of `n/2` butterflies each. A butterfly loads both
    /// complex operands (re+im each), multiplies by the twiddle (4 FP
    /// mul + 2 add for a complex product), adds/subtracts, stores both
    /// results, and does the index arithmetic a compiled loop would.
    fn row_ffts(&self, sink: &mut Sink, tid: usize, mat: VAddr) {
        let (r0, r1) = block_range(self.n, self.threads, tid);
        let stages = self.n.trailing_zeros() as u64;
        for row in r0..r1 {
            sink.prefetch(self.addr(mat, row, 0));
            for stage in 0..stages {
                let half = 1u64 << stage;
                let step = half * 2;
                let mut group = 0;
                while group < self.n {
                    for p in 0..half {
                        let i = group + p;
                        let j = i + half;
                        // Index/address arithmetic of the inner loop.
                        sink.alu(2);
                        // First walk of the row (stage 0): prefetch ahead.
                        if stage == 0 && i % 2 == 0 && i + 8 < self.n {
                            sink.prefetch(self.addr(mat, row, i + 8));
                        }
                        // Complex loads: (re, im) for both points.
                        let ar = sink.load(self.addr(mat, row, i));
                        let ai = sink.load(self.addr(mat, row, i).offset(8));
                        let br = sink.load(self.addr(mat, row, j));
                        let bi = sink.load(self.addr(mat, row, j).offset(8));
                        // Complex twiddle product: 4 mul + 2 add.
                        let m1 = sink.next_reg();
                        sink.push(flashsim_isa::Op::compute(OpClass::FpMul, m1, br, br));
                        let m2 = sink.next_reg();
                        sink.push(flashsim_isa::Op::compute(OpClass::FpMul, m2, bi, bi));
                        let m3 = sink.next_reg();
                        sink.push(flashsim_isa::Op::compute(OpClass::FpMul, m3, br, bi));
                        let m4 = sink.next_reg();
                        sink.push(flashsim_isa::Op::compute(OpClass::FpMul, m4, bi, br));
                        let tr = sink.next_reg();
                        sink.push(flashsim_isa::Op::compute(OpClass::FpAdd, tr, m1, m2));
                        let ti = sink.next_reg();
                        sink.push(flashsim_isa::Op::compute(OpClass::FpAdd, ti, m3, m4));
                        // Butterfly add/sub on re and im.
                        let sr = sink.next_reg();
                        sink.push(flashsim_isa::Op::compute(OpClass::FpAdd, sr, ar, tr));
                        let si = sink.next_reg();
                        sink.push(flashsim_isa::Op::compute(OpClass::FpAdd, si, ai, ti));
                        let dr = sink.next_reg();
                        sink.push(flashsim_isa::Op::compute(OpClass::FpAdd, dr, ar, tr));
                        let di = sink.next_reg();
                        sink.push(flashsim_isa::Op::compute(OpClass::FpAdd, di, ai, ti));
                        sink.store_dep(self.addr(mat, row, i), flashsim_isa::Reg::ZERO, sr);
                        sink.store_dep(
                            self.addr(mat, row, i).offset(8),
                            flashsim_isa::Reg::ZERO,
                            si,
                        );
                        sink.store_dep(self.addr(mat, row, j), flashsim_isa::Reg::ZERO, dr);
                        sink.store_dep(
                            self.addr(mat, row, j).offset(8),
                            flashsim_isa::Reg::ZERO,
                            di,
                        );
                    }
                    sink.loop_branch(2);
                    group += step;
                }
            }
        }
    }

    /// Twiddle-factor scaling pass over this thread's rows.
    fn twiddle(&self, sink: &mut Sink, tid: usize, mat: VAddr) {
        let (r0, r1) = block_range(self.n, self.threads, tid);
        for row in r0..r1 {
            for col in 0..self.n {
                if col % 2 == 0 && col + 8 < self.n {
                    sink.prefetch(self.addr(mat, row, col + 8));
                }
                let v = sink.load(self.addr(mat, row, col));
                let w = sink.next_reg();
                sink.push(flashsim_isa::Op::compute(OpClass::FpMul, w, v, v));
                let x = sink.next_reg();
                sink.push(flashsim_isa::Op::compute(OpClass::FpAdd, x, w, v));
                sink.store_dep(self.addr(mat, row, col), flashsim_isa::Reg::ZERO, x);
            }
            sink.loop_branch(3);
        }
    }
}

impl Program for Fft {
    fn name(&self) -> String {
        format!("fft-{}k-{:?}", (self.n * self.n) >> 10, self.blocking)
    }

    fn num_threads(&self) -> usize {
        self.threads
    }

    fn segments(&self) -> Vec<Segment> {
        vec![
            Segment::new("matrix", SEG_A, self.matrix_bytes(), Placement::Blocked),
            Segment::new("trans", SEG_B, self.matrix_bytes(), Placement::Blocked),
            Segment::new("twiddles", SEG_C, self.matrix_bytes(), Placement::Blocked),
        ]
    }

    fn thread_body(&self, tid: usize) -> Box<dyn FnOnce(&mut Sink) + Send + 'static> {
        let fft = self.clone();
        Box::new(move |sink| {
            // Init: each thread touches its row block of both matrices
            // (first-touch placement, as the placed SPLASH-2 codes do).
            let (r0, r1) = block_range(fft.n, fft.threads, tid);
            for row in r0..r1 {
                for col in (0..fft.n).step_by(2) {
                    sink.store(fft.addr(SEG_A, row, col));
                    sink.store(fft.addr(SEG_B, row, col));
                    sink.store(fft.addr(SEG_C, row, col));
                }
                sink.alu(4);
            }
            sink.barrier(); // barrier 0: timing starts here

            // Six-step FFT.
            fft.transpose(sink, tid, SEG_A, SEG_B);
            sink.barrier();
            fft.row_ffts(sink, tid, SEG_B);
            sink.barrier();
            fft.twiddle(sink, tid, SEG_B);
            sink.barrier();
            fft.transpose(sink, tid, SEG_B, SEG_A);
            sink.barrier();
            fft.row_ffts(sink, tid, SEG_A);
            sink.barrier();
            fft.transpose(sink, tid, SEG_A, SEG_B);
            sink.barrier();
        })
    }

    fn timing_barrier(&self) -> Option<u32> {
        Some(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashsim_isa::OpClass;
    use std::collections::HashSet;

    #[test]
    fn sizes_match_table2() {
        let full = Fft::sized(ProblemScale::Full, 1, FftBlocking::Cache);
        assert_eq!(full.dim() * full.dim(), 1 << 20);
        let scaled = Fft::sized(ProblemScale::Scaled, 1, FftBlocking::Cache);
        assert_eq!(scaled.dim(), 256);
    }

    #[test]
    #[should_panic(expected = "power-of-four")]
    fn odd_sizes_rejected() {
        Fft::new(1 << 13, 1, FftBlocking::Cache);
    }

    #[test]
    fn streams_have_same_length_for_both_blockings() {
        // Blocking changes the ORDER of transpose accesses, not the work.
        let a: u64 = Fft::sized(ProblemScale::Tiny, 1, FftBlocking::Cache)
            .stream(0)
            .filter(|o| o.class == OpClass::Store)
            .count() as u64;
        let b: u64 = Fft::sized(ProblemScale::Tiny, 1, FftBlocking::Tlb)
            .stream(0)
            .filter(|o| o.class == OpClass::Store)
            .count() as u64;
        assert_eq!(a, b);
    }

    #[test]
    fn transpose_is_a_permutation_of_addresses() {
        let fft = Fft::sized(ProblemScale::Tiny, 1, FftBlocking::Cache);
        // Collect transpose-phase stores (between barriers 0 and 1).
        let mut stores = HashSet::new();
        let mut barrier_count = 0;
        for op in fft.stream(0) {
            match op.class {
                OpClass::Barrier => barrier_count += 1,
                OpClass::Store if barrier_count == 1 => {
                    stores.insert(op.addr);
                }
                _ => {}
            }
        }
        let n = fft.dim();
        assert_eq!(stores.len() as u64, n * n, "every element written once");
        for row in 0..n {
            for col in 0..n {
                assert!(stores.contains(&fft.addr(SEG_B, row, col)));
            }
        }
    }

    #[test]
    fn cache_blocking_touches_more_pages_per_window_than_tlb_blocking() {
        // The §3.1.2 pathology: count distinct destination pages in a
        // sliding window of 512 transpose stores.
        let window_pages = |blocking: FftBlocking| -> usize {
            let fft = Fft::sized(ProblemScale::Tiny, 1, blocking);
            let mut barrier_count = 0;
            let mut window = Vec::new();
            let mut worst = 0;
            for op in fft.stream(0) {
                match op.class {
                    OpClass::Barrier => barrier_count += 1,
                    OpClass::Store if barrier_count == 1 => {
                        window.push(op.addr.vpn(12));
                        if window.len() > 512 {
                            window.remove(0);
                        }
                        let distinct: HashSet<_> = window.iter().collect();
                        worst = worst.max(distinct.len());
                    }
                    _ => {}
                }
            }
            worst
        };
        let cache = window_pages(FftBlocking::Cache);
        let tlb = window_pages(FftBlocking::Tlb);
        assert!(
            cache > tlb,
            "cache blocking ({cache} pages) must stress the TLB more than TLB blocking ({tlb})"
        );
    }

    #[test]
    fn threads_partition_the_work() {
        let p = 4;
        let fft = Fft::sized(ProblemScale::Tiny, p, FftBlocking::Tlb);
        let counts: Vec<usize> = (0..p).map(|t| fft.stream(t).count()).collect();
        let total: usize = counts.iter().sum();
        let uni: usize = Fft::sized(ProblemScale::Tiny, 1, FftBlocking::Tlb)
            .stream(0)
            .count();
        // Same total work modulo per-thread barriers/prefetch framing.
        let slack = total / 10;
        assert!(
            (total as i64 - uni as i64).unsigned_abs() as usize <= slack,
            "4-thread total {total} far from uniprocessor {uni}"
        );
        for c in &counts {
            assert!(*c > 0);
        }
    }

    #[test]
    fn all_threads_emit_identical_barrier_sequences() {
        let p = 3;
        let fft = Fft::sized(ProblemScale::Tiny, p, FftBlocking::Cache);
        let barrier_ids = |t: usize| -> Vec<u32> {
            fft.stream(t)
                .filter(|o| o.class == OpClass::Barrier)
                .map(|o| o.id)
                .collect()
        };
        let b0 = barrier_ids(0);
        assert_eq!(b0, (0..b0.len() as u32).collect::<Vec<_>>());
        for t in 1..p {
            assert_eq!(barrier_ids(t), b0);
        }
    }

    #[test]
    fn addresses_stay_within_segments() {
        let fft = Fft::sized(ProblemScale::Tiny, 2, FftBlocking::Cache);
        let segs = fft.segments();
        for t in 0..2 {
            for op in fft.stream(t) {
                if op.class.is_memory() {
                    assert!(
                        segs.iter().any(|s| s.contains(op.addr)),
                        "address {} outside all segments",
                        op.addr
                    );
                }
            }
        }
    }
}
