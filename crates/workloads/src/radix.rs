//! The SPLASH-2 Radix-Sort kernel.
//!
//! Counting sort over key digits: per pass, each thread histograms its key
//! block (digit extraction is the integer multiply/divide traffic the
//! paper calls out in §3.1.3), the threads cooperatively prefix-sum the
//! histograms (all-to-all reads), and then each thread *scatters* its keys
//! into the destination array at their global ranks.
//!
//! Two paper knobs live here:
//!
//! - **radix**: "Radix-Sort has traditionally been run with a large radix
//!   to reduce overhead. This causes a pathological number of TLB misses"
//!   (§3.1.2): the scatter writes into `radix` destination regions at
//!   once, so a radix larger than the TLB thrashes on every store.
//!   Reducing the radix from 256 to 32 bought 31 %/34 % on the hardware —
//!   the Figure 1→2 fix.
//! - **placement** ([`Radix::unplaced`]): the §3.3 hotspot study disables
//!   data placement so every array lives on node 0, creating the memory
//!   hotspot of Figure 7.

use crate::layout::{block_range, page_round, ProblemScale, SEG_A, SEG_B, SEG_C, SEG_D};
use flashsim_isa::{Placement, Program, Reg, Segment, Sink, VAddr};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, Weak};

const KEY_BYTES: u64 = 8;
const PASSES: u32 = 2;

fn key_value(seed: u64, index: u64) -> u64 {
    // SplitMix64 finalizer: stateless deterministic keys.
    let mut z = (index ^ seed).wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// One pass planned for every thread block: what each generator needs to
/// name its keys' digits and destinations without sorting anything.
#[derive(Debug)]
struct PassPlan {
    /// The digit of the pass of the key at each index entering it.
    digits: Vec<u16>,
    /// Per thread block, per digit: where the block's first key of that
    /// digit lands (each later key of a digit lands one slot after the
    /// previous one).
    first: Vec<u64>,
}

/// Every pass's plan, each built by the first generator that reaches it.
#[derive(Debug, Default)]
struct Plans([OnceLock<PassPlan>; PASSES as usize]);

/// The Radix-Sort workload.
#[derive(Debug, Clone)]
pub struct Radix {
    keys: u64,
    radix: u64,
    threads: usize,
    placed: bool,
    seed: u64,
    /// The plans the generators of a run share, while one holds them.
    plans: Arc<Mutex<Weak<Plans>>>,
}

impl Radix {
    /// Creates a sort of `keys` keys with the given `radix`.
    ///
    /// # Panics
    ///
    /// Panics unless `keys` and `radix` are powers of two, `2 ≤ radix ≤
    /// 2¹⁶` (a digit is planned as a `u16`), and `threads` divides into
    /// the key count.
    pub fn new(keys: u64, radix: u64, threads: usize, placed: bool) -> Radix {
        assert!(keys.is_power_of_two() && radix.is_power_of_two());
        assert!((2..=1 << 16).contains(&radix));
        assert!(threads > 0 && keys >= threads as u64);
        Radix {
            keys,
            radix,
            threads,
            placed,
            seed: 0x5eed_4a11,
            plans: Arc::default(),
        }
    }

    /// The paper's Table-2 size (or its scaled equivalent) with the
    /// traditional large radix of 256 — the TLB-hostile configuration.
    pub fn untuned(scale: ProblemScale, threads: usize) -> Radix {
        Radix::new(Self::keys_for(scale), 256, threads, true)
    }

    /// The TLB-blocking fix: radix reduced so the scatter's active page
    /// set fits the (scaled) TLB — 32 at full scale, as in the paper.
    pub fn tuned(scale: ProblemScale, threads: usize) -> Radix {
        let radix = match scale {
            ProblemScale::Full => 32,
            // The scaled TLB has 16 entries; the scatter's active set
            // (radix regions + source + histograms) must fit it, so the
            // scaled fix is radix 8 (full scale: 32 of 64, as the paper).
            ProblemScale::Scaled => 8,
            ProblemScale::Tiny => 8,
        };
        Radix::new(Self::keys_for(scale), radix, threads, true)
    }

    /// The Figure-7 hotspot configuration: tuned radix, placement off
    /// (all data on node 0).
    pub fn unplaced(scale: ProblemScale, threads: usize) -> Radix {
        let mut r = Radix::tuned(scale, threads);
        r.placed = false;
        r
    }

    fn keys_for(scale: ProblemScale) -> u64 {
        match scale {
            ProblemScale::Full => 2 << 20, // 2M keys (Table 2)
            ProblemScale::Scaled => 256 << 10,
            ProblemScale::Tiny => 16 << 10,
        }
    }

    /// Key count.
    pub fn keys(&self) -> u64 {
        self.keys
    }

    /// Radix.
    pub fn radix(&self) -> u64 {
        self.radix
    }

    fn digit_bits(&self) -> u32 {
        self.radix.trailing_zeros()
    }

    fn digit(&self, key: u64, pass: u32) -> u64 {
        (key >> (pass * self.digit_bits())) % self.radix
    }

    fn array_bytes(&self) -> u64 {
        page_round(self.keys * KEY_BYTES, 4096)
    }

    /// Histogram/offset entries are padded to a full coherence line, as
    /// the SPLASH-2 sources pad shared counters — without this, threads'
    /// counters false-share lines and every increment ping-pongs.
    const COUNTER_STRIDE: u64 = 128;

    fn hist_bytes(&self) -> u64 {
        page_round(
            self.threads as u64 * self.radix * Self::COUNTER_STRIDE,
            4096,
        )
    }

    fn key_addr(&self, base: VAddr, index: u64) -> VAddr {
        base.offset(index * KEY_BYTES)
    }

    fn hist_addr(&self, base: VAddr, thread: u64, digit: u64) -> VAddr {
        base.offset((thread * self.radix + digit) * Self::COUNTER_STRIDE)
    }

    /// The plans of the run whose generators are being handed out: the
    /// ones a live generator still holds, else a fresh set. They are
    /// dropped with the last generator holding them, so no plan outlives
    /// its run.
    fn shared_plans(&self) -> Arc<Plans> {
        let mut slot = self.plans.lock().unwrap_or_else(PoisonError::into_inner);
        slot.upgrade().unwrap_or_else(|| {
            let plans = Arc::default();
            *slot = Arc::downgrade(&plans);
            plans
        })
    }

    /// Plans `pass` for every thread block from the seed alone: the digit
    /// of each key the array holds entering `pass`, and each block's first
    /// destination per digit. One plan serves every generator of a run,
    /// keeping streams deterministic with no other cross-thread
    /// communication.
    ///
    /// Earlier passes are LSD counting sorts, so the key at index `i`
    /// enters `pass` at its stable rank by its low `pass` digits: two
    /// streams over the keys with one counter per low-digit value (the
    /// radix itself for the second pass) place it without materialising
    /// the arrangement.
    fn plan(&self, pass: u32) -> PassPlan {
        let low = |key: u64| (key & ((1 << (pass * self.digit_bits())) - 1)) as usize;
        let keys = || (0..self.keys).map(|i| key_value(self.seed, i));
        // rank[v]: where the next key whose low digits are `v` enters `pass`.
        let mut rank = vec![0u64; 1 << (pass * self.digit_bits())];
        for key in keys() {
            rank[low(key)] += 1;
        }
        let mut acc = 0;
        for r in &mut rank {
            (*r, acc) = (acc, acc + *r);
        }
        let mut digits = vec![0u16; self.keys as usize];
        for key in keys() {
            let r = &mut rank[low(key)];
            digits[*r as usize] = self.digit(key, pass) as u16;
            *r += 1;
        }
        // next[d]: where the next key of digit `d` lands, block by block.
        let mut next = vec![0u64; self.radix as usize];
        for &d in &digits {
            next[usize::from(d)] += 1;
        }
        let mut acc = 0;
        for n in &mut next {
            (*n, acc) = (acc, acc + *n);
        }
        let mut first = Vec::with_capacity(self.threads * next.len());
        for tid in 0..self.threads {
            first.extend_from_slice(&next);
            let (k0, k1) = block_range(self.keys, self.threads, tid);
            for &d in &digits[k0 as usize..k1 as usize] {
                next[usize::from(d)] += 1;
            }
        }
        PassPlan { digits, first }
    }
}

impl Program for Radix {
    fn name(&self) -> String {
        format!(
            "radix-{}k-r{}{}",
            self.keys >> 10,
            self.radix,
            if self.placed { "" } else { "-unplaced" }
        )
    }

    fn num_threads(&self) -> usize {
        self.threads
    }

    fn seed(&self) -> Option<u64> {
        Some(self.seed)
    }

    fn segments(&self) -> Vec<Segment> {
        let data = if self.placed {
            Placement::Blocked
        } else {
            Placement::Node(0)
        };
        vec![
            Segment::new("src", SEG_A, self.array_bytes(), data),
            Segment::new("dst", SEG_B, self.array_bytes(), data),
            Segment::new("hist", SEG_C, self.hist_bytes(), data),
            Segment::new("offsets", SEG_D, self.hist_bytes(), data),
        ]
    }

    fn thread_body(&self, tid: usize) -> Box<dyn FnOnce(&mut Sink) + Send + 'static> {
        let rx = self.clone();
        let plans = self.shared_plans();
        Box::new(move |sink| {
            let t = tid as u64;
            let (k0, k1) = block_range(rx.keys, rx.threads, tid);

            // Init: write my key block and zero my histogram row.
            for i in k0..k1 {
                sink.store(rx.key_addr(SEG_A, i));
            }
            for d in 0..rx.radix {
                sink.store(rx.hist_addr(SEG_C, t, d));
            }
            sink.barrier(); // barrier 0: timing starts

            let mut src = SEG_A;
            let mut dst = SEG_B;
            for pass in 0..PASSES {
                let plan = plans.0[pass as usize].get_or_init(|| rx.plan(pass));
                let radix = rx.radix as usize;
                let mut dest = plan.first[tid * radix..][..radix].to_vec();

                // Histogram: load key, extract the digit (a multiply in
                // the radix arithmetic plus shift/mask work), bump count.
                for i in k0..k1 {
                    sink.alu(6); // induction/address/masking arithmetic
                    if i % 16 == 0 {
                        sink.prefetch(rx.key_addr(src, (i + 32).min(rx.keys - 1)));
                    }
                    let k = sink.load(rx.key_addr(src, i));
                    let d = sink.mul(k, Reg::ZERO);
                    let digit = u64::from(plan.digits[i as usize]);
                    let c = sink.load_dep(rx.hist_addr(SEG_C, t, digit), d);
                    let c2 = sink.chain(flashsim_isa::OpClass::IntAlu, 1, c);
                    sink.store_dep(rx.hist_addr(SEG_C, t, digit), d, c2);
                    sink.loop_branch(10 + pass);
                }
                sink.barrier();

                // Prefix sum: each thread owns a digit range and reads
                // every thread's count for it (all-to-all communication).
                let (d0, d1) = block_range(rx.radix, rx.threads, tid);
                for d in d0..d1 {
                    let mut acc = Reg::ZERO;
                    for q in 0..rx.threads as u64 {
                        // Staggered: start from my own row to avoid
                        // convoying on thread 0's node.
                        let p = (q + t) % rx.threads as u64;
                        let c = sink.load(rx.hist_addr(SEG_C, p, d));
                        let s = sink.next_reg();
                        sink.push(flashsim_isa::Op::compute(
                            flashsim_isa::OpClass::IntAlu,
                            s,
                            acc,
                            c,
                        ));
                        acc = s;
                        sink.store_dep(rx.hist_addr(SEG_D, p, d), Reg::ZERO, acc);
                    }
                    sink.loop_branch(20 + pass);
                }
                sink.barrier();

                // Permutation: scatter my keys to their global ranks (the
                // rank arithmetic divides — the paper's high-latency
                // integer ops live here).
                for i in k0..k1 {
                    sink.alu(9); // induction/address/rank arithmetic
                    if i % 16 == 0 {
                        sink.prefetch(rx.key_addr(src, (i + 32).min(rx.keys - 1)));
                    }
                    let k = sink.load(rx.key_addr(src, i));
                    let d = sink.div(k, Reg::ZERO); // rank/digit division
                    let digit = u64::from(plan.digits[i as usize]);
                    let off = sink.load_dep(rx.hist_addr(SEG_D, t, digit), d);
                    let pos = sink.chain(flashsim_isa::OpClass::IntAlu, 1, off);
                    let to = &mut dest[digit as usize];
                    sink.store_dep(rx.key_addr(dst, *to), pos, k);
                    *to += 1;
                    sink.store_dep(rx.hist_addr(SEG_D, t, digit), d, pos);
                    sink.loop_branch(30 + pass);
                }
                sink.barrier();
                std::mem::swap(&mut src, &mut dst);
            }
        })
    }

    fn timing_barrier(&self) -> Option<u32> {
        Some(0)
    }
}

#[cfg(test)]
impl Radix {
    /// The test oracle for [`Radix::plan`]: the full key
    /// arrangement entering `pass` and each key's destination index, by
    /// running the earlier passes' counting sorts over all keys.
    fn plan_pass(&self, pass: u32) -> (Vec<u64>, Vec<u64>) {
        let n = self.keys as usize;
        // Key values as arranged at the start of `pass`.
        let mut current: Vec<u64> = (0..self.keys).map(|i| key_value(self.seed, i)).collect();
        for p in 0..pass {
            let mut counts = vec![0u64; self.radix as usize];
            for &k in &current {
                counts[self.digit(k, p) as usize] += 1;
            }
            let mut offsets = vec![0u64; self.radix as usize];
            let mut acc = 0;
            for d in 0..self.radix as usize {
                offsets[d] = acc;
                acc += counts[d];
            }
            let mut next = vec![0u64; n];
            for &k in &current {
                let d = self.digit(k, p) as usize;
                next[offsets[d] as usize] = k;
                offsets[d] += 1;
            }
            current = next;
        }
        // Destinations for this pass.
        let mut counts = vec![0u64; self.radix as usize];
        for &k in &current {
            counts[self.digit(k, pass) as usize] += 1;
        }
        let mut offsets = vec![0u64; self.radix as usize];
        let mut acc = 0;
        for d in 0..self.radix as usize {
            offsets[d] = acc;
            acc += counts[d];
        }
        let dest: Vec<u64> = current
            .iter()
            .map(|&k| {
                let d = self.digit(k, pass) as usize;
                let pos = offsets[d];
                offsets[d] += 1;
                pos
            })
            .collect();
        (current, dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashsim_isa::OpClass;
    use std::collections::HashSet;

    #[test]
    fn sizes_match_table2() {
        assert_eq!(Radix::untuned(ProblemScale::Full, 1).keys(), 2 << 20);
        assert_eq!(Radix::untuned(ProblemScale::Full, 1).radix(), 256);
        assert_eq!(Radix::tuned(ProblemScale::Full, 1).radix(), 32);
        assert_eq!(Radix::tuned(ProblemScale::Scaled, 1).keys(), 256 << 10);
    }

    #[test]
    fn plan_pass_is_a_stable_sort_by_digit() {
        let rx = Radix::new(1 << 10, 16, 1, true);
        let (keys, dest) = rx.plan_pass(0);
        // Destinations are a permutation.
        let set: HashSet<_> = dest.iter().collect();
        assert_eq!(set.len(), keys.len());
        // After applying, keys are ordered by digit 0.
        let mut sorted = vec![0u64; keys.len()];
        for (i, &pos) in dest.iter().enumerate() {
            sorted[pos as usize] = keys[i];
        }
        for w in sorted.windows(2) {
            assert!(rx.digit(w[0], 0) <= rx.digit(w[1], 0));
        }
    }

    #[test]
    fn second_pass_completes_the_sort_by_low_bits() {
        let rx = Radix::new(1 << 8, 4, 1, true);
        let (keys1, dest1) = rx.plan_pass(1);
        let mut sorted = vec![0u64; keys1.len()];
        for (i, &pos) in dest1.iter().enumerate() {
            sorted[pos as usize] = keys1[i];
        }
        let bits = 2 * rx.digit_bits();
        let mask = (1u64 << bits) - 1;
        for w in sorted.windows(2) {
            assert!(w[0] & mask <= w[1] & mask, "two-pass radix sort broken");
        }
    }

    #[test]
    fn block_plans_match_the_whole_array_oracle() {
        for (keys, radix) in [(1 << 12, 16), (1 << 10, 256)] {
            for threads in [1, 2, 4, 16] {
                let rx = Radix::new(keys, radix, threads, true);
                let plans = rx.shared_plans();
                for pass in 0..PASSES {
                    let (arranged, dest) = rx.plan_pass(pass);
                    let plan = plans.0[pass as usize].get_or_init(|| rx.plan(pass));
                    assert_eq!(plan.digits.len() as u64, keys);
                    assert_eq!(plan.first.len() as u64, threads as u64 * radix);
                    for tid in 0..threads {
                        let (k0, k1) = block_range(keys, threads, tid);
                        let row = radix as usize * tid;
                        let mut next = plan.first[row..row + radix as usize].to_vec();
                        for i in k0..k1 {
                            let d = plan.digits[i as usize];
                            let at = format!("{threads} threads, pass {pass}, key {i}");
                            assert_eq!(u64::from(d), rx.digit(arranged[i as usize], pass), "{at}");
                            assert_eq!(next[d as usize], dest[i as usize], "{at}");
                            next[d as usize] += 1;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_runs_generators_share_one_plan_and_drop_it_with_the_last() {
        let rx = Radix::new(1 << 10, 16, 2, true);
        let held = rx.shared_plans();
        assert!(Arc::ptr_eq(&held, &rx.shared_plans()));
        drop(held);
        let live = || rx.plans.lock().unwrap().upgrade().is_some();
        assert!(!live());
        let stream = rx.stream(1);
        assert!(live());
        assert!(stream.count() > 0);
        assert!(!live(), "a finished generator keeps no plan alive");
    }

    #[test]
    fn div_and_mul_are_frequent() {
        let rx = Radix::new(1 << 12, 16, 1, true);
        let mut divs = 0u64;
        let mut muls = 0u64;
        let mut total = 0u64;
        for op in rx.stream(0) {
            total += 1;
            match op.class {
                OpClass::IntDiv => divs += 1,
                OpClass::IntMul => muls += 1,
                _ => {}
            }
        }
        assert!(divs > 0 && muls > 0);
        // The paper's §3.1.3 effect needs a meaningful mul/div density.
        assert!(
            (divs + muls) as f64 / total as f64 > 0.05,
            "mul+div density too low: {}/{}",
            divs + muls,
            total
        );
    }

    #[test]
    fn larger_radix_scatters_across_more_pages() {
        // Bucket regions must span pages for the TLB effect to exist, so
        // this test needs keys/radix * 8B comparable to a page — as the
        // real (scaled and full) problem sizes have.
        let active_pages = |radix: u64| -> usize {
            let rx = Radix::new(1 << 15, radix, 1, true);
            let mut in_permutation = false;
            let mut barriers = 0;
            let mut window: Vec<u64> = Vec::new();
            let mut worst = 0;
            for op in rx.stream(0) {
                match op.class {
                    OpClass::Barrier => {
                        barriers += 1;
                        in_permutation = barriers == 3; // after hist+prefix
                    }
                    OpClass::Store if in_permutation && op.addr >= SEG_B && op.addr < SEG_C => {
                        window.push(op.addr.vpn(12));
                        if window.len() > 256 {
                            window.remove(0);
                        }
                        worst = worst.max(window.iter().collect::<HashSet<_>>().len());
                    }
                    _ => {}
                }
            }
            worst
        };
        let big = active_pages(256);
        let small = active_pages(8);
        assert!(
            big > small * 2,
            "radix 256 ({big} pages) must thrash more than radix 8 ({small})"
        );
    }

    #[test]
    fn multithread_streams_cover_all_keys_once() {
        let p = 4;
        let rx = Radix::new(1 << 10, 16, p, true);
        let mut perm_stores: Vec<u64> = Vec::new();
        for t in 0..p {
            let mut barriers = 0;
            for op in rx.stream(t) {
                match op.class {
                    OpClass::Barrier => barriers += 1,
                    OpClass::Store if barriers == 3 && op.addr >= SEG_B && op.addr < SEG_C => {
                        perm_stores.push(op.addr.get());
                    }
                    _ => {}
                }
            }
        }
        let distinct: HashSet<_> = perm_stores.iter().collect();
        assert_eq!(distinct.len() as u64, rx.keys(), "each rank written once");
    }

    #[test]
    fn unplaced_variant_homes_everything_on_node_0() {
        let rx = Radix::unplaced(ProblemScale::Tiny, 4);
        for seg in rx.segments() {
            assert_eq!(seg.placement, Placement::Node(0));
        }
        let placed = Radix::tuned(ProblemScale::Tiny, 4);
        for seg in placed.segments() {
            assert_eq!(seg.placement, Placement::Blocked);
        }
    }

    #[test]
    fn barrier_structure_is_uniform_across_threads() {
        let rx = Radix::new(1 << 10, 16, 3, true);
        let seqs: Vec<Vec<u32>> = (0..3)
            .map(|t| {
                rx.stream(t)
                    .filter(|o| o.class == OpClass::Barrier)
                    .map(|o| o.id)
                    .collect()
            })
            .collect();
        assert_eq!(seqs[0], seqs[1]);
        assert_eq!(seqs[1], seqs[2]);
        assert_eq!(seqs[0].len() as u32, 1 + 3 * PASSES);
    }
}
