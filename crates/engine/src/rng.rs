//! Deterministic pseudo-random numbers for workloads and jitter.
//!
//! Simulation runs must be exactly reproducible: the same seed must produce
//! the same op stream, the same key distribution, and the same hardware
//! jitter on every host. We use our own SplitMix64/xoshiro256** generator
//! (public-domain algorithms) rather than an external crate so the stream is
//! pinned by this source file forever.
//!
//! # Examples
//!
//! ```
//! use flashsim_engine::rng::Rng;
//!
//! let mut a = Rng::seeded(42);
//! let mut b = Rng::seeded(42);
//! assert_eq!(a.next_u64(), b.next_u64());
//! let x = a.gen_range(10);
//! assert!(x < 10);
//! ```

/// A small, fast, reproducible PRNG (xoshiro256** seeded via SplitMix64).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a seed. Any seed (including 0) is valid.
    pub fn seeded(seed: u64) -> Rng {
        let mut sm = seed;
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derives an independent stream from this generator and a stream id,
    /// without perturbing this generator. Used to give each simulated
    /// processor its own stream from one workload seed.
    pub fn fork(&self, stream: u64) -> Rng {
        let mut sm = self.s[0] ^ stream.wrapping_mul(0xA24BAED4963EE407);
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)` via Lemire's multiply-shift reduction.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be non-zero");
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A multiplicative jitter factor in `[1-spread, 1+spread]`, used to
    /// model run-to-run variation of the "hardware" gold standard.
    pub fn jitter(&mut self, spread: f64) -> f64 {
        1.0 + (self.gen_f64() * 2.0 - 1.0) * spread
    }

    /// The raw xoshiro256** state, for checkpointing. Restoring via
    /// [`Rng::from_state`] resumes the stream at exactly this point.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from a [`Rng::state`] snapshot.
    pub fn from_state(s: [u64; 4]) -> Rng {
        Rng { s }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = Rng::seeded(7);
        let mut b = Rng::seeded(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seeded(1);
        let mut b = Rng::seeded(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fork_is_independent_and_stable() {
        let base = Rng::seeded(5);
        let mut f1 = base.fork(0);
        let mut f1b = base.fork(0);
        let mut f2 = base.fork(1);
        assert_eq!(f1.next_u64(), f1b.next_u64());
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn gen_range_in_bounds() {
        let mut r = Rng::seeded(3);
        for bound in [1u64, 2, 7, 1000, u64::MAX] {
            for _ in 0..50 {
                assert!(r.gen_range(bound) < bound);
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn gen_range_zero_panics() {
        Rng::seeded(0).gen_range(0);
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut r = Rng::seeded(9);
        for _ in 0..1000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn state_snapshot_resumes_the_stream() {
        let mut a = Rng::seeded(23);
        for _ in 0..17 {
            a.next_u64();
        }
        let mut b = Rng::from_state(a.state());
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn jitter_within_spread() {
        let mut r = Rng::seeded(13);
        for _ in 0..1000 {
            let j = r.jitter(0.02);
            assert!((0.98..=1.02).contains(&j));
        }
    }

    #[test]
    fn gen_range_roughly_uniform() {
        let mut r = Rng::seeded(17);
        let mut buckets = [0u32; 10];
        for _ in 0..10_000 {
            buckets[r.gen_range(10) as usize] += 1;
        }
        for &b in &buckets {
            assert!((700..1300).contains(&b), "bucket count {b} far from 1000");
        }
    }
}
