//! Deterministic random numbers for the simulation.
//!
//! One generator — xoshiro256++ seeded through SplitMix64 — plus the handful
//! of distributions the workloads and jitter models need. Keeping it behind
//! one type means every source of randomness in a run flows from the single
//! seed passed to [`crate::Sim::new`], which is what makes runs replayable.
//! The stream is pinned bit for bit by `golden_stream_for_seed_42`: every
//! committed `results/*` file is a function of it.

use crate::time::SimDuration;

/// The simulation RNG. Obtain via [`crate::Sim::with_rng`].
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn new(seed: u64) -> SimRng {
        let mut state = seed;
        SimRng {
            s: std::array::from_fn(|_| splitmix64(&mut state)),
        }
    }

    /// Raw 64 random bits (one xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Unbiased integer in `[0, n)` by widening multiply with rejection
    /// (Lemire's method).
    fn uniform_u64(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        loop {
            let m = (self.next_u64() as u128) * (n as u128);
            let lo = m as u64;
            if lo >= n || lo >= (u64::MAX - n + 1) % n {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform u64 in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn gen_range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.uniform_u64(hi - lo)
    }

    /// Uniform usize in `[0, n)`. Panics if `n == 0`.
    fn gen_index(&mut self, n: usize) -> usize {
        self.uniform_u64(n as u64) as usize
    }

    /// Uniform f64 in `[0, 1)` with 53 bits of precision.
    fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform f64 in `(0, 1)`: what the inverse-transform samplers feed to
    /// `ln` and `powf`. The draw is at most 1 − 2⁻⁵³, and adding the smallest
    /// positive normal cannot round that up to 1.
    fn gen_open_f64(&mut self) -> f64 {
        f64::MIN_POSITIVE + self.gen_f64() * (1.0 - f64::MIN_POSITIVE)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!(!p.is_nan(), "gen_bool: p not a probability");
        self.gen_f64() < p.clamp(0.0, 1.0)
    }

    /// Exponentially distributed duration with the given mean: the classic
    /// model for jitter tails and think times. Uses inverse-transform
    /// sampling; result is clamped to 64 means so a pathological draw cannot
    /// stall the simulation.
    pub fn gen_exp(&mut self, mean: SimDuration) -> SimDuration {
        let u = self.gen_open_f64();
        let x = -u.ln();
        let scaled = (mean.as_nanos() as f64 * x).min(mean.as_nanos() as f64 * 64.0);
        SimDuration::from_nanos(scaled as u64)
    }

    /// Zipf-like rank sample over `[0, n)` with skew `s` (s=0 is uniform).
    /// Uses the approximation by inverse CDF of the continuous bounded
    /// Pareto, which is accurate enough for cache-workload key popularity.
    ///
    /// Known defect, kept because fixing it moves `results/mcslap.json` and
    /// `ext_bypass_get.*`: the continuous draw `x` lies in `(1, n)`, so rank
    /// `n - 1` is never returned (ROADMAP direction 5 re-calibrates it).
    pub fn gen_zipf(&mut self, n: usize, s: f64) -> usize {
        assert!(n > 0);
        if s <= f64::EPSILON {
            return self.gen_index(n);
        }
        let u = self.gen_open_f64();
        let n_f = n as f64;
        let x = if (s - 1.0).abs() < 1e-9 {
            // s == 1: inverse of log-CDF.
            (u * n_f.ln()).exp()
        } else {
            let one_minus_s = 1.0 - s;
            ((n_f.powf(one_minus_s) - 1.0) * u + 1.0).powf(1.0 / one_minus_s)
        };
        (x as usize - 1).min(n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stream itself, not self-consistency: every `results/*` file and
    /// benchmark digest is a function of these bits.
    #[test]
    fn golden_stream_for_seed_42() {
        let mut r = SimRng::new(42);
        let raw = [r.next_u64(), r.next_u64(), r.next_u64()];
        assert_eq!(
            raw,
            [0xd0764d4f4476689f, 0x519e4174576f3791, 0xfbe07cfb0c24ed8c]
        );

        let mut r = SimRng::new(42);
        let ranged: Vec<u64> = (0..4).map(|_| r.gen_range_u64(1, 100)).collect();
        assert_eq!(ranged, [81, 32, 98, 70]);
        let bools: Vec<bool> = (0..8).map(|_| r.gen_bool(0.3)).collect();
        assert_eq!(
            bools,
            [false, false, true, false, true, false, false, false]
        );
        let mean = SimDuration::from_micros(10);
        let exps: Vec<u64> = (0..3).map(|_| r.gen_exp(mean).as_nanos()).collect();
        assert_eq!(exps, [3856, 26659, 9086]);
        let ranks: Vec<usize> = (0..4).map(|_| r.gen_zipf(1000, 0.99)).collect();
        assert_eq!(ranks, [45, 3, 0, 55]);
        assert_eq!(r.next_u64(), 0x7784cb89e2481d7b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 16);
    }

    #[test]
    fn ranges_respected() {
        let mut r = SimRng::new(3);
        for _ in 0..1000 {
            let v = r.gen_range_u64(10, 20);
            assert!((10..20).contains(&v));
            let i = r.gen_index(7);
            assert!(i < 7);
            let f = r.gen_f64();
            assert!((0.0..1.0).contains(&f));
            let g = r.gen_open_f64();
            assert!(g > 0.0 && g < 1.0);
        }
    }

    #[test]
    fn gen_bool_respects_extremes() {
        let mut r = SimRng::new(3);
        assert!(!(0..100).any(|_| r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }

    #[test]
    fn exp_mean_is_plausible() {
        let mut r = SimRng::new(4);
        let mean = SimDuration::from_micros(10);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| r.gen_exp(mean).as_nanos()).sum();
        let avg = total as f64 / n as f64;
        // Within 5% of the requested 10 us mean.
        assert!((avg - 10_000.0).abs() < 500.0, "avg {avg} ns");
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let mut r = SimRng::new(5);
        let n = 1000;
        let mut counts = vec![0u32; n];
        for _ in 0..50_000 {
            let i = r.gen_zipf(n, 0.99);
            counts[i] += 1;
        }
        // Rank 0 should dominate the median rank by a wide margin.
        assert!(counts[0] > 20 * counts[n / 2].max(1));
        // Uniform when s == 0.
        let mut uni = [0u32; 10];
        for _ in 0..10_000 {
            uni[r.gen_zipf(10, 0.0)] += 1;
        }
        assert!(uni.iter().all(|&c| c > 700));
    }

    #[test]
    fn zipf_skew_one_draws_rank_zero_most() {
        let share_of_rank_0 = |s: f64| {
            let mut r = SimRng::new(6);
            let mut counts = [0u32; 8];
            for _ in 0..100_000 {
                counts[r.gen_zipf(8, s)] += 1;
            }
            assert!(counts.iter().all(|&c| c <= counts[0]), "{s}: {counts:?}");
            counts[0] as f64 / 100_000.0
        };
        let (at_one, near_one) = (share_of_rank_0(1.0), share_of_rank_0(0.999));
        assert!((at_one - near_one).abs() < 0.02, "{at_one} vs {near_one}");
    }
}
