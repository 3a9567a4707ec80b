//! The benchmark's own input generator: RNG, key popularity, key names
//! and value bytes. Nothing here comes from the program under test, so a
//! change to the simulator's RNG cannot change the inputs, and the
//! program only ever sees the resulting client calls.

/// SplitMix64 (Steele, Lea, Flood 2014): one `u64` of state, full period,
/// good enough to draw keys with and trivially reproducible.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for `lane` (a client index, say).
    pub fn fork(&self, lane: u64) -> Rng {
        Rng(mix(self.0 ^ mix(lane.wrapping_add(0x9e37_79b9_7f4a_7c15))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Key popularity: rank `r` (0-based) is drawn with weight
/// `1 / (r + 1)^skew`; skew 0 is uniform. The cumulative table makes a
/// draw one binary search, with no allocation.
pub struct Popularity {
    cdf: Vec<f64>,
}

impl Popularity {
    pub fn new(keys: usize, skew: f64) -> Popularity {
        let mut cdf = Vec::with_capacity(keys);
        let mut acc = 0.0;
        for r in 0..keys {
            acc += 1.0 / ((r + 1) as f64).powf(skew);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Popularity { cdf }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The key names and value bytes of one workload.
///
/// Key `i` is `key-` plus 16 hex digits mixed from the seed and `i`: every
/// key has the same length, so all items of a workload share one slab
/// class (the sharded store gives each shard only a few pages), and the
/// seed moves where keys hash — which shard, which bucket — not how many
/// bytes a request carries.
///
/// The value of key `i` is a fixed function of `i` and the value size
/// (8-byte words `w(i) + j`), so a hit can be checked byte for byte no
/// matter which client wrote the key last, and a value shifted or cut
/// short by the program does not pass.
pub struct KeySpace {
    keys: Vec<Vec<u8>>,
    words: Vec<u64>,
    value_size: usize,
}

impl KeySpace {
    pub fn new(rng: &mut Rng, keys: usize, value_size: usize) -> KeySpace {
        let mut names = Vec::with_capacity(keys);
        let mut words = Vec::with_capacity(keys);
        let salt = rng.next_u64();
        for i in 0..keys {
            // `mix` is a bijection, so distinct indices give distinct names.
            names.push(format!("key-{:016x}", mix(salt ^ i as u64)).into_bytes());
            words.push(rng.next_u64());
        }
        KeySpace {
            keys: names,
            words,
            value_size,
        }
    }

    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn value_size(&self) -> usize {
        self.value_size
    }

    pub fn key(&self, i: usize) -> &[u8] {
        &self.keys[i]
    }

    /// Writes key `i`'s value into `buf` (resized to the value size).
    pub fn fill_value(&self, i: usize, buf: &mut Vec<u8>) {
        buf.resize(self.value_size, 0);
        let base = self.words[i];
        let mut chunks = buf.chunks_exact_mut(8);
        for (j, chunk) in chunks.by_ref().enumerate() {
            chunk.copy_from_slice(&base.wrapping_add(j as u64).to_le_bytes());
        }
        let rest = chunks.into_remainder();
        let last = base
            .wrapping_add((self.value_size / 8) as u64)
            .to_le_bytes();
        rest.copy_from_slice(&last[..rest.len()]);
    }

    /// True when `data` is exactly key `i`'s value.
    pub fn value_matches(&self, i: usize, data: &[u8]) -> bool {
        if data.len() != self.value_size {
            return false;
        }
        let base = self.words[i];
        let chunks = data.chunks_exact(8);
        let rest = chunks.remainder();
        let last = base
            .wrapping_add((self.value_size / 8) as u64)
            .to_le_bytes();
        chunks
            .enumerate()
            .all(|(j, c)| c == base.wrapping_add(j as u64).to_le_bytes())
            && rest == &last[..rest.len()]
    }
}

/// FNV-1a over a stream of `u64`s: the `sim_digest` of a run's operations
/// (which key, get or set) and their virtual latencies, in completion
/// order. Two runs with equal digests issued the same calls and saw the
/// same simulated schedule.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn push(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = KeySpace::new(&mut Rng::new(7), 50, 100);
        let b = KeySpace::new(&mut Rng::new(7), 50, 100);
        let c = KeySpace::new(&mut Rng::new(8), 50, 100);
        assert!((0..50).all(|i| a.key(i) == b.key(i)));
        assert!((0..50).any(|i| a.key(i) != c.key(i)));
    }

    #[test]
    fn value_check_rejects_wrong_shifted_and_short_bytes() {
        for size in [4usize, 64, 100, 4096] {
            let ks = KeySpace::new(&mut Rng::new(1), 3, size);
            let mut v = Vec::new();
            ks.fill_value(1, &mut v);
            assert_eq!(v.len(), size);
            assert!(ks.value_matches(1, &v));
            assert!(!ks.value_matches(2, &v), "another key's value");
            assert!(!ks.value_matches(1, &v[..size - 1]), "cut short");
            let mut flipped = v.clone();
            flipped[size - 1] ^= 1;
            assert!(!ks.value_matches(1, &flipped), "last byte wrong");
            if size > 16 {
                let mut shifted = v[8..].to_vec();
                shifted.extend_from_slice(&v[..8]);
                assert!(!ks.value_matches(1, &shifted), "rotated by a word");
            }
        }
    }

    #[test]
    fn popularity_is_uniform_at_zero_skew_and_head_heavy_at_one() {
        let mut rng = Rng::new(3);
        let uniform = Popularity::new(10, 0.0);
        let skewed = Popularity::new(10, 0.99);
        let (mut u0, mut s0) = (0, 0);
        for _ in 0..20_000 {
            u0 += usize::from(uniform.draw(&mut rng) == 0);
            s0 += usize::from(skewed.draw(&mut rng) == 0);
        }
        assert!((1_600..2_400).contains(&u0), "uniform head share {u0}");
        assert!(s0 > 6_000, "zipf head share {s0}");
    }
}
