//! Seeded input generation, independent of the code under test.
//!
//! Every byte the benchmark writes is a pure function of `(seed, ...)`
//! computed here with splitmix64, so the reference checks can regenerate
//! any block without keeping a copy of what was written.

/// The splitmix64 finaliser: a bijective 64-bit mix.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A key for one generated item: `(seed, tag, a, b)` folded through `mix`.
pub fn key(seed: u64, tag: u64, a: u64, b: u64) -> u64 {
    mix(seed ^ mix(tag ^ mix(a ^ mix(b))))
}

/// Fills `buf` with the pseudo-random stream of `key`. Distinct keys give
/// distinct 4 KiB blocks with overwhelming probability, which is what the
/// dedup bounds of the `backup` workload rely on.
pub fn fill(buf: &mut [u8], key: u64) {
    let mut state = key;
    let mut chunks = buf.chunks_exact_mut(8);
    for c in &mut chunks {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        c.copy_from_slice(&mix(state).to_le_bytes());
    }
    let rest = chunks.into_remainder();
    if !rest.is_empty() {
        let v = mix(state.wrapping_add(0x9e37_79b9_7f4a_7c15)).to_le_bytes();
        rest.copy_from_slice(&v[..rest.len()]);
    }
}

/// A small deterministic generator for op mixes and offsets.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(mix(seed))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Zipf-distributed ranks over `n` items, mapped through a seeded
/// permutation so the hot items are scattered over the file.
pub struct Zipf {
    cdf: Vec<f64>,
    perm: Vec<u64>,
}

impl Zipf {
    pub fn new(n: u64, exponent: f64, rng: &mut Rng) -> Self {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(exponent);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        let mut perm: Vec<u64> = (0..n).collect();
        rng.shuffle(&mut perm);
        Zipf { cdf, perm }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.perm[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_is_deterministic_and_key_sensitive() {
        let (mut a, mut b, mut c) = ([0u8; 4096], [0u8; 4096], [0u8; 4096]);
        fill(&mut a, 7);
        fill(&mut b, 7);
        fill(&mut c, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_skews_towards_few_items() {
        let mut rng = Rng::new(1);
        let z = Zipf::new(1000, 0.99, &mut rng);
        let mut hits = vec![0u32; 1000];
        for _ in 0..20_000 {
            hits[z.sample(&mut rng) as usize] += 1;
        }
        hits.sort_unstable_by(|a, b| b.cmp(a));
        let top: u32 = hits[..100].iter().sum();
        assert!(top > 20_000 / 2, "top 10% took only {top}");
    }
}
