//! Seeded randomness for the harness: splitmix64 and the few helpers the
//! workloads need. Everything generated from `--seed` flows through here.

/// splitmix64 (Steele, Lea, Flood): tiny, full-period, good enough to
/// draw literals and shuffle visit orders.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// A generator for one named stream of a run: two streams of the
    /// same seed never share values.
    pub fn stream(seed: u64, stream: u64) -> SplitMix64 {
        let mut g = SplitMix64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        g.next_u64();
        g
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at
    /// the sizes used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// FNV-1a, folded over `bytes` starting from `h` (use [`FNV_OFFSET`]
/// to start a hash).
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_streams_differ() {
        let a: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(SplitMix64::stream(7, 1), |g, _| Some(g.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(SplitMix64::stream(7, 1), |g, _| Some(g.next_u64()))
            .collect();
        let c: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(SplitMix64::stream(7, 2), |g, _| Some(g.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..50).collect();
        SplitMix64::new(3).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }
}
