//! # ap-rng — in-tree deterministic pseudo-randomness
//!
//! The whole workspace must build and test **offline**, so external RNG
//! crates are out. This crate provides the small slice of functionality
//! the simulator, the planners, and the learned components actually use:
//!
//! * [`Rng`] — a SplitMix64 generator (Steele, Lea & Flood, OOPSLA'14):
//!   64 bits of state, a strong avalanching output mix, full period 2^64,
//!   and trivially seedable. More than enough statistical quality for
//!   weight initialization, measurement noise, and Poisson churn — and
//!   *deterministic by seed* on every platform, which the reproduction's
//!   tests rely on.
//! * Uniform sampling over float and integer ranges via [`Rng::gen_range`]
//!   (API-compatible with the call sites the `rand` crate used to serve).
//! * Gaussian sampling via Box–Muller ([`Rng::normal`]).
//! * Fisher–Yates shuffling ([`Rng::shuffle`]).
//!
//! Independent deterministic streams (e.g. one per sample) come from
//! [`Rng::stream`], which derives a child generator by mixing the parent
//! seed with the stream index — the meta-network's pretraining sampler
//! uses this so each sample's draws do not depend on any other's.

use std::ops::{Range, RangeInclusive};

/// SplitMix64 pseudo-random generator.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
    /// Cached second Box–Muller variate.
    spare_normal: Option<f64>,
}

impl Rng {
    /// Deterministic generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        Rng {
            state: seed,
            spare_normal: None,
        }
    }

    /// Derive an independent child stream for `(self seed, index)`.
    ///
    /// Children of distinct indices have uncorrelated outputs (the index
    /// passes through the full avalanche mix), so independent samples or
    /// workers can each take one and produce results independent of order
    /// and scheduling.
    pub fn stream(seed: u64, index: u64) -> Self {
        // Mix the index through one SplitMix64 round before combining so
        // consecutive indices land far apart in the state space.
        let mut r = Rng::seed_from_u64(seed ^ mix(index.wrapping_add(0x9e37_79b9_7f4a_7c15)));
        // Burn one output: decorrelates streams whose mixed seeds are close.
        let _ = r.next_u64();
        r
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.state)
    }

    /// Next raw 32-bit output (upper half of the 64-bit stream).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample from a range; accepts `lo..hi` over floats and
    /// integers and `lo..=hi` over integers (the `rand`-style call shape).
    #[inline]
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// Uniform sample of a primitive (`f64` in `[0,1)`, `bool` fair coin,
    /// integers over their full domain).
    #[inline]
    pub fn gen<T: FromRng>(&mut self) -> T {
        T::from_rng(self)
    }

    /// Standard normal variate via Box–Muller (cached in pairs).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // u1 in (0, 1]: never 0 so ln(u1) is finite.
        let u1 = 1.0 - self.f64();
        let u2 = self.f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal variate with the given mean and standard deviation.
    #[inline]
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(0..i + 1);
            slice.swap(i, j);
        }
    }

    /// Uniformly chosen element, `None` on an empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.gen_range(0..slice.len())])
        }
    }
}

/// Finalizing mix of SplitMix64 (also the avalanche core of MurmurHash3).
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Ranges [`Rng::gen_range`] can sample from.
pub trait SampleRange {
    /// The sampled element type.
    type Output;
    /// Draw one uniform sample.
    fn sample(self, rng: &mut Rng) -> Self::Output;
}

impl SampleRange for Range<f64> {
    type Output = f64;
    #[inline]
    fn sample(self, rng: &mut Rng) -> f64 {
        assert!(self.start < self.end, "empty float range");
        self.start + (self.end - self.start) * rng.f64()
    }
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty integer range");
                let span = (self.end - self.start) as u64;
                // Multiply-shift bounded sampling (Lemire); the modulo bias
                // of 64-bit state over the tiny spans used here is < 2^-32,
                // far below anything the experiments can resolve.
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                self.start + hi as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty inclusive range");
                lo + (rng.gen_range(0..(hi - lo + 1) as u64)) as $t
            }
        }
    )*};
}

impl_int_range!(usize, u64, u32, i64, i32);

/// Types [`Rng::gen`] can produce.
pub trait FromRng {
    /// Draw one value.
    fn from_rng(rng: &mut Rng) -> Self;
}

impl FromRng for f64 {
    #[inline]
    fn from_rng(rng: &mut Rng) -> f64 {
        rng.f64()
    }
}
impl FromRng for bool {
    #[inline]
    fn from_rng(rng: &mut Rng) -> bool {
        rng.next_u64() & 1 == 1
    }
}
impl FromRng for u64 {
    #[inline]
    fn from_rng(rng: &mut Rng) -> u64 {
        rng.next_u64()
    }
}
impl FromRng for u32 {
    #[inline]
    fn from_rng(rng: &mut Rng) -> u32 {
        rng.next_u32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_by_seed() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(43);
        assert_ne!(Rng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn f64_stays_in_unit_interval_and_fills_it() {
        let mut r = Rng::seed_from_u64(7);
        let mut lo = 1.0f64;
        let mut hi = 0.0f64;
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
            lo = lo.min(x);
            hi = hi.max(x);
        }
        assert!(lo < 0.01 && hi > 0.99, "poor coverage: [{lo}, {hi}]");
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = Rng::seed_from_u64(3);
        for _ in 0..5_000 {
            let f = r.gen_range(-2.5..7.5);
            assert!((-2.5..7.5).contains(&f));
            let u = r.gen_range(3usize..17);
            assert!((3..17).contains(&u));
            let i = r.gen_range(1usize..=4);
            assert!((1..=4).contains(&i));
        }
        // Inclusive ranges hit both endpoints.
        let mut seen = [false; 4];
        for _ in 0..1_000 {
            seen[r.gen_range(1usize..=4) - 1] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn uniform_mean_is_centered() {
        let mut r = Rng::seed_from_u64(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "uniform mean {mean}");
    }

    #[test]
    fn normal_sampler_matches_first_two_moments() {
        // The PRNG sanity gate: Box–Muller output must have the requested
        // mean and variance to well within Monte-Carlo error.
        let mut r = Rng::seed_from_u64(1234);
        let n = 200_000usize;
        let (mu, sd) = (3.0, 2.0);
        let xs: Vec<f64> = (0..n).map(|_| r.normal(mu, sd)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
        assert!((mean - mu).abs() < 0.02, "normal mean {mean}, want {mu}");
        assert!(
            (var - sd * sd).abs() < 0.08,
            "normal variance {var}, want {}",
            sd * sd
        );
        // Symmetry: ~half the standardized values on each side.
        let above = xs.iter().filter(|&&x| x > mu).count() as f64 / n as f64;
        assert!((above - 0.5).abs() < 0.01, "normal asymmetry {above}");
    }

    #[test]
    fn shuffle_is_a_permutation_and_seeded() {
        let mut r = Rng::seed_from_u64(9);
        let mut v: Vec<usize> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        let mut r2 = Rng::seed_from_u64(9);
        let mut v2: Vec<usize> = (0..50).collect();
        r2.shuffle(&mut v2);
        assert_eq!(v, v2);
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "shuffle left input sorted");
    }

    #[test]
    fn streams_are_independent_of_each_other() {
        let a: Vec<u64> = {
            let mut s = Rng::stream(5, 0);
            (0..32).map(|_| s.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut s = Rng::stream(5, 1);
            (0..32).map(|_| s.next_u64()).collect()
        };
        assert_ne!(a, b);
        // Same (seed, index) reproduces.
        let a2: Vec<u64> = {
            let mut s = Rng::stream(5, 0);
            (0..32).map(|_| s.next_u64()).collect()
        };
        assert_eq!(a, a2);
    }

    #[test]
    fn gen_primitives() {
        let mut r = Rng::seed_from_u64(2);
        let _: u64 = r.gen();
        let f: f64 = r.gen();
        assert!((0.0..1.0).contains(&f));
        let heads = (0..10_000).filter(|_| r.gen::<bool>()).count();
        assert!((4_500..5_500).contains(&heads), "biased coin: {heads}");
    }

    #[test]
    fn choose_covers_all_elements() {
        let mut r = Rng::seed_from_u64(4);
        let items = [10, 20, 30];
        let mut seen = [false; 3];
        for _ in 0..200 {
            let &x = r.choose(&items).unwrap();
            seen[x / 10 - 1] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert!(r.choose::<u8>(&[]).is_none());
    }
}
