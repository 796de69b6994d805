//! Deterministic, splittable random numbers.
//!
//! Reproducibility is a hard requirement for the experiment harness:
//! every table and figure must regenerate identically from a seed, and
//! any single quartet must be re-derivable in isolation (so evaluation
//! code can cross-examine the simulator without replaying a whole
//! month). To get that, all randomness is *counter-based*: a stream is
//! keyed by `(seed, domain label, entity ids…)`, hashed with SplitMix64
//! into the state of a xoshiro256++ generator. No global state, no
//! dependence on call order or thread count, identical output on every
//! platform.

/// SplitMix64 step; used both as a stand-alone mixer and to seed
/// xoshiro from arbitrary key material.
#[inline]
pub fn splitmix64(state: &mut u64) {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
}

/// Finalizes a SplitMix64 state into an output word.
#[inline]
pub fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++ deterministic generator with distribution helpers.
///
/// Streams are keyed, not sequential: the same `(seed, keys)` always
/// yields the same values, independent of anything drawn elsewhere.
///
/// ```
/// use blameit_topology::rng::DetRng;
/// let mut a = DetRng::from_keys(7, &[1, 2]);
/// let mut b = DetRng::from_keys(7, &[1, 2]);
/// assert_eq!(a.next_u64(), b.next_u64());
/// assert!(a.below(10) < 10);
/// ```
#[derive(Clone, Debug)]
pub struct DetRng {
    s: [u64; 4],
    /// Cached second normal variate from the polar method.
    spare_normal: Option<f64>,
}

impl DetRng {
    /// Builds a generator from a single seed.
    pub fn new(seed: u64) -> Self {
        Self::from_keys(seed, &[])
    }

    /// Builds a generator keyed by `(seed, keys…)`. Different key
    /// tuples yield statistically independent streams.
    pub fn from_keys(seed: u64, keys: &[u64]) -> Self {
        let mut acc = seed ^ 0x6A09_E667_F3BC_C909;
        for (i, k) in keys.iter().enumerate() {
            // Mix position so permuted keys differ.
            acc = splitmix64_mix(
                acc ^ k.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1)),
            );
        }
        let mut sm = acc;
        let mut s = [0u64; 4];
        for slot in &mut s {
            splitmix64(&mut sm);
            *slot = splitmix64_mix(sm);
        }
        // xoshiro must not start from the all-zero state.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        DetRng {
            s,
            spare_normal: None,
        }
    }

    /// Derives a child stream keyed by additional values; the parent is
    /// unaffected. This is how per-entity streams are split off.
    pub fn derive(&self, keys: &[u64]) -> DetRng {
        let base = splitmix64_mix(self.s[0] ^ self.s[2].rotate_left(17));
        DetRng::from_keys(base, keys)
    }

    /// The generator's full state, for checkpointing: the four xoshiro
    /// state words plus the cached spare normal variate. Restoring via
    /// [`DetRng::from_state`] resumes the stream exactly where it left
    /// off — required for byte-identical replay after a crash.
    pub fn state(&self) -> ([u64; 4], Option<f64>) {
        (self.s, self.spare_normal)
    }

    /// Rebuilds a generator from a state captured by [`DetRng::state`].
    /// The all-zero state (never produced by a healthy generator) is
    /// nudged to a fixed non-zero word, mirroring `from_keys`.
    pub fn from_state(mut s: [u64; 4], spare_normal: Option<f64>) -> DetRng {
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        DetRng { s, spare_normal }
    }

    /// Next raw 64-bit output.
    #[inline]
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

    /// Uniform in `[0, 1)`, 53-bit precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo > hi` or either bound is non-finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "bad range [{lo}, {hi})"
        );
        lo + (hi - lo) * self.f64()
    }

    /// Uniform integer in `[0, n)` (Lemire's method, unbiased).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        // Rejection-free multiply-shift with correction loop.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "bad range [{lo}, {hi}]");
        lo + self.below(hi - lo + 1)
    }

    /// Uniform usize in `[0, n)` — convenience for indexing.
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Bernoulli draw.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Standard normal via the Marsaglia polar method.
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        loop {
            let u = 2.0 * self.f64() - 1.0;
            let v = 2.0 * self.f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                self.spare_normal = Some(v * factor);
                return u * factor;
            }
        }
    }

    /// Log-normal: `exp(N(mu, sigma))`. Note `mu`/`sigma` are the
    /// parameters of the underlying normal, not the resulting mean.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.normal()).exp()
    }

    /// Exponential with the given mean.
    ///
    /// # Panics
    /// Panics if `mean <= 0`.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        let u = 1.0 - self.f64(); // (0, 1]
        -mean * u.ln()
    }

    /// Pareto with scale `xm` and shape `alpha` (heavy-tailed; the
    /// paper's incident durations are long-tailed, §2.3).
    ///
    /// # Panics
    /// Panics if `xm <= 0` or `alpha <= 0`.
    pub fn pareto(&mut self, xm: f64, alpha: f64) -> f64 {
        assert!(xm > 0.0 && alpha > 0.0, "bad pareto params");
        let u = 1.0 - self.f64(); // (0, 1]
        xm / u.powf(1.0 / alpha)
    }

    /// Poisson draw (Knuth's method for small means, normal
    /// approximation above 64).
    pub fn poisson(&mut self, mean: f64) -> u64 {
        assert!(mean >= 0.0, "poisson mean must be non-negative");
        if mean == 0.0 {
            return 0;
        }
        if mean > 64.0 {
            let z = self.normal();
            let v = mean + mean.sqrt() * z;
            return v.max(0.0).round() as u64;
        }
        let l = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.f64();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element.
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.index(items.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_constructions() {
        let mut a = DetRng::from_keys(42, &[1, 2, 3]);
        let mut b = DetRng::from_keys(42, &[1, 2, 3]);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_keys_differ() {
        let mut a = DetRng::from_keys(42, &[1, 2, 3]);
        let mut b = DetRng::from_keys(42, &[1, 2, 4]);
        let mut c = DetRng::from_keys(42, &[1, 3, 2]);
        let av: Vec<_> = (0..8).map(|_| a.next_u64()).collect();
        let bv: Vec<_> = (0..8).map(|_| b.next_u64()).collect();
        let cv: Vec<_> = (0..8).map(|_| c.next_u64()).collect();
        assert_ne!(av, bv);
        assert_ne!(av, cv, "permuted keys must give a different stream");
    }

    #[test]
    fn derive_is_stable_and_independent() {
        let parent = DetRng::from_keys(7, &[9]);
        let mut c1 = parent.derive(&[1]);
        let mut c2 = parent.derive(&[1]);
        let mut c3 = parent.derive(&[2]);
        assert_eq!(c1.next_u64(), c2.next_u64());
        assert_ne!(c1.next_u64(), c3.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = DetRng::new(1);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_unbiased_enough() {
        let mut r = DetRng::new(2);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[r.below(10) as usize] += 1;
        }
        for c in counts {
            assert!((8_500..11_500).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn normal_moments() {
        let mut r = DetRng::new(3);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let z = r.normal();
            sum += z;
            sumsq += z * z;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = DetRng::new(4);
        let n = 100_000;
        let mean_target = 7.5;
        let sum: f64 = (0..n).map(|_| r.exponential(mean_target)).sum();
        let mean = sum / n as f64;
        assert!((mean - mean_target).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn pareto_is_heavy_tailed() {
        let mut r = DetRng::new(5);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| r.pareto(5.0, 1.1)).collect();
        let above_min = samples.iter().all(|&x| x >= 5.0);
        assert!(above_min);
        // With alpha 1.1 a visible fraction exceeds 20× the scale.
        let tail = samples.iter().filter(|&&x| x > 100.0).count() as f64 / n as f64;
        assert!(tail > 0.01, "tail fraction {tail}");
    }

    #[test]
    fn poisson_small_and_large_mean() {
        let mut r = DetRng::new(6);
        let n = 50_000;
        for mean in [0.5, 3.0, 30.0, 200.0] {
            let sum: u64 = (0..n).map(|_| r.poisson(mean)).sum();
            let got = sum as f64 / n as f64;
            assert!(
                (got - mean).abs() < mean.max(1.0) * 0.05,
                "poisson({mean}) sample mean {got}"
            );
        }
        assert_eq!(r.poisson(0.0), 0);
    }

    #[test]
    fn shuffle_permutes() {
        let mut r = DetRng::new(8);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "astronomically unlikely");
    }

    #[test]
    fn range_helpers() {
        let mut r = DetRng::new(10);
        for _ in 0..1000 {
            let x = r.range_f64(5.0, 6.0);
            assert!((5.0..6.0).contains(&x));
            let y = r.range_u64(3, 5);
            assert!((3..=5).contains(&y));
        }
        assert_eq!(r.range_u64(4, 4), 4);
    }

    #[test]
    fn lognormal_positive() {
        let mut r = DetRng::new(11);
        for _ in 0..1000 {
            assert!(r.lognormal(0.0, 0.5) > 0.0);
        }
    }

    #[test]
    fn state_roundtrip_resumes_stream() {
        let mut r = DetRng::from_keys(99, &[4, 2]);
        r.normal(); // populate the spare so both state halves matter
        let (s, spare) = r.state();
        let mut resumed = DetRng::from_state(s, spare);
        for _ in 0..64 {
            assert_eq!(r.next_u64(), resumed.next_u64());
        }
        assert_eq!(r.normal().to_bits(), resumed.normal().to_bits());
        // The all-zero state is nudged, never a stuck generator.
        let mut z = DetRng::from_state([0; 4], None);
        assert_ne!(z.next_u64() | z.next_u64() | z.next_u64(), 0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(12);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }
}
