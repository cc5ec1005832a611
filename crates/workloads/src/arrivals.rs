//! Arrival processes and address popularity distributions for the
//! service layer: the open-loop/closed-loop side of a serving workload,
//! complementing the trace-driven [`crate::TraceGenerator`].
//!
//! Everything here is deterministic given its seed — the same seed
//! always reproduces the same arrival stream and the same address
//! sequence — so service-layer experiments are replayable bit-for-bit
//! and baselines can be compared across scheduler policies on identical
//! offered traffic.

use oram_util::Rng64;

/// An open-loop Poisson arrival process: exponentially distributed
/// interarrival gaps with a configurable mean, in CPU cycles.
///
/// Open-loop means arrivals do not react to service completions — the
/// generator models independent clients sending at a fixed offered
/// rate, which is what saturates a server. (Closed-loop behaviour is
/// the service layer's job: it issues the next request only after the
/// previous one completed, plus think time drawn from this process.)
///
/// ```
/// use oram_workloads::PoissonProcess;
/// let mut p = PoissonProcess::new(7, 500.0);
/// let a = p.next_gap();
/// let b = p.next_gap();
/// let mut q = PoissonProcess::new(7, 500.0);
/// assert_eq!((a, b), (q.next_gap(), q.next_gap())); // same seed, same stream
/// ```
#[derive(Debug, Clone)]
pub struct PoissonProcess {
    rng: Rng64,
    mean_gap_cycles: f64,
}

impl PoissonProcess {
    /// A process with the given mean interarrival gap in CPU cycles.
    ///
    /// # Panics
    ///
    /// Panics if `mean_gap_cycles` is not finite and positive.
    pub fn new(seed: u64, mean_gap_cycles: f64) -> Self {
        assert!(
            mean_gap_cycles.is_finite() && mean_gap_cycles > 0.0,
            "mean gap must be positive, got {mean_gap_cycles}"
        );
        PoissonProcess { rng: Rng64::seed_from_u64(seed ^ 0x0A55_0A55_0A55_0A55), mean_gap_cycles }
    }

    /// The configured mean interarrival gap.
    pub fn mean_gap_cycles(&self) -> f64 {
        self.mean_gap_cycles
    }

    /// Draws the next interarrival gap (inverse-CDF exponential).
    pub fn next_gap(&mut self) -> u64 {
        // 1 - U is in (0, 1], so ln never sees 0.
        let u = 1.0 - self.rng.next_f64();
        (-u.ln() * self.mean_gap_cycles).round() as u64
    }
}

/// A Zipfian address sampler over `0..n` (rank 0 most popular), the
/// standard model for skewed multi-tenant key popularity.
///
/// Uses the classic rejection-free inverse-CDF approximation of Gray et
/// al. (the YCSB generator): one harmonic-number precomputation at
/// construction, then two multiplies and a `powf` per sample — no
/// allocation on the sampling path.
///
/// ```
/// use oram_workloads::ZipfianSampler;
/// let mut z = ZipfianSampler::new(1000, 0.99, 42);
/// assert!(z.sample() < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct ZipfianSampler {
    rng: Rng64,
    n: u64,
    theta: f64,
    alpha: f64,
    zeta_n: f64,
    eta: f64,
    zeta_2: f64,
}

impl ZipfianSampler {
    /// A sampler over `0..n` with skew `theta` in `(0, 1)` (YCSB default
    /// 0.99; larger is more skewed).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `theta` is outside `(0, 1)`.
    pub fn new(n: u64, theta: f64, seed: u64) -> Self {
        assert!(n >= 2, "need at least two addresses, got {n}");
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0, 1), got {theta}");
        let zeta_n = zeta(n, theta);
        let zeta_2 = zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta_2 / zeta_n);
        ZipfianSampler { rng: Self::stream(seed), n, theta, alpha, zeta_n, eta, zeta_2 }
    }

    /// The same distribution drawn from a fresh stream: equal, draw for
    /// draw, to `ZipfianSampler::new(self.domain(), self.theta(), seed)`,
    /// without summing the `n`-term normalisation again.
    pub fn reseeded(&self, seed: u64) -> Self {
        ZipfianSampler { rng: Self::stream(seed), ..self.clone() }
    }

    fn stream(seed: u64) -> Rng64 {
        Rng64::seed_from_u64(seed ^ 0x21bf_2a11_5e0f_91c5)
    }

    /// The address domain size.
    pub fn domain(&self) -> u64 {
        self.n
    }

    /// The configured skew.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draws one address in `0..n`; rank 0 is the most popular.
    pub fn sample(&mut self) -> u64 {
        let u = self.rng.next_f64();
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let v = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        v.min(self.n - 1)
    }

    /// Probability mass of the single most popular address (rank 0),
    /// useful for sizing hot sets in tests.
    pub fn head_mass(&self) -> f64 {
        1.0 / self.zeta_n
    }

    /// The precomputed generalized harmonic number over two ranks
    /// (exposed for tests of the precomputation).
    pub fn zeta_2(&self) -> f64 {
        self.zeta_2
    }
}

/// Generalized harmonic number `sum_{i=1..n} 1 / i^theta`.
fn zeta(n: u64, theta: f64) -> f64 {
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_same_seed_identical_stream() {
        let mut a = PoissonProcess::new(11, 800.0);
        let mut b = PoissonProcess::new(11, 800.0);
        let ga: Vec<u64> = (0..500).map(|_| a.next_gap()).collect();
        let gb: Vec<u64> = (0..500).map(|_| b.next_gap()).collect();
        assert_eq!(ga, gb);
    }

    #[test]
    fn poisson_different_seeds_diverge() {
        let mut a = PoissonProcess::new(1, 800.0);
        let mut b = PoissonProcess::new(2, 800.0);
        let ga: Vec<u64> = (0..100).map(|_| a.next_gap()).collect();
        let gb: Vec<u64> = (0..100).map(|_| b.next_gap()).collect();
        assert_ne!(ga, gb);
    }

    #[test]
    fn poisson_mean_approximates_target() {
        let mut p = PoissonProcess::new(3, 1000.0);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| p.next_gap()).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 1000.0).abs() < 30.0, "mean gap {mean}");
    }

    #[test]
    fn poisson_gaps_are_memoryless_ish() {
        // An exponential's CV is 1: the sample standard deviation must be
        // close to the mean (a deterministic or uniform stream fails).
        let mut p = PoissonProcess::new(5, 500.0);
        let gaps: Vec<f64> = (0..20_000).map(|_| p.next_gap() as f64).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.05, "coefficient of variation {cv}");
    }

    #[test]
    fn zipf_same_seed_identical_stream() {
        let mut a = ZipfianSampler::new(4096, 0.99, 77);
        let mut b = ZipfianSampler::new(4096, 0.99, 77);
        let sa: Vec<u64> = (0..500).map(|_| a.sample()).collect();
        let sb: Vec<u64> = (0..500).map(|_| b.sample()).collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn reseeded_sampler_draws_what_a_fresh_one_draws() {
        let cases = [(2, 0.5, 0), (1000, 0.99, 4), (4096, 0.9, 77), (1 << 18, 0.99, 0xA11CE)];
        for (n, theta, seed) in cases {
            let mut derived = ZipfianSampler::new(n, theta, 1).reseeded(seed);
            let mut fresh = ZipfianSampler::new(n, theta, seed);
            for draw in 0..10_000 {
                assert_eq!(
                    derived.sample(),
                    fresh.sample(),
                    "n={n} theta={theta} seed={seed} draw {draw}"
                );
            }
        }
    }

    #[test]
    fn zipf_stays_in_domain_and_covers_head() {
        let mut z = ZipfianSampler::new(100, 0.9, 9);
        let mut seen0 = false;
        for _ in 0..2000 {
            let v = z.sample();
            assert!(v < 100);
            seen0 |= v == 0;
        }
        assert!(seen0, "rank 0 must appear");
    }

    #[test]
    fn zipf_head_dominates_tail() {
        // With theta = 0.99 over 10k addresses, the top 1% of ranks draw
        // far more than 1% of the samples (uniform would give ~1%).
        let mut z = ZipfianSampler::new(10_000, 0.99, 21);
        let draws = 50_000;
        let head = (0..draws).filter(|_| z.sample() < 100).count();
        let frac = head as f64 / draws as f64;
        assert!(frac > 0.3, "head fraction {frac} not skewed");
    }

    #[test]
    fn zipf_rank0_matches_head_mass() {
        let mut z = ZipfianSampler::new(1000, 0.99, 4);
        let expect = z.head_mass();
        let draws = 100_000;
        let got = (0..draws).filter(|_| z.sample() == 0).count() as f64 / draws as f64;
        assert!((got - expect).abs() < 0.02, "rank-0 mass {got} vs analytic {expect}");
    }

    #[test]
    fn zipf_more_theta_more_skew() {
        let mut lo = ZipfianSampler::new(4096, 0.5, 6);
        let mut hi = ZipfianSampler::new(4096, 0.95, 6);
        let draws = 30_000;
        let head_lo = (0..draws).filter(|_| lo.sample() < 41).count();
        let head_hi = (0..draws).filter(|_| hi.sample() < 41).count();
        assert!(head_hi > 2 * head_lo, "skew ordering: {head_lo} vs {head_hi}");
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn zipf_rejects_bad_theta() {
        let _ = ZipfianSampler::new(100, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "mean gap")]
    fn poisson_rejects_bad_mean() {
        let _ = PoissonProcess::new(0, 0.0);
    }
}
