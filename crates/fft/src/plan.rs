//! Mixed-radix FFT plans.
//!
//! A [`FftPlan`] is built once per transform length (the paper's setup
//! phase) and then applied to many vectors (the matvec phases) — shared
//! plans come from [`crate::cache`], so call sites normally never build
//! one directly. Plan construction factorizes `n`, precomputes per-stage
//! twiddle tables in `f64` (rounded into the plan's precision `T`), and
//! selects a strategy:
//!
//! * `Iterative` — Stockham-style iterative schedule
//!   (`iterative` module): radix-4/radix-2 stages with hand-coded
//!   butterflies, a table-driven generic butterfly for odd radices up to
//!   [`MAX_RADIX`], self-sorting ping-pong execution. The stages are
//!   grouped once, at construction, into a pass schedule: after the first
//!   stage, consecutive radix-4 pairs of an `f32` / `f64` plan run as one
//!   radix-16 pass through memory, with the bits of the two stages run
//!   one at a time. [`FftPlan::stage_count`] still counts stages.
//! * `Bluestein` — chirp-z fallback for lengths with a prime factor larger
//!   than [`MAX_RADIX`] (delegates to [`crate::bluestein`]).
//!
//! Execution is allocation-free and comes in two shapes: out-of-place
//! ([`FftPlan::process`]) and in-place ([`FftPlan::process_inplace`]).
//! Both take a caller-supplied scratch slice of exactly
//! [`FftPlan::scratch_len`] elements, which lets the batched driver keep
//! one scratch vector per worker in a pool.

use fftmatvec_numeric::{fma_pass, Complex, Real};

use crate::bluestein::BluesteinPlan;
use crate::iterative::IterativeFft;

/// Transform direction. Forward is `e^{-2πijk/n}` unscaled; inverse is
/// `e^{+2πijk/n}` scaled by `1/n`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FftDirection {
    Forward,
    Inverse,
}

impl FftDirection {
    /// The opposite direction.
    pub fn flip(self) -> Self {
        match self {
            FftDirection::Forward => FftDirection::Inverse,
            FftDirection::Inverse => FftDirection::Forward,
        }
    }
}

/// Largest prime handled by the mixed-radix path; larger primes switch the
/// whole transform to Bluestein. 61 comfortably covers every FFT size the
/// FFTMatvec workloads produce (2·N_t with N_t round numbers).
pub const MAX_RADIX: usize = 61;

enum Strategy<T: Real> {
    /// n ≤ 1: copy.
    Tiny,
    Iterative(IterativeFft<T>),
    Bluestein(Box<BluesteinPlan<T>>),
}

/// A reusable FFT plan for a fixed length `n` and element precision `T`.
pub struct FftPlan<T: Real> {
    n: usize,
    strategy: Strategy<T>,
}

/// Factorize `n` into the radix schedule: factors of 4 first (the cheapest
/// butterfly), then 2, then odd primes ascending. Returns `None` if a
/// prime factor exceeds [`MAX_RADIX`].
pub(crate) fn factorize(mut n: usize) -> Option<Vec<usize>> {
    let mut factors = Vec::new();
    while n % 4 == 0 {
        factors.push(4);
        n /= 4;
    }
    if n % 2 == 0 {
        factors.push(2);
        n /= 2;
    }
    let mut p = 3usize;
    while p * p <= n {
        while n % p == 0 {
            if p > MAX_RADIX {
                return None;
            }
            factors.push(p);
            n /= p;
        }
        p += 2;
    }
    if n > 1 {
        if n > MAX_RADIX {
            return None;
        }
        factors.push(n);
    }
    Some(factors)
}

impl<T: Real> FftPlan<T> {
    /// Build a plan for length `n`. `n = 0` is rejected. Prefer
    /// [`crate::cache::complex_plan`] for a shared, cached plan.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "FftPlan length must be nonzero");
        if n == 1 {
            return FftPlan { n, strategy: Strategy::Tiny };
        }
        match factorize(n) {
            Some(factors) => {
                FftPlan { n, strategy: Strategy::Iterative(IterativeFft::new(n, &factors)) }
            }
            None => FftPlan { n, strategy: Strategy::Bluestein(Box::new(BluesteinPlan::new(n))) },
        }
    }

    /// Transform length.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Exact scratch length (complex elements) for both
    /// [`FftPlan::process`] and [`FftPlan::process_inplace`]:
    ///
    /// * `0` for `n = 1` and single-stage schedules (`n` a prime ≤
    ///   [`MAX_RADIX`], 2, or 4);
    /// * `n` for multi-stage iterative schedules (the ping-pong partner
    ///   buffer);
    /// * `2·m` for Bluestein lengths, where `m` is the inner power-of-two
    ///   convolution length (covers the chirped signal and its ping-pong
    ///   partner).
    pub fn scratch_len(&self) -> usize {
        match &self.strategy {
            Strategy::Tiny => 0,
            Strategy::Iterative(engine) => engine.scratch_len(),
            Strategy::Bluestein(b) => b.scratch_len(),
        }
    }

    /// Out-of-place transform. `input.len() == output.len() == n`;
    /// `scratch.len() >= self.scratch_len()`.
    pub fn process(
        &self,
        input: &[Complex<T>],
        output: &mut [Complex<T>],
        scratch: &mut [Complex<T>],
        dir: FftDirection,
    ) {
        assert_eq!(input.len(), self.n, "FftPlan input length mismatch");
        assert_eq!(output.len(), self.n, "FftPlan output length mismatch");
        assert!(
            scratch.len() >= self.scratch_len(),
            "FftPlan scratch too small: {} < {}",
            scratch.len(),
            self.scratch_len()
        );
        match &self.strategy {
            Strategy::Tiny => output[0] = input[0],
            Strategy::Iterative(engine) => {
                engine.process(input, output, scratch, dir);
                if dir == FftDirection::Inverse {
                    scale_by_recip_n(output, self.n);
                }
            }
            Strategy::Bluestein(b) => b.process(input, output, scratch, dir),
        }
    }

    /// In-place transform: `buf` is both input and output
    /// (`buf.len() == n`, `scratch.len() >= self.scratch_len()`). This is
    /// the batched driver's hot path — no output buffer, no per-call
    /// allocation.
    pub fn process_inplace(
        &self,
        buf: &mut [Complex<T>],
        scratch: &mut [Complex<T>],
        dir: FftDirection,
    ) {
        assert_eq!(buf.len(), self.n, "FftPlan in-place buffer length mismatch");
        assert!(
            scratch.len() >= self.scratch_len(),
            "FftPlan scratch too small: {} < {}",
            scratch.len(),
            self.scratch_len()
        );
        match &self.strategy {
            Strategy::Tiny => {}
            Strategy::Iterative(engine) => {
                engine.process_inplace(buf, scratch, dir);
                if dir == FftDirection::Inverse {
                    scale_by_recip_n(buf, self.n);
                }
            }
            Strategy::Bluestein(b) => b.process_inplace(buf, scratch, dir),
        }
    }

    /// [`Self::process_inplace`] without the inverse transform's `1/n`
    /// pass: Bluestein's inner inverse, whose `1/m` is folded into its
    /// kernel spectrum.
    pub(crate) fn process_inplace_unscaled(
        &self,
        buf: &mut [Complex<T>],
        scratch: &mut [Complex<T>],
        dir: FftDirection,
    ) {
        match &self.strategy {
            Strategy::Iterative(engine) => engine.process_inplace(buf, scratch, dir),
            _ => unreachable!("Bluestein's inner plan is a multi-stage power of two"),
        }
    }

    /// The iterative engine, when this plan runs one — the real
    /// transform's fused pad and unpad passes run inside it.
    pub(crate) fn iterative(&self) -> Option<&IterativeFft<T>> {
        match &self.strategy {
            Strategy::Iterative(engine) => Some(engine),
            _ => None,
        }
    }

    /// Forward transform into `output`.
    pub fn forward(
        &self,
        input: &[Complex<T>],
        output: &mut [Complex<T>],
        scratch: &mut [Complex<T>],
    ) {
        self.process(input, output, scratch, FftDirection::Forward);
    }

    /// Inverse transform (scaled by `1/n`) into `output`.
    pub fn inverse(
        &self,
        input: &[Complex<T>],
        output: &mut [Complex<T>],
        scratch: &mut [Complex<T>],
    ) {
        self.process(input, output, scratch, FftDirection::Inverse);
    }

    /// Allocating convenience wrapper around [`FftPlan::forward`].
    pub fn forward_vec(&self, input: &[Complex<T>]) -> Vec<Complex<T>> {
        let mut out = vec![Complex::zero(); self.n];
        let mut scratch = vec![Complex::zero(); self.scratch_len()];
        self.forward(input, &mut out, &mut scratch);
        out
    }

    /// Allocating convenience wrapper around [`FftPlan::inverse`].
    pub fn inverse_vec(&self, input: &[Complex<T>]) -> Vec<Complex<T>> {
        let mut out = vec![Complex::zero(); self.n];
        let mut scratch = vec![Complex::zero(); self.scratch_len()];
        self.inverse(input, &mut out, &mut scratch);
        out
    }

    /// True if this plan fell back to the Bluestein strategy.
    pub fn is_bluestein(&self) -> bool {
        matches!(self.strategy, Strategy::Bluestein(_))
    }

    /// Number of iterative butterfly stages (`0` for tiny and Bluestein
    /// plans; a radix-16 pass counts its two) — exposed for scratch
    /// audits and tests.
    pub fn stage_count(&self) -> usize {
        match &self.strategy {
            Strategy::Iterative(engine) => engine.stage_count(),
            _ => 0,
        }
    }
}

fma_pass! {
    /// The inverse transform's `1/n` pass.
    fn scale_by_recip_n<T: Real>(buf: &mut [Complex<T>], n: usize) {
        let scale = T::from_usize(n).recip();
        for v in buf.iter_mut() {
            *v = v.scale(scale);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::naive_dft;
    use fftmatvec_numeric::SplitMix64;

    type C = Complex<f64>;

    fn random_signal(n: usize, seed: u64) -> Vec<C> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| C::new(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))).collect()
    }

    fn max_err(a: &[C], b: &[C]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (*x - *y).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn factorization() {
        assert_eq!(factorize(1), Some(vec![]));
        assert_eq!(factorize(8), Some(vec![4, 2]));
        assert_eq!(factorize(16), Some(vec![4, 4]));
        assert_eq!(factorize(2000), Some(vec![4, 4, 5, 5, 5]));
        assert_eq!(factorize(15), Some(vec![3, 5]));
        assert_eq!(factorize(49), Some(vec![7, 7]));
        assert_eq!(factorize(61), Some(vec![61]));
        assert_eq!(factorize(67), None); // prime > MAX_RADIX
        assert_eq!(factorize(2 * 67), None);
    }

    #[test]
    fn matches_naive_dft_all_small_sizes() {
        for n in 1..=64usize {
            let x = random_signal(n, n as u64);
            let plan = FftPlan::<f64>::new(n);
            let fast = plan.forward_vec(&x);
            let mut slow = vec![C::zero(); n];
            naive_dft(&x, &mut slow, FftDirection::Forward);
            let err = max_err(&fast, &slow);
            assert!(err < 1e-10 * (n as f64), "n={n} err={err}");
        }
    }

    #[test]
    fn matches_naive_dft_inverse_small_sizes() {
        for n in [1usize, 2, 3, 6, 8, 12, 20, 30, 48, 64] {
            let x = random_signal(n, 100 + n as u64);
            let plan = FftPlan::<f64>::new(n);
            let fast = plan.inverse_vec(&x);
            let mut slow = vec![C::zero(); n];
            naive_dft(&x, &mut slow, FftDirection::Inverse);
            assert!(max_err(&fast, &slow) < 1e-11, "n={n}");
        }
    }

    #[test]
    fn roundtrip_paper_sizes() {
        // 2·N_t for N_t ∈ {1000, 512, 100, 250}: the sizes FFTMatvec uses.
        for n in [2000usize, 1024, 200, 500, 2048] {
            let x = random_signal(n, n as u64);
            let plan = FftPlan::<f64>::new(n);
            let freq = plan.forward_vec(&x);
            let back = plan.inverse_vec(&freq);
            assert!(max_err(&back, &x) < 1e-12, "n={n}");
        }
    }

    #[test]
    fn inplace_matches_out_of_place_all_strategies() {
        // Iterative (single- and multi-stage), Bluestein, and tiny.
        for n in [1usize, 2, 4, 7, 8, 61, 64, 67, 101, 200, 500, 1024, 2000] {
            let plan = FftPlan::<f64>::new(n);
            let x = random_signal(n, 7 * n as u64 + 3);
            let mut scratch = vec![C::zero(); plan.scratch_len()];
            for dir in [FftDirection::Forward, FftDirection::Inverse] {
                let mut want = vec![C::zero(); n];
                plan.process(&x, &mut want, &mut scratch, dir);
                let mut buf = x.clone();
                plan.process_inplace(&mut buf, &mut scratch, dir);
                assert!(max_err(&buf, &want) < 1e-13, "n={n} {dir:?}");
            }
        }
    }

    #[test]
    fn scratch_len_contract_is_exact() {
        // Tiny and single-stage schedules need no scratch at all.
        for n in [1usize, 2, 3, 4, 5, 61] {
            assert_eq!(FftPlan::<f64>::new(n).scratch_len(), 0, "n={n}");
        }
        // Multi-stage iterative schedules need exactly one partner buffer.
        for n in [8usize, 1024, 2000, 2048] {
            let plan = FftPlan::<f64>::new(n);
            assert!(plan.stage_count() >= 2);
            assert_eq!(plan.scratch_len(), n, "n={n}");
        }
        // Bluestein: chirped signal + ping-pong partner, both length m.
        let plan = FftPlan::<f64>::new(67);
        assert!(plan.is_bluestein());
        assert_eq!(plan.scratch_len(), 2 * (2 * 67 - 1usize).next_power_of_two());
    }

    #[test]
    fn roundtrip_prime_sizes_use_bluestein() {
        for n in [67usize, 97, 101, 127, 251] {
            let plan = FftPlan::<f64>::new(n);
            assert!(plan.is_bluestein(), "n={n} should be Bluestein");
            let x = random_signal(n, n as u64);
            let freq = plan.forward_vec(&x);
            let back = plan.inverse_vec(&freq);
            assert!(max_err(&back, &x) < 1e-11, "n={n}");
        }
    }

    #[test]
    fn bluestein_matches_naive() {
        let n = 67;
        let x = random_signal(n, 7);
        let plan = FftPlan::<f64>::new(n);
        let fast = plan.forward_vec(&x);
        let mut slow = vec![C::zero(); n];
        naive_dft(&x, &mut slow, FftDirection::Forward);
        assert!(max_err(&fast, &slow) < 1e-10);
    }

    #[test]
    fn parseval() {
        let n = 240;
        let x = random_signal(n, 5);
        let plan = FftPlan::<f64>::new(n);
        let freq = plan.forward_vec(&x);
        let tx: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let tf: f64 = freq.iter().map(|v| v.norm_sqr()).sum();
        assert!((tf - n as f64 * tx).abs() < 1e-8 * tf, "Parseval violated");
    }

    #[test]
    fn linearity() {
        let n = 60;
        let x = random_signal(n, 1);
        let y = random_signal(n, 2);
        let plan = FftPlan::<f64>::new(n);
        let a = C::new(1.5, -0.5);
        let mixed: Vec<C> = x.iter().zip(&y).map(|(&xi, &yi)| a * xi + yi).collect();
        let fx = plan.forward_vec(&x);
        let fy = plan.forward_vec(&y);
        let fmixed = plan.forward_vec(&mixed);
        let expect: Vec<C> = fx.iter().zip(&fy).map(|(&xi, &yi)| a * xi + yi).collect();
        assert!(max_err(&fmixed, &expect) < 1e-11);
    }

    #[test]
    fn f32_plan_roundtrip_paper_sizes() {
        for n in [200usize, 500, 1024, 2000, 2048] {
            let mut rng = SplitMix64::new(9 + n as u64);
            let x: Vec<Complex<f32>> = (0..n)
                .map(|_| Complex::new(rng.uniform(-1.0, 1.0) as f32, rng.uniform(-1.0, 1.0) as f32))
                .collect();
            let plan = FftPlan::<f32>::new(n);
            let freq = plan.forward_vec(&x);
            let back = plan.inverse_vec(&freq);
            let err = x.iter().zip(&back).map(|(a, b)| (*a - *b).abs()).fold(0.0f32, f32::max);
            // Single-precision roundtrip error ~ eps·log2(n).
            assert!(err < 1e-5, "n={n} err={err}");
        }
    }

    #[test]
    fn direction_flip() {
        assert_eq!(FftDirection::Forward.flip(), FftDirection::Inverse);
        assert_eq!(FftDirection::Inverse.flip(), FftDirection::Forward);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_length_rejected() {
        let _ = FftPlan::<f64>::new(0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_input_length_rejected() {
        let plan = FftPlan::<f64>::new(8);
        let x = vec![C::zero(); 4];
        let mut out = vec![C::zero(); 8];
        let mut scratch = vec![C::zero(); plan.scratch_len()];
        plan.forward(&x, &mut out, &mut scratch);
    }
}
