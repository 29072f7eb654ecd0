//! [`CpuPool`] — the default backend: the rayon-pool batched FFTs and
//! SIMD kernels the workspace has always executed, behind the
//! [`DeviceBackend`] trait.
//!
//! Every primitive here is a thin tier match around the one library
//! kernel of its kind — batched FFTs through
//! [`fftmatvec_fft::BatchedRealFft`], casts through
//! [`RealBuffer::cast_into`] / [`ComplexBuffer::cast_into`] (the
//! `16-bit ↔ f32` pairs on the SIMD conversions), the pointwise multiply
//! through [`fftmatvec_numeric::simd::pointwise_mul_assign`] (a vector
//! kernel per tier at the AVX2 level), the deterministic tree reduction
//! from `fftmatvec-comm` — so results are **bit-identical** to calling
//! those directly, and `bench_backend` prices exactly the dispatch.
//! Transfer accounting is a pair of relaxed atomic counters; no copies
//! are added to the hot path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fftmatvec_comm::collectives::tree_reduce_sum_in_place;
use fftmatvec_fft::{BatchedRealFft, RealPlanHandle};
use fftmatvec_numeric::simd::pointwise_mul_assign;
use fftmatvec_numeric::{bf16, f16, ComplexBuffer, Precision, Real, RealBuffer};

use crate::error::BackendError;
use crate::kind::BackendKind;
use crate::traits::{BatchFft, DeviceBackend, TransferStats};

/// The CPU-pool backend (default). Cheap to construct; each operator
/// build gets a fresh instance so transfer ledgers never alias.
#[derive(Debug, Default)]
pub struct CpuPool {
    uploads: AtomicU64,
    downloads: AtomicU64,
    bytes_up: AtomicU64,
    bytes_down: AtomicU64,
}

impl CpuPool {
    /// A fresh CPU backend with a zeroed transfer ledger.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One planned tier of the CPU batched real FFT. Fresh per
/// [`DeviceBackend::real_fft`] call (each handle owns its scratch pool);
/// the plan itself is deduplicated by the process-wide plan cache, so
/// same-length handles share twiddle tables.
struct CpuFft<T: Real> {
    tier: Precision,
    n: usize,
    engine: BatchedRealFft<T>,
}

impl<T: Real> std::fmt::Debug for CpuFft<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CpuFft").field("tier", &self.tier).field("n", &self.n).finish()
    }
}

impl<T: Real> CpuFft<T> {
    fn new(tier: Precision, n: usize) -> Self {
        CpuFft { tier, n, engine: BatchedRealFft::new(n) }
    }
}

/// The payload of `$buf` when it is the `$variant` tier, else a typed
/// tier mismatch naming `$what` returned from the enclosing function.
macro_rules! tiered {
    ($buf:expr, $variant:path, $tier:expr, $what:literal) => {
        match $buf {
            $variant(v) => v,
            other => {
                return Err(BackendError::TierMismatch {
                    what: $what,
                    expected: $tier,
                    got: other.precision(),
                })
            }
        }
    };
}

macro_rules! impl_cpu_fft {
    ($ty:ty, $rvar:ident, $cvar:ident, $handle:expr) => {
        impl BatchFft for CpuFft<$ty> {
            fn tier(&self) -> Precision {
                self.tier
            }

            fn transform_len(&self) -> usize {
                self.n
            }

            fn forward(
                &self,
                input: &RealBuffer,
                output: &mut ComplexBuffer,
            ) -> Result<(), BackendError> {
                let v = tiered!(input, RealBuffer::$rvar, self.tier, "batched FFT forward input");
                let s =
                    tiered!(output, ComplexBuffer::$cvar, self.tier, "batched FFT forward output");
                check_batch_lens(self.n, self.spectrum_len(), v.len(), s.len())?;
                self.engine.forward_batch(v, s);
                Ok(())
            }

            fn inverse(
                &self,
                spectrum: &ComplexBuffer,
                output: &mut RealBuffer,
            ) -> Result<(), BackendError> {
                let s =
                    tiered!(spectrum, ComplexBuffer::$cvar, self.tier, "batched FFT inverse input");
                let v = tiered!(output, RealBuffer::$rvar, self.tier, "batched FFT inverse output");
                check_batch_lens(self.n, self.spectrum_len(), v.len(), s.len())?;
                self.engine.inverse_batch(s, v);
                Ok(())
            }

            fn forward_padded_many(
                &self,
                input: &[f64],
                n_series: usize,
                cols: usize,
                pad: Precision,
                output: &mut ComplexBuffer,
            ) -> Result<(), BackendError> {
                let s = tiered!(
                    output,
                    ComplexBuffer::$cvar,
                    self.tier,
                    "batched padded FFT forward output"
                );
                check_columns(cols, cols * n_series)?;
                check_tosi_lens(self.n / 2, cols * n_series, input.len())?;
                check_batch_lens(self.n, self.spectrum_len(), cols * n_series * self.n, s.len())?;
                self.engine.forward_padded_many(input, n_series, cols, pad, s);
                Ok(())
            }

            fn inverse_unpadded_many(
                &self,
                spectrum: &ComplexBuffer,
                cols: usize,
                unpad: Precision,
                output: &mut [f64],
            ) -> Result<(), BackendError> {
                let s = tiered!(
                    spectrum,
                    ComplexBuffer::$cvar,
                    self.tier,
                    "batched unpadded FFT inverse input"
                );
                let batch = s.len() / self.spectrum_len();
                check_batch_lens(self.n, self.spectrum_len(), batch * self.n, s.len())?;
                check_columns(cols, batch)?;
                check_tosi_lens(self.n / 2, batch, output.len())?;
                self.engine.inverse_unpadded_many(s, cols, unpad, output);
                Ok(())
            }

            fn plan_handle_f64(&self) -> Option<RealPlanHandle<f64>> {
                #[allow(clippy::redundant_closure_call)]
                ($handle)(self)
            }
        }
    };
}

impl_cpu_fft!(f16, F16, C16, |_s: &CpuFft<f16>| None);
impl_cpu_fft!(bf16, BF16, CB16, |_s: &CpuFft<bf16>| None);
impl_cpu_fft!(f32, F32, C32, |_s: &CpuFft<f32>| None);
impl_cpu_fft!(f64, F64, C64, |s: &CpuFft<f64>| Some(s.engine.plan_handle().clone()));

/// Validate the batched-FFT length contract: `time` holds whole
/// transforms and `spec` the matching packed spectra.
fn check_batch_lens(
    n: usize,
    nfreq: usize,
    time_len: usize,
    spec_len: usize,
) -> Result<(), BackendError> {
    if n == 0 || time_len % n != 0 {
        return Err(BackendError::LengthMismatch {
            what: "batched FFT time buffer (whole transforms required)",
            expected: n,
            got: time_len,
        });
    }
    let batch = time_len / n;
    if spec_len != batch * nfreq {
        return Err(BackendError::LengthMismatch {
            what: "batched FFT spectrum buffer",
            expected: batch * nfreq,
            got: spec_len,
        });
    }
    Ok(())
}

/// Validate a column count: at least one column, and `batch` series that
/// split into `cols` equal columns.
fn check_columns(cols: usize, batch: usize) -> Result<(), BackendError> {
    if cols == 0 || batch % cols != 0 {
        return Err(BackendError::LengthMismatch {
            what: "batched padded FFT columns (equal, non-empty columns required)",
            expected: cols,
            got: batch,
        });
    }
    Ok(())
}

/// Validate a time-outer/series-inner `f64` matrix of `n_series` series
/// of `nt` samples each.
fn check_tosi_lens(nt: usize, n_series: usize, len: usize) -> Result<(), BackendError> {
    if len != nt * n_series {
        return Err(BackendError::LengthMismatch {
            what: "batched padded FFT time-outer matrix",
            expected: nt * n_series,
            got: len,
        });
    }
    Ok(())
}

impl DeviceBackend for CpuPool {
    fn kind(&self) -> BackendKind {
        BackendKind::Cpu
    }

    fn name(&self) -> &'static str {
        "cpu-pool"
    }

    fn record_upload(&self, bytes: usize) {
        self.uploads.fetch_add(1, Ordering::Relaxed);
        self.bytes_up.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    fn record_download(&self, bytes: usize) {
        self.downloads.fetch_add(1, Ordering::Relaxed);
        self.bytes_down.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    fn transfers(&self) -> TransferStats {
        TransferStats {
            uploads: self.uploads.load(Ordering::Relaxed),
            downloads: self.downloads.load(Ordering::Relaxed),
            bytes_up: self.bytes_up.load(Ordering::Relaxed),
            bytes_down: self.bytes_down.load(Ordering::Relaxed),
        }
    }

    fn reset_transfers(&self) {
        self.uploads.store(0, Ordering::Relaxed);
        self.downloads.store(0, Ordering::Relaxed);
        self.bytes_up.store(0, Ordering::Relaxed);
        self.bytes_down.store(0, Ordering::Relaxed);
    }

    /// The tier-matched CPU FFT handle.
    fn real_fft(&self, p: Precision, n: usize) -> Result<Arc<dyn BatchFft>, BackendError> {
        Ok(match p {
            Precision::Half => Arc::new(CpuFft::<f16>::new(p, n)),
            Precision::BFloat16 => Arc::new(CpuFft::<bf16>::new(p, n)),
            Precision::Single => Arc::new(CpuFft::<f32>::new(p, n)),
            Precision::Double => Arc::new(CpuFft::<f64>::new(p, n)),
        })
    }

    fn pointwise_multiply(
        &self,
        io: &mut ComplexBuffer,
        sym: &ComplexBuffer,
        conj: bool,
    ) -> Result<(), BackendError> {
        if io.len() != sym.len() {
            return Err(BackendError::LengthMismatch {
                what: "pointwise symbol multiply",
                expected: sym.len(),
                got: io.len(),
            });
        }
        match (io, sym) {
            (ComplexBuffer::C16(g), ComplexBuffer::C16(s)) => pointwise_mul_assign(g, s, conj),
            (ComplexBuffer::CB16(g), ComplexBuffer::CB16(s)) => pointwise_mul_assign(g, s, conj),
            (ComplexBuffer::C32(g), ComplexBuffer::C32(s)) => pointwise_mul_assign(g, s, conj),
            (ComplexBuffer::C64(g), ComplexBuffer::C64(s)) => pointwise_mul_assign(g, s, conj),
            (io, sym) => {
                return Err(BackendError::TierMismatch {
                    what: "pointwise symbol multiply",
                    expected: sym.precision(),
                    got: io.precision(),
                })
            }
        }
        Ok(())
    }

    fn cast_real(
        &self,
        src: &RealBuffer,
        p: Precision,
        dst: &mut RealBuffer,
    ) -> Result<(), BackendError> {
        src.cast_into(p, dst);
        Ok(())
    }

    fn cast_complex(
        &self,
        src: &ComplexBuffer,
        p: Precision,
        dst: &mut ComplexBuffer,
    ) -> Result<(), BackendError> {
        src.cast_into(p, dst);
        Ok(())
    }

    /// Deterministic tree reduction of the `flat.len()/len` parts into
    /// `flat[..len]`.
    fn tree_reduce(&self, flat: &mut RealBuffer, len: usize) -> Result<(), BackendError> {
        if len == 0 || flat.len() % len != 0 {
            return Err(BackendError::LengthMismatch {
                what: "tree-reduce buffer (whole parts required)",
                expected: len,
                got: flat.len(),
            });
        }
        match flat {
            RealBuffer::F16(v) => tree_reduce_sum_in_place(v, len),
            RealBuffer::BF16(v) => tree_reduce_sum_in_place(v, len),
            RealBuffer::F32(v) => tree_reduce_sum_in_place(v, len),
            RealBuffer::F64(v) => tree_reduce_sum_in_place(v, len),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fftmatvec_numeric::{Complex, C64};

    #[test]
    fn forward_inverse_roundtrip_f64() {
        let pool = CpuPool::new();
        let n = 16;
        let fft = pool.real_fft(Precision::Double, n).unwrap();
        assert_eq!(fft.tier(), Precision::Double);
        assert_eq!(fft.transform_len(), n);
        assert_eq!(fft.spectrum_len(), n / 2 + 1);
        let x: Vec<f64> = (0..2 * n).map(|i| (i as f64 * 0.37).sin()).collect();
        let input = RealBuffer::from_f64(Precision::Double, &x);
        let mut spec = ComplexBuffer::zeros(Precision::Double, 2 * (n / 2 + 1));
        fft.forward(&input, &mut spec).unwrap();
        let mut back = RealBuffer::zeros(Precision::Double, 2 * n);
        fft.inverse(&spec, &mut back).unwrap();
        for i in 0..2 * n {
            assert!((back.get(i) - x[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn tier_and_length_mismatches_are_typed() {
        let pool = CpuPool::new();
        let fft = pool.real_fft(Precision::Double, 8).unwrap();
        let wrong_tier = RealBuffer::zeros(Precision::Single, 8);
        let mut spec = ComplexBuffer::zeros(Precision::Double, 5);
        assert!(matches!(
            fft.forward(&wrong_tier, &mut spec),
            Err(BackendError::TierMismatch { .. })
        ));
        let ragged = RealBuffer::zeros(Precision::Double, 9);
        assert!(matches!(
            fft.forward(&ragged, &mut spec),
            Err(BackendError::LengthMismatch { .. })
        ));
        let ok_in = RealBuffer::zeros(Precision::Double, 8);
        let mut short = ComplexBuffer::zeros(Precision::Double, 4);
        assert!(matches!(
            fft.forward(&ok_in, &mut short),
            Err(BackendError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn pointwise_matches_scalar_reference() {
        let pool = CpuPool::new();
        let a: Vec<C64> = (0..6).map(|i| C64::new(i as f64, 1.0 - i as f64)).collect();
        let b: Vec<C64> = (0..6).map(|i| C64::new(0.5 * i as f64, 0.25)).collect();
        let mut io = ComplexBuffer::from_c64(Precision::Double, &a);
        let sym = ComplexBuffer::from_c64(Precision::Double, &b);
        pool.pointwise_multiply(&mut io, &sym, false).unwrap();
        for i in 0..6 {
            let want = a[i] * b[i];
            let got = io.get(i);
            assert_eq!(got.re.to_bits(), want.re.to_bits());
            assert_eq!(got.im.to_bits(), want.im.to_bits());
        }
        let mut io = ComplexBuffer::from_c64(Precision::Double, &a);
        pool.pointwise_multiply(&mut io, &sym, true).unwrap();
        for i in 0..6 {
            let want = a[i] * b[i].conj();
            assert_eq!(io.get(i), want);
        }
    }

    /// Every tier, both `conj` values, at every SIMD level — the vector
    /// kernels of `numeric::simd::pointwise_mul_assign` included — equals
    /// the scalar `*g *= s` / `*g *= s.conj()` on bits, tails included.
    #[test]
    fn pointwise_is_bit_identical_at_every_simd_level() {
        use fftmatvec_numeric::simd::{active_level, level_supported, set_active_level, SimdLevel};
        use fftmatvec_numeric::SplitMix64;

        // Signed zeros, infinities, NaN, subnormals and values past the
        // f16 / f32 ranges cycled through random data.
        const SPECIAL: [f64; 12] = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            5e-324,
            1e-40,
            -6e-8,
            65504.0,
            -7e4,
            1e10,
            -1e39,
        ];
        let awkward = |len: usize, seed: u64| -> Vec<C64> {
            let mut rng = SplitMix64::new(seed);
            let mut part = |i: usize| match i % 5 {
                2 => SPECIAL[i / 5 % 12],
                _ => rng.uniform(-2.0, 2.0),
            };
            (0..len).map(|i| C64::new(part(2 * i), part(2 * i + 1))).collect()
        };
        let bits = |b: &ComplexBuffer| -> Vec<(u64, u64)> {
            (0..b.len()).map(|i| (b.get(i).re.to_bits(), b.get(i).im.to_bits())).collect()
        };
        // The scalar `*g *= s` / `*g *= s.conj()` of the tier, on bits.
        fn scalar(io: &ComplexBuffer, sym: &ComplexBuffer, conj: bool) -> ComplexBuffer {
            fn go<T: Real>(io: &[Complex<T>], sym: &[Complex<T>], conj: bool) -> Vec<Complex<T>> {
                let mut out = io.to_vec();
                for (g, s) in out.iter_mut().zip(sym) {
                    if conj {
                        *g *= s.conj();
                    } else {
                        *g *= *s;
                    }
                }
                out
            }
            match (io, sym) {
                (ComplexBuffer::C16(g), ComplexBuffer::C16(s)) => go(g, s, conj).into(),
                (ComplexBuffer::CB16(g), ComplexBuffer::CB16(s)) => go(g, s, conj).into(),
                (ComplexBuffer::C32(g), ComplexBuffer::C32(s)) => go(g, s, conj).into(),
                (ComplexBuffer::C64(g), ComplexBuffer::C64(s)) => go(g, s, conj).into(),
                _ => unreachable!("one tier"),
            }
        }
        let pool = CpuPool::new();
        // The level is process-global; sibling tests running meanwhile
        // are level-agnostic (every level computes the same bits).
        let prev = active_level();
        let levels = [SimdLevel::Portable, SimdLevel::Avx2];
        for len in [0, 1, 7, 16_384] {
            let (a, b) = (awkward(len, 3), awkward(len, 4));
            for p in Precision::ALL {
                let (io, sym) = (ComplexBuffer::from_c64(p, &a), ComplexBuffer::from_c64(p, &b));
                for conj in [false, true] {
                    let reference = bits(&scalar(&io, &sym, conj));
                    for level in levels.into_iter().filter(|&l| level_supported(l)) {
                        set_active_level(level);
                        let mut got = io.clone();
                        pool.pointwise_multiply(&mut got, &sym, conj).unwrap();
                        assert_eq!(bits(&got), reference, "{p} len={len} conj={conj} {level}");
                    }
                }
            }
        }
        set_active_level(prev);
    }

    #[test]
    fn casts_single_round_through_f64() {
        let pool = CpuPool::new();
        let src = RealBuffer::from_f64(Precision::Double, &[1.0 + 2f64.powi(-30), -2.0]);
        let mut dst = RealBuffer::zeros(Precision::Single, 0);
        pool.cast_real(&src, Precision::Single, &mut dst).unwrap();
        assert_eq!(dst.len(), 2);
        assert_eq!(dst.precision(), Precision::Single);
        assert_eq!(dst.get(0), 1.0);
        let csrc =
            ComplexBuffer::from_c64(Precision::Double, &[C64::new(1.0 + 2f64.powi(-30), -2.0)]);
        let mut cdst = ComplexBuffer::zeros(Precision::Half, 0);
        pool.cast_complex(&csrc, Precision::Single, &mut cdst).unwrap();
        assert_eq!(cdst.precision(), Precision::Single);
        assert_eq!(cdst.get(0), C64::new(1.0, -2.0));
    }

    #[test]
    fn tree_reduce_sums_parts_deterministically() {
        let pool = CpuPool::new();
        let mut flat =
            RealBuffer::from_f64(Precision::Double, &[1.0, 2.0, 10.0, 20.0, 100.0, 200.0]);
        pool.tree_reduce(&mut flat, 2).unwrap();
        assert_eq!(flat.get(0), 111.0);
        assert_eq!(flat.get(1), 222.0);
        let mut bad = RealBuffer::zeros(Precision::Double, 5);
        assert!(matches!(pool.tree_reduce(&mut bad, 2), Err(BackendError::LengthMismatch { .. })));
    }

    #[test]
    fn transfer_ledger_counts_events_and_bytes() {
        let pool = CpuPool::new();
        pool.record_upload(24);
        pool.record_download(24);
        let t = pool.transfers();
        assert_eq!(t.uploads, 1);
        assert_eq!(t.downloads, 1);
        assert_eq!(t.bytes_up, 24);
        assert_eq!(t.bytes_down, 24);
        assert_eq!(t.total_bytes(), 48);
        pool.reset_transfers();
        assert_eq!(pool.transfers(), TransferStats::default());
        assert!(pool.modeled_times().is_none());
    }

    #[test]
    fn f64_handle_exposes_the_shared_plan() {
        let pool = CpuPool::new();
        let a = pool.real_fft(Precision::Double, 24).unwrap();
        let b = pool.real_fft(Precision::Double, 24).unwrap();
        let (ha, hb) = (a.plan_handle_f64().unwrap(), b.plan_handle_f64().unwrap());
        assert!(Arc::ptr_eq(&ha, &hb), "same-length f64 handles must share the cached plan");
        assert!(pool.real_fft(Precision::Single, 24).unwrap().plan_handle_f64().is_none());
    }
}
