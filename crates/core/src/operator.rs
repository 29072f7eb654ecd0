//! Block lower-triangular Toeplitz operators and their frequency-domain
//! setup.
//!
//! Only the first block column of `F` is stored (Section 2.4): `N_t`
//! blocks `F_{j1} ∈ R^{N_d × N_m}`. Setup embeds `F` in a block-circulant
//! matrix by zero-padding the block column to length `2·N_t` and takes a
//! batched real-to-complex FFT along the block index, yielding `N_t + 1`
//! complex frequency matrices `F̂_k`. Setup always runs in double
//! precision (it is a one-time cost, Section 3.2); narrower copies of `F̂`
//! are materialized lazily, in a [`TierSpectra`], for configurations that
//! compute phase 3 in a narrower tier.
//!
//! # The stored layout of `F̂`
//!
//! The operator keeps **one** copy of the spectrum, **frequency-minor**:
//! entry `(i, k)` of all frequencies contiguous,
//! `F̂[(i·N_m + k)·(N_t + 1) + f]`. That is exactly what the set-up FFT
//! emits (set-up transposes nothing) and the layout of the pipeline's own
//! spectra, so [`fftmatvec_blas::sbgemv_freq_minor`] runs straight from
//! the forward transform's output into the inverse transform's input with
//! lanes across frequencies and **no reorder pass**.
//!
//! The paper's phase 3 is instead a strided batched GEMV over
//! per-frequency column-major blocks, `F̂[f·N_d·N_m + k·N_d + i]`, wrapped
//! in SOTI↔TOSI reorders ([`fftmatvec_blas::sbgemv`], Figure 1's kernel;
//! [`fftmatvec_blas::select_kernel`] names the GPU kernel the cost model
//! charges). Both yield the same output bits (see
//! `fftmatvec_blas::kernels`). The documented block-major accessors
//! [`BlockToeplitzOperator::fhat`] and `fhat32` are that layout,
//! materialized lazily for oracles and tests (the 16-bit tiers' copies are
//! crate-private, for the pipeline's replay) — nothing on the apply path
//! reads them.

use std::sync::OnceLock;

use fftmatvec_fft::BatchedRealFft;
use fftmatvec_numeric::ndindex::transpose_map;
use fftmatvec_numeric::{Complex, Precision, C32, C64};

use crate::linop::ConfigError;
use crate::spectral::TierSpectra;

/// A block lower-triangular Toeplitz operator in FFT-ready form.
pub struct BlockToeplitzOperator {
    nd: usize,
    nm: usize,
    nt: usize,
    /// `F̂` frequency-minor, as the apply path reads it.
    stored: TierSpectra,
    /// The block-major view behind `fhat()` & co., built on first use
    /// (never by an apply).
    block_view: OnceLock<TierSpectra>,
    /// The first block column, kept for the direct (oracle) matvec:
    /// layout `col[(t·nd + i)·nm + k] = F_{t+1,1}[i,k]`.
    first_col: Vec<f64>,
}

impl Clone for BlockToeplitzOperator {
    /// Deep-copies the double-precision setup (`F̂` and the first block
    /// column); the lazily-cached narrow copies of `F̂` and the block-major
    /// view rematerialize in the clone on first use rather than being
    /// copied.
    fn clone(&self) -> Self {
        BlockToeplitzOperator {
            stored: TierSpectra::new(self.stored.c64().to_vec()),
            block_view: OnceLock::new(),
            first_col: self.first_col.clone(),
            ..*self
        }
    }
}

impl BlockToeplitzOperator {
    /// Build from the first block column.
    ///
    /// `col` has length `nt·nd·nm`, laid out `[t][sensor i][param k]`
    /// (row-major blocks): `col[(t·nd + i)·nm + k] = F_{t+1,1}[i,k]`.
    pub fn from_first_block_column(
        nd: usize,
        nm: usize,
        nt: usize,
        col: &[f64],
    ) -> Result<Self, ConfigError> {
        for (extent, what) in [(nd, "nd"), (nm, "nm"), (nt, "nt")] {
            if extent == 0 {
                return Err(ConfigError::ZeroDimension { what });
            }
        }
        let expected = checked_volume(nd, nm, nt)?;
        if col.len() != expected {
            return Err(ConfigError::ColumnLength { expected, got: col.len() });
        }

        // FFT each (i,k) time series zero-padded to 2·nt, the whole nd·nm
        // batch at once (the double-precision setup FFT of Section 3.2.1,
        // error bounded by c_F·ε_d·log2(2·N_t)). `col` is time-outer with
        // the series inner, which the padded transform reads in place: no
        // padded copy is made. The batched driver pulls its plan from the
        // process-wide cache, so this setup pass and the per-matvec
        // pipeline share twiddles.
        let series_count = nd * nm;
        let fft = BatchedRealFft::<f64>::new(2 * nt);
        let mut spectra = vec![Complex::zero(); series_count * (nt + 1)];
        fft.forward_padded(col, series_count, Precision::Double, &mut spectra);

        // `spectra[(i·nm + k)·nfreq + f]` *is* the frequency-minor layout.
        Ok(BlockToeplitzOperator {
            nd,
            nm,
            nt,
            stored: TierSpectra::new(spectra),
            block_view: OnceLock::new(),
            first_col: col.to_vec(),
        })
    }

    /// Number of sensors (block rows).
    #[inline]
    pub fn nd(&self) -> usize {
        self.nd
    }

    /// Number of spatial parameters (block columns).
    #[inline]
    pub fn nm(&self) -> usize {
        self.nm
    }

    /// Number of time blocks.
    #[inline]
    pub fn nt(&self) -> usize {
        self.nt
    }

    /// Frequency count `N_t + 1` (the SBGEMV batch size).
    #[inline]
    pub fn nfreq(&self) -> usize {
        self.nt + 1
    }

    /// `F̂` frequency-minor, `[(i·nm + k)·nfreq + f]`, as the apply path
    /// reads it.
    #[inline]
    pub(crate) fn stored(&self) -> &TierSpectra {
        &self.stored
    }

    /// `F̂` as per-frequency blocks, built on first use.
    fn block_view(&self) -> &TierSpectra {
        self.block_view.get_or_init(|| {
            TierSpectra::new(blocks_of(self.stored.c64(), self.nd, self.nm, self.nfreq()))
        })
    }

    /// Entry `(i, k)` of `F̂_f`, read from the stored spectrum.
    #[inline]
    pub fn fhat_at(&self, f: usize, i: usize, k: usize) -> C64 {
        let (nd, nm, nfreq) = (self.nd, self.nm, self.nfreq());
        assert!(f < nfreq && i < nd && k < nm, "fhat_at({f}, {i}, {k}) outside {nd}x{nm}x{nfreq}");
        self.stored.c64()[(i * nm + k) * nfreq + f]
    }

    /// The double-precision frequency matrices: `nfreq` column-major
    /// `nd × nm` matrices, packed contiguously (`stride_a = nd·nm`). This
    /// view (like the three narrow ones below) is materialized on first
    /// use; applies never ask for it.
    #[inline]
    pub fn fhat(&self) -> &[C64] {
        self.block_view().c64()
    }

    /// The single-precision frequency matrices (materialized on first
    /// use — the one-time cast for FP32 phase-3 configurations).
    pub fn fhat32(&self) -> &[C32] {
        self.block_view().buffer(Precision::Single).as_c32().expect("single tier")
    }

    /// The frequency matrices of [`Self::fhat`] in tier `p`, narrowed from
    /// the double copy on first use: the block-major operand the
    /// pipeline's replay oracle hands `sbgemv` in every tier.
    #[cfg(test)]
    pub(crate) fn fhat_in(&self, p: Precision) -> &fftmatvec_numeric::ComplexBuffer {
        self.block_view().buffer(p)
    }

    /// The stored first block column (`[t][i][k]` layout).
    #[inline]
    pub fn first_col(&self) -> &[f64] {
        &self.first_col
    }

    /// One block of the first column, as a dense row-major `nd × nm` view.
    pub fn block(&self, t: usize) -> &[f64] {
        assert!(t < self.nt);
        &self.first_col[t * self.nd * self.nm..(t + 1) * self.nd * self.nm]
    }

    /// Materialize the full dense `F` (`(nd·nt) × (nm·nt)` row-major).
    /// Test/oracle use only — quadratic in `nt`.
    pub fn dense(&self) -> Vec<f64> {
        let rows = self.nd * self.nt;
        let cols = self.nm * self.nt;
        let mut out = vec![0.0; rows * cols];
        for bi in 0..self.nt {
            for bj in 0..=bi {
                let blk = self.block(bi - bj);
                for i in 0..self.nd {
                    for k in 0..self.nm {
                        out[(bi * self.nd + i) * cols + bj * self.nm + k] = blk[i * self.nm + k];
                    }
                }
            }
        }
        out
    }

    /// Bytes of the double-precision `F̂` (the resident matrix data the
    /// bandwidth model streams in phase 3).
    pub fn fhat_bytes(&self) -> usize {
        std::mem::size_of_val(self.stored.c64())
    }
}

/// `nt·nd·nm`, the length of a first block column — a typed error
/// instead of a wrapped product when the extents come from outside.
pub(crate) fn checked_volume(nd: usize, nm: usize, nt: usize) -> Result<usize, ConfigError> {
    nt.checked_mul(nd)
        .and_then(|v| v.checked_mul(nm))
        .ok_or(ConfigError::DimensionOverflow { what: "nt*nd*nm" })
}

/// Frequency-minor spectra as per-frequency column-major blocks:
/// `blocks[f·nd·nm + k·nd + i] = spectra[(i·nm + k)·nfreq + f]`. Per block
/// column `k` this is a `(nd × nfreq) → (nfreq × nd)` transpose between
/// strided views of the two buffers.
fn blocks_of(spectra: &[C64], nd: usize, nm: usize, nfreq: usize) -> Vec<C64> {
    let mut blocks = vec![Complex::zero(); spectra.len()];
    for k in 0..nm {
        let (src, dst) = (&spectra[k * nfreq..], &mut blocks[k * nd..]);
        transpose_map(src, nm * nfreq, dst, nd * nm, nd, nfreq, |v| v);
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use fftmatvec_numeric::SplitMix64;

    fn random_operator(nd: usize, nm: usize, nt: usize, seed: u64) -> BlockToeplitzOperator {
        let mut rng = SplitMix64::new(seed);
        let mut col = vec![0.0; nt * nd * nm];
        rng.fill_uniform(&mut col, -1.0, 1.0);
        BlockToeplitzOperator::from_first_block_column(nd, nm, nt, &col).unwrap()
    }

    #[test]
    fn dimensions_and_freq_count() {
        let op = random_operator(3, 5, 8, 1);
        assert_eq!(op.nd(), 3);
        assert_eq!(op.nm(), 5);
        assert_eq!(op.nt(), 8);
        assert_eq!(op.nfreq(), 9);
        assert_eq!(op.fhat().len(), 9 * 15);
        assert_eq!(op.fhat_bytes(), 9 * 15 * 16);
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(BlockToeplitzOperator::from_first_block_column(0, 5, 8, &[]).is_err());
        assert!(BlockToeplitzOperator::from_first_block_column(3, 5, 8, &[0.0; 7]).is_err());
    }

    #[test]
    fn rejects_a_column_length_that_overflows() {
        // 2³² · 2³² wraps to 0 on 64-bit targets: an empty column must
        // not pass for it.
        let big = 1usize << (usize::BITS / 2);
        assert_eq!(
            BlockToeplitzOperator::from_first_block_column(big, big, 1, &[]).err(),
            Some(ConfigError::DimensionOverflow { what: "nt*nd*nm" })
        );
    }

    #[test]
    fn block_view_is_the_stored_spectrum_as_per_frequency_blocks() {
        let (nd, nm, nt) = (3, 5, 8);
        let op = random_operator(nd, nm, nt, 6);
        let (n2, nfreq) = (2 * nt, nt + 1);
        for f in 0..nfreq {
            for i in 0..nd {
                for k in 0..nm {
                    // The entry read against the zero-padded column's DFT.
                    let mut want = Complex::<f64>::zero();
                    for t in 0..nt {
                        let w = -std::f64::consts::TAU * (f * t) as f64 / n2 as f64;
                        want += Complex::new(w.cos(), w.sin()).scale(op.block(t)[i * nm + k]);
                    }
                    let got = op.fhat_at(f, i, k);
                    assert!((got - want).abs() < 1e-12, "F̂_{f}[{i},{k}]: {got:?} vs {want:?}");
                    // The block-major view holds the same value on bits.
                    assert_eq!(op.fhat()[f * nd * nm + k * nd + i], got);
                }
            }
        }
        assert_eq!(op.fhat_bytes(), nfreq * nd * nm * 16);
        // A clone rebuilds the lazy views from the same stored spectrum.
        let copy = op.clone();
        assert_eq!(copy.fhat(), op.fhat());
        assert_eq!(copy.fhat32(), op.fhat32());
        for p in [Precision::Half, Precision::BFloat16] {
            assert_eq!(copy.fhat_in(p), op.fhat_in(p), "{p}");
        }
    }

    #[test]
    fn dc_frequency_is_block_sum() {
        // F̂_0 = Σ_t F_{t,1} (the DC bin of the padded column FFT).
        let op = random_operator(2, 3, 4, 2);
        let mut sum = [0.0; 2 * 3];
        for t in 0..4 {
            for (s, &v) in sum.iter_mut().zip(op.block(t)) {
                *s += v;
            }
        }
        for i in 0..2 {
            for k in 0..3 {
                let z = op.fhat()[k * 2 + i]; // freq 0, column-major
                assert!((z.re - sum[i * 3 + k]).abs() < 1e-12);
                assert!(z.im.abs() < 1e-12);
            }
        }
    }

    #[test]
    fn dense_is_block_lower_triangular_toeplitz() {
        let op = random_operator(2, 3, 3, 3);
        let dense = op.dense();
        let (nd, nm, nt) = (2, 3, 3);
        let cols = nm * nt;
        // Upper block triangle is zero.
        for bi in 0..nt {
            for bj in bi + 1..nt {
                for i in 0..nd {
                    for k in 0..nm {
                        assert_eq!(dense[(bi * nd + i) * cols + bj * nm + k], 0.0);
                    }
                }
            }
        }
        // Toeplitz: block (bi,bj) equals block (bi-bj, 0).
        for bi in 0..nt {
            for bj in 0..=bi {
                let blk = op.block(bi - bj);
                for i in 0..nd {
                    for k in 0..nm {
                        assert_eq!(dense[(bi * nd + i) * cols + bj * nm + k], blk[i * nm + k]);
                    }
                }
            }
        }
    }

    #[test]
    fn fhat32_is_the_rounded_fhat() {
        let op = random_operator(2, 2, 4, 4);
        let f32s = op.fhat32();
        assert_eq!(f32s.len(), op.fhat().len());
        for (a, b) in f32s.iter().zip(op.fhat()) {
            assert_eq!(a.re, b.re as f32);
            assert_eq!(a.im, b.im as f32);
        }
    }

    #[test]
    fn half_tier_fhats_are_the_rounded_fhat() {
        use fftmatvec_numeric::{bf16, f16};
        let op = random_operator(2, 3, 4, 5);
        let h = op.fhat_in(Precision::Half).as_c16().expect("half tier");
        let b = op.fhat_in(Precision::BFloat16).as_cb16().expect("bfloat16 tier");
        assert_eq!(h.len(), op.fhat().len());
        assert_eq!(b.len(), op.fhat().len());
        for ((zh, zb), z) in h.iter().zip(b).zip(op.fhat()) {
            assert_eq!(zh.re.to_bits(), f16::from_f32(z.re as f32).to_bits());
            assert_eq!(zh.im.to_bits(), f16::from_f32(z.im as f32).to_bits());
            assert_eq!(zb.re.to_bits(), bf16::from_f32(z.re as f32).to_bits());
            assert_eq!(zb.im.to_bits(), bf16::from_f32(z.im as f32).to_bits());
        }
    }
}
