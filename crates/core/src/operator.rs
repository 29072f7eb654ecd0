//! Block lower-triangular Toeplitz operators and their frequency-domain
//! setup.
//!
//! Only the first block column of `F` is stored (Section 2.4): `N_t`
//! blocks `F_{j1} ∈ R^{N_d × N_m}`. Setup embeds `F` in a block-circulant
//! matrix by zero-padding the block column to length `2·N_t` and takes a
//! batched real-to-complex FFT along the block index, yielding `N_t + 1`
//! complex frequency matrices `F̂_k`. Setup always runs in double
//! precision (it is a one-time cost, Section 3.2); narrower copies of `F̂`
//! are materialized lazily for configurations that compute phase 3 in a
//! narrower tier.
//!
//! # The two stored layouts of `F̂`, and the one place that picks
//!
//! The operator keeps **one** copy of the spectrum, in the layout its
//! block shape is applied fastest in ([`SpectrumLayout::for_shape`], a
//! pure function of the shape, decided once at build — no option, no
//! environment variable):
//!
//! * [`SpectrumLayout::BlockMajor`] — `N_t + 1` column-major `N_d × N_m`
//!   matrices, `F̂[f·N_d·N_m + k·N_d + i]`: the strided batched GEMV's
//!   layout ([`fftmatvec_blas::sbgemv`]), whose row / column tiles
//!   amortize over a large block. The pipeline reorders its spectra
//!   `[series][freq] → [freq][series]` on the way in and back on the way
//!   out.
//! * [`SpectrumLayout::FrequencyMinor`] — entry `(i, k)` of all
//!   frequencies contiguous, `F̂[(i·N_m + k)·(N_t + 1) + f]`: exactly what
//!   the set-up FFT emits (set-up skips its `N_m` transposes) and the
//!   layout of the pipeline's own spectra, so
//!   [`fftmatvec_blas::sbgemv_freq_minor`] runs straight from the forward
//!   transform's output into the inverse transform's input with lanes
//!   across frequencies and **no reorder pass**. A small block cannot
//!   amortize a tile call (≈ 40 ns per 4×4 block against 2.6 ns here).
//!
//! The selection is the *executed* counterpart of
//! [`fftmatvec_blas::select_kernel`], which only names the kernel a GPU
//! dispatcher would launch for the cost model. Either layout yields the
//! same output bits (see `fftmatvec_blas::kernels`). The documented
//! block-major accessors [`BlockToeplitzOperator::fhat`] (and `fhat32` /
//! `fhat16` / `fhatb16`) answer on both: a frequency-minor operator
//! materializes that view lazily, for oracles and tests — nothing on the
//! apply path reads it.

use std::sync::OnceLock;

use fftmatvec_fft::BatchedRealFft;
use fftmatvec_numeric::ndindex::transpose_map;
use fftmatvec_numeric::{Complex, C16, C32, C64, CB16};

use crate::linop::ConfigError;

/// How a [`BlockToeplitzOperator`] stores `F̂` (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpectrumLayout {
    /// Per-frequency column-major blocks: `F̂[f·nd·nm + k·nd + i]`.
    BlockMajor,
    /// Per-entry frequency series: `F̂[(i·nm + k)·nfreq + f]`.
    FrequencyMinor,
}

impl SpectrumLayout {
    /// **The selection point**: the layout an operator with `nd × nm`
    /// blocks stores and applies `F̂` in — frequency-minor up to a measured
    /// block size, per-frequency blocks above it. The number of
    /// frequencies is not an argument: the per-block overhead being traded
    /// is paid per frequency on one side and saved per frequency on the
    /// other.
    pub fn for_shape(nd: usize, nm: usize) -> Self {
        // Largest block (entries) stored frequency-minor: **8×8**, the
        // largest measured shape on which the two layouts are clearly
        // apart in both tiers. The `sbgemv_freqminor_<nd>x<nm>x<nfreq>`
        // rows of `bench/baseline_simd.json` (reorder → `sbgemv` → reorder
        // ÷ `sbgemv_freq_minor`, one F and one F* symbol apply, hot, one
        // thread), c64 / c32 `speedup` as committed:
        //     4×4×4097   4.168 / 6.233      16×16×65   1.090 / 1.399
        //     2×16×65    2.805 / 3.484      16×64×65   0.951 / 1.224
        //     3×5×1025   5.501 / 7.755      16×256×65  1.044 / 1.237
        //     8×8×513    1.999 / 3.091
        // From 16×16 up the c64 rows cannot be told apart from one another
        // or from the run-to-run spread (three runs: 16×16 1.09–1.20,
        // 16×64 0.95–1.03, 16×256 1.04–1.07). Nothing between 64 and 256
        // entries is resolved by these rows and no `bench_e2e` workload
        // has a block in that range, so everything above 8×8 stays on the
        // row / column tiles.
        const FREQ_MINOR_MAX_ENTRIES: usize = 64;
        if nd * nm <= FREQ_MINOR_MAX_ENTRIES {
            SpectrumLayout::FrequencyMinor
        } else {
            SpectrumLayout::BlockMajor
        }
    }
}

/// `F̂` in one layout: the double-precision spectrum and its lazily
/// rounded narrow copies (the one-time cast for configurations that run
/// phase 3 below double; 16-bit rounding routes through `f32`, see
/// `fftmatvec_numeric::half`).
pub(crate) struct Spectrum {
    c64: Vec<C64>,
    c32: OnceLock<Vec<C32>>,
    c16: OnceLock<Vec<C16>>,
    cb16: OnceLock<Vec<CB16>>,
}

impl Spectrum {
    fn new(c64: Vec<C64>) -> Self {
        Spectrum { c64, c32: OnceLock::new(), c16: OnceLock::new(), cb16: OnceLock::new() }
    }

    pub(crate) fn c64(&self) -> &[C64] {
        &self.c64
    }

    pub(crate) fn c32(&self) -> &[C32] {
        self.c32.get_or_init(|| self.c64.iter().map(|z| z.cast()).collect())
    }

    pub(crate) fn c16(&self) -> &[C16] {
        self.c16.get_or_init(|| self.c64.iter().map(|z| z.cast()).collect())
    }

    pub(crate) fn cb16(&self) -> &[CB16] {
        self.cb16.get_or_init(|| self.c64.iter().map(|z| z.cast()).collect())
    }
}

/// A block lower-triangular Toeplitz operator in FFT-ready form.
pub struct BlockToeplitzOperator {
    nd: usize,
    nm: usize,
    nt: usize,
    /// The layout of `stored`; [`SpectrumLayout::for_shape`] of the shape.
    layout: SpectrumLayout,
    /// `F̂` as the apply path reads it.
    stored: Spectrum,
    /// The block-major view behind `fhat()` & co. on a frequency-minor
    /// operator, built on first use (never by an apply).
    block_view: OnceLock<Spectrum>,
    /// The first block column, kept for the direct (oracle) matvec:
    /// layout `col[(t·nd + i)·nm + k] = F_{t+1,1}[i,k]`.
    first_col: Vec<f64>,
}

impl Clone for BlockToeplitzOperator {
    /// Deep-copies the double-precision setup (`F̂` and the first block
    /// column); the lazily-cached narrow copies of `F̂` (and the
    /// block-major view of a frequency-minor operator) rematerialize in
    /// the clone on first use rather than being copied.
    fn clone(&self) -> Self {
        BlockToeplitzOperator {
            stored: Spectrum::new(self.stored.c64.clone()),
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
        Self::with_layout(nd, nm, nt, col, SpectrumLayout::for_shape(nd, nm))
    }

    /// [`from_first_block_column`](Self::from_first_block_column) with the
    /// stored layout forced — for the tests that hold the two layouts
    /// against each other; callers get [`SpectrumLayout::for_shape`].
    pub(crate) fn with_layout(
        nd: usize,
        nm: usize,
        nt: usize,
        col: &[f64],
        layout: SpectrumLayout,
    ) -> Result<Self, ConfigError> {
        for (extent, what) in [(nd, "nd"), (nm, "nm"), (nt, "nt")] {
            if extent == 0 {
                return Err(ConfigError::ZeroDimension { what });
            }
        }
        if col.len() != nt * nd * nm {
            return Err(ConfigError::ColumnLength { expected: nt * nd * nm, got: col.len() });
        }

        // Gather each (i,k) time series contiguously, zero-padded to 2·nt,
        // and FFT the whole nd·nm batch (the double-precision setup FFT of
        // Section 3.2.1, error bounded by c_F·ε_d·log2(2·N_t)). The
        // batched driver pulls its plan from the process-wide cache, so
        // this setup pass and the per-matvec pipeline share twiddles.
        let n2 = 2 * nt;
        let nfreq = nt + 1;
        let series_count = nd * nm;
        let mut padded = vec![0.0f64; series_count * n2];
        transpose_map(col, series_count, &mut padded, n2, nt, series_count, |v| v);
        let fft = BatchedRealFft::<f64>::new(n2);
        let mut spectra = vec![Complex::zero(); series_count * nfreq];
        fft.forward_batch(&padded, &mut spectra);
        drop(padded);

        // `spectra[(i·nm + k)·nfreq + f]` *is* the frequency-minor layout.
        let stored = match layout {
            SpectrumLayout::FrequencyMinor => spectra,
            SpectrumLayout::BlockMajor => blocks_of(&spectra, nd, nm, nfreq),
        };
        Ok(BlockToeplitzOperator {
            nd,
            nm,
            nt,
            layout,
            stored: Spectrum::new(stored),
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

    /// The layout `F̂` is stored and applied in.
    #[inline]
    pub fn layout(&self) -> SpectrumLayout {
        self.layout
    }

    /// `F̂` in [`layout`](Self::layout), as the apply path reads it.
    #[inline]
    pub(crate) fn stored(&self) -> &Spectrum {
        &self.stored
    }

    /// `F̂` as per-frequency blocks, whatever the stored layout.
    fn block_view(&self) -> &Spectrum {
        match self.layout {
            SpectrumLayout::BlockMajor => &self.stored,
            SpectrumLayout::FrequencyMinor => self.block_view.get_or_init(|| {
                Spectrum::new(blocks_of(&self.stored.c64, self.nd, self.nm, self.nfreq()))
            }),
        }
    }

    /// Entry `(i, k)` of `F̂_f`, read from the stored layout.
    #[inline]
    pub fn fhat_at(&self, f: usize, i: usize, k: usize) -> C64 {
        let (nd, nm, nfreq) = (self.nd, self.nm, self.nfreq());
        assert!(f < nfreq && i < nd && k < nm, "fhat_at({f}, {i}, {k}) outside {nd}x{nm}x{nfreq}");
        self.stored.c64[match self.layout {
            SpectrumLayout::BlockMajor => f * nd * nm + k * nd + i,
            SpectrumLayout::FrequencyMinor => (i * nm + k) * nfreq + f,
        }]
    }

    /// The double-precision frequency matrices: `nfreq` column-major
    /// `nd × nm` matrices, packed contiguously (`stride_a = nd·nm`). On a
    /// [`SpectrumLayout::FrequencyMinor`] operator this view (like the
    /// three narrow ones below) is materialized on first use; applies
    /// never ask for it.
    #[inline]
    pub fn fhat(&self) -> &[C64] {
        self.block_view().c64()
    }

    /// The single-precision frequency matrices (materialized on first
    /// use — the one-time cast for FP32 phase-3 configurations).
    pub fn fhat32(&self) -> &[C32] {
        self.block_view().c32()
    }

    /// The binary16 frequency matrices (materialized on first use — the
    /// one-time cast for FP16 phase-3 configurations; rounding routes
    /// through `f32`, see `fftmatvec_numeric::half`).
    pub fn fhat16(&self) -> &[C16] {
        self.block_view().c16()
    }

    /// The bfloat16 frequency matrices (materialized on first use).
    pub fn fhatb16(&self) -> &[CB16] {
        self.block_view().cb16()
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
        self.stored.c64.len() * core::mem::size_of::<C64>()
    }
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
    fn layout_follows_the_block_size_and_the_block_view_is_the_same_spectrum() {
        assert_eq!(SpectrumLayout::for_shape(4, 4), SpectrumLayout::FrequencyMinor);
        assert_eq!(SpectrumLayout::for_shape(2, 16), SpectrumLayout::FrequencyMinor);
        assert_eq!(SpectrumLayout::for_shape(8, 8), SpectrumLayout::FrequencyMinor);
        assert_eq!(SpectrumLayout::for_shape(5, 13), SpectrumLayout::BlockMajor);
        assert_eq!(SpectrumLayout::for_shape(16, 16), SpectrumLayout::BlockMajor);
        assert_eq!(SpectrumLayout::for_shape(16, 256), SpectrumLayout::BlockMajor);

        let (nd, nm, nt) = (3, 5, 8);
        let mut col = vec![0.0; nt * nd * nm];
        SplitMix64::new(6).fill_uniform(&mut col, -1.0, 1.0);
        let build = |layout| BlockToeplitzOperator::with_layout(nd, nm, nt, &col, layout).unwrap();
        let (blocks, minor) =
            (build(SpectrumLayout::BlockMajor), build(SpectrumLayout::FrequencyMinor));
        assert_eq!(random_operator(nd, nm, nt, 6).layout(), SpectrumLayout::FrequencyMinor);
        // The documented block-major accessors answer identically on both,
        // in every tier, and so does the layout-agnostic entry read.
        assert_eq!(minor.fhat(), blocks.fhat());
        assert_eq!(minor.fhat32(), blocks.fhat32());
        assert_eq!(minor.fhat16(), blocks.fhat16());
        assert_eq!(minor.fhatb16(), blocks.fhatb16());
        assert_eq!(minor.fhat_bytes(), blocks.fhat_bytes());
        for (f, i, k) in [(0, 0, 0), (8, 2, 4), (3, 1, 2)] {
            let want = blocks.fhat()[f * nd * nm + k * nd + i];
            assert_eq!(blocks.fhat_at(f, i, k), want);
            assert_eq!(minor.fhat_at(f, i, k), want);
        }
        // A clone keeps the layout and rebuilds the lazy views.
        assert_eq!(minor.clone().layout(), SpectrumLayout::FrequencyMinor);
        assert_eq!(minor.clone().fhat(), blocks.fhat());
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
        let h = op.fhat16();
        let b = op.fhatb16();
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
