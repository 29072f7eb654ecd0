//! Circulant embedding symbols: the frequency-domain setup shared by
//! every pipeline variant of one operator.
//!
//! Embedding a multi-level Toeplitz matrix into a multi-level circulant
//! turns its matvec into `extract ∘ IFFTN ∘ (⊙ ĉ) ∘ FFTN ∘ pad`, where
//! `ĉ` — the *symbol spectrum* — is the N-d FFT of the circulant's
//! first-column tensor. The symbol is the expensive, shareable part of
//! construction (like `F̂` for the 1-level pipeline): [`ToeplitzSymbol`]
//! is built once per generator, computed in double precision, and lazily
//! cast per tier the first time a configuration touches that tier (in a
//! [`TierSpectra`], the bank `F̂` lives in too), then shared across every
//! precision variant via `Arc`
//! ([`crate::TwoLevelToeplitz::builder_arc`]).
//!
//! The circulant grid has per-level even extents
//! `m_l ≥ rows_l + cols_l - 1` ([`ToeplitzSymbol::work_dims`]). The
//! generator is real, so the first column is real and its spectrum
//! Hermitian: only the `m_{L−1}/2 + 1` non-redundant bins of the
//! innermost axis are stored, and they are stored in the **rotated
//! layout** [`RealNdFft`] produces (`[h, m₀]` for two levels) — the
//! symbol is computed by the same engine the applies run, with the head
//! box set to the whole grid, so its element order is the apply's by
//! construction.

use fftmatvec_core::spectral::TierSpectra;
use fftmatvec_core::ConfigError;
use fftmatvec_fft::RealNdFft;
use fftmatvec_numeric::ndindex::total_len;
use fftmatvec_numeric::{Precision, C64};

use crate::generator::{LevelDims, ToeplitzGenerator};

/// The shared, immutable frequency-domain setup of one multi-level
/// Toeplitz operator: generator, embedding extents, symbol spectrum (with
/// per-tier lazy casts), and the one-time condition estimate. Buildable
/// once and shared across precision variants via `Arc`.
pub struct ToeplitzSymbol {
    gen: ToeplitzGenerator,
    /// Circulant extents per level (`m_l`).
    dims: Vec<usize>,
    /// Half spectrum in the engine's rotated layout.
    spectrum: TierSpectra,
    /// Length of the staging buffer of an apply.
    stage_len: usize,
    kappa: f64,
}

impl std::fmt::Debug for ToeplitzSymbol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ToeplitzSymbol")
            .field("levels", &self.gen.levels())
            .field("work_dims", &self.dims)
            .finish()
    }
}

/// Smallest even circulant extent embedding a level (the real transform
/// of the innermost axis needs an even length; the other axes follow the
/// same rule so extents do not depend on a level's position).
fn embed_len(level: LevelDims) -> usize {
    let s = level.diags();
    s + (s % 2)
}

/// First-column tensor of the multi-level circulant embedding `T` in a
/// grid of extents `dims`: per axis, position `k < rows` holds diagonal
/// `+k`, position `k ≥ m - (cols-1)` holds diagonal `k - m`, anything
/// between is zero (the embedding slack). An entry is non-zero only if
/// every axis maps.
fn circulant_column(gen: &ToeplitzGenerator, dims: &[usize]) -> Vec<f64> {
    let levels = gen.levels();
    let diag_dims: Vec<usize> = levels.iter().map(LevelDims::diags).collect();
    let diag_strides = fftmatvec_numeric::ndindex::strides_row_major(&diag_dims);
    // Per-axis map: circulant coordinate → generator axis coordinate.
    let maps: Vec<Vec<Option<usize>>> = levels
        .iter()
        .zip(dims)
        .map(|(lv, &m)| {
            (0..m)
                .map(|k| {
                    if k < lv.rows {
                        Some(lv.cols - 1 + k)
                    } else if k + lv.cols > m {
                        // k - m ∈ [-(cols-1), -1] → axis index cols-1+k-m
                        Some(lv.cols - 1 + k - m)
                    } else {
                        None
                    }
                })
                .collect()
        })
        .collect();
    let mut col = vec![0.0; total_len(dims)];
    let mut idx = vec![0usize; dims.len()];
    for (flat, slot) in col.iter_mut().enumerate() {
        fftmatvec_numeric::ndindex::decompose(flat, dims, &mut idx);
        let diag_flat: Option<usize> =
            idx.iter().enumerate().map(|(l, &k)| Some(maps[l][k]? * diag_strides[l])).sum();
        if let Some(d) = diag_flat {
            *slot = gen.diagonals()[d];
        }
    }
    col
}

/// Conservative condition proxy from the circulant spectrum:
/// `max|ĉ| / min|ĉ|`, capped so a (near-)singular embedding yields a
/// large-but-finite κ instead of ∞. Reading the stored half is enough:
/// the bins it omits are conjugates of bins it holds, equal in modulus.
fn spectrum_condition(chat: &[C64]) -> f64 {
    let mut amax = 0.0f64;
    let mut amin = f64::INFINITY;
    for z in chat {
        let a = z.abs();
        amax = amax.max(a);
        amin = amin.min(a);
    }
    if amax == 0.0 {
        return 1.0;
    }
    (amax / amin.max(amax * 1e-16)).max(1.0)
}

impl ToeplitzSymbol {
    /// Build the symbol for any number of levels: one double-precision
    /// [`RealNdFft`] forward pass over the whole first-column tensor — the
    /// engine the applies run, with the whole grid as its head box and
    /// the pad a double one.
    pub fn full(gen: ToeplitzGenerator) -> Result<ToeplitzSymbol, ConfigError> {
        let dims: Vec<usize> = gen.levels().iter().map(|&l| embed_len(l)).collect();
        let engine = RealNdFft::<f64>::new(&dims);
        let mut chat = vec![C64::new(0.0, 0.0); engine.spectrum_len()];
        let mut stage = vec![C64::new(0.0, 0.0); engine.stage_len(&dims)];
        let column = circulant_column(&gen, &dims);
        engine.forward(&dims, &column, Precision::Double, &mut chat, &mut stage);
        let kappa = spectrum_condition(&chat);
        // The forward apply's input box is the adjoint's output box and
        // vice versa; sizing for the larger of the two keeps a workspace
        // at one size whichever way it is applied.
        let (cols, rows): (Vec<_>, Vec<_>) = gen.levels().iter().map(|l| (l.cols, l.rows)).unzip();
        let stage_len = engine.stage_len(&cols).max(engine.stage_len(&rows));
        Ok(ToeplitzSymbol { gen, dims, spectrum: TierSpectra::new(chat), stage_len, kappa })
    }

    /// The generator this symbol was built from.
    pub fn generator(&self) -> &ToeplitzGenerator {
        &self.gen
    }

    /// Logical circulant extents per level (`m_l`, all even) — the grid
    /// an apply transforms, though it only ever materializes the rows
    /// that can be non-zero.
    pub fn work_dims(&self) -> &[usize] {
        &self.dims
    }

    /// Flat length of the logical circulant grid (`∏ work_dims`).
    pub fn grid_len(&self) -> usize {
        total_len(&self.dims)
    }

    /// [`grid_len`](Self::grid_len) under the name the Eq. 6 bound uses
    /// it: the FFT-depth proxy `N_t`.
    pub fn embed_total(&self) -> usize {
        self.grid_len()
    }

    /// Complex elements actually stored (and multiplied per apply): the
    /// half spectrum, `grid_len / m_{L−1} · (m_{L−1}/2 + 1)`.
    pub fn spectrum_len(&self) -> usize {
        self.spectrum.c64().len()
    }

    /// One-time condition estimate `κ` from the circulant spectrum.
    pub fn condition_estimate(&self) -> f64 {
        self.kappa
    }

    pub(crate) fn spectrum(&self) -> &TierSpectra {
        &self.spectrum
    }

    /// Length of the staging buffer of an apply in either direction (see
    /// [`RealNdFft::stage_len`]): the only buffer an apply needs besides
    /// the spectrum, since the transforms read the input vector and write
    /// the output vector in place.
    pub(crate) fn stage_len(&self) -> usize {
        self.stage_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fftmatvec_fft::{dft, FftDirection};

    fn gen_2l() -> ToeplitzGenerator {
        let diags: Vec<f64> = (0..5 * 7).map(|i| ((i * 37 + 11) % 19) as f64 - 9.0).collect();
        ToeplitzGenerator::two_level((3, 3), (4, 4), diags).unwrap()
    }

    /// Whole-grid complex spectrum of the first column, axis by axis with
    /// the naive DFT (row-major `[k₀, k₁]`).
    fn complex_spectrum_2l(sym: &ToeplitzSymbol) -> Vec<C64> {
        let (m0, m1) = (sym.work_dims()[0], sym.work_dims()[1]);
        let col = circulant_column(sym.generator(), sym.work_dims());
        let mut grid: Vec<C64> = col.iter().map(|&v| C64::new(v, 0.0)).collect();
        let mut line = vec![C64::new(0.0, 0.0); m0.max(m1)];
        for row in grid.chunks_exact_mut(m1) {
            dft::naive_dft(row, &mut line[..m1], FftDirection::Forward);
            row.copy_from_slice(&line[..m1]);
        }
        for k1 in 0..m1 {
            let pencil: Vec<C64> = (0..m0).map(|k0| grid[k0 * m1 + k1]).collect();
            dft::naive_dft(&pencil, &mut line[..m0], FftDirection::Forward);
            for k0 in 0..m0 {
                grid[k0 * m1 + k1] = line[k0];
            }
        }
        grid
    }

    #[test]
    fn full_embedding_dims_are_even_and_cover_all_diagonals() {
        let sym = ToeplitzSymbol::full(gen_2l()).unwrap();
        assert_eq!(sym.work_dims(), &[6, 8]);
        assert_eq!(sym.grid_len(), 48);
        assert_eq!(sym.embed_total(), 48);
    }

    #[test]
    fn stored_spectrum_is_the_half_grid_in_rotated_order() {
        let sym = ToeplitzSymbol::full(gen_2l()).unwrap();
        // [h, m₀] with h = 8/2 + 1.
        assert_eq!(sym.spectrum_len(), 5 * 6);
        let full = complex_spectrum_2l(&sym);
        for k1 in 0..5 {
            for k0 in 0..6 {
                let (got, want) = (sym.spectrum().c64()[k1 * 6 + k0], full[k0 * 8 + k1]);
                assert!((got - want).abs() < 1e-12, "bin ({k0},{k1}): {got:?} vs {want:?}");
            }
        }
    }

    #[test]
    fn condition_estimate_is_finite_and_at_least_one() {
        let sym = ToeplitzSymbol::full(gen_2l()).unwrap();
        let k = sym.condition_estimate();
        assert!(k.is_finite() && k >= 1.0);
        // Read from the stored half; the whole grid gives the same value.
        let full = spectrum_condition(&complex_spectrum_2l(&sym));
        assert!((k - full).abs() <= 1e-12 * full, "half {k} vs full {full}");
    }
}
