//! Multi-level Toeplitz generators and the dense reference assembly.
//!
//! A multi-level (block-recursive) Toeplitz matrix is defined per level
//! by a `(rows, cols)` pair and one value per *diagonal* of that level:
//! level `l` contributes `rows_l + cols_l - 1` diagonals, and the full
//! generator is the row-major tensor over all levels' diagonal axes.
//! `TwoLevelToeplitz` is the `L = 2` case (block-Toeplitz with Toeplitz
//! blocks — EM scattering / acoustics / MRI system matrices);
//! `NdCirculantEmbedding` takes any `L ≥ 1`.

use fftmatvec_core::ConfigError;
use fftmatvec_numeric::ndindex::strides_row_major;

/// `(rows, cols)` extents of one Toeplitz level. The operator's shape is
/// the per-level product: `∏ rows_l × ∏ cols_l`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LevelDims {
    /// Output extent of this level.
    pub rows: usize,
    /// Input extent of this level.
    pub cols: usize,
}

impl LevelDims {
    /// Number of diagonals this level contributes to the generator
    /// tensor: `rows + cols - 1`.
    pub fn diags(&self) -> usize {
        self.rows + self.cols - 1
    }
}

/// A practical cap on the level count: an apply keeps its per-level
/// extents in fixed-size stack arrays, so it never allocates.
pub const MAX_LEVELS: usize = 8;

/// The generator of a multi-level Toeplitz matrix: per-level `(rows,
/// cols)` extents plus the row-major diagonal tensor. Along each level's
/// axis, index `k` holds diagonal offset `k - (cols - 1)`, so index
/// `cols - 1` is that level's main diagonal (offset `i - j = 0`).
#[derive(Clone, Debug)]
pub struct ToeplitzGenerator {
    levels: Vec<LevelDims>,
    diagonals: Vec<f64>,
}

impl ToeplitzGenerator {
    /// Validate and build a generator. `diagonals` must hold exactly
    /// `∏ (rows_l + cols_l - 1)` entries in row-major level order.
    pub fn new(levels: &[(usize, usize)], diagonals: Vec<f64>) -> Result<Self, ConfigError> {
        if !(1..=MAX_LEVELS).contains(&levels.len()) {
            // The cap (per-apply extents live in fixed stack arrays)
            // doubles as a sanity bound: more levels than this is far
            // past any scenario in scope.
            return Err(ConfigError::LevelCount {
                what: "ToeplitzGenerator",
                got: levels.len(),
                allowed: (1, MAX_LEVELS),
            });
        }
        let mut lv = Vec::with_capacity(levels.len());
        for &(rows, cols) in levels {
            if rows == 0 {
                return Err(ConfigError::ZeroDimension { what: "toeplitz level rows" });
            }
            if cols == 0 {
                return Err(ConfigError::ZeroDimension { what: "toeplitz level cols" });
            }
            lv.push(LevelDims { rows, cols });
        }
        let expected = lv
            .iter()
            .try_fold(1usize, |n, l| n.checked_mul(l.rows.checked_add(l.cols - 1)?))
            .ok_or(ConfigError::DimensionOverflow { what: "toeplitz diagonal count" })?;
        if diagonals.len() != expected {
            return Err(ConfigError::ColumnLength { expected, got: diagonals.len() });
        }
        Ok(ToeplitzGenerator { levels: lv, diagonals })
    }

    /// Convenience constructor for the two-level case.
    pub fn two_level(
        outer: (usize, usize),
        inner: (usize, usize),
        diagonals: Vec<f64>,
    ) -> Result<Self, ConfigError> {
        Self::new(&[outer, inner], diagonals)
    }

    /// Per-level extents, outermost first.
    pub fn levels(&self) -> &[LevelDims] {
        &self.levels
    }

    /// Total output dimension `∏ rows_l`.
    pub fn rows(&self) -> usize {
        self.levels.iter().map(|l| l.rows).product()
    }

    /// Total input dimension `∏ cols_l`.
    pub fn cols(&self) -> usize {
        self.levels.iter().map(|l| l.cols).product()
    }

    /// The raw diagonal tensor (row-major over the per-level diagonal
    /// axes).
    pub fn diagonals(&self) -> &[f64] {
        &self.diagonals
    }

    /// Dense reference assembly: the full `rows() × cols()` matrix in
    /// row-major order. Quadratic in the operator size — this is the
    /// differential-test oracle and the bench baseline, not a compute
    /// path.
    pub fn dense(&self) -> Vec<f64> {
        let nl = self.levels.len();
        let diag_dims: Vec<usize> = self.levels.iter().map(LevelDims::diags).collect();
        let diag_strides = strides_row_major(&diag_dims);
        let rows = self.rows();
        let cols = self.cols();
        let mut out = vec![0.0; rows * cols];
        let mut ri = vec![0usize; nl];
        let mut ci = vec![0usize; nl];
        for r in 0..rows {
            let mut rem = r;
            for l in (0..nl).rev() {
                ri[l] = rem % self.levels[l].rows;
                rem /= self.levels[l].rows;
            }
            for c in 0..cols {
                let mut rem = c;
                for l in (0..nl).rev() {
                    ci[l] = rem % self.levels[l].cols;
                    rem /= self.levels[l].cols;
                }
                let mut flat = 0usize;
                for l in 0..nl {
                    // Diagonal offset i - j shifted by cols-1 into the
                    // tensor's axis coordinate.
                    let k = ri[l] + self.levels[l].cols - 1 - ci[l];
                    flat += k * diag_strides[l];
                }
                out[r * cols + c] = self.diagonals[flat];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_level_dense_is_plain_toeplitz() {
        // rows=3, cols=2 → 4 diagonals indexed -1..=2, main diagonal at
        // tensor index 1.
        let gen = ToeplitzGenerator::new(&[(3, 2)], vec![10.0, 20.0, 30.0, 40.0]).unwrap();
        #[rustfmt::skip]
        let want = vec![
            20.0, 10.0,
            30.0, 20.0,
            40.0, 30.0,
        ];
        assert_eq!(gen.dense(), want);
    }

    #[test]
    fn two_level_dense_has_block_toeplitz_structure() {
        let diags: Vec<f64> = (0..3 * 3).map(|i| i as f64 + 1.0).collect();
        let gen = ToeplitzGenerator::two_level((2, 2), (2, 2), diags).unwrap();
        let d = gen.dense();
        let (rows, cols) = (4, 4);
        assert_eq!(d.len(), rows * cols);
        // Block-level Toeplitz: block (I, J) depends only on I - J.
        let block = |bi: usize, bj: usize, i: usize, j: usize| d[(bi * 2 + i) * cols + bj * 2 + j];
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(block(0, 0, i, j), block(1, 1, i, j));
            }
        }
        // Inner-level Toeplitz: within a block, entry depends on i - j.
        assert_eq!(block(0, 0, 0, 0), block(0, 0, 1, 1));
        assert_eq!(block(0, 1, 0, 0), block(0, 1, 1, 1));
    }

    #[test]
    fn validation_produces_typed_errors() {
        assert!(matches!(
            ToeplitzGenerator::new(&[], vec![]),
            Err(ConfigError::LevelCount { got: 0, allowed: (1, MAX_LEVELS), .. })
        ));
        let err = ToeplitzGenerator::new(&[(1, 1); MAX_LEVELS + 1], vec![1.0]).unwrap_err();
        assert_eq!(
            err,
            ConfigError::LevelCount { what: "ToeplitzGenerator", got: 9, allowed: (1, 8) }
        );
        assert_eq!(err.to_string(), "ToeplitzGenerator takes 1 to 8 levels, got 9");
        assert!(matches!(
            ToeplitzGenerator::new(&[(0, 2)], vec![1.0]),
            Err(ConfigError::ZeroDimension { .. })
        ));
        assert!(matches!(
            ToeplitzGenerator::new(&[(2, 0)], vec![1.0]),
            Err(ConfigError::ZeroDimension { .. })
        ));
        assert!(matches!(
            ToeplitzGenerator::new(&[(2, 2)], vec![1.0]),
            Err(ConfigError::ColumnLength { expected: 3, got: 1 })
        ));
    }

    #[test]
    fn overflowing_diagonal_counts_are_typed() {
        // rows + cols - 1 past usize::MAX, and a product of two 2³²
        // diagonal counts that wraps to 0 on 64-bit targets (an empty
        // tensor must not pass for it).
        let big = 1usize << (usize::BITS / 2);
        let want = ConfigError::DimensionOverflow { what: "toeplitz diagonal count" };
        for levels in [vec![(usize::MAX, 2)], vec![(big, 1), (big, 1)]] {
            assert_eq!(ToeplitzGenerator::new(&levels, vec![]).unwrap_err(), want, "{levels:?}");
        }
    }
}
