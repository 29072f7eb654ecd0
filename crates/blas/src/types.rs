//! Shared types for the SBGEMV kernels.

use core::fmt;

/// GEMV operation applied to each batch matrix, mirroring BLAS `transA`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GemvOp {
    /// `y = α·A·x + β·y` — `A` is `m×n`, `x` has `n`, `y` has `m`.
    NoTrans,
    /// `y = α·Aᵀ·x + β·y` — `x` has `m`, `y` has `n`. rocBLAS `T`.
    Trans,
    /// `y = α·Aᴴ·x + β·y` — conjugate transpose. rocBLAS `H`/`C`.
    ConjTrans,
}

impl GemvOp {
    /// Is this one of the transposed modes (the Figure-1 subject)?
    #[inline]
    pub fn is_transposed(self) -> bool {
        !matches!(self, GemvOp::NoTrans)
    }

    /// Input vector length for an `m×n` matrix.
    #[inline]
    pub fn input_len(self, m: usize, n: usize) -> usize {
        if self.is_transposed() {
            m
        } else {
            n
        }
    }

    /// Output vector length for an `m×n` matrix.
    #[inline]
    pub fn output_len(self, m: usize, n: usize) -> usize {
        if self.is_transposed() {
            n
        } else {
            m
        }
    }

    /// The `transA` letter `rocblas-bench` uses (`N`/`T`/`H`).
    pub fn code(self) -> char {
        match self {
            GemvOp::NoTrans => 'N',
            GemvOp::Trans => 'T',
            GemvOp::ConjTrans => 'H',
        }
    }
}

impl fmt::Display for GemvOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// Which GPU kernel the host dispatcher would launch — a cost-model
/// label (`select_kernel`, `kernel_profile`); the CPU runs one kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelChoice {
    /// rocBLAS-style baseline.
    Reference,
    /// The paper's tiled/vectorized/pipelined short-wide kernel.
    Optimized,
}

impl fmt::Display for KernelChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelChoice::Reference => write!(f, "rocBLAS"),
            KernelChoice::Optimized => write!(f, "Optimized"),
        }
    }
}

/// Strided batched layout, mirroring `rocblas_Xgemv_strided_batched`.
/// Matrices are column-major with leading dimension `lda ≥ m`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchGeometry {
    /// Rows of each `A`.
    pub m: usize,
    /// Columns of each `A`.
    pub n: usize,
    /// Leading dimension of each `A` (≥ m).
    pub lda: usize,
    /// Elements between consecutive batch matrices in `a`.
    pub stride_a: usize,
    /// Elements between consecutive batch inputs in `x`.
    pub stride_x: usize,
    /// Elements between consecutive batch outputs in `y`.
    pub stride_y: usize,
    /// Number of matrices in the batch.
    pub batch: usize,
}

impl BatchGeometry {
    /// Dense packed layout: `lda = m`, strides exactly one matrix/vector.
    pub fn packed(m: usize, n: usize, op: GemvOp, batch: usize) -> Self {
        BatchGeometry {
            m,
            n,
            lda: m,
            stride_a: m * n,
            stride_x: op.input_len(m, n),
            stride_y: op.output_len(m, n),
            batch,
        }
    }

    /// Validate slice lengths for a call with operation `op`.
    pub fn validate(&self, op: GemvOp, a_len: usize, x_len: usize, y_len: usize) {
        assert!(self.m > 0 && self.n > 0, "SBGEMV dimensions must be nonzero");
        assert!(self.lda >= self.m, "lda < m");
        assert!(self.batch > 0, "batch must be nonzero");
        let need_a = (self.batch - 1) * self.stride_a + (self.n - 1) * self.lda + self.m;
        let in_len = op.input_len(self.m, self.n);
        let out_len = op.output_len(self.m, self.n);
        let need_x = (self.batch - 1) * self.stride_x + in_len;
        let need_y = (self.batch - 1) * self.stride_y + out_len;
        assert!(a_len >= need_a, "matrix buffer too small: {a_len} < {need_a}");
        assert!(x_len >= need_x, "input buffer too small: {x_len} < {need_x}");
        assert!(y_len >= need_y, "output buffer too small: {y_len} < {need_y}");
        assert!(
            self.stride_y >= out_len,
            "stride_y smaller than the output length aliases outputs"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_lengths() {
        assert_eq!(GemvOp::NoTrans.input_len(3, 7), 7);
        assert_eq!(GemvOp::NoTrans.output_len(3, 7), 3);
        assert_eq!(GemvOp::Trans.input_len(3, 7), 3);
        assert_eq!(GemvOp::ConjTrans.output_len(3, 7), 7);
        assert!(GemvOp::ConjTrans.is_transposed());
        assert!(!GemvOp::NoTrans.is_transposed());
    }

    #[test]
    fn codes_match_rocblas_bench() {
        assert_eq!(GemvOp::NoTrans.code(), 'N');
        assert_eq!(GemvOp::Trans.code(), 'T');
        assert_eq!(GemvOp::ConjTrans.code(), 'H');
    }

    #[test]
    fn packed_geometry() {
        let g = BatchGeometry::packed(100, 5000, GemvOp::ConjTrans, 1001);
        assert_eq!(g.lda, 100);
        assert_eq!(g.stride_a, 500_000);
        assert_eq!(g.stride_x, 100);
        assert_eq!(g.stride_y, 5000);
        g.validate(GemvOp::ConjTrans, 1001 * 500_000, 1001 * 100, 1001 * 5000);
    }

    #[test]
    #[should_panic(expected = "matrix buffer too small")]
    fn validate_catches_short_matrix() {
        let g = BatchGeometry::packed(4, 4, GemvOp::NoTrans, 2);
        g.validate(GemvOp::NoTrans, 31, 8, 8);
    }

    #[test]
    #[should_panic(expected = "lda < m")]
    fn validate_catches_bad_lda() {
        let mut g = BatchGeometry::packed(4, 4, GemvOp::NoTrans, 1);
        g.lda = 2;
        g.validate(GemvOp::NoTrans, 16, 4, 4);
    }
}
