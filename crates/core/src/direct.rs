//! Direct (non-FFT) block-triangular Toeplitz matvec.
//!
//! The traditional baseline the paper's algorithm replaces: block
//! convolution evaluated directly, `d_i = Σ_{j ≤ i} F_{i−j+1,1} · m_j`,
//! costing `O(N_t²·N_d·N_m)` versus the FFT path's
//! `O(N_t·log N_t·(N_d+N_m) + N_t·N_d·N_m)`. Used as the correctness
//! oracle at any size and as the baseline in the crossover benches.
//!
//! Applications go through the [`LinearOperator`] trait; the `_into`
//! paths write straight into the caller's buffer and allocate nothing.

use fftmatvec_fft::par::for_each_chunk_mut;
use fftmatvec_numeric::vecmath::{axpy, dot};

use crate::linop::{check_apply, LinearOperator, OpDirection, OpError, OpShape};
use crate::operator::BlockToeplitzOperator;

/// Direct matvec wrapper around the same operator storage.
pub struct DirectMatvec<'a> {
    op: &'a BlockToeplitzOperator,
}

impl<'a> DirectMatvec<'a> {
    pub fn new(op: &'a BlockToeplitzOperator) -> Self {
        DirectMatvec { op }
    }

    /// Flop count of the direct forward matvec (for crossover analysis):
    /// one multiply-add per matrix element read.
    pub fn flops(&self) -> f64 {
        2.0 * self.block_reads() as f64
    }

    /// Matrix elements either direction reads: `N_t(N_t+1)/2` blocks of
    /// `N_d·N_m` — the work the time-step loop is split by.
    fn block_reads(&self) -> usize {
        let nt = self.op.nt();
        nt * (nt + 1) / 2 * self.op.nd() * self.op.nm()
    }
}

impl LinearOperator for DirectMatvec<'_> {
    fn shape(&self) -> OpShape {
        OpShape::new(self.op.nd() * self.op.nt(), self.op.nm() * self.op.nt())
    }

    /// `d = F·m` by direct block convolution.
    fn apply_forward_into(&self, m: &[f64], d: &mut [f64]) -> Result<(), OpError> {
        check_apply(self.shape(), OpDirection::Forward, m, d)?;
        let (nd, nm, stateless) = (self.op.nd(), self.op.nm(), || ());
        d.fill(0.0);
        for_each_chunk_mut(self.block_reads(), d, nd, stateless, |(), (ti, dt)| {
            for tj in 0..=ti {
                let blk = self.op.block(ti - tj);
                let mj = &m[tj * nm..(tj + 1) * nm];
                for (di, row) in dt.iter_mut().zip(blk.chunks_exact(nm)) {
                    *di += dot(row, mj);
                }
            }
        });
        Ok(())
    }

    /// `m = Fᵀ·d` by direct block correlation.
    fn apply_adjoint_into(&self, d: &[f64], m: &mut [f64]) -> Result<(), OpError> {
        check_apply(self.shape(), OpDirection::Adjoint, d, m)?;
        let (nd, nm, nt, stateless) = (self.op.nd(), self.op.nm(), self.op.nt(), || ());
        m.fill(0.0);
        for_each_chunk_mut(self.block_reads(), m, nm, stateless, |(), (tj, mt)| {
            for ti in tj..nt {
                let blk = self.op.block(ti - tj);
                let di = &d[ti * nd..(ti + 1) * nd];
                for (&s, row) in di.iter().zip(blk.chunks_exact(nm)) {
                    axpy(s, row, mt);
                }
            }
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::FftMatvec;
    use fftmatvec_numeric::vecmath::rel_l2_error;
    use fftmatvec_numeric::SplitMix64;

    fn random_operator(nd: usize, nm: usize, nt: usize, seed: u64) -> BlockToeplitzOperator {
        let mut rng = SplitMix64::new(seed);
        let mut col = vec![0.0; nt * nd * nm];
        rng.fill_uniform(&mut col, -1.0, 1.0);
        BlockToeplitzOperator::from_first_block_column(nd, nm, nt, &col).unwrap()
    }

    #[test]
    fn direct_and_fft_agree_forward() {
        let op = random_operator(3, 8, 10, 1);
        let mut rng = SplitMix64::new(2);
        let mut m = vec![0.0; 8 * 10];
        rng.fill_uniform(&mut m, -1.0, 1.0);
        let direct = DirectMatvec::new(&op).apply_forward(&m).unwrap();
        let mv = FftMatvec::builder(op).build().unwrap();
        let fft = mv.apply_forward(&m).unwrap();
        assert!(rel_l2_error(&fft, &direct) < 1e-13);
    }

    #[test]
    fn direct_and_fft_agree_adjoint() {
        let op = random_operator(3, 8, 10, 3);
        let mut rng = SplitMix64::new(4);
        let mut d = vec![0.0; 3 * 10];
        rng.fill_uniform(&mut d, -1.0, 1.0);
        let direct = DirectMatvec::new(&op).apply_adjoint(&d).unwrap();
        let mv = FftMatvec::builder(op).build().unwrap();
        let fft = mv.apply_adjoint(&d).unwrap();
        assert!(rel_l2_error(&fft, &direct) < 1e-13);
    }

    #[test]
    fn direct_adjoint_dot_consistency() {
        let op = random_operator(2, 5, 7, 5);
        let mut rng = SplitMix64::new(6);
        let mut m = vec![0.0; 5 * 7];
        let mut d = vec![0.0; 2 * 7];
        rng.fill_uniform(&mut m, -1.0, 1.0);
        rng.fill_uniform(&mut d, -1.0, 1.0);
        let dm = DirectMatvec::new(&op);
        let fm = dm.apply_forward(&m).unwrap();
        let fsd = dm.apply_adjoint(&d).unwrap();
        let lhs: f64 = fm.iter().zip(&d).map(|(a, b)| a * b).sum();
        let rhs: f64 = m.iter().zip(&fsd).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-11 * lhs.abs().max(1.0));
    }

    #[test]
    fn shape_and_length_errors() {
        let op = random_operator(2, 3, 4, 9);
        let dm = DirectMatvec::new(&op);
        assert_eq!(dm.shape(), OpShape::new(8, 12));
        assert!(matches!(dm.apply_forward(&[0.0; 5]), Err(OpError::InputLength { .. })));
        let mut out = [0.0; 5];
        assert!(matches!(
            dm.apply_adjoint_into(&[0.0; 8], &mut out),
            Err(OpError::OutputLength { .. })
        ));
    }

    #[test]
    fn flops_formula() {
        let op = random_operator(2, 3, 4, 7);
        // nt(nt+1)/2 = 10 blocks, each 2·nd·nm = 12 flops.
        assert_eq!(DirectMatvec::new(&op).flops(), 120.0);
    }
}
