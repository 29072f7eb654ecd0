//! Property-based tests for the SBGEMV kernel: it must agree with a naive
//! dense oracle across randomly drawn geometries, operations, scalar
//! types, strides, and scaling factors.

use fftmatvec_blas::{sbgemv, BatchGeometry, GemvOp};
use fftmatvec_numeric::{Complex, Scalar, SplitMix64};
use proptest::prelude::*;

fn op_from(i: u8) -> GemvOp {
    match i % 3 {
        0 => GemvOp::NoTrans,
        1 => GemvOp::Trans,
        _ => GemvOp::ConjTrans,
    }
}

fn fill<S: Scalar>(rng: &mut SplitMix64, len: usize) -> Vec<S> {
    (0..len).map(|_| S::from_f64_parts(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))).collect()
}

fn naive_gemv<S: Scalar>(
    op: GemvOp,
    alpha: S,
    a: &[S],
    lda: usize,
    x: &[S],
    beta: S,
    y: &mut [S],
    m: usize,
    n: usize,
) {
    for k in 0..op.output_len(m, n) {
        let mut acc = S::zero();
        match op {
            GemvOp::NoTrans => {
                for j in 0..n {
                    acc += a[k + j * lda] * x[j];
                }
            }
            GemvOp::Trans => {
                for i in 0..m {
                    acc += a[i + k * lda] * x[i];
                }
            }
            GemvOp::ConjTrans => {
                for i in 0..m {
                    acc += a[i + k * lda].conj() * x[i];
                }
            }
        }
        y[k] = alpha * acc + beta * y[k];
    }
}

fn rel_err<S: Scalar>(a: &[S], b: &[S]) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        let (xr, xi) = x.to_f64_parts();
        let (yr, yi) = y.to_f64_parts();
        num += (xr - yr).powi(2) + (xi - yi).powi(2);
        den += yr * yr + yi * yi;
    }
    (num / den.max(1e-300)).sqrt()
}

fn check_kernel<S: Scalar>(
    m: usize,
    n: usize,
    batch: usize,
    op: GemvOp,
    lda_pad: usize,
    seed: u64,
    tol: f64,
) -> Result<(), TestCaseError> {
    let mut rng = SplitMix64::new(seed);
    let lda = m + lda_pad;
    let g = BatchGeometry {
        m,
        n,
        lda,
        stride_a: lda * n,
        stride_x: op.input_len(m, n),
        stride_y: op.output_len(m, n),
        batch,
    };
    let a: Vec<S> = fill(&mut rng, batch * lda * n);
    let x: Vec<S> = fill(&mut rng, batch * op.input_len(m, n));
    let y0: Vec<S> = fill(&mut rng, batch * op.output_len(m, n));
    let alpha = S::from_f64_parts(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0));
    let beta = S::from_f64_parts(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));

    let mut want = y0.clone();
    for b in 0..batch {
        let out_len = op.output_len(m, n);
        naive_gemv(
            op,
            alpha,
            &a[b * g.stride_a..],
            lda,
            &x[b * g.stride_x..b * g.stride_x + op.input_len(m, n)],
            beta,
            &mut want[b * g.stride_y..b * g.stride_y + out_len],
            m,
            n,
        );
    }
    let mut got = y0;
    sbgemv(op, alpha, &a, &x, beta, &mut got, &g);
    let err = rel_err(&got, &want);
    prop_assert!(err < tol, "{op}: m={m} n={n} batch={batch} err={err}");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn f64_kernels_match_oracle(
        m in 1usize..40,
        n in 1usize..90,
        batch in 1usize..5,
        op_sel in 0u8..3,
        lda_pad in 0usize..4,
        seed in 0u64..u64::MAX,
    ) {
        check_kernel::<f64>(m, n, batch, op_from(op_sel), lda_pad, seed, 1e-11)?;
    }

    #[test]
    fn complex_f64_kernels_match_oracle(
        m in 1usize..24,
        n in 1usize..70,
        batch in 1usize..4,
        op_sel in 0u8..3,
        lda_pad in 0usize..3,
        seed in 0u64..u64::MAX,
    ) {
        check_kernel::<Complex<f64>>(m, n, batch, op_from(op_sel), lda_pad, seed, 1e-11)?;
    }

    #[test]
    fn f32_kernels_match_oracle(
        m in 1usize..32,
        n in 1usize..64,
        batch in 1usize..4,
        op_sel in 0u8..3,
        lda_pad in 0usize..4,
        seed in 0u64..u64::MAX,
    ) {
        check_kernel::<f32>(m, n, batch, op_from(op_sel), lda_pad, seed, 2e-4)?;
    }

    /// The mixed-precision pipeline's kernel type (`dssdd` / `ddssd`).
    #[test]
    fn complex_f32_kernels_match_oracle(
        m in 1usize..40,
        n in 1usize..90,
        batch in 1usize..4,
        op_sel in 0u8..3,
        lda_pad in 0usize..4,
        seed in 0u64..u64::MAX,
    ) {
        check_kernel::<Complex<f32>>(m, n, batch, op_from(op_sel), lda_pad, seed, 2e-4)?;
    }

    /// The phase-3 adjoint op out to shapes wider than one 64-column
    /// tile and taller than one pairwise base run.
    #[test]
    fn wide_conjtrans_matches_oracle(
        m in 1usize..64,
        n in 1usize..128,
        seed in 0u64..u64::MAX,
    ) {
        check_kernel::<Complex<f64>>(m, n, 2, GemvOp::ConjTrans, 0, seed, 1e-11)?;
    }

    /// Linearity in x: K(a·x1 + x2) == a·K(x1) + K(x2) for β = 0.
    #[test]
    fn kernels_are_linear_in_x(
        m in 1usize..20,
        n in 1usize..40,
        scale in -3.0f64..3.0,
        seed in 0u64..u64::MAX,
    ) {
        let op = GemvOp::Trans;
        let g = BatchGeometry::packed(m, n, op, 1);
        let mut rng = SplitMix64::new(seed);
        let a: Vec<f64> = fill(&mut rng, m * n);
        let x1: Vec<f64> = fill(&mut rng, m);
        let x2: Vec<f64> = fill(&mut rng, m);
        let combo: Vec<f64> = x1.iter().zip(&x2).map(|(p, q)| scale * p + q).collect();
        let run = |x: &[f64]| -> Vec<f64> {
            let mut y = vec![0.0; n];
            sbgemv(op, 1.0, &a, x, 0.0, &mut y, &g);
            y
        };
        let lhs = run(&combo);
        let y1 = run(&x1);
        let y2 = run(&x2);
        let rhs: Vec<f64> = y1.iter().zip(&y2).map(|(p, q)| scale * p + q).collect();
        prop_assert!(rel_err(&lhs, &rhs) < 1e-10);
    }

    /// ConjTrans on real data equals Trans.
    #[test]
    fn conjtrans_equals_trans_for_reals(
        m in 1usize..24,
        n in 1usize..48,
        seed in 0u64..u64::MAX,
    ) {
        let g = BatchGeometry::packed(m, n, GemvOp::Trans, 1);
        let mut rng = SplitMix64::new(seed);
        let a: Vec<f64> = fill(&mut rng, m * n);
        let x: Vec<f64> = fill(&mut rng, m);
        let mut yt = vec![0.0; n];
        let mut yh = vec![0.0; n];
        sbgemv(GemvOp::Trans, 1.0, &a, &x, 0.0, &mut yt, &g);
        sbgemv(GemvOp::ConjTrans, 1.0, &a, &x, 0.0, &mut yh, &g);
        prop_assert_eq!(yt, yh);
    }
}
