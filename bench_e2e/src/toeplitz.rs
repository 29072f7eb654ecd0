//! `toeplitz_2level`: the second spectral pipeline (complex N-d FFT +
//! pointwise symbol multiply; no SBGEMV, no real-FFT engines), applied
//! directly in a closed loop. Shape = the 64x64x64x64 row of
//! `bench/baseline_toeplitz.json`.

use std::time::Instant;

use fftmatvec::core::{LinearOperator, OpDirection};
use fftmatvec::fft::{FftDirection, NdFft};
use fftmatvec::numeric::{ComplexBuffer, C64};
use fftmatvec::toeplitz::{ToeplitzGenerator, TwoLevelToeplitz};

use crate::harness::{
    admissible_configs, apply_only, measure_setup, rel_err, run_pairs, stream, traced_extras,
    uniform_vec, Mode, Outcome, Pair, RunArgs, Timed,
};
use crate::trace::Tracer;

pub const NAME: &str = "toeplitz_2level";
/// Blocks per side and block size: 64x64 blocks of 64x64.
const OUTER: usize = 64;
const INNER: usize = 64;
/// ≈75 ms per block at the seed commit on this box.
const PAIRS_PER_BLOCK: usize = 30;
const ORACLE_ROWS: usize = 64;
const TOL: f64 = 1e-11;

const APPLY_FWD: &str = "toeplitz.apply.fwd";
const APPLY_ADJ: &str = "toeplitz.apply.adj";
const FFTN_FWD: &str = "fft.ndfft.forward";
const FFTN_INV: &str = "fft.ndfft.inverse";
const POINTWISE: &str = "backend.pointwise_multiply";

fn setup(diags: &[f64], x: &[f64], y: &[f64]) -> Result<(TwoLevelToeplitz, f64), String> {
    let diags = diags.to_vec();
    let t0 = Instant::now();
    let gen = ToeplitzGenerator::two_level((OUTER, OUTER), (INNER, INNER), diags)
        .map_err(|e| e.to_string())?;
    let op = TwoLevelToeplitz::builder(gen).build().map_err(|e| e.to_string())?;
    let mut out = vec![0.0; OUTER * INNER];
    for _ in 0..2 {
        op.apply_forward_into(x, &mut out).map_err(|e| e.to_string())?;
        op.apply_adjoint_into(y, &mut out).map_err(|e| e.to_string())?;
    }
    Ok((op, t0.elapsed().as_secs_f64()))
}

/// Sampled output rows summed straight from the generator diagonals:
/// `T[(i1,i2),(j1,j2)] = diag[i1−j1][i2−j2]`, each axis shifted by
/// `cols − 1` into the tensor.
fn oracle_errors(
    seed: u64,
    diags: &[f64],
    x: &[f64],
    y: &[f64],
    f: &[f64],
    a: &[f64],
) -> (f64, f64) {
    let width = 2 * INNER - 1;
    let entry = |i1: usize, i2: usize, j1: usize, j2: usize| {
        diags[(i1 + OUTER - 1 - j1) * width + (i2 + INNER - 1 - j2)]
    };
    let mut rng = stream(seed, 9);
    let (mut got_f, mut want_f, mut got_a, mut want_a) = (vec![], vec![], vec![], vec![]);
    for _ in 0..ORACLE_ROWS {
        let (r1, r2) = (rng.next_usize(OUTER), rng.next_usize(INNER));
        let (mut fwd, mut adj) = (0.0, 0.0);
        for s1 in 0..OUTER {
            for s2 in 0..INNER {
                fwd += entry(r1, r2, s1, s2) * x[s1 * INNER + s2];
                adj += entry(s1, s2, r1, r2) * y[s1 * INNER + s2];
            }
        }
        got_f.push(f[r1 * INNER + r2]);
        want_f.push(fwd);
        got_a.push(a[r1 * INNER + r2]);
        want_a.push(adj);
    }
    (rel_err(&got_f, &want_f), rel_err(&got_a, &want_a))
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let n = OUTER * INNER;
    let diags = uniform_vec(args.seed, 0, (2 * OUTER - 1) * (2 * INNER - 1));
    let x = uniform_vec(args.seed, 1, n);
    let y = uniform_vec(args.seed, 2, n);

    let (op, setup_s) = if args.mode == Mode::Untraced {
        measure_setup(|| setup(&diags, &x, &y))?
    } else {
        setup(&diags, &x, &y)?
    };
    let want_fwd = op.apply_forward(&x).map_err(|e| e.to_string())?;
    let want_adj = op.apply_adjoint(&y).map_err(|e| e.to_string())?;
    let pair = Pair { fwd: &op, adj: &op, m: &x, d: &y, want_fwd: &want_fwd, want_adj: &want_adj };
    if args.mode == Mode::ApplyOnly {
        return Ok(apply_only(&pair, PAIRS_PER_BLOCK, args.seconds));
    }
    let (err_f, err_a) = oracle_errors(args.seed, &diags, &x, &y, &want_fwd, &want_adj);
    let oracle_ok = err_f <= TOL && err_a <= TOL;

    let mut out = Outcome::default();
    out.notes.push(format!(
        "{NAME}: {OUTER}x{OUTER} blocks of {INNER}x{INNER}, full embedding {:?}, ddddd; oracle \
         rel err F {err_f:.2e}, F* {err_a:.2e} (tol {TOL:.0e})",
        op.symbol_shared().work_dims()
    ));

    if args.mode == Mode::Untraced {
        let timed = run_pairs(&pair, PAIRS_PER_BLOCK, args.seconds, false);
        out.end_to_end(&timed, setup_s, oracle_ok);
        return Ok(out);
    }

    let untraced = run_pairs(&pair, PAIRS_PER_BLOCK, 0.3 * args.seconds, true);
    traced(args, &op, &pair, &untraced, &mut out)?;
    out.set("toeplitz.rel_err_fwd", err_f);
    out.set("toeplitz.rel_err_adj", err_a);
    if !oracle_ok {
        out.failed = out.attempted;
    }
    Ok(out)
}

/// Real applies, each followed by the three backend-visible pieces of
/// the same pass (forward N-d FFT, pointwise multiply, inverse N-d FFT)
/// on side buffers of the embedding-grid size. The embed/extract kernels
/// are crate-private, so they — with the casts — are what
/// `toeplitz.*_self_us` is left holding.
fn traced(
    args: &RunArgs,
    op: &TwoLevelToeplitz,
    pair: &Pair<'_>,
    untraced: &Timed,
    out: &mut Outcome,
) -> Result<(), String> {
    let sym = op.symbol_shared();
    let dims = sym.work_dims().to_vec();
    let grid_len = sym.grid_len();
    let ndfft = NdFft::<f64>::new(&dims);
    let mut rng = stream(args.seed, 3);
    let mut grid: Vec<C64> =
        (0..grid_len).map(|_| C64::new(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))).collect();
    let mut partner = vec![C64::new(0.0, 0.0); grid_len];
    // Unit-modulus symbol: repeated multiplies keep the side grid bounded.
    let unit = ComplexBuffer::C64(
        (0..grid_len).map(|_| C64::expi(rng.uniform(0.0, std::f64::consts::TAU))).collect(),
    );

    let mut tr = Tracer::new();
    let (mut out_f, mut out_a) = (vec![0.0; pair.want_fwd.len()], vec![0.0; pair.want_adj.len()]);
    let started = Instant::now();
    let mut pairs = 0u64;
    let mut failed = 0u64;
    while pairs < 10 || started.elapsed().as_secs_f64() < 0.4 * args.seconds {
        for (dir, id) in [(OpDirection::Forward, 2 * pairs), (OpDirection::Adjoint, 2 * pairs + 1)]
        {
            let root = tr.begin("harness.op", None, id);
            let ok = if dir == OpDirection::Forward {
                let r = tr
                    .span(APPLY_FWD, Some(root), id, || op.apply_forward_into(pair.m, &mut out_f));
                r.is_ok() && out_f == pair.want_fwd
            } else {
                let r = tr
                    .span(APPLY_ADJ, Some(root), id, || op.apply_adjoint_into(pair.d, &mut out_a));
                r.is_ok() && out_a == pair.want_adj
            };
            failed += u64::from(!ok);
            let side = tr.begin("harness.side_replay", Some(root), id);
            tr.span(FFTN_FWD, Some(side), id, || {
                ndfft.process(&mut grid, &mut partner, FftDirection::Forward)
            });
            let mut io = ComplexBuffer::C64(std::mem::take(&mut grid));
            tr.span(POINTWISE, Some(side), id, || {
                op.device().pointwise_multiply(&mut io, &unit, dir == OpDirection::Adjoint)
            })
            .map_err(|e| e.to_string())?;
            if let ComplexBuffer::C64(v) = io {
                grid = v;
            }
            tr.span(FFTN_INV, Some(side), id, || {
                ndfft.process(&mut grid, &mut partner, FftDirection::Inverse)
            });
            tr.end(side);
            tr.end(root);
        }
        pairs += 1;
    }
    out.attempted = untraced.attempted + 2 * pairs;
    out.failed = untraced.failed + failed;

    let (apply_f, apply_a) = (tr.median_us(APPLY_FWD), tr.median_us(APPLY_ADJ));
    let (fftn_f, fftn_i, pw) =
        (tr.median_us(FFTN_FWD), tr.median_us(FFTN_INV), tr.median_us(POINTWISE));
    out.set("toeplitz.fwd_apply_us", apply_f);
    out.set("toeplitz.adj_apply_us", apply_a);
    out.set("toeplitz.fwd_self_us", apply_f - fftn_f - fftn_i - pw);
    out.set("toeplitz.adj_self_us", apply_a - fftn_f - fftn_i - pw);
    out.set("toeplitz.workspace_peak_bytes", op.workspace_peak_bytes() as f64);
    out.set("fft.fftn_fwd_us", fftn_f);
    out.set("fft.fftn_inv_us", fftn_i);
    out.set("backend.pointwise_us", pw);
    // Computed from the shape: two complex N-d transforms of the grid.
    let g = grid_len as f64;
    let fft_flops = 2.0 * 5.0 * g * g.log2();
    out.set("fft.flops_per_apply", fft_flops);
    out.set("fft.fwd_gflops_computed", fft_flops / ((fftn_f + fftn_i) * 1e3));
    out.set("core.autotune.admissible_configs", admissible_configs(1, 1, sym.embed_total()));
    traced_extras(pair, args, untraced, apply_f + apply_a, out)?;
    out.set("core.pipeline.workspaces_peak", op.workspaces_peak_in_flight() as f64);
    out.notes.push(format!("traced {pairs} pairs on a {dims:?} grid"));

    tr.save(NAME, args.seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_sum_oracle_agrees_with_the_operator_and_catches_a_wrong_output() {
        let n = OUTER * INNER;
        let diags = uniform_vec(4, 0, (2 * OUTER - 1) * (2 * INNER - 1));
        let (x, y) = (uniform_vec(4, 1, n), uniform_vec(4, 2, n));
        let (op, _) = setup(&diags, &x, &y).unwrap();
        let (f, a) = (op.apply_forward(&x).unwrap(), op.apply_adjoint(&y).unwrap());
        let (err_f, err_a) = oracle_errors(4, &diags, &x, &y, &f, &a);
        assert!(err_f < TOL && err_a < TOL, "{err_f:e} {err_a:e}");
        // Swapping the directions' outputs must not pass.
        let (bad_f, bad_a) = oracle_errors(4, &diags, &x, &y, &a, &f);
        assert!(bad_f > 1e-3 && bad_a > 1e-3);
    }
}
