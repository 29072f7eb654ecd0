//! The direct block-triangular workloads (`paper_dd`, `paper_mixed`,
//! `longseries_dd`): one `FftMatvec` per direction applied in a closed
//! loop, and — in the traced run — a replay of the same five phases
//! through the layers' public functions, span by span.

use std::sync::Arc;
use std::time::Instant;

use fftmatvec::backend::{BatchFft, DeviceBackend, SimulatedDevice};
use fftmatvec::blas::{sbgemv, BatchGeometry, GemvOp};
use fftmatvec::core::timing::{simulate_phases, MatvecDims};
use fftmatvec::core::{
    autotune, layout, BlockToeplitzOperator, DirectMatvec, FftMatvec, LinearOperator, MatvecPhase,
    OpDirection, PhaseWeights, PrecisionConfig, TierCalibration,
};
use fftmatvec::gpu::Phase;
use fftmatvec::numeric::{Complex, ComplexBuffer, Precision, RealBuffer};

use crate::harness::{
    admissible_configs, apply_only, bound_params, measure_setup, rel_err, run_pairs, stream,
    stuffed_vec, traced_extras, uniform_vec, Mode, Outcome, Pair, RunArgs, Timed, AUTOTUNE_BUDGET,
};
use crate::trace::Tracer;

pub struct Case {
    pub name: &'static str,
    pub nd: usize,
    pub nm: usize,
    pub nt: usize,
    /// Configuration F runs under, and the one F* runs under (the paper
    /// tunes the two directions separately).
    pub fwd_cfg: &'static str,
    pub adj_cfg: &'static str,
    /// Sized for ≈100 ms per block at the seed commit on this box.
    pub pairs_per_block: usize,
    /// `None`: `DirectMatvec` on the whole output. `Some(k)`: the direct
    /// sum on `k` sampled output rows (a full `O(N_t²)` pass would take
    /// longer than the timed run at long `N_t`).
    pub oracle_rows: Option<usize>,
    pub tol: f64,
}

/// The issue drafted `paper_*` at 32x512x128 (F̂ 33.8 MB) and
/// `longseries_dd` at 4x4x8192. On this shared VM anything that streams
/// well past the 4 MiB per-core L2 follows the neighbours' memory
/// traffic: ten runs of the 33.8 MB shape spread 24 % (IQR/median) on
/// `fwd_p50_us`, which no bound could gate. The shapes below keep the
/// character (N_d ≪ N_m and SBGEMV-dominated; few long transforms and
/// FFT-dominated) at a size whose numbers repeat.
pub const PAPER_DD: Case = Case {
    name: "paper_dd",
    nd: 16,
    nm: 256,
    nt: 64,
    fwd_cfg: "ddddd",
    adj_cfg: "ddddd",
    pairs_per_block: 20,
    oracle_rows: None,
    tol: 1e-12,
};

pub const PAPER_MIXED: Case = Case {
    name: "paper_mixed",
    fwd_cfg: "dssdd",
    adj_cfg: "ddssd",
    pairs_per_block: 24,
    tol: 1e-6,
    ..PAPER_DD
};

pub const LONGSERIES_DD: Case = Case {
    name: "longseries_dd",
    nd: 4,
    nm: 4,
    nt: 4096,
    fwd_cfg: "ddddd",
    adj_cfg: "ddddd",
    pairs_per_block: 30,
    oracle_rows: Some(64),
    tol: 1e-11,
};

struct Built {
    op: Arc<BlockToeplitzOperator>,
    fwd: FftMatvec,
    /// `None` when F* runs under the same configuration as F.
    adj: Option<FftMatvec>,
}

impl Built {
    fn adj(&self) -> &FftMatvec {
        self.adj.as_ref().unwrap_or(&self.fwd)
    }

    fn pipelines(&self) -> impl Iterator<Item = &FftMatvec> {
        std::iter::once(&self.fwd).chain(self.adj.as_ref())
    }
}

fn cfg(code: &str) -> PrecisionConfig {
    code.parse().expect("workload configs are fixed valid strings")
}

/// Program set-up, timed: F̂ build, pipeline builds, warm-up applies —
/// everything up to the first timed op.
fn setup(case: &Case, col: &[f64], m: &[f64], d: &[f64]) -> Result<(Built, f64), String> {
    let t0 = Instant::now();
    let op = BlockToeplitzOperator::from_first_block_column(case.nd, case.nm, case.nt, col)
        .map_err(|e| e.to_string())?;
    let op = Arc::new(op);
    let build = |code: &str| {
        FftMatvec::builder_arc(Arc::clone(&op))
            .precision(cfg(code))
            .build()
            .map_err(|e| e.to_string())
    };
    let fwd = build(case.fwd_cfg)?;
    let adj = if case.adj_cfg == case.fwd_cfg { None } else { Some(build(case.adj_cfg)?) };
    let built = Built { op, fwd, adj };
    let mut out_f = vec![0.0; case.nd * case.nt];
    let mut out_a = vec![0.0; case.nm * case.nt];
    for _ in 0..2 {
        built.fwd.apply_forward_into(m, &mut out_f).map_err(|e| e.to_string())?;
        built.adj().apply_adjoint_into(d, &mut out_a).map_err(|e| e.to_string())?;
    }
    Ok((built, t0.elapsed().as_secs_f64()))
}

/// Relative error of the pipeline outputs against the direct
/// block-convolution sum (full, or on sampled rows).
fn oracle_errors(
    case: &Case,
    seed: u64,
    op: &BlockToeplitzOperator,
    m: &[f64],
    d: &[f64],
    got_fwd: &[f64],
    got_adj: &[f64],
) -> Result<(f64, f64), String> {
    let (nd, nm, nt) = (case.nd, case.nm, case.nt);
    let Some(rows) = case.oracle_rows else {
        let direct = DirectMatvec::new(op);
        let want_f = direct.apply_forward(m).map_err(|e| e.to_string())?;
        let want_a = direct.apply_adjoint(d).map_err(|e| e.to_string())?;
        return Ok((rel_err(got_fwd, &want_f), rel_err(got_adj, &want_a)));
    };
    let mut rng = stream(seed, 9);
    let (mut got_f, mut want_f, mut got_a, mut want_a) = (vec![], vec![], vec![], vec![]);
    for _ in 0..rows {
        // d[t·nd + i] = Σ_{tj ≤ t} F_{t−tj}[i, :] · m_tj
        let (t, i) = (rng.next_usize(nt), rng.next_usize(nd));
        let mut acc = 0.0;
        for tj in 0..=t {
            let row = &op.block(t - tj)[i * nm..(i + 1) * nm];
            acc += row.iter().zip(&m[tj * nm..(tj + 1) * nm]).map(|(a, b)| a * b).sum::<f64>();
        }
        got_f.push(got_fwd[t * nd + i]);
        want_f.push(acc);
        // m[tj·nm + k] = Σ_{ti ≥ tj} F_{ti−tj}[:, k] · d_ti
        let (tj, k) = (rng.next_usize(nt), rng.next_usize(nm));
        let mut acc = 0.0;
        for ti in tj..nt {
            let blk = op.block(ti - tj);
            acc += (0..nd).map(|i| blk[i * nm + k] * d[ti * nd + i]).sum::<f64>();
        }
        got_a.push(got_adj[tj * nm + k]);
        want_a.push(acc);
    }
    Ok((rel_err(&got_f, &want_f), rel_err(&got_a, &want_a)))
}

/// Span names of one direction's apply and its replayed phases.
struct Names {
    op: &'static str,
    apply: &'static str,
    replay: &'static str,
    pad: &'static str,
    cast: &'static str,
    fft: &'static str,
    reorder_in: &'static str,
    sbgemv: &'static str,
    reorder_out: &'static str,
    ifft: &'static str,
    unpad: &'static str,
}

const FWD: Names = Names {
    op: "harness.op.fwd",
    apply: "core.pipeline.apply.fwd",
    replay: "harness.replay.fwd",
    pad: "core.layout.pad_input.fwd",
    cast: "backend.cast_real.fwd",
    fft: "fft.forward.fwd",
    reorder_in: "core.layout.spectrum_to_batch.fwd",
    sbgemv: "blas.sbgemv.fwd",
    reorder_out: "core.layout.batch_to_spectrum.fwd",
    ifft: "fft.inverse.fwd",
    unpad: "core.layout.unpad_output.fwd",
};

const ADJ: Names = Names {
    op: "harness.op.adj",
    apply: "core.pipeline.apply.adj",
    replay: "harness.replay.adj",
    pad: "core.layout.pad_input.adj",
    cast: "backend.cast_real.adj",
    fft: "fft.forward.adj",
    reorder_in: "core.layout.spectrum_to_batch.adj",
    sbgemv: "blas.sbgemv.adj",
    reorder_out: "core.layout.batch_to_spectrum.adj",
    ifft: "fft.inverse.adj",
    unpad: "core.layout.unpad_output.adj",
};

impl Names {
    fn phases(&self) -> [&'static str; 8] {
        [
            self.pad,
            self.cast,
            self.fft,
            self.reorder_in,
            self.sbgemv,
            self.reorder_out,
            self.ifft,
            self.unpad,
        ]
    }
}

/// The five phases of `FftMatvec::run_pipeline`, re-run through public
/// functions only with its own reused buffers, one span per call. The
/// output must equal the pipeline's bit for bit — that is what makes
/// the phase spans an account of the apply and not of something else.
struct Replay {
    names: &'static Names,
    gemv_op: GemvOp,
    cfg: PrecisionConfig,
    device: Arc<dyn DeviceBackend>,
    fft: Arc<dyn BatchFft>,
    ifft: Arc<dyn BatchFft>,
    padded: RealBuffer,
    casted: RealBuffer,
    spectrum: ComplexBuffer,
    xhat: ComplexBuffer,
    yhat: ComplexBuffer,
    dspec: ComplexBuffer,
    time: RealBuffer,
    /// `cast_real` calls made so far (exact).
    casts: u64,
}

impl Replay {
    fn new(mv: &FftMatvec, dir: OpDirection) -> Result<Self, String> {
        let cfg = mv.config();
        let n2 = 2 * mv.operator().nt();
        let device = Arc::clone(mv.device());
        let plan = |p| device.real_fft(p, n2).map_err(|e| e.to_string());
        Ok(Replay {
            names: if dir == OpDirection::Forward { &FWD } else { &ADJ },
            gemv_op: if dir == OpDirection::Forward { GemvOp::NoTrans } else { GemvOp::ConjTrans },
            cfg,
            fft: plan(cfg.phase(MatvecPhase::Fft))?,
            ifft: plan(cfg.phase(MatvecPhase::Ifft))?,
            device,
            padded: RealBuffer::F64(Vec::new()),
            casted: RealBuffer::F64(Vec::new()),
            spectrum: ComplexBuffer::C64(Vec::new()),
            xhat: ComplexBuffer::C64(Vec::new()),
            yhat: ComplexBuffer::C64(Vec::new()),
            dspec: ComplexBuffer::C64(Vec::new()),
            time: RealBuffer::F64(Vec::new()),
            casts: 0,
        })
    }

    fn run(
        &mut self,
        op: &BlockToeplitzOperator,
        input: &[f64],
        out: &mut [f64],
        tr: &mut Tracer,
        parent: usize,
        id: u64,
    ) -> Result<(), String> {
        let (nd, nm, nt, nfreq) = (op.nd(), op.nm(), op.nt(), op.nfreq());
        let (n_in, n_out) = if self.gemv_op == GemvOp::NoTrans { (nm, nd) } else { (nd, nm) };
        let names = self.names;
        let parent = Some(parent);
        let phase = |p| self.cfg.phase(p);
        let (p_pad, p_fft, p_gemv) =
            (phase(MatvecPhase::Pad), phase(MatvecPhase::Fft), phase(MatvecPhase::Sbgemv));
        let (p_ifft, p_unpad) = (phase(MatvecPhase::Ifft), phase(MatvecPhase::Unpad));
        let Replay { padded, casted, spectrum, xhat, yhat, dspec, time, .. } = self;

        tr.span(names.pad, parent, id, || layout::pad_input_into(input, n_in, nt, p_pad, padded));
        let fft_in: &RealBuffer = if p_fft == p_pad {
            padded
        } else {
            self.casts += 1;
            tr.span(names.cast, parent, id, || self.device.cast_real(padded, p_fft, casted))
                .map_err(|e| e.to_string())?;
            casted
        };
        spectrum.reset_for_overwrite(p_fft, n_in * nfreq);
        tr.span(names.fft, parent, id, || self.fft.forward(fft_in, spectrum))
            .map_err(|e| e.to_string())?;

        tr.span(names.reorder_in, parent, id, || {
            layout::spectrum_to_batch_into(spectrum, n_in, nfreq, p_gemv, xhat)
        });
        yhat.reset_for_overwrite(p_gemv, n_out * nfreq);
        let g = BatchGeometry::packed(nd, nm, self.gemv_op, nfreq);
        let gemv_op = self.gemv_op;
        let sb = tr.begin(names.sbgemv, parent, id);
        match (&*xhat, &mut *yhat) {
            (ComplexBuffer::C32(x), ComplexBuffer::C32(y)) => {
                sbgemv(gemv_op, Complex::one(), op.fhat32(), x, Complex::zero(), y, &g);
            }
            (ComplexBuffer::C64(x), ComplexBuffer::C64(y)) => {
                sbgemv(gemv_op, Complex::one(), op.fhat(), x, Complex::zero(), y, &g);
            }
            _ => return Err("replay covers the d and s SBGEMV tiers only".into()),
        }
        tr.end(sb);

        tr.span(names.reorder_out, parent, id, || {
            layout::batch_to_spectrum_into(yhat, n_out, nfreq, p_ifft, dspec)
        });
        time.reset_for_overwrite(p_ifft, n_out * 2 * nt);
        tr.span(names.ifft, parent, id, || self.ifft.inverse(dspec, time))
            .map_err(|e| e.to_string())?;
        tr.span(names.unpad, parent, id, || {
            layout::unpad_output_into(time, n_out, nt, p_unpad, out)
        });
        Ok(())
    }
}

fn complex_bytes(code: &str) -> f64 {
    cfg(code).phase(MatvecPhase::Sbgemv).complex_bytes() as f64
}

/// Last-level cache size as the kernel reports it, for the note next to
/// the F̂ size (no bandwidth-bound claim is made either way).
fn l3_note(fhat_bytes: usize) -> String {
    let l3 = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned());
    format!(
        "F-hat (f64) is {:.1} MB; the machine reports an L3 of {l3} — arrays here may fit in \
         cache, so blas.*_gbps_computed is bytes-by-shape over time, not a memory-bandwidth figure",
        fhat_bytes as f64 / 1e6
    )
}

/// First block column, F input, F* input — functions of the seed and the
/// shape only.
fn inputs(case: &Case, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let (nd, nm, nt) = (case.nd, case.nm, case.nt);
    (
        uniform_vec(seed, 0, nt * nd * nm),
        stuffed_vec(seed, 1, nm * nt),
        stuffed_vec(seed, 2, nd * nt),
    )
}

pub fn run(case: &Case, args: &RunArgs) -> Result<Outcome, String> {
    let (nd, nm, nt) = (case.nd, case.nm, case.nt);
    let (col, m, d) = inputs(case, args.seed);

    let (built, setup_s) = if args.mode == Mode::Untraced {
        measure_setup(|| setup(case, &col, &m, &d))?
    } else {
        setup(case, &col, &m, &d)?
    };
    drop(col);

    // Reference outputs, and the oracle on them — outside set-up time
    // and outside the timed section.
    let want_fwd = built.fwd.apply_forward(&m).map_err(|e| e.to_string())?;
    let want_adj = built.adj().apply_adjoint(&d).map_err(|e| e.to_string())?;
    let pair = Pair {
        fwd: &built.fwd,
        adj: built.adj(),
        m: &m,
        d: &d,
        want_fwd: &want_fwd,
        want_adj: &want_adj,
    };
    if args.mode == Mode::ApplyOnly {
        return Ok(apply_only(&pair, case.pairs_per_block, args.seconds));
    }
    let (err_f, err_a) = oracle_errors(case, args.seed, &built.op, &m, &d, &want_fwd, &want_adj)?;
    let oracle_ok = err_f <= case.tol && err_a <= case.tol;

    let mut out = Outcome::default();
    out.notes.push(format!(
        "{}: {nd}x{nm}x{nt}, F via {}, F* via {}; oracle rel err F {err_f:.2e}, F* {err_a:.2e} \
         (tol {:.0e})",
        case.name, case.fwd_cfg, case.adj_cfg, case.tol
    ));

    if args.mode == Mode::Untraced {
        let timed = run_pairs(&pair, case.pairs_per_block, args.seconds, false);
        out.end_to_end(&timed, setup_s, oracle_ok);
        return Ok(out);
    }

    out.notes.push(l3_note(built.op.fhat_bytes()));
    let untraced = run_pairs(&pair, case.pairs_per_block, 0.3 * args.seconds, true);
    traced(case, args, &built, &pair, &untraced, &mut out)?;
    out.set("core.pipeline.rel_err_fwd", err_f);
    out.set("core.pipeline.rel_err_adj", err_a);
    if !oracle_ok {
        out.failed = out.attempted;
    }
    Ok(out)
}

/// Per-apply counts that follow from the shape alone (labelled
/// "computed" wherever they are shown).
struct ShapeCounts {
    /// 5·N·log₂N per length-N series, one series per input and per
    /// output channel.
    fft_flops: f64,
    /// 8 flops per complex multiply-add over every F̂ entry.
    blas_flops: f64,
    /// F̂ plus the two batch vectors, in each direction's SBGEMV tier.
    blas_bytes_fwd: f64,
    blas_bytes_adj: f64,
    /// Lattice configurations Eq. 6 admits at [`AUTOTUNE_BUDGET`], κ = 1.
    admissible: f64,
}

fn shape_counts(case: &Case) -> ShapeCounts {
    let (nd, nm, nt) = (case.nd, case.nm, case.nt);
    let nfreq = nt + 1;
    let n2 = (2 * nt) as f64;
    let elems = ((nd * nm + nd + nm) * nfreq) as f64;
    ShapeCounts {
        fft_flops: 5.0 * n2 * n2.log2() * (nd + nm) as f64,
        blas_flops: 8.0 * (nd * nm * nfreq) as f64,
        blas_bytes_fwd: elems * complex_bytes(case.fwd_cfg),
        blas_bytes_adj: elems * complex_bytes(case.adj_cfg),
        admissible: admissible_configs(nd, nm, nt),
    }
}

/// What the interleaved apply/replay loop counted (all exact).
#[derive(Debug, PartialEq, Eq)]
struct Replayed {
    pairs: u64,
    /// Applies that erred, missed their reference output, or whose
    /// replay was not bit-identical.
    failed: u64,
    casts: u64,
    bytes_up: u64,
    bytes_down: u64,
}

/// One real apply, then one replay of its phases; F then F*; at least
/// `min_pairs` pairs and until `seconds` have passed.
fn replay_section(
    built: &Built,
    pair: &Pair<'_>,
    min_pairs: u64,
    seconds: f64,
    tr: &mut Tracer,
) -> Result<Replayed, String> {
    let op = &*built.op;
    let mut rp_f = Replay::new(&built.fwd, OpDirection::Forward)?;
    let mut rp_a = Replay::new(built.adj(), OpDirection::Adjoint)?;
    let (mut out_f, mut re_f) = (vec![0.0; pair.want_fwd.len()], vec![0.0; pair.want_fwd.len()]);
    let (mut out_a, mut re_a) = (vec![0.0; pair.want_adj.len()], vec![0.0; pair.want_adj.len()]);
    for mv in built.pipelines() {
        mv.device().reset_transfers();
    }
    let started = Instant::now();
    let mut pairs = 0u64;
    let mut failed = 0u64;
    while pairs < min_pairs || started.elapsed().as_secs_f64() < seconds {
        let id = 2 * pairs;
        let root = tr.begin(FWD.op, None, id);
        let r =
            tr.span(FWD.apply, Some(root), id, || pair.fwd.apply_forward_into(pair.m, &mut out_f));
        let rp = tr.begin(FWD.replay, Some(root), id);
        rp_f.run(op, pair.m, &mut re_f, tr, rp, id)?;
        tr.end(rp);
        tr.end(root);
        if r.is_err() || out_f != pair.want_fwd || re_f != out_f {
            failed += 1;
        }

        let id = id + 1;
        let root = tr.begin(ADJ.op, None, id);
        let r =
            tr.span(ADJ.apply, Some(root), id, || pair.adj.apply_adjoint_into(pair.d, &mut out_a));
        let rp = tr.begin(ADJ.replay, Some(root), id);
        rp_a.run(op, pair.d, &mut re_a, tr, rp, id)?;
        tr.end(rp);
        tr.end(root);
        if r.is_err() || out_a != pair.want_adj || re_a != out_a {
            failed += 1;
        }
        pairs += 1;
    }
    let (bytes_up, bytes_down) = built.pipelines().fold((0, 0), |(u, d), mv| {
        let t = mv.device().transfers();
        (u + t.bytes_up, d + t.bytes_down)
    });
    Ok(Replayed { pairs, failed, casts: rp_f.casts + rp_a.casts, bytes_up, bytes_down })
}

fn traced(
    case: &Case,
    args: &RunArgs,
    built: &Built,
    pair: &Pair<'_>,
    untraced: &Timed,
    out: &mut Outcome,
) -> Result<(), String> {
    let (nd, nm, nt) = (case.nd, case.nm, case.nt);
    let mut tr = Tracer::new();
    let replayed = replay_section(built, pair, 10, 0.4 * args.seconds, &mut tr)?;
    let Replayed { pairs, failed, casts, bytes_up, bytes_down } = replayed;
    let applies = 2 * pairs;
    out.attempted = untraced.attempted + applies;
    out.failed = untraced.failed + failed;

    // Plan-handle fetch, as the pipeline's engine table does on a miss.
    let device = Arc::clone(built.fwd.device());
    for _ in 0..32 {
        tr.span("backend.real_fft", None, 0, || device.real_fft(Precision::Double, 2 * nt))
            .map_err(|e| e.to_string())?;
    }

    let phase_sum = |n: &Names| n.phases().iter().map(|p| tr.median_us(p)).sum::<f64>();
    let (apply_f, apply_a) = (tr.median_us(FWD.apply), tr.median_us(ADJ.apply));
    let (sum_f, sum_a) = (phase_sum(&FWD), phase_sum(&ADJ));
    let (gemv_f, gemv_a) = (tr.median_us(FWD.sbgemv), tr.median_us(ADJ.sbgemv));
    out.set("core.pipeline.fwd_apply_us", apply_f);
    out.set("core.pipeline.adj_apply_us", apply_a);
    out.set("core.pipeline.fwd_self_us", apply_f - sum_f);
    out.set("core.pipeline.adj_self_us", apply_a - sum_a);
    out.set("core.pipeline.fwd_phase_sum_ratio", sum_f / apply_f);
    out.set("core.pipeline.adj_phase_sum_ratio", sum_a / apply_a);
    out.set("core.pipeline.fwd_sbgemv_share", gemv_f / sum_f);
    out.set("core.pipeline.adj_sbgemv_share", gemv_a / sum_a);
    let ws_peak = built.pipelines().map(FftMatvec::workspaces_peak_in_flight).max().unwrap_or(0);
    out.set("core.pipeline.workspaces_peak", ws_peak as f64);

    out.set("core.layout.fwd_pad_us", tr.median_us(FWD.pad));
    out.set("core.layout.adj_pad_us", tr.median_us(ADJ.pad));
    out.set("core.layout.fwd_reorder_in_us", tr.median_us(FWD.reorder_in));
    out.set("core.layout.adj_reorder_in_us", tr.median_us(ADJ.reorder_in));
    out.set("core.layout.fwd_reorder_out_us", tr.median_us(FWD.reorder_out));
    out.set("core.layout.adj_reorder_out_us", tr.median_us(ADJ.reorder_out));
    out.set("core.layout.fwd_unpad_us", tr.median_us(FWD.unpad));
    out.set("core.layout.adj_unpad_us", tr.median_us(ADJ.unpad));

    out.set("backend.fwd_cast_us", tr.median_us(FWD.cast));
    out.set("backend.adj_cast_us", tr.median_us(ADJ.cast));
    out.set("backend.casts_per_apply", casts as f64 / applies as f64);
    out.set("backend.bytes_up_per_apply", bytes_up as f64 / applies as f64);
    out.set("backend.bytes_down_per_apply", bytes_down as f64 / applies as f64);
    out.set("backend.plan_lookup_us", tr.median_us("backend.real_fft"));
    let dims = MatvecDims::new(nd, nm, nt);
    let mi300x = SimulatedDevice::mi300x();
    let modeled = |code, adjoint| {
        simulate_phases(dims, cfg(code), adjoint, mi300x.spec()).fraction(Phase::Sbgemv)
    };
    out.set(
        "backend.modeled_sbgemv_share",
        0.5 * (modeled(case.fwd_cfg, false) + modeled(case.adj_cfg, true)),
    );

    let (fft_f, ifft_f) = (tr.median_us(FWD.fft), tr.median_us(FWD.ifft));
    out.set("fft.fwd_fft_us", fft_f);
    out.set("fft.fwd_ifft_us", ifft_f);
    out.set("fft.adj_fft_us", tr.median_us(ADJ.fft));
    out.set("fft.adj_ifft_us", tr.median_us(ADJ.ifft));
    let counts = shape_counts(case);
    out.set("fft.flops_per_apply", counts.fft_flops);
    out.set("fft.fwd_gflops_computed", counts.fft_flops / ((fft_f + ifft_f) * 1e3));

    out.set("blas.fwd_sbgemv_us", gemv_f);
    out.set("blas.adj_sbgemv_us", gemv_a);
    out.set("blas.adj_over_fwd", gemv_a / gemv_f);
    out.set("blas.flops_per_apply", counts.blas_flops);
    out.set("blas.bytes_per_apply", counts.blas_bytes_fwd);
    out.set("blas.ops_per_byte", counts.blas_flops / counts.blas_bytes_fwd);
    out.set("blas.fwd_gbps_computed", counts.blas_bytes_fwd / (gemv_f * 1e3));
    out.set("blas.adj_gbps_computed", counts.blas_bytes_adj / (gemv_a * 1e3));

    out.set("core.autotune.admissible_configs", counts.admissible);
    if case.fwd_cfg != case.adj_cfg {
        // One budget resolution on a private pipeline; the timed configs
        // stay fixed strings because a live pick would not repeat.
        let mut private =
            FftMatvec::builder_arc(Arc::clone(&built.op)).build().map_err(|e| e.to_string())?;
        let params = bound_params(nd, nm, nt);
        let weights = PhaseWeights::for_shape(nd, nm, nt, OpDirection::Forward);
        let t0 = Instant::now();
        let choice = autotune::autotune(
            &mut private,
            OpDirection::Forward,
            AUTOTUNE_BUDGET,
            &params,
            &weights,
            &mut TierCalibration::new(),
        )
        .map_err(|e| e.to_string())?;
        out.set("core.autotune.resolve_ms", t0.elapsed().as_secs_f64() * 1e3);
        out.notes
            .push(format!("autotune at budget {AUTOTUNE_BUDGET:.0e} picked {}", choice.config));
    }

    traced_extras(pair, args, untraced, apply_f + apply_a, out)?;
    out.notes.push(format!(
        "traced {pairs} pairs; replay bit-identical on {} of {applies} applies",
        applies - failed
    ));

    tr.save(case.name, args.seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small enough for a debug-build test, mixed enough to cast.
    const TINY: Case = Case {
        name: "tiny",
        nd: 2,
        nm: 3,
        nt: 8,
        fwd_cfg: "dssds",
        adj_cfg: "ddssd",
        pairs_per_block: 2,
        oracle_rows: Some(16),
        tol: 1e-5,
    };

    fn replay(case: &Case, seed: u64) -> (Replayed, (f64, f64)) {
        let (col, m, d) = inputs(case, seed);
        let (built, _) = setup(case, &col, &m, &d).unwrap();
        let want_fwd = built.fwd.apply_forward(&m).unwrap();
        let want_adj = built.adj().apply_adjoint(&d).unwrap();
        let errs = oracle_errors(case, seed, &built.op, &m, &d, &want_fwd, &want_adj).unwrap();
        let pair = Pair {
            fwd: &built.fwd,
            adj: built.adj(),
            m: &m,
            d: &d,
            want_fwd: &want_fwd,
            want_adj: &want_adj,
        };
        (replay_section(&built, &pair, 3, 0.0, &mut Tracer::new()).unwrap(), errs)
    }

    #[test]
    fn same_seed_gives_the_same_inputs_and_exact_counts() {
        assert_eq!(inputs(&TINY, 5), inputs(&TINY, 5));
        assert_ne!(inputs(&TINY, 5).1, inputs(&TINY, 6).1);
        let (a, _) = replay(&TINY, 5);
        let (b, _) = replay(&TINY, 5);
        assert_eq!(a, b);
        // dssds casts once per F (pad d -> fft s), ddssd never; the
        // ledger books the f64 input and output of every apply.
        let (in_f, in_a) = (TINY.nm * TINY.nt * 8, TINY.nd * TINY.nt * 8);
        let want = Replayed {
            pairs: 3,
            failed: 0,
            casts: 3,
            bytes_up: 3 * (in_f + in_a) as u64,
            bytes_down: 3 * (in_f + in_a) as u64,
        };
        assert_eq!(a, want);
        let (c1, c2) = (shape_counts(&TINY), shape_counts(&TINY));
        assert_eq!(
            (c1.fft_flops, c1.blas_flops, c1.blas_bytes_fwd, c1.admissible),
            (c2.fft_flops, c2.blas_flops, c2.blas_bytes_fwd, c2.admissible)
        );
        assert_eq!(c1.blas_flops, 8.0 * (2 * 3 * 9) as f64);
        assert_eq!(c1.blas_bytes_fwd, ((2 * 3 + 2 + 3) * 9 * 8) as f64, "f32 complex is 8 bytes");
    }

    #[test]
    fn replay_is_bit_identical_to_the_apply_for_every_traced_config() {
        for (fwd_cfg, adj_cfg) in [("ddddd", "ddddd"), ("dssdd", "ddssd"), ("dssds", "sdsds")] {
            let case = Case { fwd_cfg, adj_cfg, ..TINY };
            let (replayed, (err_f, err_a)) = replay(&case, 11);
            assert_eq!(replayed.failed, 0, "{fwd_cfg}/{adj_cfg}");
            assert!(err_f < 1e-5 && err_a < 1e-5, "{fwd_cfg}/{adj_cfg}: {err_f:e} {err_a:e}");
        }
    }

    #[test]
    fn sampled_oracle_agrees_with_the_full_one() {
        let full = Case { oracle_rows: None, ..TINY };
        let (_, (sf, sa)) = replay(&TINY, 3);
        let (_, (ff, fa)) = replay(&full, 3);
        // Same pipeline outputs, two independent direct sums: both see
        // single-precision error, neither sees an indexing mistake.
        for e in [sf, sa, ff, fa] {
            assert!(e > 1e-9 && e < 1e-5, "{e:e}");
        }
    }
}
