//! The artifact executable, mirroring the paper's `fft_matvec` CLI
//! (Artifact Description appendix): `-nm -nd -Nt` problem sizes, `-prec
//! xxxxx` five-phase precision configuration, `-rand` mantissa-stuffed
//! initialization, `-raw` machine-readable output, `-t` self-test, and
//! the artifact's timing-output convention (setup/total/cleanup, then
//! mean/min/max for the F and F* matvecs).
//!
//! Differences from the GPU artifact, stated up front at runtime: timings
//! are modeled on a simulated device (select with `-dev`); the matvec
//! arithmetic itself is real and runs on the CPU whenever the operator
//! fits in memory (below ~1.5 GB of F̂), otherwise the numerical check is
//! run at a proportionally scaled shape.
//!
//! Examples:
//! ```text
//! fft_matvec -t
//! fft_matvec -nm 5000 -nd 100 -Nt 1000 -prec dssdd -rand
//! fft_matvec -nm 1000 -nd 50 -Nt 200 -prec sssss -raw
//! ```

use fftmatvec_bench::{die, make_operator, stuffed_vector, Args};
use fftmatvec_core::timing::{simulate_phases, MatvecDims};
use fftmatvec_core::{DirectMatvec, FftMatvec, LinearOperator, PrecisionConfig};
use fftmatvec_gpu::{DeviceSpec, Phase};
use fftmatvec_numeric::vecmath::rel_l2_error;

/// F̂ size (bytes) above which the real-arithmetic check is scaled down.
const REAL_COMPUTE_BUDGET: usize = 1_500_000_000;

fn self_test() -> i32 {
    // The artifact's `./fft_matvec -t`: quick correctness pass.
    let (nd, nm, nt) = (4usize, 48usize, 64usize);
    let op = make_operator(nd, nm, nt, 1);
    let m = stuffed_vector(nm * nt, 2);
    let mv = FftMatvec::builder(op).build().expect("CPU build");
    let fft = mv.apply_forward(&m).expect("self-test shapes");
    let direct = DirectMatvec::new(mv.operator()).apply_forward(&m).expect("self-test shapes");
    let err = rel_l2_error(&fft, &direct);
    let d = stuffed_vector(nd * nt, 3);
    let lhs: f64 = fft.iter().zip(&d).map(|(a, b)| a * b).sum();
    let rhs: f64 =
        m.iter().zip(&mv.apply_adjoint(&d).expect("self-test shapes")).map(|(a, b)| a * b).sum();
    let adj = (lhs - rhs).abs() / lhs.abs().max(1.0);
    println!("self-test: fft-vs-direct rel error {err:.2e}, adjoint identity {adj:.2e}");
    if err < 1e-12 && adj < 1e-12 {
        println!("self-test PASSED");
        0
    } else {
        println!("self-test FAILED");
        1
    }
}

fn main() {
    let args = Args::from_env();
    if args.has("t") {
        std::process::exit(self_test());
    }

    // Flags are case-insensitive, so `-Nt` and `-nt` are one flag.
    let size = |flag: &str, default: usize| match args.get(flag, default) {
        0 => die(format!("flag -{flag}: a problem size must be at least 1")),
        n => n,
    };
    let (nm, nd, nt) = (size("nm", 5000), size("nd", 100), size("Nt", 1000));
    let prec: String = args.get("prec", "ddddd".to_string());
    let cfg: PrecisionConfig = prec.parse().unwrap_or_else(|e| die(format!("flag -prec: {e}")));
    let raw = args.has("raw");
    let reps = args.get("reps", 100usize);
    let dev = match args.get("dev", "mi250x".to_string()).as_str() {
        "mi300x" => DeviceSpec::mi300x(),
        "mi355x" => DeviceSpec::mi355x(),
        _ => DeviceSpec::mi250x_gcd(),
    };

    let dims = MatvecDims::new(nd, nm, nt);
    let fwd = simulate_phases(dims, cfg, false, &dev);
    let adj = simulate_phases(dims, cfg, true, &dev);
    // Setup: double-precision batched FFT of the padded first block
    // column — one pass over nt*nd*nm doubles in, (nt+1)*nd*nm complex out.
    let setup_bytes = (nt * nd * nm * 8 + (nt + 1) * nd * nm * 16) as f64 * 2.0;
    let setup = setup_bytes / (dev.peak_bw * 0.7);

    // Real-arithmetic verification, scaled to the memory budget.
    let fhat_bytes = (nt + 1) * nd * nm * 16;
    let scale = if fhat_bytes > REAL_COMPUTE_BUDGET {
        (fhat_bytes as f64 / REAL_COMPUTE_BUDGET as f64).cbrt()
    } else {
        1.0
    };
    let (vnm, vnd, vnt) = (
        ((nm as f64 / scale) as usize).max(1),
        ((nd as f64 / scale) as usize).max(1),
        ((nt as f64 / scale) as usize).max(1),
    );
    let op = make_operator(vnd, vnm, vnt, 769);
    let m = if args.has("rand") { stuffed_vector(vnm * vnt, 7) } else { vec![1.0; vnm * vnt] };
    let mut mv = FftMatvec::builder(op).build().expect("CPU build");
    let baseline = mv.apply_forward(&m).expect("verification shapes");
    mv.set_config(cfg);
    let rel_err = rel_l2_error(&mv.apply_forward(&m).expect("verification shapes"), &baseline);

    if raw {
        println!("nm,nd,nt,prec,device,setup_s,f_total_s,fstar_total_s,rel_error,reps");
        println!(
            "{nm},{nd},{nt},{cfg},{},{:.6e},{:.6e},{:.6e},{:.6e},{reps}",
            dev.name.replace(' ', "_"),
            setup,
            fwd.total(),
            adj.total(),
            rel_err
        );
        return;
    }

    println!("FFTMatvec (Rust reproduction) — simulated {}", dev.name);
    println!("N_m = {nm}, N_d = {nd}, N_t = {nt}, prec = {cfg}, reps = {reps}");
    if scale > 1.0 {
        println!(
            "note: F_hat would need {:.1} GB; numerical check scaled by {scale:.1}x per axis \
             (N_m={vnm}, N_d={vnd}, N_t={vnt})",
            fhat_bytes as f64 / 1e9
        );
    }
    println!();
    // The artifact's first three lines: setup, total, cleanup.
    println!("setup    : {:>10.3} ms", setup * 1e3);
    println!("total    : {:>10.3} ms", (fwd.total() + adj.total()) * reps as f64 * 1e3);
    println!("cleanup  : {:>10.3} ms", 0.1);
    // Then mean/min/max for F and F* (deterministic model ⇒ equal).
    for (label, t) in [("F  matvec", &fwd), ("F* matvec", &adj)] {
        let ms = t.total() * 1e3;
        println!("{label}: mean {ms:>9.3} ms | min {ms:>9.3} ms | max {ms:>9.3} ms");
    }
    println!();
    println!("phase breakdown (F):  {fwd}");
    println!("phase breakdown (F*): {adj}");
    println!(
        "SBGEMV share: {:.1}% (F) / {:.1}% (F*)",
        100.0 * fwd.fraction(Phase::Sbgemv),
        100.0 * adj.fraction(Phase::Sbgemv)
    );
    println!();
    println!(
        "relative error vs ddddd (real arithmetic{}): {rel_err:.3e}",
        if args.has("rand") { ", mantissa-stuffed inputs" } else { "" }
    );
}
