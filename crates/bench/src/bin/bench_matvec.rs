//! Matvec API benchmark with machine-readable output — the data source
//! for `BENCH_matvec.json` and the committed `bench/baseline_matvec.json`
//! the CI `bench-smoke` job gates on.
//!
//! Times one full `FftMatvec` application at three memory-scaled paper
//! shapes, in the all-double and paper-optimal configurations, in both
//! directions, through both API paths:
//!
//! * `alloc` — the allocating [`LinearOperator::apply_forward`] /
//!   `apply_adjoint` conveniences;
//! * `into` — the zero-allocation `apply_forward_into` /
//!   `apply_adjoint_into` hot paths on preallocated buffers.
//!
//! Each (shape, config, direction) pair is measured with the two paths
//! *interleaved* (same time windows), so their ratio — the statistic both
//! gates run on — cancels machine-state drift. The acceptance criterion
//! is structural: the `into` path must be no slower than the allocating
//! path at every benchmarked key.
//!
//! Run: `cargo run --release -p fftmatvec-bench --bin bench_matvec`
//! Flags:
//! * `-quick` — short samples (the CI smoke mode)
//! * `-out <path>` — write the JSON document (default `BENCH_matvec.json`)
//! * `-check <path>` — compare into/alloc ratios against a baseline
//!   document; exits non-zero past the tolerance
//! * `-tol <x>` — regression budget for `-check` (default 1.25 = +25%)
//!
//! The intra-run "into no slower than alloc" margin is the constant
//! [`MATVEC_INTO_NO_SLOWER`] (1.10).
//!
//! A second table is the batched apply's per-vector cost curve,
//! `per_vec_us(b)`: `apply_many_into` over `b` ∈ {1, 4, 8, 32} columns,
//! ns per column, at the service shape 2×16×64 and the paper block
//! 16×256×64 in `ddddd` and `dssdd`, both directions (`path` =
//! `many{b}`). The rows are printed and written but not gated — a
//! baseline document that lacks them gates only its `into`/`alloc` pairs.

use std::hint::black_box;

use fftmatvec_bench::record::{self, Record, MATVEC, MATVEC_INTO_NO_SLOWER};
use fftmatvec_bench::timing::time_pair_ns;
use fftmatvec_bench::{make_operator, stuffed_vector, Args};
use fftmatvec_core::{FftMatvec, LinearOperator, OpDirection, PrecisionConfig};

/// Memory-scaled stand-ins for the paper's `N_d=100, N_m=5000, N_t=1000`
/// single-GPU shape: same `N_d ≪ N_m`, `N_t ≫ 1` structure at sizes a CI
/// runner measures in seconds (the error-shape convention every fig
/// binary uses). Small enough that the per-apply allocation cost is a
/// visible fraction, which is exactly what this gate watches.
const SHAPES: [(usize, usize, usize); 3] = [(2, 64, 64), (4, 128, 128), (8, 256, 256)];

/// Configurations the gate keys on: the baseline and the paper optimum.
const CONFIGS: [&str; 2] = ["ddddd", "dssdd"];

/// Shapes of the batched per-vector curve: the served operator (two-series
/// outputs, register panels and lane-sharing transforms both pay) and the
/// paper block (`F̂` streamed from cache once per panel, not per column).
const MANY_SHAPES: [(usize, usize, usize); 2] = [(2, 16, 64), (16, 256, 64)];

/// Batch widths of the per-vector curve: a solo apply through the batched
/// entry point, one panel of register width, one whole panel, and a
/// service window of four panels.
const MANY_COLS: [usize; 4] = [1, 4, 8, 32];

/// Time `apply_many_into` of `b` columns for every `b` in [`MANY_COLS`]
/// at one key, in pairs of widths so neighbours share time windows; print
/// ns per column and append one `many{b}` row per width.
fn measure_many(
    mv: &FftMatvec,
    shape: &str,
    config: &str,
    dir: OpDirection,
    samples: usize,
    sample_ms: f64,
    out: &mut Vec<Record>,
) {
    let (in_len, out_len) = mv.shape().io_lens(dir);
    let widest = MANY_COLS[MANY_COLS.len() - 1];
    let inputs = stuffed_vector(widest * in_len, 7);
    let mut outs = vec![0.0; widest * out_len];
    let mut sink = outs.clone();
    let direction = dir.to_string();
    let threads = rayon::current_num_threads() as f64;
    let mut per_vec = Vec::new();
    for pair in MANY_COLS.chunks(2) {
        let (b0, b1) = (pair[0], pair[1]);
        let (ns0, ns1) = time_pair_ns(
            || {
                let (x, y) = (&inputs[..b0 * in_len], &mut outs[..b0 * out_len]);
                mv.apply_many_into(dir, black_box(x), black_box(y)).expect("valid shape");
            },
            || {
                let (x, y) = (&inputs[..b1 * in_len], &mut sink[..b1 * out_len]);
                mv.apply_many_into(dir, black_box(x), black_box(y)).expect("valid shape");
            },
            samples,
            sample_ms,
        );
        per_vec.extend([(b0, ns0 / b0 as f64), (b1, ns1 / b1 as f64)]);
    }
    let cells: Vec<String> = per_vec.iter().map(|&(_, ns)| format!("{ns:>10.0}")).collect();
    println!("{shape:>12} | {config:>6} | {direction:>8} | {}", cells.join(" | "));
    for (b, ns) in per_vec {
        let path = format!("many{b}");
        out.push(MATVEC.row(&[shape, config, &direction, &path], &[threads, ns]));
    }
}

/// Time both paths at one key, print the comparison line and append
/// both rows.
fn measure(
    mv: &FftMatvec,
    shape: &str,
    config: &str,
    dir: OpDirection,
    samples: usize,
    sample_ms: f64,
    out: &mut Vec<Record>,
) {
    let (in_len, out_len) = mv.shape().io_lens(dir);
    let input = stuffed_vector(in_len, 7);
    let mut sink = vec![0.0; out_len];
    // Warm up once so plan/workspace setup is not measured.
    mv.apply_into(dir, &input, &mut sink).expect("benchmark shapes are valid");
    let direction = match dir {
        OpDirection::Forward => "forward",
        OpDirection::Adjoint => "adjoint",
    };
    let (alloc, into) = time_pair_ns(
        || match dir {
            OpDirection::Forward => {
                black_box(mv.apply_forward(black_box(&input)).expect("valid shape"));
            }
            OpDirection::Adjoint => {
                black_box(mv.apply_adjoint(black_box(&input)).expect("valid shape"));
            }
        },
        || {
            mv.apply_into(dir, black_box(&input), black_box(&mut sink)).expect("valid shape");
        },
        samples,
        sample_ms,
    );
    println!(
        "{shape:>12} | {config:>6} | {direction:>8} | {alloc:>12.0} | {into:>12.0} | {:>9.3}x",
        into / alloc
    );
    let threads = rayon::current_num_threads() as f64;
    for (path, ns) in [("alloc", alloc), ("into", into)] {
        out.push(MATVEC.row(&[shape, config, direction, path], &[threads, ns]));
    }
}

fn main() {
    let args = Args::from_env();
    let quick = args.has("quick");
    let (samples, sample_ms) = if quick { (7, 10.0) } else { (15, 25.0) };

    println!(
        "Matvec API benchmark ({} mode, {} pool threads) — ns per apply",
        if quick { "quick" } else { "full" },
        rayon::current_num_threads()
    );
    let header = format!(
        "{:>12} | {:>6} | {:>8} | {:>12} | {:>12} | {:>10}",
        "shape", "config", "dir", "alloc", "into", "into/alloc"
    );
    println!("{header}");
    fftmatvec_bench::rule(header.len());

    let mut results = Vec::new();
    for &(nd, nm, nt) in &SHAPES {
        let shape = format!("{nd}x{nm}x{nt}");
        for config in CONFIGS {
            let cfg: PrecisionConfig = config.parse().expect("valid config literal");
            let mv = FftMatvec::builder(make_operator(nd, nm, nt, nt as u64))
                .precision(cfg)
                .build()
                .expect("CPU build");
            for dir in [OpDirection::Forward, OpDirection::Adjoint] {
                measure(&mv, &shape, config, dir, samples, sample_ms, &mut results);
            }
        }
    }
    println!();

    let widths: Vec<String> =
        MANY_COLS.iter().map(|b| format!("{:>10}", format!("many{b}"))).collect();
    let header =
        format!("{:>12} | {:>6} | {:>8} | {}", "shape", "config", "dir", widths.join(" | "));
    println!("Batched apply, ns per column (not gated)");
    println!("{header}");
    fftmatvec_bench::rule(header.len());
    for &(nd, nm, nt) in &MANY_SHAPES {
        let shape = format!("{nd}x{nm}x{nt}");
        for config in CONFIGS {
            let cfg: PrecisionConfig = config.parse().expect("valid config literal");
            let mv = FftMatvec::builder(make_operator(nd, nm, nt, nt as u64))
                .precision(cfg)
                .build()
                .expect("CPU build");
            for dir in [OpDirection::Forward, OpDirection::Adjoint] {
                measure_many(&mv, &shape, config, dir, samples, sample_ms, &mut results);
            }
        }
    }
    println!();

    // Structural acceptance gate: into never slower than alloc.
    let slow = MATVEC.threshold_failures(&results, &MATVEC_INTO_NO_SLOWER);
    record::finish(&MATVEC, &args, &results, slow);
}
