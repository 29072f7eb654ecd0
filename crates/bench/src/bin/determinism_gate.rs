//! Thread-count determinism gate: every apply/reduce output must be
//! byte-identical at `RAYON_NUM_THREADS = 1, 2, 8`.
//!
//! The executor's contract (see `vendor/rayon`) is that work splits
//! through a tree derived from the job *length* only, so neither chunk
//! boundaries nor reduction associations can drift with the thread
//! count. This binary enforces that end to end: `RAYON_NUM_THREADS` is
//! read once per process, so the parent re-execs itself once per thread
//! count (`FFTMATVEC_DETGATE_CHILD=1`); each child runs the
//! `bench_matvec`-shaped workloads, the two-level Toeplitz pipeline,
//! plus the batched-FFT and tree-reduction hot paths and prints an order- and bit-sensitive
//! FNV-1a digest of every output vector; the parent fails on any
//! difference between the children's reports. Two extra legs pin the
//! other process-global dispatch switches: SIMD forced portable
//! (`FFTMATVEC_SIMD=portable`) and the simulated device backend
//! (`FFTMATVEC_BACKEND=simulated`) must both be byte-identical too.
//!
//! Run: `cargo run --release -p fftmatvec-bench --bin determinism_gate`
//! Flags:
//! * `-threads <a,b,c>` — comma-separated pool widths (default `1,2,8`)

use fftmatvec_bench::digest::{f64_bits, Fnv1a};
use fftmatvec_bench::{make_operator, respawn, stuffed_vector, Args};
use fftmatvec_comm::collectives::tree_reduce_sum_in_place;
use fftmatvec_comm::ProcessGrid;
use fftmatvec_core::{
    DirectMatvec, DistributedFftMatvec, FftMatvec, LinearOperator, OpDirection, PrecisionConfig,
};
use fftmatvec_fft::{BatchedFft, BatchedRealFft};
use fftmatvec_numeric::{Complex, Precision, Real, SplitMix64};
use fftmatvec_toeplitz::{NdCirculantEmbedding, ToeplitzGenerator, TwoLevelToeplitz};

const CHILD_ENV: &str = "FFTMATVEC_DETGATE_CHILD";

/// One output line per workload: `DIGEST <name> <hex>`.
fn report(name: &str, digest: u64) {
    println!("DIGEST {name} {digest:016x}");
}

/// One pipeline shape in each of `configs`: F and F\*, solo and as a
/// six-column `apply_many_into` (the pool path from 2 731 elements read
/// and written per column), digest names
/// `matvec{tag}_…` / `matvec_many{tag}_…`.
fn matvec_shape(tag: &str, (nd, nm, nt): (usize, usize, usize), configs: &[&str]) {
    for &config in configs {
        let cfg: PrecisionConfig = config.parse().expect("valid config literal");
        let mv = FftMatvec::builder(make_operator(nd, nm, nt, nt as u64))
            .precision(cfg)
            .build()
            .expect("CPU build");
        for dir in [OpDirection::Forward, OpDirection::Adjoint] {
            let (in_len, out_len) = mv.shape().io_lens(dir);
            let input = stuffed_vector(in_len, 7);
            let mut out = vec![0.0; out_len];
            mv.apply_into(dir, &input, &mut out).expect("valid shapes");
            let d = match dir {
                OpDirection::Forward => "forward",
                OpDirection::Adjoint => "adjoint",
            };
            report(&format!("matvec{tag}_{config}_{d}"), f64_bits(&out));

            // Column-batched sweep: the apply_many path.
            report(&format!("matvec_many{tag}_{config}_{d}"), many_digest(&mv, dir, 6));
        }
    }
}

/// A `cols`-column `apply_many_into` of one pipeline shape in each of
/// `configs`, F and F\*, digest names `matvec_many{cols}{tag}_…`.
fn matvec_many(tag: &str, cols: usize, (nd, nm, nt): (usize, usize, usize), configs: &[&str]) {
    for &config in configs {
        let cfg: PrecisionConfig = config.parse().expect("valid config literal");
        let mv = FftMatvec::builder(make_operator(nd, nm, nt, nt as u64))
            .precision(cfg)
            .build()
            .expect("CPU build");
        for (dir, d) in [(OpDirection::Forward, "forward"), (OpDirection::Adjoint, "adjoint")] {
            report(&format!("matvec_many{cols}{tag}_{config}_{d}"), many_digest(&mv, dir, cols));
        }
    }
}

/// Digest of `mv`'s `cols`-column batch in direction `dir`.
fn many_digest(mv: &FftMatvec, dir: OpDirection, cols: usize) -> u64 {
    let (in_len, out_len) = mv.shape().io_lens(dir);
    let inputs = stuffed_vector(in_len * cols, 11);
    let mut outs = vec![0.0; out_len * cols];
    mv.apply_many_into(dir, &inputs, &mut outs).expect("valid shapes");
    f64_bits(&outs)
}

/// The `bench_matvec` shape set (largest shape exercises every parallel
/// path) in the baseline and paper-optimal configurations.
fn matvec_workloads() {
    matvec_shape("", (8, 256, 256), &["ddddd", "dssdd"]);

    // Direct (non-FFT) matvec at a size its O(N_t²) cost tolerates.
    let op = make_operator(4, 32, 64, 17);
    let direct = DirectMatvec::new(&op);
    let m = stuffed_vector(32 * 64, 13);
    let mut d = vec![0.0; 4 * 64];
    direct.apply_forward_into(&m, &mut d).expect("valid shapes");
    report("direct_forward", f64_bits(&d));
    let mut m = vec![0.0; 32 * 64];
    direct.apply_adjoint_into(&stuffed_vector(4 * 64, 19), &mut m).expect("valid shapes");
    report("direct_adjoint", f64_bits(&m));

    // A 2×3 process grid whose rank loop reads and writes 30 720 elements
    // in either direction, above the parallel threshold.
    let (nd, nm, nt) = (8, 48, 256);
    let cfg: PrecisionConfig = "ddddd".parse().expect("valid config literal");
    let col = stuffed_vector(nd * nm * nt, 61);
    let dist = DistributedFftMatvec::from_global(nd, nm, nt, &col, ProcessGrid::new(2, 3), cfg)
        .expect("valid grid");
    for (dir, name) in [(OpDirection::Forward, "forward"), (OpDirection::Adjoint, "adjoint")] {
        let (in_len, out_len) = dist.shape().io_lens(dir);
        let mut out = vec![0.0; out_len];
        dist.apply_into(dir, &stuffed_vector(in_len, 67), &mut out).expect("valid shapes");
        report(&format!("distributed_2x3_{name}"), f64_bits(&out));
    }

    // The SBGEMV's pairwise tree and every tile remainder: 8×256 above
    // keeps each adjoint dot inside one base run and 256 is a multiple of
    // every tile and lane width. Here `N_d = 19 > 16` splits the adjoint
    // reduction (and leaves an odd row), `N_m = 51` splits the forward
    // one and ends every column tile in a partial register group, a lone
    // register and scalar columns — in f64 (`ddddd`) and with the f32
    // kernels on both sweeps (`ddssd`).
    matvec_shape("_19x51", (19, 51, 64), &["ddddd", "ddssd"]);

    // A non-power-of-two series: `N_t = 250` transforms length 500, whose
    // half plan 250 = 2·5³ opens with a radix-2 first stage over an odd
    // butterfly count (a vector body plus a scalar remainder) and runs
    // three table-driven radix-5 stages — the scalar stage body in its
    // FMA instantiation — in f64 (`ddddd`) and in f32 (`dssdd`); 251
    // mirror-pair bins leave the real unpack/repack a remainder too.
    matvec_shape("_nt250", (6, 10, 250), &["ddddd", "dssdd"]);

    // Small blocks: the SBGEMV runs lanes-across-frequencies straight on
    // the transforms' spectra, with no pass between them (`ddddd`), a
    // cast after the kernel (`dssdd`: f32 kernel, f64 IFFT) or before it
    // (`ddssd`). 257 frequencies are two tiles and a masked
    // one-frequency register. Every line in this gate — these included —
    // was first produced by the per-frequency-block path (`sbgemv`
    // between casting reorders) and none moved when every operator went
    // frequency-minor.
    matvec_shape("_4x4", (4, 4, 256), &["ddddd", "dssdd", "ddssd"]);
    matvec_shape("_2x16", (2, 16, 64), &["ddddd", "dssdd", "ddssd"]);

    // The `longseries_dd` shape: transforms of length 8192, in f64
    // (`ddddd`: each side's four series are one lane group, whose
    // 4096-point half plan runs stage by stage) and with f32 transforms
    // (`dssdd`: four series are narrower than an f32 group, so each runs
    // on its own, two radix-16 passes between two radix-4 stages).
    matvec_shape("_4x4x4096", (4, 4, 4096), &["ddddd", "dssdd"]);

    // The longest transforms the series-in-lanes path takes: length
    // 16 384 (`N_t = 8192`), four series to a side, so each side's
    // transforms are one `f64` lane group.
    matvec_shape("_4x4x8192", (4, 4, 8192), &["ddddd"]);

    // A Bluestein length: `N_t = 97` is a prime above `MAX_RADIX`, so the
    // half plan is a chirp-z transform over an inner power of two (256),
    // and the padded forward and unpadded inverse gather into and store
    // from scratch around it — in f64 (`ddddd`) and with f32 transforms
    // (`dssdd`).
    matvec_shape("_nt97", (2, 3, 97), &["ddddd", "dssdd"]);

    // Batches the panels split: 16 serve-shape columns (16 · 1 152
    // elements read and written, past the pool threshold) and a ragged 13
    // columns of the remainder shape, whose last panel is narrower than a
    // register panel.
    matvec_many("_2x16", 16, (2, 16, 64), &["ddddd", "dssdd", "ddssd"]);
    matvec_many("_19x51", 13, (19, 51, 64), &["ddddd", "ddssd"]);

    // The small-block batch past the pool threshold: 16 columns of
    // 2 048 elements, the pooled twin of `matvec_many_4x4_*`.
    matvec_many("_4x4", 16, (4, 4, 256), &["ddddd", "dssdd", "ddssd"]);

    // Pad tiers and unpad routes other than double: the first pass reads
    // a series rounded through a bf16 / f16 / f32 pad tier and the last
    // pass stores through an f16 / bf16 / f32 route, in 16-bit and in
    // native transform tiers (`bhsdh`: pad b into an f16 forward, route h
    // out of an f64 inverse; `hbssb`: pad h into bf16, route b out of
    // f32; `sdhhb`: pad s into f64, route b out of f16; `sbsds`: pad s
    // into bf16, route s out of f64). At `N_t = 64` the half plans are
    // powers of two; at `N_t = 250` the inverse's last pass is radix 5.
    let tiers = ["bhsdh", "hbssb", "sdhhb", "sbsds"];
    matvec_shape("_3x5", (3, 5, 64), &tiers);
    matvec_shape("_3x5_nt250", (3, 5, 250), &tiers);
}

/// The second spectral pipeline, in three shapes, each in all-double and
/// in configurations whose transform tiers differ from the pointwise
/// multiply's:
///
/// * `full`: a rectangular two-level operator (odd-radix circulant
///   extents 56 × 70, head boxes that differ by direction) in a
///   configuration whose Fft / Sbgemv / Ifft tiers all differ (so every
///   phase-boundary cast buffer is live). Six columns of 960 elements in
///   and 960 out stay under the batched-apply parallel threshold, sixteen
///   cross it. The `full` in the labels is historical (there was a second
///   construction path); they are kept so digests diff line for line
///   across commits.
/// * `pow2`: a rectangular two-level operator on power-of-two extents
///   128 × 64, whose outer axis runs with the series in the lanes: 33
///   series (a remainder group in either lane width), and heads of 88 and
///   40 rows, on both sides of half the axis. Fft and Ifft in `f32` too.
/// * `3level`: a three-level embedding on extents 8 × 16 × 32, whose
///   middle axis transforms its columns in several blocks.
/// * `rows`: a square two-level operator on extents 26 × 64 whose inner
///   head, 32, is exactly half of its power-of-two axis: the innermost
///   R2C / C2R run with the rows in the lanes, and its 13 rows leave a
///   remainder group in either lane width. `hsdsh` pads and unpads
///   through `f16` around `f32` transforms.
fn toeplitz_workloads() {
    let full = toeplitz_generator(&[(32, 24), (30, 40)], 41);
    for config in ["ddddd", "dhsdd"] {
        let cfg: PrecisionConfig = config.parse().expect("valid config literal");
        let op = TwoLevelToeplitz::builder(full.clone()).precision(cfg).build().expect("CPU build");
        toeplitz_digests(&op, "full", config, &[(6, ""), (16, "16")]);
    }
    let pow2 = toeplitz_generator(&[(40, 88), (30, 35)], 61);
    for config in ["ddddd", "dsdsd"] {
        let cfg: PrecisionConfig = config.parse().expect("valid config literal");
        let op = TwoLevelToeplitz::builder(pow2.clone()).precision(cfg).build().expect("CPU build");
        toeplitz_digests(&op, "pow2", config, &[(6, "")]);
    }
    let levels3 = toeplitz_generator(&[(5, 4), (9, 8), (17, 16)], 67);
    let op = NdCirculantEmbedding::builder(levels3).build().expect("CPU build");
    toeplitz_digests(&op, "3level", "ddddd", &[(6, "")]);
    let rows = toeplitz_generator(&[(13, 13), (32, 32)], 71);
    for config in ["ddddd", "dsdsd", "hsdsh"] {
        let cfg: PrecisionConfig = config.parse().expect("valid config literal");
        let op = TwoLevelToeplitz::builder(rows.clone()).precision(cfg).build().expect("CPU build");
        toeplitz_digests(&op, "rows", config, &[(6, "")]);
    }
}

/// A Toeplitz generator over `levels` (`(rows, cols)` each) with uniform
/// random diagonals from `seed` and the main diagonal lifted by 4.
fn toeplitz_generator(levels: &[(usize, usize)], seed: u64) -> ToeplitzGenerator {
    let extents: Vec<usize> = levels.iter().map(|&(r, c)| r + c - 1).collect();
    let mut diags = vec![0.0; extents.iter().product()];
    SplitMix64::new(seed).fill_uniform(&mut diags, -1.0, 1.0);
    let main = levels.iter().zip(&extents).fold(0, |at, (&(_, c), &e)| at * e + c - 1);
    diags[main] += 4.0;
    ToeplitzGenerator::new(levels, diags).expect("valid generator")
}

/// F and F\* of one Toeplitz operator, solo (digest names
/// `toeplitz_{label}_{config}_…`) and as an `apply_many_into` of each
/// `(cols, tag)` in `many` (`toeplitz_many{tag}_{label}_{config}_…`).
fn toeplitz_digests(op: &impl LinearOperator, label: &str, config: &str, many: &[(usize, &str)]) {
    for (dir, d) in [(OpDirection::Forward, "forward"), (OpDirection::Adjoint, "adjoint")] {
        let (in_len, out_len) = op.shape().io_lens(dir);
        let input = stuffed_vector(in_len, 43);
        let mut out = vec![0.0; out_len];
        op.apply_into(dir, &input, &mut out).expect("valid shapes");
        report(&format!("toeplitz_{label}_{config}_{d}"), f64_bits(&out));

        for &(cols, tag) in many {
            let inputs = stuffed_vector(in_len * cols, 47);
            let mut outs = vec![0.0; out_len * cols];
            op.apply_many_into(dir, &inputs, &mut outs).expect("valid shapes");
            report(&format!("toeplitz_many{tag}_{label}_{config}_{d}"), f64_bits(&outs));
        }
    }
}

fn fft_workloads() {
    // Batched complex FFT above the parallel threshold.
    let (n, batch) = (2048usize, 64usize);
    let mut rng = SplitMix64::new(23);
    let data: Vec<Complex<f64>> = (0..n * batch)
        .map(|_| Complex::new(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
        .collect();
    let bf = BatchedFft::<f64>::new(n);
    let freq = bf.forward_batch_vec(&data);
    let mut h = Fnv1a::new();
    for c in &freq {
        h.write_u64(c.re.to_bits());
        h.write_u64(c.im.to_bits());
    }
    report("fft_batched_forward", h.finish());

    // Batched real transform (the pipeline's phase-2/4 shape).
    let (n, batch) = (2000usize, 40usize);
    let mut rng = SplitMix64::new(29);
    let signal: Vec<f64> = (0..n * batch).map(|_| rng.uniform(-1.0, 1.0)).collect();
    let rf = BatchedRealFft::<f64>::new(n);
    let mut spec = vec![Complex::<f64>::zero(); batch * rf.spectrum_len()];
    rf.forward_batch(&signal, &mut spec);
    let mut back = vec![0.0; n * batch];
    rf.inverse_batch(&spec, &mut back);
    let mut h = Fnv1a::new();
    for c in &spec {
        h.write_u64(c.re.to_bits());
        h.write_u64(c.im.to_bits());
    }
    h.write_f64_bits(&back);
    report("fft_real_roundtrip", h.finish());

    // Batched complex transforms at lengths the radix-16 passes change:
    // 1024 = 4 · 16 · 16 and 4096 = 4 · 16 · 16 · 4.
    for n in [1024usize, 4096] {
        batched_complex::<f32>(n, "f32");
        batched_complex::<f64>(n, "f64");
    }

    // The apply's padded R2C and unpadded C2R straight from and into TOSI
    // matrices, at `N_t = 64` and at `longseries_dd`'s 4096: a width of 3
    // runs per series, 16 runs two f32 / four f64 groups with the series
    // in the register lanes, and 257 runs 32 / 64 groups plus a one-series
    // remainder through the staging block. The portable leg never takes
    // the lanes path.
    for nt in [64usize, 4096] {
        for width in [3usize, 16, 257] {
            batched_padded::<f32>(nt, width, "f32");
            batched_padded::<f64>(nt, width, "f64");
        }
    }
}

/// `BatchedRealFft::forward_padded` of `width` series of `nt` samples in
/// precision `T` (pad tier double), then `inverse_unpadded` of its
/// spectra (unpad tier single), digest names
/// `fft_padded_<nt>x<width>_<label>_{forward,inverse}`.
fn batched_padded<T: Real>(nt: usize, width: usize, label: &str) {
    let rf = BatchedRealFft::<T>::new(2 * nt);
    let x = stuffed_vector(nt * width, 59 + width as u64);
    let mut spec = vec![Complex::<T>::zero(); width * rf.spectrum_len()];
    rf.forward_padded(&x, width, Precision::Double, &mut spec);
    let mut h = Fnv1a::new();
    for c in &spec {
        h.write_u64(c.re.to_f64().to_bits());
        h.write_u64(c.im.to_f64().to_bits());
    }
    report(&format!("fft_padded_{nt}x{width}_{label}_forward"), h.finish());
    let mut y = vec![0.0; nt * width];
    rf.inverse_unpadded(&spec, Precision::Single, &mut y);
    report(&format!("fft_padded_{nt}x{width}_{label}_inverse"), f64_bits(&y));
}

/// Eight complex transforms of length `n` in precision `T`, both
/// directions, digest names `fft_batched_<n>_<label>_<direction>`.
/// Widening to `f64` is exact and injective, so the digest is of bits.
fn batched_complex<T: Real>(n: usize, label: &str) {
    let batch = 8;
    let mut rng = SplitMix64::new(53 + n as u64);
    let data: Vec<Complex<T>> = (0..n * batch)
        .map(|_| {
            Complex::new(T::from_f64(rng.uniform(-1.0, 1.0)), T::from_f64(rng.uniform(-1.0, 1.0)))
        })
        .collect();
    let bf = BatchedFft::<T>::new(n);
    for (out, d) in
        [(bf.forward_batch_vec(&data), "forward"), (bf.inverse_batch_vec(&data), "inverse")]
    {
        let mut h = Fnv1a::new();
        for c in &out {
            h.write_u64(c.re.to_f64().to_bits());
            h.write_u64(c.im.to_f64().to_bits());
        }
        report(&format!("fft_batched_{n}_{label}_{d}"), h.finish());
    }
}

fn reduce_workload() {
    // Distributed phase-5 reduction shape: 12 ranks × 5000 elements,
    // magnitudes spread so association drift would flip bits.
    let (parts, len) = (12usize, 5000usize);
    let mut rng = SplitMix64::new(31);
    let mut flat: Vec<f64> = Vec::with_capacity(parts * len);
    for r in 0..parts {
        let mag = 10f64.powi((r % 9) as i32 - 4);
        for _ in 0..len {
            flat.push(rng.uniform(-1.0, 1.0) * mag);
        }
    }
    tree_reduce_sum_in_place(&mut flat, len);
    report("tree_reduce_in_place", f64_bits(&flat[..len]));
}

fn run_child() {
    println!(
        "THREADS {} SIMD {}",
        rayon::current_num_threads(),
        fftmatvec_numeric::simd::active_level().name()
    );
    matvec_workloads();
    toeplitz_workloads();
    fft_workloads();
    reduce_workload();
}

/// Digest lines only — the `THREADS` banner legitimately differs.
fn digest_lines(stdout: &str) -> Vec<&str> {
    stdout.lines().filter(|l| l.starts_with("DIGEST ")).collect()
}

fn main() {
    if std::env::var(CHILD_ENV).is_ok() {
        run_child();
        return;
    }

    let args = Args::from_env();
    let spec: String = args.get("threads", "1,2,8".to_string());
    let counts: Vec<usize> =
        spec.split(',').map(|t| t.trim().parse().expect("thread count list")).collect();
    assert!(counts.len() >= 2, "need at least two thread counts to compare");

    println!(
        "Determinism gate: byte-identical outputs at RAYON_NUM_THREADS = {spec}, \
         with SIMD dispatch forced portable, and through the simulated device backend"
    );
    let mut reports: Vec<(String, String)> = counts
        .iter()
        .map(|&n| (format!("{n}t"), respawn::child_stdout(CHILD_ENV, n, false)))
        .collect();

    // Lane-width leg: the runtime-dispatched vector kernels must not
    // change a single output bit, so one more child re-runs the widest
    // thread count with `FFTMATVEC_SIMD=portable` (children inherit the
    // parent's environment) and its digests join the same comparison.
    let wide = *counts.last().expect("non-empty thread count list");
    std::env::set_var("FFTMATVEC_SIMD", "portable");
    reports.push((format!("{wide}t-portable-simd"), respawn::child_stdout(CHILD_ENV, wide, false)));
    std::env::remove_var("FFTMATVEC_SIMD");

    // Backend leg: the simulated device is the CPU pool plus a modeled
    // clock, so routing every pipeline primitive through it must not
    // change a single output bit. One more child runs the widest thread
    // count with `FFTMATVEC_BACKEND=simulated` (the builders in the
    // workloads never pass an explicit backend, so the env override is
    // what selects it) and its digests join the same comparison.
    std::env::set_var(fftmatvec_backend::BACKEND_ENV, "simulated");
    reports.push((format!("{wide}t-simulated"), respawn::child_stdout(CHILD_ENV, wide, false)));
    std::env::remove_var(fftmatvec_backend::BACKEND_ENV);

    let (base_label, base) = &reports[0];
    let base_digests = digest_lines(base);
    assert!(!base_digests.is_empty(), "child produced no digests");
    for line in &base_digests {
        println!("  [{base_label}] {line}");
    }

    let mut failures = Vec::new();
    for (label, text) in &reports[1..] {
        let digests = digest_lines(text);
        if digests.len() != base_digests.len() {
            failures.push(format!(
                "{label}: {} digests vs {} at {base_label}",
                digests.len(),
                base_digests.len()
            ));
            continue;
        }
        for (a, b) in base_digests.iter().zip(&digests) {
            if a != b {
                failures.push(format!("{base_label} `{a}` vs {label} `{b}`"));
            }
        }
    }

    if failures.is_empty() {
        println!(
            "determinism gate: OK ({} workloads byte-identical across {} legs)",
            base_digests.len(),
            reports.len()
        );
    } else {
        eprintln!("determinism gate FAILED:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
