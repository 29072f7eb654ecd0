//! Shared harness for the figure-regeneration and CI gate binaries.
//!
//! Two families of binaries live in `src/bin`:
//!
//! * **Figure binaries** (`fig*`, `fft_matvec`, `pareto_sweep`,
//!   `error_bound`): *timings* come from the GPU cost model evaluated at
//!   the paper's problem shape; *errors* come from real mixed-precision
//!   arithmetic, run at a memory-scaled shape with the same structure
//!   (mantissa-stuffed inputs, identical grid shapes). Each prints the
//!   rows/series of its figure plus the paper's reference values.
//! * **Gate binaries** (`bench_fft`, `bench_matvec`, `bench_simd`,
//!   `bench_service`, `bench_autotune`, `bench_toeplitz`,
//!   `bench_backend`): each measures rows with [`timing`], builds them
//!   through its [`record::Schema`] table and hands them to
//!   [`record::finish`], which owns `-out` / `-check` / `-tol`, the
//!   regression gate and the exit code. One record format, one gate, one
//!   runner; a binary keeps only its measurement code.
//!
//! `bench_speedup` and `determinism_gate` compare a process against
//! re-executed copies of itself ([`respawn`], [`digest`]) and write no
//! document.

pub mod record;

use fftmatvec_core::pareto::error_sweep;
use fftmatvec_core::{BlockToeplitzOperator, FftMatvec, OpDirection, PrecisionConfig};
use fftmatvec_numeric::SplitMix64;

/// Report an unusable command line or input file and exit 2 (gate
/// failures exit 1).
pub fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// Tiny `-flag value` CLI parser (mirrors the artifact's `-nm 5000 -nd 100
/// -Nt 1000 -prec dssdd` interface).
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    pub fn from_env() -> Self {
        Args { raw: std::env::args().skip(1).collect() }
    }

    /// Value of `-name <v>`, parsed; `Ok(None)` when the flag is absent.
    /// A flag that is present but has no value, or a value that does not
    /// parse, is an error naming both — a typo must not silently run a
    /// gate at its default.
    pub fn try_get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let flag = format!("-{name}");
        let Some(i) = self.raw.iter().position(|a| a.eq_ignore_ascii_case(&flag)) else {
            return Ok(None);
        };
        let value = self.raw.get(i + 1).ok_or(format!("flag {flag} is missing its value"))?;
        value.parse().map(Some).map_err(|_| format!("flag {flag}: cannot parse value '{value}'"))
    }

    /// Value of `-name <v>`, or the default when the flag is absent;
    /// exits non-zero on a missing or malformed value (see
    /// [`Args::try_get`]).
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.try_get(name).unwrap_or_else(|e| die(e)).unwrap_or(default)
    }

    /// Is `-name` present (boolean flag)?
    pub fn has(&self, name: &str) -> bool {
        let flag = format!("-{name}");
        self.raw.iter().any(|a| a.eq_ignore_ascii_case(&flag))
    }
}

/// Build a random block-Toeplitz operator. Entries are *positive*
/// uniforms, matching the artifact's initialization path
/// (`curandGenerateUniformDouble` produces values in (0, 1]); positive
/// data means the frequency-domain reductions have no sign cancellation,
/// which is a precondition for the ≲1e-7 mixed-precision errors the paper
/// reports at `N_m = 5000`.
pub fn make_operator(nd: usize, nm: usize, nt: usize, seed: u64) -> BlockToeplitzOperator {
    let mut rng = SplitMix64::new(seed);
    let mut col = vec![0.0; nt * nd * nm];
    rng.fill_uniform(&mut col, 0.0, 1.0);
    BlockToeplitzOperator::from_first_block_column(nd, nm, nt, &col).expect("valid operator dims")
}

/// A mantissa-stuffed positive input vector (the §4.2.1 generator applied
/// to cuRAND-style (0,1] uniforms, so single-precision phases provably
/// incur error without introducing sign cancellation the paper's
/// workloads don't have).
pub fn stuffed_vector(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    let mut v = vec![0.0; n];
    rng.fill_uniform_stuffed(&mut v, 0.0, 1.0);
    v
}

/// Measured relative errors of many configurations against the all-double
/// baseline, reusing one operator. Thin shape-aware wrapper over
/// [`fftmatvec_core::pareto::error_sweep`], which runs the same sweep
/// for any `ConfigurableOperator` realization in either direction.
pub fn measure_errors_dir(
    op: BlockToeplitzOperator,
    dir: OpDirection,
    configs: &[PrecisionConfig],
    seed: u64,
) -> Vec<f64> {
    let len = match dir {
        OpDirection::Forward => op.nm() * op.nt(),
        OpDirection::Adjoint => op.nd() * op.nt(),
    };
    let x = stuffed_vector(len, seed);
    let mut mv = FftMatvec::builder(op).build().expect("CPU build");
    error_sweep(&mut mv, dir, configs, &x).expect("sweep over a well-shaped input")
}

/// [`measure_errors_dir`] for the forward matvec.
pub fn measure_errors(
    op: BlockToeplitzOperator,
    configs: &[PrecisionConfig],
    seed: u64,
) -> Vec<f64> {
    measure_errors_dir(op, OpDirection::Forward, configs, seed)
}

/// The element-by-element transposing loop that `core::layout`'s pad /
/// reorder / unpad kernels were before they moved tiles — same arguments
/// and same result as `fftmatvec_numeric::ndindex::transpose_map`, which
/// replaced it: `dst[c·ld_dst + r] = f(src[r·ld_src + c])`, scattered one
/// element at a time at stride `ld_dst`. Kept here as `bench_simd`'s
/// oracle and denominator for the `layout_*` rows, the role
/// `fft::recursive` plays for `bench_fft`.
pub fn naive_transpose_map<A: Copy, B>(
    src: &[A],
    ld_src: usize,
    dst: &mut [B],
    ld_dst: usize,
    rows: usize,
    cols: usize,
    f: impl Fn(A) -> B,
) {
    for r in 0..rows {
        for c in 0..cols {
            dst[c * ld_dst + r] = f(src[r * ld_src + c]);
        }
    }
}

/// Format seconds as milliseconds with three decimals.
pub fn ms(t: f64) -> String {
    format!("{:.3}", t * 1e3)
}

/// Print a horizontal rule sized to a header line.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Shared micro-benchmark timing used by every gate binary
/// (`bench_fft`, `bench_matvec`, `bench_speedup`): batch calibration and
/// interleaved min-of-samples measurement.
pub mod timing {
    use std::time::Instant;

    /// Grow the batch size until one batch of `f` takes at least
    /// `sample_ms`.
    pub fn calibrate<F: FnMut()>(f: &mut F, sample_ms: f64) -> u64 {
        let mut iters = 1u64;
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            let elapsed_ms = t.elapsed().as_secs_f64() * 1e3;
            if elapsed_ms >= sample_ms || iters >= 1 << 22 {
                return iters;
            }
            let grow = (sample_ms / elapsed_ms.max(1e-6)).ceil() as u64;
            iters = iters.saturating_mul(grow.clamp(2, 16));
        }
    }

    /// One timed batch, in nanoseconds per call.
    pub fn time_batch<F: FnMut()>(f: &mut F, iters: u64) -> f64 {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        t.elapsed().as_secs_f64() * 1e9 / iters as f64
    }

    /// Minimum ns/call over `samples` batches. The minimum is the right
    /// statistic for a CPU microbenchmark gate: scheduler noise only ever
    /// adds time, so min-of-N converges to the true cost much faster than
    /// the median — which keeps CI checks stable on shared runners.
    pub fn min_ns<F: FnMut()>(mut f: F, samples: usize, sample_ms: f64) -> f64 {
        let iters = calibrate(&mut f, sample_ms);
        let mut best = f64::INFINITY;
        for _ in 0..samples.max(3) {
            best = best.min(time_batch(&mut f, iters));
        }
        best
    }

    /// Minimum ns/call for two routines, with their sample batches
    /// *interleaved* so both minima come from the same time windows —
    /// gates compare the a/b ratio, and interleaving cancels
    /// machine-state drift (frequency scaling, background load) that
    /// sequential measurement would bake into it.
    pub fn time_pair_ns<A: FnMut(), B: FnMut()>(
        mut a: A,
        mut b: B,
        samples: usize,
        sample_ms: f64,
    ) -> (f64, f64) {
        let ia = calibrate(&mut a, sample_ms);
        let ib = calibrate(&mut b, sample_ms);
        let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..samples.max(3) {
            best_a = best_a.min(time_batch(&mut a, ia));
            best_b = best_b.min(time_batch(&mut b, ib));
        }
        (best_a, best_b)
    }
}

/// Self-re-exec helper shared by the gate binaries whose measurements
/// depend on `RAYON_NUM_THREADS`: the pool reads the variable once per
/// process, so changing it means running a fresh child process of the
/// same executable.
pub mod respawn {
    use std::process::Command;

    /// Re-run the current executable with `child_env=1` and
    /// `RAYON_NUM_THREADS=threads`, returning its stdout (echoed when
    /// `echo` is set). Parent CLI args are forwarded so flags like
    /// `-quick` reach the child. Panics with the child's stderr on a
    /// non-zero exit.
    pub fn child_stdout(child_env: &str, threads: usize, echo: bool) -> String {
        let exe = std::env::current_exe().expect("own executable path");
        let args: Vec<String> = std::env::args().skip(1).collect();
        let out = Command::new(exe)
            .args(&args)
            .env(child_env, "1")
            .env("RAYON_NUM_THREADS", threads.to_string())
            .output()
            .expect("spawning gate child process");
        assert!(
            out.status.success(),
            "gate child at {threads} threads failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        if echo {
            print!("{text}");
        }
        text
    }
}

/// Order-sensitive FNV-1a digest over f64 bit patterns — the statistic
/// the determinism CI gate compares across `RAYON_NUM_THREADS` settings.
/// Any single-bit difference in any element, or any reordering, changes
/// the digest.
pub mod digest {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Running FNV-1a 64 hasher.
    #[derive(Clone)]
    pub struct Fnv1a(u64);

    impl Fnv1a {
        #[allow(clippy::new_without_default)]
        pub fn new() -> Fnv1a {
            Fnv1a(FNV_OFFSET)
        }

        pub fn write_u64(&mut self, x: u64) {
            for byte in x.to_le_bytes() {
                self.0 ^= byte as u64;
                self.0 = self.0.wrapping_mul(FNV_PRIME);
            }
        }

        pub fn write_f64_bits(&mut self, xs: &[f64]) {
            for &x in xs {
                self.write_u64(x.to_bits());
            }
        }

        pub fn finish(&self) -> u64 {
            self.0
        }
    }

    /// One-shot digest of a f64 buffer's exact bits.
    pub fn f64_bits(xs: &[f64]) -> u64 {
        let mut h = Fnv1a::new();
        h.write_f64_bits(xs);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Bar, Better, Record, Schema, Stat};

    #[test]
    fn operator_builder() {
        let op = make_operator(3, 5, 4, 1);
        assert_eq!((op.nd(), op.nm(), op.nt()), (3, 5, 4));
    }

    #[test]
    fn stuffed_vectors_lose_bits_in_f32() {
        let v = stuffed_vector(100, 2);
        assert!(v.iter().all(|&x| (x as f32 as f64 - x).abs() > 0.0));
    }

    #[test]
    fn error_measurement_baseline_is_zero() {
        let op = make_operator(2, 6, 8, 3);
        let errs = measure_errors(op, &[PrecisionConfig::all_double()], 4);
        assert_eq!(errs[0], 0.0);
    }

    #[test]
    fn ms_formatting() {
        assert_eq!(ms(0.00125), "1.250");
    }

    #[test]
    fn digest_is_order_and_bit_sensitive() {
        use crate::digest;
        let a = digest::f64_bits(&[1.0, 2.0, 3.0]);
        assert_eq!(a, digest::f64_bits(&[1.0, 2.0, 3.0]), "digest must be deterministic");
        assert_ne!(a, digest::f64_bits(&[1.0, 3.0, 2.0]), "order must matter");
        // One-ulp difference must change the digest.
        let tweaked = f64::from_bits(3.0f64.to_bits() + 1);
        assert_ne!(a, digest::f64_bits(&[1.0, 2.0, tweaked]));
        // Signed zero is a distinct bit pattern.
        assert_ne!(digest::f64_bits(&[0.0]), digest::f64_bits(&[-0.0]));
    }

    #[test]
    fn timing_measures_something_positive() {
        use crate::timing;
        let mut x = 0u64;
        let ns = timing::min_ns(
            || {
                x = x.wrapping_add(std::hint::black_box(1));
            },
            3,
            0.05,
        );
        assert!(ns.is_finite() && ns >= 0.0);
        let (a, b) = timing::time_pair_ns(|| (), || (), 3, 0.05);
        assert!(a.is_finite() && b.is_finite());
    }

    fn args(raw: &[&str]) -> Args {
        Args { raw: raw.iter().map(|s| s.to_string()).collect() }
    }

    #[test]
    fn args_absent_flag_takes_default_and_present_flag_parses() {
        let a = args(&["-quick", "-TOL", "1.5", "-out", "x.json"]);
        assert_eq!(a.get("tol", 1.25), 1.5, "flags are case-insensitive");
        assert_eq!(a.get("out", String::new()), "x.json");
        assert_eq!(a.get("check", String::new()), "", "absent flag -> default");
        assert_eq!(a.try_get::<f64>("check"), Ok(None));
        assert!(a.has("quick") && !a.has("full"));
    }

    #[test]
    fn args_malformed_or_missing_value_is_an_error_naming_flag_and_value() {
        for bad in ["1,25", "abc", ""] {
            let err = args(&["-tol", bad]).try_get::<f64>("tol").unwrap_err();
            assert!(err.contains("-tol") && err.contains(&format!("'{bad}'")), "{err}");
        }
        let err = args(&["-quick", "-tol"]).try_get::<f64>("tol").unwrap_err();
        assert!(err.contains("-tol") && err.contains("missing"), "{err}");
    }

    /// One schema's inputs to the shared [`suite`].
    struct Case {
        schema: &'static Schema,
        /// The rows of gated entry `#0` or `#1` (distinct keys), measured
        /// so that the entry's statistic is `a / b`.
        make: fn(usize, f64, f64) -> Vec<Record>,
        /// A cell `format_document` must show for `make(0, 4000, 1000)`.
        shows: &'static str,
        /// The schema's absolute bars, each with a document whose barred
        /// quantity is `x` in exactly one row.
        bars: Vec<(&'static Bar, BarDoc)>,
    }
    type BarDoc = fn(f64) -> Vec<Record>;

    fn cases() -> [Case; 7] {
        use crate::record::*;
        [
            Case {
                schema: &FFT,
                make: fft_rows,
                shows: "{\"size\": 1024, \"series\": 1, \"transform\": \"c2c\", \
                        \"precision\": \"f64\", \"engine\": \"iterative\", \"threads\": 4, \
                        \"ns_per_transform\": 4000.0},",
                bars: vec![],
            },
            Case {
                schema: &MATVEC,
                make: matvec_rows,
                shows: "\"direction\": \"forward\", \"path\": \"into\", \"threads\": 1, \
                        \"ns_per_apply\": 4000.0}",
                bars: vec![(&MATVEC_INTO_NO_SLOWER, |x| matvec_rows(0, 1000.0 * x, 1000.0))],
            },
            Case {
                schema: &SIMD,
                make: simd_rows,
                shows: "\"level\": \"avx2\", \"portable_ns\": 4000.0, \"simd_ns\": 1000.0, \
                        \"speedup\": 4.000}",
                bars: vec![
                    (&SIMD_FLOOR, |x| simd_rows(0, 1000.0 * x, 1000.0)),
                    (&SIMD_FFT_FLOOR, |x| simd_rows(1, 1000.0 * x, 1000.0)),
                ],
            },
            Case {
                schema: &SERVICE,
                make: |e, a, b| service_rows(["8x64x256", "4x32x128"][e], a, b, 18.0),
                shows: "\"mode\": \"coalesced\", \"max_batch\": 32, \"threads\": 8, \
                        \"offered_rps\": 6000.0, \"throughput_rps\": 4000.0, \"p50_us\": 800.0, \
                        \"p99_us\": 2500.0, \"mean_batch\": 18.00, \"completed\": 400, \
                        \"rejected\": 12},",
                bars: vec![
                    (&SERVICE_SATURATION, |x| service_rows("8x64x256", 1000.0 * x, 1000.0, 18.0)),
                    (&SERVICE_OCCUPANCY, |x| service_rows("8x64x256", 5400.0, 2700.0, 32.0 * x)),
                ],
            },
            Case {
                schema: &AUTOTUNE,
                make: |e, a, b| vec![autotune_row(e, 1.019e-7, a, b)],
                shows: "\"budget\": 1e-3, \"config\": \"sssdd\", \"bound\": 1.864e-5, \
                        \"measured_error\": 1.019e-7, \"double_ns\": 4000.0, \
                        \"tuned_ns\": 1000.0, \"speedup\": 4.000}",
                bars: vec![
                    (&AUTOTUNE_PROMISE, |x| vec![autotune_row(0, 1e-3 * x, 1000.0, 900.0)]),
                    (&AUTOTUNE_NO_SLOWER, |x| vec![autotune_row(0, 1e-7, 1000.0, 1000.0 * x)]),
                ],
            },
            Case {
                schema: &TOEPLITZ,
                make: |e, a, b| vec![toeplitz_row(e, a, b, 900.0)],
                shows: "\"full_ns\": 1000.0, \"dense_ns\": 4000.0, \"real_fftn_ns\": 300.0, \
                        \"complex_fftn_ns\": 900.0, \"full_peak_bytes\": 32768, \
                        \"full_speedup\": 4.000, \"real_nd_speedup\": 3.000}",
                bars: vec![(&REAL_ND_FLOOR, |x| vec![toeplitz_row(0, 8000.0, 1000.0, 300.0 * x)])],
            },
            Case {
                schema: &BACKEND,
                make: backend_rows,
                shows: "\"direct_ns\": 1000.0, \"trait_ns\": 4000.0, \"overhead\": 4.0000}",
                bars: vec![(&BACKEND_CEILING, |x| backend_rows(0, 1000.0 * x, 1000.0))],
            },
        ]
    }

    /// Entry 0 is a complex transform (`iterative/recursive`), entry 1 a
    /// batched padded R2C (`lanes/per_series`): one schema, two role pairs.
    fn fft_rows(entry: usize, num: f64, den: f64) -> Vec<Record> {
        let (size, series, transform, roles) = [
            (1024.0, 1.0, "c2c", ["iterative", "recursive"]),
            (128.0, 16.0, "r2c_padded", ["lanes", "per_series"]),
        ][entry];
        vec![
            record::FFT.row(&[transform, "f64", roles[0]], &[size, series, 4.0, num]),
            record::FFT.row(&[transform, "f64", roles[1]], &[size, series, 4.0, den]),
        ]
    }

    fn matvec_rows(entry: usize, into: f64, alloc: f64) -> Vec<Record> {
        let shape = ["4x250x100", "8x64x64"][entry];
        vec![
            record::MATVEC.row(&[shape, "dssdd", "forward", "alloc"], &[1.0, alloc]),
            record::MATVEC.row(&[shape, "dssdd", "forward", "into"], &[1.0, into]),
        ]
    }

    fn simd_rows(entry: usize, portable_ns: f64, simd_ns: f64) -> Vec<Record> {
        let kernel = ["convert_widen", "fft_forward"][entry];
        vec![record::SIMD.row(&[kernel, "f16", "avx2"], &[portable_ns, simd_ns])]
    }

    fn backend_rows(entry: usize, trait_ns: f64, direct_ns: f64) -> Vec<Record> {
        let primitive = ["fft_forward", "cast_real"][entry];
        vec![record::BACKEND.row(&[primitive, "f64"], &[direct_ns, trait_ns])]
    }

    fn service_rows(shape: &str, coalesced: f64, batch1: f64, occupancy: f64) -> Vec<Record> {
        let row = |mode: &str, max_batch: f64, throughput: f64, mean_batch: f64| {
            record::SERVICE.row(
                &[shape, mode],
                &[max_batch, 8.0, 6000.0, throughput, 800.0, 2500.0, mean_batch, 400.0, 12.0],
            )
        };
        vec![row("coalesced", 32.0, coalesced, occupancy), row("batch1", 1.0, batch1, 1.0)]
    }

    fn autotune_row(entry: usize, measured: f64, double_ns: f64, tuned_ns: f64) -> Record {
        record::AUTOTUNE.row(
            &["4x128x128", ["forward", "adjoint"][entry], "sssdd"],
            &[1e-3, 1.864e-5, measured, double_ns, tuned_ns],
        )
    }

    fn toeplitz_row(entry: usize, dense_ns: f64, full_ns: f64, complex_ns: f64) -> Record {
        record::TOEPLITZ.row(
            &["16x16x16x16", ["forward", "adjoint"][entry]],
            &[full_ns, dense_ns, 300.0, complex_ns, 32768.0],
        )
    }

    /// The cases every schema must pass — the same verdicts the seven
    /// per-module tests used to assert one copy at a time.
    fn suite(c: &Case) {
        let (s, tol) = (c.schema, c.schema.tol);
        let lower = s.better == Better::Lower;
        // Two gated entries; entry #0's numerator is the one the cases move.
        let (a, b) = if lower { (900.0, 1000.0) } else { (4000.0, 1000.0) };
        let doc = |a0: f64, b0: f64| [(c.make)(0, a0, b0), (c.make)(1, a, b)].concat();
        let worse = |f: f64| if lower { doc(a * f, b) } else { doc(a / f, b) };
        let good = doc(a, b);
        let name = s.name;

        // Envelope, cell layout, and round-trip equality.
        let text = s.format_document("quick", &doc(4000.0, 1000.0));
        let envelope = format!(
            "{{\n  \"schema\": 1,\n  \"mode\": \"quick\",\n  \"unit\": \"{}\",\n  \
             \"results\": [\n    {{\"",
            s.unit
        );
        assert!(text.starts_with(&envelope) && text.ends_with("}\n  ]\n}\n"), "{name}: {text}");
        assert!(text.contains(c.shows), "{name}: {text}");
        assert_eq!(s.parse_document(&s.format_document("full", &good)), good, "{name}");
        assert_eq!(s.gated_count(&good), 2, "{name}");
        assert_eq!(s.gated_count(&[]), 0, "{name}");
        assert_eq!(s.statistic(&good, &s.key_of(&good[0])), Some(a / b), "{name}");

        // An identical run passes; so does a uniformly slower host (the
        // statistic is a same-session ratio).
        assert!(s.regressions(&good, &good, tol).is_empty(), "{name}");
        let slower = [(c.make)(0, 3.0 * a, 3.0 * b), (c.make)(1, 3.0 * a, 3.0 * b)].concat();
        assert!(s.regressions(&slower, &good, tol).is_empty(), "{name}");
        // Fading by less than the budget passes, by more fails — once.
        assert!(s.regressions(&worse(0.96 * tol), &good, tol).is_empty(), "{name}");
        let faded = s.regressions(&worse(1.04 * tol), &good, tol);
        assert_eq!(faded.len(), 1, "{name}: {faded:?}");
        // Improving never fails.
        assert!(s.regressions(&worse(0.5), &good, tol).is_empty(), "{name}");
        // A missing entry fails once; an empty run fails every entry.
        assert_eq!(s.regressions(&(c.make)(1, a, b), &good, tol).len(), 1, "{name}");
        assert_eq!(s.regressions(&[], &good, tol).len(), 2, "{name}");
        // A baseline without its reference rows gates nothing — and
        // gated_count exposes that so the runner can refuse it.
        if let Stat::Roles { field, pairs, .. } = s.stat {
            let num = |r: &&Record| pairs.iter().any(|&(num, _)| s.render(r, field) == num);
            let refless: Vec<Record> = good.iter().filter(num).cloned().collect();
            assert_eq!((refless.len(), s.gated_count(&refless)), (2, 0), "{name}");
            assert!(s.regressions(&[], &refless, tol).is_empty(), "{name}");
        }

        // Only a definite "within budget" passes: a non-finite statistic
        // on either side is one failure line, never a silent pass.
        let nan = f64::NAN;
        for (a0, b0) in [(nan, b), (a, nan), (0.0, 0.0), (a, 0.0), (f64::INFINITY, b)] {
            let odd = doc(a0, b0);
            let as_current = s.regressions(&odd, &good, tol);
            assert_eq!(as_current.len(), 1, "{name}: current {a0}/{b0}: {as_current:?}");
            let as_baseline = s.regressions(&good, &odd, tol);
            assert_eq!(as_baseline.len(), 1, "{name}: baseline {a0}/{b0}: {as_baseline:?}");
        }

        // Every absolute bar, on both sides and at NaN.
        for (bar, at) in &c.bars {
            let (ok, bad) = if bar.better == Better::Lower { (0.9, 1.1) } else { (1.1, 0.9) };
            let fails = |x: f64| s.threshold_failures(&at(x), bar).len();
            assert_eq!(fails(bar.bound * ok), 0, "{name} {}", bar.name);
            assert_eq!(fails(bar.bound * bad), 1, "{name} {}", bar.name);
            assert_eq!(fails(nan), 1, "{name} {}: NaN must fail", bar.name);
        }
    }

    // One `#[test]` per schema so a failure names it; the names predate
    // the shared suite (they are the tier-1 floor's ids).
    #[test]
    fn benchjson_roundtrip() {
        suite(&cases()[0]);
    }

    #[test]
    fn matvecjson_roundtrip_and_gates() {
        suite(&cases()[1]);
    }

    #[test]
    fn simdjson_roundtrip_and_gate() {
        suite(&cases()[2]);
    }

    #[test]
    fn servicejson_roundtrip_and_gates() {
        suite(&cases()[3]);
    }

    #[test]
    fn autotunejson_roundtrip_and_gates() {
        suite(&cases()[4]);
    }

    #[test]
    fn toeplitzjson_roundtrip_and_gates() {
        suite(&cases()[5]);
    }

    #[test]
    fn backendjson_roundtrip_and_gates() {
        suite(&cases()[6]);
    }

    /// The FFT gate's documented operating points, at its shipped 1.25.
    #[test]
    fn benchjson_regression_gate() {
        let (pair, fft) = (fft_rows, &record::FFT);
        // Baseline: iterative is 2x faster than recursive (cost 0.5).
        let base = pair(0, 1000.0, 2000.0);
        // A uniformly 3x slower machine still passes.
        assert!(fft.regressions(&pair(0, 3000.0, 6000.0), &base, 1.25).is_empty());
        // 20% relative slowdown of the iterative engine passes...
        assert!(fft.regressions(&pair(0, 1200.0, 2000.0), &base, 1.25).is_empty());
        // ...30% fails, even though the machine could be fast overall.
        let failures = fft.regressions(&pair(0, 650.0, 1000.0), &base, 1.25);
        assert_eq!(failures.len(), 1);
        assert!(
            failures[0].starts_with(
                "size=1024 series=1 transform=c2c precision=f64: iterative/recursive = 0.650"
            ),
            "{failures:?}"
        );
        // The batched rows gate lanes ÷ per-series the same way, by name.
        let base = pair(1, 500.0, 1000.0);
        assert!(fft.regressions(&pair(1, 600.0, 1000.0), &base, 1.25).is_empty());
        let failures = fft.regressions(&pair(1, 700.0, 1000.0), &base, 1.25);
        assert_eq!(failures.len(), 1);
        assert!(
            failures[0].starts_with(
                "size=128 series=16 transform=r2c_padded precision=f64: lanes/per_series = 0.700"
            ),
            "{failures:?}"
        );
    }

    /// Every committed baseline parses under its schema and re-formats
    /// byte-for-byte to the file — the documents did not change when the
    /// seven hand-written formatters became one table-driven one.
    #[test]
    fn committed_baselines_round_trip_byte_for_byte() {
        let committed = [
            ("baseline.json", (96, 48)),
            ("baseline_matvec.json", (24, 12)),
            ("baseline_simd.json", (34, 34)),
            ("baseline_service.json", (2, 1)),
            ("baseline_autotune.json", (4, 4)),
            ("baseline_toeplitz.json", (4, 4)),
            ("baseline_backend.json", (8, 8)),
        ];
        for (case, (path, want)) in cases().iter().zip(committed) {
            let schema = case.schema;
            let file = format!("{}/../../bench/{path}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&file).unwrap_or_else(|e| panic!("{file}: {e}"));
            let rows = schema.parse_document(&text);
            assert_eq!((rows.len(), schema.gated_count(&rows)), want, "{path}");
            let mode = if text.contains("\"mode\": \"quick\"") { "quick" } else { "full" };
            assert_eq!(schema.format_document(mode, &rows), text, "{path}");
            assert!(schema.regressions(&rows, &rows, 1.0).is_empty(), "{path} vs itself");
        }
    }
}
