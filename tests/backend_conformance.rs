//! Device-backend conformance suite, run against every registered
//! [`BackendKind`] — the contract of the PR that made `.backend(..)`
//! real:
//!
//! * every backend that executes serves **bit-identical** results to the
//!   CPU pool (the simulated device is the CPU pool plus a clock);
//! * the adjoint identity and typed-error contracts hold through the
//!   trait exactly as they do on the direct path;
//! * the CPU backend stays **zero-allocation** in the steady state when
//!   dispatched through `dyn DeviceBackend`;
//! * every backend's ledger counts one logical upload and one download
//!   per apply, for every operator family;
//! * the simulated device's modeled ledger **is** the closed-form cost
//!   model: `k` applies book exactly `k ×` the kernel's per-apply phase
//!   times, plus the host-link charge on the transfer edge;
//! * selecting an unknown backend is a typed build-time error, never a
//!   panic;
//! * selection precedence is builder > `FFTMATVEC_BACKEND` > default.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

use fftmatvec::backend::simulated::HOST_LINK_BYTES_PER_SEC;
use fftmatvec::backend::{BackendError, BackendKind, DeviceBackend, SimulatedDevice, BACKEND_ENV};
use fftmatvec::core::timing::{simulate_phases, MatvecDims};
use fftmatvec::core::{
    BlockToeplitzOperator, ConfigError, FftMatvec, LinearOperator, MatvecPhase, OpDirection,
    OpError, PrecisionConfig, SpectralKernel,
};
use fftmatvec::gpu::{dtype_for, DeviceSpec, KernelProfile, Phase, PhaseTimes};
use fftmatvec::numeric::SplitMix64;
use fftmatvec::toeplitz::{ToeplitzGenerator, TwoLevelToeplitz};

/// Counts allocations made by the current thread (same pattern as
/// `operator_conformance.rs`; thread-local so parallel tests in this
/// binary cannot perturb each other's counts).
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn thread_allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

const ND: usize = 3;
const NM: usize = 10;
const NT: usize = 8;

fn operator(seed: u64) -> BlockToeplitzOperator {
    let mut rng = SplitMix64::new(seed);
    let mut col = vec![0.0; NT * ND * NM];
    rng.fill_uniform(&mut col, -1.0, 1.0);
    BlockToeplitzOperator::from_first_block_column(ND, NM, NT, &col).unwrap()
}

fn pipeline(seed: u64, cfg: &str, backend: BackendKind) -> FftMatvec {
    FftMatvec::builder(operator(seed))
        .precision(cfg.parse().unwrap())
        .backend(backend)
        .build()
        .unwrap()
}

fn input(n: usize, seed: u64) -> Vec<f64> {
    let mut v = vec![0.0; n];
    SplitMix64::new(seed).fill_uniform(&mut v, -1.0, 1.0);
    v
}

/// Every executing backend must be bit-identical to the CPU pool, in
/// every precision configuration, both directions, including the batch
/// path.
#[test]
fn executing_backends_are_bit_identical_to_cpu_pool() {
    for cfg in ["ddddd", "dssdd", "hbsdd", "sssss"] {
        let cpu = pipeline(1, cfg, BackendKind::Cpu);
        let sim = pipeline(1, cfg, BackendKind::Simulated);
        let m = input(NM * NT, 2);
        let d = input(ND * NT, 3);
        assert_eq!(
            cpu.apply_forward(&m).unwrap(),
            sim.apply_forward(&m).unwrap(),
            "[{cfg}] forward"
        );
        assert_eq!(
            cpu.apply_adjoint(&d).unwrap(),
            sim.apply_adjoint(&d).unwrap(),
            "[{cfg}] adjoint"
        );
        let batch = input(4 * NM * NT, 5);
        let mut out_cpu = vec![0.0; 4 * ND * NT];
        let mut out_sim = vec![0.0; 4 * ND * NT];
        cpu.apply_forward_many_into(&batch, &mut out_cpu).unwrap();
        sim.apply_forward_many_into(&batch, &mut out_sim).unwrap();
        assert_eq!(out_cpu, out_sim, "[{cfg}] batch");
    }
}

/// The adjoint identity holds through the trait on every backend.
#[test]
fn adjoint_identity_holds_per_backend() {
    for kind in BackendKind::ALL {
        let mv = pipeline(7, "ddddd", kind);
        let m = input(NM * NT, 8);
        let d = input(ND * NT, 9);
        let fm = mv.apply_forward(&m).unwrap();
        let fsd = mv.apply_adjoint(&d).unwrap();
        let lhs: f64 = fm.iter().zip(&d).map(|(a, b)| a * b).sum();
        let rhs: f64 = m.iter().zip(&fsd).map(|(a, b)| a * b).sum();
        assert!(
            (lhs - rhs).abs() <= 1e-11 * lhs.abs().max(rhs.abs()).max(1.0),
            "{kind:?}: adjoint identity {lhs} vs {rhs}"
        );
        assert_eq!(mv.backend(), kind);
        assert_eq!(mv.device().kind(), kind);
    }
}

/// The CPU pool through `dyn DeviceBackend` keeps the zero-allocation
/// steady state the direct path had.
#[test]
fn cpu_backend_is_zero_alloc_when_warm() {
    for cfg in ["ddddd", "dssdd"] {
        let mv = pipeline(11, cfg, BackendKind::Cpu);
        let m = input(NM * NT, 12);
        let d = input(ND * NT, 13);
        let mut fwd = vec![0.0; ND * NT];
        let mut adj = vec![0.0; NM * NT];
        for _ in 0..3 {
            mv.apply_forward_into(&m, &mut fwd).unwrap();
            mv.apply_adjoint_into(&d, &mut adj).unwrap();
        }
        let before = thread_allocations();
        for _ in 0..10 {
            mv.apply_forward_into(&m, &mut fwd).unwrap();
            mv.apply_adjoint_into(&d, &mut adj).unwrap();
        }
        assert_eq!(
            thread_allocations() - before,
            0,
            "[{cfg}] allocations across 20 warmed-up applies via CpuPool"
        );
    }
}

/// The simulated device accounts exactly one logical upload (the pad
/// edge) and one download (the unpad edge) per pipeline pass, with the
/// right byte counts, and books modeled phase time.
#[test]
fn simulated_device_accounts_transfers_and_phases() {
    let mv = pipeline(17, "dssdd", BackendKind::Simulated);
    let device = mv.device().clone();
    let m = input(NM * NT, 18);
    let applies = 5u64;
    for _ in 0..applies {
        mv.apply_forward(&m).unwrap();
    }
    let stats = device.transfers();
    assert_eq!(stats.uploads, applies);
    assert_eq!(stats.downloads, applies);
    assert_eq!(stats.bytes_up, applies * (NM * NT * 8) as u64);
    assert_eq!(stats.bytes_down, applies * (ND * NT * 8) as u64);

    let times = device.modeled_times().expect("simulated device keeps a clock");
    assert!(times.get(Phase::Fft) > 0.0, "forward FFT time booked");
    assert!(times.get(Phase::Ifft) > 0.0, "inverse FFT time booked");
    assert!(times.get(Phase::Pad) > 0.0, "pad streaming booked");
    assert!(times.get(Phase::Comm) > 0.0, "host-link transfer time booked");

    device.reset_transfers();
    assert_eq!(device.transfers().uploads, 0);
    assert_eq!(device.modeled_times().unwrap().total(), 0.0);
}

/// The CPU backend's ledger also counts pipeline-edge crossings (logical
/// accounting only — no copies, no modeled clock).
#[test]
fn cpu_backend_keeps_a_transfer_ledger_but_no_clock() {
    let mv = pipeline(19, "ddddd", BackendKind::Cpu);
    let m = input(NM * NT, 20);
    mv.apply_forward(&m).unwrap();
    let stats = mv.device().transfers();
    assert_eq!(stats.uploads, 1);
    assert_eq!(stats.downloads, 1);
    assert!(mv.device().modeled_times().is_none());
}

/// The multi-level Toeplitz operators thread the same backend selection:
/// simulated stays bit-identical.
#[test]
fn toeplitz_backends_are_bit_identical_too() {
    for cfg in ["ddddd", "dssdd"] {
        let cpu = two_level(cfg, BackendKind::Cpu);
        let sim = two_level(cfg, BackendKind::Simulated);
        assert_eq!(sim.backend(), BackendKind::Simulated);
        let m = input(cpu.shape().cols, 29);
        assert_eq!(cpu.apply_forward(&m).unwrap(), sim.apply_forward(&m).unwrap(), "[{cfg}]");
        // The apply books the pointwise kernel's model, so Sbgemv
        // phase time accumulates.
        assert!(sim.device().modeled_times().unwrap().get(Phase::Sbgemv) > 0.0);
    }
}

fn two_level_gen() -> ToeplitzGenerator {
    let mut diags = vec![0.0; (3 + 4 - 1) * (5 + 3 - 1)];
    SplitMix64::new(43).fill_uniform(&mut diags, -1.0, 1.0);
    diags[(4 - 1) * (5 + 3 - 1) + (3 - 1)] += 4.0;
    ToeplitzGenerator::two_level((3, 4), (5, 3), diags).unwrap()
}

fn two_level(cfg: &str, backend: BackendKind) -> TwoLevelToeplitz {
    TwoLevelToeplitz::builder(two_level_gen())
        .precision(cfg.parse().unwrap())
        .backend(backend)
        .build()
        .unwrap()
}

/// Relative agreement up to the rounding of a `k`-term running sum.
fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= 1e-12 * want.abs()
}

/// The host↔device edge is booked by the shared pipeline step, so the
/// Toeplitz operators count it exactly like `FftMatvec` does — on every
/// backend, in both directions.
#[test]
fn toeplitz_applies_book_the_transfer_edge() {
    for backend in BackendKind::ALL {
        let op = two_level("ddddd", backend);
        let (rows, cols) = (op.shape().rows, op.shape().cols);
        let (x, y) = (input(cols, 47), input(rows, 53));
        let applies = 3u64;
        for _ in 0..applies {
            op.apply_forward(&x).unwrap();
            op.apply_adjoint(&y).unwrap();
        }
        let t = op.device().transfers();
        let tag = format!("[{backend:?}]");
        assert_eq!((t.uploads, t.downloads), (2 * applies, 2 * applies), "{tag} events");
        assert_eq!(t.bytes_up, applies * ((cols + rows) * 8) as u64, "{tag} bytes up");
        assert_eq!(t.bytes_down, applies * ((rows + cols) * 8) as u64, "{tag} bytes down");

        op.device().reset_transfers();
        op.apply_forward(&x).unwrap();
        let t = op.device().transfers();
        assert_eq!((t.uploads, t.downloads), (1, 1), "{tag} one forward apply");
        assert_eq!((t.bytes_up, t.bytes_down), ((cols * 8) as u64, (rows * 8) as u64), "{tag}");
    }
}

/// The ledger is the closed form. On every paper device the block-
/// triangular kernel's per-apply model, booked through the accounting
/// hook, equals `simulate_phases`; on the device the pipeline runs on,
/// `k` applies leave every compute phase at `k ×` that closed form
/// (bit-exact for one apply) and Comm at the host-link charge alone.
#[test]
fn simulated_ledger_is_the_closed_form() {
    let dims = MatvecDims::new(ND, NM, NT);
    for code in ["ddddd", "dssdd", "ddssd", "hbsdd"] {
        let cfg: PrecisionConfig = code.parse().unwrap();
        let mv = pipeline(41, code, BackendKind::Simulated);
        for dir in [OpDirection::Forward, OpDirection::Adjoint] {
            let adjoint = dir == OpDirection::Adjoint;
            for dev in SimulatedDevice::paper_lineup() {
                dev.record_apply(&|spec| mv.kernel().modeled_phases(cfg, dir, spec));
                assert_eq!(
                    dev.modeled(),
                    simulate_phases(dims, cfg, adjoint, dev.spec()),
                    "[{code} {dir}] {}",
                    dev.name()
                );
            }

            let spec = DeviceSpec::mi300x();
            assert_eq!(mv.device().name(), spec.name, "the registry's simulated device");
            let closed = simulate_phases(dims, cfg, adjoint, &spec);
            let (in_len, out_len) = mv.shape().io_lens(dir);
            let link = (spec.launch_latency + (in_len * 8) as f64 / HOST_LINK_BYTES_PER_SEC)
                + (spec.launch_latency + (out_len * 8) as f64 / HOST_LINK_BYTES_PER_SEC);
            let (x, mut y) = (input(in_len, 59), vec![0.0; out_len]);
            for k in [1usize, 5] {
                mv.device().reset_transfers();
                for _ in 0..k {
                    mv.apply_into(dir, &x, &mut y).unwrap();
                }
                let ledger = mv.device().modeled_times().unwrap();
                // Comm is the host link alone.
                let per_apply = |p| if p == Phase::Comm { link } else { closed.get(p) };
                for p in Phase::COMPUTE.into_iter().chain([Phase::Comm]) {
                    let (got, want) = (ledger.get(p), k as f64 * per_apply(p));
                    let ok = if k == 1 { got == want } else { close(got, want) };
                    assert!(ok, "[{code} {dir} k={k}] {}: {got} vs {want}", p.label());
                }
            }
        }
    }
}

/// A batch books one apply per column — transfers and modeled time —
/// however it is cut into panels: 32 columns and a ragged 13 (whose last
/// panel is narrower than the rest), on both sides of the pipeline's
/// sequential/parallel batch threshold (2¹⁴ `f64` elements read and
/// written: at `NT` both batches stay under it, and at `8·NT` the
/// 32-column batch, 32 × 832 elements, crosses it).
#[test]
fn batched_applies_book_one_apply_per_column() {
    for nt in [NT, 8 * NT] {
        let mut col = vec![0.0; nt * ND * NM];
        SplitMix64::new(61).fill_uniform(&mut col, -1.0, 1.0);
        let op = BlockToeplitzOperator::from_first_block_column(ND, NM, nt, &col).unwrap();
        let mv = FftMatvec::builder(op).backend(BackendKind::Simulated).build().unwrap();
        let (cols, rows) = (NM * nt, ND * nt);
        let closed = simulate_phases(
            MatvecDims::new(ND, NM, nt),
            PrecisionConfig::all_double(),
            false,
            &DeviceSpec::mi300x(),
        );
        for batch in [32usize, 13] {
            mv.device().reset_transfers();
            let xs = input(batch * cols, 67);
            let mut ys = vec![0.0; batch * rows];
            mv.apply_many_into(OpDirection::Forward, &xs, &mut ys).unwrap();

            let t = mv.device().transfers();
            let n = batch as u64;
            assert_eq!((t.uploads, t.downloads), (n, n), "nt={nt} batch={batch}");
            let bytes = ((batch * cols * 8) as u64, (batch * rows * 8) as u64);
            assert_eq!((t.bytes_up, t.bytes_down), bytes, "nt={nt} batch={batch}");
            let ledger = mv.device().modeled_times().unwrap();
            for p in Phase::COMPUTE {
                let (got, want) = (ledger.get(p), batch as f64 * closed.get(p));
                assert!(close(got, want), "nt={nt} batch={batch} {}: {got} vs {want}", p.label());
            }
        }
    }
}

/// The Toeplitz kernel books its own five-phase model: every compute
/// phase is charged, and the transform phases are the launches an apply
/// makes — one real-FFT launch over the head rows of the direction's
/// input (output, for the inverse) and one complex launch per outer axis
/// over the rows that pass transforms, never the whole circulant grid.
#[test]
fn toeplitz_ledger_books_five_phases_over_the_pruned_real_passes() {
    let spec = DeviceSpec::mi300x();
    for code in ["ddddd", "dssdd"] {
        let cfg: PrecisionConfig = code.parse().unwrap();
        for dir in [OpDirection::Forward, OpDirection::Adjoint] {
            let op = two_level(code, BackendKind::Simulated);
            let (in_len, out_len) = op.shape().io_lens(dir);
            op.apply_into(dir, &input(in_len, 71), &mut vec![0.0; out_len]).unwrap();
            let ledger: PhaseTimes = op.device().modeled_times().unwrap();
            for p in Phase::COMPUTE {
                assert!(ledger.get(p) > 0.0, "[{code} {dir}] {} booked", p.label());
            }

            // Levels (3, 4) and (5, 3): m = [6, 8], h = 5. The outer axis
            // always runs over all h rows of the half spectrum; the inner
            // one over the outer level's input (output) extent.
            let outer = op.generator().levels()[0];
            let (head_in, head_out) = match dir {
                OpDirection::Forward => (outer.cols, outer.rows),
                OpDirection::Adjoint => (outer.rows, outer.cols),
            };
            let pass = |phase, head| -> f64 {
                let p = cfg.phase(phase);
                KernelProfile::real_fft("inner", p, 8, head).estimate_time(&spec)
                    + KernelProfile::fft("outer", dtype_for(true, p), 6, 5).estimate_time(&spec)
            };
            assert_eq!(
                ledger.get(Phase::Fft) + ledger.get(Phase::Ifft),
                pass(MatvecPhase::Fft, head_in) + pass(MatvecPhase::Ifft, head_out),
                "[{code} {dir}] transform phases"
            );
        }
    }
    // What is multiplied is the half spectrum, not the logical grid.
    let sym = two_level("ddddd", BackendKind::Simulated).symbol_shared();
    assert_eq!((sym.work_dims(), sym.grid_len(), sym.spectrum_len()), (&[6usize, 8][..], 48, 30));
}

/// Serializes the two tests that set [`BACKEND_ENV`]: every test in this
/// binary shares the process environment. The others pass an explicit
/// backend, so they never read it.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Unknown backend selections are typed build-time errors with a
/// `source()` chain down to the `BackendError`.
#[test]
fn backend_selection_failures_are_typed() {
    // `portability` names no backend: the hipify pipeline translates
    // kernel sources, it does not execute them.
    let built = {
        let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let saved = std::env::var_os(BACKEND_ENV);
        std::env::set_var(BACKEND_ENV, "portability");
        let built = FftMatvec::builder(operator(31)).build();
        match saved {
            Some(v) => std::env::set_var(BACKEND_ENV, v),
            None => std::env::remove_var(BACKEND_ENV),
        }
        built
    };
    match built {
        Err(ConfigError::Backend(BackendError::UnknownBackend { name })) => {
            assert_eq!(name, "portability");
        }
        other => panic!("expected typed UnknownBackend, got {other:?}"),
    }

    // The error chain threads source() down to the BackendError.
    let op_err: OpError = BackendError::UnknownBackend { name: "portability".into() }.into();
    let src = std::error::Error::source(&op_err).expect("OpError::Backend has a source");
    assert!(src.downcast_ref::<BackendError>().is_some());
}

/// Selection precedence: builder wins over the environment, the
/// environment wins over the default, and an unknown name in the
/// environment is a typed error.
#[test]
fn selection_precedence_is_builder_env_default() {
    let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var(BACKEND_ENV, "simulated");
    let from_env = FftMatvec::builder(operator(37)).build().unwrap();
    assert_eq!(from_env.backend(), BackendKind::Simulated, "env override selects simulated");

    let explicit = FftMatvec::builder(operator(37)).backend(BackendKind::Cpu).build().unwrap();
    assert_eq!(explicit.backend(), BackendKind::Cpu, "builder beats env");

    std::env::set_var(BACKEND_ENV, "tpu");
    match FftMatvec::builder(operator(37)).build() {
        Err(ConfigError::Backend(BackendError::UnknownBackend { name })) => {
            assert_eq!(name, "tpu");
        }
        other => panic!("expected typed UnknownBackend, got {other:?}"),
    }

    std::env::remove_var(BACKEND_ENV);
    let default = FftMatvec::builder(operator(37)).build().unwrap();
    assert_eq!(default.backend(), BackendKind::Cpu, "default is the CPU pool");
    assert_eq!(default.backend(), BackendKind::default());
}
