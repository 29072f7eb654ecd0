//! Shared `LinearOperator` conformance suite, run against every
//! realization — the FFT pipeline, the direct `O(N_t²)` oracle, the
//! distributed matvec, and the multi-level Toeplitz operators
//! (`NdCirculantEmbedding`, `TwoLevelToeplitz`). One contract:
//!
//! * `shape()` matches the operator's `(N_d·N_t, N_m·N_t)`;
//! * the adjoint identity `⟨F·m, d⟩ == ⟨m, F*·d⟩` holds;
//! * the allocating and `_into` apply paths are bit-identical;
//! * the flat strided batch path equals per-item applies;
//! * mismatched lengths come back as typed `OpError`s, never panics;
//! * repeated `apply_*_into` performs **zero heap allocations** after
//!   warm-up, verified by a counting global allocator.
//!
//! The allocation counter is thread-local, and the tests in this file
//! run one at a time (see [`SERIAL`]).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard, PoisonError};

use fftmatvec::comm::ProcessGrid;
use fftmatvec::core::{
    BlockToeplitzOperator, DirectMatvec, DistributedFftMatvec, FftMatvec, LinearOperator,
    OpDirection, OpError, OpShape, PrecisionConfig,
};
use fftmatvec::numeric::SplitMix64;
use fftmatvec::toeplitz::{NdCirculantEmbedding, ToeplitzGenerator, TwoLevelToeplitz};

/// Counts allocations made by the current thread.
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

/// Held by every test in this file for its whole body. A per-thread
/// counter alone does not isolate the tests: a test thread that waits on
/// the shared pool helps run its siblings' jobs, so allocations of
/// *their* warm-ups land on its counter and `assert_zero_alloc` fails on
/// scheduler luck. With one test running at a time there is no sibling
/// work to pick up.
static SERIAL: Mutex<()> = Mutex::new(());

/// Take [`SERIAL`]; a sibling that failed while holding it poisons
/// nothing this file reads.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

const ND: usize = 3;
const NM: usize = 12;
const NT: usize = 8;

fn operator(seed: u64) -> BlockToeplitzOperator {
    let mut rng = SplitMix64::new(seed);
    let mut col = vec![0.0; NT * ND * NM];
    rng.fill_uniform(&mut col, -1.0, 1.0);
    BlockToeplitzOperator::from_first_block_column(ND, NM, NT, &col).unwrap()
}

/// Input/output-sized random vectors for whatever shape `op` exposes —
/// the suite is realization- and shape-generic.
fn vectors(op: &dyn LinearOperator, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let shape = op.shape();
    let mut rng = SplitMix64::new(seed);
    let mut m = vec![0.0; shape.cols];
    let mut d = vec![0.0; shape.rows];
    rng.fill_uniform(&mut m, -1.0, 1.0);
    rng.fill_uniform(&mut d, -1.0, 1.0);
    (m, d)
}

/// The shared suite body. Into-vs-alloc comparisons are exact (every
/// realization must match its own allocating path bitwise); only the
/// adjoint identity carries a roundoff budget, sized for the distributed
/// reduction's reassociation.
fn conformance(op: &dyn LinearOperator, expected: OpShape, name: &str) {
    let (m, d) = vectors(op, 42);
    let (rows, cols) = (expected.rows, expected.cols);

    // Shape.
    assert_eq!(op.shape(), expected, "{name}: shape");

    // Adjoint identity.
    let fm = op.apply_forward(&m).unwrap();
    let fsd = op.apply_adjoint(&d).unwrap();
    let lhs: f64 = fm.iter().zip(&d).map(|(a, b)| a * b).sum();
    let rhs: f64 = m.iter().zip(&fsd).map(|(a, b)| a * b).sum();
    assert!(
        (lhs - rhs).abs() <= 1e-11 * lhs.abs().max(rhs.abs()).max(1.0),
        "{name}: adjoint identity {lhs} vs {rhs}"
    );

    // apply vs apply_into bit-equality (both directions).
    let mut out = vec![f64::NAN; rows];
    op.apply_forward_into(&m, &mut out).unwrap();
    assert_eq!(out, fm, "{name}: forward into != alloc");
    let mut back = vec![f64::NAN; cols];
    op.apply_adjoint_into(&d, &mut back).unwrap();
    assert_eq!(back, fsd, "{name}: adjoint into != alloc");

    // Flat strided batch equals per-item applies.
    let batch = 4;
    let mut inputs = vec![0.0; batch * cols];
    SplitMix64::new(7).fill_uniform(&mut inputs, -1.0, 1.0);
    let mut outputs = vec![0.0; batch * rows];
    op.apply_forward_many_into(&inputs, &mut outputs).unwrap();
    for b in 0..batch {
        let single = op.apply_forward(&inputs[b * cols..(b + 1) * cols]).unwrap();
        assert_eq!(&outputs[b * rows..(b + 1) * rows], &single[..], "{name}: batch b={b}");
    }

    // Typed errors, not panics.
    assert!(
        matches!(op.apply_forward(&m[1..]), Err(OpError::InputLength { .. })),
        "{name}: short forward input"
    );
    let mut short = vec![0.0; 3];
    assert!(
        matches!(op.apply_forward_into(&m, &mut short), Err(OpError::OutputLength { .. })),
        "{name}: short forward output"
    );
    assert!(
        matches!(op.apply_adjoint(&d[1..]), Err(OpError::InputLength { .. })),
        "{name}: short adjoint input"
    );
    let mut ragged_out = vec![0.0; rows];
    assert!(
        matches!(
            op.apply_many_into(OpDirection::Forward, &inputs[1..], &mut ragged_out),
            Err(OpError::RaggedBatch { .. })
        ),
        "{name}: ragged batch"
    );
    assert!(
        matches!(
            op.apply_many_into(OpDirection::Forward, &inputs, &mut ragged_out),
            Err(OpError::BatchMismatch { .. })
        ),
        "{name}: batch output mismatch"
    );
}

/// Assert `op` allocates nothing across repeated `_into` applies once
/// warmed up.
fn assert_zero_alloc(op: &dyn LinearOperator, name: &str) {
    let (m, d) = vectors(op, 13);
    let shape = op.shape();
    let mut fwd = vec![0.0; shape.rows];
    let mut adj = vec![0.0; shape.cols];
    // Warm-up: fills workspace pools, scratch arenas, and any lazily
    // materialized precision casts of F̂.
    for _ in 0..3 {
        op.apply_forward_into(&m, &mut fwd).unwrap();
        op.apply_adjoint_into(&d, &mut adj).unwrap();
    }
    let before = thread_allocations();
    for _ in 0..10 {
        op.apply_forward_into(&m, &mut fwd).unwrap();
        op.apply_adjoint_into(&d, &mut adj).unwrap();
    }
    let after = thread_allocations();
    assert_eq!(
        after - before,
        0,
        "{name}: {} heap allocations across 20 warmed-up apply_into calls",
        after - before
    );
}

#[test]
fn fft_matvec_conforms() {
    let _serial = serial();
    let mv = FftMatvec::builder(operator(1)).build().unwrap();
    conformance(&mv, OpShape::new(ND * NT, NM * NT), "FftMatvec[ddddd]");
    assert_zero_alloc(&mv, "FftMatvec[ddddd]");
}

#[test]
fn fft_matvec_conforms_mixed_precision() {
    let _serial = serial();
    // The paper optimum exercises the f32 engine, the fused casts, and
    // the lazily materialized single-precision F̂ copy.
    let mv = FftMatvec::builder(operator(2))
        .precision(PrecisionConfig::optimal_forward())
        .build()
        .unwrap();
    // Mixed precision changes values, so only shape/error/no-alloc
    // conformance applies — the adjoint identity tolerance would need the
    // FP32 budget. Run the double-precision suite pieces that transfer:
    assert_eq!(mv.shape(), OpShape::new(ND * NT, NM * NT));
    let (m, _) = vectors(&mv, 3);
    let alloc = mv.apply_forward(&m).unwrap();
    let mut into = vec![0.0; ND * NT];
    mv.apply_forward_into(&m, &mut into).unwrap();
    assert_eq!(alloc, into, "mixed-precision into path must stay bit-identical");
    assert_zero_alloc(&mv, "FftMatvec[dssdd]");
}

#[test]
fn direct_matvec_conforms() {
    let _serial = serial();
    let op = operator(4);
    let dm = DirectMatvec::new(&op);
    conformance(&dm, OpShape::new(ND * NT, NM * NT), "DirectMatvec");
    assert_zero_alloc(&dm, "DirectMatvec");
}

#[test]
fn distributed_matvec_conforms() {
    let _serial = serial();
    let op = operator(5);
    let dist = DistributedFftMatvec::from_global(
        ND,
        NM,
        NT,
        op.first_col(),
        ProcessGrid::new(2, 3),
        PrecisionConfig::all_double(),
    )
    .unwrap();
    conformance(&dist, OpShape::new(ND * NT, NM * NT), "DistributedFftMatvec[2x3]");
    assert_zero_alloc(&dist, "DistributedFftMatvec[2x3]");
}

/// Two-level generator with a lifted main diagonal, so the adjoint
/// identity's relative tolerance is meaningful.
fn toeplitz_gen(outer: (usize, usize), inner: (usize, usize), seed: u64) -> ToeplitzGenerator {
    let diags_len = (outer.0 + outer.1 - 1) * (inner.0 + inner.1 - 1);
    let mut diags = vec![0.0; diags_len];
    SplitMix64::new(seed).fill_uniform(&mut diags, -1.0, 1.0);
    diags[(outer.1 - 1) * (inner.0 + inner.1 - 1) + (inner.1 - 1)] += 4.0;
    ToeplitzGenerator::two_level(outer, inner, diags).unwrap()
}

#[test]
fn nd_circulant_embedding_conforms() {
    let _serial = serial();
    // Three levels with rectangular extents — the general N-d case.
    let mut diags = vec![0.0; 4 * 6 * 5];
    SplitMix64::new(17).fill_uniform(&mut diags, -1.0, 1.0);
    let gen = ToeplitzGenerator::new(&[(2, 3), (4, 3), (3, 3)], diags).unwrap();
    let op = NdCirculantEmbedding::builder(gen).build().unwrap();
    conformance(&op, OpShape::new(2 * 4 * 3, 3 * 3 * 3), "NdCirculantEmbedding[ddddd]");
    assert_zero_alloc(&op, "NdCirculantEmbedding[ddddd]");
}

#[test]
fn two_level_toeplitz_conforms() {
    let _serial = serial();
    // The second shape is odd and non-square on both levels, so the two
    // directions prune to different head boxes.
    for (outer, inner, seed) in [((3, 4), (5, 3), 23), ((5, 3), (3, 7), 29)] {
        let op = TwoLevelToeplitz::builder(toeplitz_gen(outer, inner, seed)).build().unwrap();
        let shape = OpShape::new(outer.0 * inner.0, outer.1 * inner.1);
        conformance(&op, shape, "TwoLevelToeplitz[ddddd]");
        assert_zero_alloc(&op, "TwoLevelToeplitz[ddddd]");
    }
}

#[test]
fn toeplitz_conforms_mixed_precision() {
    let _serial = serial();
    // Mixed tiers change values, so (as for the FFT pipeline above) only
    // the value-independent suite pieces transfer: into-vs-alloc bit
    // equality and the zero-allocation contract, through both entry
    // points.
    let gen = toeplitz_gen((4, 4), (6, 5), 31);
    let cfg: PrecisionConfig = "dssdd".parse().unwrap();
    let two = TwoLevelToeplitz::builder(gen.clone()).precision(cfg).build().unwrap();
    let nd = NdCirculantEmbedding::builder(gen).precision(cfg).build().unwrap();
    let ops: [(&dyn LinearOperator, &str); 2] =
        [(&two, "TwoLevelToeplitz[dssdd]"), (&nd, "NdCirculantEmbedding[dssdd]")];
    for (op, name) in ops {
        let (m, d) = vectors(op, 37);
        let fwd = op.apply_forward(&m).unwrap();
        let mut fwd_into = vec![f64::NAN; op.shape().rows];
        op.apply_forward_into(&m, &mut fwd_into).unwrap();
        assert_eq!(fwd, fwd_into, "{name}: forward into != alloc");
        let adj = op.apply_adjoint(&d).unwrap();
        let mut adj_into = vec![f64::NAN; op.shape().cols];
        op.apply_adjoint_into(&d, &mut adj_into).unwrap();
        assert_eq!(adj, adj_into, "{name}: adjoint into != alloc");
        assert_zero_alloc(op, name);
    }
}

#[test]
fn trait_objects_interchange() {
    let _serial = serial();
    // The point of the redesign: one call site, three realizations.
    let op = operator(6);
    let fft = FftMatvec::builder(operator(6)).build().unwrap();
    let direct = DirectMatvec::new(&op);
    let dist = DistributedFftMatvec::from_global(
        ND,
        NM,
        NT,
        op.first_col(),
        ProcessGrid::new(1, 2),
        PrecisionConfig::all_double(),
    )
    .unwrap();
    let (m, _) = vectors(&fft, 9);
    let realizations: [&dyn LinearOperator; 3] = [&fft, &direct, &dist];
    let outputs: Vec<Vec<f64>> =
        realizations.iter().map(|r| r.apply_forward(&m).unwrap()).collect();
    for pair in outputs.windows(2) {
        let err: f64 =
            pair[0].iter().zip(&pair[1]).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
        assert!(err < 1e-11, "realizations disagree: {err}");
    }
}
