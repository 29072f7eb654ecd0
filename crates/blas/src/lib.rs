//! # fftmatvec-blas — strided batched GEMV (SBGEMV)
//!
//! Phase 3 of FFTMatvec is a batched matrix-vector product with the
//! frequency-domain blocks `F̂_k` (`N_t + 1` matrices of size `N_d × N_m`,
//! `N_d ≪ N_m`). The paper found rocBLAS's (conjugate-)transpose kernel
//! collapsing on such *short and wide* matrices and contributed an
//! optimized kernel (Section 3.1.1), later merged upstream. This crate
//! rebuilds both, as what they are here:
//!
//! * **One vector kernel and one scalar reference** execute the real
//!   arithmetic. [`sbgemv_freq_minor`] takes the batch frequency-minor
//!   (entry `(i, k)` of every matrix contiguous) and puts consecutive
//!   batch items in the SIMD lanes, reading and writing FFT spectra with
//!   no reorder pass — the kernel the pipeline runs for every operator
//!   shape, and the only one with AVX2 tiles; [`sbgemv_freq_minor_many`]
//!   runs it over a batch of vectors (columns) through one operator, in
//!   register panels that share each loaded matrix register between four
//!   columns, with every column's bits unchanged. [`sbgemv`] takes per-matrix
//!   column-major blocks as one tiled scalar sweep: tiles of rows walking
//!   the columns for non-transpose, tiles of *columns* walking the rows
//!   for (conj)transpose — the geometry of [`KernelChoice::Optimized`]
//!   below, Figure 1's kernel and the reference the pipeline is tested
//!   against; no apply runs it. One pairwise tree per output either way,
//!   shared by both, so they agree on every bit ([`kernels`]).
//! * **Two GPU launch models** ([`KernelChoice`], [`select_kernel`],
//!   [`kernel_profile`]) stand for the kernels Figure 1 compares.
//!   [`KernelChoice::Reference`] is rocBLAS: in (conj)transpose mode each
//!   gridblock computes a *single* dot product of length `m`; grid dims
//!   `n × 1 × batch`. When `m ≪ n` that means many gridblocks with almost
//!   no work each — high launch overhead, low achieved bandwidth.
//!   [`KernelChoice::Optimized`] is the paper's kernel: gridblocks tile
//!   the *columns* of each matrix (grid `⌈n/TILE⌉ × 1 × batch`) with
//!   vectorized 16-byte loads, read/compute/write pipelining, and
//!   wavefront-shuffle reductions.
//!
//! The two GPU kernels compute the same sums in the same tree order, so
//! they differ only in the [`fftmatvec_gpu::KernelProfile`] their
//! launches generate — which is what Figure 1 measures and what
//! `fftmatvec_core::timing::simulate_phases` charges to the SBGEMV phase.
//! The host-side [`dispatch`] mirrors the rocBLAS integration: transition
//! points choose the modeled kernel from `(op, m, n)`. Nothing on the CPU
//! selects: every operator stores `F̂` frequency-minor.

pub mod dispatch;
pub mod kernels;
mod simd;
pub mod types;

pub use dispatch::{kernel_profile, select_kernel};
pub use kernels::{sbgemv, sbgemv_freq_minor, sbgemv_freq_minor_many};
pub use types::{BatchGeometry, GemvOp, KernelChoice};

/// Column tile width of the modeled optimized kernel (the paper's
/// gridblocks tile the columns; 64 matches one wavefront of threads per
/// tile edge) — and the output tile of the CPU block sweep, [`sbgemv`].
pub const OPT_TILE_COLS: usize = 64;

/// Row chunk the modeled reference non-transpose kernel assigns per
/// gridblock (rocBLAS launches `⌈m/64⌉` blocks in the first grid
/// dimension).
pub const REF_ROW_BLOCK: usize = 64;
