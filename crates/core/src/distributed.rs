//! The distributed FFTMatvec over a 2-D process grid.
//!
//! Grid rows partition the sensors, columns partition the parameters
//! (Section 2.4): rank `(r, c)` owns the local operator block with
//! `n_d = ⌈N_d/p_r⌉` sensors and `n_m = ⌈N_m/p_c⌉` parameters. Per-rank
//! arithmetic is real (each simulated rank runs the full mixed-precision
//! pipeline on its slice); the inter-rank collectives move real data in
//! the configured precision, and wall time is modeled as
//! `max(rank compute) + comm model`.
//!
//! F matvec: the input is column-partitioned, so with `p_r = 1` phase 1
//! needs no communication; with `p_r > 1` each column allgathers its
//! slice. Phase 5 tree-reduces partial outputs across each grid row. The
//! F* matvec mirrors this (broadcast across rows, reduce down columns).
//!
//! Like the single-rank pipeline, applications go through the
//! [`LinearOperator`] trait: the `_into` paths stage per-rank slices,
//! partial outputs, and the reduction's rounded communication buffers in
//! a pooled workspace, so repeated applies allocate nothing after
//! warm-up.

use fftmatvec_backend::{BackendKind, DeviceBackend};
use fftmatvec_comm::{NetworkModel, ProcessGrid};
use fftmatvec_fft::par::try_for_each_chunk_mut;
use fftmatvec_gpu::{DeviceSpec, PhaseTimes};
use fftmatvec_numeric::{Precision, Real, RealBuffer};

use crate::linop::{
    check_apply, ConfigError, ConfigurableOperator, LinearOperator, OpDirection, OpError, OpShape,
};
use crate::operator::{checked_volume, BlockToeplitzOperator};
use crate::pipeline::FftMatvec;
use crate::precision::{MatvecPhase, PrecisionConfig};
use crate::timing::{simulate_on_grid, MatvecDims};
use crate::workspace::{Checkout, Workspace, WorkspacePool};

/// Pooled staging buffers for one distributed apply.
struct DistWorkspace {
    /// Per-rank input slices (the phase-1 scatter/broadcast buffers).
    rank_in: Vec<Vec<f64>>,
    /// Per-rank pipeline outputs (the phase-5 reduction inputs).
    partials: Vec<Vec<f64>>,
    /// Flat rounded communication buffer the tree reduction runs in.
    reduce: RealBuffer,
}

impl Default for DistWorkspace {
    fn default() -> Self {
        DistWorkspace {
            rank_in: Vec::new(),
            partials: Vec::new(),
            reduce: RealBuffer::F64(Vec::new()),
        }
    }
}

impl Workspace for DistWorkspace {
    fn bytes(&self) -> usize {
        let staged: usize = self.rank_in.iter().chain(&self.partials).map(Vec::len).sum();
        staged * std::mem::size_of::<f64>() + self.reduce.bytes()
    }
}

/// FFTMatvec partitioned over a process grid, all ranks in-process.
pub struct DistributedFftMatvec {
    grid: ProcessGrid,
    nd: usize,
    nm: usize,
    nt: usize,
    /// Per-rank pipelines, indexed by grid rank (column-major).
    ranks: Vec<FftMatvec>,
    workspace: WorkspacePool<DistWorkspace>,
}

impl std::fmt::Debug for DistributedFftMatvec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistributedFftMatvec")
            .field("grid", &(self.grid.rows, self.grid.cols))
            .field("nd", &self.nd)
            .field("nm", &self.nm)
            .field("nt", &self.nt)
            .field("config", &self.config().to_string())
            .finish_non_exhaustive()
    }
}

impl DistributedFftMatvec {
    /// Partition a global operator (given by its first block column, in
    /// the same `[t][i][k]` layout as
    /// [`BlockToeplitzOperator::from_first_block_column`]) over `grid`.
    pub fn from_global(
        nd: usize,
        nm: usize,
        nt: usize,
        col: &[f64],
        grid: ProcessGrid,
        cfg: PrecisionConfig,
    ) -> Result<Self, ConfigError> {
        let expected = checked_volume(nd, nm, nt)?;
        if col.len() != expected {
            return Err(ConfigError::ColumnLength { expected, got: col.len() });
        }
        if grid.rows > nd {
            return Err(ConfigError::GridOversubscribed {
                axis: "rows",
                ranks: grid.rows,
                extent: nd,
            });
        }
        if grid.cols > nm {
            return Err(ConfigError::GridOversubscribed {
                axis: "cols",
                ranks: grid.cols,
                extent: nm,
            });
        }
        let mut ranks = Vec::with_capacity(grid.size());
        for rank in 0..grid.size() {
            let (r, c) = grid.coords_of(rank);
            let ri = grid.sensor_range(nd, r);
            let ci = grid.param_range(nm, c);
            let (ndl, nml) = (ri.len(), ci.len());
            let mut local = vec![0.0; nt * ndl * nml];
            for t in 0..nt {
                for (ii, i) in ri.clone().enumerate() {
                    let src = &col[(t * nd + i) * nm + ci.start..(t * nd + i) * nm + ci.end];
                    local[(t * ndl + ii) * nml..(t * ndl + ii) * nml + nml].copy_from_slice(src);
                }
            }
            let op = BlockToeplitzOperator::from_first_block_column(ndl, nml, nt, &local)?;
            ranks.push(FftMatvec::builder(op).precision(cfg).build()?);
        }
        Ok(DistributedFftMatvec { grid, nd, nm, nt, ranks, workspace: WorkspacePool::default() })
    }

    /// The process grid.
    pub fn grid(&self) -> ProcessGrid {
        self.grid
    }

    /// Global dimensions `(N_d, N_m, N_t)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.nd, self.nm, self.nt)
    }

    /// Change every rank's precision configuration (each rank rebuilds
    /// only the FFT engines whose tier actually changed, see
    /// [`FftMatvec::set_config`]).
    pub fn set_config(&mut self, cfg: PrecisionConfig) {
        for r in &mut self.ranks {
            r.set_config(cfg);
        }
    }

    /// Current configuration.
    pub fn config(&self) -> PrecisionConfig {
        self.ranks[0].config()
    }

    /// The execution backend the per-rank pipelines were built for
    /// (every rank resolves the same selection, so rank 0 speaks for
    /// all).
    pub fn backend(&self) -> BackendKind {
        self.ranks[0].backend()
    }

    /// Rank 0's device handle — the one the phase-5 tree reductions
    /// dispatch through.
    fn device(&self) -> &dyn DeviceBackend {
        self.ranks[0].device().as_ref()
    }

    /// Check out a staging workspace from the shared pool implementation
    /// (checkout ledger, bounded retention), sized for this grid.
    fn checkout(&self) -> Checkout<'_, DistWorkspace> {
        let mut guard = self.workspace.checkout();
        let (ws, size) = (guard.ws(), self.grid.size());
        if ws.rank_in.len() != size {
            ws.rank_in.resize_with(size, Vec::new);
            ws.partials.resize_with(size, Vec::new);
        }
        guard
    }

    /// Run every rank's pipeline over the staged inputs in `ws.rank_in`,
    /// writing into `ws.partials`, through `fftmatvec_fft::par` sized by
    /// the ranks' input and output elements. Per-rank shapes are struct
    /// invariants, so rank applies cannot fail; a failure anyway returns
    /// the lowest failing rank's own error rather than a panic.
    fn run_ranks(&self, dir: OpDirection, ws: &mut DistWorkspace) -> Result<(), OpError> {
        let mut work = 0;
        for (rank, out) in ws.partials.iter_mut().enumerate() {
            let (in_len, out_len) = self.ranks[rank].shape().io_lens(dir);
            debug_assert_eq!(ws.rank_in[rank].len(), in_len);
            // Fully overwritten by the rank apply below — no clear, so
            // steady-state resizes are O(1).
            out.resize(out_len, 0.0);
            work += in_len + out_len;
        }
        let (rank_in, stateless) = (&ws.rank_in, || ());
        try_for_each_chunk_mut(work, &mut ws.partials, 1, stateless, |(), (rank, out)| {
            self.ranks[rank].apply_into(dir, &rank_in[rank], &mut out[0])
        })
    }

    /// Modeled matvec time on `dev` ranks under `net`: slowest rank's
    /// compute plus the grid's communication.
    pub fn simulate(&self, dev: &DeviceSpec, net: &NetworkModel, adjoint: bool) -> PhaseTimes {
        let global = MatvecDims::new(self.nd, self.nm, self.nt);
        simulate_on_grid(global, &self.grid, self.config(), adjoint, dev, net)
    }
}

impl LinearOperator for DistributedFftMatvec {
    fn shape(&self) -> OpShape {
        OpShape::new(self.nd * self.nt, self.nm * self.nt)
    }

    /// `d = F·m` with global TOSI vectors.
    fn apply_forward_into(&self, m: &[f64], d: &mut [f64]) -> Result<(), OpError> {
        check_apply(self.shape(), OpDirection::Forward, m, d)?;
        let mut guard = self.checkout();
        let ws = guard.ws();
        // Scatter: column c's slice, replicated down its rows (the
        // phase-1 broadcast/allgather).
        for rank in 0..self.grid.size() {
            let (_, c) = self.grid.coords_of(rank);
            let ci = self.grid.param_range(self.nm, c);
            let mc = &mut ws.rank_in[rank];
            // Every element is written by the copy loop below.
            mc.resize(ci.len() * self.nt, 0.0);
            for t in 0..self.nt {
                mc[t * ci.len()..(t + 1) * ci.len()]
                    .copy_from_slice(&m[t * self.nm + ci.start..t * self.nm + ci.end]);
            }
        }
        self.run_ranks(OpDirection::Forward, ws)?;

        // Phase 5: tree-reduce each grid row's partials across columns in
        // the phase-5 precision, then place into the global output.
        let p5 = self.config().phase(MatvecPhase::Unpad);
        for r in 0..self.grid.rows {
            let ri = self.grid.sensor_range(self.nd, r);
            let ndl = ri.len();
            let len = ndl * self.nt;
            reduce_in_precision(
                self.device(),
                &ws.partials,
                |c| self.grid.rank_of(r, c),
                self.grid.cols,
                len,
                p5,
                &mut ws.reduce,
            )?;
            place_reduced(&ws.reduce, self.nt, ndl, self.nd, ri.start, d);
        }
        Ok(())
    }

    /// `m = F*·d` with global TOSI vectors.
    fn apply_adjoint_into(&self, d: &[f64], m: &mut [f64]) -> Result<(), OpError> {
        check_apply(self.shape(), OpDirection::Adjoint, d, m)?;
        let mut guard = self.checkout();
        let ws = guard.ws();
        for rank in 0..self.grid.size() {
            let (r, _) = self.grid.coords_of(rank);
            let ri = self.grid.sensor_range(self.nd, r);
            let dr = &mut ws.rank_in[rank];
            // Every element is written by the copy loop below.
            dr.resize(ri.len() * self.nt, 0.0);
            for t in 0..self.nt {
                dr[t * ri.len()..(t + 1) * ri.len()]
                    .copy_from_slice(&d[t * self.nd + ri.start..t * self.nd + ri.end]);
            }
        }
        self.run_ranks(OpDirection::Adjoint, ws)?;

        let p5 = self.config().phase(MatvecPhase::Unpad);
        for c in 0..self.grid.cols {
            let ci = self.grid.param_range(self.nm, c);
            let nml = ci.len();
            let len = nml * self.nt;
            reduce_in_precision(
                self.device(),
                &ws.partials,
                |r| self.grid.rank_of(r, c),
                self.grid.rows,
                len,
                p5,
                &mut ws.reduce,
            )?;
            place_reduced(&ws.reduce, self.nt, nml, self.nm, ci.start, m);
        }
        Ok(())
    }
}

impl ConfigurableOperator for DistributedFftMatvec {
    fn config(&self) -> PrecisionConfig {
        DistributedFftMatvec::config(self)
    }

    fn set_config(&mut self, cfg: PrecisionConfig) {
        DistributedFftMatvec::set_config(self, cfg);
    }
}

/// Scatter one row/column's reduced block (`reduce[..nt·local]`, local
/// TOSI layout `[t][local]`) into the global TOSI output: element
/// `[t][ii]` lands at `out[t·global + offset + ii]` (the partitioned
/// axis is a contiguous range, so `offset` is its start). Variant
/// dispatch happens once per block, not per element.
fn place_reduced(
    reduce: &RealBuffer,
    nt: usize,
    local: usize,
    global: usize,
    offset: usize,
    out: &mut [f64],
) {
    fn inner<T: Real>(
        v: &[T],
        nt: usize,
        local: usize,
        global: usize,
        off: usize,
        out: &mut [f64],
    ) {
        for t in 0..nt {
            let src = &v[t * local..(t + 1) * local];
            let dst = &mut out[t * global + off..t * global + off + local];
            for (o, &x) in dst.iter_mut().zip(src) {
                *o = x.to_f64();
            }
        }
    }
    match reduce {
        RealBuffer::F16(v) => inner(v, nt, local, global, offset, out),
        RealBuffer::BF16(v) => inner(v, nt, local, global, offset, out),
        RealBuffer::F32(v) => inner(v, nt, local, global, offset, out),
        RealBuffer::F64(v) => inner(v, nt, local, global, offset, out),
    }
}

/// Tree-reduce the partial vectors of one grid row/column in precision
/// `p`, leaving the result (as doubles) in `scratch[..len]`. Below double
/// precision the inputs are rounded first (the cast fused into the
/// communication buffers), summed pairwise in the tier's storage
/// rounding — exactly the arithmetic a reduced-precision RCCL reduction
/// performs. The summation tree runs through the pipeline's
/// [`DeviceBackend::tree_reduce`] primitive, whose CPU implementations
/// use `fftmatvec_comm::collectives::tree_reduce_sum_in_place` — the
/// in-place sibling of `tree_reduce_sum`, so the association matches the
/// collective exactly while running in a flat reused buffer that
/// allocates nothing after warm-up.
fn reduce_in_precision(
    device: &dyn DeviceBackend,
    partials: &[Vec<f64>],
    rank_of: impl Fn(usize) -> usize,
    nparts: usize,
    len: usize,
    p: Precision,
    scratch: &mut RealBuffer,
) -> Result<(), OpError> {
    scratch.reset_for_overwrite(p, nparts * len);
    fn stage<T: Real>(
        partials: &[Vec<f64>],
        rank_of: &dyn Fn(usize) -> usize,
        nparts: usize,
        len: usize,
        flat: &mut [T],
    ) {
        for part in 0..nparts {
            let src = &partials[rank_of(part)];
            for (dst, &x) in flat[part * len..(part + 1) * len].iter_mut().zip(src) {
                *dst = T::from_f64(x);
            }
        }
    }
    match scratch {
        RealBuffer::F16(v) => stage(partials, &rank_of, nparts, len, v),
        RealBuffer::BF16(v) => stage(partials, &rank_of, nparts, len, v),
        RealBuffer::F32(v) => stage(partials, &rank_of, nparts, len, v),
        RealBuffer::F64(v) => stage(partials, &rank_of, nparts, len, v),
    }
    device.tree_reduce(scratch, len)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::simulate_phases;
    use fftmatvec_comm::collectives::tree_reduce_sum;
    use fftmatvec_gpu::Phase;
    use fftmatvec_numeric::vecmath::rel_l2_error;
    use fftmatvec_numeric::SplitMix64;

    fn global_col(nd: usize, nm: usize, nt: usize, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        let mut col = vec![0.0; nt * nd * nm];
        rng.fill_uniform(&mut col, -1.0, 1.0);
        col
    }

    fn single_rank_reference(
        nd: usize,
        nm: usize,
        nt: usize,
        col: &[f64],
        m: &[f64],
        adjoint: bool,
    ) -> Vec<f64> {
        let op = BlockToeplitzOperator::from_first_block_column(nd, nm, nt, col).unwrap();
        let mv = FftMatvec::builder(op).build().unwrap();
        if adjoint {
            mv.apply_adjoint(m).unwrap()
        } else {
            mv.apply_forward(m).unwrap()
        }
    }

    #[test]
    fn in_place_tree_matches_collective_tree() {
        // The flat reused-buffer reduction must reproduce the comm
        // collective's association exactly, for every rank count.
        let mut rng = SplitMix64::new(11);
        for nparts in 1..=9usize {
            let len = 7;
            let parts: Vec<Vec<f64>> =
                (0..nparts).map(|_| (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect()).collect();
            let want = tree_reduce_sum(&parts);
            let mut scratch = RealBuffer::F64(Vec::new());
            let device = fftmatvec_backend::CpuPool::new();
            reduce_in_precision(
                &device,
                &parts,
                |i| i,
                nparts,
                len,
                Precision::Double,
                &mut scratch,
            )
            .unwrap();
            for (i, &w) in want.iter().enumerate() {
                assert_eq!(scratch.get(i), w, "nparts={nparts} i={i}");
            }
        }
    }

    #[test]
    fn distributed_forward_matches_single_rank() {
        let (nd, nm, nt) = (4usize, 12usize, 6usize);
        let col = global_col(nd, nm, nt, 1);
        let mut rng = SplitMix64::new(2);
        let mut m = vec![0.0; nm * nt];
        rng.fill_uniform(&mut m, -1.0, 1.0);
        let want = single_rank_reference(nd, nm, nt, &col, &m, false);
        for grid in [
            ProcessGrid::new(1, 1),
            ProcessGrid::new(1, 4),
            ProcessGrid::new(2, 2),
            ProcessGrid::new(4, 3),
            ProcessGrid::new(2, 5), // non-dividing column count
        ] {
            let dist = DistributedFftMatvec::from_global(
                nd,
                nm,
                nt,
                &col,
                grid,
                PrecisionConfig::all_double(),
            )
            .unwrap();
            let got = dist.apply_forward(&m).unwrap();
            let err = rel_l2_error(&got, &want);
            assert!(err < 1e-12, "grid {}x{}: err {err}", grid.rows, grid.cols);
        }
    }

    #[test]
    fn distributed_adjoint_matches_single_rank() {
        let (nd, nm, nt) = (4usize, 10usize, 5usize);
        let col = global_col(nd, nm, nt, 3);
        let mut rng = SplitMix64::new(4);
        let mut d = vec![0.0; nd * nt];
        rng.fill_uniform(&mut d, -1.0, 1.0);
        let want = single_rank_reference(nd, nm, nt, &col, &d, true);
        for grid in [ProcessGrid::new(1, 5), ProcessGrid::new(2, 2), ProcessGrid::new(4, 2)] {
            let dist = DistributedFftMatvec::from_global(
                nd,
                nm,
                nt,
                &col,
                grid,
                PrecisionConfig::all_double(),
            )
            .unwrap();
            let got = dist.apply_adjoint(&d).unwrap();
            let err = rel_l2_error(&got, &want);
            assert!(err < 1e-12, "grid {}x{}: err {err}", grid.rows, grid.cols);
        }
    }

    #[test]
    fn single_precision_reduction_adds_error() {
        // dssdd vs dssds: lowering the reduction precision must increase
        // the error on a multi-column grid (the Figure-4 tradeoff).
        let (nd, nm, nt) = (2usize, 16usize, 8usize);
        let col = global_col(nd, nm, nt, 5);
        let mut rng = SplitMix64::new(6);
        let mut m = vec![0.0; nm * nt];
        rng.fill_uniform_stuffed(&mut m, -1.0, 1.0);
        let baseline = single_rank_reference(nd, nm, nt, &col, &m, false);
        let grid = ProcessGrid::new(1, 8);
        let mut dist =
            DistributedFftMatvec::from_global(nd, nm, nt, &col, grid, "dssdd".parse().unwrap())
                .unwrap();
        let err_dd = rel_l2_error(&dist.apply_forward(&m).unwrap(), &baseline);
        dist.set_config("dssds".parse().unwrap());
        let err_ds = rel_l2_error(&dist.apply_forward(&m).unwrap(), &baseline);
        assert!(err_ds > err_dd, "single reduction should cost accuracy: {err_ds} vs {err_dd}");
        assert!(err_ds < 1e-4);
    }

    #[test]
    fn simulate_includes_comm_only_for_multirank() {
        let (nd, nm, nt) = (4usize, 8usize, 4usize);
        let col = global_col(nd, nm, nt, 7);
        let net = NetworkModel::frontier();
        let dev = DeviceSpec::mi250x_gcd();
        let single = DistributedFftMatvec::from_global(
            nd,
            nm,
            nt,
            &col,
            ProcessGrid::single(),
            PrecisionConfig::all_double(),
        )
        .unwrap();
        // One rank: exactly the single-device closed form, nothing else.
        for adjoint in [false, true] {
            let want = simulate_phases(
                MatvecDims::new(nd, nm, nt),
                PrecisionConfig::all_double(),
                adjoint,
                &dev,
            );
            assert_eq!(single.simulate(&dev, &net, adjoint), want);
            assert_eq!(want.get(Phase::Comm), 0.0);
        }
        let multi = DistributedFftMatvec::from_global(
            nd,
            nm,
            nt,
            &col,
            ProcessGrid::new(2, 4),
            PrecisionConfig::all_double(),
        )
        .unwrap();
        assert!(multi.simulate(&dev, &net, false).get(Phase::Comm) > 0.0);
    }

    #[test]
    fn ranks_share_one_cached_fft_plan() {
        // Every simulated rank runs the same transform length 2·N_t; the
        // plan cache must hand all of them the same plan object instead of
        // rebuilding twiddle tables per rank (the seed behaviour).
        let (nd, nm, nt) = (4usize, 8usize, 6usize);
        let col = global_col(nd, nm, nt, 9);
        let dist = DistributedFftMatvec::from_global(
            nd,
            nm,
            nt,
            &col,
            ProcessGrid::new(2, 4),
            PrecisionConfig::all_double(),
        )
        .unwrap();
        let first = dist.ranks[0].fft64_plan_handle();
        for rank in &dist.ranks[1..] {
            assert!(std::sync::Arc::ptr_eq(&first, &rank.fft64_plan_handle()));
        }
    }

    #[test]
    fn concurrent_applies_park_at_most_the_retention_cap_and_match_serial() {
        let (nd, nm, nt) = (4usize, 8usize, 6usize);
        let col = global_col(nd, nm, nt, 12);
        let dist = DistributedFftMatvec::from_global(
            nd,
            nm,
            nt,
            &col,
            ProcessGrid::new(2, 2),
            PrecisionConfig::all_double(),
        )
        .unwrap();
        let n = crate::workspace_retention_cap() + 5;
        let inputs: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let mut m = vec![0.0; nm * nt];
                SplitMix64::new(100 + i as u64).fill_uniform(&mut m, -1.0, 1.0);
                m
            })
            .collect();
        let serial: Vec<Vec<f64>> = inputs.iter().map(|m| dist.apply_forward(m).unwrap()).collect();

        // N applies released together; whatever overlap the scheduler
        // gives them, every result is bit-equal to its serial apply.
        let gate = std::sync::Barrier::new(n);
        let concurrent: Vec<Vec<f64>> = std::thread::scope(|s| {
            let handles: Vec<_> = inputs
                .iter()
                .map(|m| {
                    s.spawn(|| {
                        gate.wait();
                        dist.apply_forward(m).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(concurrent, serial);

        // The worst case made deterministic: N staging workspaces out at
        // once. On return the pool keeps the cap and frees the burst.
        let burst: Vec<_> = (0..n).map(|_| dist.checkout()).collect();
        assert_eq!(dist.workspace.in_flight(), n);
        drop(burst);
        assert_eq!(dist.workspace.in_flight(), 0);
        assert_eq!(dist.workspace.pooled(), crate::workspace_retention_cap());
    }

    #[test]
    fn grid_validation_is_typed() {
        let (nd, nm, nt) = (2usize, 4usize, 3usize);
        let col = global_col(nd, nm, nt, 8);
        assert_eq!(
            DistributedFftMatvec::from_global(
                nd,
                nm,
                nt,
                &col,
                ProcessGrid::new(3, 1),
                PrecisionConfig::all_double()
            )
            .unwrap_err(),
            ConfigError::GridOversubscribed { axis: "rows", ranks: 3, extent: 2 }
        );
        assert_eq!(
            DistributedFftMatvec::from_global(
                nd,
                nm,
                nt,
                &col,
                ProcessGrid::new(1, 5),
                PrecisionConfig::all_double()
            )
            .unwrap_err(),
            ConfigError::GridOversubscribed { axis: "cols", ranks: 5, extent: 4 }
        );
        assert_eq!(
            DistributedFftMatvec::from_global(
                nd,
                nm,
                nt,
                &col[1..],
                ProcessGrid::single(),
                PrecisionConfig::all_double()
            )
            .unwrap_err(),
            ConfigError::ColumnLength { expected: 24, got: 23 }
        );
    }

    #[test]
    fn overflowing_global_shape_is_typed() {
        // 2³² · 2³² wraps to 0 on 64-bit targets: an empty column must
        // not pass for it.
        let big = 1usize << (usize::BITS / 2);
        let err = DistributedFftMatvec::from_global(
            big,
            big,
            1,
            &[],
            ProcessGrid::single(),
            PrecisionConfig::all_double(),
        )
        .unwrap_err();
        assert_eq!(err, ConfigError::DimensionOverflow { what: "nt*nd*nm" });
    }

    #[test]
    fn apply_length_errors_are_typed() {
        let (nd, nm, nt) = (2usize, 4usize, 3usize);
        let col = global_col(nd, nm, nt, 10);
        let dist = DistributedFftMatvec::from_global(
            nd,
            nm,
            nt,
            &col,
            ProcessGrid::new(2, 2),
            PrecisionConfig::all_double(),
        )
        .unwrap();
        assert_eq!(dist.shape(), OpShape::new(6, 12));
        assert!(matches!(dist.apply_forward(&[0.0; 5]), Err(OpError::InputLength { .. })));
        let mut out = [0.0; 4];
        assert!(matches!(
            dist.apply_adjoint_into(&[0.0; 6], &mut out),
            Err(OpError::OutputLength { .. })
        ));
    }
}
