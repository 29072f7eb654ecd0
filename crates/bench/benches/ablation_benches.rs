//! Ablation benchmarks for the DESIGN.md design choices:
//!
//! 1. fused cast+pad vs separate pad-then-cast passes (the Section-3.2
//!    kernel-fusion claim);
//! 2. hipify translation throughput (the on-the-fly build cost);
//! 3. the partitioner's search cost and the modeled gain of
//!    communication-aware partitioning over a flat grid;
//! 4. Bluestein vs mixed-radix plans at comparable sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fftmatvec_bench::stuffed_vector;
use fftmatvec_comm::partition::{grid_comm_time, PartitionProblem};
use fftmatvec_comm::{choose_grid, NetworkModel, PartitionStrategy, ProcessGrid};
use fftmatvec_core::layout;
use fftmatvec_fft::FftPlan;
use fftmatvec_numeric::{Complex, Precision, SplitMix64, C64};
use fftmatvec_portability::hipify_source;
use fftmatvec_portability::kernels_cuda::ALL_SOURCES;
use std::hint::black_box;

fn bench_fused_vs_separate_cast(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_cast_fusion");
    g.sample_size(20);
    let (n_series, nt) = (512usize, 256usize);
    let m = stuffed_vector(n_series * nt, 1);
    // Fused: pad directly into single precision (one pass).
    g.bench_function("fused_pad_cast", |b| {
        b.iter(|| layout::pad_input(black_box(&m), n_series, nt, Precision::Single));
    });
    // Separate: pad in double, then cast (two passes) — what the paper's
    // fusion avoids.
    g.bench_function("separate_pad_then_cast", |b| {
        b.iter(|| {
            let padded = layout::pad_input(black_box(&m), n_series, nt, Precision::Double);
            padded.cast(Precision::Single)
        });
    });
    g.finish();
}

fn bench_hipify_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_hipify");
    g.sample_size(50);
    let total: usize = ALL_SOURCES.iter().map(|(_, s)| s.len()).sum();
    g.bench_function(BenchmarkId::new("app_tree", format!("{total}B")), |b| {
        b.iter(|| {
            for (_, src) in ALL_SOURCES {
                black_box(hipify_source(src));
            }
        });
    });
    g.finish();
}

fn bench_partitioner(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_partitioning");
    g.sample_size(30);
    let net = NetworkModel::frontier();
    let p = 4096usize;
    let prob = PartitionProblem { nd: 100, nm: 5000 * p, nt: 1000, elem_bytes: 8 };
    g.bench_function("cost_model_search_4096", |b| {
        b.iter(|| choose_grid(PartitionStrategy::CostModel, p, black_box(&prob), &net));
    });
    // Not a timing ablation but reported once: the modeled gain.
    let flat = grid_comm_time(&net, &ProcessGrid::new(1, p), &prob);
    let best = choose_grid(PartitionStrategy::CostModel, p, &prob, &net);
    let tuned = grid_comm_time(&net, &best, &prob);
    println!(
        "\n[partitioning ablation] 4096 GPUs: flat 1x{p} = {:.1} ms, {}x{} = {:.1} ms ({:.1}x gain; paper: >3x)\n",
        flat * 1e3,
        best.rows,
        best.cols,
        tuned * 1e3,
        flat / tuned
    );
    g.finish();
}

fn bench_bluestein_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_bluestein");
    g.sample_size(20);
    // 2039 is prime (Bluestein, inner size 4096); 2048 is the comparable
    // mixed-radix size — the overhead factor is the cost of supporting
    // arbitrary N_t.
    for n in [2039usize, 2048] {
        let plan = FftPlan::<f64>::new(n);
        let mut rng = SplitMix64::new(n as u64);
        let x: Vec<C64> =
            (0..n).map(|_| Complex::new(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))).collect();
        let mut out = vec![Complex::zero(); n];
        let mut scratch = vec![Complex::zero(); plan.scratch_len()];
        let label = if plan.is_bluestein() { "bluestein" } else { "mixed_radix" };
        g.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
            b.iter(|| plan.forward(black_box(&x), &mut out, &mut scratch));
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_fused_vs_separate_cast,
    bench_hipify_throughput,
    bench_partitioner,
    bench_bluestein_overhead
);
criterion_main!(benches);
