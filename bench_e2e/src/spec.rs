//! The benchmark's names: workloads, end-to-end metrics, per-layer
//! metrics. `BENCHMARK.json` at the repo root lists exactly these (a unit
//! test compares the two), and every run emits exactly these.

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Regression bound (share of the parent's median); end-to-end only.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better, bound: None }
}

/// Workload names are permanent: later PRs compare against them.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "paper_dd",
        why:
            "Paper-shaped (N_d << N_m) 16x256x64 ddddd direct FftMatvec: blas (SBGEMV) does most of \
              the work, service none; the adjoint-sweep target.",
    },
    Workload {
        name: "paper_mixed",
        why: "Same operator, F via dssdd and F* via ddssd: f32 SBGEMV/FFT, backend casts, casting \
              reorders; paper_dd/paper_mixed p50 is the Fig. 3 speedup.",
    },
    Workload {
        name: "longseries_dd",
        why: "4x4x4096 ddddd: few long pow-2 transforms, tiny SBGEMV blocks; fft does most of the \
              work, so an SBGEMV win should read no change here.",
    },
    Workload {
        name: "toeplitz_2level",
        why:
            "TwoLevelToeplitz 64x64 blocks of 64x64, full embedding: complex NdFft + pointwise, no \
              SBGEMV, no real-FFT engines; guards the second spectral pipeline.",
    },
    Workload {
        name: "serve_solver",
        why: "Service over 2x16x64 ddddd with 1 request in flight (CG-style caller): latency is \
              max_delay + wake + apply, so batching harder makes it worse.",
    },
    Workload {
        name: "serve_block",
        why: "Same service, bursts of 32 F + 32 F* requests all waited for (Hessian-assembly \
              caller): full max_batch windows, the throughput path; pairs with serve_solver.",
    },
];

/// The same five on every workload. The timing bounds are as wide as
/// the contract allows because this shared VM is that unsteady: ten-run
/// medians of unchanged code drift 10-35 % over an afternoon, and the
/// benchmark's first form (two pool threads, median over blocks) was
/// refused for spreading 20-27 % within one set of ten.
pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("fwd_p50_us", "us", "lower", 0.25),
    e2e("adj_p50_us", "us", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("peak_rss_mib", "MiB", "lower", 0.20),
];

/// Traced-run metrics, grouped by the repo module they time. A metric
/// whose layer is not on a workload's path reads 0 there.
pub const PER_LAYER: [Metric; 73] = [
    layer("core.pipeline.fwd_apply_us", "us", "lower"),
    layer("core.pipeline.adj_apply_us", "us", "lower"),
    layer("core.pipeline.fwd_self_us", "us", "lower"),
    layer("core.pipeline.adj_self_us", "us", "lower"),
    layer("core.pipeline.fwd_phase_sum_ratio", "ratio", "higher"),
    layer("core.pipeline.adj_phase_sum_ratio", "ratio", "higher"),
    layer("core.pipeline.fwd_sbgemv_share", "share", "lower"),
    layer("core.pipeline.adj_sbgemv_share", "share", "lower"),
    layer("core.pipeline.fwd_p95_us", "us", "lower"),
    layer("core.pipeline.adj_p95_us", "us", "lower"),
    layer("core.pipeline.many32_per_vec_us", "us", "lower"),
    layer("core.pipeline.apply_2t_fwd_us", "us", "lower"),
    layer("core.pipeline.apply_2t_adj_us", "us", "lower"),
    layer("core.pipeline.rel_err_fwd", "ratio", "lower"),
    layer("core.pipeline.rel_err_adj", "ratio", "lower"),
    layer("core.pipeline.workspaces_peak", "count", "lower"),
    layer("core.layout.fwd_pad_us", "us", "lower"),
    layer("core.layout.adj_pad_us", "us", "lower"),
    layer("core.layout.fwd_reorder_in_us", "us", "lower"),
    layer("core.layout.adj_reorder_in_us", "us", "lower"),
    layer("core.layout.fwd_reorder_out_us", "us", "lower"),
    layer("core.layout.adj_reorder_out_us", "us", "lower"),
    layer("core.layout.fwd_unpad_us", "us", "lower"),
    layer("core.layout.adj_unpad_us", "us", "lower"),
    layer("backend.fwd_cast_us", "us", "lower"),
    layer("backend.adj_cast_us", "us", "lower"),
    layer("backend.casts_per_apply", "count", "lower"),
    layer("backend.bytes_up_per_apply", "B", "lower"),
    layer("backend.bytes_down_per_apply", "B", "lower"),
    layer("backend.plan_lookup_us", "us", "lower"),
    layer("backend.pointwise_us", "us", "lower"),
    layer("backend.modeled_sbgemv_share", "share", "lower"),
    layer("fft.fwd_fft_us", "us", "lower"),
    layer("fft.fwd_ifft_us", "us", "lower"),
    layer("fft.adj_fft_us", "us", "lower"),
    layer("fft.adj_ifft_us", "us", "lower"),
    layer("fft.fftn_fwd_us", "us", "lower"),
    layer("fft.fftn_inv_us", "us", "lower"),
    layer("fft.flops_per_apply", "flop", "lower"),
    layer("fft.fwd_gflops_computed", "Gflop/s", "higher"),
    layer("blas.fwd_sbgemv_us", "us", "lower"),
    layer("blas.adj_sbgemv_us", "us", "lower"),
    layer("blas.adj_over_fwd", "ratio", "lower"),
    layer("blas.flops_per_apply", "flop", "lower"),
    layer("blas.bytes_per_apply", "B", "lower"),
    layer("blas.ops_per_byte", "flop/B", "higher"),
    layer("blas.fwd_gbps_computed", "GB/s", "higher"),
    layer("blas.adj_gbps_computed", "GB/s", "higher"),
    layer("toeplitz.fwd_apply_us", "us", "lower"),
    layer("toeplitz.adj_apply_us", "us", "lower"),
    layer("toeplitz.fwd_self_us", "us", "lower"),
    layer("toeplitz.adj_self_us", "us", "lower"),
    layer("toeplitz.workspace_peak_bytes", "B", "lower"),
    layer("toeplitz.rel_err_fwd", "ratio", "lower"),
    layer("toeplitz.rel_err_adj", "ratio", "lower"),
    layer("service.submit_p50_us", "us", "lower"),
    layer("service.req_p99_us", "us", "lower"),
    layer("service.direct_fwd_apply_us", "us", "lower"),
    layer("service.direct_adj_apply_us", "us", "lower"),
    layer("service.added_latency_us", "us", "lower"),
    layer("service.per_req_overhead_us", "us", "lower"),
    layer("service.mean_batch", "count", "higher"),
    layer("service.window_occupancy", "share", "higher"),
    layer("service.batches", "count", "lower"),
    layer("service.rejected", "count", "lower"),
    layer("service.expired", "count", "lower"),
    layer("service.failed", "count", "lower"),
    layer("service.stats_p50_us", "us", "lower"),
    layer("core.autotune.admissible_configs", "count", "higher"),
    layer("core.autotune.resolve_ms", "ms", "lower"),
    layer("harness.trace_overhead_ratio", "ratio", "lower"),
    layer("harness.block_iqr_ratio", "ratio", "lower"),
    layer("harness.threads", "count", "higher"),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(name_ok(name), "bad name {name:?}");
            assert!(seen.insert(name), "duplicate name {name:?}");
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(unit_ok(m.unit), "bad unit {:?} on {}", m.unit, m.name);
            assert!(matches!(m.better, "lower" | "higher"));
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: why too long", w.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    }

    /// `BENCHMARK.json` is written by hand; this keeps it and the tables
    /// above from drifting apart.
    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let root = json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<Value> {
            root.get(key).and_then(Value::as_array).expect(key).to_vec()
        };
        let field =
            |v: &Value, k: &str| v.get(k).and_then(Value::as_str).expect("string field").to_owned();

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (got, want) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "why"), want.why);
        }
        for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let got = list(key);
            assert_eq!(got.len(), table.len(), "{key} length");
            for (g, want) in got.iter().zip(table) {
                assert_eq!(field(g, "name"), want.name);
                assert_eq!(field(g, "unit"), want.unit);
                assert_eq!(field(g, "better"), want.better);
                assert_eq!(g.get("bound").and_then(Value::as_f64), want.bound, "{}", want.name);
            }
        }
        assert_eq!(list("paths"), vec![Value::Str("bench_e2e".into())]);
    }
}
