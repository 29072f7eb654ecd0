//! `serve_solver` / `serve_block`: the same small operator behind the
//! batching `Service`, driven closed-loop by one generator thread in
//! bursts of 1 request or of 64 (32 F + 32 F*).
//! `ServiceConfig::default()` is used unchanged; the two workloads sit on
//! opposite sides of its `max_batch` / `max_delay` trade.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use fftmatvec::core::{
    BlockToeplitzOperator, DirectMatvec, FftMatvec, LinearOperator, OpDirection,
};
use fftmatvec::service::{OperatorRegistry, Service, ServiceConfig, ServiceStats, Ticket};

use crate::harness::{
    admissible_configs, apply_only, measure_setup, rel_err, run_pairs, traced_extras, uniform_vec,
    Mode, Outcome, Pair, RunArgs, Timed, MIN_BLOCKS,
};
use crate::stats::median;
use crate::trace::Tracer;

pub struct Case {
    pub name: &'static str,
    /// Requests submitted together, F and F* alternating, and all
    /// waited for before the next burst.
    pub burst: usize,
    /// ≈70 ms per block at the seed commit on this box.
    pub reqs_per_block: usize,
}

pub const SOLVER: Case = Case { name: "serve_solver", burst: 1, reqs_per_block: 200 };
/// 32 F + 32 F*: each lane reaches `max_batch` (32), so the service
/// carves full windows at once instead of waiting out `max_delay`.
pub const BLOCK: Case = Case { name: "serve_block", burst: 64, reqs_per_block: 1600 };

const ND: usize = 2;
const NM: usize = 16;
const NT: usize = 64;
const OP_ID: &str = "op";
/// Distinct input vectors per direction, cycled through.
const INPUTS: usize = 8;
const TOL: f64 = 1e-12;

const REQ_FWD: &str = "service.request.fwd";
const REQ_ADJ: &str = "service.request.adj";
const SUBMIT: &str = "service.submit";
const WAIT: &str = "service.wait";

struct Built {
    service: Service,
    op: Arc<BlockToeplitzOperator>,
}

/// Program set-up, timed: F̂ build, registry + pipeline build, service
/// start, warm-up requests.
fn setup(col: &[f64], inputs: &Inputs) -> Result<(Built, f64), String> {
    let t0 = Instant::now();
    let op = BlockToeplitzOperator::from_first_block_column(ND, NM, NT, col)
        .map_err(|e| e.to_string())?;
    let op = Arc::new(op);
    let registry = Arc::new(OperatorRegistry::new());
    registry
        .register_fft(OP_ID, FftMatvec::builder_arc(Arc::clone(&op)))
        .map_err(|e| e.to_string())?;
    let service = Service::new(registry, ServiceConfig::default());
    for k in 0..2 {
        for (dir, pool) in
            [(OpDirection::Forward, &inputs.fwd), (OpDirection::Adjoint, &inputs.adj)]
        {
            let ticket = service.submit(OP_ID, dir, pool[k].clone()).map_err(|e| e.to_string())?;
            ticket.wait().map_err(|e| e.to_string())?;
        }
    }
    Ok((Built { service, op }, t0.elapsed().as_secs_f64()))
}

struct Inputs {
    fwd: Vec<Vec<f64>>,
    adj: Vec<Vec<f64>>,
}

/// What the direct pipeline returns for each input, bit for bit.
struct Expected {
    fwd: Vec<Vec<f64>>,
    adj: Vec<Vec<f64>>,
}

struct InFlight {
    ticket: Ticket,
    t0: Instant,
    forward: bool,
    k: usize,
    id: u64,
    /// The request's root span, when tracing.
    span: Option<usize>,
}

/// The closed loop: submit a burst of `burst` requests, F and F*
/// alternating, then wait for every one of them (in submission order)
/// before the next burst. A block is `reqs_per_block` requests.
fn run_requests(
    case: &Case,
    service: &Service,
    inputs: &Inputs,
    expected: &Expected,
    seconds: f64,
    keep_samples: bool,
    mut tracer: Option<&mut Tracer>,
) -> Timed {
    assert_eq!(case.reqs_per_block % case.burst, 0, "a block is a whole number of bursts");
    let mut timed = Timed::new(keep_samples);
    let mut queue: VecDeque<InFlight> = VecDeque::with_capacity(case.burst);
    let (mut f_us, mut a_us) = (Vec::new(), Vec::new());
    let mut next = 0u64;

    let started = Instant::now();
    while timed.blocks() < MIN_BLOCKS || started.elapsed().as_secs_f64() < seconds {
        let block_started = Instant::now();
        for _ in 0..case.reqs_per_block / case.burst {
            for _ in 0..case.burst {
                let forward = next.is_multiple_of(2);
                let k = (next / 2) as usize % INPUTS;
                let (dir, pool) = if forward {
                    (OpDirection::Forward, &inputs.fwd)
                } else {
                    (OpDirection::Adjoint, &inputs.adj)
                };
                let input = pool[k].clone();
                let t0 = Instant::now();
                let (submitted, span) = match tracer.as_deref_mut() {
                    Some(tr) => {
                        let root = tr.begin(if forward { REQ_FWD } else { REQ_ADJ }, None, next);
                        let r =
                            tr.span(SUBMIT, Some(root), next, || service.submit(OP_ID, dir, input));
                        (r, Some(root))
                    }
                    None => (service.submit(OP_ID, dir, input), None),
                };
                timed.attempted += 1;
                match submitted {
                    Ok(ticket) => {
                        queue.push_back(InFlight { ticket, t0, forward, k, id: next, span })
                    }
                    Err(_) => timed.failed += 1,
                }
                next += 1;
            }
            while let Some(InFlight { ticket, t0, forward, k, id, span }) = queue.pop_front() {
                let resp = match (tracer.as_deref_mut(), span) {
                    (Some(tr), Some(root)) => {
                        let r = tr.span(WAIT, Some(root), id, || ticket.wait());
                        tr.end(root);
                        r
                    }
                    _ => ticket.wait(),
                };
                let us = t0.elapsed().as_secs_f64() * 1e6;
                let want = if forward { &expected.fwd[k] } else { &expected.adj[k] };
                if !resp.as_ref().is_ok_and(|got| got == want) {
                    timed.failed += 1;
                }
                if forward {
                    f_us.push(us)
                } else {
                    a_us.push(us)
                }
            }
        }
        let rate = (f_us.len() + a_us.len()) as f64 / block_started.elapsed().as_secs_f64();
        timed.push_block(&mut f_us, &mut a_us, rate);
    }
    timed
}

/// `submitted == completed` and nothing refused, expired, failed or
/// panicked — otherwise the run's numbers describe a different load.
fn reconciles(stats: &ServiceStats) -> bool {
    stats.submitted == stats.completed
        && stats.rejected + stats.expired + stats.failed + stats.panicked == 0
}

pub fn run(case: &Case, args: &RunArgs) -> Result<Outcome, String> {
    let col = uniform_vec(args.seed, 0, NT * ND * NM);
    let pool = |base: u64, len: usize| -> Vec<Vec<f64>> {
        (0..INPUTS as u64).map(|k| uniform_vec(args.seed, base + k, len)).collect()
    };
    let inputs = Inputs { fwd: pool(100, NM * NT), adj: pool(200, ND * NT) };

    let (built, setup_s) = if args.mode == Mode::Untraced {
        measure_setup(|| setup(&col, &inputs))?
    } else {
        setup(&col, &inputs)?
    };

    // The oracle: the same operator applied directly, itself checked
    // against the direct block-convolution sum.
    let direct =
        FftMatvec::builder_arc(Arc::clone(&built.op)).build().map_err(|e| e.to_string())?;
    let mut expected = Expected { fwd: Vec::new(), adj: Vec::new() };
    for x in &inputs.fwd {
        expected.fwd.push(direct.apply_forward(x).map_err(|e| e.to_string())?);
    }
    for x in &inputs.adj {
        expected.adj.push(direct.apply_adjoint(x).map_err(|e| e.to_string())?);
    }
    let pair = Pair {
        fwd: &direct,
        adj: &direct,
        m: &inputs.fwd[0],
        d: &inputs.adj[0],
        want_fwd: &expected.fwd[0],
        want_adj: &expected.adj[0],
    };
    if args.mode == Mode::ApplyOnly {
        return Ok(apply_only(&pair, 400, args.seconds));
    }
    let dense = DirectMatvec::new(&built.op);
    let err_f = rel_err(pair.want_fwd, &dense.apply_forward(pair.m).map_err(|e| e.to_string())?);
    let err_a = rel_err(pair.want_adj, &dense.apply_adjoint(pair.d).map_err(|e| e.to_string())?);
    let oracle_ok = err_f <= TOL && err_a <= TOL;

    let mut out = Outcome::default();
    out.notes.push(format!(
        "{}: service over {ND}x{NM}x{NT} ddddd, bursts of {}, {:?}; direct pipeline rel err F \
         {err_f:.2e}, F* {err_a:.2e}; responses must equal it bit for bit",
        case.name,
        case.burst,
        built.service.config()
    ));

    if args.mode == Mode::Untraced {
        let timed =
            run_requests(case, &built.service, &inputs, &expected, args.seconds, false, None);
        let ok = oracle_ok && reconciles(&built.service.stats());
        out.end_to_end(&timed, setup_s, ok);
        return Ok(out);
    }

    let service = &built.service;
    let untraced = run_requests(case, service, &inputs, &expected, 0.3 * args.seconds, true, None);
    let mut tr = Tracer::new();
    let traced =
        run_requests(case, service, &inputs, &expected, 0.4 * args.seconds, false, Some(&mut tr));
    let stats = service.stats();
    out.attempted = untraced.attempted + traced.attempted;
    out.failed = untraced.failed + traced.failed;

    // The same operator called directly in this process.
    let direct_timed = run_pairs(&pair, 400, 0.05 * args.seconds, true);
    let (direct_f, direct_a) = (direct_timed.fwd_pooled_p50_us(), direct_timed.adj_pooled_p50_us());
    // Batched compute per vector at the window size the service reached.
    let window = (stats.mean_batch().round() as usize).max(1);
    let (ins_f, ins_a) = (pair.m.repeat(window), pair.d.repeat(window));
    let (mut outs_f, mut outs_a) = (vec![0.0; window * ND * NT], vec![0.0; window * NM * NT]);
    let mut per_vec_us = Vec::new();
    for _ in 0..200 {
        let t0 = Instant::now();
        direct
            .apply_many_into(OpDirection::Forward, &ins_f, &mut outs_f)
            .and_then(|()| direct.apply_many_into(OpDirection::Adjoint, &ins_a, &mut outs_a))
            .map_err(|e| e.to_string())?;
        per_vec_us.push(t0.elapsed().as_secs_f64() * 1e6 / (2 * window) as f64);
    }
    let compute_per_vec_us = median(&per_vec_us);

    let req_p50 = untraced.pooled_quantile_us(0.5);
    out.set("service.submit_p50_us", tr.median_us(SUBMIT));
    out.set("service.req_p99_us", untraced.pooled_quantile_us(0.99));
    out.set("service.direct_fwd_apply_us", direct_f);
    out.set("service.direct_adj_apply_us", direct_a);
    out.set("service.added_latency_us", req_p50 - 0.5 * (direct_f + direct_a));
    out.set("service.per_req_overhead_us", 1e6 / untraced.median_ops_per_s() - compute_per_vec_us);
    out.set("service.mean_batch", stats.mean_batch());
    out.set("service.window_occupancy", stats.mean_batch() / service.config().max_batch as f64);
    out.set("service.batches", stats.batches as f64);
    out.set("service.rejected", stats.rejected as f64);
    out.set("service.expired", stats.expired as f64);
    out.set("service.failed", (stats.failed + stats.panicked) as f64);
    out.set("service.stats_p50_us", stats.latency_quantile_us(0.5).unwrap_or(0.0));
    out.set("core.autotune.admissible_configs", admissible_configs(ND, NM, NT));
    let t = direct.device().transfers();
    let direct_applies = (t.uploads.max(1)) as f64;
    out.set("backend.bytes_up_per_apply", t.bytes_up as f64 / direct_applies);
    out.set("backend.bytes_down_per_apply", t.bytes_down as f64 / direct_applies);
    traced_extras(&pair, args, &untraced, tr.median_us(REQ_FWD) + tr.median_us(REQ_ADJ), &mut out)?;
    out.set("core.pipeline.workspaces_peak", direct.workspaces_peak_in_flight() as f64);
    out.notes.push(format!(
        "request p50 {req_p50:.1} us over {} requests; observed window {window}; batched compute \
         {compute_per_vec_us:.1} us/vector",
        untraced.attempted
    ));
    if !(oracle_ok && reconciles(&stats)) {
        out.failed = out.attempted;
    }

    tr.save(case.name, args.seed)?;
    Ok(out)
}
