//! The batching front-end.
//!
//! [`Service`] accepts single-vector requests against registered
//! operators and coalesces concurrent submissions into flat-strided
//! [`LinearOperator::apply_many_into`] batches — the same mechanism the
//! paper uses to keep the accelerator occupied: one warm plan, one
//! workspace checkout, many right-hand sides. Coalescing is semantically
//! invisible because the pipeline guarantees the batched path is
//! bit-identical to applying each vector alone.
//!
//! The queue discipline is deliberately simple and fully typed:
//!
//! * **Batch window** — a lane (operator id × direction) executes when it
//!   holds [`ServiceConfig::max_batch`] requests or its oldest request
//!   has waited [`ServiceConfig::max_delay`], whichever comes first —
//!   *while waiting has been buying lane-mates*. Each lane keeps one bit:
//!   a window that closes on the timer holding a single request clears
//!   it, and from then on the lane hands whatever it holds to the worker
//!   at once (a caller blocked on its own ticket can never send a mate,
//!   so its requests stop paying `max_delay` after the first); any window
//!   that takes two or more requests sets the bit again, so a bursty
//!   caller gets full windows back. The whole policy is `Lane::due` and
//!   `Lane::carve`; `max_delay` stays the upper bound on the wait.
//! * **Admission control** — a lane at [`ServiceConfig::queue_capacity`]
//!   rejects new work with [`ServiceError::Overloaded`] instead of
//!   growing without bound. An input holding a NaN or ±∞ is refused
//!   with [`ServiceError::NonFiniteInput`]: it never joins a window, so
//!   it can neither poison its window-mates nor come back as a success.
//! * **Deadlines** — a request whose deadline lapses while queued is
//!   completed with [`ServiceError::DeadlineExceeded`]; its computation
//!   never runs.
//! * **Fault isolation** — a panic inside an operator's apply is caught;
//!   that batch fails with [`ServiceError::WorkerPanicked`] and the
//!   service keeps serving other requests.

use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use fftmatvec_core::{LinearOperator, OpDirection, OpError, OpShape, PrecisionConfig};
use fftmatvec_numeric::{fma_pass, Real, SplitMix64};

use crate::error::ServiceError;
use crate::registry::{budget_bucket, OperatorRegistry, TunableState};
use crate::ticket::{Ticket, TicketShared};

/// Queue policy knobs. The defaults suit interactive serving of matvecs
/// in the hundreds-of-microseconds range; latency-sensitive deployments
/// shrink `max_delay`, throughput-oriented ones grow `max_batch`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Largest coalesced batch per execution (window closes when a lane
    /// reaches this many requests).
    pub max_batch: usize,
    /// Longest a request waits for lane-mates *on a lane where waiting
    /// has recently produced any*; a lane whose last lone request waited
    /// for nothing dispatches at once, and a burst re-arms it.
    pub max_delay: Duration,
    /// Per-lane admission bound; a lane at capacity rejects with
    /// [`ServiceError::Overloaded`].
    pub queue_capacity: usize,
    /// Executor threads draining batch windows. One worker already
    /// exploits intra-batch parallelism (the pipeline fans a large batch
    /// across the compute pool); more workers overlap independent lanes.
    pub workers: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_batch: 32,
            max_delay: Duration::from_micros(200),
            queue_capacity: 1024,
            workers: 1,
        }
    }
}

/// One queued request.
struct PendingReq {
    input: Vec<f64>,
    ticket: Arc<TicketShared>,
    submitted: Instant,
    deadline: Option<Instant>,
}

/// Lane identity: operator × direction × budget bucket (`None` for
/// plain submits). Budget-routed traffic lanes per decade bucket, so a
/// coalesced window only ever mixes requests that resolved to the same
/// precision configuration — per-request results stay bit-identical to
/// solo applies regardless of what other budgets are in flight.
type LaneKey = (String, OpDirection, Option<i32>);

/// Why a window closed, in classification priority.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Close {
    /// The lane reached `max_batch`.
    Full,
    /// The service is draining for shutdown.
    Drain,
    /// The lane does not linger: lingering last bought no mate.
    Alone,
    /// The head waited out `max_delay`.
    Timer,
}

/// What a lane asks of the worker at instant `now`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Due {
    /// Carve a window now, closed for this reason.
    Now(Close),
    /// Nothing to do before this instant (the head going stale or the
    /// earliest queued deadline, whichever is sooner).
    At(Instant),
    /// Empty.
    Idle,
}

/// One lane's queue plus the single bit of learned policy: whether
/// lingering for lane-mates has been buying any. The window-close
/// decision is [`Lane::due`], a pure function of what the lane holds and
/// `(now, cfg)`; [`Lane::carve`] applies the transition:
///
/// | carve                                     | `lingers` |
/// |-------------------------------------------|-----------|
/// | takes ≥ 2 requests (not `Drain`)          | set       |
/// | `Timer` or `Alone` taking exactly 1       | cleared   |
/// | `Full` at `max_batch == 1`, `Drain`, and  | unchanged |
/// | a head that expires without executing     |           |
///
/// It depends only on what the lane observed: N ≥ 2 closed-loop callers
/// once caught queued together keep lingering (a timer-closed window of
/// N does not clear the bit).
struct Lane {
    queue: VecDeque<PendingReq>,
    lingers: bool,
    /// Queued requests carrying a deadline, so the expiry sweep and the
    /// wake-up scan skip lanes (and queues) that have none.
    deadlines: usize,
}

impl Default for Lane {
    fn default() -> Self {
        Lane { queue: VecDeque::new(), lingers: true, deadlines: 0 }
    }
}

impl Lane {
    fn push(&mut self, req: PendingReq) {
        self.deadlines += usize::from(req.deadline.is_some());
        self.queue.push_back(req);
    }

    /// The one window-close decision: the worker folds it over the lanes
    /// both to find a ready window and to pick its wake-up instant.
    fn due(&self, now: Instant, cfg: &ServiceConfig, shutdown: bool) -> Due {
        let Some(head) = self.queue.front() else {
            return Due::Idle;
        };
        if self.queue.len() >= cfg.max_batch {
            return Due::Now(Close::Full);
        }
        if shutdown {
            return Due::Now(Close::Drain);
        }
        if !self.lingers {
            return Due::Now(Close::Alone);
        }
        let stale = head.submitted + cfg.max_delay;
        if stale <= now {
            return Due::Now(Close::Timer);
        }
        let deadline = if self.deadlines == 0 {
            None
        } else {
            self.queue.iter().filter_map(|r| r.deadline).min()
        };
        Due::At(deadline.map_or(stale, |d| d.min(stale)))
    }

    /// Drain one window (up to `max_batch` requests from the head) and
    /// apply the transition table.
    fn carve(&mut self, close: Close, max_batch: usize) -> Vec<PendingReq> {
        let take = self.queue.len().min(max_batch);
        let reqs: Vec<PendingReq> = self.queue.drain(..take).collect();
        self.deadlines -= reqs.iter().filter(|r| r.deadline.is_some()).count();
        match close {
            Close::Drain => {}
            _ if reqs.len() >= 2 => self.lingers = true,
            Close::Timer | Close::Alone => self.lingers = false,
            Close::Full => {}
        }
        reqs
    }

    /// Remove, in place, every request whose deadline has lapsed and hand
    /// it to `sink`; a lane holding no deadlines is not scanned. Expiry is
    /// not a window: `lingers` is untouched.
    fn expire(&mut self, now: Instant, mut sink: impl FnMut(PendingReq)) {
        let mut i = 0;
        while self.deadlines > 0 && i < self.queue.len() {
            if self.queue[i].deadline.is_some_and(|d| d <= now) {
                self.deadlines -= 1;
                sink(self.queue.remove(i).expect("index in range"));
            } else {
                i += 1;
            }
        }
    }
}

struct QueueState {
    lanes: HashMap<LaneKey, Lane>,
    shutdown: bool,
}

/// Bounded deterministic latency sample: Vitter's Algorithm R over a
/// fixed-capacity reservoir with a fixed-seed [`SplitMix64`]. Memory is
/// `O(cap)` no matter how long the service runs, every sample ever seen
/// had an equal chance of being retained, and the retained set is a
/// deterministic function of the completion order.
struct LatencyReservoir {
    cap: usize,
    samples: Vec<u64>,
    count: u64,
    rng: SplitMix64,
}

/// Retained latency samples per service. 4096 × 8 bytes caps the stats
/// footprint at 32 KiB while nearest-rank quantiles up to p999 stay
/// well-resolved.
const LATENCY_RESERVOIR_CAP: usize = 4096;

impl LatencyReservoir {
    fn new(cap: usize) -> Self {
        LatencyReservoir {
            cap: cap.max(1),
            samples: Vec::new(),
            count: 0,
            rng: SplitMix64::new(0x5ca1e_1a7e0c1e5),
        }
    }

    fn push(&mut self, ns: u64) {
        self.count += 1;
        if self.samples.len() < self.cap {
            self.samples.push(ns);
        } else {
            let j = self.rng.next_usize(self.count as usize);
            if j < self.cap {
                self.samples[j] = ns;
            }
        }
    }
}

struct StatsInner {
    submitted: u64,
    completed: u64,
    rejected: u64,
    expired: u64,
    failed: u64,
    panicked: u64,
    batches: u64,
    /// Windows executed per [`Close`] reason (indexed by discriminant);
    /// sums to `batches`.
    closed: [u64; 4],
    batched_requests: u64,
    autotuned: u64,
    configs_served: HashMap<String, u64>,
    latency: LatencyReservoir,
}

impl Default for StatsInner {
    fn default() -> Self {
        StatsInner {
            submitted: 0,
            completed: 0,
            rejected: 0,
            expired: 0,
            failed: 0,
            panicked: 0,
            batches: 0,
            closed: [0; 4],
            batched_requests: 0,
            autotuned: 0,
            configs_served: HashMap::new(),
            latency: LatencyReservoir::new(LATENCY_RESERVOIR_CAP),
        }
    }
}

/// Point-in-time counters snapshot; see [`Service::stats`].
#[derive(Clone, Debug, Default)]
pub struct ServiceStats {
    /// Requests admitted to a queue.
    pub submitted: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests refused at submission (overload, unknown operator,
    /// shape, non-finite input, budget, shutdown).
    pub rejected: u64,
    /// Requests whose deadline lapsed while queued.
    pub expired: u64,
    /// Requests completed with an apply-time [`OpError`].
    pub failed: u64,
    /// Requests failed because the operator panicked mid-batch.
    pub panicked: u64,
    /// Batch windows executed.
    pub batches: u64,
    /// Of those, windows closed because the lane reached `max_batch`.
    /// The four `closed_*` counters sum to `batches`.
    pub closed_full: u64,
    /// Windows closed because their head waited out `max_delay`.
    pub closed_timer: u64,
    /// Windows dispatched at once because lingering on that lane last
    /// bought no lane-mate.
    pub closed_alone: u64,
    /// Windows closed by the shutdown drain.
    pub closed_drain: u64,
    /// Requests served across those windows (`batched_requests /
    /// batches` is the mean occupancy).
    pub batched_requests: u64,
    /// Requests served through budget-routed (autotuned) lanes.
    pub autotuned: u64,
    /// Requests completed per precision configuration (config string →
    /// count), sorted by config string for stable display.
    pub configs_served: Vec<(String, u64)>,
    /// Retained queue+execute latency samples, nanoseconds — a bounded
    /// uniform reservoir (capacity 4096) over everything completed, not
    /// the full history.
    pub latencies_ns: Vec<u64>,
    /// Total latency samples ever observed (≥ `latencies_ns.len()`; the
    /// excess was reservoir-evicted).
    pub latency_count: u64,
}

impl ServiceStats {
    /// Mean requests per executed batch window (the occupancy the
    /// coalescer achieved); 0 when nothing has executed.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_requests as f64 / self.batches as f64
        }
    }

    /// Latency quantile in microseconds via nearest-rank on the retained
    /// samples; `None` until something has completed **or when `q` is
    /// NaN** (a NaN quantile is a caller bug, not a request for the
    /// minimum). `q` is clamped to `[0, 1]`: `q = 0` is the retained
    /// minimum, `q = 1` the retained maximum.
    pub fn latency_quantile_us(&self, q: f64) -> Option<f64> {
        if self.latencies_ns.is_empty() || q.is_nan() {
            return None;
        }
        let mut sorted = self.latencies_ns.clone();
        sorted.sort_unstable();
        let rank =
            ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[rank - 1] as f64 / 1e3)
    }
}

struct Inner {
    registry: Arc<OperatorRegistry>,
    cfg: ServiceConfig,
    state: Mutex<QueueState>,
    cv: Condvar,
    stats: Mutex<StatsInner>,
    accepting: AtomicBool,
}

/// The operator-as-a-service front-end. Construction spawns the worker
/// threads; dropping the service stops admissions, drains every queued
/// request, and joins the workers.
pub struct Service {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("cfg", &self.inner.cfg)
            .field("operators", &self.inner.registry.names())
            .finish()
    }
}

impl Service {
    /// Spawn a service over `registry` with the given queue policy.
    /// Zero-valued knobs are clamped to their minimum useful values.
    pub fn new(registry: Arc<OperatorRegistry>, cfg: ServiceConfig) -> Service {
        let cfg = ServiceConfig {
            max_batch: cfg.max_batch.max(1),
            max_delay: cfg.max_delay,
            queue_capacity: cfg.queue_capacity.max(1),
            workers: cfg.workers.max(1),
        };
        let inner = Arc::new(Inner {
            registry,
            cfg,
            state: Mutex::new(QueueState { lanes: HashMap::new(), shutdown: false }),
            cv: Condvar::new(),
            stats: Mutex::new(StatsInner::default()),
            accepting: AtomicBool::new(true),
        });
        let workers = (0..cfg.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("fftmatvec-serve-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn service worker")
            })
            .collect();
        Service { inner, workers }
    }

    /// The registry this service serves from. Operators may be
    /// registered and deregistered while the service is live.
    pub fn registry(&self) -> &Arc<OperatorRegistry> {
        &self.inner.registry
    }

    /// The (clamped) queue policy in effect.
    pub fn config(&self) -> ServiceConfig {
        self.inner.cfg
    }

    /// Submit one vector for `op_id` in direction `dir` with no
    /// deadline. Returns a [`Ticket`] resolving to the output vector, or
    /// a typed rejection if the request is not admitted.
    pub fn submit(
        &self,
        op_id: &str,
        dir: OpDirection,
        input: Vec<f64>,
    ) -> Result<Ticket, ServiceError> {
        self.submit_inner(op_id, dir, input, None, None)
    }

    /// Submit one vector with an **error budget** instead of a fixed
    /// configuration: the request is routed to the (operator, direction,
    /// budget-decade) lane whose autotuned precision configuration
    /// promises an Eq. 6 bound at or under the budget. First sight of a
    /// (direction, decade) pair resolves the configuration — pruning the
    /// 1024-config lattice by the bound, lazily calibrating the needed
    /// precision tiers on this machine, and picking the cheapest
    /// admissible configuration — and later requests in the decade reuse
    /// it. Lanes are config-homogeneous, so coalescing never mixes
    /// configurations and every result is bit-identical to a solo apply
    /// under the resolved configuration.
    ///
    /// Requires the operator to have been registered with
    /// [`OperatorRegistry::register_fft_tunable`] or
    /// [`OperatorRegistry::register_toeplitz_tunable`]; rejects with
    /// [`ServiceError::NotTunable`] otherwise, and with
    /// [`ServiceError::InvalidBudget`] for non-finite or non-positive
    /// budgets. An unsatisfiable budget (below the all-double Eq. 6
    /// floor) rejects at submission with the typed
    /// `ConfigError::BudgetUnsatisfiable` wrapped in
    /// [`ServiceError::Shape`].
    pub fn submit_with_budget(
        &self,
        op_id: &str,
        dir: OpDirection,
        budget: f64,
        input: Vec<f64>,
    ) -> Result<Ticket, ServiceError> {
        self.submit_inner(op_id, dir, input, None, Some(budget))
    }

    /// The configuration a (operator, direction, budget) triple has
    /// resolved to, if that budget's decade has been seen; `None` for
    /// unknown/untunable operators or yet-unseen decades. Read-only — no
    /// resolution or calibration side effects.
    pub fn resolved_config(
        &self,
        op_id: &str,
        dir: OpDirection,
        budget: f64,
    ) -> Option<PrecisionConfig> {
        let entry = self.inner.registry.lookup(op_id)?;
        let tunable = entry.tunable.as_ref()?;
        tunable.peek(dir, budget).map(|c| c.config)
    }

    /// [`Service::submit`] with a deadline: if no batch window has
    /// picked the request up within `deadline` of submission, it
    /// completes with [`ServiceError::DeadlineExceeded`] and is never
    /// computed. A deadline of zero expires immediately unless a window
    /// is already closing.
    pub fn submit_with_deadline(
        &self,
        op_id: &str,
        dir: OpDirection,
        input: Vec<f64>,
        deadline: Duration,
    ) -> Result<Ticket, ServiceError> {
        self.submit_inner(op_id, dir, input, Some(deadline), None)
    }

    fn submit_inner(
        &self,
        op_id: &str,
        dir: OpDirection,
        input: Vec<f64>,
        deadline: Option<Duration>,
        budget: Option<f64>,
    ) -> Result<Ticket, ServiceError> {
        let inner = &self.inner;
        let reject = |e: ServiceError| {
            let mut stats = inner.stats.lock().unwrap_or_else(PoisonError::into_inner);
            stats.rejected += 1;
            Err(e)
        };
        if !inner.accepting.load(Ordering::Acquire) {
            return reject(ServiceError::ShuttingDown);
        }
        let Some(entry) = inner.registry.lookup(op_id) else {
            return reject(ServiceError::UnknownOperator(op_id.to_string()));
        };
        // The cheap checks run first, so a request that is refused leaves
        // nothing behind: no calibration, no resolved entry, no variant.
        let tunable = match budget {
            None => None,
            Some(b) if !(b.is_finite() && b > 0.0) => {
                return reject(ServiceError::InvalidBudget { budget: b });
            }
            Some(b) => match entry.tunable.as_ref() {
                Some(tunable) => Some((tunable, b)),
                None => return reject(ServiceError::NotTunable { operator: op_id.to_string() }),
            },
        };
        let (in_len, _) = entry.shape.io_lens(dir);
        if input.len() != in_len {
            return reject(ServiceError::Shape(OpError::InputLength {
                dir,
                expected: in_len,
                got: input.len(),
            }));
        }
        // A NaN or ±∞ would spread through the transforms to every output
        // of its own apply: refuse it here, before it shares a window.
        if let Some(index) = first_non_finite(&input) {
            return reject(ServiceError::NonFiniteInput { operator: op_id.to_string(), index });
        }
        // Budget routing resolves synchronously at admission: the caller
        // learns about an unsatisfiable budget here, and the lane's
        // variant is warm before its first window executes.
        let bucket = match tunable {
            None => None,
            Some((tunable, b)) => {
                if let Err(e) = tunable.resolve(dir, b) {
                    return reject(e);
                }
                Some(budget_bucket(b))
            }
        };

        let submitted = Instant::now();
        let shared = TicketShared::new();
        let req = PendingReq {
            input,
            ticket: Arc::clone(&shared),
            submitted,
            deadline: deadline.map(|d| submitted + d),
        };

        let mut state = inner.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.shutdown {
            drop(state);
            return reject(ServiceError::ShuttingDown);
        }
        let lane = state.lanes.entry((op_id.to_string(), dir, bucket)).or_default();
        if lane.queue.len() >= inner.cfg.queue_capacity {
            let queued = lane.queue.len();
            drop(state);
            return reject(ServiceError::Overloaded {
                operator: op_id.to_string(),
                queued,
                capacity: inner.cfg.queue_capacity,
            });
        }
        // Count the admission before a worker can see the request, so no
        // snapshot shows more settled than submitted. This is the only
        // place both locks are held (queue, then stats).
        inner.stats.lock().unwrap_or_else(PoisonError::into_inner).submitted += 1;
        lane.push(req);
        drop(state);
        // Every submit wakes a worker, also when the push cannot have
        // made the lane ready: the early wakes keep the worker's CPU out
        // of idle until a burst fills the window (suppressing them
        // measured 3–6 % *slower* on 32 + 32 bursts, never faster).
        inner.cv.notify_one();
        Ok(Ticket::new(shared))
    }

    /// Requests currently queued across all lanes (excludes the batch a
    /// worker is executing right now).
    pub fn queued(&self) -> usize {
        let state = self.inner.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.lanes.values().map(|lane| lane.queue.len()).sum()
    }

    /// Snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        let s = self.inner.stats.lock().unwrap_or_else(PoisonError::into_inner);
        let mut configs_served: Vec<(String, u64)> =
            s.configs_served.iter().map(|(k, &v)| (k.clone(), v)).collect();
        configs_served.sort();
        ServiceStats {
            submitted: s.submitted,
            completed: s.completed,
            rejected: s.rejected,
            expired: s.expired,
            failed: s.failed,
            panicked: s.panicked,
            batches: s.batches,
            closed_full: s.closed[Close::Full as usize],
            closed_timer: s.closed[Close::Timer as usize],
            closed_alone: s.closed[Close::Alone as usize],
            closed_drain: s.closed[Close::Drain as usize],
            batched_requests: s.batched_requests,
            autotuned: s.autotuned,
            configs_served,
            latencies_ns: s.latency.samples.clone(),
            latency_count: s.latency.count,
        }
    }

    /// Stop admitting, drain every queued request (they complete
    /// normally), and join the workers. `Drop` calls this; explicit
    /// shutdown is for callers that want the drain to happen at a chosen
    /// point.
    pub fn shutdown(&mut self) {
        self.inner.accepting.store(false, Ordering::Release);
        {
            let mut state = self.inner.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.shutdown = true;
        }
        self.inner.cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fma_pass! {
    /// Index of the first NaN or ±∞ in `input`, if any. `x − x` is `+0`
    /// for every finite `x` and a NaN otherwise, so the common all-finite
    /// case is one branch-free OR over those bits, which the `avx2`
    /// instantiation runs four lanes wide — a few times faster than a
    /// per-element finiteness test; only a hit walks the input again for
    /// the index.
    fn first_non_finite<T: Real>(input: &[T]) -> Option<usize> {
        #[allow(clippy::eq_op)] // `v − v` is the finiteness test itself
        let any = input.iter().fold(0u64, |acc, &v| acc | (v - v).to_f64().to_bits());
        if any == 0 {
            None
        } else {
            input.iter().position(|v| !v.is_finite())
        }
    }
}

/// A carved batch window, ready to execute outside the queue lock.
struct Window {
    name: String,
    op: Arc<dyn LinearOperator + Send + Sync>,
    shape: OpShape,
    dir: OpDirection,
    reqs: Vec<PendingReq>,
    close: Close,
    /// For budget-routed windows: the autotune state to feed observed
    /// timings back into, and the configuration that served the window.
    tuned: Option<(Arc<TunableState>, PrecisionConfig)>,
}

/// A worker's gather / scatter buffers for `apply_many_into`, reused
/// across windows (they grow to the largest window seen and stay).
#[derive(Default)]
struct WindowBuffers {
    inputs: Vec<f64>,
    outputs: Vec<f64>,
}

fn worker_loop(inner: &Inner) {
    let mut buffers = WindowBuffers::default();
    loop {
        let mut state = inner.state.lock().unwrap_or_else(PoisonError::into_inner);
        let now = Instant::now();
        let shutdown = state.shutdown;

        // 1. Expire lapsed deadlines, in place, on the lanes that hold
        //    any (completing after the lock drops keeps the hold time
        //    short).
        let mut expired: Vec<(String, PendingReq)> = Vec::new();
        for ((op_id, _, _), lane) in state.lanes.iter_mut() {
            lane.expire(now, |req| expired.push((op_id.clone(), req)));
        }

        // 2. One fold over `Lane::due`: carve the first ready window,
        //    else learn the earliest instant any lane wants a look.
        let mut window = None;
        let mut wake_at: Option<Instant> = None;
        for (key, lane) in state.lanes.iter_mut() {
            match lane.due(now, &inner.cfg, shutdown) {
                Due::Now(close) => {
                    window = Some((key.clone(), close, lane.carve(close, inner.cfg.max_batch)));
                    break;
                }
                Due::At(at) => wake_at = Some(wake_at.map_or(at, |w| w.min(at))),
                Due::Idle => {}
            }
        }

        // 3. Nothing to settle: exit once drained, else sleep until then.
        if window.is_none() && expired.is_empty() {
            if shutdown {
                return;
            }
            drop(match wake_at {
                Some(at) => {
                    let dur = at.saturating_duration_since(now);
                    inner.cv.wait_timeout(state, dur).unwrap_or_else(PoisonError::into_inner).0
                }
                None => inner.cv.wait(state).unwrap_or_else(PoisonError::into_inner),
            });
            continue;
        }
        drop(state);

        // 4. Complete expirations and execute the window, lock-free.
        if !expired.is_empty() {
            let mut stats = inner.stats.lock().unwrap_or_else(PoisonError::into_inner);
            stats.expired += expired.len() as u64;
            drop(stats);
            for (op_id, req) in expired {
                let waited = now.saturating_duration_since(req.submitted);
                req.ticket
                    .complete(Err(ServiceError::DeadlineExceeded { operator: op_id, waited }));
            }
        }
        if let Some(((op_id, dir, bucket), close, reqs)) = window {
            match resolve_window_op(inner, &op_id, dir, bucket) {
                Some((op, shape, tuned)) => execute_window(
                    inner,
                    Window { name: op_id, op, shape, dir, reqs, close, tuned },
                    &mut buffers,
                ),
                None => {
                    // Deregistered while queued: reject rather than hang.
                    for req in reqs {
                        req.ticket.complete(Err(ServiceError::UnknownOperator(op_id.clone())));
                    }
                }
            }
        }
    }
}

/// Pick the operator instance a carved window executes on: the plain
/// registered instance for `bucket == None`, the lane's resolved
/// autotuned variant otherwise.
#[allow(clippy::type_complexity)]
fn resolve_window_op(
    inner: &Inner,
    op_id: &str,
    dir: OpDirection,
    bucket: Option<i32>,
) -> Option<(
    Arc<dyn LinearOperator + Send + Sync>,
    OpShape,
    Option<(Arc<TunableState>, PrecisionConfig)>,
)> {
    let entry = inner.registry.lookup(op_id)?;
    match bucket {
        None => Some((Arc::clone(&entry.op), entry.shape, None)),
        Some(b) => {
            let tunable = entry.tunable.as_ref()?;
            let (cfg, variant) = tunable.variant_for_bucket(dir, b)?;
            Some((variant, entry.shape, Some((Arc::clone(tunable), cfg))))
        }
    }
}

/// Run one coalesced window through `apply_many_into` and settle every
/// ticket in it. Inputs were shape-checked at admission, so the flat
/// buffers are well-formed by construction; any apply error or panic is
/// fanned back out to all requests in the window.
fn execute_window(inner: &Inner, window: Window, buffers: &mut WindowBuffers) {
    let Window { name, op, shape, dir, reqs, close, tuned } = window;
    let (_, out_len) = shape.io_lens(dir);
    let batch = reqs.len();
    // Refilled and re-zeroed per window, so nothing a previous window
    // (or a panic inside one) left behind is ever read.
    let WindowBuffers { inputs, outputs } = buffers;
    inputs.clear();
    for req in &reqs {
        inputs.extend_from_slice(&req.input);
    }
    outputs.clear();
    outputs.resize(batch * out_len, 0.0);

    let started = Instant::now();
    let result =
        std::panic::catch_unwind(AssertUnwindSafe(|| op.apply_many_into(dir, inputs, outputs)));
    let done = Instant::now();

    // Successful budget-routed windows refine the operator's tier
    // calibration: the EMA keeps resolution honest as the machine's
    // actual per-tier throughput drifts from the first-touch samples.
    if let (Ok(Ok(())), Some((tunable, cfg))) = (&result, &tuned) {
        let per_apply = done.saturating_duration_since(started).as_secs_f64() / batch as f64;
        tunable.observe(dir, *cfg, per_apply);
    }

    let mut stats = inner.stats.lock().unwrap_or_else(PoisonError::into_inner);
    stats.batches += 1;
    stats.closed[close as usize] += 1;
    stats.batched_requests += batch as u64;
    let outcome: Result<(), ServiceError> = match result {
        Ok(Ok(())) => {
            stats.completed += batch as u64;
            if let Some((_, cfg)) = &tuned {
                stats.autotuned += batch as u64;
                *stats.configs_served.entry(cfg.to_string()).or_default() += batch as u64;
            }
            for req in &reqs {
                let ns = done.saturating_duration_since(req.submitted).as_nanos();
                stats.latency.push(ns.min(u64::MAX as u128) as u64);
            }
            Ok(())
        }
        Ok(Err(e)) => {
            stats.failed += batch as u64;
            Err(ServiceError::Shape(e))
        }
        Err(_panic) => {
            stats.panicked += batch as u64;
            Err(ServiceError::WorkerPanicked { operator: name.clone() })
        }
    };
    drop(stats);

    match outcome {
        Ok(()) => {
            for (req, out) in reqs.into_iter().zip(outputs.chunks_exact(out_len)) {
                req.ticket.complete(Ok(out.to_vec()));
            }
        }
        Err(e) => {
            for req in reqs {
                req.ticket.complete(Err(e.clone()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fftmatvec_core::{BlockToeplitzOperator, FftMatvec};

    fn registry_with_tiny_op() -> Arc<OperatorRegistry> {
        let (nd, nm, nt) = (2, 3, 8);
        let col: Vec<f64> = (0..nt * nd * nm).map(|i| ((i * 13 % 17) as f64) / 7.0).collect();
        let reg = Arc::new(OperatorRegistry::new());
        reg.register_fft(
            "tiny",
            FftMatvec::builder(
                BlockToeplitzOperator::from_first_block_column(nd, nm, nt, &col).unwrap(),
            ),
        )
        .unwrap();
        reg
    }

    #[test]
    fn roundtrip_matches_direct_apply() {
        let reg = registry_with_tiny_op();
        let service = Service::new(Arc::clone(&reg), ServiceConfig::default());
        let shape = reg.shape_of("tiny").unwrap();
        let x: Vec<f64> = (0..shape.cols).map(|i| i as f64 * 0.25 - 1.0).collect();
        let got = service.submit("tiny", OpDirection::Forward, x.clone()).unwrap().wait().unwrap();
        let entry = reg.lookup("tiny").unwrap();
        let want = entry.op.apply_forward(&x).unwrap();
        assert_eq!(got, want);
        let stats = service.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.batches, 1);
    }

    #[test]
    fn config_knobs_are_clamped() {
        let reg = registry_with_tiny_op();
        let service = Service::new(
            reg,
            ServiceConfig { max_batch: 0, queue_capacity: 0, workers: 0, ..Default::default() },
        );
        let cfg = service.config();
        assert_eq!((cfg.max_batch, cfg.queue_capacity, cfg.workers), (1, 1, 1));
    }

    #[test]
    fn latency_reservoir_is_memory_bounded_and_deterministic() {
        // Push far past capacity: retained storage stays at the cap, the
        // total count keeps the full history size, and a second run over
        // the same stream retains the exact same sample set (fixed-seed
        // Algorithm R).
        let total = 3 * LATENCY_RESERVOIR_CAP as u64 + 17;
        let mut a = LatencyReservoir::new(LATENCY_RESERVOIR_CAP);
        let mut b = LatencyReservoir::new(LATENCY_RESERVOIR_CAP);
        for i in 0..total {
            a.push(i);
            b.push(i);
        }
        assert_eq!(a.samples.len(), LATENCY_RESERVOIR_CAP);
        assert_eq!(a.count, total);
        assert_eq!(a.samples, b.samples);
        // Capacity never grows past the cap (no amortized Vec slack
        // beyond the initial fill).
        assert!(a.samples.capacity() <= 2 * LATENCY_RESERVOIR_CAP);
    }

    #[test]
    fn latency_quantile_edge_cases_are_pinned() {
        let mut stats = ServiceStats::default();
        // No samples: every quantile is None.
        assert_eq!(stats.latency_quantile_us(0.5), None);
        stats.latencies_ns = vec![3_000, 1_000, 2_000];
        stats.latency_count = 3;
        // NaN is a caller bug, not a request for the minimum.
        assert_eq!(stats.latency_quantile_us(f64::NAN), None);
        // q = 0 is the minimum, q = 1 the maximum; out-of-range clamps.
        assert_eq!(stats.latency_quantile_us(0.0), Some(1.0));
        assert_eq!(stats.latency_quantile_us(1.0), Some(3.0));
        assert_eq!(stats.latency_quantile_us(-2.0), Some(1.0));
        assert_eq!(stats.latency_quantile_us(7.0), Some(3.0));
        assert_eq!(stats.latency_quantile_us(0.5), Some(2.0));
        // A single sample answers every (non-NaN) quantile.
        stats.latencies_ns = vec![5_000];
        stats.latency_count = 1;
        assert_eq!(stats.latency_quantile_us(0.0), Some(5.0));
        assert_eq!(stats.latency_quantile_us(0.5), Some(5.0));
        assert_eq!(stats.latency_quantile_us(1.0), Some(5.0));
        assert_eq!(stats.latency_quantile_us(f64::NAN), None);
    }

    #[test]
    fn budget_submissions_are_validated_at_admission() {
        let reg = registry_with_tiny_op();
        let service = Service::new(Arc::clone(&reg), ServiceConfig::default());
        let shape = reg.shape_of("tiny").unwrap();
        let input = vec![1.0; shape.cols];
        // Non-finite / non-positive budgets are typed rejections.
        for bad in [f64::NAN, f64::INFINITY, 0.0, -1e-6] {
            let err = service
                .submit_with_budget("tiny", OpDirection::Forward, bad, input.clone())
                .unwrap_err();
            // NaN != NaN, so compare through the variant's payload.
            match err {
                ServiceError::InvalidBudget { budget } => {
                    assert!(budget == bad || (budget.is_nan() && bad.is_nan()))
                }
                other => panic!("expected InvalidBudget for {bad}, got {other:?}"),
            }
        }
        // "tiny" was registered without autotune support.
        let err = service
            .submit_with_budget("tiny", OpDirection::Forward, 1e-6, input.clone())
            .unwrap_err();
        assert_eq!(err, ServiceError::NotTunable { operator: "tiny".into() });
        // Unknown id still dominates.
        let err =
            service.submit_with_budget("nope", OpDirection::Forward, 1e-6, input).unwrap_err();
        assert_eq!(err, ServiceError::UnknownOperator("nope".into()));
        assert_eq!(service.stats().rejected, 6);
    }

    #[test]
    fn drop_drains_queued_requests() {
        let reg = registry_with_tiny_op();
        let shape = reg.shape_of("tiny").unwrap();
        // A long max_delay would park these for an hour if drop failed
        // to force the windows closed.
        let service = Service::new(
            Arc::clone(&reg),
            ServiceConfig { max_delay: Duration::from_secs(3600), ..Default::default() },
        );
        let tickets: Vec<Ticket> = (0..5)
            .map(|i| {
                service.submit("tiny", OpDirection::Adjoint, vec![i as f64; shape.rows]).unwrap()
            })
            .collect();
        drop(service);
        for t in tickets {
            assert!(t.wait().is_ok());
        }
    }

    // --- The lane policy as a transition table: fabricated instants
    //     (`t0 + Duration` arithmetic only), no threads, no sleeps. ------

    const CFG: ServiceConfig = ServiceConfig {
        max_batch: 4,
        max_delay: Duration::from_micros(200),
        queue_capacity: 1024,
        workers: 1,
    };

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    fn req(submitted: Instant, deadline: Option<Instant>) -> PendingReq {
        PendingReq { input: Vec::new(), ticket: TicketShared::new(), submitted, deadline }
    }

    #[test]
    fn lone_request_waits_once_then_lane_stops_lingering() {
        let t0 = Instant::now();
        let mut lane = Lane::default();
        assert_eq!(lane.due(t0, &CFG, false), Due::Idle);

        // Fresh lane: the lone request waits for mates, as it always has.
        lane.push(req(t0, None));
        assert_eq!(lane.due(t0, &CFG, false), Due::At(t0 + CFG.max_delay));
        assert_eq!(lane.due(t0 + us(199), &CFG, false), Due::At(t0 + CFG.max_delay));
        assert_eq!(lane.due(t0 + CFG.max_delay, &CFG, false), Due::Now(Close::Timer));
        assert_eq!(lane.carve(Close::Timer, CFG.max_batch).len(), 1);
        assert!(!lane.lingers, "the wait bought nothing");

        // The next lone request is due at its own submit instant.
        let t1 = t0 + us(300);
        lane.push(req(t1, None));
        assert_eq!(lane.due(t1, &CFG, false), Due::Now(Close::Alone));
        // Alone outranks Timer when the head is stale too.
        assert_eq!(lane.due(t1 + CFG.max_delay, &CFG, false), Due::Now(Close::Alone));
        assert_eq!(lane.carve(Close::Alone, CFG.max_batch).len(), 1);
        assert!(!lane.lingers);
        assert_eq!(lane.due(t1, &CFG, false), Due::Idle);
    }

    #[test]
    fn a_carve_of_two_or_more_rearms_lingering() {
        let t0 = Instant::now();
        let mut lane = Lane { lingers: false, ..Lane::default() };
        for k in 0..3 {
            lane.push(req(t0 + us(k), None));
        }
        // Mates piled up while the worker was busy: all go at once…
        assert_eq!(lane.due(t0 + us(3), &CFG, false), Due::Now(Close::Alone));
        assert_eq!(lane.carve(Close::Alone, CFG.max_batch).len(), 3);
        assert!(lane.lingers, "…and the lane has seen a burst");

        // …so the next lone request waits for its window again.
        let t1 = t0 + us(50);
        lane.push(req(t1, None));
        assert_eq!(lane.due(t1, &CFG, false), Due::At(t1 + CFG.max_delay));
        // A timer-closed window of two keeps the bit (N ≥ 2 closed-loop
        // callers keep lingering).
        lane.push(req(t1 + us(10), None));
        assert_eq!(lane.due(t1 + CFG.max_delay, &CFG, false), Due::Now(Close::Timer));
        assert_eq!(lane.carve(Close::Timer, CFG.max_batch).len(), 2);
        assert!(lane.lingers);
    }

    #[test]
    fn a_full_lane_is_full_whatever_its_bit() {
        let t0 = Instant::now();
        for lingers in [true, false] {
            let mut lane = Lane { lingers, ..Lane::default() };
            for _ in 0..CFG.max_batch + 1 {
                lane.push(req(t0, None));
            }
            // Full outranks Drain, Alone and Timer.
            assert_eq!(lane.due(t0, &CFG, false), Due::Now(Close::Full));
            assert_eq!(lane.due(t0 + CFG.max_delay, &CFG, true), Due::Now(Close::Full));
            assert_eq!(lane.carve(Close::Full, CFG.max_batch).len(), CFG.max_batch);
            assert!(lane.lingers);
            assert_eq!(lane.queue.len(), 1);
        }
        // One-request windows say nothing about mates: `Full` at
        // `max_batch == 1` leaves the bit where it was.
        let batch1 = ServiceConfig { max_batch: 1, ..CFG };
        for lingers in [true, false] {
            let mut lane = Lane { lingers, ..Lane::default() };
            lane.push(req(t0, None));
            assert_eq!(lane.due(t0, &batch1, false), Due::Now(Close::Full));
            assert_eq!(lane.carve(Close::Full, 1).len(), 1);
            assert_eq!(lane.lingers, lingers);
        }
    }

    #[test]
    fn shutdown_drains_without_touching_the_bit() {
        let t0 = Instant::now();
        for (lingers, queued) in [(true, 1), (false, 1), (true, 3), (false, 3)] {
            let mut lane = Lane { lingers, ..Lane::default() };
            for _ in 0..queued {
                lane.push(req(t0, None));
            }
            assert_eq!(lane.due(t0, &CFG, true), Due::Now(Close::Drain));
            assert_eq!(lane.carve(Close::Drain, CFG.max_batch).len(), queued);
            assert_eq!(lane.lingers, lingers);
            assert_eq!(lane.due(t0, &CFG, true), Due::Idle);
        }
    }

    #[test]
    fn an_early_deadline_sets_the_wake_and_expiry_is_not_a_window() {
        let t0 = Instant::now();
        let deadline = t0 + us(50);
        for lingers in [true, false] {
            let mut lane = Lane { lingers, ..Lane::default() };
            lane.push(req(t0, Some(deadline)));
            assert_eq!(lane.deadlines, 1);
            // Sooner than the head going stale: wake for it. (On a lane
            // that dispatches at once, expiry wins because the worker
            // sweeps before it carves, not through `due`.)
            let want = if lingers { Due::At(deadline) } else { Due::Now(Close::Alone) };
            assert_eq!(lane.due(t0, &CFG, false), want);
            // Not lapsed yet: nothing to expire.
            let mut expired = Vec::new();
            lane.expire(t0 + us(49), |r| expired.push(r));
            assert!(expired.is_empty());
            lane.expire(deadline, |r| expired.push(r));
            assert_eq!(expired.len(), 1);
            assert_eq!(lane.deadlines, 0);
            assert_eq!(lane.lingers, lingers, "a head that expires tells nothing about mates");
            assert_eq!(lane.due(deadline, &CFG, false), Due::Idle);
        }
        // A deadline later than the window close does not delay it.
        let mut lane = Lane::default();
        lane.push(req(t0, Some(t0 + us(900))));
        assert_eq!(lane.due(t0, &CFG, false), Due::At(t0 + CFG.max_delay));
    }

    #[test]
    fn deadline_count_reconciles_across_submit_expiry_and_carve() {
        let t0 = Instant::now();
        let mut lane = Lane::default();
        // plain, soon, plain, late, soon, plain — submitted 1 µs apart.
        let soon = t0 + us(20);
        let late = t0 + us(5_000);
        for (k, deadline) in
            [None, Some(soon), None, Some(late), Some(soon), None].iter().enumerate()
        {
            lane.push(req(t0 + us(k as u64), *deadline));
        }
        assert_eq!((lane.queue.len(), lane.deadlines), (6, 3));
        assert_eq!(lane.due(t0 + us(6), &CFG, false), Due::Now(Close::Full));

        // Expiry removes by index and keeps the survivors in order.
        let mut expired = Vec::new();
        lane.expire(soon, |r| expired.push(r));
        assert_eq!(expired.len(), 2);
        assert!(expired.iter().all(|r| r.deadline == Some(soon)));
        assert_eq!((lane.queue.len(), lane.deadlines), (4, 1));
        let order: Vec<Instant> = lane.queue.iter().map(|r| r.submitted).collect();
        assert_eq!(order, [t0, t0 + us(2), t0 + us(3), t0 + us(5)]);

        // A carve takes the deadline-carrying request with it.
        let reqs = lane.carve(Close::Full, 3);
        assert_eq!(reqs.len(), 3);
        assert_eq!((lane.queue.len(), lane.deadlines), (1, 0));
        assert_eq!(lane.due(t0 + us(30), &CFG, false), Due::At(t0 + us(5) + CFG.max_delay));
    }

    #[test]
    fn first_non_finite_finds_the_first_bad_entry() {
        assert_eq!(first_non_finite::<f64>(&[]), None);
        assert_eq!(first_non_finite(&vec![1.0; 200]), None);
        assert_eq!(first_non_finite(&[f64::MAX, -0.0, f64::MIN_POSITIVE / 2.0]), None);
        for (at, bad) in
            [(0, f64::NAN), (63, f64::INFINITY), (64, f64::NEG_INFINITY), (199, -f64::NAN)]
        {
            let mut x = vec![0.5; 200];
            x[at] = bad;
            x[199.min(at + 70)] = f64::NAN;
            assert_eq!(first_non_finite(&x), Some(at), "{bad} at {at}");
        }
    }
}
