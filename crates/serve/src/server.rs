//! The daemon: acceptor, admission queue, worker pool, routing, the
//! resilience stack, and graceful shutdown.
//!
//! Thread shape: one **acceptor** blocks on [`TcpListener::accept`] and
//! offers each connection to the bounded [`AdmissionQueue`] — at capacity
//! it writes `503 + Retry-After` inline and closes, so overload costs one
//! socket write, never unbounded memory. `workers` threads block on
//! [`AdmissionQueue::pop`] and speak keep-alive HTTP/1.1.
//!
//! Around planning sits the [`ap_resilience`] stack, outside in:
//! per-endpoint **bulkheads** (a slow `/plan` burst cannot absorb the
//! capacity `/simulate` runs on), a per-request **deadline budget**
//! (refinement checks remaining budget between rounds), and a **circuit
//! breaker** around engine verification. When the breaker is open — or
//! the budget runs out first — `/plan` still answers 200 with the cached
//! or analytic-only plan, marked `"degraded": true` with a reason. The
//! daemon sheds and degrades; it does not 500 and it does not wedge.
//!
//! Shutdown (from [`ServerHandle::shutdown`] or `POST /shutdown`) drains:
//! set the draining flag (read polls notice within [`http::Timing::poll`]
//! on idle keep-alive connections), close the queue (workers finish what
//! was admitted, then exit), then wake the acceptor with a loopback
//! connect so its blocking `accept` returns and it can observe the stop
//! flag.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ap_json::{Json, ToJson};
use ap_resilience::{
    Admission, BreakerConfig, Bulkhead, CircuitBreaker, Clock, Deadline, Mode, SystemClock,
};
use ap_sched::{AdmitOutcome, ClusterScheduler, SchedConfig, SchedEvent, ScheduleSnapshot};
use autopipe::HillClimbPlanner;

use crate::admission::{AdmissionQueue, Admit};
use crate::api::{self, ApiError, ClusterSpec, PlanRequest, SimulateRequest};
use crate::cache::{fnv1a64, PlanCache};
use crate::http::{self, ReadError, Request, Timing};
use crate::jobs;
use crate::metrics::{render_metrics, render_stats, Endpoint, Histogram, Reason, Snapshot};

/// Knobs for the resilience stack. Defaults suit an interactive daemon;
/// tests shrink windows and cooldowns (or set a bulkhead to 0) to drive
/// state transitions deterministically.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Breaker rolling outcome window.
    pub breaker_window: usize,
    /// Outcomes required in the window before the breaker may trip.
    pub breaker_min_samples: usize,
    /// Failure fraction in the window that trips the breaker.
    pub breaker_failure_rate: f64,
    /// How long an open breaker rejects before probing, ms.
    pub breaker_cooldown_ms: u64,
    /// Successful half-open probes required to close.
    pub breaker_probes: usize,
    /// Concurrent `/plan` computations (0 = reject all).
    pub plan_bulkhead: usize,
    /// Concurrent `/simulate` computations (0 = reject all).
    pub simulate_bulkhead: usize,
    /// Planning budget when the request names none, ms.
    pub default_deadline_ms: u64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            breaker_window: 16,
            breaker_min_samples: 8,
            breaker_failure_rate: 0.5,
            breaker_cooldown_ms: 5_000,
            breaker_probes: 1,
            plan_bulkhead: 8,
            simulate_bulkhead: 8,
            default_deadline_ms: 30_000,
        }
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads (each owns one connection at a time).
    pub workers: usize,
    /// Admission queue bound — waiting connections beyond this are shed.
    pub queue_capacity: usize,
    /// Plan cache capacity, entries.
    pub cache_capacity: usize,
    /// Socket timing (poll interval, request deadline, response timeout).
    pub timing: Timing,
    /// Breaker / bulkhead / deadline knobs.
    pub resilience: ResilienceConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            // One worker per available core, at most 16.
            workers: std::thread::available_parallelism().map_or(1, |n| n.get().min(16)),
            queue_capacity: 64,
            cache_capacity: 128,
            timing: Timing::default(),
            resilience: ResilienceConfig::default(),
        }
    }
}

struct State {
    addr: SocketAddr,
    workers: usize,
    timing: Timing,
    /// Rendered `/plan` hit bodies (`"cached": true`), keyed by request
    /// digest.
    cache: Mutex<PlanCache<Arc<str>>>,
    queue: AdmissionQueue,
    clock: Arc<dyn Clock>,
    /// Around engine verification of `/plan`; open means "serve the
    /// analytic answer, stop paying for the engine".
    verify_breaker: CircuitBreaker,
    plan_bulkhead: Bulkhead,
    simulate_bulkhead: Bulkhead,
    default_deadline: Duration,
    plan_latency: Histogram,
    simulate_latency: Histogram,
    /// The cluster control plane: resident jobs, queue, live placement.
    sched: Mutex<ClusterScheduler>,
    sched_replan_latency: Histogram,
    /// Contention neighborhood of the last scheduler event.
    last_neighborhood: AtomicU64,
    /// Set first on shutdown: idle keep-alive reads abort promptly.
    draining: AtomicBool,
    /// Tells the acceptor (once woken) to exit.
    stop: AtomicBool,
    started: Instant,
    /// Requests read off a connection, routed or not.
    requests: AtomicU64,
    /// Routed requests, indexed by [`Endpoint`].
    by_endpoint: [AtomicU64; Endpoint::ALL.len()],
    error_responses: AtomicU64,
    /// Responses fully written — the drain-rate numerator for the
    /// computed `Retry-After` hint.
    completed_responses: AtomicU64,
    /// Degraded `/plan` answers, indexed by [`Reason`].
    degraded: [AtomicU64; Reason::ALL.len()],
    /// Memory feasibility checks that fitted (possibly clamped/switched).
    mem_checks_fit: AtomicU64,
    /// Memory feasibility checks where nothing fits — typed rejections.
    mem_checks_infeasible: AtomicU64,
    /// Plans that abandoned the requested schedule to fit memory.
    mem_schedule_switches: AtomicU64,
    /// Modeled peak per-stage bytes of the last fitted `/plan` answer.
    mem_modeled_peak_bytes: AtomicU64,
}

/// Compute a `Retry-After` hint (seconds) from observed service rate:
/// with `depth` connections queued ahead and `completed` responses
/// finished over `uptime_secs`, the expected wait is `(depth + 1) /
/// rate`, rounded up and clamped to `[1, 30]`. Before any response has
/// completed the daemon assumes a brisk 10 req/s rather than guessing
/// slow and turning clients away for longer than needed.
pub fn retry_after_secs(depth: usize, completed: u64, uptime_secs: f64) -> u64 {
    let rate = if completed > 0 && uptime_secs > 1e-3 {
        (completed as f64 / uptime_secs).max(0.1)
    } else {
        10.0
    };
    (((depth as f64 + 1.0) / rate).ceil() as u64).clamp(1, 30)
}

impl State {
    /// Initiate the drain sequence; idempotent, callable from any thread.
    fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.queue.close();
        self.stop.store(true, Ordering::SeqCst);
        // Wake the acceptor out of its blocking accept().
        let _ = TcpStream::connect(self.addr);
    }

    fn retry_after_hint(&self) -> u64 {
        retry_after_secs(
            self.queue.depth(),
            self.completed_responses.load(Ordering::Relaxed),
            self.started.elapsed().as_secs_f64(),
        )
    }

    /// Count one request routed to `e`.
    fn hit(&self, e: Endpoint) {
        self.by_endpoint[e as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Read everything `/stats` and `/metrics` report, taking each lock
    /// once so values from one source are mutually consistent.
    fn snapshot(&self) -> Snapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let cache = self.cache.lock().unwrap();
        let (cache_hits, cache_misses, cache_entries, cache_capacity, cache_generation) =
            cache.stats();
        let cache_hit_rate = cache.hit_rate();
        drop(cache);
        let sched = self.sched.lock().unwrap();
        let (sched_resident, sched_queued) = (sched.n_resident(), sched.n_queued());
        let (sched_counters, sched_aggregate) = (sched.counters(), sched.cached_aggregate());
        drop(sched);
        Snapshot {
            uptime_secs: self.started.elapsed().as_secs_f64(),
            requests: load(&self.requests),
            by_endpoint: self.by_endpoint.each_ref().map(load),
            errors: load(&self.error_responses),
            degraded: self.degraded.each_ref().map(load),
            cache_hits,
            cache_misses,
            cache_entries,
            cache_capacity,
            cache_hit_rate,
            cache_generation,
            queue: self.queue.stats(),
            queue_capacity: self.queue.capacity(),
            breaker: self.verify_breaker.snapshot(),
            plan_bulkhead: self.plan_bulkhead.snapshot(),
            simulate_bulkhead: self.simulate_bulkhead.snapshot(),
            plan_latency: self.plan_latency.snapshot(),
            simulate_latency: self.simulate_latency.snapshot(),
            workers: self.workers,
            draining: self.draining.load(Ordering::Relaxed),
            sched_resident,
            sched_queued,
            sched: sched_counters,
            sched_aggregate,
            sched_neighborhood: load(&self.last_neighborhood),
            sched_replan_latency: self.sched_replan_latency.snapshot(),
            mem_fit: load(&self.mem_checks_fit),
            mem_infeasible: load(&self.mem_checks_infeasible),
            mem_switches: load(&self.mem_schedule_switches),
            mem_peak_bytes: load(&self.mem_modeled_peak_bytes),
        }
    }
}

/// A running daemon. Dropping the handle does **not** stop it; call
/// [`ServerHandle::shutdown`] (or POST `/shutdown` and then
/// [`ServerHandle::wait`]).
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<State>,
    acceptor: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Drain in-flight requests and stop. Blocks until every thread has
    /// exited. Idempotent.
    pub fn shutdown(&mut self) {
        self.state.begin_drain();
        self.join_all();
    }

    /// Block until the daemon stops on its own (e.g. via `POST
    /// /shutdown`).
    pub fn wait(mut self) {
        self.join_all();
    }

    fn join_all(&mut self) {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.worker_handles.drain(..) {
            let _ = w.join();
        }
    }
}

/// Bind, start the acceptor and worker pool, return immediately.
pub fn spawn(cfg: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let workers = cfg.workers.max(1);
    let clock: Arc<dyn Clock> = SystemClock::shared();
    let r = &cfg.resilience;
    let state = Arc::new(State {
        addr,
        workers,
        timing: cfg.timing.clone(),
        cache: Mutex::new(PlanCache::new(cfg.cache_capacity)),
        queue: AdmissionQueue::new(cfg.queue_capacity),
        verify_breaker: CircuitBreaker::new(
            BreakerConfig {
                window: r.breaker_window,
                min_samples: r.breaker_min_samples,
                failure_rate: r.breaker_failure_rate,
                cooldown: Duration::from_millis(r.breaker_cooldown_ms),
                half_open_probes: r.breaker_probes,
            },
            Arc::clone(&clock),
        ),
        plan_bulkhead: Bulkhead::new(r.plan_bulkhead),
        simulate_bulkhead: Bulkhead::new(r.simulate_bulkhead),
        default_deadline: Duration::from_millis(r.default_deadline_ms),
        sched: Mutex::new(ClusterScheduler::new(
            ClusterSpec::default_testbed().to_state().topology,
            SchedConfig::default(),
            Box::new(HillClimbPlanner::default()),
            Arc::clone(&clock),
        )),
        sched_replan_latency: Histogram::new(),
        last_neighborhood: AtomicU64::new(0),
        clock,
        plan_latency: Histogram::new(),
        simulate_latency: Histogram::new(),
        draining: AtomicBool::new(false),
        stop: AtomicBool::new(false),
        started: Instant::now(),
        requests: AtomicU64::new(0),
        by_endpoint: Default::default(),
        error_responses: AtomicU64::new(0),
        completed_responses: AtomicU64::new(0),
        degraded: Default::default(),
        mem_checks_fit: AtomicU64::new(0),
        mem_checks_infeasible: AtomicU64::new(0),
        mem_schedule_switches: AtomicU64::new(0),
        mem_modeled_peak_bytes: AtomicU64::new(0),
    });

    let accept_state = Arc::clone(&state);
    let acceptor = std::thread::Builder::new()
        .name("ap-serve-accept".to_string())
        .spawn(move || acceptor_loop(listener, &accept_state))?;

    let mut worker_handles = Vec::with_capacity(workers);
    for i in 0..workers {
        let worker_state = Arc::clone(&state);
        worker_handles.push(
            std::thread::Builder::new()
                .name(format!("ap-serve-worker-{i}"))
                .spawn(move || worker_loop(&worker_state))?,
        );
    }

    Ok(ServerHandle {
        addr,
        state,
        acceptor: Some(acceptor),
        worker_handles,
    })
}

fn acceptor_loop(listener: TcpListener, state: &State) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => {
                if state.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if state.stop.load(Ordering::SeqCst) {
            // The wake-up connect (or a late client); nothing to serve.
            return;
        }
        let _ = stream.set_nodelay(true);
        match state.queue.offer(stream) {
            Admit::Enqueued => {}
            Admit::Shed(mut s) | Admit::Closed(mut s) => {
                // One cheap write on the acceptor thread; the worker pool
                // never sees shed load. The Retry-After is computed from
                // queue depth and the observed drain rate, so a fleet of
                // backed-off clients returns when capacity plausibly
                // exists rather than in one thundering second.
                state.error_responses.fetch_add(1, Ordering::Relaxed);
                let hint = state.retry_after_hint();
                let body = ApiError {
                    status: 503,
                    kind: "overloaded".to_string(),
                    message: format!("admission queue full; retry in {hint}s"),
                    detail: None,
                }
                .body();
                let _ = http::respond(
                    &mut s,
                    503,
                    &[("Retry-After", hint.to_string())],
                    &body.pretty(),
                    true,
                );
            }
        }
    }
}

fn worker_loop(state: &State) {
    while let Some(mut stream) = state.queue.pop() {
        serve_connection(&mut stream, state);
    }
}

fn serve_connection(stream: &mut TcpStream, state: &State) {
    // One read timeout for the connection's life: every read polls at
    // this interval so an idle keep-alive wait notices a drain.
    if stream.set_read_timeout(Some(state.timing.poll)).is_err() {
        return;
    }
    loop {
        let req = match http::read_request(stream, &state.draining, &state.timing) {
            Ok(req) => req,
            Err(ReadError::Closed) | Err(ReadError::Draining) | Err(ReadError::Io(_)) => return,
            Err(ReadError::HeadTooLarge) => {
                let _ = error_response(
                    stream,
                    state,
                    431,
                    "head-too-large",
                    "request head exceeds 8 KiB",
                );
                return;
            }
            Err(ReadError::BodyTooLarge) => {
                let _ = error_response(
                    stream,
                    state,
                    413,
                    "body-too-large",
                    "request body exceeds 1 MiB",
                );
                return;
            }
            Err(ReadError::Malformed(m)) => {
                let _ = error_response(stream, state, 400, "malformed-request", m);
                return;
            }
            Err(ReadError::TimedOut) => {
                let _ = error_response(
                    stream,
                    state,
                    408,
                    "request-timeout",
                    "request did not arrive in time",
                );
                return;
            }
        };
        state.requests.fetch_add(1, Ordering::Relaxed);
        let handled_at = Instant::now();
        let (status, extra, body) = route(state, &req);
        match req.path.as_str() {
            "/plan" => state
                .plan_latency
                .observe(handled_at.elapsed().as_secs_f64()),
            "/simulate" => state
                .simulate_latency
                .observe(handled_at.elapsed().as_secs_f64()),
            _ => {}
        }
        if status >= 400 {
            state.error_responses.fetch_add(1, Ordering::Relaxed);
        }
        let close = req.wants_close() || state.draining.load(Ordering::Relaxed);
        let written = match &body {
            Body::Json(j) => http::respond(stream, status, &extra, &j.pretty(), close),
            Body::Rendered(text) => http::respond(stream, status, &extra, text, close),
            Body::Text(t) => http::respond_typed(
                stream,
                status,
                "text/plain; version=0.0.4; charset=utf-8",
                &extra,
                t,
                close,
            ),
        };
        if written.is_ok() {
            state.completed_responses.fetch_add(1, Ordering::Relaxed);
        }
        if written.is_err() || close {
            return;
        }
    }
}

fn error_response(
    stream: &mut TcpStream,
    state: &State,
    status: u16,
    kind: &str,
    message: &str,
) -> io::Result<()> {
    state.error_responses.fetch_add(1, Ordering::Relaxed);
    let body = ApiError {
        status,
        kind: kind.to_string(),
        message: message.to_string(),
        detail: None,
    }
    .body();
    http::respond(stream, status, &[], &body.pretty(), true)
}

/// A response body: JSON everywhere except the Prometheus exposition.
enum Body {
    Json(Json),
    /// JSON rendered ahead of time: a `/plan` answer, served as stored.
    Rendered(Arc<str>),
    Text(String),
}

type Routed = (u16, Vec<(&'static str, String)>, Body);

fn route(state: &State, req: &Request) -> Routed {
    let ok = |j: Json| (200u16, Vec::new(), Body::Json(j));
    let err = |e: ApiError| (e.status, Vec::new(), Body::Json(e.body()));
    // The one parameterized route: `/jobs/{id}` (DELETE only).
    if let Some(id_str) = req.path.strip_prefix("/jobs/") {
        state.hit(Endpoint::Jobs);
        if req.method.as_str() != "DELETE" {
            return err(ApiError {
                status: 405,
                kind: "method-not-allowed".to_string(),
                message: format!("{} only accepts DELETE", req.path),
                detail: None,
            });
        }
        return match handle_job_delete(state, id_str) {
            Ok(j) => ok(j),
            Err(e) => err(e),
        };
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/health") => {
            state.hit(Endpoint::Health);
            ok(Json::obj(vec![("status", "ok".to_json())]))
        }
        ("GET", "/stats") => {
            state.hit(Endpoint::Stats);
            ok(render_stats(&state.snapshot()))
        }
        ("GET", "/metrics") => {
            state.hit(Endpoint::Metrics);
            let text = render_metrics(&state.snapshot());
            (200, Vec::new(), Body::Text(text))
        }
        ("POST", "/plan") => match handle_plan(state, &req.body) {
            Ok(body) => (200, Vec::new(), body),
            Err(e) => {
                // A full bulkhead is the one JSON error that carries a
                // computed Retry-After: the caller should come back, just
                // not immediately.
                let mut extra = Vec::new();
                if e.kind == "bulkhead-full" {
                    extra.push(("Retry-After", state.retry_after_hint().to_string()));
                }
                (e.status, extra, Body::Json(e.body()))
            }
        },
        ("POST", "/simulate") => match handle_simulate(state, &req.body) {
            Ok(j) => ok(j),
            Err(e) => {
                let mut extra = Vec::new();
                if e.kind == "bulkhead-full" {
                    extra.push(("Retry-After", state.retry_after_hint().to_string()));
                }
                (e.status, extra, Body::Json(e.body()))
            }
        },
        ("POST", "/jobs") => match handle_job_submit(state, &req.body) {
            Ok((status, j)) => (status, Vec::new(), Body::Json(j)),
            Err(e) => err(e),
        },
        ("GET", "/schedule") => {
            state.hit(Endpoint::Schedule);
            let sched = state.sched.lock().unwrap();
            ok(ScheduleSnapshot::of(&sched).to_json())
        }
        ("POST", "/invalidate") => {
            state.hit(Endpoint::Invalidate);
            let generation = state.cache.lock().unwrap().invalidate_all();
            ok(Json::obj(vec![
                ("invalidated", true.to_json()),
                ("generation", generation.to_json()),
            ]))
        }
        ("POST", "/breaker") => match handle_breaker(state, &req.body) {
            Ok(j) => ok(j),
            Err(e) => err(e),
        },
        ("POST", "/shutdown") => {
            state.hit(Endpoint::Shutdown);
            state.begin_drain();
            ok(Json::obj(vec![("draining", true.to_json())]))
        }
        (_, path) if Endpoint::of_path(path).is_some() => err(ApiError {
            status: 405,
            kind: "method-not-allowed".to_string(),
            message: format!("{} does not accept {}", req.path, req.method),
            detail: None,
        }),
        _ => err(ApiError {
            status: 404,
            kind: "not-found".to_string(),
            message: format!("no route for {}", req.path),
            detail: None,
        }),
    }
}

/// Replace (or append) a top-level field of an object.
fn set_field(obj: &mut Json, key: &str, value: Json) {
    if let Json::Obj(pairs) = obj {
        if let Some(slot) = pairs.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
            return;
        }
        pairs.push((key.to_string(), value));
    }
}

/// Record a successful memory fit on the counters and remember the
/// tightest stage's modeled peak for the `ap_mem_modeled_peak_stage_bytes`
/// gauge.
fn self_observe_mem_fit(state: &State, refined: &api::RefinedPlan) {
    state.mem_checks_fit.fetch_add(1, Ordering::Relaxed);
    if refined.schedule_switched {
        state.mem_schedule_switches.fetch_add(1, Ordering::Relaxed);
    }
    let peak = refined
        .mem
        .stages
        .iter()
        .map(|s| s.required)
        .fold(0.0, f64::max);
    state
        .mem_modeled_peak_bytes
        .store(peak as u64, Ordering::Relaxed);
}

/// `/plan` behind the full stack — bulkhead, deadline, breaker — with
/// graceful degradation. The invariant: a request that parses and
/// validates gets **200 with a plan**. The engine not running (breaker
/// open, budget spent, verification error) downgrades the answer to the
/// analytic one, marked `"degraded": true`; it never becomes a 500.
///
/// A verified answer is rendered twice, once as this reply and once with
/// `"cached": true` as the body every later hit writes unchanged.
fn handle_plan(state: &State, body: &[u8]) -> Result<Body, ApiError> {
    state.hit(Endpoint::Plan);
    let parsed = api::parse_body(body)?;
    let req = PlanRequest::from_json(&parsed)?;

    // Bulkhead first: shed before spending any budget.
    let Some(_permit) = state.plan_bulkhead.try_acquire() else {
        return Err(ApiError {
            status: 503,
            kind: "bulkhead-full".to_string(),
            message: format!(
                "{} /plan computations already in flight; retry shortly",
                state.plan_bulkhead.capacity()
            ),
            detail: None,
        });
    };

    // Cache next: hits are served even while the breaker is open — a
    // previously verified plan is exactly the graceful fallback.
    let digest = fnv1a64(&req.canonical_key());
    if let Some(hit) = state.cache.lock().unwrap().get(digest) {
        return Ok(Body::Rendered(hit));
    }

    // Deadline brackets all computation on behalf of this request.
    let budget = req
        .planner
        .deadline_ms
        .map(Duration::from_millis)
        .unwrap_or(state.default_deadline);
    let deadline = Deadline::after(Arc::clone(&state.clock), budget);

    // Compute outside the cache lock: planning takes milliseconds and
    // other workers' cache hits must not wait on it. Concurrent misses on
    // the same key may compute twice; both arrive at the same plan.
    let refined = match api::refine_plan(&req, Some(&deadline)) {
        Ok(r) => {
            self_observe_mem_fit(state, &r);
            r
        }
        Err(e) => {
            if e.kind == "memory-infeasible" {
                state.mem_checks_infeasible.fetch_add(1, Ordering::Relaxed);
            }
            return Err(e);
        }
    };
    // The analytic answer, marked degraded and counted by reason.
    let degrade = |reason: Reason| {
        state.degraded[reason as usize].fetch_add(1, Ordering::Relaxed);
        Ok(Body::Json(api::plan_response(
            &req,
            &refined,
            None,
            Some(reason.id()),
        )))
    };
    if deadline.expired() {
        // The analytic phase ate the whole budget; the engine would only
        // overrun further. Counts as a failure on the breaker — a slow
        // dependency and a dead one look the same to the caller.
        state.verify_breaker.record_failure();
        return degrade(Reason::DeadlineExhausted);
    }

    match state.verify_breaker.try_acquire() {
        Admission::Rejected => degrade(Reason::BreakerOpen),
        Admission::Allowed => match api::verify_plan(&req, &refined) {
            Ok(verified) => {
                if deadline.expired() {
                    // Verified, but past the caller's patience: return
                    // the full answer (it is in hand) yet record the
                    // overrun as a breaker failure and skip caching —
                    // plans that cost more than their budget should not
                    // be rewarded.
                    state.verify_breaker.record_failure();
                    return Ok(Body::Json(api::plan_response(
                        &req,
                        &refined,
                        Some(&verified),
                        None,
                    )));
                }
                state.verify_breaker.record_success();
                let mut response = api::plan_response(&req, &refined, Some(&verified), None);
                let reply: Arc<str> = response.pretty().into();
                set_field(&mut response, "cached", true.to_json());
                let hit_body: Arc<str> = response.pretty().into();
                state.cache.lock().unwrap().insert(digest, hit_body);
                Ok(Body::Rendered(reply))
            }
            Err(_) => {
                state.verify_breaker.record_failure();
                degrade(Reason::VerificationFailed)
            }
        },
    }
}

fn handle_simulate(state: &State, body: &[u8]) -> Result<Json, ApiError> {
    state.hit(Endpoint::Simulate);
    let parsed = api::parse_body(body)?;
    let req = SimulateRequest::from_json(&parsed)?;
    let Some(_permit) = state.simulate_bulkhead.try_acquire() else {
        return Err(ApiError {
            status: 503,
            kind: "bulkhead-full".to_string(),
            message: format!(
                "{} /simulate computations already in flight; retry shortly",
                state.simulate_bulkhead.capacity()
            ),
            detail: None,
        });
    };
    api::compute_simulate(&req)
}

/// `POST /jobs`: admit a job into the cluster control plane. 200 with
/// the placement when it fits, 202 when queued with a typed reason, 409
/// when the cluster can never host it.
fn handle_job_submit(state: &State, body: &[u8]) -> Result<(u16, Json), ApiError> {
    state.hit(Endpoint::Jobs);
    let parsed = api::parse_body(body)?;
    let req = jobs::parse_submit(&parsed)?;
    let now = state.started.elapsed().as_secs_f64();
    let mut sched = state.sched.lock().unwrap();
    let out = sched.on_event(now, &SchedEvent::Arrive(req));
    state.sched_replan_latency.observe(out.replan.latency_s);
    state
        .last_neighborhood
        .store(out.replan.neighborhood as u64, Ordering::Relaxed);
    match out.admit.as_ref() {
        Some(AdmitOutcome::Placed(_)) => {
            state.mem_checks_fit.fetch_add(1, Ordering::Relaxed);
        }
        Some(AdmitOutcome::Rejected(r)) if r.id() == "memory-infeasible" => {
            state.mem_checks_infeasible.fetch_add(1, Ordering::Relaxed);
        }
        _ => {}
    }
    jobs::submit_json(&out, &sched)
}

/// `DELETE /jobs/{id}`: remove a resident or queued job. 400 on a
/// non-numeric id, 404 on an unknown one.
fn handle_job_delete(state: &State, id_str: &str) -> Result<Json, ApiError> {
    let id = jobs::parse_job_id(id_str)?;
    let now = state.started.elapsed().as_secs_f64();
    let mut sched = state.sched.lock().unwrap();
    let was_resident = sched.job(id).is_some();
    let was_queued = sched.queued().any(|(_, qid, _)| qid == id);
    if !was_resident && !was_queued {
        return Err(ApiError {
            status: 404,
            kind: "unknown-job".to_string(),
            message: format!("no job with id {}", id.0),
            detail: None,
        });
    }
    let out = sched.on_event(now, &SchedEvent::Depart(id));
    state.sched_replan_latency.observe(out.replan.latency_s);
    state
        .last_neighborhood
        .store(out.replan.neighborhood as u64, Ordering::Relaxed);
    Ok(jobs::delete_json(id, was_resident, &out))
}

/// `POST /breaker`: force the verify breaker open or closed, or return
/// it to automatic operation. Body: `{"mode": "auto" | "forced_open" |
/// "forced_closed"}`. The operator's lever for planned engine
/// maintenance — and the deterministic way to exercise the degraded
/// path.
fn handle_breaker(state: &State, body: &[u8]) -> Result<Json, ApiError> {
    state.hit(Endpoint::Breaker);
    let parsed = api::parse_body(body)?;
    if parsed.as_obj().is_none() {
        return Err(ApiError::bad_request(
            "bad-body",
            "request body must be a JSON object",
        ));
    }
    let mode_str = parsed
        .get("mode")
        .ok_or_else(|| ApiError::bad_request("missing-field", "request needs a \"mode\""))?
        .as_str()
        .ok_or_else(|| ApiError::bad_request("bad-field", "mode must be a string"))?;
    let mode = Mode::parse(mode_str).ok_or_else(|| {
        ApiError::unprocessable(
            "unknown-mode",
            format!("unknown mode {mode_str:?}; known: auto, forced_open, forced_closed"),
        )
    })?;
    state.verify_breaker.set_mode(mode);
    Ok(Json::obj(vec![
        ("mode", mode.id().to_json()),
        ("state", state.verify_breaker.state().id().to_json()),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_after_tracks_depth_and_drain_rate() {
        // 100 responses over 10s = 10 req/s; 19 queued ahead -> 2s.
        assert_eq!(retry_after_secs(19, 100, 10.0), 2);
        // Same depth, slower server (1 req/s) -> 20s.
        assert_eq!(retry_after_secs(19, 10, 10.0), 20);
        // Empty queue on a fast server -> the 1s floor.
        assert_eq!(retry_after_secs(0, 1000, 10.0), 1);
        // Catastrophic backlog clamps at 30s, not minutes.
        assert_eq!(retry_after_secs(10_000, 10, 100.0), 30);
        // No completions yet: assume 10 req/s rather than guessing slow.
        assert_eq!(retry_after_secs(5, 0, 0.5), 1);
    }

    #[test]
    fn retry_after_is_monotone_in_depth() {
        let mut prev = 0;
        for depth in [0usize, 1, 4, 16, 64, 256] {
            let s = retry_after_secs(depth, 50, 10.0);
            assert!(s >= prev, "hint shrank as the queue grew");
            prev = s;
        }
    }
}
