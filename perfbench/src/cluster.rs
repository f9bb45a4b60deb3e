//! The `cluster` workload: one `ClusterScheduler::on_event` per
//! operation over a seeded trace of arrivals, departures, worker faults
//! and link flaps on cluster-bench's 1000-job fabric.

use std::time::{Duration, Instant};

use ap_cluster::{ClusterState, ClusterTopology, FaultPlanConfig, GpuKind};
use ap_models::{alexnet, synthetic_skewed, ModelProfile};
use ap_pipesim::Partition;
use ap_resilience::SystemClock;
use ap_sched::trace::{self, TimedEvent, TraceConfig, TraceEventKind};
use ap_sched::{
    AdmitOutcome, ClusterScheduler, EventOutcome, JobId, MultiJobEnv, ProposePlan, SchedConfig,
    SchedCounters, SchedEvent,
};
use autopipe::HillClimbPlanner;

use crate::report::{cpu_s, geomean, Outcome, Timing};
use crate::span;

/// Jobs cluster-bench sizes its largest fabric for: 125 servers x 4 GPUs.
const FABRIC_JOBS: usize = 1000;
/// Arrivals in the generated trace (about two events each, plus faults).
const TRACE_JOBS: usize = 3000;
/// Events replayed during set-up; residency is steady (~220 jobs) by then.
const WARMUP_EVENTS: usize = 1000;
/// The timed window of each trace. Per-event cost rises along a trace
/// even at steady residency, so the timed phase replays this same window
/// from a fork of the warmed scheduler instead of running on down the
/// trace.
const WINDOW_EVENTS: usize = 1000;
/// Independent traces per run, each set up once (`setup_s` is the median
/// of their set-ups) and replayed in turn. One trace's state is a single
/// random draw: over ten seeds the proposals one 2000-event window makes
/// vary by 9.6% (coefficient of variation), those of eight 1000-event
/// windows by 2.5%.
const TRACES: u64 = 8;
/// Whole-world best-response rounds for the quality reference.
const QUALITY_ROUNDS: usize = 4;

/// The model palette cluster-bench's jobs draw from.
fn palette() -> Vec<(&'static str, ModelProfile)> {
    vec![
        ("alexnet", ModelProfile::of(&alexnet())),
        (
            "synthetic-skewed",
            ModelProfile::with_batch(&synthetic_skewed(8, 2e9, 20e6, 8e6), 32),
        ),
        (
            "synthetic-wide",
            ModelProfile::with_batch(&synthetic_skewed(12, 4e9, 30e6, 12e6), 64),
        ),
    ]
}

/// Cluster-bench's 1000-job fabric and fault rates, with a longer trace.
fn fabric() -> (ClusterTopology, TraceConfig) {
    let servers = FABRIC_JOBS / 8;
    let gpus = servers * 4;
    let topo = ClusterTopology::single_switch(servers, 4, GpuKind::P100, 25.0);
    let mean_duration_s = 0.5 * gpus as f64;
    let span = FABRIC_JOBS as f64 + 3.0 * mean_duration_s;
    let cfg = TraceConfig {
        n_jobs: TRACE_JOBS,
        arrival_rate_hz: 1.0,
        mean_duration_s,
        min_gpus: 1,
        max_gpus: 4,
        adaptive_fraction: 0.7,
        faults: Some(FaultPlanConfig {
            mtbf: span / 4.0,
            mttr: span / 8.0,
            max_concurrent_failures: 2,
            flap_mtbf: span / 3.0,
            flap_down_gbps: 2.0,
            flap_period: (span / 50.0).max(1.0),
            flap_count: 2,
        }),
    };
    (topo, cfg)
}

/// Trace `k` of workload seed `seed`.
pub fn events(seed: u64, k: u64) -> Vec<TimedEvent> {
    let (topo, cfg) = fabric();
    trace::generate(
        &topo,
        &palette(),
        &cfg,
        seed.wrapping_mul(TRACES).wrapping_add(k),
    )
}

/// Every trace of workload seed `seed`.
pub fn traces(seed: u64) -> Vec<Vec<TimedEvent>> {
    (0..TRACES).map(|k| events(seed, k)).collect()
}

fn planner() -> Box<HillClimbPlanner> {
    Box::new(HillClimbPlanner::default())
}

/// The default planner with its proposals wrapped in `sched.propose`
/// spans.
struct TimedPlanner(HillClimbPlanner);

impl ProposePlan for TimedPlanner {
    fn propose(
        &self,
        profile: &ModelProfile,
        current: &Partition,
        state: &ClusterState,
        env: &MultiJobEnv,
    ) -> Partition {
        span::span("sched.propose", || {
            self.0.propose(profile, current, state, env)
        })
    }
}

/// A trace event ready for `on_event`: built once, so replays borrow it
/// instead of cloning arrivals (and their model profiles) per delivery.
#[allow(clippy::large_enum_variant)] // mirrors SchedEvent; built once per trace
enum Prepared {
    Deliver(SchedEvent),
    /// Departure of the n-th arrival, resolved to its job id on replay.
    DepartOrdinal(usize),
}

fn prepare(te: &TimedEvent) -> (f64, Prepared) {
    let ev = match &te.event {
        TraceEventKind::Arrive(req) => SchedEvent::Arrive(req.clone()),
        TraceEventKind::DepartOrdinal(n) => return (te.time, Prepared::DepartOrdinal(*n)),
        TraceEventKind::WorkerFail(g) => SchedEvent::WorkerFail(*g),
        TraceEventKind::WorkerRecover(g) => SchedEvent::WorkerRecover(*g),
        TraceEventKind::LinkFlapDown(sv, g) => SchedEvent::LinkFlapDown(*sv, *g),
        TraceEventKind::LinkFlapRestore(sv) => SchedEvent::LinkFlapRestore(*sv),
    };
    (te.time, Prepared::Deliver(ev))
}

/// A scheduler mid-trace, with the arrival-ordinal → job-id map the
/// trace's departures resolve through.
struct Live {
    sched: ClusterScheduler,
    ids: Vec<Option<JobId>>,
}

impl Live {
    fn fork(&self, planner: Box<dyn ProposePlan + Send>) -> Live {
        Live {
            sched: self.sched.fork(planner),
            ids: self.ids.clone(),
        }
    }

    /// Deliver one trace event; `None` for the departure of an arrival
    /// that was rejected (nothing to deliver).
    fn step(&mut self, (time, ev): &(f64, Prepared), tally: &mut Tally) -> Option<EventOutcome> {
        let out = match ev {
            Prepared::Deliver(ev) => self.sched.on_event(*time, ev),
            Prepared::DepartOrdinal(n) => {
                let id = self.ids.get(*n).copied().flatten()?;
                self.sched.on_event(*time, &SchedEvent::Depart(id))
            }
        };
        if let Prepared::Deliver(SchedEvent::Arrive(_)) = ev {
            tally.arrivals += 1;
            self.ids.push(match out.admit {
                Some(AdmitOutcome::Placed(id)) => {
                    tally.placed_on_arrival += 1;
                    Some(id)
                }
                Some(AdmitOutcome::Queued(id, _)) => Some(id),
                _ => None,
            });
        }
        tally.delivered += 1;
        tally.dequeued += out.dequeued.len() as u64;
        tally.evacuated += out.evacuated.len() as u64;
        tally.neighborhood += out.replan.neighborhood as u64;
        tally.moved += out.replan.moved as u64;
        Some(out)
    }
}

/// What a replay delivered, for reconciling against `SchedCounters`.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    delivered: u64,
    arrivals: u64,
    placed_on_arrival: u64,
    dequeued: u64,
    evacuated: u64,
    neighborhood: u64,
    moved: u64,
}

/// Check a replay's counters against what it delivered, and that every
/// resident job fits device memory.
fn reconcile(base: &Live, live: &Live, t: &Tally, out: &mut Outcome) {
    let (b, c): (SchedCounters, SchedCounters) = (base.sched.counters(), live.sched.counters());
    let held = |s: &ClusterScheduler| (s.n_resident() + s.n_queued()) as u64;
    let checks = [
        ("events", c.events - b.events, t.delivered),
        ("evacuated", c.evacuated - b.evacuated, t.evacuated),
        (
            "placed",
            c.placed - b.placed,
            t.placed_on_arrival + t.dequeued + t.evacuated,
        ),
        (
            "jobs held",
            held(&live.sched) + (c.completed - b.completed) + (c.rejected - b.rejected),
            held(&base.sched) + t.arrivals,
        ),
    ];
    for (what, counted, delivered) in checks {
        out.check(counted == delivered, || {
            format!("cluster: counters say {what} = {counted}, the trace delivered {delivered}")
        });
    }
    let unfit = live.sched.jobs().filter(|j| !j.mem.fits()).count();
    out.check(unfit == 0, || {
        format!("cluster: {unfit} resident jobs exceed memory")
    });
}

/// One trace after set-up: its prepared events and the warmed scheduler.
struct Warmed {
    events: Vec<(f64, Prepared)>,
    base: Live,
}

impl Warmed {
    fn window(&self) -> &[(f64, Prepared)] {
        &self.events[WARMUP_EVENTS..WARMUP_EVENTS + WINDOW_EVENTS]
    }
}

/// Generate trace `k` of workload seed `seed`, build the scheduler and
/// replay the warm-up prefix.
fn setup(seed: u64, k: u64) -> Warmed {
    let (topo, _) = fabric();
    let events: Vec<_> = events(seed, k).iter().map(prepare).collect();
    let mut base = Live {
        sched: ClusterScheduler::new(
            topo,
            SchedConfig::default(),
            planner(),
            SystemClock::shared(),
        ),
        ids: Vec::new(),
    };
    let mut tally = Tally::default();
    for ev in &events[..WARMUP_EVENTS] {
        base.step(ev, &mut tally);
    }
    Warmed { events, base }
}

/// Set up every trace, each set-up recorded in `timing`.
fn setup_all(seed: u64, timing: &mut Timing) -> Vec<Warmed> {
    (0..TRACES)
        .map(|k| timing.setup(|| setup(seed, k)))
        .collect()
}

/// Replay one trace's window from a fresh fork driving `planner`, until
/// `stop(time spent so far)` says so; `step` delivers one event and says
/// whether it was delivered. The replay is reconciled. Returns the wall
/// time spent delivering, the events delivered, and the process CPU
/// clock when delivery began.
fn replay_window(
    w: &Warmed,
    planner: Box<dyn ProposePlan + Send>,
    out: &mut Outcome,
    step: &mut impl FnMut(&mut Live, &(f64, Prepared), &mut Tally) -> bool,
    stop: impl Fn(Duration) -> bool,
) -> (Duration, usize, f64) {
    let mut live = w.base.fork(planner);
    let mut tally = Tally::default();
    let mut n = 0;
    let (t, cpu) = (Instant::now(), cpu_s());
    for ev in w.window() {
        if stop(t.elapsed()) {
            break;
        }
        if step(&mut live, ev, &mut tally) {
            n += 1;
        }
    }
    let spent = t.elapsed();
    reconcile(&w.base, &live, &tally, out);
    (spent, n, cpu)
}

/// Live objective over whole-world best-response from the same state.
fn objective_ratio(live: &Live) -> f64 {
    let mut here = live.sched.fork(planner());
    let mut full = live.sched.fork(planner());
    full.full_replan(QUALITY_ROUNDS);
    here.objective().value() / full.objective().value()
}

/// Replay one trace's whole window, untimed: the scheduler at its end and
/// the window's counts.
fn full_window(w: &Warmed, out: &mut Outcome) -> (Live, Tally) {
    let mut live = w.base.fork(planner());
    let mut tally = Tally::default();
    for ev in w.window() {
        live.step(ev, &mut tally);
    }
    reconcile(&w.base, &live, &tally, out);
    (live, tally)
}

/// `cluster`, end to end.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::new();
    let mut timing = Timing::new();
    let traces = setup_all(seed, &mut timing);
    let budget = Duration::from_secs_f64(seconds);
    let mut latencies = Vec::new();
    let mut step = |live: &mut Live, ev: &(f64, Prepared), tally: &mut Tally| {
        let t = Instant::now();
        let delivered = live.step(ev, tally).is_some();
        if delivered {
            latencies.push(t.elapsed().as_secs_f64());
        }
        delivered
    };
    let mut spent = Duration::ZERO;
    for w in traces.iter().cycle() {
        if spent >= budget {
            break;
        }
        let (d, n, cpu) = replay_window(w, planner(), &mut out, &mut step, |e| spent + e >= budget);
        timing.chunk(n, cpu);
        spent += d;
    }
    timing.latencies_s = latencies;
    out.attempted = timing.latencies_s.len() as u64;
    let ratios: Vec<f64> = traces.iter().map(|w| objective_ratio(&w.base)).collect();
    out.end_to_end(&timing, geomean(&ratios));
    out
}

/// Per-layer metrics. Each window is replayed twice back to back, so
/// host drift hits both alike: untraced, then traced with the propose
/// wrapper. Each trace's full window, untimed, gives the counts.
pub fn traced(
    seed: u64,
    budget: Duration,
    spans_out: &mut Vec<(&'static str, Vec<span::Span>)>,
) -> Outcome {
    let mut out = Outcome::new();
    let traces = setup_all(seed, &mut Timing::new());
    let (mut plain, mut n, mut op) = (Duration::ZERO, 0usize, 0u64);
    let mut plain_step =
        |live: &mut Live, ev: &(f64, Prepared), tally: &mut Tally| live.step(ev, tally).is_some();
    let mut traced_step = |live: &mut Live, ev: &(f64, Prepared), tally: &mut Tally| {
        span::set_op(op);
        op += 1;
        span::span("sched.event", || live.step(ev, tally)).is_some()
    };
    span::start();
    let t = Instant::now();
    for w in traces.iter().cycle() {
        if t.elapsed() >= budget {
            break;
        }
        let (d, k, _) =
            span::untraced(|| replay_window(w, planner(), &mut out, &mut plain_step, |_| false));
        let timed = Box::new(TimedPlanner(HillClimbPlanner::default()));
        replay_window(w, timed, &mut out, &mut traced_step, |_| false);
        plain += d;
        n += k;
    }
    let spans = span::finish();
    out.attempted = 2 * n as u64;

    let (mut counts, mut queued, mut evacuated) = (Tally::default(), 0, 0);
    for w in &traces {
        let (end, t) = full_window(w, &mut out);
        let (b, c) = (w.base.sched.counters(), end.sched.counters());
        queued += c.queued - b.queued;
        evacuated += c.evacuated - b.evacuated;
        counts.delivered += t.delivered;
        counts.neighborhood += t.neighborhood;
        counts.moved += t.moved;
    }
    let roots = match span::check_nesting(&spans, "sched.event") {
        Ok(roots) => roots,
        Err(e) => {
            out.check(false, || format!("cluster: {e}"));
            0
        }
    };
    let t = span::totals(&spans);
    let nf = n as f64;
    let event_us = roots as f64 / nf / 1e3;
    let propose = t.get("sched.propose").cloned().unwrap_or_default();
    let per_event = |x: u64| x as f64 / counts.delivered as f64;
    let mut m =
        |name: &str, v: f64, unit: &'static str| out.push(format!("cluster.{name}"), v, unit);
    m("sched.event_us", event_us, "us");
    m("sched.propose_us", propose.total_ns as f64 / nf / 1e3, "us");
    m(
        "sched.proposals_per_event",
        propose.count as f64 / nf,
        "count",
    );
    m(
        "sched.self_us",
        t.get("sched.event").map_or(0.0, |x| x.self_ns as f64) / nf / 1e3,
        "us",
    );
    m(
        "sched.neighborhood_mean",
        per_event(counts.neighborhood),
        "count",
    );
    m("sched.moved_per_event", per_event(counts.moved), "count");
    m("sched.queued", queued as f64, "count");
    m("sched.evacuated", evacuated as f64, "count");
    m("trace.op_us", event_us, "us");
    m(
        "trace.overhead",
        event_us / (plain.as_secs_f64() / nf * 1e6),
        "ratio",
    );
    out.check_sum(
        &["cluster.sched.self_us", "cluster.sched.propose_us"],
        "cluster.trace.op_us",
    );
    spans_out.push(("cluster", spans));
    out
}
