//! `GET /metrics` and `GET /stats`: one table of exported values, two
//! renderers.
//!
//! Every value the daemon reports is one `Row` of `TABLE`: its
//! Prometheus family, kind, help and label set (when exported on
//! `/metrics`), its dotted `/stats` JSON path (when reported there), and a
//! reader over a per-scrape `Snapshot`. `render_metrics` and
//! `render_stats` each walk the table once, so the two endpoints cannot
//! disagree about a name or a value.
//!
//! The exposition is hand-rolled — no client library; the format is four
//! line shapes (`# HELP`, `# TYPE`, samples, blank-free UTF-8). Two
//! discipline rules keep scrapes diff-able and the content tests exact:
//!
//! 1. **Stable ordering.** Families, label values and `/stats` keys
//!    follow the order of `TABLE` — never a hash map.
//! 2. **No appearing series.** Every label value a counter can ever take
//!    (endpoints, degraded reasons) is a row of the table, emitted from
//!    the first scrape with value 0, so dashboards never see a series pop
//!    into existence.
//!
//! Latency lands in a fixed-bucket log-spaced [`Histogram`]; p50/p95/p99
//! gauges are interpolated from the buckets the same way
//! `histogram_quantile` would.

use std::sync::Mutex;

use ap_json::{Json, ToJson};
use ap_resilience::{BreakerSnapshot, BulkheadSnapshot};
use ap_sched::SchedCounters;

use crate::admission::QueueStats;

/// Upper bounds (seconds) of the latency buckets; `+Inf` is implicit.
/// Log-spaced from 10µs to 10s — a plan cache hit is tens of
/// microseconds, planning milliseconds, engine verification tens of
/// milliseconds, overload anything.
pub const BUCKET_BOUNDS: [f64; 19] = [
    0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
];

#[derive(Debug, Default, Clone)]
struct HistInner {
    /// Count per bucket in [`BUCKET_BOUNDS`] order, then the +Inf bucket.
    counts: [u64; BUCKET_BOUNDS.len() + 1],
    sum: f64,
    count: u64,
}

/// A fixed-bucket latency histogram, shareable across worker threads.
#[derive(Debug, Default)]
pub struct Histogram {
    inner: Mutex<HistInner>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one observation, in seconds.
    pub fn observe(&self, seconds: f64) {
        if !seconds.is_finite() || seconds < 0.0 {
            return;
        }
        let mut h = self.inner.lock().unwrap();
        let idx = BUCKET_BOUNDS
            .iter()
            .position(|&b| seconds <= b)
            .unwrap_or(BUCKET_BOUNDS.len());
        h.counts[idx] += 1;
        h.sum += seconds;
        h.count += 1;
    }

    /// Point-in-time copy for rendering.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            inner: self.inner.lock().unwrap().clone(),
        }
    }
}

/// A consistent copy of a [`Histogram`].
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    inner: HistInner,
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.inner.count
    }

    /// Sum of observations, seconds.
    pub fn sum(&self) -> f64 {
        self.inner.sum
    }

    /// Cumulative count at or below bucket `i` of [`BUCKET_BOUNDS`]
    /// (`i == BUCKET_BOUNDS.len()` is `+Inf`).
    pub fn cumulative(&self, i: usize) -> u64 {
        self.inner.counts[..=i].iter().sum()
    }

    /// Quantile `q` in `[0, 1]`, linearly interpolated inside the owning
    /// bucket (what PromQL's `histogram_quantile` computes). 0 when
    /// empty; observations beyond the last finite bound clamp to it.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.inner.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.inner.count as f64;
        let mut seen = 0u64;
        for (i, &c) in self.inner.counts.iter().enumerate() {
            seen += c;
            if (seen as f64) >= rank && c > 0 {
                let hi = if i < BUCKET_BOUNDS.len() {
                    BUCKET_BOUNDS[i]
                } else {
                    return *BUCKET_BOUNDS.last().unwrap();
                };
                let lo = if i == 0 { 0.0 } else { BUCKET_BOUNDS[i - 1] };
                let into = rank - (seen - c) as f64;
                return lo + (hi - lo) * (into / c as f64);
            }
        }
        *BUCKET_BOUNDS.last().unwrap()
    }
}

/// Render a float the way Prometheus expects: integral values without a
/// trailing `.0` would also parse, but keeping Rust's shortest-round-trip
/// `{}` formatting is both valid and deterministic.
fn num(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

/// Builder for one exposition document.
#[derive(Debug, Default)]
pub struct Exposition {
    out: String,
}

impl Exposition {
    /// An empty document.
    pub fn new() -> Self {
        Exposition::default()
    }

    /// Start a metric family: `# HELP` + `# TYPE` lines.
    pub fn family(&mut self, name: &str, kind: &str, help: &str) -> &mut Self {
        self.out.push_str("# HELP ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(help);
        self.out.push_str("\n# TYPE ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(kind);
        self.out.push('\n');
        self
    }

    /// One sample line. `labels` are `(key, value)` pairs, emitted in the
    /// order given.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) -> &mut Self {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                self.out.push_str(k);
                self.out.push_str("=\"");
                self.out.push_str(v);
                self.out.push('"');
            }
            self.out.push('}');
        }
        self.out.push(' ');
        self.out.push_str(&num(value));
        self.out.push('\n');
        self
    }

    /// A full histogram family: `_bucket` series (cumulative, with
    /// `+Inf`), `_sum`, and `_count`, for one label set.
    pub fn histogram(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        snap: &HistogramSnapshot,
    ) -> &mut Self {
        let bucket_name = format!("{name}_bucket");
        for (i, b) in BUCKET_BOUNDS.iter().enumerate() {
            let le = num(*b);
            let mut with_le: Vec<(&str, &str)> = labels.to_vec();
            with_le.push(("le", le.as_str()));
            self.sample(&bucket_name, &with_le, snap.cumulative(i) as f64);
        }
        let mut with_le: Vec<(&str, &str)> = labels.to_vec();
        with_le.push(("le", "+Inf"));
        self.sample(&bucket_name, &with_le, snap.count() as f64);
        self.sample(&format!("{name}_sum"), labels, snap.sum());
        self.sample(&format!("{name}_count"), labels, snap.count() as f64);
        self
    }

    /// The finished document.
    pub fn finish(self) -> String {
        self.out
    }
}

/// A routed endpoint. Indexes the per-endpoint request counters, labels
/// `ap_requests_total`, and is the set of paths `route` answers 405 for
/// when the method does not match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    Plan,
    Simulate,
    Health,
    Stats,
    Metrics,
    Invalidate,
    Breaker,
    Shutdown,
    Jobs,
    Schedule,
}

impl Endpoint {
    /// Every endpoint, in exposition order.
    pub const ALL: [Endpoint; 10] = [
        Endpoint::Plan,
        Endpoint::Simulate,
        Endpoint::Health,
        Endpoint::Stats,
        Endpoint::Metrics,
        Endpoint::Invalidate,
        Endpoint::Breaker,
        Endpoint::Shutdown,
        Endpoint::Jobs,
        Endpoint::Schedule,
    ];

    /// The route path.
    pub fn path(self) -> &'static str {
        match self {
            Endpoint::Plan => "/plan",
            Endpoint::Simulate => "/simulate",
            Endpoint::Health => "/health",
            Endpoint::Stats => "/stats",
            Endpoint::Metrics => "/metrics",
            Endpoint::Invalidate => "/invalidate",
            Endpoint::Breaker => "/breaker",
            Endpoint::Shutdown => "/shutdown",
            Endpoint::Jobs => "/jobs",
            Endpoint::Schedule => "/schedule",
        }
    }

    /// The endpoint routed at `path`, if any.
    pub fn of_path(path: &str) -> Option<Endpoint> {
        Endpoint::ALL.into_iter().find(|e| e.path() == path)
    }
}

/// Why a `/plan` answer was degraded. Indexes the degraded counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reason {
    BreakerOpen,
    DeadlineExhausted,
    VerificationFailed,
}

impl Reason {
    /// Every reason, in exposition order.
    pub const ALL: [Reason; 3] = [
        Reason::BreakerOpen,
        Reason::DeadlineExhausted,
        Reason::VerificationFailed,
    ];

    /// Stable id: the response's `degraded_reason` and the metric label.
    pub fn id(self) -> &'static str {
        match self {
            Reason::BreakerOpen => "breaker-open",
            Reason::DeadlineExhausted => "deadline-exhausted",
            Reason::VerificationFailed => "verification-failed",
        }
    }
}

/// Everything one scrape reports. The server fills it taking each lock
/// once — cache, admission queue, breaker, each bulkhead, scheduler, each
/// histogram — so values drawn from one source agree with each other
/// (`hit_rate` with `hits`/`misses`, `depth` with `peak_depth`).
pub(crate) struct Snapshot {
    pub uptime_secs: f64,
    pub requests: u64,
    pub by_endpoint: [u64; Endpoint::ALL.len()],
    pub errors: u64,
    pub degraded: [u64; Reason::ALL.len()],
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_entries: usize,
    pub cache_capacity: usize,
    pub cache_hit_rate: f64,
    pub cache_generation: u64,
    pub queue: QueueStats,
    pub queue_capacity: usize,
    pub breaker: BreakerSnapshot,
    pub plan_bulkhead: BulkheadSnapshot,
    pub simulate_bulkhead: BulkheadSnapshot,
    pub plan_latency: HistogramSnapshot,
    pub simulate_latency: HistogramSnapshot,
    pub workers: usize,
    pub draining: bool,
    pub sched_resident: usize,
    pub sched_queued: usize,
    pub sched: SchedCounters,
    pub sched_aggregate: f64,
    pub sched_neighborhood: u64,
    pub sched_replan_latency: HistogramSnapshot,
    pub mem_fit: u64,
    pub mem_infeasible: u64,
    pub mem_switches: u64,
    pub mem_peak_bytes: u64,
}

impl Snapshot {
    fn endpoint(&self, e: Endpoint) -> Value<'_> {
        Count(self.by_endpoint[e as usize])
    }

    fn degraded(&self, r: Reason) -> Value<'_> {
        Count(self.degraded[r as usize])
    }
}

/// One reading of a [`Row`].
#[derive(Debug, Clone, Copy)]
enum Value<'a> {
    Count(u64),
    Real(f64),
    Flag(bool),
    /// `/stats` only: the exposition has no string samples.
    Text(&'static str),
    /// `/metrics` only: a whole histogram family member.
    Hist(&'a HistogramSnapshot),
}

use Value::{Count, Flag, Hist, Real, Text};

impl Value<'_> {
    fn sample(self) -> f64 {
        match self {
            Count(n) => n as f64,
            Real(x) => x,
            Flag(b) => b as u8 as f64,
            Text(_) | Hist(_) => unreachable!("not a sample value"),
        }
    }

    fn json(self) -> Json {
        match self {
            Count(n) => n.to_json(),
            Real(x) => x.to_json(),
            Flag(b) => b.to_json(),
            Text(t) => t.to_json(),
            Hist(_) => unreachable!("histograms are not reported on /stats"),
        }
    }
}

/// A Prometheus metric family.
#[derive(Debug, Clone, Copy)]
struct Family {
    name: &'static str,
    kind: &'static str,
    help: &'static str,
}

const fn counter(name: &'static str, help: &'static str) -> Family {
    Family {
        name,
        kind: "counter",
        help,
    }
}

const fn gauge(name: &'static str, help: &'static str) -> Family {
    Family {
        name,
        kind: "gauge",
        help,
    }
}

const fn histogram(name: &'static str, help: &'static str) -> Family {
    Family {
        name,
        kind: "histogram",
        help,
    }
}

type Labels = &'static [(&'static str, &'static str)];
type Reader = for<'a> fn(&'a Snapshot) -> Value<'a>;

/// One exported value.
struct Row {
    /// Family and label set on `/metrics`, when exported there.
    metric: Option<(Family, Labels)>,
    /// Dotted JSON path on `/stats`, when reported there.
    stats: Option<&'static str>,
    read: Reader,
}

const fn both(family: Family, labels: Labels, stats: &'static str, read: Reader) -> Row {
    Row {
        metric: Some((family, labels)),
        stats: Some(stats),
        read,
    }
}

const fn metric(family: Family, labels: Labels, read: Reader) -> Row {
    Row {
        metric: Some((family, labels)),
        stats: None,
        read,
    }
}

const fn stats(path: &'static str, read: Reader) -> Row {
    Row {
        metric: None,
        stats: Some(path),
        read,
    }
}

const NONE: Labels = &[];
const PLAN: Labels = &[("endpoint", "plan")];
const SIMULATE: Labels = &[("endpoint", "simulate")];
const VERIFY: Labels = &[("breaker", "verify")];

const REQUESTS: Family = counter("ap_requests_total", "Requests routed, by endpoint.");
const DEGRADED: Family = counter(
    "ap_degraded_responses_total",
    "200-with-degraded-plan responses, by reason.",
);
const BULKHEAD_IN_USE: Family = gauge(
    "ap_bulkhead_in_use",
    "Bulkhead permits currently held, by endpoint.",
);
const BULKHEAD_CAPACITY: Family = gauge(
    "ap_bulkhead_capacity",
    "Bulkhead permit bound, by endpoint.",
);
const BULKHEAD_REJECTED: Family = counter(
    "ap_bulkhead_rejected_total",
    "Calls shed at a full bulkhead, by endpoint.",
);
const DURATION: Family = histogram(
    "ap_request_duration_seconds",
    "Compute-endpoint handler latency.",
);
const LATENCY: Family = gauge(
    "ap_request_latency_seconds",
    "Latency percentiles interpolated from the duration histogram.",
);
const ADMISSIONS: Family = counter("ap_sched_admissions_total", "Admission outcomes, by kind.");
const MEM_CHECKS: Family = counter(
    "ap_mem_checks_total",
    "Memory feasibility checks on plans and job admissions, by outcome.",
);

/// Every exported value, in exposition order. `/stats` builds its
/// objects in first-appearance order of their paths. A family's rows are
/// contiguous; new families go at the end so existing scrapes stay
/// byte-identical as a prefix.
#[rustfmt::skip]
static TABLE: &[Row] = &[
    stats("requests.total", |s| Count(s.requests)),
    both(gauge("ap_uptime_seconds", "Seconds since the daemon started."), NONE, "uptime_secs", |s| Real(s.uptime_secs)),
    both(REQUESTS, PLAN, "requests.plan", |s| s.endpoint(Endpoint::Plan)),
    both(REQUESTS, SIMULATE, "requests.simulate", |s| s.endpoint(Endpoint::Simulate)),
    both(REQUESTS, &[("endpoint", "health")], "requests.health", |s| s.endpoint(Endpoint::Health)),
    both(REQUESTS, &[("endpoint", "stats")], "requests.stats", |s| s.endpoint(Endpoint::Stats)),
    both(REQUESTS, &[("endpoint", "metrics")], "requests.metrics", |s| s.endpoint(Endpoint::Metrics)),
    both(REQUESTS, &[("endpoint", "invalidate")], "requests.invalidate", |s| s.endpoint(Endpoint::Invalidate)),
    both(REQUESTS, &[("endpoint", "breaker")], "requests.breaker", |s| s.endpoint(Endpoint::Breaker)),
    both(REQUESTS, &[("endpoint", "shutdown")], "requests.shutdown", |s| s.endpoint(Endpoint::Shutdown)),
    both(REQUESTS, &[("endpoint", "jobs")], "requests.jobs", |s| s.endpoint(Endpoint::Jobs)),
    both(REQUESTS, &[("endpoint", "schedule")], "requests.schedule", |s| s.endpoint(Endpoint::Schedule)),
    both(counter("ap_error_responses_total", "Responses with status >= 400, shed connections included."), NONE,
         "requests.errors", |s| Count(s.errors)),
    both(DEGRADED, &[("reason", "breaker-open")], "resilience.degraded.breaker_open", |s| s.degraded(Reason::BreakerOpen)),
    both(DEGRADED, &[("reason", "deadline-exhausted")], "resilience.degraded.deadline_exhausted", |s| s.degraded(Reason::DeadlineExhausted)),
    both(DEGRADED, &[("reason", "verification-failed")], "resilience.degraded.verification_failed", |s| s.degraded(Reason::VerificationFailed)),
    both(counter("ap_cache_hits_total", "Plan cache hits."), NONE, "cache.hits", |s| Count(s.cache_hits)),
    both(counter("ap_cache_misses_total", "Plan cache misses."), NONE, "cache.misses", |s| Count(s.cache_misses)),
    both(gauge("ap_cache_entries", "Plans currently cached."), NONE, "cache.entries", |s| Count(s.cache_entries as u64)),
    both(gauge("ap_cache_capacity", "Plan cache capacity."), NONE, "cache.capacity", |s| Count(s.cache_capacity as u64)),
    stats("cache.hit_rate", |s| Real(s.cache_hit_rate)),
    both(gauge("ap_cache_generation", "Invalidation generation of the plan cache."), NONE, "cache.generation", |s| Count(s.cache_generation)),
    both(gauge("ap_queue_depth", "Connections waiting in the admission queue."), NONE, "queue.depth", |s| Count(s.queue.depth as u64)),
    both(gauge("ap_queue_capacity", "Admission queue bound."), NONE, "queue.capacity", |s| Count(s.queue_capacity as u64)),
    both(gauge("ap_queue_peak_depth", "High-water mark of the admission queue."), NONE, "queue.peak_depth", |s| Count(s.queue.peak_depth as u64)),
    both(counter("ap_queue_admitted_total", "Connections admitted to the queue."), NONE, "queue.admitted", |s| Count(s.queue.admitted)),
    both(counter("ap_queue_shed_total", "Connections shed at accept time (503)."), NONE, "queue.shed", |s| Count(s.queue.shed)),
    stats("resilience.breaker.state", |s| Text(s.breaker.state.id())),
    stats("resilience.breaker.mode", |s| Text(s.breaker.mode.id())),
    metric(gauge("ap_breaker_state", "Circuit breaker state: 0 closed, 1 open, 2 half-open."), VERIFY, |s| Count(s.breaker.state.gauge())),
    both(counter("ap_breaker_opens_total", "Times the breaker tripped open."), VERIFY,
         "resilience.breaker.opens", |s| Count(s.breaker.counters.opens)),
    both(counter("ap_breaker_rejected_total", "Calls rejected by an open breaker."), VERIFY,
         "resilience.breaker.rejected", |s| Count(s.breaker.counters.rejected)),
    both(counter("ap_breaker_failures_total", "Failure outcomes recorded on the breaker."), VERIFY,
         "resilience.breaker.failures", |s| Count(s.breaker.counters.failures)),
    both(counter("ap_breaker_successes_total", "Success outcomes recorded on the breaker."), VERIFY,
         "resilience.breaker.successes", |s| Count(s.breaker.counters.successes)),
    both(BULKHEAD_IN_USE, PLAN, "resilience.bulkheads.plan.in_use", |s| Count(s.plan_bulkhead.in_use as u64)),
    both(BULKHEAD_IN_USE, SIMULATE, "resilience.bulkheads.simulate.in_use", |s| Count(s.simulate_bulkhead.in_use as u64)),
    both(BULKHEAD_CAPACITY, PLAN, "resilience.bulkheads.plan.capacity", |s| Count(s.plan_bulkhead.capacity as u64)),
    both(BULKHEAD_CAPACITY, SIMULATE, "resilience.bulkheads.simulate.capacity", |s| Count(s.simulate_bulkhead.capacity as u64)),
    both(BULKHEAD_REJECTED, PLAN, "resilience.bulkheads.plan.rejected", |s| Count(s.plan_bulkhead.rejected)),
    both(BULKHEAD_REJECTED, SIMULATE, "resilience.bulkheads.simulate.rejected", |s| Count(s.simulate_bulkhead.rejected)),
    metric(DURATION, PLAN, |s| Hist(&s.plan_latency)),
    metric(DURATION, SIMULATE, |s| Hist(&s.simulate_latency)),
    metric(LATENCY, &[("endpoint", "plan"), ("quantile", "0.5")], |s| Real(s.plan_latency.quantile(0.5))),
    metric(LATENCY, &[("endpoint", "plan"), ("quantile", "0.95")], |s| Real(s.plan_latency.quantile(0.95))),
    metric(LATENCY, &[("endpoint", "plan"), ("quantile", "0.99")], |s| Real(s.plan_latency.quantile(0.99))),
    metric(LATENCY, &[("endpoint", "simulate"), ("quantile", "0.5")], |s| Real(s.simulate_latency.quantile(0.5))),
    metric(LATENCY, &[("endpoint", "simulate"), ("quantile", "0.95")], |s| Real(s.simulate_latency.quantile(0.95))),
    metric(LATENCY, &[("endpoint", "simulate"), ("quantile", "0.99")], |s| Real(s.simulate_latency.quantile(0.99))),
    both(gauge("ap_workers", "Worker threads."), NONE, "workers", |s| Count(s.workers as u64)),
    both(gauge("ap_draining", "1 while the daemon is draining for shutdown."), NONE, "draining", |s| Flag(s.draining)),
    both(gauge("ap_sched_jobs_resident", "Jobs currently placed on the fabric."), NONE, "scheduler.resident", |s| Count(s.sched_resident as u64)),
    both(gauge("ap_sched_jobs_queued", "Jobs waiting for capacity."), NONE, "scheduler.queued", |s| Count(s.sched_queued as u64)),
    both(ADMISSIONS, &[("outcome", "placed")], "scheduler.placed", |s| Count(s.sched.placed)),
    both(ADMISSIONS, &[("outcome", "queued")], "scheduler.enqueued", |s| Count(s.sched.queued)),
    both(ADMISSIONS, &[("outcome", "rejected")], "scheduler.rejected", |s| Count(s.sched.rejected)),
    both(counter("ap_sched_jobs_completed_total", "Placed jobs that departed."), NONE, "scheduler.completed", |s| Count(s.sched.completed)),
    both(counter("ap_sched_jobs_evacuated_total", "Jobs moved off a failed worker."), NONE, "scheduler.evacuated", |s| Count(s.sched.evacuated)),
    both(counter("ap_sched_events_total", "Scheduler events processed."), NONE, "scheduler.events", |s| Count(s.sched.events)),
    both(counter("ap_sched_replans_considered_total", "Re-plan proposals evaluated across all events."), NONE,
         "scheduler.replans_considered", |s| Count(s.sched.replans_considered)),
    both(counter("ap_sched_plans_moved_total", "Re-plans accepted through the switch gate."), NONE,
         "scheduler.plans_moved", |s| Count(s.sched.plans_moved)),
    metric(gauge("ap_sched_neighborhood_size", "Contention neighborhood of the last scheduler event."), NONE, |s| Count(s.sched_neighborhood)),
    both(gauge("ap_sched_aggregate_predicted_throughput", "Sum of per-job predicted throughputs, samples/s."), NONE,
         "scheduler.aggregate_predicted_throughput", |s| Real(s.sched_aggregate)),
    metric(histogram("ap_sched_replan_duration_seconds", "Per-event neighborhood re-planning latency."), NONE, |s| Hist(&s.sched_replan_latency)),
    metric(MEM_CHECKS, &[("outcome", "fit")], |s| Count(s.mem_fit)),
    metric(MEM_CHECKS, &[("outcome", "infeasible")], |s| Count(s.mem_infeasible)),
    metric(counter("ap_mem_schedule_switches_total", "Plans that abandoned the requested schedule to fit device memory."), NONE,
           |s| Count(s.mem_switches)),
    metric(gauge("ap_mem_modeled_peak_stage_bytes", "Modeled peak per-stage memory of the last fitted plan, bytes."), NONE,
           |s| Count(s.mem_peak_bytes)),
];

/// The `/metrics` document: every row with a family, in table order.
pub(crate) fn render_metrics(s: &Snapshot) -> String {
    let mut e = Exposition::new();
    let mut open = "";
    for row in TABLE {
        let Some((family, labels)) = row.metric else {
            continue;
        };
        if family.name != open {
            e.family(family.name, family.kind, family.help);
            open = family.name;
        }
        match (row.read)(s) {
            Hist(h) => e.histogram(family.name, labels, h),
            v => e.sample(family.name, labels, v.sample()),
        };
    }
    e.finish()
}

/// The `/stats` document: every row with a path, nested at its dots.
pub(crate) fn render_stats(s: &Snapshot) -> Json {
    let mut root = Json::Obj(Vec::new());
    for row in TABLE {
        if let Some(path) = row.stats {
            insert(&mut root, path, (row.read)(s).json());
        }
    }
    root
}

/// Place `value` at dotted `path` inside `obj`, creating intermediate
/// objects in first-appearance order.
fn insert(obj: &mut Json, path: &str, value: Json) {
    let Json::Obj(pairs) = obj else {
        unreachable!("/stats paths only nest inside objects");
    };
    let Some((head, rest)) = path.split_once('.') else {
        pairs.push((path.to_string(), value));
        return;
    };
    let i = match pairs.iter().position(|(k, _)| k == head) {
        Some(i) => i,
        None => {
            pairs.push((head.to_string(), Json::Obj(Vec::new())));
            pairs.len() - 1
        }
    };
    insert(&mut pairs[i].1, rest, value);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Labels of `family`'s rows, in table order.
    fn labels_of(family: &str) -> Vec<Labels> {
        TABLE
            .iter()
            .filter_map(|r| r.metric)
            .filter(|(f, _)| f.name == family)
            .map(|(_, labels)| labels)
            .collect()
    }

    #[test]
    fn table_families_are_contiguous_and_paths_unique() {
        let names: Vec<&str> = TABLE
            .iter()
            .filter_map(|r| r.metric)
            .map(|(f, _)| f.name)
            .collect();
        for (i, name) in names.iter().enumerate() {
            if i > 0 && names[i - 1] != *name {
                assert!(!names[..i].contains(name), "{name} split in two");
            }
        }
        let paths: Vec<&str> = TABLE.iter().filter_map(|r| r.stats).collect();
        for (i, p) in paths.iter().enumerate() {
            assert!(!paths[..i].contains(p), "{p} reported twice");
            // A leaf is never also an object holding other leaves.
            let prefix = format!("{p}.");
            assert!(
                !paths.iter().any(|q| q.starts_with(&prefix)),
                "{p} is a leaf and an object"
            );
        }
    }

    #[test]
    fn request_and_degraded_rows_follow_their_enums() {
        let endpoints: Vec<&str> = Endpoint::ALL.iter().map(|e| &e.path()[1..]).collect();
        let labels: Vec<&str> = labels_of("ap_requests_total")
            .iter()
            .map(|l| l[0].1)
            .collect();
        assert_eq!(labels, endpoints);
        for e in Endpoint::ALL {
            let path = format!("requests.{}", &e.path()[1..]);
            assert!(
                TABLE.iter().any(|r| r.stats == Some(path.as_str())),
                "no {path}"
            );
            assert_eq!(Endpoint::of_path(e.path()), Some(e));
        }
        let reasons: Vec<&str> = Reason::ALL.iter().map(|r| r.id()).collect();
        let labels: Vec<&str> = labels_of("ap_degraded_responses_total")
            .iter()
            .map(|l| l[0].1)
            .collect();
        assert_eq!(labels, reasons);
    }

    #[test]
    fn histogram_counts_and_interpolates() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.observe(0.004); // bucket le=0.005
        }
        for _ in 0..10 {
            h.observe(0.2); // bucket le=0.25
        }
        h.observe(f64::NAN); // dropped
        h.observe(-1.0); // dropped
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert!((s.sum() - (90.0 * 0.004 + 10.0 * 0.2)).abs() < 1e-9);
        // p50 lands inside the le=0.005 bucket.
        let p50 = s.quantile(0.5);
        assert!(p50 > 0.0025 && p50 <= 0.005, "p50 {p50}");
        // p99 lands inside the le=0.25 bucket.
        let p99 = s.quantile(0.99);
        assert!(p99 > 0.1 && p99 <= 0.25, "p99 {p99}");
    }

    #[test]
    fn overflow_observations_clamp_to_last_bound() {
        let h = Histogram::new();
        h.observe(1e6);
        let s = h.snapshot();
        assert_eq!(s.count(), 1);
        assert_eq!(s.cumulative(BUCKET_BOUNDS.len() - 1), 0, "no finite bucket");
        assert_eq!(s.quantile(0.99), 10.0, "clamped to the last bound");
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.99), 0.0);
    }

    #[test]
    fn exposition_lines_are_exact() {
        let mut e = Exposition::new();
        e.family("ap_x_total", "counter", "Things.")
            .sample("ap_x_total", &[("endpoint", "plan")], 3.0)
            .sample("ap_x_total", &[], 0.5);
        assert_eq!(
            e.finish(),
            "# HELP ap_x_total Things.\n# TYPE ap_x_total counter\nap_x_total{endpoint=\"plan\"} 3\nap_x_total 0.5\n"
        );
    }

    #[test]
    fn histogram_family_renders_cumulative_with_inf() {
        let h = Histogram::new();
        h.observe(0.0005);
        h.observe(99.0);
        let mut e = Exposition::new();
        e.family("ap_d_seconds", "histogram", "Latency.").histogram(
            "ap_d_seconds",
            &[("endpoint", "plan")],
            &h.snapshot(),
        );
        let text = e.finish();
        assert!(text.contains("ap_d_seconds_bucket{endpoint=\"plan\",le=\"0.001\"} 1\n"));
        assert!(text.contains("ap_d_seconds_bucket{endpoint=\"plan\",le=\"10\"} 1\n"));
        assert!(text.contains("ap_d_seconds_bucket{endpoint=\"plan\",le=\"+Inf\"} 2\n"));
        assert!(text.contains("ap_d_seconds_count{endpoint=\"plan\"} 2\n"));
        // Cumulative: every bucket count is monotone non-decreasing.
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("ap_d_seconds_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(counts.len(), BUCKET_BOUNDS.len() + 1);
        assert!(counts.windows(2).all(|w| w[0] <= w[1]));
    }
}
