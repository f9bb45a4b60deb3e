//! `repro cluster-bench` — the ap-sched control plane chewing through a
//! seeded arrival/departure/fault trace at 10 → 100 → 1000 jobs.
//!
//! Each scale gets a fabric sized with the workload (≈ one 4-GPU server
//! per 8 jobs) and a Poisson trace whose mean job lifetime keeps the
//! steady-state residency near half the GPU count, so neighborhoods stay
//! non-trivial without collapsing into queueing. The headline comparison
//! is per-event planning cost: the scheduler's **neighborhood** re-plan
//! (O(degree) via the contention index) versus one round of whole-world
//! best-response from the same state, sampled by forking the live
//! scheduler mid-trace ([`ClusterScheduler::fork`]). The fork also keeps
//! running best-response to a fixed point, which prices the *quality* of
//! neighborhood planning: the blended cluster objective must stay within
//! [`EQUIVALENCE_EPSILON`] of the whole-world answer on small instances.
//!
//! `--smoke` swaps the wall clock for a [`FakeClock`] and zeroes every
//! latency field, so its `--json` output is byte-identical across runs;
//! the quality gate still runs (planning itself is deterministic).

use std::sync::Arc;
use std::time::Instant;

use ap_cluster::{ClusterTopology, FaultPlanConfig, GpuKind};
use ap_models::{alexnet, synthetic_skewed, ModelProfile};
use ap_resilience::{Clock, FakeClock, SystemClock};
use ap_sched::trace::{self, TimedEvent, TraceConfig, TraceEventKind};
use ap_sched::{
    AdmitOutcome, ClusterScheduler, JobId, SchedConfig, SchedEvent, EQUIVALENCE_EPSILON,
};
use autopipe::HillClimbPlanner;

/// Hill-climb round budget per proposal — smaller than the controller's
/// default 20 because the bench prices *planning latency*, and the gains
/// past a handful of rounds are noise at these model sizes.
const PLANNER_ROUNDS: usize = 8;
/// Whole-world best-response rounds the quality fork runs to reach its
/// fixed point.
const QUALITY_ROUNDS: usize = 4;
/// Scales whose quality delta gates the verdict ("small instances" in
/// the sense of the equivalence property test).
const QUALITY_GATE_MAX_JOBS: usize = 100;
/// Required full-replan : neighborhood mean-latency ratio at the largest
/// scale (full runs only; smoke has no wall clock).
const REQUIRED_SPEEDUP: f64 = 10.0;

/// A mid-trace sample: fork the live scheduler, time one round of
/// whole-world best-response, then run it to a fixed point and compare
/// objectives.
#[derive(Debug, Clone)]
pub struct FullReplanSample {
    /// Index of the trace event after which the fork was taken.
    pub event_index: usize,
    /// Residents at the sample point.
    pub resident: usize,
    /// Wall-clock seconds for one whole-world best-response round
    /// (0 in smoke mode).
    pub full_latency_s: f64,
    /// Placements that round moved.
    pub full_moved: usize,
    /// Live aggregate predicted throughput at the sample, samples/s.
    pub live_aggregate: f64,
    /// Live fairness floor at the sample.
    pub live_fairness_floor: f64,
    /// Blended objective of the live (neighborhood-planned) scheduler.
    pub live_value: f64,
    /// Blended objective after whole-world best-response to fixed point.
    pub full_value: f64,
    /// `(full_value - live_value) / live_value` — how much the
    /// whole-world answer beats neighborhood planning.
    pub quality_delta: f64,
}

/// One workload scale's outcome.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Jobs in the trace.
    pub n_jobs: usize,
    /// Servers on the fabric.
    pub servers: usize,
    /// GPUs on the fabric.
    pub gpus: usize,
    /// Trace events delivered.
    pub events: usize,
    /// Peak resident jobs.
    pub peak_resident: usize,
    /// Admissions placed (including queue drains and evacuations).
    pub placed: u64,
    /// Jobs that waited in the queue at least once.
    pub queued: u64,
    /// Arrivals rejected outright.
    pub rejected: u64,
    /// Jobs that departed after placement.
    pub completed: u64,
    /// Jobs moved off a failed worker.
    pub evacuated: u64,
    /// Re-plan proposals considered across the trace.
    pub replans_considered: u64,
    /// Re-plans accepted.
    pub plans_moved: u64,
    /// Mean extracted-neighborhood size per event.
    pub mean_neighborhood: f64,
    /// Mean per-event planning latency, seconds (0 in smoke mode).
    pub event_latency_mean_s: f64,
    /// p99 per-event planning latency, seconds.
    pub event_latency_p99_s: f64,
    /// Worst per-event planning latency, seconds.
    pub event_latency_max_s: f64,
    /// Mean sampled whole-world round latency, seconds.
    pub full_latency_mean_s: f64,
    /// `full_latency_mean_s / event_latency_mean_s` (0 in smoke mode).
    pub full_replan_speedup: f64,
    /// Largest sampled live aggregate predicted throughput, samples/s.
    pub peak_aggregate: f64,
    /// Fairness floor at the peak-aggregate sample.
    pub fairness_floor: f64,
    /// Worst (most positive) sampled quality delta.
    pub worst_quality_delta: f64,
    /// Whether every sample stayed within [`EQUIVALENCE_EPSILON`].
    pub quality_within_epsilon: bool,
    /// The raw samples.
    pub samples: Vec<FullReplanSample>,
}

/// The whole experiment.
#[derive(Debug, Clone)]
pub struct ClusterBenchResult {
    /// `"smoke"` or `"full"`.
    pub mode: String,
    /// Trace seed base.
    pub seed: u64,
    /// Declared quality tolerance (mirrors [`EQUIVALENCE_EPSILON`]).
    pub equivalence_epsilon: f64,
    /// Required latency ratio at the largest scale.
    pub required_speedup: f64,
    /// One row per scale, ascending.
    pub scales: Vec<ScaleRow>,
}

impl ClusterBenchResult {
    /// Every gate: work got placed everywhere, small instances match
    /// whole-world quality, and (full runs) the largest scale shows the
    /// promised latency separation.
    pub fn all_ok(&self) -> bool {
        let placed = self
            .scales
            .iter()
            .all(|s| s.events > 0 && s.placed > 0 && s.completed > 0);
        let quality = self
            .scales
            .iter()
            .filter(|s| s.n_jobs <= QUALITY_GATE_MAX_JOBS)
            .all(|s| s.quality_within_epsilon);
        let speedup = self.mode != "full"
            || self
                .scales
                .last()
                .is_some_and(|s| s.full_replan_speedup >= self.required_speedup);
        placed && quality && speedup
    }
}

/// The model palette jobs draw from: small profiles keep per-proposal
/// hill climbs cheap so the bench measures scheduling, not scoring.
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

/// Fabric and trace knobs for one scale: the cluster grows with the job
/// count and the mean lifetime keeps steady-state residency ≈ gpus/2.
fn scale_setup(n_jobs: usize) -> (ClusterTopology, TraceConfig) {
    let servers = (n_jobs / 8).max(2);
    let gpus = servers * 4;
    let topo = ClusterTopology::single_switch(servers, 4, GpuKind::P100, 25.0);
    let arrival_rate_hz = 1.0;
    let mean_duration_s = 0.5 * gpus as f64;
    let span = n_jobs as f64 / arrival_rate_hz + 3.0 * mean_duration_s;
    let cfg = TraceConfig {
        n_jobs,
        arrival_rate_hz,
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

fn planner() -> Box<HillClimbPlanner> {
    Box::new(HillClimbPlanner {
        rounds: PLANNER_ROUNDS,
    })
}

/// Take one mid-trace sample (see [`FullReplanSample`]).
fn sample(sched: &mut ClusterScheduler, event_index: usize, smoke: bool) -> FullReplanSample {
    let mut fork = sched.fork(planner());
    let t0 = Instant::now();
    let full_moved = fork.full_replan(1);
    let full_latency_s = if smoke {
        0.0
    } else {
        t0.elapsed().as_secs_f64()
    };
    fork.full_replan(QUALITY_ROUNDS - 1);
    let live = sched.objective();
    let full = fork.objective();
    let live_value = live.value();
    let full_value = full.value();
    let quality_delta = if live_value > 0.0 {
        full_value / live_value - 1.0
    } else {
        0.0
    };
    FullReplanSample {
        event_index,
        resident: sched.n_resident(),
        full_latency_s,
        full_moved,
        live_aggregate: live.aggregate,
        live_fairness_floor: live.fairness_floor,
        live_value,
        full_value,
        quality_delta,
    }
}

/// Feed a trace through a fresh scheduler, resolving departure ordinals
/// exactly like [`trace::run`] but pausing at the quartile event indices
/// to take whole-world forks.
fn run_scale(n_jobs: usize, seed: u64, smoke: bool) -> ScaleRow {
    let (topo, cfg) = scale_setup(n_jobs);
    let servers = topo.n_gpus() / 4;
    let gpus = topo.n_gpus();
    let events: Vec<TimedEvent> = trace::generate(&topo, &palette(), &cfg, seed);
    let clock: Arc<dyn Clock> = if smoke {
        Arc::new(FakeClock::new())
    } else {
        Arc::new(SystemClock::new())
    };
    let mut sched = ClusterScheduler::new(topo, SchedConfig::default(), planner(), clock);

    let sample_at: Vec<usize> = [1, 2, 3].iter().map(|q| q * events.len() / 4).collect();
    let mut samples = Vec::new();
    let mut latencies = Vec::with_capacity(events.len());
    let mut neighborhoods = Vec::with_capacity(events.len());
    let mut peak_resident = 0usize;
    let mut delivered = 0usize;
    let mut ids: Vec<Option<JobId>> = Vec::new();
    for (i, te) in events.iter().enumerate() {
        let out = match &te.event {
            TraceEventKind::Arrive(req) => {
                let out = sched.on_event(te.time, &SchedEvent::Arrive(req.clone()));
                ids.push(match out.admit {
                    Some(AdmitOutcome::Placed(id)) | Some(AdmitOutcome::Queued(id, _)) => Some(id),
                    _ => None,
                });
                Some(out)
            }
            TraceEventKind::DepartOrdinal(ordinal) => ids
                .get(*ordinal)
                .copied()
                .flatten()
                .map(|id| sched.on_event(te.time, &SchedEvent::Depart(id))),
            TraceEventKind::WorkerFail(g) => {
                Some(sched.on_event(te.time, &SchedEvent::WorkerFail(*g)))
            }
            TraceEventKind::WorkerRecover(g) => {
                Some(sched.on_event(te.time, &SchedEvent::WorkerRecover(*g)))
            }
            TraceEventKind::LinkFlapDown(s, g) => {
                Some(sched.on_event(te.time, &SchedEvent::LinkFlapDown(*s, *g)))
            }
            TraceEventKind::LinkFlapRestore(s) => {
                Some(sched.on_event(te.time, &SchedEvent::LinkFlapRestore(*s)))
            }
        };
        if let Some(out) = out {
            delivered += 1;
            latencies.push(if smoke { 0.0 } else { out.replan.latency_s });
            neighborhoods.push(out.replan.neighborhood as f64);
            peak_resident = peak_resident.max(sched.n_resident());
        }
        if sample_at.contains(&i) && sched.n_resident() > 0 {
            samples.push(sample(&mut sched, i, smoke));
        }
    }

    let mean = |xs: &[f64]| -> f64 {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    let mut sorted = latencies.clone();
    sorted.sort_by(f64::total_cmp);
    let pick = |q: f64| -> f64 {
        if sorted.is_empty() {
            0.0
        } else {
            sorted[((sorted.len() - 1) as f64 * q) as usize]
        }
    };
    let event_latency_mean_s = mean(&latencies);
    let full_latency_mean_s = mean(&samples.iter().map(|s| s.full_latency_s).collect::<Vec<_>>());
    let full_replan_speedup = if smoke || event_latency_mean_s <= 0.0 {
        0.0
    } else {
        full_latency_mean_s / event_latency_mean_s
    };
    let worst_quality_delta = samples
        .iter()
        .map(|s| s.quality_delta)
        .fold(0.0f64, f64::max);
    let c = sched.counters();
    // The trace drains by its end, so "final" state is an empty cluster;
    // the busiest sample reports the cluster objective instead.
    let (peak_aggregate, fairness_floor) = samples
        .iter()
        .max_by(|a, b| a.live_aggregate.total_cmp(&b.live_aggregate))
        .map_or((0.0, 1.0), |s| (s.live_aggregate, s.live_fairness_floor));
    ScaleRow {
        n_jobs,
        servers,
        gpus,
        events: delivered,
        peak_resident,
        placed: c.placed,
        queued: c.queued,
        rejected: c.rejected,
        completed: c.completed,
        evacuated: c.evacuated,
        replans_considered: c.replans_considered,
        plans_moved: c.plans_moved,
        mean_neighborhood: mean(&neighborhoods),
        event_latency_mean_s,
        event_latency_p99_s: pick(0.99),
        event_latency_max_s: sorted.last().copied().unwrap_or(0.0),
        full_latency_mean_s,
        full_replan_speedup,
        peak_aggregate,
        fairness_floor,
        worst_quality_delta,
        quality_within_epsilon: worst_quality_delta <= EQUIVALENCE_EPSILON,
        samples,
    }
}

/// Run the experiment. Smoke keeps to the small scales; the full run
/// sweeps 10 → 100 → 1000 jobs.
pub fn run(smoke: bool) -> ClusterBenchResult {
    const SEED: u64 = 0x5eed;
    let scales: &[usize] = if smoke { &[10, 40] } else { &[10, 100, 1000] };
    ClusterBenchResult {
        mode: if smoke { "smoke" } else { "full" }.to_string(),
        seed: SEED,
        equivalence_epsilon: EQUIVALENCE_EPSILON,
        required_speedup: REQUIRED_SPEEDUP,
        scales: scales
            .iter()
            .map(|&n| run_scale(n, SEED ^ n as u64, smoke))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_places_work_and_matches_whole_world_quality() {
        let r = run(true);
        assert_eq!(r.scales.len(), 2);
        assert!(r.all_ok(), "smoke gates must hold: {:?}", r.scales);
        for s in &r.scales {
            assert!(s.peak_resident > 0);
            assert_eq!(s.event_latency_mean_s, 0.0, "smoke zeroes wall clock");
            assert!(!s.samples.is_empty(), "mid-trace samples were taken");
        }
    }

    #[test]
    fn smoke_is_deterministic() {
        let a = run(true);
        let b = run(true);
        for (x, y) in a.scales.iter().zip(&b.scales) {
            assert_eq!(x.events, y.events);
            assert_eq!(x.placed, y.placed);
            assert_eq!(x.plans_moved, y.plans_moved);
            assert_eq!(
                x.worst_quality_delta.to_bits(),
                y.worst_quality_delta.to_bits()
            );
            assert_eq!(x.peak_aggregate.to_bits(), y.peak_aggregate.to_bits());
        }
    }
}
