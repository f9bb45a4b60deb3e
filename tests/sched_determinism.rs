//! The cluster scheduler is a deterministic function of `(topology,
//! trace, seed)`: re-running the same trace must reproduce every event
//! record and counter exactly, in one process and across processes (a
//! pinned digest, the same idiom as `journal_determinism`).

use std::sync::Arc;

use ap_cluster::gpu::GpuKind;
use ap_cluster::{ClusterTopology, FaultPlanConfig};
use ap_models::{synthetic_skewed, ModelProfile};
use ap_resilience::FakeClock;
use ap_sched::trace::{self, EventRecord, TraceConfig};
use ap_sched::{ClusterScheduler, SchedConfig, SchedCounters};
use autopipe::HillClimbPlanner;

/// A trace busy enough to exercise every event kind: arrivals that place
/// and queue, departures that drain, worker failures that evacuate, and
/// NIC flaps that re-plan a whole server.
fn run_once() -> (Vec<EventRecord>, SchedCounters) {
    let topo = ClusterTopology::single_switch(6, 4, GpuKind::P100, 25.0);
    let palette = vec![(
        "synthetic",
        ModelProfile::with_batch(&synthetic_skewed(8, 2e9, 20e6, 8e6), 32),
    )];
    let cfg = TraceConfig {
        n_jobs: 60,
        arrival_rate_hz: 1.0,
        mean_duration_s: 12.0,
        min_gpus: 1,
        max_gpus: 4,
        adaptive_fraction: 0.7,
        faults: Some(FaultPlanConfig::default()),
    };
    let events = trace::generate(&topo, &palette, &cfg, 42);
    let mut sched = ClusterScheduler::new(
        topo,
        SchedConfig::default(),
        Box::new(HillClimbPlanner::default()),
        Arc::new(FakeClock::new()),
    );
    let records = trace::run(&mut sched, &events);
    (records, sched.counters())
}

/// FNV-1a over the full debug rendering: every field of every record
/// (including float formatting) participates. Latencies are 0 under the
/// fake clock, so wall time cannot perturb the digest.
fn digest(records: &[EventRecord], counters: &SchedCounters) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{records:?}{counters:?}").bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn schedule_is_identical_across_reruns() {
    let (ra, ca) = run_once();
    let (rb, cb) = run_once();
    assert!(!ra.is_empty(), "trace must deliver events");
    assert!(ca.placed > 0, "trace must place work");
    assert!(
        ra.iter().any(|r| r.kind == "worker-fail"),
        "trace must include failures"
    );
    assert_eq!(digest(&ra, &ca), digest(&rb, &cb));
    for (a, b) in ra.iter().zip(&rb) {
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.resident, b.resident);
        assert_eq!(a.moved, b.moved);
    }
}

/// The schedule's digest, pinned across processes: the value it had at
/// every worker-pool width (1 and 4 threads) while planning still fanned
/// out over threads. Planning now runs on the calling thread, so only a
/// change to a placement, a record or a counter moves it.
#[test]
fn schedule_is_independent_of_worker_pool_width() {
    let (records, counters) = run_once();
    assert_eq!(
        format!("{:016x}/{}", digest(&records, &counters), records.len()),
        "936e7f9a60b58bdf/127"
    );
}

#[test]
fn different_seeds_produce_different_schedules() {
    // Guard against a degenerate digest / a scheduler that ignores its
    // input: two different traces must not collide.
    let topo = ClusterTopology::single_switch(6, 4, GpuKind::P100, 25.0);
    let palette = vec![(
        "synthetic",
        ModelProfile::with_batch(&synthetic_skewed(8, 2e9, 20e6, 8e6), 32),
    )];
    let cfg = TraceConfig {
        n_jobs: 20,
        ..TraceConfig::default()
    };
    let run_seed = |seed| {
        let events = trace::generate(&topo, &palette, &cfg, seed);
        let mut sched = ClusterScheduler::new(
            topo.clone(),
            SchedConfig::default(),
            Box::new(HillClimbPlanner::default()),
            Arc::new(FakeClock::new()),
        );
        let records = trace::run(&mut sched, &events);
        digest(&records, &sched.counters())
    };
    assert_ne!(run_seed(1), run_seed(2));
}
