//! Golden schedules for the cluster scheduler: seeded `ap_sched::trace`
//! streams replayed through `ClusterScheduler::on_event` with the
//! hill-climb planner, at two scales — a small fabric with faults, and the
//! opening slice of the 125 server × 4 GPU fabric cluster-bench and the
//! `cluster` benchmark workload use.
//!
//! Each event records its outcome, the neighborhood re-plan counts, the
//! dequeued and evacuated ids, and every resident's partition, in-flight
//! depth and the exact bits of its predicted, solo and network figures.
//! The per-event planning path is a hot path that gets optimized; any
//! drift in a decision or in the state a proposal is priced against
//! (a view that differs from the live state by one ulp) changes a line
//! here and fails the suite.

use std::fmt::Write as _;
use std::sync::Arc;

use ap_cluster::gpu::GpuKind;
use ap_cluster::{ClusterTopology, FaultPlanConfig};
use ap_models::{alexnet, synthetic_skewed, ModelProfile};
use ap_resilience::FakeClock;
use ap_sched::trace::{self, TimedEvent, TraceConfig, TraceEventKind};
use ap_sched::{AdmitOutcome, ClusterScheduler, EventOutcome, JobId, SchedConfig, SchedEvent};
use autopipe::HillClimbPlanner;

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

/// Fault rates scaled to a trace's span, as cluster-bench sets them.
fn faults(span: f64) -> FaultPlanConfig {
    FaultPlanConfig {
        mtbf: span / 4.0,
        mttr: span / 8.0,
        max_concurrent_failures: 2,
        flap_mtbf: span / 3.0,
        flap_down_gbps: 2.0,
        flap_period: (span / 50.0).max(1.0),
        flap_count: 2,
    }
}

/// `servers` × 4 P100s, with residency kept near half the GPUs.
fn case(servers: usize, n_jobs: usize, faults_span_jobs: usize) -> (ClusterTopology, TraceConfig) {
    let topo = ClusterTopology::single_switch(servers, 4, GpuKind::P100, 25.0);
    let mean_duration_s = 0.5 * topo.n_gpus() as f64;
    let span = faults_span_jobs as f64 + 3.0 * mean_duration_s;
    let cfg = TraceConfig {
        n_jobs,
        arrival_rate_hz: 1.0,
        mean_duration_s,
        min_gpus: 1,
        max_gpus: 4,
        adaptive_fraction: 0.7,
        faults: Some(faults(span)),
    };
    (topo, cfg)
}

fn ids(v: &[JobId]) -> String {
    let s: Vec<String> = v.iter().map(|j| j.0.to_string()).collect();
    format!("[{}]", s.join(","))
}

fn admit(out: &EventOutcome) -> String {
    match &out.admit {
        None => "-".to_string(),
        Some(AdmitOutcome::Placed(id)) => format!("placed:{}", id.0),
        Some(AdmitOutcome::Queued(id, why)) => format!("queued:{}:{}", id.0, why.id()),
        Some(AdmitOutcome::Rejected(why)) => format!("rejected:{}", why.id()),
    }
}

/// One line per resident job, in id order.
fn residents(s: &ClusterScheduler) -> Vec<String> {
    s.jobs()
        .map(|j| {
            let stages: Vec<String> = j
                .partition
                .stages
                .iter()
                .map(|st| {
                    let w: Vec<String> = st.workers.iter().map(|g| g.0.to_string()).collect();
                    format!("{}-{}:{}", st.layers.start, st.layers.end, w.join(","))
                })
                .collect();
            format!(
                "  j{} {} d{} pred={:016x} solo={:016x} net={:016x} deficit={:016x}",
                j.id.0,
                stages.join("/"),
                j.partition.in_flight,
                j.predicted.to_bits(),
                j.solo.to_bits(),
                j.net_bytes_per_sec.to_bits(),
                j.mem.worst_deficit().to_bits(),
            )
        })
        .collect()
}

/// FNV-1a over the resident lines: one line per event stands for them on
/// the large fabric, where listing ~200 residents per event would bloat
/// the data file.
fn digest(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for l in lines {
        for b in l.bytes().chain([b'\n']) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Replay the first `max_events` delivered events of `events`. Every
/// event logs one line; residents are listed in full after every event
/// when `list_every` is 1, otherwise as a digest with a full listing and
/// the cluster objective every `list_every` events.
fn replay(
    topo: ClusterTopology,
    events: &[TimedEvent],
    max_events: usize,
    list_every: usize,
) -> Vec<String> {
    let mut sched = ClusterScheduler::new(
        topo,
        SchedConfig::default(),
        Box::new(HillClimbPlanner::default()),
        Arc::new(FakeClock::new()),
    );
    let mut ordinals: Vec<Option<JobId>> = Vec::new();
    let mut out = Vec::new();
    let mut n = 0;
    for te in events {
        if n == max_events {
            break;
        }
        let (label, ev) = match &te.event {
            TraceEventKind::Arrive(req) => ("arrive", SchedEvent::Arrive(req.clone())),
            TraceEventKind::DepartOrdinal(o) => match ordinals.get(*o).copied().flatten() {
                Some(id) => ("depart", SchedEvent::Depart(id)),
                None => continue,
            },
            TraceEventKind::WorkerFail(g) => ("worker-fail", SchedEvent::WorkerFail(*g)),
            TraceEventKind::WorkerRecover(g) => ("worker-recover", SchedEvent::WorkerRecover(*g)),
            TraceEventKind::LinkFlapDown(s, g) => ("flap-down", SchedEvent::LinkFlapDown(*s, *g)),
            TraceEventKind::LinkFlapRestore(s) => ("flap-restore", SchedEvent::LinkFlapRestore(*s)),
        };
        let o = sched.on_event(te.time, &ev);
        if let TraceEventKind::Arrive(_) = te.event {
            ordinals.push(match o.admit {
                Some(AdmitOutcome::Placed(id)) | Some(AdmitOutcome::Queued(id, _)) => Some(id),
                _ => None,
            });
        }
        n += 1;
        let lines = residents(&sched);
        let mut line = format!(
            "{n} {label} t={:016x} {} nb={} considered={} moved={} dequeued={} evacuated={} resident={} queued={}",
            te.time.to_bits(),
            admit(&o),
            o.replan.neighborhood,
            o.replan.considered,
            o.replan.moved,
            ids(&o.dequeued),
            ids(&o.evacuated),
            sched.n_resident(),
            sched.n_queued(),
        );
        if list_every == 1 {
            out.push(line);
            out.extend(lines);
            continue;
        }
        let _ = write!(line, " residents={:016x}", digest(&lines));
        out.push(line);
        if n % list_every == 0 {
            let obj = sched.objective();
            out.push(format!(
                "  objective aggregate={:016x} floor={:016x}",
                obj.aggregate.to_bits(),
                obj.fairness_floor.to_bits()
            ));
            out.extend(residents(&sched));
        }
    }
    out
}

fn check(name: &str, golden: &str, got: Vec<String>) {
    let want: Vec<&str> = golden.lines().collect();
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "{name} line {} differs", i + 1);
    }
    assert_eq!(got.len(), want.len(), "{name} line count differs");
}

#[test]
fn small_fabric_with_faults_replays_the_golden_schedule() {
    let mut got = Vec::new();
    for seed in [1u64, 2, 3] {
        // 3 servers x 4 GPUs, 40 arrivals, faults on the trace's span.
        let (topo, cfg) = case(3, 40, 40);
        let events = trace::generate(&topo, &palette(), &cfg, seed);
        got.push(format!("# seed {seed}"));
        got.extend(replay(topo, &events, usize::MAX, 1));
    }
    check(
        "sched_golden_small.txt",
        include_str!("data/sched_golden_small.txt"),
        got,
    );
}

#[test]
fn cluster_bench_fabric_slice_replays_the_golden_schedule() {
    // The `cluster` workload's fabric and trace knobs (125 x 4 GPUs,
    // 3000 arrivals, faults scaled to a 1000-job span). Seed 4's first
    // 1000 delivered events reach ~220 residents, and its first worker
    // fault is trace event 332.
    let (topo, cfg) = case(125, 3000, 1000);
    let events = trace::generate(&topo, &palette(), &cfg, 4);
    check(
        "sched_golden_fabric.txt",
        include_str!("data/sched_golden_fabric.txt"),
        replay(topo, &events, 1000, 250),
    );
}
