//! The decision journal is a deterministic function of the scenario and
//! the seed: re-running a dynamic scenario must reproduce it exactly, in
//! one process and across processes (a pinned digest).

use std::collections::VecDeque;

use ap_cluster::gpu::GpuKind;
use ap_cluster::{gbps, ClusterTopology, DetectorConfig, EventKind, GpuId, ResourceTimeline};
use ap_models::{synthetic_skewed, ModelProfile};
use ap_planner::{pipedream_plan, PipeDreamView};
use autopipe::arbiter::ArbiterMode;
use autopipe::controller::{run_dynamic_scenario, AutoPipeConfig, AutoPipeController, Scorer};
use autopipe::{DecisionJournal, ScenarioResult};

/// A scenario busy enough to exercise every journal event kind: a
/// bandwidth collapse forces detection, scoring, switching and
/// verification.
fn run_once() -> ScenarioResult {
    let model = synthetic_skewed(12, 2e9, 40e6, 10e6);
    let profile = ModelProfile::with_batch(&model, 32);
    let topo = ClusterTopology::single_switch(4, 1, GpuKind::P100, 25.0);
    let init = pipedream_plan(
        &profile,
        &(0..4).map(GpuId).collect::<Vec<_>>(),
        PipeDreamView {
            bandwidth: gbps(25.0),
            gpu_flops: GpuKind::P100.peak_flops(),
        },
    );
    let mut tl = ResourceTimeline::empty();
    tl.push(3.0, EventKind::SetAllLinksGbps(2.0));
    let cfg = AutoPipeConfig {
        check_every: 6,
        detector: DetectorConfig {
            threshold: 0.12,
            persistence: 1,
        },
        ..AutoPipeConfig::default()
    };
    let mut ctrl = AutoPipeController::new(
        &profile,
        init.clone(),
        Scorer::Analytic,
        ArbiterMode::Threshold(0.0),
        cfg.clone(),
    )
    .expect("valid initial partition");
    run_dynamic_scenario(&profile, &topo, &tl, init, Some(&mut ctrl), &cfg, 60)
        .expect("controlled scenario")
}

/// FNV-1a over the journal's full debug rendering (every field of every
/// event, including float formatting, participates).
fn digest(journal: &DecisionJournal) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{journal:?}").bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn journal_is_identical_across_reruns() {
    let a = run_once();
    let b = run_once();
    assert!(!a.journal.is_empty(), "scenario must produce decisions");
    assert_eq!(a.journal, b.journal, "journals must match structurally");
    assert_eq!(a.speed_series, b.speed_series);
    assert_eq!(a.switches, b.switches);
}

/// The journal's digest, pinned across processes: the value it had at
/// every worker-pool width (1 and 4 threads) while scoring still fanned
/// out over threads. Scoring now runs on the calling thread, so only a
/// change to a decision, or to how a journal event renders, moves it.
#[test]
fn journal_is_independent_of_worker_pool_width() {
    let r = run_once();
    assert_eq!(
        format!("{:016x}/{}", digest(&r.journal), r.journal.len()),
        "07446c6245f432c8/8"
    );
}

#[test]
fn journal_digest_separates_different_scenarios() {
    // Guard against a degenerate digest: an empty journal and a populated
    // one must not collide.
    let r = run_once();
    assert_ne!(digest(&r.journal), digest(&DecisionJournal::new()));
}

#[test]
fn scorer_history_snapshot_is_order_stable() {
    // The scorer consumes the observation history in insertion order; a
    // cheap structural check that the VecDeque-to-Vec snapshot the MetaNet
    // path takes preserves it.
    let mut dq: VecDeque<Vec<f64>> = VecDeque::new();
    for i in 0..5 {
        dq.push_back(vec![i as f64]);
    }
    let snap: Vec<Vec<f64>> = dq.iter().cloned().collect();
    assert_eq!(
        snap,
        vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0], vec![4.0]]
    );
}
