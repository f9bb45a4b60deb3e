use std::collections::VecDeque;

use super::*;
use ap_cluster::gpu::GpuKind;
use ap_cluster::{ClusterState, ClusterTopology, EventKind, GpuId, ResourceTimeline};
use ap_models::{synthetic_uniform, ModelProfile};
use ap_pipesim::{AnalyticModel, Framework, Partition, ScheduleKind, Stage, SyncScheme};
use ap_planner::{all_moves, pipedream_plan, PipeDreamView};

use crate::arbiter::ArbiterMode;
use crate::meta_net::{MetaNet, MetaNetConfig};
use crate::metrics::FeatureEncoder;
use crate::profiler::Profiler;

fn topo() -> ClusterTopology {
    ClusterTopology::single_switch(4, 1, GpuKind::P100, 25.0)
}

fn profile() -> ModelProfile {
    ModelProfile::with_batch(&synthetic_uniform(12, 2e9, 6e6, 10e6), 32)
}

fn initial(profile: &ModelProfile) -> Partition {
    let gpus: Vec<GpuId> = (0..4).map(GpuId).collect();
    pipedream_plan(
        profile,
        &gpus,
        PipeDreamView {
            bandwidth: ap_cluster::gbps(25.0),
            gpu_flops: GpuKind::P100.peak_flops(),
        },
    )
}

#[test]
fn invalid_initial_partition_is_a_typed_error() {
    let p = profile();
    let mut bad = initial(&p);
    bad.in_flight = 0;
    let err = AutoPipeController::new(
        &p,
        bad,
        Scorer::Analytic,
        ArbiterMode::Threshold(0.02),
        AutoPipeConfig::default(),
    )
    .err()
    .expect("zero in-flight must be rejected");
    assert_eq!(err, ap_pipesim::PartitionError::ZeroInFlight);
}

#[test]
fn hill_climb_never_regresses_and_improves_imbalanced_starts() {
    let p = profile();
    let st = ClusterState::new(topo());
    let model = AnalyticModel {
        profile: &p,
        scheme: SyncScheme::RingAllReduce,
        framework: Framework::pytorch(),
        schedule: ScheduleKind::PipeDreamAsync,
        calibration: None,
    };
    // Deliberately terrible start: 11 layers on one GPU.
    let bad = Partition {
        stages: vec![
            Stage::new(0..1, vec![GpuId(0)]),
            Stage::new(1..12, vec![GpuId(1)]),
        ],
        in_flight: 2,
    };
    let bad_tp = model.throughput(&bad, &st);
    let better = hill_climb(&model, bad.clone(), &st, 20);
    let better_tp = model.throughput(&better, &st);
    assert!(better_tp > bad_tp * 1.5, "{bad_tp} -> {better_tp}");
}

#[test]
fn controller_keeps_quiet_in_steady_state() {
    let p = profile();
    let st = ClusterState::new(topo());
    let mut ctrl = AutoPipeController::new(
        &p,
        initial(&p),
        Scorer::Analytic,
        ArbiterMode::Threshold(0.02),
        AutoPipeConfig::default(),
    )
    .expect("valid initial partition");
    // First decision may adjust (initialization), afterwards silence.
    let _ = ctrl.observe_and_decide(&st);
    for _ in 0..10 {
        match ctrl.observe_and_decide(&st) {
            Decision::Keep => {}
            Decision::Switch { .. } => panic!("switched without a resource change"),
        }
    }
}

#[test]
fn controller_reacts_to_bandwidth_drop() {
    // Skewed model: activations shrink with depth, so when bandwidth
    // collapses, the optimal cut moves deeper (smaller tensors) even
    // at the cost of compute imbalance.
    let model = ap_models::synthetic_skewed(12, 2e9, 40e6, 10e6);
    let p = ModelProfile::with_batch(&model, 32);
    // Compute-balanced boundary (what a high-bandwidth plan picks).
    let init = Partition {
        stages: vec![
            Stage::new(0..8, vec![GpuId(0)]),
            Stage::new(8..12, vec![GpuId(1)]),
        ],
        in_flight: 2,
    };
    let mut cfg = AutoPipeConfig::default();
    cfg.detector.persistence = 2;
    let mut ctrl = AutoPipeController::new(
        &p,
        init.clone(),
        Scorer::Analytic,
        ArbiterMode::Threshold(0.0),
        cfg,
    )
    .expect("valid initial partition");
    let st = ClusterState::new(topo());
    for _ in 0..4 {
        let _ = ctrl.observe_and_decide(&st);
    }
    let before = ctrl.partition.clone();
    // Drop bandwidth 25x: the cut must move toward smaller tensors.
    let mut slow = ClusterState::new(topo());
    slow.apply(&EventKind::SetAllLinksGbps(1.0));
    let mut switched = false;
    for _ in 0..6 {
        if let Decision::Switch { .. } = ctrl.observe_and_decide(&slow) {
            switched = true;
            break;
        }
    }
    assert!(switched, "controller must react to a 25x bandwidth drop");
    assert_ne!(ctrl.partition, before);
    // The new configuration is analytically better at low bandwidth
    // (a deeper cut or a merge into fewer comm-bound stages).
    let model = AnalyticModel {
        profile: &p,
        scheme: SyncScheme::RingAllReduce,
        framework: Framework::pytorch(),
        schedule: ScheduleKind::PipeDreamAsync,
        calibration: None,
    };
    assert!(model.throughput(&ctrl.partition, &slow) > model.throughput(&before, &slow));

    // The journal must tell the whole story of the applied switch: the
    // confirmed change, the scored candidates, the arbiter's approval and
    // the switch itself, in stage order within one decision point.
    let has = |f: &dyn Fn(&DecisionEvent) -> bool| ctrl.journal.records.iter().any(|r| f(&r.event));
    assert!(has(&|e| matches!(e, DecisionEvent::ChangeDetected { .. })));
    assert!(has(&|e| matches!(
        e,
        DecisionEvent::CandidatesScored { scored, .. } if *scored > 0
    )));
    assert!(has(&|e| matches!(
        e,
        DecisionEvent::ArbiterVerdict { approved: true, .. }
    )));
    assert!(has(&|e| matches!(e, DecisionEvent::SwitchApplied { .. })));
    let d = ctrl
        .journal
        .records
        .iter()
        .find(|r| matches!(r.event, DecisionEvent::SwitchApplied { .. }))
        .map(|r| r.decision)
        .expect("switch recorded");
    let names: Vec<&str> = ctrl
        .journal
        .records
        .iter()
        .filter(|r| r.decision == d)
        .map(|r| r.event.name())
        .collect();
    assert_eq!(names, ["change", "score", "verdict", "switch"]);
}

#[test]
fn dynamic_scenario_baseline_matches_plain_engine() {
    let p = profile();
    let cfg = AutoPipeConfig::default();
    let r = run_dynamic_scenario(
        &p,
        &topo(),
        &ResourceTimeline::empty(),
        initial(&p),
        None,
        &cfg,
        30,
    )
    .expect("scenario");
    assert!(r.mean_throughput > 0.0);
    assert!(r.switches.is_empty());
    assert!(r.journal.is_empty());
    assert_eq!(r.speed_series.len(), 30);
}

#[test]
fn autopipe_beats_static_plan_under_bandwidth_drop() {
    let cfg = AutoPipeConfig {
        check_every: 3,
        detector: ap_cluster::DetectorConfig {
            threshold: 0.15,
            persistence: 1,
        },
        ..AutoPipeConfig::default()
    };
    // Comm-heavy model so partitioning matters.
    let pc = ModelProfile::with_batch(&synthetic_uniform(12, 5e8, 40e6, 10e6), 32);
    let init = {
        let gpus: Vec<GpuId> = (0..4).map(GpuId).collect();
        pipedream_plan(
            &pc,
            &gpus,
            PipeDreamView {
                bandwidth: ap_cluster::gbps(25.0),
                gpu_flops: GpuKind::P100.peak_flops(),
            },
        )
    };
    let mut tl = ResourceTimeline::empty();
    tl.push(3.0, EventKind::SetAllLinksGbps(5.0));
    let baseline =
        run_dynamic_scenario(&pc, &topo(), &tl, init.clone(), None, &cfg, 60).expect("baseline");
    let mut ctrl = AutoPipeController::new(
        &pc,
        init.clone(),
        Scorer::Analytic,
        ArbiterMode::Threshold(0.0),
        cfg.clone(),
    )
    .expect("valid initial partition");
    let auto =
        run_dynamic_scenario(&pc, &topo(), &tl, init, Some(&mut ctrl), &cfg, 60).expect("auto");
    assert!(
        auto.mean_throughput >= baseline.mean_throughput,
        "AutoPipe {} must be at least the static baseline {}",
        auto.mean_throughput,
        baseline.mean_throughput
    );
    // Journal records carry the run position stamped by the engine.
    if let Some(last) = auto.journal.records.last() {
        assert!(last.iteration > 0);
        assert!(last.time > 0.0);
    }
}

#[test]
fn traced_scenario_merges_decisions_into_chrome_trace() {
    let cfg = AutoPipeConfig {
        check_every: 3,
        detector: ap_cluster::DetectorConfig {
            threshold: 0.15,
            persistence: 1,
        },
        ..AutoPipeConfig::default()
    };
    let pc = ModelProfile::with_batch(&synthetic_uniform(12, 5e8, 40e6, 10e6), 32);
    let init = initial(&pc);
    let mut tl = ResourceTimeline::empty();
    tl.push(3.0, EventKind::SetAllLinksGbps(5.0));
    let mut ctrl = AutoPipeController::new(
        &pc,
        init.clone(),
        Scorer::Analytic,
        ArbiterMode::Threshold(0.0),
        cfg.clone(),
    )
    .expect("valid initial partition");
    let (scenario, sim) =
        run_dynamic_scenario_traced(&pc, &topo(), &tl, init, Some(&mut ctrl), &cfg, 40)
            .expect("traced scenario");
    assert!(!sim.segments.is_empty(), "timeline must be recorded");
    assert!(!scenario.journal.is_empty(), "journal must be populated");
    let events = scenario.journal.to_trace_events();
    assert_eq!(events.len(), scenario.journal.len());
    let trace = ap_pipesim::to_chrome_trace_with_events(&sim, "fig", "decisions", &events);
    assert!(trace.contains("\"name\":\"decisions\""));
    assert!(trace.contains("\"cat\":\"decision\""));
}

#[test]
fn pretrained_meta_net_correlates_with_analytic_truth() {
    let p = profile();
    let cfg = AutoPipeConfig::default();
    let net = pretrain_meta_net(&p, &topo(), &cfg, MetaNetConfig::default(), 400, 60, 9);
    // Spot-check ranking: balanced two-stage beats absurd split in a
    // mid-bandwidth environment.
    let st = ClusterState::new(topo());
    let model = AnalyticModel {
        profile: &p,
        scheme: cfg.scheme,
        framework: cfg.framework,
        schedule: cfg.schedule,
        calibration: None,
    };
    let good = Partition {
        stages: vec![
            Stage::new(0..6, vec![GpuId(0), GpuId(1)]),
            Stage::new(6..12, vec![GpuId(2), GpuId(3)]),
        ],
        in_flight: 6,
    };
    // Same worker budget as `good` (in-distribution for the sampler)
    // but a badly skewed layer boundary.
    let bad = Partition {
        stages: vec![
            Stage::new(0..1, vec![GpuId(0), GpuId(1)]),
            Stage::new(1..12, vec![GpuId(2), GpuId(3)]),
        ],
        in_flight: 6,
    };
    let enc = FeatureEncoder;
    let mut prof = Profiler::new(&p, 0.0, 4);
    let seq: Vec<Vec<f64>> = (0..8)
        .map(|_| {
            let m = prof.observe(&good.all_workers(), &st);
            enc.encode_dynamic(&m, &good)
        })
        .collect();
    let stat = |part: &Partition| {
        let m = crate::metrics::static_metrics_from_profile(&p, part.n_workers());
        enc.encode_static(&m, part)
    };
    let pg = net.predict_throughput(&seq, &stat(&good));
    let pb = net.predict_throughput(&seq, &stat(&bad));
    assert!(
        pg > pb,
        "meta-net must rank like the analytic model ({} vs {}), truth {} vs {}",
        pg,
        pb,
        model.throughput(&good, &st),
        model.throughput(&bad, &st)
    );
}

/// Both scorer arms must select exactly the same best move — bit-identical
/// score, equal move — as a serial scan
/// through the unhoisted per-candidate path, across seeded scenarios
/// and both scorer arms.
#[test]
fn best_matches_per_candidate_reference() {
    let p = profile();
    for seed in [3u64, 11, 42] {
        let mut rng = ap_rng::Rng::seed_from_u64(seed);
        let mut st = ClusterState::new(topo());
        st.apply(&EventKind::SetAllLinksGbps(rng.gen_range(5.0..60.0)));
        st.apply(&EventKind::SetGpuSharing(
            GpuId(rng.gen_range(0..4usize)),
            rng.gen_range(1..=3u32),
        ));
        let scorers = [
            Scorer::Analytic,
            Scorer::MetaNet(Box::new(MetaNet::new(MetaNetConfig {
                seed,
                ..MetaNetConfig::default()
            }))),
        ];
        let cfg = AutoPipeConfig::default();
        for scorer in scorers {
            let history: VecDeque<Vec<f64>> = (0..8)
                .map(|_| {
                    (0..crate::metrics::DYNAMIC_DIM)
                        .map(|_| rng.gen_range(0.0..1.0))
                        .collect()
                })
                .collect();
            let ctx = ScoreCtx {
                model: cfg.model(&p),
                history: &history,
                state: &st,
            };
            let base = initial(&p);
            let moves = all_moves(&base, &p);
            assert!(moves.len() > 4, "neighborhood too small to exercise");
            // Serial reference: the per-candidate path (full LSTM pass
            // each time for MetaNet) scanned in input order.
            let serial = moves
                .iter()
                .map(|mv| (scorer.predict(&ctx, &mv.apply(&base)), *mv))
                .max_by(|a, b| a.0.total_cmp(&b.0))
                .unwrap();
            let fast = scorer.best(&ctx, &base, &moves).unwrap();
            assert_eq!(
                fast.0.to_bits(),
                serial.0.to_bits(),
                "seed {seed}: scores diverged: {} vs {}",
                fast.0,
                serial.0
            );
            assert_eq!(
                fast.1, serial.1,
                "seed {seed}: selected different candidate"
            );
        }
    }
}

#[test]
fn worker_death_triggers_emergency_evacuation() {
    let p = profile();
    let init = initial(&p);
    let victim = init.stages[0].workers[0];
    let mut ctrl = AutoPipeController::new(
        &p,
        init,
        Scorer::Analytic,
        ArbiterMode::Threshold(0.02),
        AutoPipeConfig::default(),
    )
    .expect("valid initial partition");
    let mut st = ClusterState::new(topo());
    st.apply(&EventKind::WorkerFail(victim));
    match ctrl.observe_and_decide_at(&st, None, 0, 0.0) {
        Decision::Switch { partition, .. } => {
            assert!(
                !partition.all_workers().contains(&victim),
                "evacuation must drop the dead worker: {}",
                partition.summary()
            );
            partition.validate(p.n_layers()).expect("repair is valid");
        }
        Decision::Keep => panic!("an infeasible partition must be repaired"),
    }
    let has = |f: fn(&DecisionEvent) -> bool| ctrl.journal.records.iter().any(|r| f(&r.event));
    assert!(has(|e| matches!(
        e,
        DecisionEvent::InfeasibleDetected { .. }
    )));
    assert!(has(|e| matches!(
        e,
        DecisionEvent::EmergencyRepartition { .. }
    )));
}

#[test]
fn evacuation_dead_end_falls_back_to_data_parallel() {
    // Two single-replica stages: when the last stage's only worker dies,
    // no incremental move strictly reduces the dead-worker count (merging
    // keeps the victim in the union, dropping needs a second replica), so
    // the repair must fall back to pure data parallelism over survivors.
    let p = profile();
    let init = Partition {
        stages: vec![
            Stage::new(0..8, vec![GpuId(0)]),
            Stage::new(8..12, vec![GpuId(1)]),
        ],
        in_flight: 2,
    };
    let mut ctrl = AutoPipeController::new(
        &p,
        init,
        Scorer::Analytic,
        ArbiterMode::Threshold(0.02),
        AutoPipeConfig::default(),
    )
    .expect("valid initial partition");
    let mut st = ClusterState::new(topo());
    st.apply(&EventKind::WorkerFail(GpuId(1)));
    match ctrl.observe_and_decide_at(&st, None, 0, 0.0) {
        Decision::Switch { partition, .. } => {
            assert_eq!(partition.all_workers(), vec![GpuId(0)]);
            assert_eq!(partition.stages.len(), 1, "{}", partition.summary());
            partition.validate(p.n_layers()).expect("fallback is valid");
        }
        Decision::Keep => panic!("the dead-end must trigger the data-parallel fallback"),
    }
}

#[test]
fn recovery_before_repair_reinstates_current_partition() {
    let p = profile();
    let init = initial(&p);
    let first_victim = init.stages[0].workers[0];
    let cfg = AutoPipeConfig {
        retry_base_delay_seconds: 10.0, // wide backoff window
        ..Default::default()
    };
    let mut ctrl = AutoPipeController::new(
        &p,
        init,
        Scorer::Analytic,
        ArbiterMode::Threshold(0.02),
        cfg,
    )
    .expect("valid initial partition");
    let mut st = ClusterState::new(topo());

    // First death: repaired by an emergency switch (consumes attempt 1).
    st.apply(&EventKind::WorkerFail(first_victim));
    let repaired = match ctrl.observe_and_decide_at(&st, None, 0, 0.0) {
        Decision::Switch { partition, .. } => partition,
        Decision::Keep => panic!("first death must be repaired"),
    };
    st.apply(&EventKind::WorkerRecover(first_victim));

    // Second death inside the backoff window: the controller must wait
    // (Keep) and remember the unrepaired episode.
    let second_victim = repaired.all_workers()[0];
    st.apply(&EventKind::WorkerFail(second_victim));
    match ctrl.observe_and_decide_at(&st, None, 5, 0.5) {
        Decision::Keep => {}
        Decision::Switch { .. } => panic!("backoff window must gate the second repair"),
    }

    // The victim recovers before any repair switch was applied: the
    // engine's live epoch still excludes it, so the controller must
    // re-apply the current partition (pause 0) to rebuild a full epoch.
    st.apply(&EventKind::WorkerRecover(second_victim));
    match ctrl.observe_and_decide_at(&st, None, 10, 1.0) {
        Decision::Switch {
            partition,
            pause_seconds,
        } => {
            assert_eq!(
                partition, ctrl.partition,
                "reinstate re-applies, not re-plans"
            );
            assert_eq!(pause_seconds, 0.0);
        }
        Decision::Keep => panic!("recovery with no repair applied must reinstate the epoch"),
    }
    // And the reinstate fires once: the next consult is quiet.
    match ctrl.observe_and_decide_at(&st, None, 15, 1.5) {
        Decision::Keep => {}
        Decision::Switch { .. } => panic!("reinstate must not repeat"),
    }
}
