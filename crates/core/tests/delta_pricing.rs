//! Move pricing against a stage table must equal pricing the built
//! candidate from scratch, bit for bit, and the analytic scorer must pick
//! exactly the move a serial `max_by(total_cmp)` over built candidates
//! picks (the last of equal maxima).

use std::collections::VecDeque;

use ap_cluster::gpu::GpuKind;
use ap_cluster::{ClusterState, ClusterTopology, EventKind, GpuId, ServerId};
use ap_models::{
    alexnet, bert48, bert_n, gpt2_medium, gpt2_small, resnet101, resnet152, resnet50,
    synthetic_uniform, vgg16, ModelDesc, ModelProfile,
};
use ap_pipesim::{AnalyticModel, Calibration, Framework, Partition, ScheduleKind, SyncScheme};
use ap_planner::{all_moves, drop_moves, pipedream_plan, MoveKind, PipeDreamView};
use autopipe::controller::ScoreCtx;
use autopipe::Scorer;

const SHAPES: [(usize, usize); 6] = [(2, 1), (3, 1), (2, 2), (5, 2), (3, 3), (4, 3)];

fn zoo() -> Vec<ModelDesc> {
    vec![
        alexnet(),
        vgg16(),
        resnet50(),
        resnet101(),
        resnet152(),
        bert_n(12),
        bert_n(24),
        bert48(),
        gpt2_small(),
        gpt2_medium(),
    ]
}

/// A shared cluster at `gbps`: one NIC at 30% of the rest, one
/// time-shared GPU, some background traffic, so replicas and pairs
/// differ. At a low rate the cuts are the bottleneck, so a mispriced cut
/// shows in the throughput.
fn shared(servers: usize, per: usize, gbps: f64) -> ClusterState {
    let mut st = ClusterState::new(ClusterTopology::single_switch(
        servers,
        per,
        GpuKind::V100,
        gbps,
    ));
    st.apply(&EventKind::SetServerLinkGbps(ServerId(0), 0.3 * gbps));
    st.apply(&EventKind::SetGpuSharing(GpuId(servers * per - 1), 3));
    st.apply(&EventKind::SetBackgroundTraffic(
        ServerId(servers - 1),
        gbps * 0.04e9,
    ));
    st
}

fn calibrations(n_stages: usize) -> [Option<Calibration>; 4] {
    let with_slots = |compute_slots| {
        Some(Calibration {
            per_frame_s: 2.0e-5,
            per_byte_s: 1.0e-10,
            stage_overhead_s: 3.0e-4,
            stash_byte_s: 2.0e-11,
            compute_slots,
        })
    };
    [
        None,
        with_slots(0),
        with_slots(1),
        with_slots(n_stages.saturating_sub(1).max(1)),
    ]
}

/// Every move of `base`, drops included, priced both ways.
fn assert_moves_price_exactly(model: &AnalyticModel<'_>, base: &Partition, st: &ClusterState) {
    let table = model.table(base, st);
    let mut moves = all_moves(base, model.profile);
    moves.extend(drop_moves(base));
    for mv in moves {
        let delta = mv.throughput(model, &table, base, st);
        let full = model.throughput(&mv.apply(base), st);
        assert_eq!(
            delta.to_bits(),
            full.to_bits(),
            "{mv:?} from {} under {:?}, calibration {:?}: {delta} vs {full}",
            base.summary(),
            model.schedule,
            model.calibration,
        );
    }
}

#[test]
fn table_pricing_equals_full_pricing_for_every_move() {
    let mut priced = 0usize;
    for desc in zoo() {
        let profile = ModelProfile::of(&desc);
        for ((servers, per), gbps) in SHAPES.into_iter().flat_map(|s| [(s, 25.0), (s, 1.0)]) {
            let st = shared(servers, per, gbps);
            let gpus: Vec<GpuId> = (0..servers * per).map(GpuId).collect();
            let seed = pipedream_plan(
                &profile,
                &gpus,
                PipeDreamView {
                    bandwidth: ap_cluster::gbps(25.0),
                    gpu_flops: GpuKind::V100.peak_flops(),
                },
            );
            // The seed, a one-stage-per-worker pipeline with a replicated
            // first stage, and the seed at depth 1 (a stash-free base whose
            // migrations turn the stash on).
            let mut bases = vec![seed.clone()];
            if profile.n_layers() >= gpus.len() && gpus.len() >= 3 {
                let n = gpus.len() - 1;
                let per_stage = profile.n_layers() / n;
                let mut stages: Vec<ap_pipesim::Stage> = (0..n)
                    .map(|s| {
                        let end = if s + 1 == n {
                            profile.n_layers()
                        } else {
                            (s + 1) * per_stage
                        };
                        ap_pipesim::Stage::new(s * per_stage..end, vec![gpus[s + 1]])
                    })
                    .collect();
                stages[0].workers.insert(0, gpus[0]);
                let mut p = Partition {
                    stages,
                    in_flight: 1,
                };
                p.in_flight = p.default_in_flight();
                bases.push(p);
            }
            let mut shallow = seed;
            shallow.in_flight = 1;
            bases.push(shallow);
            for schedule in ScheduleKind::zoo() {
                for base in &bases {
                    for calibration in calibrations(base.n_stages()) {
                        let model = AnalyticModel {
                            profile: &profile,
                            scheme: SyncScheme::RingAllReduce,
                            framework: Framework::pytorch(),
                            schedule,
                            calibration,
                        };
                        assert_moves_price_exactly(&model, base, &st);
                        priced += 1;
                    }
                }
            }
        }
    }
    assert!(priced > 2000, "grid shrank: {priced} bases");
}

#[test]
fn parameter_server_sync_prices_exactly_too() {
    let profile = ModelProfile::of(&resnet50());
    let st = shared(5, 2, 10.0);
    let gpus: Vec<GpuId> = (0..10).map(GpuId).collect();
    let base = pipedream_plan(
        &profile,
        &gpus,
        PipeDreamView {
            bandwidth: ap_cluster::gbps(25.0),
            gpu_flops: GpuKind::V100.peak_flops(),
        },
    );
    for schedule in ScheduleKind::zoo() {
        for calibration in calibrations(base.n_stages()) {
            let model = AnalyticModel {
                profile: &profile,
                scheme: SyncScheme::ParameterServer,
                framework: Framework::tensorflow(),
                schedule,
                calibration,
            };
            assert_moves_price_exactly(&model, &base, &st);
        }
    }
}

/// The serial reference: build every candidate, score it from scratch,
/// `max_by(total_cmp)` in input order.
fn serial_best(
    model: &AnalyticModel<'_>,
    base: &Partition,
    moves: &[MoveKind],
    st: &ClusterState,
) -> (f64, MoveKind) {
    moves
        .iter()
        .map(|mv| (model.throughput(&mv.apply(base), st), *mv))
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .expect("moves")
}

#[test]
fn ties_go_to_the_last_maximum_like_a_serial_scan() {
    // Four identical one-GPU stages of a uniform model on uniform GPUs:
    // mirror-image moves (growing the first stage or the last, merging
    // either end pair, ...) price exactly alike.
    let profile = ModelProfile::with_batch(&synthetic_uniform(16, 1e9, 4e6, 2e6), 32);
    let st = ClusterState::new(ClusterTopology::single_switch(4, 1, GpuKind::P100, 25.0));
    let mut base = Partition {
        stages: (0..4)
            .map(|s| ap_pipesim::Stage::new(s * 4..(s + 1) * 4, vec![GpuId(s)]))
            .collect(),
        in_flight: 1,
    };
    base.in_flight = base.default_in_flight();
    let history = VecDeque::new();
    let mut ties = 0;
    for schedule in ScheduleKind::zoo() {
        let model = AnalyticModel {
            profile: &profile,
            scheme: SyncScheme::RingAllReduce,
            framework: Framework::pytorch(),
            schedule,
            calibration: None,
        };
        let ctx = ScoreCtx {
            model,
            history: &history,
            state: &st,
        };
        let moves = all_moves(&base, &profile);
        let (score, mv) = Scorer::Analytic
            .best(&ctx, &base, &moves)
            .expect("non-empty neighborhood");
        let (want_score, want) = serial_best(&model, &base, &moves, &st);
        assert_eq!(score.to_bits(), want_score.to_bits(), "{schedule:?}");
        assert_eq!(mv, want, "{schedule:?}");
        let at_max = moves
            .iter()
            .filter(|m| model.throughput(&m.apply(&base), &st).to_bits() == score.to_bits())
            .count();
        ties += usize::from(at_max > 1);
        // The last of the tied moves wins.
        let last = moves
            .iter()
            .rev()
            .find(|m| model.throughput(&m.apply(&base), &st).to_bits() == score.to_bits())
            .expect("the winner is a move");
        assert_eq!(mv, *last, "{schedule:?}");
    }
    assert!(ties > 0, "no constructed tie: the test lost its subject");
}

/// A three-stage base on a uniform model whose middle stage has two
/// replicas, so every split adds a fourth stage and keeps a stage on
/// each side of it. The first stage holds half the layers: it is the
/// slowest stage before and after a split.
fn splittable_base(in_flight: usize) -> (ModelProfile, Partition) {
    let profile = ModelProfile::with_batch(&synthetic_uniform(12, 1e9, 4e5, 2e6), 32);
    let base = Partition {
        stages: vec![
            ap_pipesim::Stage::new(0..6, vec![GpuId(0)]),
            ap_pipesim::Stage::new(6..9, vec![GpuId(1), GpuId(2)]),
            ap_pipesim::Stage::new(9..12, vec![GpuId(3)]),
        ],
        in_flight,
    };
    (profile, base)
}

/// Runtime overheads that dwarf compute: a second per stage and a
/// stash cost per byte that moves the first stage's time.
fn heavy_calibration(compute_slots: usize) -> Calibration {
    Calibration {
        per_frame_s: 2.0e-5,
        per_byte_s: 1.0e-10,
        stage_overhead_s: 1.0,
        stash_byte_s: 2.0e-9,
        compute_slots,
    }
}

#[test]
fn split_past_the_compute_slots_prices_the_host_capacity_exactly() {
    let (profile, mut base) = splittable_base(1);
    base.in_flight = base.default_in_flight();
    let st = ClusterState::new(ClusterTopology::single_switch(4, 1, GpuKind::P100, 25.0));
    // As many slots as the base has stages: the base fits, every split
    // is one stage over, and the per-stage overhead makes the host's
    // aggregate capacity the bottleneck.
    let model = AnalyticModel {
        profile: &profile,
        scheme: SyncScheme::RingAllReduce,
        framework: Framework::pytorch(),
        schedule: ScheduleKind::PipeDreamAsync,
        calibration: Some(heavy_calibration(base.n_stages())),
    };
    let table = model.table(&base, &st);
    let splits = ap_planner::split_moves(&base, &profile);
    assert!(!splits.is_empty());
    for mv in splits {
        let cand = mv.apply(&base);
        assert!(
            base.in_flight > 1 && cand.in_flight > 1,
            "the stash stays on"
        );
        let host = 2 * cand.n_stages() - 1;
        assert_eq!(model.evaluate(&cand, &st).bottleneck, host, "{mv:?}");
        assert_ne!(
            model.evaluate(&base, &st).bottleneck,
            2 * base.n_stages() - 1
        );
        let delta = mv.throughput(&model, &table, &base, &st);
        let full = model.throughput(&cand, &st);
        assert_eq!(delta.to_bits(), full.to_bits(), "{mv:?}: {delta} vs {full}");
    }
}

#[test]
fn split_that_turns_the_stash_on_prices_exactly() {
    // Depth 1: no stash. A split resets the depth to the candidate's
    // default, deeper than 1, so the calibrated stash turns on and the
    // occupancy of every stage but the last changes, the kept first
    // stage's too.
    let (profile, base) = splittable_base(1);
    let st = ClusterState::new(ClusterTopology::single_switch(4, 1, GpuKind::P100, 25.0));
    let model = AnalyticModel {
        profile: &profile,
        scheme: SyncScheme::RingAllReduce,
        framework: Framework::pytorch(),
        schedule: ScheduleKind::PipeDreamAsync,
        calibration: Some(heavy_calibration(0)),
    };
    let table = model.table(&base, &st);
    let splits = ap_planner::split_moves(&base, &profile);
    assert!(!splits.is_empty());
    for mv in splits {
        let cand = mv.apply(&base);
        assert!(cand.in_flight > 1, "{mv:?} keeps the stash off");
        assert_eq!(model.evaluate(&cand, &st).bottleneck, 0, "{mv:?}");
        let delta = mv.throughput(&model, &table, &base, &st);
        let full = model.throughput(&cand, &st);
        assert_eq!(delta.to_bits(), full.to_bits(), "{mv:?}: {delta} vs {full}");
    }
}
