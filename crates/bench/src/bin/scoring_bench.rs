//! Per-decision candidate-scoring wall-clock on the paper's models.
//!
//! A decision point scores the full two-worker incremental neighborhood
//! (O(L²) candidates) with the meta-network. This binary measures three
//! variants of that scan:
//!
//! * `serial_lstm` — the naive path: every candidate pays a full LSTM
//!   pass over the dynamic history plus the FC head (the seed behavior).
//! * `hoisted` — the history is encoded once per decision; candidates pay
//!   only the FC head. Static Table-1 metrics are memoized per distinct
//!   worker count.
//! * `hoisted_parallel` — the production path itself: the controller's
//!   scoring stage ([`Scorer::best`]), which hoists the LSTM encoding and
//!   fans the per-candidate head across the in-tree `ap_par` worker pool.
//!
//! Results (median of N runs) are written to `BENCH_scoring.json` in the
//! current directory, or to the path given as the first argument.

use ap_bench::json::Json;
use ap_bench::timing;
use ap_cluster::{gbps, ClusterState, ClusterTopology, GpuId};
use ap_models::{alexnet, resnet50, vgg16, ModelProfile};
use ap_pipesim::{AnalyticModel, Framework, Partition, ScheduleKind, SyncScheme};
use ap_planner::{pipedream_plan, two_worker_moves, PipeDreamView};
use autopipe::controller::ScoreCtx;
use autopipe::metrics::{
    static_metrics_from_profile, FeatureEncoder, ProfilingMetrics, DYNAMIC_DIM,
};
use autopipe::{MetaNet, MetaNetConfig, Scorer};
use std::collections::VecDeque;
use std::hint::black_box;

const RUNS: usize = 31;

fn static_memo(profile: &ModelProfile, candidates: &[Partition]) -> Vec<(usize, ProfilingMetrics)> {
    let mut memo: Vec<(usize, ProfilingMetrics)> = Vec::new();
    for p in candidates {
        let n = p.n_workers();
        if !memo.iter().any(|&(k, _)| k == n) {
            memo.push((n, static_metrics_from_profile(profile, n)));
        }
    }
    memo
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_scoring.json".to_string());
    let encoder = FeatureEncoder;
    let gpus: Vec<GpuId> = (0..10).map(GpuId).collect();
    let view = PipeDreamView {
        bandwidth: gbps(25.0),
        gpu_flops: 9.3e12,
    };

    let mut models_json = Vec::new();
    for model in [alexnet(), resnet50(), vgg16()] {
        let profile = ModelProfile::of(&model);
        let net = MetaNet::new(MetaNetConfig::default());
        let plan = pipedream_plan(&profile, &gpus, view);
        let moves = two_worker_moves(&plan, profile.n_layers());
        let candidates: Vec<Partition> = moves.iter().map(|mv| mv.apply(&plan)).collect();
        let dyn_seq: Vec<Vec<f64>> = (0..net.config().seq_len)
            .map(|i| vec![0.1 + 0.05 * i as f64; DYNAMIC_DIM])
            .collect();
        println!(
            "== {} ({} layers, {} candidates) ==",
            model.name,
            profile.n_layers(),
            candidates.len()
        );

        // Seed path: full LSTM pass per candidate.
        let serial = timing::bench(&format!("serial_lstm/{}", model.name), RUNS, || {
            let mut best = f64::NEG_INFINITY;
            for cand in &candidates {
                let m = static_metrics_from_profile(&profile, cand.n_workers());
                let stat = encoder.encode_static(&m, cand);
                best = best.max(net.predict(&dyn_seq, &stat));
            }
            black_box(best);
        });
        serial.report();

        // One LSTM pass per decision, serial FC head.
        let hoisted = timing::bench(&format!("hoisted/{}", model.name), RUNS, || {
            let h = net.encode_history(&dyn_seq);
            let memo = static_memo(&profile, &candidates);
            let mut best = f64::NEG_INFINITY;
            for cand in &candidates {
                let m = &memo
                    .iter()
                    .find(|&&(k, _)| k == cand.n_workers())
                    .unwrap()
                    .1;
                let stat = encoder.encode_static(m, cand);
                best = best.max(net.predict_from_encoding(&h, &stat));
            }
            black_box(best);
        });
        hoisted.report();

        // Production path: the controller's scoring stage (hoisted encoding
        // + ap_par fan-out inside `Scorer::best`). Building the candidates
        // from their moves is part of the measured cost, exactly as in a
        // live decision round.
        let history: VecDeque<Vec<f64>> = dyn_seq.iter().cloned().collect();
        let state = ClusterState::new(ClusterTopology::paper_testbed(25.0));
        let ctx = ScoreCtx {
            model: AnalyticModel {
                profile: &profile,
                scheme: SyncScheme::RingAllReduce,
                framework: Framework::pytorch(),
                schedule: ScheduleKind::PipeDreamAsync,
                calibration: None,
            },
            history: &history,
            state: &state,
        };
        let scorer = Scorer::MetaNet(Box::new(MetaNet::new(MetaNetConfig::default())));
        let parallel = timing::bench(&format!("hoisted_parallel/{}", model.name), RUNS, || {
            let best = scorer.best(&ctx, &plan, &moves);
            black_box(best);
        });
        parallel.report();

        let speedup_hoisted = serial.median / hoisted.median;
        let speedup_parallel = serial.median / parallel.median;
        println!(
            "   speedup: hoisted {speedup_hoisted:.1}x, hoisted+parallel {speedup_parallel:.1}x\n"
        );

        models_json.push(Json::obj(vec![
            ("model", Json::Str(model.name.clone())),
            ("layers", Json::Num(profile.n_layers() as f64)),
            ("candidates", Json::Num(candidates.len() as f64)),
            ("runs", Json::Num(RUNS as f64)),
            ("serial_lstm_median_s", Json::Num(serial.median)),
            ("hoisted_median_s", Json::Num(hoisted.median)),
            ("hoisted_parallel_median_s", Json::Num(parallel.median)),
            ("speedup_hoisted", Json::Num(speedup_hoisted)),
            ("speedup_hoisted_parallel", Json::Num(speedup_parallel)),
        ]));
    }

    let doc = Json::obj(vec![
        ("bench", Json::Str("per_decision_candidate_scoring".into())),
        ("threads", Json::Num(ap_par::threads() as f64)),
        ("models", Json::Arr(models_json)),
    ]);
    std::fs::write(&out_path, doc.pretty()).expect("write BENCH_scoring.json");
    println!("wrote {out_path}");
}
