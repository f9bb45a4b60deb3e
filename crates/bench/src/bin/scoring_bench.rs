//! Per-decision candidate-scoring wall-clock on the paper's models.
//!
//! A decision point scores the full two-worker incremental neighborhood
//! (O(L²) candidates) with the meta-network. This binary measures two
//! variants of that scan:
//!
//! * `serial_lstm` — the naive path: every candidate pays a full LSTM
//!   pass over the dynamic history plus the FC head (the seed behavior).
//! * `scorer_best` — the production path itself: the controller's
//!   scoring stage ([`Scorer::best`]), which encodes the history once per
//!   decision and memoizes static Table-1 metrics per distinct worker
//!   count, so candidates pay only the FC head.
//!
//! Results (median of N runs) are written to `BENCH_scoring.json` in the
//! current directory, or to the path given as the first argument.

use ap_bench::json::Json;
use ap_bench::timing;
use ap_cluster::{gbps, ClusterState, ClusterTopology, GpuId};
use ap_models::{alexnet, resnet50, vgg16, ModelProfile};
use ap_pipesim::Partition;
use ap_planner::{pipedream_plan, two_worker_moves, PipeDreamView};
use autopipe::controller::{AutoPipeConfig, ScoreCtx};
use autopipe::metrics::{static_metrics_from_profile, FeatureEncoder, DYNAMIC_DIM};
use autopipe::{MetaNet, MetaNetConfig, Scorer};
use std::collections::VecDeque;
use std::hint::black_box;

const RUNS: usize = 31;

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

        // Production path: the controller's scoring stage. Building the
        // candidates from their moves is part of the measured cost, exactly
        // as in a live decision round.
        let history: VecDeque<Vec<f64>> = dyn_seq.iter().cloned().collect();
        let state = ClusterState::new(ClusterTopology::paper_testbed(25.0));
        let ctx = ScoreCtx {
            model: AutoPipeConfig::default().model(&profile),
            history: &history,
            state: &state,
        };
        let scorer = Scorer::MetaNet(Box::new(net));
        let production = timing::bench(&format!("scorer_best/{}", model.name), RUNS, || {
            let best = scorer.best(&ctx, &plan, &moves);
            black_box(best);
        });
        production.report();

        let speedup = serial.median / production.median;
        println!("   speedup: scorer_best {speedup:.1}x\n");

        models_json.push(Json::obj(vec![
            ("model", Json::Str(model.name.clone())),
            ("layers", Json::Num(profile.n_layers() as f64)),
            ("candidates", Json::Num(candidates.len() as f64)),
            ("runs", Json::Num(RUNS as f64)),
            ("serial_lstm_median_s", Json::Num(serial.median)),
            ("scorer_best_median_s", Json::Num(production.median)),
            ("speedup", Json::Num(speedup)),
        ]));
    }

    let doc = Json::obj(vec![
        ("bench", Json::Str("per_decision_candidate_scoring".into())),
        ("models", Json::Arr(models_json)),
    ]);
    std::fs::write(&out_path, doc.pretty()).expect("write BENCH_scoring.json");
    println!("wrote {out_path}");
}
