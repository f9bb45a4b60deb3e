//! Figure 12: computation time of worker-partition modeling.
//!
//! Benchmarks the three deciders on the paper's models: PipeDream's DP,
//! the meta-network scoring one full incremental neighborhood, and a
//! single RL-arbiter pass. The paper reports meta-net + RL well below the
//! DP and everything under a second. The DP alone is also timed on the
//! deepest served models, ResNet-101 and ResNet-152.

use ap_bench::timing;
use ap_cluster::{gbps, ClusterState, ClusterTopology, GpuId};
use ap_models::{alexnet, resnet101, resnet152, resnet50, vgg16, ModelProfile};
use ap_planner::{pipedream_plan, two_worker_moves, PipeDreamView};
use autopipe::arbiter::{Arbiter, ArbiterInput};
use autopipe::controller::{AutoPipeConfig, ScoreCtx};
use autopipe::metrics::DYNAMIC_DIM;
use autopipe::{MetaNet, MetaNetConfig, Scorer};
use std::collections::VecDeque;
use std::hint::black_box;

fn main() {
    println!("fig12_partition_time");
    let runs = 20;
    let gpus: Vec<GpuId> = (0..10).map(GpuId).collect();
    let view = PipeDreamView {
        bandwidth: gbps(25.0),
        gpu_flops: 9.3e12,
    };
    let net = MetaNet::new(MetaNetConfig::default());
    let history: VecDeque<Vec<f64>> = (0..net.config().seq_len)
        .map(|_| vec![0.5; DYNAMIC_DIM])
        .collect();
    let scorer = Scorer::MetaNet(Box::new(net));
    let state = ClusterState::new(ClusterTopology::paper_testbed(25.0));
    let arbiter = Arbiter::new(3);

    for model in [alexnet(), resnet50(), vgg16()] {
        let profile = ModelProfile::of(&model);
        timing::run(&format!("pipedream_dp/{}", model.name), runs, || {
            black_box(pipedream_plan(black_box(&profile), &gpus, view));
        });

        let plan = pipedream_plan(&profile, &gpus, view);
        let ctx = ScoreCtx {
            model: AutoPipeConfig::default().model(&profile),
            history: &history,
            state: &state,
        };
        timing::run(
            &format!("meta_net_neighborhood/{}", model.name),
            runs,
            || {
                // The production path: the controller's scoring stage.
                let moves = two_worker_moves(&plan, profile.n_layers());
                black_box(scorer.best(&ctx, &plan, &moves));
            },
        );

        timing::run(&format!("rl_decision/{}", model.name), runs, || {
            black_box(arbiter.decide(black_box(&ArbiterInput {
                current_speed: 100.0,
                candidate_speed: 120.0,
                switch_cost: 1.0,
                iteration_time: 0.5,
                horizon_iterations: 100.0,
                mean_bandwidth_norm: 0.25,
            })));
        });
    }

    for model in [resnet101(), resnet152()] {
        let profile = ModelProfile::of(&model);
        timing::run(&format!("pipedream_dp/{}", model.name), runs, || {
            black_box(pipedream_plan(black_box(&profile), &gpus, view));
        });
    }
}
