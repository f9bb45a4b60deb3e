//! Figure 12: computation time of the worker-partition modeling (§5.3).
//!
//! Wall-clock cost of deciding a partition: PipeDream's DP vs AutoPipe's
//! meta-network scoring of the full two-worker neighborhood plus one RL
//! arbiter pass. The paper reports both meta-net and RL far below the DP
//! and the total under one second.

use std::collections::VecDeque;
use std::time::Instant;

use ap_cluster::{gbps, ClusterState, ClusterTopology, GpuId};
use ap_models::{alexnet, resnet50, vgg16, ModelProfile};
use ap_planner::{pipedream_plan, two_worker_moves, PipeDreamView};
use autopipe::arbiter::{Arbiter, ArbiterInput};
use autopipe::controller::{AutoPipeConfig, ScoreCtx};
use autopipe::metrics::DYNAMIC_DIM;
use autopipe::{MetaNet, MetaNetConfig, Scorer};

/// One model's partition-modeling costs.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Model name.
    pub model: String,
    /// PipeDream's DP, seconds.
    pub dp_seconds: f64,
    /// Meta-network scoring of the whole O(L^2) neighborhood, seconds.
    pub meta_net_seconds: f64,
    /// One RL arbiter decision, seconds.
    pub rl_seconds: f64,
}

/// Time the three planners on one model. `scorer` is the meta-network
/// scorer and `history` its dynamic input.
pub fn measure(
    profile: &ModelProfile,
    scorer: &Scorer,
    history: &VecDeque<Vec<f64>>,
    arbiter: &Arbiter,
) -> OverheadRow {
    let gpus: Vec<GpuId> = (0..10).map(GpuId).collect();
    let view = PipeDreamView {
        bandwidth: gbps(25.0),
        gpu_flops: 9.3e12,
    };

    let t0 = Instant::now();
    let plan = pipedream_plan(profile, &gpus, view);
    let dp_seconds = t0.elapsed().as_secs_f64();

    // Meta-net: score every two-worker move of the DP plan through the
    // controller's own scoring stage.
    let state = ClusterState::new(ClusterTopology::paper_testbed(25.0));
    let ctx = ScoreCtx {
        model: AutoPipeConfig::default().model(profile),
        history,
        state: &state,
    };
    let t1 = Instant::now();
    let best = scorer.best(&ctx, &plan, &two_worker_moves(&plan, profile.n_layers()));
    let meta_net_seconds = t1.elapsed().as_secs_f64();

    let t2 = Instant::now();
    let _ = arbiter.decide(&ArbiterInput {
        current_speed: 100.0,
        candidate_speed: best.map_or(0.0, |(speed, _)| speed),
        switch_cost: 1.0,
        iteration_time: 0.5,
        horizon_iterations: 100.0,
        mean_bandwidth_norm: 0.25,
    });
    let rl_seconds = t2.elapsed().as_secs_f64();

    OverheadRow {
        model: profile.name.clone(),
        dp_seconds,
        meta_net_seconds,
        rl_seconds,
    }
}

/// Figure 12: AlexNet, ResNet50, VGG16.
pub fn fig12() -> Vec<OverheadRow> {
    let net = MetaNet::new(MetaNetConfig::default());
    let history = (0..net.config().seq_len)
        .map(|_| vec![0.5; DYNAMIC_DIM])
        .collect();
    let scorer = Scorer::MetaNet(Box::new(net));
    let arbiter = Arbiter::new(3);
    [alexnet(), resnet50(), vgg16()]
        .iter()
        .map(|m| measure(&ModelProfile::of(m), &scorer, &history, &arbiter))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn everything_is_sub_second() {
        for row in fig12() {
            assert!(row.dp_seconds < 1.0, "{row:?}");
            assert!(
                row.meta_net_seconds + row.rl_seconds < 1.0,
                "paper: total worker-partition calculation under 1 s; {row:?}"
            );
        }
    }

    #[test]
    fn rl_pass_is_cheapest() {
        for row in fig12() {
            assert!(row.rl_seconds <= row.meta_net_seconds, "{row:?}");
        }
    }
}
