//! Offline meta-network pretraining (§4.3 "offline training").

use ap_cluster::{ClusterState, ClusterTopology, GpuId};
use ap_models::ModelProfile;
use ap_pipesim::AnalyticModel;
use ap_planner::{all_moves, uniform_plan};
use ap_rng::Rng;

use super::AutoPipeConfig;
use crate::meta_net::{MetaNet, MetaNetConfig, TrainingSample};
use crate::metrics::{static_metrics_from_profile, FeatureEncoder};
use crate::profiler::Profiler;

/// Offline meta-network pretraining: sample environments (bandwidth and
/// contention levels) and candidate partitions, label them with the
/// analytic model, and fit the network.
pub fn pretrain_meta_net(
    profile: &ModelProfile,
    topo: &ClusterTopology,
    cfg: &AutoPipeConfig,
    meta_cfg: MetaNetConfig,
    n_samples: usize,
    epochs: usize,
    seed: u64,
) -> MetaNet {
    let encoder = FeatureEncoder;
    let model = AnalyticModel {
        profile,
        scheme: cfg.scheme,
        framework: cfg.framework,
        schedule: cfg.schedule,
        calibration: cfg.calibration,
    };
    let all_gpus: Vec<GpuId> = (0..topo.n_gpus()).map(GpuId).collect();
    let seq_len = meta_cfg.seq_len;
    // Sample `i` draws from its own RNG stream `(seed, i)` and retries
    // infeasible environments within that stream.
    let sample = |i: usize| {
        let mut rng = Rng::stream(seed, i as u64);
        loop {
            // Random environment.
            let mut st = ClusterState::new(topo.clone());
            let g: f64 = rng.gen_range(5.0..100.0);
            st.topology.set_uniform_link_gbps(g);
            for gi in 0..st.topology.n_gpus() {
                st.topology.gpu_mut(GpuId(gi)).colocated_jobs = rng.gen_range(1..=3u32);
            }
            // Random partition: a planner start plus a few random moves.
            let n_stages = rng.gen_range(1..=4usize.min(all_gpus.len()));
            let mut p = uniform_plan(profile, n_stages, &all_gpus);
            for _ in 0..rng.gen_range(0..4usize) {
                let moves = all_moves(&p, profile);
                if moves.is_empty() {
                    break;
                }
                p = moves[rng.gen_range(0..moves.len())].apply(&p);
            }
            let tp = model.throughput(&p, &st);
            if !(tp.is_finite() && tp > 0.0) {
                continue;
            }
            // Stationary dynamic history for this environment.
            let mut prof = Profiler::new(profile, cfg.profiler_noise, rng.gen());
            let workers = p.all_workers();
            let dynamic_seq: Vec<Vec<f64>> = (0..seq_len)
                .map(|_| {
                    let m = prof.observe(&workers, &st);
                    encoder.encode_dynamic(&m, &p)
                })
                .collect();
            let m = static_metrics_from_profile(profile, p.n_workers());
            return TrainingSample {
                dynamic_seq,
                static_feat: encoder.encode_static(&m, &p),
                log_throughput: tp.ln(),
            };
        }
    };
    let samples: Vec<TrainingSample> = (0..n_samples).map(sample).collect();
    let mut net = MetaNet::new(meta_cfg);
    net.train(&samples, epochs, seed.wrapping_add(1));
    net
}
